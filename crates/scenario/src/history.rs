//! Low-overhead recording of per-client invoke/commit/abort events.
//!
//! The recorder is what turns a chaos run into something checkable: the
//! oracle replays the recorded history against a sequential model
//! (Crichlow/Hartley-style replicated-counter validation, but over the
//! *history*, not just the end state — per Shapiro & Preguiça, checking
//! histories is what catches ordering bugs).
//!
//! Happy-path cost is deliberately near zero: operation payloads and
//! replies are stored as [`Bytes`] clones (refcount bumps of the buffers
//! the wire layer already owns), and events append to one pre-sized `Vec`.
//! The `history` bench asserts the recorder adds ≤ 2 heap
//! allocations per committed operation under a counting allocator.

use groupview_sim::{Bytes, SimTime};
use groupview_store::Uid;
use std::fmt;

/// What a recorded client event was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An operation was invoked successfully.
    Invoked {
        /// The encoded operation, shared with the wire layer (refcounted).
        op: Bytes,
        /// The reply bytes (usually a zero-copy slice of the reply frame).
        reply: Bytes,
        /// Whether the operation declared write intent.
        write: bool,
    },
    /// The enclosing action committed.
    Committed,
    /// The enclosing action aborted.
    Aborted {
        /// Whether the abort was failure-caused (crashes/partitions) as
        /// opposed to ordinary lock contention.
        failure: bool,
    },
    /// The client crashed mid-action (the action was aborted by the system;
    /// bindings may have leaked).
    CrashedMidAction,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The acting client (machine index in the workload).
    pub client: usize,
    /// The enclosing action's raw id (groups an action's events).
    pub action: u64,
    /// The object acted on.
    pub uid: Uid,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only record of everything the workload's clients did.
///
/// History order is real-time order (the simulated world is
/// single-threaded), so the order of [`EventKind::Committed`] events *is*
/// the serialization order of committed actions.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// An empty history pre-sized for `events` entries (the runner sizes it
    /// from the workload spec so steady-state recording never reallocates).
    pub fn with_capacity(events: usize) -> Self {
        History {
            events: Vec::with_capacity(events),
        }
    }

    /// Records a successful invocation.
    #[allow(clippy::too_many_arguments)]
    pub fn invoked(
        &mut self,
        at: SimTime,
        client: usize,
        action: u64,
        uid: Uid,
        op: Bytes,
        reply: Bytes,
        write: bool,
    ) {
        self.events.push(Event {
            at,
            client,
            action,
            uid,
            kind: EventKind::Invoked { op, reply, write },
        });
    }

    /// Records a commit.
    pub fn committed(&mut self, at: SimTime, client: usize, action: u64, uid: Uid) {
        self.events.push(Event {
            at,
            client,
            action,
            uid,
            kind: EventKind::Committed,
        });
    }

    /// Records an abort.
    pub(crate) fn aborted(
        &mut self,
        at: SimTime,
        client: usize,
        action: u64,
        uid: Uid,
        failure: bool,
    ) {
        self.events.push(Event {
            at,
            client,
            action,
            uid,
            kind: EventKind::Aborted { failure },
        });
    }

    /// Records a client crash that abandoned an in-flight action.
    pub(crate) fn crashed(&mut self, at: SimTime, client: usize, action: u64, uid: Uid) {
        self.events.push(Event {
            at,
            client,
            action,
            uid,
            kind: EventKind::CrashedMidAction,
        });
    }

    /// All events in real-time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of committed actions in the history.
    pub(crate) fn commits(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Committed)
            .count()
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events ({} commits)",
            self.events.len(),
            self.commits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_counts_commits() {
        let mut h = History::with_capacity(8);
        let uid = Uid::from_raw(1);
        let op = Bytes::from_static(b"op");
        h.invoked(
            SimTime::from_micros(1),
            0,
            10,
            uid,
            op.clone(),
            op.clone(),
            true,
        );
        h.committed(SimTime::from_micros(2), 0, 10, uid);
        h.invoked(SimTime::from_micros(3), 1, 11, uid, op.clone(), op, false);
        h.aborted(SimTime::from_micros(4), 1, 11, uid, true);
        h.crashed(SimTime::from_micros(5), 2, 12, uid);
        assert_eq!(h.len(), 5);
        assert_eq!(h.commits(), 1);
        assert!(!h.is_empty());
        assert!(h.to_string().contains("5 events"));
        assert!(matches!(
            h.events()[3].kind,
            EventKind::Aborted { failure: true }
        ));
    }

    #[test]
    fn recording_shares_buffers_instead_of_copying() {
        let before = groupview_sim::wire::stats();
        let mut h = History::with_capacity(64);
        let uid = Uid::from_raw(2);
        let op = Bytes::from_static(b"payload");
        for i in 0..64 {
            h.invoked(SimTime::ZERO, 0, i, uid, op.clone(), op.clone(), true);
        }
        let delta = groupview_sim::wire::stats().since(before);
        assert_eq!(delta.buffer_allocs, 0, "clones are refcount bumps");
        assert_eq!(delta.bytes_copied, 0);
    }
}
