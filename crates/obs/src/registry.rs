//! The per-world metrics registry: counters plus causal span storage.
//!
//! One [`Registry`] lives in each simulated world (the hot path is `Cell`
//! bumps, never a lock). The registry is
//! **disabled by default**: every recording call starts with an inlined
//! `enabled` check and returns immediately without allocating, so wiring
//! the registry through the protocol layers costs nothing on unobserved
//! runs (the objects bench asserts zero added allocs/op).

use crate::metrics::Histogram;
use crate::phase::Phase;
use crate::snapshot::MetricsSnapshot;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A named monotonically increasing counter maintained by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Operation invocations started (single ops and batch frames).
    Invokes,
    /// Individual operations carried inside batch frames.
    BatchOps,
    /// Ordered multicasts issued to replica groups.
    Multicasts,
    /// Point-to-point RPCs issued (coordinator/single-copy legs).
    Rpcs,
    /// Locks granted.
    LocksAcquired,
    /// Lock requests refused (conflict).
    LocksRefused,
    /// Participants prepared in commit phase 1.
    Prepares,
    /// Top-level actions committed.
    Commits,
    /// Top-level actions aborted.
    Aborts,
    /// Undo operations executed while aborting.
    UndoOps,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 10] = [
        Counter::Invokes,
        Counter::BatchOps,
        Counter::Multicasts,
        Counter::Rpcs,
        Counter::LocksAcquired,
        Counter::LocksRefused,
        Counter::Prepares,
        Counter::Commits,
        Counter::Aborts,
        Counter::UndoOps,
    ];

    /// Number of counters (array dimensions in the registry).
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable snake_case name used by exporters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Counter::Invokes => "invokes",
            Counter::BatchOps => "batch_ops",
            Counter::Multicasts => "multicasts",
            Counter::Rpcs => "rpcs",
            Counter::LocksAcquired => "locks_acquired",
            Counter::LocksRefused => "locks_refused",
            Counter::Prepares => "prepares",
            Counter::Commits => "commits",
            Counter::Aborts => "aborts",
            Counter::UndoOps => "undo_ops",
        }
    }

    /// Position in [`Counter::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A completed causal span: one phase of one atomic action, in virtual
/// (simulated) microseconds. Spans are recorded whole — callers read the
/// sim clock before and after the phase and hand both stamps in — so the
/// registry never needs open-span bookkeeping on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Raw id of the atomic action this phase belongs to.
    pub action: u64,
    /// Which lifecycle phase the span covers.
    pub phase: Phase,
    /// Virtual start time, microseconds.
    pub start_us: u64,
    /// Virtual end time, microseconds (`>= start_us`).
    pub end_us: u64,
}

impl SpanRec {
    /// Span duration in virtual microseconds.
    pub(crate) fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Per-node load attribution: how much work one node did during the
/// observation window. The rebalancer's *inputs* stay deterministic and
/// obs-independent (directory use counts + store sizes); these counters are
/// the shared **reporting** surface — `MetricsSnapshot.node_loads` — that
/// `ScenarioReport` and examples read. `node` is the raw node id (this
/// crate is dependency-free and does not know `NodeId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeLoad {
    /// Raw id of the node (`NodeId::raw()`).
    pub node: u32,
    /// Operation invocations executed by replicas hosted on this node.
    pub invokes: u64,
    /// Locks granted to actions whose client runs on this node.
    pub locks: u64,
    /// Network bytes delivered *to* this node.
    pub bytes_in: u64,
    /// Network bytes sent *from* this node (and delivered).
    pub bytes_out: u64,
}

impl NodeLoad {
    /// Whether every counter is zero (such entries are elided from
    /// snapshots).
    pub fn is_empty(&self) -> bool {
        self.invokes == 0 && self.locks == 0 && self.bytes_in == 0 && self.bytes_out == 0
    }

    /// Adds `other`'s counters into `self` (same node).
    pub fn absorb(&mut self, other: &NodeLoad) {
        self.invokes += other.invokes;
        self.locks += other.locks;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

#[derive(Default)]
struct RegistryCore {
    enabled: Cell<bool>,
    counters: [Cell<u64>; Counter::COUNT],
    spans: RefCell<Vec<SpanRec>>,
    /// Per-node invoke/lock attribution, indexed by raw node id (grown on
    /// demand; only touched while enabled).
    node_loads: RefCell<Vec<NodeLoad>>,
}

/// Cheap-to-clone handle to one world's metrics registry.
///
/// `!Send` by design, like the sim itself: a world and its registry live
/// on one thread.
#[derive(Clone, Default)]
pub struct Registry {
    core: Rc<RegistryCore>,
}

impl Registry {
    /// A fresh registry, **disabled** (recording calls are no-ops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on or off. Off is the default; the disabled path
    /// performs no allocation and no interior mutation beyond this flag.
    pub fn set_enabled(&self, on: bool) {
        self.core.enabled.set(on);
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.get()
    }

    /// Bump `counter` by `n`. No-op while disabled.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if self.core.enabled.get() {
            let c = &self.core.counters[counter.index()];
            c.set(c.get() + n);
        }
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.core.counters[counter.index()].get()
    }

    /// Record a completed span for `(action, phase)` covering
    /// `start_us..end_us` virtual microseconds. No-op while disabled.
    #[inline]
    pub fn span(&self, action: u64, phase: Phase, start_us: u64, end_us: u64) {
        if self.core.enabled.get() {
            self.core.spans.borrow_mut().push(SpanRec {
                action,
                phase,
                start_us,
                end_us,
            });
        }
    }

    /// Attribute one replica-side invocation to `node` (raw id). No-op
    /// while disabled.
    #[inline]
    pub fn record_node_invoke(&self, node: u32) {
        if self.core.enabled.get() {
            self.node_slot(node, |slot| slot.invokes += 1);
        }
    }

    /// Attribute one granted lock to the client node `node` (raw id).
    /// No-op while disabled.
    #[inline]
    pub fn record_node_lock(&self, node: u32) {
        if self.core.enabled.get() {
            self.node_slot(node, |slot| slot.locks += 1);
        }
    }

    fn node_slot(&self, node: u32, f: impl FnOnce(&mut NodeLoad)) {
        let mut loads = self.core.node_loads.borrow_mut();
        let idx = node as usize;
        if loads.len() <= idx {
            loads.resize_with(idx + 1, NodeLoad::default);
            for (i, slot) in loads.iter_mut().enumerate() {
                slot.node = i as u32;
            }
        }
        f(&mut loads[idx]);
    }

    /// Drain and return every recorded span (oldest first). Counters are
    /// untouched, but per-phase latency distributions in
    /// [`Registry::snapshot`] are built from the live span list — snapshot
    /// **before** draining when both are needed.
    pub fn take_spans(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.core.spans.borrow_mut())
    }

    /// Number of spans currently buffered.
    pub fn span_count(&self) -> usize {
        self.core.spans.borrow().len()
    }

    /// Build a [`MetricsSnapshot`] of everything recorded so far: counter
    /// values, per-node loads and per-phase latency distributions derived
    /// from the buffered spans. The wire-pool and trace-ring fields are
    /// left at zero for the system that owns the world to fill in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for (slot, cell) in counters.iter_mut().zip(self.core.counters.iter()) {
            *slot = cell.get();
        }
        let mut phases: [Histogram; Phase::COUNT] = Default::default();
        for span in self.core.spans.borrow().iter() {
            phases[span.phase.index()].add(span.duration_us());
        }
        MetricsSnapshot {
            counters,
            phases,
            node_loads: self
                .core
                .node_loads
                .borrow()
                .iter()
                .filter(|l| !l.is_empty())
                .copied()
                .collect(),
            ..MetricsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        assert!(!reg.is_enabled());
        reg.add(Counter::Invokes, 5);
        reg.span(1, Phase::Invoke, 0, 10);
        assert_eq!(reg.get(Counter::Invokes), 0);
        assert_eq!(reg.span_count(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Invokes), 0);
        assert_eq!(snap.phase(Phase::Invoke).count(), 0);
    }

    #[test]
    fn enabled_registry_accumulates_counters_and_spans() {
        let reg = Registry::new();
        reg.set_enabled(true);
        reg.add(Counter::Invokes, 2);
        reg.add(Counter::Invokes, 1);
        reg.add(Counter::Commits, 1);
        reg.span(7, Phase::Invoke, 100, 250);
        reg.span(7, Phase::Commit, 250, 300);
        reg.span(8, Phase::Invoke, 300, 320);
        assert_eq!(reg.get(Counter::Invokes), 3);
        assert_eq!(reg.get(Counter::Commits), 1);
        assert_eq!(reg.span_count(), 3);

        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Invokes), 3);
        assert_eq!(snap.phase(Phase::Invoke).count(), 2);
        assert_eq!(snap.phase(Phase::Invoke).total(), 150 + 20);
        assert_eq!(snap.phase(Phase::Commit).count(), 1);

        let spans = reg.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Invoke);
        assert_eq!(spans[0].duration_us(), 150);
        assert_eq!(reg.span_count(), 0);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let alias = reg.clone();
        alias.set_enabled(true);
        reg.add(Counter::Aborts, 4);
        assert_eq!(alias.get(Counter::Aborts), 4);
    }

    #[test]
    fn node_loads_attribute_per_node_and_respect_gating() {
        let reg = Registry::new();
        // Disabled: recorded nothing.
        reg.record_node_invoke(3);
        reg.record_node_lock(1);
        assert!(reg.snapshot().node_loads.is_empty());

        reg.set_enabled(true);
        reg.record_node_invoke(3);
        reg.record_node_invoke(3);
        reg.record_node_lock(1);
        let snap = reg.snapshot();
        // Zero entries are elided; the rest carry their raw node ids.
        assert_eq!(snap.node_loads.len(), 2);
        assert_eq!(snap.node_loads[0].node, 1);
        assert_eq!(snap.node_loads[0].locks, 1);
        assert_eq!(snap.node_loads[1].node, 3);
        assert_eq!(snap.node_loads[1].invokes, 2);
    }

    #[test]
    fn counter_names_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
