//! Harness spans: wall-clock intervals recorded around each call into the
//! client surface, kept in memory and written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, action}` plus the heap
//! allocation calls made inside it. Spans of one action share its number;
//! the action's own span is the parent of the call spans. A span's self
//! time is its duration minus its children's.

use crate::alloc;
use crate::json::{obj, Value};
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// The fixed span vocabulary (a span stores an index into this table).
pub const NAMES: [&str; 11] = [
    "driver.action",
    "replication.begin",
    "replication.activate",
    "replication.invoke",
    "replication.commit",
    "replication.tx_invoke",
    "replication.tx_commit",
    "membership.drain_step",
    "membership.plan",
    "membership.execute",
    "scenario.run_plan",
];

pub const ACTION: u8 = 0;
pub const BEGIN: u8 = 1;
pub const ACTIVATE: u8 = 2;
pub const INVOKE: u8 = 3;
pub const COMMIT: u8 = 4;
pub const TX_INVOKE: u8 = 5;
pub const TX_COMMIT: u8 = 6;
pub const DRAIN_STEP: u8 = 7;
pub const PLAN: u8 = 8;
pub const EXECUTE: u8 = 9;
pub const RUN_PLAN: u8 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub action: u32,
    /// Heap allocation calls between start and end (children included).
    pub allocs: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; every call is a single branch when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records from the start when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts recording (if `on`) with room for `spans`, so the store
    /// never reallocates mid-run. A tracer is created idle for warm-up and
    /// switched on when the measured window opens.
    pub fn start(&mut self, on: bool, spans: usize) {
        self.on = on;
        if on {
            self.spans.reserve(spans);
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: u8, action: u32) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        // `allocs` holds the counter's start value until `exit` turns it
        // into a delta; read the clock last so the span starts after this
        // bookkeeping.
        let allocs = alloc::calls() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            action,
            allocs,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("exit without enter") as usize;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = (alloc::calls() as u32).wrapping_sub(span.allocs);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
    pub allocs: u64,
}

/// Self time of every span: duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Totals per span name, indexed like [`NAMES`].
pub fn totals(spans: &[Span]) -> [NameTotals; NAMES.len()] {
    let mut out = [NameTotals::default(); NAMES.len()];
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[span.name as usize];
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
        t.max_ns = t.max_ns.max(span.duration_ns());
        t.allocs += u64::from(span.allocs);
    }
    out
}

/// Checks the structure a reader of the trace relies on: every span is
/// closed, every child lies inside its parent and shares its action, and
/// the children of a span sum to no more than it.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut child_sum = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ends before it starts (left open?)"));
        }
        if span.parent == NO_PARENT {
            continue;
        }
        let p = span.parent as usize;
        let Some(parent) = spans.get(p).filter(|_| p < i) else {
            return Err(format!("span {i} names a parent that does not precede it"));
        };
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!("span {i} is not inside its parent {p}"));
        }
        if span.action != parent.action {
            return Err(format!("span {i} and its parent {p} differ in action"));
        }
        child_sum[p] += span.duration_ns();
    }
    for (i, (span, sum)) in spans.iter().zip(child_sum).enumerate() {
        if sum > span.duration_ns() {
            return Err(format!("children of span {i} sum to more than it"));
        }
    }
    Ok(())
}

/// The trace file: a name table plus one row per span, limited to the
/// spans of the first `max_actions` actions so the file stays small (the
/// metrics are computed over every span in memory).
pub fn to_json(workload: &str, spans: &[Span], max_actions: u32) -> Value {
    let kept: Vec<Value> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.action < max_actions)
        .map(|(i, s)| {
            obj([
                ("id", Value::from(i as u64)),
                ("name", Value::from(NAMES[s.name as usize])),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                (
                    "parent",
                    if s.parent == NO_PARENT {
                        Value::Null
                    } else {
                        Value::from(u64::from(s.parent))
                    },
                ),
                ("action", Value::from(u64::from(s.action))),
                ("allocs", Value::from(u64::from(s.allocs))),
            ])
        })
        .collect();
    obj([
        ("workload", Value::from(workload)),
        ("clock", Value::from("ns since the tracer was created")),
        ("spans_recorded", Value::from(spans.len() as u64)),
        ("spans_written", Value::from(kept.len() as u64)),
        ("spans", Value::Arr(kept)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, start: u64, end: u64, parent: u32, action: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            action,
            allocs: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(ACTION, 0, 100, NO_PARENT, 0),
            span(BEGIN, 5, 15, 0, 0),
            span(COMMIT, 20, 90, 0, 0),
            span(ACTION, 100, 130, NO_PARENT, 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 70, 30]);
        let t = totals(&spans);
        assert_eq!(t[ACTION as usize].count, 2);
        assert_eq!(t[ACTION as usize].total_ns, 130);
        assert_eq!(t[ACTION as usize].self_ns, 50);
        assert_eq!(t[ACTION as usize].max_ns, 100);
        assert_eq!(t[COMMIT as usize].self_ns, 70);
        assert!(validate(&spans).is_ok());
    }

    #[test]
    fn validate_rejects_escaping_and_oversized_children() {
        let escaping = [span(ACTION, 10, 50, NO_PARENT, 0), span(BEGIN, 5, 20, 0, 0)];
        assert!(validate(&escaping).is_err());
        let foreign = [span(ACTION, 0, 50, NO_PARENT, 0), span(BEGIN, 5, 20, 0, 1)];
        assert!(validate(&foreign).is_err());
        let open = [span(ACTION, 10, 0, NO_PARENT, 0)];
        assert!(validate(&open).is_err());
        let forward = [span(BEGIN, 0, 1, 1, 0), span(ACTION, 0, 5, NO_PARENT, 0)];
        assert!(validate(&forward).is_err());
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.enter(ACTION, 7);
        t.enter(BEGIN, 7);
        let _v = std::hint::black_box(vec![1u8; 32]);
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[1].allocs >= 1 && spans[0].allocs >= spans[1].allocs);
        assert!(validate(spans).is_ok());

        let mut off = Tracer::new(false);
        off.enter(ACTION, 0);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_keeps_only_the_first_actions() {
        let spans = [
            span(ACTION, 0, 10, NO_PARENT, 0),
            span(ACTION, 10, 20, NO_PARENT, 1),
        ];
        let v = to_json("w", &spans, 1);
        assert_eq!(v.get("spans_recorded").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            v.get("spans").and_then(Value::as_arr).map(<[_]>::len),
            Some(1)
        );
    }
}
