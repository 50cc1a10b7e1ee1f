//! Snapshots of a registry: what a run's report carries.

use crate::metrics::Histogram;
use crate::phase::Phase;
use crate::registry::{Counter, NodeLoad};
use std::fmt;

/// A snapshot of one world's registry, built by
/// [`crate::Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Per-phase span durations in virtual µs, indexed by
    /// [`Phase::index`].
    pub phases: [Histogram; Phase::COUNT],
    /// Per-node load attribution (invokes, locks, bytes), sorted by raw
    /// node id; zero-load nodes are elided. The rebalancer's report surface
    /// and `ScenarioReport`'s per-node lines both read this field.
    pub node_loads: Vec<NodeLoad>,
    /// Wire buffers allocated fresh (pool misses), from the sim wire layer.
    pub wire_buffer_allocs: u64,
    /// Wire buffers served from the pool (pool hits).
    pub wire_pool_reuses: u64,
    /// Payload bytes copied onto the wire.
    pub wire_bytes_copied: u64,
    /// Trace events evicted from the sim's bounded trace ring.
    pub trace_dropped: u64,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            phases: Default::default(),
            node_loads: Vec::new(),
            wire_buffer_allocs: 0,
            wire_pool_reuses: 0,
            wire_bytes_copied: 0,
            trace_dropped: 0,
        }
    }
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Span durations of one phase, in virtual µs.
    pub fn phase(&self, p: Phase) -> &Histogram {
        &self.phases[p.index()]
    }

    /// Fold one node's load into the snapshot, keeping `node_loads`
    /// sorted by raw node id (counters of an existing entry add).
    pub fn absorb_node_load(&mut self, load: &NodeLoad) {
        if load.is_empty() {
            return;
        }
        match self.node_loads.binary_search_by_key(&load.node, |l| l.node) {
            Ok(i) => self.node_loads[i].absorb(load),
            Err(i) => self.node_loads.insert(i, *load),
        }
    }

    /// Multi-line per-node load breakdown (empty string when no node work
    /// was attributed). One line per node: invokes, locks, bytes in/out.
    pub fn node_load_breakdown(&self) -> String {
        let mut out = String::new();
        for l in &self.node_loads {
            out.push_str(&format!(
                "  node {:<4} invokes={:<8} locks={:<8} in={:<10} out={:<10}\n",
                l.node, l.invokes, l.locks, l.bytes_in, l.bytes_out,
            ));
        }
        out
    }

    /// Total spans across all phases.
    pub fn span_count(&self) -> u64 {
        self.phases.iter().map(|h| h.count() as u64).sum()
    }

    /// Wire pool hit rate in 0..=1 (1.0 when no buffer was ever needed).
    pub(crate) fn wire_pool_hit_rate(&self) -> f64 {
        let total = self.wire_buffer_allocs + self.wire_pool_reuses;
        if total == 0 {
            1.0
        } else {
            self.wire_pool_reuses as f64 / total as f64
        }
    }

    /// Multi-line per-phase latency breakdown — the plain-text "flame"
    /// view appended to scenario reports. One line per non-empty phase
    /// with count, share of total span time, p50/p95/max.
    pub fn phase_breakdown(&self) -> String {
        let grand_total: u64 = self.phases.iter().map(Histogram::total).sum();
        let mut out = String::new();
        for p in Phase::ALL {
            let stats = self.phase(p);
            if stats.is_empty() {
                continue;
            }
            let share = if grand_total == 0 {
                0.0
            } else {
                100.0 * stats.total() as f64 / grand_total as f64
            };
            out.push_str(&format!(
                "  {:<12} n={:<6} {:>5.1}% of span time | p50={:>6}us p95={:>6}us max={:>6}us\n",
                p.name(),
                stats.count(),
                share,
                stats.p50(),
                stats.p95(),
                stats.max(),
            ));
        }
        if out.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics snapshot:")?;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                writeln!(f, "  {:<14} {v}", c.name())?;
            }
        }
        writeln!(
            f,
            "  wire: {} allocs, {} reuses ({:.1}% pool hits), {} bytes copied; trace dropped {}",
            self.wire_buffer_allocs,
            self.wire_pool_reuses,
            100.0 * self.wire_pool_hit_rate(),
            self.wire_bytes_copied,
            self.trace_dropped,
        )?;
        write!(f, "{}", self.phase_breakdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[u64]) -> Histogram {
        samples.iter().copied().collect()
    }

    /// A phase read back from a snapshot keeps nearest-rank percentiles,
    /// and a phase never recorded reads as zeros.
    #[test]
    fn nearest_rank_percentiles() {
        let mut snap = MetricsSnapshot::default();
        snap.phases[Phase::Invoke.index()] = stats(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        let s = snap.phase(Phase::Invoke);
        assert_eq!(s.p50(), 50);
        assert_eq!(s.p95(), 100);
        assert_eq!(s.percentile(10.0), 10);
        assert_eq!(s.max(), 100);
        assert_eq!(s.count(), 10);
        assert_eq!(s.total(), 550);
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.phase(Phase::Invoke).p50(), 0);
        assert_eq!(empty.phase(Phase::Invoke).max(), 0);
    }

    #[test]
    fn snapshot_reports_hit_rate_and_span_count() {
        let mut snap = MetricsSnapshot::default();
        snap.counters[Counter::Invokes.index()] = 7;
        snap.phases[Phase::Invoke.index()] = stats(&[10, 20, 30]);
        snap.wire_buffer_allocs = 2;
        snap.wire_pool_reuses = 8;
        assert_eq!(snap.counter(Counter::Invokes), 7);
        assert_eq!(snap.phase(Phase::Invoke).p50(), 20);
        assert!((snap.wire_pool_hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(snap.span_count(), 3);
        assert_eq!(MetricsSnapshot::default().wire_pool_hit_rate(), 1.0);
    }

    #[test]
    fn node_loads_merge_by_node_id() {
        let mut a = MetricsSnapshot::default();
        a.absorb_node_load(&NodeLoad {
            node: 2,
            invokes: 5,
            ..Default::default()
        });
        a.absorb_node_load(&NodeLoad {
            node: 7,
            bytes_in: 100,
            ..Default::default()
        });
        a.absorb_node_load(&NodeLoad {
            node: 2,
            locks: 3,
            bytes_out: 40,
            ..Default::default()
        });
        a.absorb_node_load(&NodeLoad {
            node: 1,
            invokes: 1,
            ..Default::default()
        });
        let nodes: Vec<u32> = a.node_loads.iter().map(|l| l.node).collect();
        assert_eq!(nodes, vec![1, 2, 7], "sorted by node id");
        let n2 = &a.node_loads[1];
        assert_eq!((n2.invokes, n2.locks, n2.bytes_out), (5, 3, 40));
        let text = a.node_load_breakdown();
        assert!(text.contains("node 2"), "{text}");
        assert!(text.contains("out=40"), "{text}");
        // Empty loads never enter the list.
        a.absorb_node_load(&NodeLoad::default());
        assert_eq!(a.node_loads.len(), 3);
    }

    #[test]
    fn breakdown_lists_only_non_empty_phases() {
        let mut snap = MetricsSnapshot::default();
        snap.phases[Phase::Bind.index()] = stats(&[100]);
        snap.phases[Phase::Commit.index()] = stats(&[300]);
        let text = snap.phase_breakdown();
        assert!(text.contains("bind"));
        assert!(text.contains("commit"));
        assert!(!text.contains("multicast"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("25.0%"));

        let empty = MetricsSnapshot::default();
        assert!(empty.phase_breakdown().contains("no spans recorded"));
        assert!(!empty.to_string().is_empty());
    }
}
