//! Run-level metrics: sample-based histograms and the [`RunMetrics`]
//! record every workload run produces (the scenario runner fills one in;
//! the legacy `Driver` used to).

use groupview_actions::TxStats;
use groupview_sim::NetCounters;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Everything a workload run measured.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Actions started (including ones that later aborted).
    pub attempts: u64,
    /// Actions that committed.
    pub commits: u64,
    /// Actions that aborted (any phase).
    pub aborts: u64,
    /// Bind aborts caused by ordinary lock contention (see
    /// [`groupview_replication::ActivateError::is_failure_caused`]).
    pub abort_bind_contention: u64,
    /// Bind aborts caused by node/network failures (no live servers,
    /// unreachable databases, lost state).
    pub abort_bind_failure: u64,
    /// Invocation aborts caused by ordinary lock contention between live
    /// clients ([`groupview_replication::InvokeError::Tx`] with a refused
    /// lock). Always possible under refusal-based locking; says nothing
    /// about crashes.
    pub abort_contention: u64,
    /// Invocation aborts caused by node/replica failures (multicast
    /// failures via `InvokeError::Group`, exhausted replicas, lost state).
    /// Zero means every crash in the run was masked by replication.
    pub abort_failure: u64,
    /// Commit aborts caused by ordinary lock contention (a refused exclude
    /// or database lock; see
    /// [`groupview_replication::CommitError::is_failure_caused`]).
    pub abort_commit_contention: u64,
    /// Commit aborts caused by node/store failures (all stores unreachable,
    /// lost final state, failed two-phase commit). Zero means every crash
    /// in the run was masked at commit time.
    pub abort_commit_failure: u64,
    /// Dead servers discovered "the hard way" at bind time.
    pub probe_failures: u64,
    /// Binding attempts retried due to lock contention.
    pub bind_retries: u64,
    /// Failed servers pruned from `Sv` by the updating schemes.
    pub servers_removed: u64,
    /// Registered bindings abandoned by crashed clients.
    pub leaked_bindings: u64,
    /// Use-list entries reclaimed by cleanup sweeps.
    pub cleanup_reclaimed: u64,
    /// Replica migrations committed by elastic-membership plan actions
    /// (`AddNode` activation moves, `DrainNode` evacuations, `Rebalance`
    /// moves). Zero for every plan without membership actions.
    pub migrations: u64,
    /// Migration attempts deferred because the object was bound or locked
    /// at the time (the §4.1.2 quiescence check refused the repoint);
    /// retried by later drain rounds and rebalance sweeps.
    pub migrations_deferred: u64,
    /// Per-action virtual latency (µs), successful and failed alike.
    pub action_latency_us: Histogram,
    /// Per-action message counts.
    pub action_messages: Histogram,
    /// Driver steps executed.
    pub steps: u64,
    /// Final transaction-layer statistics.
    pub tx: TxStats,
    /// Final network counters.
    pub net: NetCounters,
}

impl RunMetrics {
    /// Aborts during binding/activation.
    pub fn abort_bind(&self) -> u64 {
        self.abort_bind_contention + self.abort_bind_failure
    }

    /// Aborts during operation invocation.
    pub fn abort_invoke(&self) -> u64 {
        self.abort_contention + self.abort_failure
    }

    /// Aborts during commit (write-back, exclude, or two-phase commit).
    pub fn abort_commit(&self) -> u64 {
        self.abort_commit_contention + self.abort_commit_failure
    }

    /// Fraction of attempted actions that committed.
    pub fn availability(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.commits as f64 / self.attempts as f64
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempts={} commits={} aborts={} (bind={} [contention={} failure={}] \
             invoke={} [contention={} failure={}] \
             commit={} [contention={} failure={}]) availability={:.1}%",
            self.attempts,
            self.commits,
            self.aborts,
            self.abort_bind(),
            self.abort_bind_contention,
            self.abort_bind_failure,
            self.abort_invoke(),
            self.abort_contention,
            self.abort_failure,
            self.abort_commit(),
            self.abort_commit_contention,
            self.abort_commit_failure,
            self.availability() * 100.0
        )?;
        // Only elastic plans migrate; keep the classic line untouched for
        // everything else (recorded-output tests pin it).
        if self.migrations != 0 || self.migrations_deferred != 0 {
            write!(
                f,
                " migrations={} [deferred={}]",
                self.migrations, self.migrations_deferred
            )?;
        }
        Ok(())
    }
}

/// A collection of `u64` samples with summary statistics.
///
/// Keeps all samples (experiment runs are small); percentiles are exact
/// **nearest-rank** values. The sample vector is sorted lazily — the first
/// percentile query after a batch of [`Histogram::add`]s sorts once, and
/// every further query reuses the sorted order until new samples arrive
/// (no clone-and-sort per call).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: RefCell<Vec<u64>>,
    sorted: Cell<bool>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn add(&mut self, sample: u64) {
        self.samples.get_mut().push(sample);
        self.sorted.set(false);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    /// Sorts the samples in place once; later queries reuse the order.
    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
    }

    /// Exact percentile by **nearest-rank** (0 when empty): the smallest
    /// sample such that at least `p`% of the samples are ≤ it — index
    /// `ceil(p/100 · n) - 1` of the sorted samples. `p = 0` returns the
    /// minimum, `p = 100` the maximum; p95 of 10 samples is the 10th.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.borrow().iter().copied().max().unwrap_or(0)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.samples.borrow().iter().copied().min().unwrap_or(0)
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.samples.borrow().iter().sum()
    }
}

/// Multiset equality: two histograms are equal when they hold the same
/// samples, regardless of insertion order or lazy-sort state.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.ensure_sorted();
        other.ensure_sorted();
        *self.samples.borrow() == *other.samples.borrow()
    }
}

impl Eq for Histogram {}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.1} p50={} p95={} max={}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p95(),
            self.max()
        )
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Histogram {
            samples: RefCell::new(iter.into_iter().collect()),
            sorted: Cell::new(false),
        }
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.samples.get_mut().extend(iter);
        self.sorted.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_on_known_data() {
        let h: Histogram = (1..=100u64).collect();
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p95(), 95);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.total(), 5050);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
    }

    /// The nearest-rank contract on a sample count that distinguishes it
    /// from floor-of-linear-index: p95 of 10 samples is the 10th sample
    /// (ceil(0.95·10) = 10), not the 9th.
    #[test]
    fn percentile_is_nearest_rank() {
        let h: Histogram = (1..=10u64).collect();
        assert_eq!(h.p95(), 10, "p95 of 10 samples is the 10th");
        assert_eq!(h.percentile(90.0), 9, "ceil(0.9·10) = 9");
        assert_eq!(h.percentile(91.0), 10, "ceil(0.91·10) = 10");
        assert_eq!(h.p50(), 5, "ceil(0.5·10) = 5");
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to the minimum");
        assert_eq!(h.percentile(100.0), 10);
        let single: Histogram = [7u64].into_iter().collect();
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(single.percentile(p), 7);
        }
    }

    /// Percentiles stay correct across interleaved adds (the sorted order
    /// is re-established after every mutation).
    #[test]
    fn percentile_resorts_after_new_samples() {
        let mut h: Histogram = [5u64, 1].into_iter().collect();
        assert_eq!(h.p50(), 1, "ceil(0.5·2) = 1 → smallest");
        h.add(3);
        assert_eq!(h.p50(), 3, "new sample lands mid-order");
        h.extend([0u64, 9]);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(100.0), 9);
        assert_eq!(h.p50(), 3);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn merge_and_extend() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        // Another histogram's samples merge in through `Extend`.
        let b: Histogram = [3u64].into_iter().collect();
        a.extend(b.samples.take());
        a.extend([4u64]);
        assert_eq!(a.count(), 4);
        assert_eq!(a.total(), 10);
        assert!(!a.to_string().is_empty());
    }

    #[test]
    fn equality_is_order_independent() {
        let a: Histogram = [3u64, 1, 2].into_iter().collect();
        let b: Histogram = [1u64, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        let c: Histogram = [1u64, 2].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_validates_range() {
        Histogram::new().percentile(150.0);
    }
}
