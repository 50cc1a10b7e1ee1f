//! The exact sample distribution every measurement in the workspace is
//! kept in: a run's per-action latency and message counts
//! (`groupview_workload::RunMetrics`) and each phase's span durations in a
//! [`crate::MetricsSnapshot`].

use std::cell::{Cell, RefCell};
use std::fmt;

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
        assert_eq!(h.percentile(10.0), 1, "ceil(0.1·10) = 1");
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to the minimum");
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!((h.count(), h.total(), h.max()), (10, 55, 10));
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
        assert_eq!(h.percentile(0.0), 0);
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
