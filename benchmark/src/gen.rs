//! The harness's own input generator.
//!
//! Workload inputs (object picks, read/write mix, transfer pairs and
//! amounts) come from here, never from the simulated world's RNG: the
//! program under test only ever sees the generated inputs, and the same
//! `--seed` always yields the same input sequence.

/// splitmix64: tiny, fast, and a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is far
    /// below anything a workload could notice).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Order-sensitive FNV-1a fold over the generated inputs of a run, so two
/// runs can be shown to have driven the same (or different) sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence_hash(seed: u64) -> u64 {
        let mut g = SplitMix64::new(seed);
        let mut h = InputHash::default();
        for _ in 0..1_000 {
            h.fold(g.below(2_000));
            h.fold(u64::from(g.percent(90)));
        }
        h.value()
    }

    #[test]
    fn same_seed_same_sequence_different_seed_different() {
        assert_eq!(sequence_hash(1993), sequence_hash(1993));
        assert_ne!(sequence_hash(1993), sequence_hash(1994));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut g = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = g.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn percent_tracks_its_share() {
        let mut g = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| g.percent(90)).count();
        assert!((8_800..=9_200).contains(&hits), "{hits}");
    }
}
