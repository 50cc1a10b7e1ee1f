//! The simulation's random stream.
//!
//! Every run is a pure function of its seed, so the generator is part of
//! the "same seed ⇒ same bytes" contract: a change to any formula here
//! moves every message's jitter and every nemesis schedule. The stream is
//! pinned by this module's tests.

use std::ops::{Range, RangeInclusive};

/// A splitmix64 generator: not cryptographic, but fast, well mixed and
/// fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`: 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw from `[0, span)`: 128 random bits, reduced modulo `span`
    /// (biased by under 2^-64, which simulation jitter cannot see).
    fn below(&mut self, span: u128) -> u128 {
        ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % span
    }

    /// A uniform draw from the half-open `range`.
    ///
    /// # Panics
    ///
    /// If `range` is empty.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + self.below(u128::from(range.end - range.start)) as u64
    }

    /// A uniform draw from the inclusive `range`.
    ///
    /// # Panics
    ///
    /// If `range` is empty.
    pub fn range_inclusive(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + self.below(u128::from(hi - lo) + 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draws for seed 1993. These are the stream every run
    /// uses (the default message jitter is an inclusive draw), so a
    /// change here is a change to every run's bytes.
    #[test]
    fn the_stream_for_seed_1993_is_pinned() {
        let draws = |f: fn(&mut Rng) -> u64| {
            let mut rng = Rng::new(1993);
            [f(&mut rng), f(&mut rng), f(&mut rng)]
        };
        assert_eq!(
            draws(Rng::next_u64),
            [
                3_232_682_395_605_428_756,
                5_019_307_404_626_404_937,
                8_846_387_486_236_335_742
            ]
        );
        assert_eq!(draws(|r| r.range(0..1000)), [633, 803, 111]);
        assert_eq!(draws(|r| r.range(3..10)), [9, 4, 9]);
        assert_eq!(draws(|r| r.range_inclusive(0..=200)), [154, 94, 175]);
        let mut rng = Rng::new(1993);
        let floats = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
        assert_eq!(
            floats,
            [0.1752440638135525, 0.27209719962342627, 0.4795636265613007]
        );
    }

    #[test]
    fn draws_stay_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            assert!(rng.range(0..17) < 17);
            assert!((3..=9).contains(&rng.range_inclusive(3..=9)));
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
        assert_eq!(rng.range_inclusive(5..=5), 5);
    }
}
