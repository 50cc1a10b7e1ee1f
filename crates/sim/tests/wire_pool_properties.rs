//! Property test for frame recycling: over random interleavings of
//! `encode_with`, `clone`, `slice` and drop, the per-thread pool never
//! hands out storage a live `Bytes` still reads.
//!
//! After every step each live handle must still read exactly what it was
//! encoded with, and no two live handles from *different* encodes may
//! share storage. An encode must allocate exactly when the pool is empty,
//! and otherwise take one frame from it. A frame is pooled once, by its
//! last holder: dropping the last live handle of an encode grows the pool
//! by exactly one, and dropping any other handle leaves it alone. (The
//! pool never holds more frames than a case had alive at once, fewer than
//! 160, so its cap of 192 never turns a frame away.)

use groupview_sim::wire::{self, Bytes, WireEncoder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Encode a fresh frame of `len` bytes (≥ 1, so its vector is a real
    /// heap buffer with an address of its own).
    Encode { len: usize, seed: u8 },
    /// Clone the live handle at this index (modulo the live count).
    Clone(usize),
    /// Narrow the live handle at this index to `[lo, hi)` of its view.
    Slice(usize, usize, usize),
    /// Drop the live handle at this index.
    Drop(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1usize..200, any::<u8>()).prop_map(|(len, seed)| Step::Encode { len, seed }),
        2 => any::<usize>().prop_map(Step::Clone),
        2 => (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(i, a, b)| Step::Slice(i, a, b)),
        4 => any::<usize>().prop_map(Step::Drop),
    ]
}

/// One live handle and what the model says it must read.
struct Live {
    bytes: Bytes,
    /// Which encode produced its storage.
    encode: usize,
    /// Where its view starts within that encode's frame.
    offset: usize,
    expected: Vec<u8>,
}

impl Live {
    /// Address of the frame's first byte: shared by every handle of one
    /// encode, and distinct between frames that are alive at once.
    fn storage(&self) -> usize {
        self.bytes.as_slice().as_ptr() as usize - self.offset
    }
}

fn content(encode: usize, len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| {
            seed.wrapping_add(encode as u8)
                .wrapping_mul(31)
                .wrapping_add(i as u8)
        })
        .collect()
}

fn check(live: &[Live]) {
    for (i, a) in live.iter().enumerate() {
        assert_eq!(
            a.bytes.as_slice(),
            &a.expected[..],
            "handle {i} was overwritten"
        );
        for b in &live[i + 1..] {
            if a.encode == b.encode {
                assert_eq!(a.storage(), b.storage(), "one encode, one frame");
            } else {
                assert_ne!(
                    a.storage(),
                    b.storage(),
                    "encodes {} and {} share a live frame",
                    a.encode,
                    b.encode
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn recycling_never_hands_out_a_live_frame(
        steps in prop::collection::vec(step_strategy(), 1..160),
    ) {
        let enc = WireEncoder::new();
        let mut live: Vec<Live> = Vec::new();
        let mut encodes = 0;
        for step in steps {
            match step {
                Step::Encode { len, seed } => {
                    let expected = content(encodes, len, seed);
                    let pooled = enc.pooled();
                    let pool_was_empty = pooled == 0;
                    let before = wire::stats();
                    let bytes = enc.encode_with(|buf| buf.extend_from_slice(&expected));
                    let d = wire::stats().since(before);
                    prop_assert_eq!(d.buffer_allocs, u64::from(pool_was_empty));
                    prop_assert_eq!(d.pool_reuses, u64::from(!pool_was_empty));
                    prop_assert_eq!(enc.pooled(), pooled.saturating_sub(1), "a reuse takes one frame");
                    live.push(Live { bytes, encode: encodes, offset: 0, expected });
                    encodes += 1;
                }
                Step::Clone(i) if !live.is_empty() => {
                    let src = &live[i % live.len()];
                    live.push(Live {
                        bytes: src.bytes.clone(),
                        encode: src.encode,
                        offset: src.offset,
                        expected: src.expected.clone(),
                    });
                }
                Step::Slice(i, a, b) if !live.is_empty() => {
                    let src = &live[i % live.len()];
                    let len = src.expected.len();
                    let (lo, hi) = (a % (len + 1), b % (len + 1));
                    let (lo, hi) = (lo.min(hi), lo.max(hi));
                    live.push(Live {
                        bytes: src.bytes.slice(lo..hi),
                        encode: src.encode,
                        offset: src.offset + lo,
                        expected: src.expected[lo..hi].to_vec(),
                    });
                }
                Step::Drop(i) if !live.is_empty() => {
                    let pooled = enc.pooled();
                    let gone = live.swap_remove(i % live.len());
                    let was_last = live.iter().all(|l| l.encode != gone.encode);
                    drop(gone);
                    prop_assert_eq!(
                        enc.pooled(),
                        pooled + usize::from(was_last),
                        "only the last holder pools a frame, and only once"
                    );
                }
                _ => {}
            }
            check(&live);
        }
    }
}
