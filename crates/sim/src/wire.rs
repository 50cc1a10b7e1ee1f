//! The zero-copy wire layer: shared byte buffers and reusable codecs.
//!
//! Every protocol layer in `groupview` moves encoded bytes between nodes:
//! operations multicast to replica groups, member replies, and checkpoint
//! snapshots. Before this module existed each hop built a fresh `Vec<u8>`
//! and each fan-out cloned the payload per member — per-op allocation cost
//! on the hot path the paper's evaluation (§4) cares about.
//!
//! Three pieces remove those costs:
//!
//! * [`Bytes`] — a cheaply-cloneable, reference-counted, sliceable view of
//!   an immutable byte buffer. Cloning bumps a refcount; [`Bytes::slice`]
//!   narrows the view without copying. A multicast can hand the *same*
//!   buffer to every member.
//! * [`WireEncoder`] — a handle to the calling thread's frame pool.
//!   Encoding takes a retired frame (the shared header *and* its vector),
//!   writes into it, and freezes it into a [`Bytes`]; when the last clone
//!   of that `Bytes` is dropped, the whole frame returns to the pool.
//!   Steady-state encoding allocates nothing.
//! * [`Codec`] — explicit encode/decode pairs for each frame type (group
//!   messages and member replies in `groupview-replication`, snapshot
//!   frames in `groupview-store`). Decoders receive a [`Bytes`] so they can
//!   return zero-copy slices of the incoming frame.
//!
//! Buffer-ownership rules are documented in `docs/WIRE.md`. Allocation
//! behaviour is observable through [`stats`] (a per-thread counter: a
//! world runs on exactly one OS thread, so its counters are exact for its
//! own traffic): benches report per-operation buffer
//! allocations, and property tests assert that `clone`/`slice` never
//! allocate or copy.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// Fixed per-message framing overhead charged by transport layers, in
/// bytes (addressing, sequence numbers, checksums). Cost accounting only —
/// no header bytes are actually materialised.
pub const FRAME_OVERHEAD_BYTES: usize = 16;

/// Retired frames kept per thread; excess storage is dropped rather than
/// hoarded. An invocation of any width encodes one op frame and, per
/// receiving replica, a reply frame and an envelope or checkpoint, so a
/// warm 64-op batch runs from a pool of 4 frames; the headroom covers
/// the bursts of commit and recovery. That behaviour, not this value, is
/// what a replication test pins (`a_64_op_batch_creates_no_fresh_frame`).
const MAX_POOLED_BUFFERS: usize = 192;

/// Capacity of every fresh pooled frame. Frames are reused for whatever
/// encode comes next, so one born for an 8-byte state would reallocate
/// when it is next filled with a 17-byte operation frame. On 64-bit glibc
/// the smallest heap chunk already holds 24 usable bytes, so this floor
/// costs no memory; a larger one raised peak RSS.
const MIN_FRAME_CAPACITY: usize = 24;

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Counters for wire-buffer traffic, used by benches and property tests to
/// make per-op allocation behaviour visible (the ROADMAP's "hot-path
/// allocation" item).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Fresh backing buffers created (pool misses, [`Bytes::from`]
    /// conversions, [`Bytes::copy_from_slice`]).
    pub buffer_allocs: u64,
    /// Encodes served from a pooled scratch buffer instead of a fresh one.
    pub pool_reuses: u64,
    /// Payload bytes memcpy'd into wire buffers by encoders.
    pub bytes_copied: u64,
}

impl WireStats {
    /// Component-wise difference since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: WireStats) -> WireStats {
        WireStats {
            buffer_allocs: self.buffer_allocs - earlier.buffer_allocs,
            pool_reuses: self.pool_reuses - earlier.pool_reuses,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

impl fmt::Display for WireStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocs={} reuses={} copied={}B",
            self.buffer_allocs, self.pool_reuses, self.bytes_copied
        )
    }
}

thread_local! {
    static WIRE_STATS: Cell<WireStats> = const { Cell::new(WireStats {
        buffer_allocs: 0,
        pool_reuses: 0,
        bytes_copied: 0,
    }) };
}

/// Snapshot of this thread's wire counters (monotonic; diff with
/// [`WireStats::since`]).
pub fn stats() -> WireStats {
    WIRE_STATS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut WireStats)) {
    WIRE_STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

/// Backing storage of a [`Bytes`]: a shared frame or borrowed static data.
#[derive(Clone)]
enum Backing {
    /// Borrowed `'static` data (literals, empty buffers): free to create.
    Static(&'static [u8]),
    /// Shared ownership of a heap frame, counted on this thread.
    Shared(Rc<Vec<u8>>),
}

thread_local! {
    /// This thread's retired frames: each is an empty vector that kept its
    /// capacity, inside the `Rc` header it was shared through, so reusing
    /// one allocates neither.
    static FREE_FRAMES: RefCell<Vec<Rc<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
}

/// Hands a frame nobody else holds to this thread's pool. Past the cap, or
/// while the thread is tearing down its locals, the frame is just freed.
fn retire(mut frame: Rc<Vec<u8>>) {
    let Some(data) = Rc::get_mut(&mut frame) else {
        return;
    };
    data.clear();
    let _ = FREE_FRAMES.try_with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < MAX_POOLED_BUFFERS {
            free.push(frame);
        }
    });
}

/// A cheaply-cloneable, reference-counted, sliceable byte buffer.
///
/// `Bytes` is the unit of payload ownership across the wire layer: RPC
/// payloads, multicast messages, member replies, and stored object states
/// all carry one. Cloning bumps a reference count and [`Bytes::slice`]
/// narrows the view in place — neither touches the underlying bytes, so a
/// buffer encoded once can fan out to any number of receivers and be
/// re-sliced by every decoder without a single copy.
///
/// The buffer is immutable once frozen; produce new contents through a
/// [`WireEncoder`] (pooled) or [`Bytes::from`] (takes ownership of a
/// `Vec<u8>`).
#[derive(Clone)]
pub struct Bytes {
    backing: Backing,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Free: no allocation.
    pub const fn new() -> Bytes {
        Bytes {
            backing: Backing::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Wraps borrowed `'static` data (byte-string literals) without
    /// copying or allocating.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            backing: Backing::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Copies a slice into a fresh buffer (counted as one allocation plus
    /// a copy). Prefer a [`WireEncoder`] on hot paths.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        bump(|s| {
            s.buffer_allocs += 1;
            s.bytes_copied += data.len() as u64;
        });
        Bytes::from_frame(Rc::new(data.to_vec()))
    }

    fn from_frame(frame: Rc<Vec<u8>>) -> Bytes {
        let end = frame.len();
        Bytes {
            backing: Backing::Shared(frame),
            start: 0,
            end,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.backing {
            Backing::Static(s) => s,
            Backing::Shared(frame) => frame,
        };
        &all[self.start..self.end]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A narrower view of the same buffer — shares storage, never copies.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds of this view.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            backing: self.backing.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Wire size including the fixed framing overhead, for cost accounting.
    pub fn wire_size(&self) -> usize {
        self.len() + FRAME_OVERHEAD_BYTES
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

/// The last handle to a shared frame retires it into this thread's pool;
/// any other handle just releases its reference.
impl Drop for Bytes {
    fn drop(&mut self) {
        if let Backing::Shared(frame) = std::mem::replace(&mut self.backing, Backing::Static(&[])) {
            retire(frame);
        }
    }
}

/// Takes ownership of a `Vec<u8>` (no copy; counted as one buffer
/// allocation entering the wire layer).
impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        bump(|s| s.buffer_allocs += 1);
        Bytes::from_frame(Rc::new(data))
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(data: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

// ---------------------------------------------------------------------------
// WireEncoder
// ---------------------------------------------------------------------------

/// A handle to the calling thread's frame pool, for building [`Bytes`]
/// frames without steady-state allocation.
///
/// [`WireEncoder::encode_with`] pops a retired frame (or allocates one on a
/// cold start), hands its vector to the closure to fill, and freezes the
/// result into a [`Bytes`]. When the last clone of that `Bytes` drops, the
/// whole frame — shared header and vector — returns to the pool. A hot
/// loop that encodes, fans out, and releases each frame therefore reuses
/// the same few frames forever, and takes no lock doing so.
///
/// The handle is zero-sized: every encoder on a thread draws from that
/// thread's one pool, so clones, and encoders built separately, share it.
#[derive(Clone, Default)]
pub struct WireEncoder {
    _thread_pool: (),
}

impl fmt::Debug for WireEncoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireEncoder")
            .field("pooled", &self.pooled())
            .finish()
    }
}

impl WireEncoder {
    /// A handle to this thread's pool.
    pub fn new() -> WireEncoder {
        WireEncoder::default()
    }

    /// Retired frames currently available for reuse on this thread.
    pub fn pooled(&self) -> usize {
        FREE_FRAMES.with(|free| free.borrow().len())
    }

    /// Builds one frame: `fill` writes the encoding into a scratch buffer,
    /// which is then frozen into an immutable [`Bytes`]. The frame returns
    /// to a pool once every clone of the returned `Bytes` is gone.
    pub fn encode_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut frame = match FREE_FRAMES.with(|free| free.borrow_mut().pop()) {
            Some(frame) => {
                bump(|s| s.pool_reuses += 1);
                frame
            }
            None => {
                bump(|s| s.buffer_allocs += 1);
                Rc::new(Vec::with_capacity(MIN_FRAME_CAPACITY))
            }
        };
        // `retire` pools a frame only once it has proved sole ownership.
        let data = Rc::get_mut(&mut frame).expect("a pooled frame has no other owner");
        debug_assert!(data.is_empty(), "pooled scratch must be cleared");
        fill(data);
        bump(|s| s.bytes_copied += data.len() as u64);
        Bytes::from_frame(frame)
    }

    /// Encodes `item` with the given [`Codec`] into a pooled frame.
    pub fn encode<C: Codec>(&self, item: &C::Item) -> Bytes {
        self.encode_with(|buf| C::encode_into(item, buf))
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// An explicit encode/decode pair for one wire-frame type.
///
/// Encoding appends to a caller-supplied buffer so it composes with the
/// [`WireEncoder`] pool; decoding receives the frame as a [`Bytes`] so
/// implementations can return zero-copy slices of it (payload fields of
/// decoded items should be `Bytes::slice`s, not fresh vectors).
///
/// Implementations live next to the types they serialise: group messages
/// and member replies in `groupview-replication`, snapshot frames in
/// `groupview-store`.
pub trait Codec {
    /// The in-memory type this codec frames.
    type Item;

    /// Appends the encoding of `item` to `buf`.
    fn encode_into(item: &Self::Item, buf: &mut Vec<u8>);

    /// Decodes a frame, returning `None` for malformed input. Payload
    /// fields must be zero-copy slices of `bytes`.
    fn decode(bytes: &Bytes) -> Option<Self::Item>;

    /// Encodes `item` into a pooled frame (convenience for
    /// [`WireEncoder::encode`]).
    fn encode(encoder: &WireEncoder, item: &Self::Item) -> Bytes
    where
        Self: Sized,
    {
        encoder.encode::<Self>(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_static_bytes_are_free() {
        let before = stats();
        let empty = Bytes::new();
        let lit = Bytes::from_static(b"hello");
        assert!(empty.is_empty());
        assert_eq!(lit, b"hello");
        assert_eq!(lit.len(), 5);
        assert_eq!(stats(), before, "no allocation for static data");
    }

    #[test]
    fn from_vec_takes_ownership_and_counts_one_alloc() {
        let before = stats();
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, [1u8, 2, 3]);
        let d = stats().since(before);
        assert_eq!(d.buffer_allocs, 1);
        assert_eq!(d.bytes_copied, 0, "ownership transfer, not a copy");
    }

    #[test]
    fn clone_and_slice_share_storage_without_copying() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let before = stats();
        let c = b.clone();
        let s = b.slice(2..6);
        let s2 = s.slice(1..);
        assert_eq!(stats(), before, "clone/slice must not allocate or copy");
        assert_eq!(c, b);
        assert_eq!(s, [2u8, 3, 4, 5]);
        assert_eq!(s2, [3u8, 4, 5]);
        // The slices alias the same storage as the original.
        assert_eq!(s.as_slice().as_ptr(), b.as_slice()[2..].as_ptr());
    }

    #[test]
    fn slice_of_static_and_full_range_forms() {
        let b = Bytes::from_static(b"abcdef");
        assert_eq!(b.slice(..), b"abcdef");
        assert_eq!(b.slice(..3), b"abc");
        assert_eq!(b.slice(3..), b"def");
        assert_eq!(b.slice(1..=2), b"bc");
        assert!(b.slice(6..).is_empty());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = Bytes::from_static(b"ab").slice(..3);
    }

    #[test]
    fn equality_across_representations() {
        let b = Bytes::from(b"xy".to_vec());
        assert_eq!(b, Bytes::from_static(b"xy"));
        assert_eq!(b, *b"xy");
        assert_eq!(b, b"xy");
        assert_eq!(b, &b"xy"[..]);
        assert_eq!(b, b"xy".to_vec());
        assert_eq!(b"xy".to_vec(), b);
        assert_ne!(b, Bytes::from_static(b"xz"));
        assert!(!format!("{b:?}").is_empty());
    }

    #[test]
    fn encoder_reuses_returned_buffers() {
        let enc = WireEncoder::new();
        let before = stats();
        let first = enc.encode_with(|buf| buf.extend_from_slice(b"frame-1"));
        assert_eq!(first, b"frame-1");
        assert_eq!(stats().since(before).buffer_allocs, 1, "cold start");
        drop(first); // storage returns to the pool
        assert_eq!(enc.pooled(), 1);
        let before = stats();
        for i in 0..100u8 {
            let frame = enc.encode_with(|buf| buf.extend_from_slice(&[i; 9]));
            assert_eq!(frame.len(), 9);
            drop(frame);
        }
        let d = stats().since(before);
        assert_eq!(d.buffer_allocs, 0, "steady state allocates nothing");
        assert_eq!(d.pool_reuses, 100);
    }

    #[test]
    fn pooled_storage_waits_for_the_last_clone() {
        let enc = WireEncoder::new();
        let frame = enc.encode_with(|buf| buf.extend_from_slice(b"shared"));
        let pooled = enc.pooled();
        let view = frame.slice(1..4);
        drop(frame);
        assert_eq!(enc.pooled(), pooled, "slice still alive");
        assert_eq!(view, b"har");
        drop(view);
        assert_eq!(enc.pooled(), pooled + 1, "last reference retired the frame");
    }

    #[test]
    fn frames_from_owned_vectors_recycle_too() {
        let enc = WireEncoder::new();
        let pooled = enc.pooled();
        drop(Bytes::from(vec![1u8, 2, 3]));
        drop(Bytes::copy_from_slice(b"abc"));
        drop(Bytes::from_static(b"static data is never pooled"));
        assert_eq!(enc.pooled(), pooled + 2);
    }

    #[test]
    fn pool_keeps_at_most_the_cap() {
        let enc = WireEncoder::new();
        let frames: Vec<Bytes> = (0..MAX_POOLED_BUFFERS + 8)
            .map(|_| enc.encode_with(|buf| buf.push(1)))
            .collect();
        drop(frames);
        assert_eq!(enc.pooled(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn encoders_on_one_thread_share_its_pool() {
        assert_eq!(std::mem::size_of::<WireEncoder>(), 0);
        let enc = WireEncoder::new();
        let other = WireEncoder::new();
        drop(enc.encode_with(|buf| buf.push(7)));
        assert!(other.pooled() >= 1);
        let before = stats();
        drop(other.clone().encode_with(|buf| buf.push(8)));
        assert_eq!(stats().since(before).buffer_allocs, 0);
    }

    #[test]
    fn codec_roundtrip_via_encoder() {
        struct PairCodec;
        impl Codec for PairCodec {
            type Item = (u32, Bytes);
            fn encode_into(item: &(u32, Bytes), buf: &mut Vec<u8>) {
                buf.extend_from_slice(&item.0.to_le_bytes());
                buf.extend_from_slice(&item.1);
            }
            fn decode(bytes: &Bytes) -> Option<(u32, Bytes)> {
                let n = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
                Some((n, bytes.slice(4..)))
            }
        }
        let enc = WireEncoder::new();
        let frame = PairCodec::encode(&enc, &(7, Bytes::from_static(b"payload")));
        let before = stats();
        let (n, payload) = PairCodec::decode(&frame).expect("decode");
        assert_eq!(stats(), before, "decode must be zero-copy");
        assert_eq!(n, 7);
        assert_eq!(payload, b"payload");
        assert!(PairCodec::decode(&Bytes::from_static(b"xy")).is_none());
    }

    #[test]
    fn wire_size_adds_frame_overhead() {
        assert_eq!(Bytes::new().wire_size(), FRAME_OVERHEAD_BYTES);
        assert_eq!(
            Bytes::from_static(b"1234").wire_size(),
            4 + FRAME_OVERHEAD_BYTES
        );
    }

    #[test]
    fn stats_display_and_diff() {
        let d = WireStats {
            buffer_allocs: 2,
            pool_reuses: 3,
            bytes_copied: 10,
        }
        .since(WireStats {
            buffer_allocs: 1,
            pool_reuses: 1,
            bytes_copied: 4,
        });
        assert_eq!(d.buffer_allocs, 1);
        assert_eq!(d.pool_reuses, 2);
        assert_eq!(d.bytes_copied, 6);
        assert!(d.to_string().contains("allocs=1"));
    }
}
