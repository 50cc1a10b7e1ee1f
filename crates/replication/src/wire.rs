//! Wire codecs for the replication protocol's frame types.
//!
//! Operations travel to replicas as [`GroupMsg`] frames (multicast to the
//! whole group for active replication, RPC'd to the coordinator for
//! coordinator-cohort, RPC'd to the single copy for single-copy passive) —
//! one frame is encoded per invocation and shared by every receiver.
//! Replicas answer with [`MemberReply`] frames. Batched invocations travel
//! as [`BatchMsg`] frames — layout-compatible with `GroupMsg` (the high bit
//! of the id marks the frame as a batch), so every transport path carries
//! them unchanged — and are answered with [`BatchReply`] frames inside the
//! `MemberReply` envelope. All codecs decode payloads as zero-copy slices
//! of the incoming frame.
//!
//! Checkpoint snapshots use [`groupview_store::SnapshotCodec`].

use crate::object::InvokeResult;
use groupview_sim::wire::{Bytes, Codec};

/// Header size of a [`GroupMsg`] frame (the operation id).
pub const GROUP_MSG_HEADER_BYTES: usize = 8;

/// High bit of the operation id, set when the frame body is a batch
/// (`[count u32][len u32, op]*`) rather than a single op. Operation ids
/// start at 1 and are allocated sequentially, so real ids never carry
/// this bit on their own.
pub const BATCH_FLAG: u64 = 1 << 63;

/// An operation frame: `[op_id: u64 LE][op bytes]`.
///
/// The `op_id` drives per-replica at-most-once deduplication (a client
/// retry after coordinator failover must not re-execute an operation the
/// checkpoint already applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMsg {
    /// System-wide unique operation id.
    pub op_id: u64,
    /// The encoded operation, as the object class understands it.
    pub op: Bytes,
}

/// Codec for [`GroupMsg`] frames.
pub struct GroupMsgCodec;

/// The one place that knows the frame layout; both encode entry points
/// delegate here so they cannot drift apart.
fn write_group_msg(op_id: u64, op: &[u8], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&op_id.to_le_bytes());
    buf.extend_from_slice(op);
}

impl GroupMsgCodec {
    /// Encodes a frame directly from an operation id and a borrowed op
    /// slice, without first wrapping the op in a [`Bytes`]. This is the
    /// hot-path entry: one pooled frame per invocation.
    pub fn encode_parts(encoder: &groupview_sim::WireEncoder, op_id: u64, op: &[u8]) -> Bytes {
        encoder.encode_with(|buf| write_group_msg(op_id, op, buf))
    }
}

impl Codec for GroupMsgCodec {
    type Item = GroupMsg;

    fn encode_into(item: &GroupMsg, buf: &mut Vec<u8>) {
        write_group_msg(item.op_id, &item.op, buf);
    }

    fn decode(bytes: &Bytes) -> Option<GroupMsg> {
        let op_id = u64::from_le_bytes(bytes.get(..GROUP_MSG_HEADER_BYTES)?.try_into().ok()?);
        Some(GroupMsg {
            op_id,
            op: bytes.slice(GROUP_MSG_HEADER_BYTES..),
        })
    }
}

/// A replica's answer to an operation frame:
/// `[status: 0 ok / 1 not-loaded][mutated: 0/1][reply bytes]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberReply {
    /// The replica executed the operation.
    Loaded(InvokeResult),
    /// The replica holds no loaded state (it lost its volatile copy, or the
    /// frame was malformed); the caller must treat the member as stale.
    NotLoaded,
}

impl From<Option<InvokeResult>> for MemberReply {
    fn from(result: Option<InvokeResult>) -> MemberReply {
        match result {
            Some(r) => MemberReply::Loaded(r),
            None => MemberReply::NotLoaded,
        }
    }
}

/// Codec for [`MemberReply`] frames.
pub struct MemberReplyCodec;

impl Codec for MemberReplyCodec {
    type Item = MemberReply;

    fn encode_into(item: &MemberReply, buf: &mut Vec<u8>) {
        match item {
            MemberReply::Loaded(r) => {
                buf.push(0);
                buf.push(u8::from(r.mutated));
                buf.extend_from_slice(&r.reply);
            }
            MemberReply::NotLoaded => buf.extend_from_slice(&[1, 0]),
        }
    }

    /// Strict: a status other than 0 or 1, a mutated flag other than 0 or
    /// 1, or a `NotLoaded` frame with trailing bytes is malformed. (The
    /// flag decides the commit-time write-back, so a corrupt one must not
    /// read as "not mutated".)
    fn decode(bytes: &Bytes) -> Option<MemberReply> {
        let mutated = match *bytes.get(1)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        match bytes[0] {
            0 => Some(MemberReply::Loaded(InvokeResult {
                reply: bytes.slice(2..),
                mutated,
            })),
            1 if bytes.len() == 2 => Some(MemberReply::NotLoaded),
            _ => None,
        }
    }
}

/// Writes a length-prefixed frame list: `[count: u32 LE][(len: u32 LE,
/// item bytes) * count]`. Shared by the [`BatchMsg`] body and
/// [`BatchReply`], so the two layouts cannot drift apart.
pub fn write_frames<I, T>(items: I, buf: &mut Vec<u8>)
where
    I: ExactSizeIterator<Item = T>,
    T: AsRef<[u8]>,
{
    buf.extend_from_slice(
        &u32::try_from(items.len())
            .expect("frame count fits u32")
            .to_le_bytes(),
    );
    for item in items {
        let item = item.as_ref();
        buf.extend_from_slice(
            &u32::try_from(item.len())
                .expect("frame length fits u32")
                .to_le_bytes(),
        );
        buf.extend_from_slice(item);
    }
}

/// Parses a frame list written by [`write_frames`], returning the byte
/// range of each frame within `body`. Returns `None` on any truncation — a
/// count that promises more frames than the body holds, a length that
/// overruns the buffer, or trailing garbage after the last frame. This is
/// the validate-before-apply entry: a replica splits the batch body with
/// this before executing anything, so a malformed batch rejects without
/// mutating state.
pub fn split_frames(body: &[u8]) -> Option<Vec<std::ops::Range<usize>>> {
    let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let mut frames = Vec::with_capacity(count.min(body.len() / 4 + 1));
    let mut at = 4usize;
    for _ in 0..count {
        let len = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        body.get(at..at + len)?;
        frames.push(at..at + len);
        at += len;
    }
    if at != body.len() {
        return None; // trailing bytes: reject rather than silently ignore
    }
    Some(frames)
}

/// Decodes a frame list written by [`write_frames`] into zero-copy
/// sub-slices of `bytes`.
///
/// Every returned [`Bytes`] shares the frame's refcounted storage: the
/// sub-slices stay valid for as long as any clone of them lives, but the
/// pooled buffer behind the frame is only recycled once **all** of them
/// drop (see `docs/WIRE.md`, "Encoder ownership").
pub fn read_frames(bytes: &Bytes) -> Option<Vec<Bytes>> {
    Some(
        split_frames(bytes)?
            .into_iter()
            .map(|range| bytes.slice(range))
            .collect(),
    )
}

/// A batched operation frame:
/// `[batch_id: u64 LE, high bit set][count: u32 LE][(len: u32 LE, op)*]`.
///
/// Layout-compatible with [`GroupMsg`]: the first 8 bytes decode as the
/// operation id, so multicast, RPC, and dedup paths treat a batch exactly
/// like a single op until the replica inspects [`BATCH_FLAG`]. The whole
/// batch shares one id — retry deduplication and cohort checkpoints work
/// at batch granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMsg {
    /// Batch id; [`BATCH_FLAG`] is always set.
    pub batch_id: u64,
    /// The encoded operations, in invocation order.
    pub ops: Vec<Bytes>,
}

/// Codec for [`BatchMsg`] frames.
pub struct BatchMsgCodec;

impl BatchMsgCodec {
    /// Encodes a batch frame from an already-flagged batch id and borrowed
    /// op slices — one pooled frame per batch, the hot-path entry.
    pub fn encode_parts(
        encoder: &groupview_sim::WireEncoder,
        batch_id: u64,
        ops: &[&[u8]],
    ) -> Bytes {
        debug_assert!(batch_id & BATCH_FLAG != 0, "batch id must carry BATCH_FLAG");
        encoder.encode_with(|buf| {
            buf.extend_from_slice(&batch_id.to_le_bytes());
            write_frames(ops.iter().copied(), buf);
        })
    }
}

impl Codec for BatchMsgCodec {
    type Item = BatchMsg;

    fn encode_into(item: &BatchMsg, buf: &mut Vec<u8>) {
        debug_assert!(
            item.batch_id & BATCH_FLAG != 0,
            "batch id must carry BATCH_FLAG"
        );
        buf.extend_from_slice(&item.batch_id.to_le_bytes());
        write_frames(item.ops.iter().map(|b| b.as_slice()), buf);
    }

    fn decode(bytes: &Bytes) -> Option<BatchMsg> {
        let batch_id = u64::from_le_bytes(bytes.get(..GROUP_MSG_HEADER_BYTES)?.try_into().ok()?);
        if batch_id & BATCH_FLAG == 0 {
            return None; // a single-op GroupMsg, not a batch
        }
        let ops = read_frames(&bytes.slice(GROUP_MSG_HEADER_BYTES..))?;
        Some(BatchMsg { batch_id, ops })
    }
}

/// A replica's aggregate answer to a [`BatchMsg`]: the per-op replies in
/// op order, framed with [`write_frames`]. Travels as the payload of a
/// [`MemberReply::Loaded`] envelope, so the policy-level reply handling
/// (first-loaded-wins, NotLoaded expulsion) is unchanged for batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Per-operation replies, index-aligned with the batch's ops.
    pub replies: Vec<Bytes>,
}

/// Codec for [`BatchReply`] frames.
pub struct BatchReplyCodec;

impl Codec for BatchReplyCodec {
    type Item = BatchReply;

    fn encode_into(item: &BatchReply, buf: &mut Vec<u8>) {
        write_frames(item.replies.iter().map(|b| b.as_slice()), buf);
    }

    fn decode(bytes: &Bytes) -> Option<BatchReply> {
        Some(BatchReply {
            replies: read_frames(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::wire::{self, WireEncoder};

    #[test]
    fn group_msg_roundtrip_slices_the_frame() {
        let enc = WireEncoder::new();
        let msg = GroupMsg {
            op_id: 0xDEAD_BEEF,
            op: Bytes::from_static(b"add(1)"),
        };
        let frame = GroupMsgCodec::encode(&enc, &msg);
        let before = wire::stats();
        let decoded = GroupMsgCodec::decode(&frame).expect("well-formed");
        assert_eq!(wire::stats(), before, "zero-copy decode");
        assert_eq!(decoded, msg);
        assert_eq!(
            decoded.op.as_slice().as_ptr(),
            frame.as_slice()[GROUP_MSG_HEADER_BYTES..].as_ptr()
        );
        assert!(GroupMsgCodec::decode(&frame.slice(..7)).is_none());
    }

    #[test]
    fn member_reply_roundtrips_all_shapes() {
        let enc = WireEncoder::new();
        for reply in [
            MemberReply::NotLoaded,
            MemberReply::Loaded(InvokeResult::read(Vec::new())),
            MemberReply::Loaded(InvokeResult::wrote(vec![1, 2, 3])),
        ] {
            let frame = MemberReplyCodec::encode(&enc, &reply);
            assert_eq!(MemberReplyCodec::decode(&frame), Some(reply));
        }
        assert!(MemberReplyCodec::decode(&Bytes::from_static(b"")).is_none());
        assert!(MemberReplyCodec::decode(&Bytes::from_static(b"\x00")).is_none());
        // Malformed headers: an unknown status, a corrupt mutated flag, and
        // a `NotLoaded` frame with trailing bytes.
        for bad in [&b"\x07\x00"[..], b"\x00\x05ok", b"\x01\x00x"] {
            assert_eq!(MemberReplyCodec::decode(&Bytes::from_static(bad)), None);
        }
    }

    #[test]
    fn member_reply_from_option() {
        assert_eq!(MemberReply::from(None), MemberReply::NotLoaded);
        let r = InvokeResult::read(vec![4]);
        assert_eq!(MemberReply::from(Some(r.clone())), MemberReply::Loaded(r));
    }

    #[test]
    fn batch_msg_roundtrip_slices_the_frame() {
        let enc = WireEncoder::new();
        let ops: [&[u8]; 3] = [b"add(1)", b"", b"get"];
        let frame = BatchMsgCodec::encode_parts(&enc, 7 | BATCH_FLAG, &ops);
        let before = wire::stats();
        let decoded = BatchMsgCodec::decode(&frame).expect("well-formed");
        assert_eq!(
            wire::stats().buffer_allocs,
            before.buffer_allocs,
            "zero-copy decode"
        );
        assert_eq!(decoded.batch_id, 7 | BATCH_FLAG);
        assert_eq!(decoded.ops.len(), 3);
        for (got, want) in decoded.ops.iter().zip(ops) {
            assert_eq!(got.as_slice(), want);
        }
        // Every decoded op is a sub-slice of the frame's storage.
        assert_eq!(
            decoded.ops[0].as_slice().as_ptr(),
            frame.as_slice()[GROUP_MSG_HEADER_BYTES + 4 + 4..].as_ptr()
        );
        // A batch frame still decodes as a GroupMsg (flag in op_id).
        let as_single = GroupMsgCodec::decode(&frame).expect("layout-compatible");
        assert_eq!(as_single.op_id, 7 | BATCH_FLAG);
        // A single-op frame is not a batch.
        let single = GroupMsgCodec::encode_parts(&enc, 7, b"add(1)");
        assert!(BatchMsgCodec::decode(&single).is_none());
    }

    #[test]
    fn batch_msg_rejects_truncation_and_trailing_bytes() {
        let enc = WireEncoder::new();
        let ops: [&[u8]; 2] = [b"abcd", b"efgh"];
        let frame = BatchMsgCodec::encode_parts(&enc, 1 | BATCH_FLAG, &ops);
        for cut in 0..frame.len() {
            assert!(
                BatchMsgCodec::decode(&frame.slice(..cut)).is_none(),
                "truncated at {cut} must be rejected"
            );
        }
        let mut padded = frame.as_slice().to_vec();
        padded.push(0);
        assert!(
            BatchMsgCodec::decode(&Bytes::from(padded)).is_none(),
            "trailing bytes must be rejected"
        );
    }

    #[test]
    fn batch_reply_roundtrips_empty_and_many() {
        let enc = WireEncoder::new();
        for replies in [
            Vec::new(),
            vec![Bytes::from_static(b"")],
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"bc")],
        ] {
            let reply = BatchReply { replies };
            let frame = BatchReplyCodec::encode(&enc, &reply);
            assert_eq!(BatchReplyCodec::decode(&frame), Some(reply));
        }
        assert!(BatchReplyCodec::decode(&Bytes::from_static(b"\x01")).is_none());
    }
}
