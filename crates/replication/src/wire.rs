//! Wire codecs for the replication protocol's frame types.
//!
//! Operations travel to replicas as [`GroupMsg`] frames (multicast to the
//! whole group for active replication, RPC'd to the coordinator for
//! coordinator-cohort, RPC'd to the single copy for single-copy passive) —
//! one frame is encoded per invocation, whatever its number of ops, and
//! shared by every receiver. Replicas answer with [`MemberReply`] frames.
//!
//! One layout carries the ops of an invocation and, inside the reply
//! envelope, their replies ([`write_body`]): a single item is written raw;
//! two or more are `[count: u32 LE][(len: u32 LE, item)*]`, and the
//! frame's id carries a batch bit that only this module knows. [`Frames`]
//! reads that layout back, validating the whole body first; [`Replies`] is
//! the client's zero-copy view of the answers. All codecs decode payloads
//! as zero-copy slices of the incoming frame.
//!
//! Checkpoint snapshots use [`groupview_store::SnapshotCodec`].

use crate::object::InvokeResult;
use groupview_sim::wire::{Bytes, Codec};
use std::ops::Range;

/// Header size of a [`GroupMsg`] frame (the operation id).
pub const GROUP_MSG_HEADER_BYTES: usize = 8;

/// High bit of the id in a frame whose body holds two or more ops.
/// Operation ids start at 1 and are allocated sequentially, so real ids
/// never carry this bit: dedup entries, undo logs and checkpoints key on
/// the plain id, and only the frame header carries the bit.
const BATCH_FLAG: u64 = 1 << 63;

/// An operation frame: `[op_id: u64 LE, batch bit][body]`.
///
/// The `op_id` drives per-replica at-most-once deduplication (a retry
/// after coordinator failover must not re-execute an operation the
/// checkpoint already applied). A body of several ops shares one id, so
/// a batch dedups, undoes and checkpoints as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMsg {
    /// System-wide unique operation id (never has the top bit set).
    pub op_id: u64,
    /// Whether the body holds two or more ops (the counted layout of
    /// [`write_body`]) rather than one raw op.
    pub batched: bool,
    /// The encoded operations, as the object class understands them.
    pub body: Bytes,
}

impl GroupMsg {
    /// The body's ops as byte ranges of [`GroupMsg::body`]; `None` when the
    /// body is malformed (checked whole before the first op is read).
    pub fn ops(&self) -> Option<Frames<'_>> {
        Frames::new(&self.body, self.batched)
    }
}

/// Codec for [`GroupMsg`] frames.
pub struct GroupMsgCodec;

fn header(op_id: u64, batched: bool) -> [u8; GROUP_MSG_HEADER_BYTES] {
    debug_assert!(op_id & BATCH_FLAG == 0, "op ids never reach the batch bit");
    (op_id | if batched { BATCH_FLAG } else { 0 }).to_le_bytes()
}

impl Codec for GroupMsgCodec {
    type Item = GroupMsg;

    fn encode_into(item: &GroupMsg, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&header(item.op_id, item.batched));
        buf.extend_from_slice(&item.body);
    }

    fn decode(bytes: &Bytes) -> Option<GroupMsg> {
        let id = u64::from_le_bytes(bytes.get(..GROUP_MSG_HEADER_BYTES)?.try_into().ok()?);
        Some(GroupMsg {
            op_id: id & !BATCH_FLAG,
            batched: id & BATCH_FLAG != 0,
            body: bytes.slice(GROUP_MSG_HEADER_BYTES..),
        })
    }
}

/// Appends the frame of invocation `op_id` carrying `n ≥ 1` ops to `buf`:
/// the header, then the body [`write_body`] lays out. This is the one
/// encode of an invocation; ops are written straight into the frame.
pub fn write_invocation(
    buf: &mut Vec<u8>,
    op_id: u64,
    n: usize,
    write_op: impl FnMut(usize, &mut Vec<u8>),
) {
    buf.extend_from_slice(&header(op_id, n > 1));
    write_body(buf, n, write_op);
}

fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.extend_from_slice(&u32::try_from(len).expect("length fits u32").to_le_bytes());
}

/// Appends a body of `n` items to `buf`, `write_item(i, buf)` writing the
/// `i`-th in place. One item is written raw; two or more as
/// `[count: u32 LE][(len: u32 LE, item)*]`, each length patched in after
/// its item. Operation bodies and reply bodies share this layout.
pub fn write_body(buf: &mut Vec<u8>, n: usize, mut write_item: impl FnMut(usize, &mut Vec<u8>)) {
    if n == 1 {
        return write_item(0, buf);
    }
    put_len(buf, n);
    for i in 0..n {
        let at = buf.len();
        put_len(buf, 0);
        write_item(i, buf);
        let len = u32::try_from(buf.len() - at - 4).expect("length fits u32");
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

fn read_len(body: &[u8], at: usize) -> Option<usize> {
    Some(u32::from_le_bytes(body.get(at..at.checked_add(4)?)?.try_into().ok()?) as usize)
}

/// The items of a body written by [`write_body`], as byte ranges of that
/// body, in order.
///
/// Validate-first: [`Frames::new`] walks the whole body before yielding
/// anything and refuses a count below two, a length that overruns the
/// body, and trailing bytes — so a replica that applies the ops as it
/// iterates never applies a prefix of a malformed batch.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    body: &'a [u8],
    /// Offset of the next item's length prefix (counted layout).
    at: usize,
    left: usize,
    raw: bool,
}

impl<'a> Frames<'a> {
    /// Reads `body` as one raw item, or (`batched`) as the counted layout;
    /// `None` when a counted body is malformed.
    pub fn new(body: &'a [u8], batched: bool) -> Option<Frames<'a>> {
        if !batched {
            return Some(Frames {
                body,
                at: 0,
                left: 1,
                raw: true,
            });
        }
        let count = read_len(body, 0)?;
        let mut at = 4usize;
        for _ in 0..count {
            at = at.checked_add(4 + read_len(body, at)?)?;
        }
        (count >= 2 && at == body.len()).then_some(Frames {
            body,
            at: 4,
            left: count,
            raw: false,
        })
    }
}

impl Iterator for Frames<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        self.left = self.left.checked_sub(1)?;
        if self.raw {
            return Some(0..self.body.len());
        }
        let start = self.at + 4;
        self.at = start + read_len(self.body, self.at).expect("validated by Frames::new");
        Some(start..self.at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Frames<'_> {}

/// The replies of one invocation, index-aligned with its ops: a zero-copy
/// view of the reply frame, whose reply count was checked once, when the
/// view was made.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replies {
    frame: Bytes,
    n: usize,
}

impl Replies {
    /// Views `frame` as the replies to `n` ops (the layout of
    /// [`write_body`]); `None` unless it holds exactly `n` replies.
    pub fn decode(frame: Bytes, n: usize) -> Option<Replies> {
        let frames = Frames::new(&frame, n > 1)?;
        (frames.len() == n).then_some(Replies { frame, n })
    }

    /// The number of replies.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are none (the answer to an empty invocation).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The replies in op order, borrowed from the frame.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.ranges().map(|range| &self.frame[range])
    }

    /// The replies in op order, each a shared slice of the frame (for a
    /// caller that keeps them).
    pub fn slices(&self) -> impl Iterator<Item = Bytes> + '_ {
        self.ranges().map(|range| self.frame.slice(range))
    }

    fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        Frames::new(&self.frame, self.n > 1)
            .into_iter()
            .flatten()
            .take(self.n)
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

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::wire::{self, WireEncoder};

    /// The frame of invocation `op_id` carrying `ops`.
    fn invocation(enc: &WireEncoder, op_id: u64, ops: &[&[u8]]) -> Bytes {
        enc.encode_with(|buf| {
            write_invocation(buf, op_id, ops.len(), |i, buf| {
                buf.extend_from_slice(ops[i])
            })
        })
    }

    fn items<'a>(body: &'a [u8], frames: Frames<'_>) -> Vec<&'a [u8]> {
        frames.map(|range| &body[range]).collect()
    }

    #[test]
    fn group_msg_roundtrip_slices_the_frame() {
        let enc = WireEncoder::new();
        let msg = GroupMsg {
            op_id: 0xDEAD_BEEF,
            batched: false,
            body: Bytes::from_static(b"add(1)"),
        };
        let frame = GroupMsgCodec::encode(&enc, &msg);
        assert_eq!(
            frame,
            invocation(&enc, 0xDEAD_BEEF, &[b"add(1)"]),
            "one op is raw"
        );
        let before = wire::stats();
        let decoded = GroupMsgCodec::decode(&frame).expect("well-formed");
        assert_eq!(wire::stats(), before, "zero-copy decode");
        assert_eq!(decoded, msg);
        assert_eq!(
            decoded.body.as_slice().as_ptr(),
            frame.as_slice()[GROUP_MSG_HEADER_BYTES..].as_ptr()
        );
        assert_eq!(items(&decoded.body, decoded.ops().unwrap()), [b"add(1)"]);
        assert!(GroupMsgCodec::decode(&frame.slice(..7)).is_none());
    }

    #[test]
    fn member_reply_roundtrips_all_shapes() {
        let enc = WireEncoder::new();
        for reply in [
            MemberReply::NotLoaded,
            MemberReply::Loaded(InvokeResult::read(Vec::new())),
            MemberReply::Loaded(InvokeResult {
                reply: vec![1, 2, 3].into(),
                mutated: true,
            }),
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
        let frame = invocation(&enc, 7, &ops);
        let before = wire::stats();
        let msg = GroupMsgCodec::decode(&frame).expect("well-formed");
        assert_eq!(wire::stats(), before, "zero-copy decode");
        assert_eq!((msg.op_id, msg.batched), (7, true), "the id is plain");
        assert_eq!(frame[7] & 0x80, 0x80, "the frame carries the batch bit");
        let body = frame.slice(GROUP_MSG_HEADER_BYTES..);
        assert_eq!(
            body,
            [
                &3u32.to_le_bytes()[..],
                &6u32.to_le_bytes(),
                b"add(1)",
                &[0; 4],
                &3u32.to_le_bytes(),
                b"get"
            ]
            .concat()
        );
        let ranges: Vec<_> = msg.ops().expect("valid body").collect();
        assert_eq!(ranges, [8..14, 18..18, 22..25], "ranges of the body");
        assert_eq!(items(&msg.body, msg.ops().unwrap()), ops);
        assert_eq!(GroupMsgCodec::encode(&enc, &msg), frame);
    }

    #[test]
    fn batch_msg_rejects_truncation_and_trailing_bytes() {
        let enc = WireEncoder::new();
        let frame = invocation(&enc, 1, &[b"abcd", b"efgh"]);
        let body = &frame[GROUP_MSG_HEADER_BYTES..];
        for cut in 0..body.len() {
            assert!(
                Frames::new(&body[..cut], true).is_none(),
                "truncated at {cut} must be rejected"
            );
        }
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(Frames::new(&padded, true).is_none(), "trailing bytes");
        // A counted body of fewer than two items is never written.
        for count in [0u32, 1] {
            let mut short = count.to_le_bytes().to_vec();
            short.extend(std::iter::repeat_n([0, 0, 0, 0], count as usize).flatten());
            assert!(Frames::new(&short, true).is_none(), "count {count}");
        }
    }

    #[test]
    fn batch_reply_roundtrips_empty_and_many() {
        let enc = WireEncoder::new();
        assert_eq!(Replies::default().iter().count(), 0);
        for replies in [&[&b""[..]][..], &[b"a", b"bc"], &[b"x", b"", b"yz", b"w"]] {
            let n = replies.len();
            let frame = enc
                .encode_with(|buf| write_body(buf, n, |i, buf| buf.extend_from_slice(replies[i])));
            let view = Replies::decode(frame.clone(), n).expect("well-formed");
            assert_eq!(view.len(), n);
            let got: Vec<&[u8]> = view.iter().collect();
            assert_eq!(got, replies);
            assert!(Replies::decode(frame, n + 1).is_none(), "count checked");
        }
        assert!(Replies::decode(Bytes::from_static(b"\x01"), 2).is_none());
    }
}
