//! Property tests for the wire layer: every codec round-trips arbitrary
//! payloads (including empty and >64 KiB buffers), and the shared-buffer
//! primitives (`clone`, `slice`, zero-copy decode) never allocate or copy —
//! asserted through the sim's wire allocation counter.

use groupview_replication::wire::write_invocation;
use groupview_replication::{
    wire, Frames, GroupMsg, GroupMsgCodec, InvokeResult, MemberReply, MemberReplyCodec, Replies,
};
use groupview_sim::wire::{self as sim_wire, Bytes, Codec, WireEncoder};
use groupview_store::{ObjectState, SnapshotCodec, TypeTag, Version};
use proptest::prelude::*;

/// Payload generator exercising the interesting size classes: empty, tiny,
/// typical, and >64 KiB (chunked so generation stays cheap — the content
/// pattern still differs per case via the seed byte).
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => Just(Vec::new()),
        4 => prop::collection::vec(any::<u8>(), 1..64),
        2 => prop::collection::vec(any::<u8>(), 64..2048),
        1 => (any::<u8>(), 65_537usize..80_000).prop_map(|(seed, len)| {
            (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
        }),
    ]
}

/// The frame of invocation `op_id` carrying `ops`, as a client encodes it.
fn invocation(enc: &WireEncoder, op_id: u64, ops: &[Vec<u8>]) -> Bytes {
    enc.encode_with(|buf| {
        write_invocation(buf, op_id, ops.len(), |i, buf| {
            buf.extend_from_slice(&ops[i])
        })
    })
}

/// Operation ids are sequential from 1: they never reach the top bit,
/// which the frame header reserves.
fn op_id_strategy() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|id| id >> 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn group_msg_roundtrips_arbitrary_payloads(
        op_id in op_id_strategy(),
        batched in any::<bool>(),
        payload in payload_strategy(),
    ) {
        let enc = WireEncoder::new();
        let msg = GroupMsg { op_id, batched, body: Bytes::from(payload.clone()) };
        let frame = GroupMsgCodec::encode(&enc, &msg);
        prop_assert_eq!(frame.len(), payload.len() + 8);
        let decoded = GroupMsgCodec::decode(&frame).expect("well-formed frame");
        prop_assert_eq!((decoded.op_id, decoded.batched), (op_id, batched));
        prop_assert_eq!(&decoded.body, &payload);
        // Decoding is zero-copy: the body aliases the frame's storage.
        if !payload.is_empty() {
            prop_assert_eq!(
                decoded.body.as_slice().as_ptr(),
                frame.as_slice()[8..].as_ptr()
            );
        }
    }

    #[test]
    fn member_reply_roundtrips_arbitrary_payloads(
        payload in payload_strategy(),
        mutated in prop_oneof![Just(true), Just(false)],
        loaded in prop_oneof![4 => Just(true), 1 => Just(false)],
    ) {
        let enc = WireEncoder::new();
        let reply = if loaded {
            MemberReply::Loaded(InvokeResult {
                reply: Bytes::from(payload.clone()),
                mutated,
            })
        } else {
            MemberReply::NotLoaded
        };
        let frame = MemberReplyCodec::encode(&enc, &reply);
        let decoded = MemberReplyCodec::decode(&frame).expect("well-formed frame");
        prop_assert_eq!(decoded, reply);
    }

    #[test]
    fn member_reply_headers_outside_the_valid_set_decode_to_none(
        status in prop_oneof![1 => 0u8..=1, 1 => any::<u8>()],
        flag in prop_oneof![1 => 0u8..=1, 1 => any::<u8>()],
        tail in prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 1..16)],
    ) {
        // Every 2-byte header: valid iff status ∈ {0 Loaded, 1 NotLoaded}
        // and the mutated flag ∈ {0, 1}. A `NotLoaded` frame is exactly
        // the header; a `Loaded` one carries its reply after it.
        let valid = status <= 1 && flag <= 1;
        let header = Bytes::from(vec![status, flag]);
        let decoded = MemberReplyCodec::decode(&header);
        prop_assert_eq!(decoded.is_some(), valid, "header {:?}", header);
        if let Some(reply) = decoded {
            let enc = WireEncoder::new();
            let frame = MemberReplyCodec::encode(&enc, &reply);
            prop_assert_eq!(MemberReplyCodec::decode(&frame), Some(reply));
        }
        let mut long = vec![status, flag];
        long.extend_from_slice(&tail);
        let decoded = MemberReplyCodec::decode(&Bytes::from(long));
        let loaded_with_reply = status == 0 && flag <= 1;
        prop_assert_eq!(decoded.is_some(), valid && (tail.is_empty() || loaded_with_reply));
        if let Some(MemberReply::Loaded(r)) = decoded {
            prop_assert_eq!(r.mutated, flag == 1);
            prop_assert_eq!(&r.reply, &tail);
        }
    }

    #[test]
    fn snapshot_roundtrips_arbitrary_payloads(
        tag in any::<u32>(),
        version in any::<u64>(),
        payload in payload_strategy(),
    ) {
        let enc = WireEncoder::new();
        let state = ObjectState {
            type_tag: TypeTag::new(tag),
            version: Version::new(version),
            data: Bytes::from(payload.clone()),
        };
        let frame = SnapshotCodec::encode(&enc, &state);
        let decoded = SnapshotCodec::decode(&frame).expect("well-formed frame");
        prop_assert_eq!(decoded.type_tag, TypeTag::new(tag));
        prop_assert_eq!(decoded.version, Version::new(version));
        prop_assert_eq!(&decoded.data, &payload);
    }

    #[test]
    fn slice_and_clone_never_copy(
        payload in payload_strategy(),
        cuts in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..8),
    ) {
        let buf = Bytes::from(payload);
        let before = sim_wire::stats();
        let mut views = Vec::new();
        for (a, b) in cuts {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let lo = lo.min(buf.len());
            let hi = hi.min(buf.len());
            views.push(buf.slice(lo..hi));
            views.push(buf.clone());
        }
        // However many views were taken, the allocation counter must not
        // have moved: slicing and cloning share storage.
        prop_assert_eq!(sim_wire::stats(), before, "slice/clone must never copy");
        for v in &views {
            prop_assert!(v.len() <= buf.len());
        }
    }

    /// Operation bodies are written raw for one op, counted for two or
    /// more, and each op reads back as itself.
    #[test]
    fn batch_msg_roundtrips_op_lists(
        op_id in op_id_strategy(),
        ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 1..12),
    ) {
        let enc = WireEncoder::new();
        let frame = invocation(&enc, op_id, &ops);
        let msg = GroupMsgCodec::decode(&frame).expect("well-formed frame");
        prop_assert_eq!((msg.op_id, msg.batched), (op_id, ops.len() > 1));
        let got: Vec<&[u8]> = msg.ops().expect("valid body").map(|r| &msg.body[r]).collect();
        prop_assert_eq!(&got, &ops);
        // The struct-level codec produces the identical frame.
        prop_assert_eq!(GroupMsgCodec::encode(&enc, &msg), frame);

        // Reply bodies share the layout: the same items as replies are
        // the same bytes as the op body.
        let n = ops.len();
        let reply = enc.encode_with(|buf| wire::write_body(buf, n, |i, buf| buf.extend_from_slice(&ops[i])));
        prop_assert_eq!(&reply, &msg.body);
    }

    /// A reply list written by a replica reads back as itself through the
    /// client's zero-copy view, and only under its own reply count.
    #[test]
    fn batch_reply_roundtrips_reply_lists(
        replies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..12),
    ) {
        let enc = WireEncoder::new();
        let n = replies.len();
        let frame = enc.encode_with(|buf| {
            wire::write_body(buf, n, |i, buf| buf.extend_from_slice(&replies[i]))
        });
        let before = sim_wire::stats();
        let decoded = Replies::decode(frame.clone(), n).expect("n replies");
        prop_assert_eq!(decoded.len(), n);
        prop_assert_eq!(decoded.iter().collect::<Vec<_>>(), replies.clone());
        let kept: Vec<Bytes> = decoded.slices().collect();
        prop_assert_eq!(sim_wire::stats(), before, "reply decode copies nothing");
        prop_assert_eq!(&kept, &replies);
        // Every reply aliases the frame's storage.
        let span = frame.as_slice().as_ptr_range();
        for r in kept.iter().filter(|r| !r.is_empty()) {
            prop_assert!(span.contains(&r.as_slice().as_ptr()));
        }
        // The count is checked: a larger one is refused, and so is any
        // smaller count of two or more (a single reply is raw, so any
        // bytes read as one).
        prop_assert!(Replies::decode(frame.clone(), n + 1).is_none());
        if n > 2 {
            prop_assert!(Replies::decode(frame, n - 1).is_none());
        }
    }

    #[test]
    fn batch_frames_reject_truncation_and_padding(
        op_id in op_id_strategy(),
        ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 2..6),
        cut in 0usize..10_000,
    ) {
        let enc = WireEncoder::new();
        let frame = invocation(&enc, op_id, &ops);
        let body = &frame[8..];
        // Any strict prefix is malformed (never a panic, never a value).
        let cut = cut % body.len();
        prop_assert!(Frames::new(&body[..cut], true).is_none());
        // So is a body with trailing garbage.
        let mut padded = body.to_vec();
        padded.push(0);
        prop_assert!(Frames::new(&padded, true).is_none());
        let padded = Bytes::from(padded);
        prop_assert!(Replies::decode(padded, ops.len()).is_none());
    }

    #[test]
    fn truncated_frames_never_panic(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..64,
    ) {
        let frame = Bytes::from(payload);
        let cut = cut.min(frame.len());
        let truncated = frame.slice(..cut);
        // Malformed input must yield None, never a panic.
        if let Some(msg) = GroupMsgCodec::decode(&truncated) {
            let _ = msg.ops().map(Iterator::count);
        }
        let _ = MemberReplyCodec::decode(&truncated);
        let _ = SnapshotCodec::decode(&truncated);
        for n in 0..4 {
            let _ = Replies::decode(truncated.clone(), n).map(|r| r.iter().count());
        }
    }
}

#[test]
fn oversize_batch_roundtrips_zero_copy() {
    // A batch whose aggregate payload tops 64 KiB: one pooled frame, and
    // every decoded op aliases that frame's storage.
    let enc = WireEncoder::new();
    let ops: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 2048]).collect();
    assert!(ops.iter().map(Vec::len).sum::<usize>() > 65_536);
    let frame = invocation(&enc, 7, &ops);
    let before = sim_wire::stats();
    let msg = GroupMsgCodec::decode(&frame).expect("well-formed");
    let got: Vec<&[u8]> = msg
        .ops()
        .expect("valid body")
        .map(|r| &msg.body[r])
        .collect();
    assert_eq!(sim_wire::stats(), before, "batch decode copies nothing");
    assert_eq!(got, ops);
    assert_eq!(got[0].as_ptr(), frame[8 + 4 + 4..].as_ptr());
}

#[test]
fn oversize_frame_decodes_zero_copy_through_the_pool() {
    // A >64 KiB payload exercises the pool's buffer-growth path and the
    // zero-copy decode in one shot.
    let enc = WireEncoder::new();
    let big: Vec<u8> = (0..70_000u32).map(|i| i as u8).collect();
    let msg = GroupMsg {
        op_id: u64::MAX >> 1,
        batched: false,
        body: Bytes::from(big.clone()),
    };
    let frame = GroupMsgCodec::encode(&enc, &msg);
    assert_eq!(frame.len(), 70_008);
    let before = sim_wire::stats();
    let decoded = GroupMsgCodec::decode(&frame).expect("well-formed");
    assert_eq!(
        sim_wire::stats(),
        before,
        "decode of a 68 KiB frame copies nothing"
    );
    assert_eq!(decoded.body, big);
    // Release the frame: the 70 KB scratch returns to the pool, and the
    // next encode of the same size allocates nothing.
    drop(frame);
    drop(decoded);
    let before = sim_wire::stats();
    let frame = GroupMsgCodec::encode(&enc, &msg);
    assert_eq!(
        sim_wire::stats().since(before).buffer_allocs,
        0,
        "pool reuse"
    );
    assert_eq!(frame.len(), 70_008);
}
