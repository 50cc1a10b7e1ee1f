//! Property tests for the wire layer: every codec round-trips arbitrary
//! payloads (including empty and >64 KiB buffers), and the shared-buffer
//! primitives (`clone`, `slice`, zero-copy decode) never allocate or copy —
//! asserted through the sim's wire allocation counter.

use groupview_replication::{
    BatchMsg, BatchMsgCodec, BatchReply, BatchReplyCodec, GroupMsg, GroupMsgCodec, InvokeResult,
    MemberReply, MemberReplyCodec, BATCH_FLAG,
};
use groupview_sim::wire::{self, Bytes, Codec, WireEncoder};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn group_msg_roundtrips_arbitrary_payloads(
        op_id in any::<u64>(),
        payload in payload_strategy(),
    ) {
        let enc = WireEncoder::new();
        let msg = GroupMsg { op_id, op: Bytes::from(payload.clone()) };
        let frame = GroupMsgCodec::encode(&enc, &msg);
        prop_assert_eq!(frame.len(), payload.len() + 8);
        let decoded = GroupMsgCodec::decode(&frame).expect("well-formed frame");
        prop_assert_eq!(decoded.op_id, op_id);
        prop_assert_eq!(&decoded.op, &payload);
        // Decoding is zero-copy: the op aliases the frame's storage.
        if !payload.is_empty() {
            prop_assert_eq!(
                decoded.op.as_slice().as_ptr(),
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
        let before = wire::stats();
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
        prop_assert_eq!(wire::stats(), before, "slice/clone must never copy");
        for v in &views {
            prop_assert!(v.len() <= buf.len());
        }
    }

    #[test]
    fn batch_msg_roundtrips_op_lists(
        raw_id in any::<u64>(),
        ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 0..12),
    ) {
        let enc = WireEncoder::new();
        let batch_id = raw_id | BATCH_FLAG;
        let op_slices: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
        let frame = BatchMsgCodec::encode_parts(&enc, batch_id, &op_slices);
        let decoded = BatchMsgCodec::decode(&frame).expect("well-formed batch");
        prop_assert_eq!(decoded.batch_id, batch_id);
        prop_assert_eq!(decoded.ops.len(), ops.len());
        for (got, want) in decoded.ops.iter().zip(&ops) {
            prop_assert_eq!(got, want);
        }
        // The struct-level codec produces the identical frame.
        let msg = BatchMsg {
            batch_id,
            ops: ops.iter().map(|o| Bytes::from(o.clone())).collect(),
        };
        prop_assert_eq!(BatchMsgCodec::encode(&enc, &msg), frame);
    }

    #[test]
    fn batch_frames_reject_truncation_and_padding(
        raw_id in any::<u64>(),
        ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..6),
        cut in 0usize..10_000,
    ) {
        let enc = WireEncoder::new();
        let op_slices: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
        let frame = BatchMsgCodec::encode_parts(&enc, raw_id | BATCH_FLAG, &op_slices);
        // Any strict prefix is malformed (never a panic, never a value).
        let cut = cut % frame.len();
        prop_assert!(BatchMsgCodec::decode(&frame.slice(..cut)).is_none());
        // So is a frame with trailing garbage.
        let mut padded = frame.as_slice().to_vec();
        padded.push(0);
        prop_assert!(BatchMsgCodec::decode(&Bytes::from(padded)).is_none());
    }

    #[test]
    fn batch_reply_roundtrips_reply_lists(
        replies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 0..12),
    ) {
        let enc = WireEncoder::new();
        let reply = BatchReply {
            replies: replies.iter().map(|r| Bytes::from(r.clone())).collect(),
        };
        let frame = BatchReplyCodec::encode(&enc, &reply);
        prop_assert_eq!(BatchReplyCodec::decode(&frame).expect("well-formed"), reply);
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
        let _ = GroupMsgCodec::decode(&truncated);
        let _ = MemberReplyCodec::decode(&truncated);
        let _ = SnapshotCodec::decode(&truncated);
        let _ = BatchMsgCodec::decode(&truncated);
        let _ = BatchReplyCodec::decode(&truncated);
    }
}

#[test]
fn oversize_batch_roundtrips_zero_copy() {
    // A batch whose aggregate payload tops 64 KiB: one pooled frame, and
    // every decoded op aliases that frame's storage.
    let enc = WireEncoder::new();
    let ops: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 2048]).collect();
    assert!(ops.iter().map(Vec::len).sum::<usize>() > 65_536);
    let op_slices: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
    let frame = BatchMsgCodec::encode_parts(&enc, 7 | BATCH_FLAG, &op_slices);
    let before = wire::stats();
    let decoded = BatchMsgCodec::decode(&frame).expect("well-formed");
    assert_eq!(wire::stats(), before, "batch decode copies nothing");
    assert_eq!(decoded.ops.len(), 40);
    for (got, want) in decoded.ops.iter().zip(&ops) {
        assert_eq!(got, want);
    }
}

#[test]
fn oversize_frame_decodes_zero_copy_through_the_pool() {
    // A >64 KiB payload exercises the pool's buffer-growth path and the
    // zero-copy decode in one shot.
    let enc = WireEncoder::new();
    let big: Vec<u8> = (0..70_000u32).map(|i| i as u8).collect();
    let msg = GroupMsg {
        op_id: u64::MAX,
        op: Bytes::from(big.clone()),
    };
    let frame = GroupMsgCodec::encode(&enc, &msg);
    assert_eq!(frame.len(), 70_008);
    let before = wire::stats();
    let decoded = GroupMsgCodec::decode(&frame).expect("well-formed");
    assert_eq!(
        wire::stats(),
        before,
        "decode of a 68 KiB frame copies nothing"
    );
    assert_eq!(decoded.op, big);
    // Release the frame: the 70 KB scratch returns to the pool, and the
    // next encode of the same size allocates nothing.
    drop(frame);
    drop(decoded);
    let before = wire::stats();
    let frame = GroupMsgCodec::encode(&enc, &msg);
    assert_eq!(wire::stats().since(before).buffer_allocs, 0, "pool reuse");
    assert_eq!(frame.len(), 70_008);
}
