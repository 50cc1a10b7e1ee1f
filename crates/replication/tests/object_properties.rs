//! Property tests for the object classes: replica application matches a
//! direct model, and hostile bytes — arbitrary, or a truncated snapshot,
//! operation or op body — never panic a class or mutate a replica. The op
//! and reply codec round-trips live in `typed_properties.rs`.

use groupview_replication::wire::write_invocation;
use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, GroupMsg, GroupMsgCodec, InvokeResult, KvMap, KvOp,
    ObjectType, ReplicaObject, ServerReplica, TypeRegistry,
};
use groupview_sim::wire::Codec;
use groupview_sim::{Bytes, NodeId, Sim, SimConfig, WireEncoder};
use groupview_store::{ObjectState, TypeTag, Uid};
use proptest::prelude::*;

fn enc() -> WireEncoder {
    WireEncoder::new()
}

/// Invokes `op` the way the replica loop does, into a reply buffer.
fn run(object: &mut dyn ReplicaObject, op: &[u8]) -> InvokeResult {
    let mut reply = Vec::new();
    let mutated = object.invoke(op, &mut reply);
    InvokeResult {
        reply: reply.into(),
        mutated,
    }
}

/// Feeds `bytes` to every byte-level entry point of class `O`: the
/// registry decoder, an in-place restore, and an invoke. None may panic;
/// whatever the registry decodes must report the class's tag.
fn feed<O: ObjectType + Default>(bytes: &[u8]) {
    let decoded = TypeRegistry::with_builtins()
        .decode(O::TAG, bytes)
        .expect("built-in class");
    assert_eq!(decoded.type_tag(), O::TAG);
    let mut object = O::default();
    object.restore(bytes);
    run(&mut object, bytes);
}

/// Every strict prefix of `snapshot` and `op` is fed to class `O`; a
/// truncated op must come back as a harmless read with an empty reply.
fn feed_truncations<O: ObjectType + Default>(snapshot: &[u8], op: &[u8]) {
    for cut in 0..snapshot.len() {
        feed::<O>(&snapshot[..cut]);
    }
    for cut in 0..op.len() {
        feed::<O>(&op[..cut]);
        let result = run(&mut O::decode_state(snapshot), &op[..cut]);
        assert!(!result.mutated, "truncated op mutated: {:?}", &op[..cut]);
        assert!(result.reply.is_empty(), "truncated op replied");
    }
}

fn kv_ops() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[a-d]{0,3}", "\\PC{0,16}"), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Adds wrap at the `i64` bounds, in debug and release alike.
    #[test]
    fn counter_model_equivalence(start in any::<i64>(), deltas in prop::collection::vec(any::<i64>(), 0..20)) {
        let mut object = Counter::new(start);
        let mut model = start;
        for d in &deltas {
            let result = run(&mut object, &Counter::op_vec(&CounterOp::Add(*d)));
            model = model.wrapping_add(*d);
            prop_assert_eq!(Counter::decode_reply(&CounterOp::Get, &result.reply), Some(model));
            prop_assert!(result.mutated);
        }
        // Snapshot/decode preserves the final state exactly.
        let restored = Counter::decode_state(&object.snapshot(&enc()));
        prop_assert_eq!(restored.value(), model);
    }

    #[test]
    fn kv_model_equivalence(
        ops in prop::collection::vec(
            ("[a-d]", "\\PC{0,16}", 0u8..3),
            0..30,
        ),
    ) {
        let mut object = KvMap::new();
        let mut model = std::collections::BTreeMap::<String, String>::new();
        for (key, value, kind) in &ops {
            match kind {
                0 => {
                    let result = run(&mut object, &KvMap::op_vec(&KvOp::Put(key.clone(), value.clone())));
                    let prev = model.insert(key.clone(), value.clone()).unwrap_or_default();
                    prop_assert_eq!(result.reply, prev.into_bytes());
                    prop_assert!(result.mutated);
                }
                1 => {
                    let result = run(&mut object, &KvMap::op_vec(&KvOp::Get(key.clone())));
                    let expect = model.get(key).cloned().unwrap_or_default();
                    prop_assert_eq!(result.reply, expect.into_bytes());
                    prop_assert!(!result.mutated);
                }
                _ => {
                    let result = run(&mut object, &KvMap::op_vec(&KvOp::Delete(key.clone())));
                    let prev = model.remove(key).unwrap_or_default();
                    prop_assert_eq!(result.reply, prev.into_bytes());
                }
            }
        }
        // Snapshot round-trip equals the model.
        let restored = KvMap::decode_state(&object.snapshot(&enc()));
        prop_assert_eq!(restored.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(restored.get(k), Some(v.as_str()));
        }
    }

    /// Overdrafts and overflowing deposits are refused without mutating;
    /// everything else moves the balance exactly.
    #[test]
    fn account_never_overdraws(
        start in 0u64..1_000_000,
        ops in prop::collection::vec(
            (0u8..2, prop_oneof![3 => 0u64..10_000, 1 => any::<u64>()]),
            0..30,
        ),
    ) {
        let mut object = Account::new(start);
        let mut model = start;
        for (kind, amount) in &ops {
            let (op, next) = if *kind == 0 {
                (AccountOp::Deposit(*amount), model.checked_add(*amount))
            } else {
                (AccountOp::Withdraw(*amount), model.checked_sub(*amount))
            };
            let result = run(&mut object, &Account::op_vec(&op));
            let reply = Account::decode_reply(&op, &result.reply);
            match next {
                Some(balance) => {
                    model = balance;
                    prop_assert_eq!(reply, Some(model));
                    prop_assert!(result.mutated);
                }
                None => {
                    prop_assert_eq!(reply, Some(AccountOp::REFUSED));
                    prop_assert!(!result.mutated, "refused {:?} must not mutate", op);
                }
            }
            prop_assert_eq!(object.balance(), model);
        }
        prop_assert_eq!(Account::decode_state(&object.snapshot(&enc())).balance(), model);
    }

    /// Garbage bytes never mutate any object and never panic any class's
    /// registry decoder, restore or invoke — including length prefixes and
    /// entry counts that promise far more than follows. An unknown tag
    /// decodes to nothing.
    #[test]
    fn garbage_ops_are_harmless(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        feed::<Counter>(&bytes);
        feed::<KvMap>(&bytes);
        feed::<Account>(&bytes);
        prop_assert!(TypeRegistry::with_builtins().decode(TypeTag::new(99), &bytes).is_none());
        // Skip inputs that happen to decode as valid mutating ops.
        let mut counter = Counter::new(5);
        if Counter::decode_op(&bytes).is_none() {
            prop_assert!(!run(&mut counter, &bytes).mutated);
            prop_assert_eq!(counter.value(), 5);
        }
        let mut kv = KvMap::new();
        if KvMap::decode_op(&bytes).is_none() {
            prop_assert!(!run(&mut kv, &bytes).mutated);
        }
        let mut account = Account::new(5);
        if Account::decode_op(&bytes).is_none() {
            prop_assert!(!run(&mut account, &bytes).mutated);
        }
    }

    /// Every truncation of a valid snapshot or op is harmless: decoders
    /// fall back to defaults, and a truncated op is an empty-reply read.
    #[test]
    fn truncated_snapshots_and_ops_never_panic_a_class(
        value in any::<i64>(),
        delta in any::<i64>(),
        entries in kv_ops(),
        key in "[a-d]{0,3}",
        val in "\\PC{0,16}",
        amount in any::<u64>(),
    ) {
        let enc = enc();
        let snapshot = Counter::new(value).snapshot(&enc);
        for op in [CounterOp::Get, CounterOp::Add(delta)] {
            feed_truncations::<Counter>(&snapshot, &Counter::op_vec(&op));
        }
        let mut map = KvMap::new();
        for (k, v) in entries {
            map.apply(KvOp::Put(k, v));
        }
        let snapshot = map.snapshot(&enc);
        for op in [KvOp::Get(key.clone()), KvOp::Put(key.clone(), val), KvOp::Delete(key), KvOp::Len] {
            feed_truncations::<KvMap>(&snapshot, &KvMap::op_vec(&op));
        }
        let snapshot = Account::new(amount).snapshot(&enc);
        for op in [AccountOp::Balance, AccountOp::Deposit(amount), AccountOp::Withdraw(amount)] {
            feed_truncations::<Account>(&snapshot, &Account::op_vec(&op));
        }
    }

    /// Hostile op bodies through `ServerReplica::invoke`: arbitrary bytes
    /// with the batch bit on and off, every truncation of a valid 2–16-op
    /// body, and that body plus one trailing byte. None panics; a body the
    /// replica refuses (`None`) leaves the state unchanged and no dedup
    /// entry, so the valid body under the same id then applies, and once
    /// remembered, applies exactly once.
    #[test]
    fn hostile_op_bodies_never_panic_or_mutate_a_replica(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        deltas in prop::collection::vec(-1_000i64..1_000, 2..=16),
    ) {
        let enc = enc();
        let ops: Vec<Vec<u8>> = deltas.iter().map(|&d| Counter::op_vec(&CounterOp::Add(d))).collect();
        let frame = enc.encode_with(|buf| {
            write_invocation(buf, 1, ops.len(), |i, buf| buf.extend_from_slice(&ops[i]))
        });
        let valid = GroupMsgCodec::decode(&frame).expect("well-formed frame");
        prop_assert!(valid.batched);
        let sum: i64 = deltas.iter().sum();

        let body = |body: Bytes, batched| GroupMsg { op_id: valid.op_id, batched, body };
        let mut hostile: Vec<(GroupMsg, bool)> = [false, true]
            .map(|batched| (body(Bytes::from(garbage.clone()), batched), false))
            .into();
        for cut in 0..valid.body.len() {
            hostile.push((body(valid.body.slice(..cut), true), true));
        }
        let mut padded = valid.body.to_vec();
        padded.push(0);
        hostile.push((body(Bytes::from(padded), true), true));

        let sim = Sim::new(SimConfig::new(7).with_nodes(1));
        let types = TypeRegistry::with_builtins();
        let initial = ObjectState::initial(Counter::TYPE_TAG, Counter::new(0).snapshot(&enc));
        let value = |replica: &mut ServerReplica| {
            let state = replica.snapshot_state(&sim, &enc).expect("loaded");
            Counter::decode_state(&state.data).value()
        };
        for (msg, malformed) in hostile {
            let mut replica = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
            prop_assert!(replica.load(&sim, &initial, &types));
            let result = replica.invoke(&sim, &enc, &msg);
            prop_assert!(!malformed || result.is_none(), "a malformed body was applied");
            if result.is_some() {
                continue;
            }
            prop_assert_eq!(value(&mut replica), 0, "a refused body mutated the state");
            let first = replica.invoke(&sim, &enc, &valid).expect("valid body");
            prop_assert!(first.mutated, "the refusal left a dedup entry");
            replica.remember(&sim, valid.op_id, &first);
            let again = replica.invoke(&sim, &enc, &valid).expect("valid body");
            prop_assert!(!again.mutated);
            prop_assert_eq!(again.reply, first.reply);
            prop_assert_eq!(value(&mut replica), sum, "applied exactly once");
        }
    }
}
