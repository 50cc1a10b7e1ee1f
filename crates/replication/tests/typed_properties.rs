//! Property tests for the `ObjectType` codec contract — op and reply
//! round-trips for all three built-in classes (the one home of those
//! properties), including empty, boundary, and >64KiB values — plus typed
//! `Handle` regressions: batch alignment, a reply that survives a
//! crash-masked re-activation, and overflowing operations.

use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, KvMap, KvOp, KvReply, ObjectType, ReplicaObject,
    ReplicationPolicy, System,
};
use groupview_sim::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Counter ops and replies round-trip through the trait codec for the
    /// full i64 range (boundary values included by the arbitrary strategy).
    #[test]
    fn counter_codecs_roundtrip(delta in any::<i64>(), reply in any::<i64>()) {
        for op in [CounterOp::Get, CounterOp::Add(delta)] {
            prop_assert_eq!(Counter::decode_op(&Counter::op_vec(&op)), Some(op));
            prop_assert_eq!(
                Counter::decode_reply(&op, &Counter::reply_vec(&reply)),
                Some(reply)
            );
        }
        prop_assert_eq!(Counter::decode_op(&[]), None);
        prop_assert_eq!(Counter::decode_reply(&CounterOp::Get, &[1, 2]), None);
    }

    /// KvMap ops round-trip for arbitrary keys/values; replies decode in op
    /// context (Len replies as counts, value replies as text).
    #[test]
    fn kv_codecs_roundtrip(key in "\\PC{0,24}", value in "\\PC{0,48}", count in any::<u64>()) {
        for op in [
            KvOp::Get(key.clone()),
            KvOp::Put(key.clone(), value.clone()),
            KvOp::Delete(key.clone()),
            KvOp::Len,
        ] {
            prop_assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op.clone()));
        }
        let val = KvReply::Value(value.clone());
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Get(key.clone()), &KvMap::reply_vec(&val)),
            Some(val.clone())
        );
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Put(key.clone(), value.clone()), &KvMap::reply_vec(&val)),
            Some(val)
        );
        let len = KvReply::Len(count);
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&len)),
            Some(len)
        );
    }

    /// Account ops and replies round-trip across the whole u64 range,
    /// REFUSED marker included.
    #[test]
    fn account_codecs_roundtrip(amount in any::<u64>(), reply in any::<u64>()) {
        for op in [
            AccountOp::Balance,
            AccountOp::Deposit(amount),
            AccountOp::Withdraw(amount),
        ] {
            prop_assert_eq!(Account::decode_op(&Account::op_vec(&op)), Some(op));
            prop_assert_eq!(
                Account::decode_reply(&op, &Account::reply_vec(&reply)),
                Some(reply)
            );
        }
        prop_assert_eq!(
            Account::decode_reply(&AccountOp::Balance, &Account::reply_vec(&AccountOp::REFUSED)),
            Some(AccountOp::REFUSED)
        );
    }

    /// The reply bytes the live object writes through the encoder are
    /// exactly what `encode_reply` produces for the reply `apply` returns,
    /// and decode back to it — the codec contract the typed handle relies
    /// on, pinned for every class.
    #[test]
    fn object_replies_match_the_reply_codec(
        start in any::<i64>(),
        delta in any::<i64>(),
        amount in any::<u64>(),
        key in "[a-c]",
        value in "\\PC{0,16}",
    ) {
        check_reply_codec(Counter::new(start), CounterOp::Add(delta));
        check_reply_codec(Counter::new(start), CounterOp::Get);
        let mut map = KvMap::new();
        map.apply(KvOp::Put("a".into(), value.clone()));
        for op in [KvOp::Get(key.clone()), KvOp::Put(key.clone(), value), KvOp::Delete(key), KvOp::Len] {
            check_reply_codec(map.clone(), op);
        }
        for op in [AccountOp::Balance, AccountOp::Deposit(amount), AccountOp::Withdraw(amount)] {
            check_reply_codec(Account::new(amount / 2), op);
        }
    }
}

/// Invokes `op` on `object` through the byte-level replica surface and
/// checks the reply and the mutation flag against [`ObjectType::apply`]
/// run on a copy.
fn check_reply_codec<O: ObjectType + Clone>(object: O, op: O::Op) {
    let (reply, mutated) = object.clone().apply(op.clone());
    let mut live = object;
    let mut bytes = Vec::new();
    assert_eq!(live.invoke(&O::op_vec(&op), &mut bytes), mutated);
    assert_eq!(bytes, O::reply_vec(&reply));
    assert_eq!(O::decode_reply(&op, &bytes), Some(reply));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `invoke_batch` replies are index-aligned with the submitted ops —
    /// under every replication policy, for mixed read/write batches, for
    /// all-read batches (which take the read-lock path), and for the empty
    /// batch.
    #[test]
    fn batch_replies_align_with_op_order_under_every_policy(
        deltas in prop::collection::vec(-1_000i64..1_000, 1..10),
    ) {
        for policy in [
            ReplicationPolicy::Active,
            ReplicationPolicy::CoordinatorCohort,
            ReplicationPolicy::SingleCopyPassive,
        ] {
            let sys = System::builder(31).nodes(6).policy(policy).build();
            let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
            let uid = sys
                .create_typed(Counter::new(0), &trio, &trio)
                .expect("create");
            let client = sys.client(NodeId::new(4));
            let counter = uid.open(&client);
            let action = client.begin_action();
            counter.activate(action, 2).expect("activate");
            // Interleave Adds and Gets: each reply must reflect exactly the
            // ops before it in the batch, in order.
            let mut ops = Vec::new();
            let mut expected = Vec::new();
            let mut total = 0i64;
            for &d in &deltas {
                total += d;
                ops.push(CounterOp::Add(d));
                expected.push(total);
                ops.push(CounterOp::Get);
                expected.push(total);
            }
            let replies = counter.invoke_batch(action, &ops).expect("batch");
            prop_assert_eq!(&replies, &expected);
            // An all-read batch takes the read-lock path and still aligns.
            let replies = counter
                .invoke_batch(action, &[CounterOp::Get; 3])
                .expect("read batch");
            prop_assert_eq!(replies, vec![total; 3]);
            // The empty batch is a no-op with an empty reply vector.
            prop_assert_eq!(
                counter.invoke_batch(action, &[]).expect("empty batch"),
                Vec::<i64>::new()
            );
            client.commit(action).expect("commit");
        }
    }
}

/// Empty, boundary, and oversized (>64KiB) values survive the KvMap op and
/// reply codecs — the explicit sizes the satellite task calls out, pinned
/// deterministically on top of the property sweep.
#[test]
fn kv_codec_handles_empty_boundary_and_oversized_values() {
    let big = "x".repeat(100 * 1024); // > 64KiB
    for value in ["", "v", &big] {
        let op = KvOp::Put("key".into(), value.to_string());
        assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op.clone()));
        let reply = KvReply::Value(value.to_string());
        let encoded = KvMap::reply_vec(&reply);
        assert_eq!(encoded.len(), value.len());
        assert_eq!(KvMap::decode_reply(&op, &encoded), Some(reply));
    }
    // Boundary counts for Len replies.
    for count in [0, 1, u64::MAX] {
        assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&KvReply::Len(count))),
            Some(KvReply::Len(count))
        );
    }
}

/// A >64KiB value travels the full replicated path through a typed handle:
/// written in one action, read back typed in another.
#[test]
fn oversized_values_survive_the_full_typed_path() {
    let sys = System::builder(11).nodes(6).build();
    let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
    let uid = sys
        .create_typed(KvMap::new(), &trio, &trio)
        .expect("create");
    let client = sys.client(NodeId::new(4));
    let shelf = uid.open(&client);
    let big = "y".repeat(80 * 1024);

    let action = client.begin_action();
    shelf.activate(action, 2).expect("activate");
    assert_eq!(
        shelf
            .invoke(action, KvOp::Put("blob".into(), big.clone()))
            .expect("put"),
        KvReply::Value(String::new())
    );
    client.commit(action).expect("commit");

    let action = client.begin_action();
    shelf.activate_read_only(action, 1).expect("activate");
    assert_eq!(
        shelf.invoke(action, KvOp::Get("blob".into())).expect("get"),
        KvReply::Value(big)
    );
    client.commit(action).expect("commit");
}

/// Regression: a typed `Handle` keeps returning correctly-decoded replies
/// across a crash that is masked by re-activation — the reply decoded after
/// the surviving replicas take over must reflect every committed update.
#[test]
fn typed_reply_survives_crash_masked_reactivation() {
    let sys = System::builder(23)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build();
    let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
    let uid = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create");
    let client = sys.client(NodeId::new(4));
    let counter = uid.open(&client);

    // Commit through two replicas.
    let action = client.begin_action();
    let group = counter.activate(action, 2).expect("activate");
    assert_eq!(counter.invoke(action, CounterOp::Add(7)).expect("add"), 7);
    client.commit(action).expect("commit");

    // Crash one bound replica; the next activation masks it.
    sys.sim().crash(group.servers[0]);
    let action = client.begin_action();
    let regrouped = counter.activate(action, 2).expect("re-activate");
    assert!(
        !regrouped.servers.contains(&group.servers[0]),
        "crashed server must not be re-bound"
    );
    assert_eq!(
        counter.invoke(action, CounterOp::Add(3)).expect("add"),
        10,
        "typed reply reflects the pre-crash committed state"
    );
    assert_eq!(counter.invoke(action, CounterOp::Get).expect("get"), 10);
    client.commit(action).expect("commit");

    // And once more after recovery, from a third client.
    sys.recovery().recover_node(group.servers[0]);
    let reader = sys.client(NodeId::new(5));
    let observer = uid.open(&reader);
    let action = reader.begin_action();
    observer.activate_read_only(action, 1).expect("activate");
    assert_eq!(observer.invoke(action, CounterOp::Get).expect("get"), 10);
    reader.commit(action).expect("commit");
}

/// Regression: overflowing operations through a typed handle, under every
/// policy. An `Add` past `i64::MAX` used to panic a replica in debug builds;
/// a `Deposit` past `u64::MAX` also wrapped the balance in release. Now the
/// counter wraps explicitly and the deposit is refused like an overdraft.
#[test]
fn overflowing_operations_wrap_or_are_refused_through_a_handle() {
    for policy in ReplicationPolicy::ALL {
        let sys = System::builder(37).nodes(6).policy(policy).build();
        let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let counter = sys
            .create_typed(Counter::new(1), &trio, &trio)
            .expect("create counter");
        let account = sys
            .create_typed(Account::new(1), &trio, &trio)
            .expect("create account");
        let client = sys.client(NodeId::new(4));
        let (counter, account) = (counter.open(&client), account.open(&client));

        let action = client.begin_action();
        counter.activate(action, 2).expect("activate counter");
        account.activate(action, 2).expect("activate account");
        assert_eq!(
            counter.invoke(action, CounterOp::Add(i64::MAX)),
            Ok(i64::MIN),
            "{policy}"
        );
        assert_eq!(
            account.invoke(action, AccountOp::Deposit(u64::MAX)),
            Ok(AccountOp::REFUSED),
            "{policy}"
        );
        client.commit(action).expect("commit");

        let action = client.begin_action();
        counter
            .activate_read_only(action, 1)
            .expect("activate counter");
        account
            .activate_read_only(action, 1)
            .expect("activate account");
        assert_eq!(
            counter.invoke(action, CounterOp::Get),
            Ok(i64::MIN),
            "{policy}"
        );
        assert_eq!(
            account.invoke(action, AccountOp::Balance),
            Ok(1),
            "{policy}"
        );
        client.commit(action).expect("commit");
    }
}
