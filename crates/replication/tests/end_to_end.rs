//! End-to-end scenarios across the whole replication stack.

use groupview_core::{BindingScheme, DbError, ExcludePolicy};
use groupview_replication::{
    Account, AccountOp, CommitError, Counter, CounterOp, InvokeError, ObjectType,
    ReplicationPolicy, Replies, System,
};
use groupview_sim::{Cause, NodeId, TraceEvent};
use groupview_store::Version;

/// The wire encoding of one counter operation, as a one-op invocation.
fn counter_op(op: CounterOp) -> [Vec<u8>; 1] {
    [Counter::op_vec(&op)]
}

/// Decodes the reply of a one-op counter invocation.
fn counter_reply(replies: &Replies) -> Option<i64> {
    Counter::decode_reply(&CounterOp::Get, replies.iter().next()?)
}

/// Decodes the reply of a one-op account invocation.
fn balance_reply(replies: &Replies) -> Option<u64> {
    Account::decode_reply(&AccountOp::Balance, replies.iter().next()?)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// 6 nodes: n0 naming, n1-n3 servers+stores, n4-n5 client nodes.
fn system(policy: ReplicationPolicy, scheme: BindingScheme) -> System {
    System::builder(77)
        .nodes(6)
        .policy(policy)
        .scheme(scheme)
        .build()
}

fn create_counter(sys: &System, value: i64) -> groupview_store::Uid {
    sys.create_object(
        Box::new(Counter::new(value)),
        &[n(1), n(2), n(3)],
        &[n(1), n(2), n(3)],
    )
    .expect("create object")
}

fn counter_value(sys: &System, uid: groupview_store::Uid, client_node: NodeId) -> i64 {
    let client = sys.client(client_node);
    let a = client.begin_action();
    let g = client.activate_read_only(a, uid, 1).expect("activate ro");
    let reply = client
        .invoke_read(a, &g, &counter_op(CounterOp::Get))
        .expect("read");
    client.commit(a).expect("commit read");
    counter_reply(&reply).expect("reply")
}

#[test]
fn full_cycle_all_policies() {
    for policy in ReplicationPolicy::ALL {
        let sys = system(policy, BindingScheme::Standard);
        let uid = create_counter(&sys, 100);
        let client = sys.client(n(4));
        let a = client.begin_action();
        let g = client.activate(a, uid, 2).expect("activate");
        let r = client
            .invoke(a, &g, &counter_op(CounterOp::Add(11)))
            .expect("invoke");
        assert_eq!(counter_reply(&r), Some(111), "policy {policy}");
        client.commit(a).expect("commit");
        // All three stores hold the committed v1 state.
        for store in [n(1), n(2), n(3)] {
            let state = sys.stores().read_local(store, uid).expect("stored");
            assert_eq!(state.version, Version::new(1), "policy {policy}");
            assert_eq!(Counter::decode_state(&state.data).value(), 111);
        }
        assert_eq!(counter_value(&sys, uid, n(5)), 111);
    }
}

/// A group view is a set of at least one node. A repeated store used to
/// get two commit participants for one token — the second found the intent
/// already installed, so a commit record was kept forever for an in-doubt
/// store that did not exist — and a repeated server was bound twice.
/// Creation now refuses such lists before it draws a uid.
#[test]
fn creation_refuses_empty_or_repeated_node_lists() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let cases: [(&[NodeId], &[NodeId], Option<NodeId>); 4] = [
        (&[n(1), n(2)], &[n(1), n(1)], Some(n(1))),
        (&[n(2), n(1), n(2)], &[n(1), n(2)], Some(n(2))),
        (&[], &[n(1)], None),
        (&[n(1)], &[], None),
    ];
    for (sv, st, repeated) in cases {
        let refused = DbError::InvalidNodeList { repeated };
        assert_eq!(
            sys.create_typed(Counter::new(0), sv, st).unwrap_err(),
            refused
        );
        assert_eq!(
            sys.create_typed_named("c", Counter::new(0), sv, st)
                .unwrap_err(),
            refused
        );
    }
    assert!(sys.tx().decisions().is_empty(), "no commit record left");
    assert_eq!(sys.tx().live_actions(), 0);
    assert_eq!(sys.tx().stats().started, 0, "refused before any action");
    // No uid was drawn: the next object gets a fresh world's first uid.
    let fresh = system(ReplicationPolicy::Active, BindingScheme::Standard);
    assert_eq!(create_counter(&sys, 1), create_counter(&fresh, 1));
}

#[test]
fn abort_undoes_replica_state_and_stores() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 50);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(999)))
        .expect("invoke");
    client.abort(a);
    // Replica in-memory state restored; stores untouched.
    assert_eq!(counter_value(&sys, uid, n(5)), 50);
    let state = sys.stores().read_local(n(1), uid).expect("stored");
    assert_eq!(state.version, Version::INITIAL);
    assert!(sys.tx().locks_empty(), "no stray locks after abort");
}

#[test]
fn active_replication_masks_server_crash_mid_action() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 3).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op1");
    // One replica dies; the group masks it.
    sys.sim().crash(n(2));
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op2");
    client.commit(a).expect("commit despite replica crash");
    assert_eq!(counter_value(&sys, uid, n(5)), 2);
}

#[test]
fn coordinator_cohort_failover_mid_action() {
    let sys = system(
        ReplicationPolicy::CoordinatorCohort,
        BindingScheme::Standard,
    );
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 3).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(5)))
        .expect("op1");
    // The coordinator (lowest-id live loaded = n1) fails; a cohort that
    // received the checkpoint takes over transparently.
    sys.sim().crash(n(1));
    let r = client
        .invoke(a, &g, &counter_op(CounterOp::Add(5)))
        .expect("op2 after failover");
    assert_eq!(counter_reply(&r), Some(10));
    client.commit(a).expect("commit");
    assert_eq!(counter_value(&sys, uid, n(5)), 10);
}

#[test]
fn single_copy_passive_crash_aborts_action() {
    let sys = system(
        ReplicationPolicy::SingleCopyPassive,
        BindingScheme::Standard,
    );
    let uid = create_counter(&sys, 7);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 3).expect("activate");
    assert_eq!(
        g.servers.len(),
        1,
        "single copy policy activates one server"
    );
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op1");
    sys.sim().crash(g.servers[0]);
    let err = client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect_err("server crashed");
    assert_eq!(err, InvokeError::ServerFailed(uid));
    client.abort(a);
    // Restart: a fresh activation succeeds on another server node and sees
    // only committed state.
    assert_eq!(counter_value(&sys, uid, n(5)), 7);
}

#[test]
fn commit_excludes_crashed_store_and_later_recovery_reincludes() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    // A store node (with no active replica bound) crashes before commit.
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate"); // binds n1, n2
    assert_eq!(g.servers, vec![n(1), n(2)]);
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(42)))
        .expect("op");
    sys.sim().crash(n(3));
    client.commit(a).expect("commit succeeds without n3");
    // n3 was excluded from St.
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores, vec![n(1), n(2)]);
    // Its stable store still has the stale v0 state.
    sys.sim().recover(n(3));
    let stale = sys.stores().read_local(n(3), uid).expect("stale state");
    assert_eq!(stale.version, Version::INITIAL);
    sys.sim().crash(n(3));
    // Recovery refreshes and re-includes.
    let report = sys.recovery().recover_node(n(3));
    assert_eq!(report.refreshed, vec![uid]);
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores, vec![n(1), n(2), n(3)]);
    let fresh = sys.stores().read_local(n(3), uid).expect("fresh state");
    assert_eq!(fresh.version, Version::new(1));
    assert_eq!(Counter::decode_state(&fresh.data).value(), 42);
}

/// A stale `St` view must not empty `St`. B activates first, so it holds
/// a read lock on the St entry and its view is {n1, n2}. A joins, writes
/// and commits while n1 is down: its `Exclude(n1)` takes the §4.2.1
/// exclude-write lock, which B's read lock admits, so St becomes {n2}. n1
/// comes back; B writes and commits while n2 is down. B's copy reaches n1,
/// no longer in St, and its `Exclude(n2)` would leave St empty: it is
/// refused, and B aborts, failure-caused — every store of St missed the
/// copy (§2.3(3)). St keeps naming n2, which holds A's committed value, and
/// a third client's commit with n2 down aborts cleanly. (Excluding n2 used
/// to empty St, and that third commit then panicked on the empty view.)
#[test]
fn a_stale_st_view_never_empties_st() {
    for policy in ReplicationPolicy::ALL {
        let sys = system(policy, BindingScheme::Standard);
        let uid = sys
            .create_object(Box::new(Counter::new(0)), &[n(3)], &[n(1), n(2)])
            .expect("create");
        let add = |v| counter_op(CounterOp::Add(v));
        let st = || sys.naming().state_db.entry(uid).expect("entry").stores;

        let b = sys.client(n(4));
        let action_b = b.begin_action();
        let group_b = b.activate(action_b, uid, 1).expect("B activates");
        assert_eq!(group_b.st_nodes, vec![n(1), n(2)]);

        let a = sys.client(n(5));
        let action_a = a.begin_action();
        let group_a = a.activate(action_a, uid, 1).expect("A joins");
        a.invoke(action_a, &group_a, &add(10)).expect("A writes");
        sys.sim().crash(n(1));
        a.commit(action_a).expect("A commits, excluding n1");
        assert_eq!(st(), vec![n(2)], "{policy}");

        sys.sim().recover(n(1));
        b.invoke(action_b, &group_b, &add(1)).expect("B writes");
        sys.sim().crash(n(2));
        let err = b
            .commit(action_b)
            .expect_err("B's exclusion would empty St");
        assert_eq!(
            err,
            CommitError::Exclude(DbError::LastStore(uid)),
            "{policy}"
        );
        assert_eq!(err.cause(), Cause::Failure, "{policy}: {err}");
        assert_eq!(st(), vec![n(2)], "{policy}: B's abort changed nothing");
        let n1 = sys.stores().read_local(n(1), uid).expect("n1's copy");
        assert_eq!(n1.version, Version::INITIAL, "{policy}: B's write aborted");

        let c = sys.client(n(4));
        let action_c = c.begin_action();
        let group_c = c.activate(action_c, uid, 1).expect("C joins");
        assert_eq!(group_c.st_nodes, vec![n(2)]);
        c.invoke(action_c, &group_c, &add(100)).expect("C writes");
        let err = c
            .commit(action_c)
            .expect_err("the only store of St is down");
        assert!(
            matches!(err, CommitError::AllStoresFailed { .. }) && err.cause() == Cause::Failure,
            "{policy}: {err}"
        );

        sys.sim().recover(n(2));
        let n2 = sys.stores().read_local(n(2), uid).expect("n2's copy");
        assert_eq!(Counter::decode_state(&n2.data).value(), 10, "{policy}");
        assert_eq!(counter_value(&sys, uid, n(5)), 10, "{policy}");
        assert!(sys.tx().locks_empty(), "{policy}");
    }
}

#[test]
fn read_only_action_skips_state_copy() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 5);
    // Note the store versions before.
    let v_before = sys.stores().read_local(n(1), uid).unwrap().version;
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate_read_only(a, uid, 1).expect("activate");
    client
        .invoke_read(a, &g, &counter_op(CounterOp::Get))
        .expect("read");
    client.commit(a).expect("commit");
    assert_eq!(
        sys.stores().read_local(n(1), uid).unwrap().version,
        v_before,
        "read optimisation: no copy to object stores"
    );
}

#[test]
fn all_stores_down_aborts_commit() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op");
    // Every store node dies before commit. (The bound servers ARE the
    // store nodes here, so the final state still lives in... nowhere —
    // replicas are on the same crashed nodes.) Crash only stores' disks is
    // not possible: crash all three nodes.
    for i in [1, 2, 3] {
        sys.sim().crash(n(i));
    }
    let err = client.commit(a).expect_err("nothing can persist");
    // With the replicas gone too, the failure may surface as a missing
    // final state or as all stores failing — both mean "abort", and both
    // must be attributed to the crashes, not to contention.
    match err {
        groupview_replication::CommitError::AllStoresFailed { uid: u, .. }
        | groupview_replication::CommitError::NoFinalState(u) => assert_eq!(u, uid),
        other => panic!("unexpected commit error: {other}"),
    }
    assert_eq!(
        err.cause(),
        Cause::Failure,
        "crash-caused commit abort: {err}"
    );
    assert!(sys.tx().locks_empty());
}

#[test]
fn independent_scheme_full_client_lifecycle() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    assert!(g.binding().registered);
    // Use lists are visible while the action runs.
    let entry = sys.naming().server_db.entry(uid).expect("entry");
    assert_eq!(entry.total_uses(), 2);
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(3)))
        .expect("op");
    client.commit(a).expect("commit");
    // Decrement ran after the action: quiescent again.
    let entry = sys.naming().server_db.entry(uid).expect("entry");
    assert!(entry.is_quiescent());
    assert_eq!(counter_value(&sys, uid, n(5)), 3);
}

#[test]
fn nested_top_level_scheme_full_client_lifecycle() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::NestedTopLevel);
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(3)))
        .expect("op");
    client.commit(a).expect("commit");
    assert!(sys.naming().server_db.entry(uid).unwrap().is_quiescent());
    assert_eq!(counter_value(&sys, uid, n(5)), 3);
}

#[test]
fn crashed_client_leak_reclaimed_by_cleanup_daemon() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    let _ = g;
    // The client crashes without decrementing.
    let leaked = client.crash_without_cleanup(a);
    assert_eq!(leaked, 1);
    let entry = sys.naming().server_db.entry(uid).unwrap();
    assert_eq!(entry.total_uses(), 2, "use lists leaked");
    // Insert (e.g. a recovered server) is refused while the leak persists.
    assert!(!entry.is_quiescent());
    // The daemon reclaims once it learns the client is dead.
    let report = sys.cleanup().sweep(|_| false);
    assert_eq!(report.reclaimed(), 2);
    assert!(sys.naming().server_db.entry(uid).unwrap().is_quiescent());
}

#[test]
fn passivation_after_quiescence() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 1);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op");
    assert!(!sys.try_passivate(uid), "in use: cannot passivate");
    client.commit(a).expect("commit");
    assert!(sys.try_passivate(uid), "quiescent: passivated");
    let mut replicas = Vec::new();
    sys.registry().replicas_of(uid, &mut replicas);
    assert!(replicas.is_empty());
    // Re-activation reloads from stores and sees the committed value.
    assert_eq!(counter_value(&sys, uid, n(5)), 2);
}

#[test]
fn object_write_lock_serialises_writers() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let c1 = sys.client(n(4));
    let c2 = sys.client(n(5));
    let a1 = c1.begin_action();
    let g1 = c1.activate(a1, uid, 2).expect("activate 1");
    c1.invoke(a1, &g1, &counter_op(CounterOp::Add(1)))
        .expect("op 1");
    // Second writer is refused at the object lock.
    let a2 = c2.begin_action();
    let g2 = c2.activate(a2, uid, 2).expect("activate 2");
    let err = c2
        .invoke(a2, &g2, &counter_op(CounterOp::Add(1)))
        .expect_err("write-write conflict");
    assert!(matches!(err, InvokeError::Tx(_)));
    c2.abort(a2);
    c1.commit(a1).expect("commit 1");
    // Now the second client can proceed.
    let a3 = c2.begin_action();
    let g3 = c2.activate(a3, uid, 2).expect("activate 3");
    c2.invoke(a3, &g3, &counter_op(CounterOp::Add(1)))
        .expect("op 3");
    c2.commit(a3).expect("commit 3");
    assert_eq!(counter_value(&sys, uid, n(4)), 2);
}

#[test]
fn concurrent_readers_share_the_object() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 9);
    let c1 = sys.client(n(4));
    let c2 = sys.client(n(5));
    let a1 = c1.begin_action();
    let a2 = c2.begin_action();
    let g1 = c1.activate_read_only(a1, uid, 1).expect("activate 1");
    let g2 = c2.activate_read_only(a2, uid, 1).expect("activate 2");
    let r1 = c1
        .invoke_read(a1, &g1, &counter_op(CounterOp::Get))
        .expect("r1");
    let r2 = c2
        .invoke_read(a2, &g2, &counter_op(CounterOp::Get))
        .expect("r2");
    assert_eq!(counter_reply(&r1), Some(9));
    assert_eq!(counter_reply(&r2), Some(9));
    c1.commit(a1).expect("commit 1");
    c2.commit(a2).expect("commit 2");
}

#[test]
fn bank_transfer_is_atomic_across_two_objects() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let alice = sys
        .create_object(Box::new(Account::new(100)), &[n(1), n(2)], &[n(1), n(2)])
        .expect("alice");
    let bob = sys
        .create_object(Box::new(Account::new(10)), &[n(2), n(3)], &[n(2), n(3)])
        .expect("bob");
    let client = sys.client(n(4));

    // Successful transfer.
    let a = client.begin_action();
    let ga = client.activate(a, alice, 2).expect("activate alice");
    let gb = client.activate(a, bob, 2).expect("activate bob");
    let w = client
        .invoke(a, &ga, &[Account::op_vec(&AccountOp::Withdraw(40))])
        .expect("withdraw");
    assert_eq!(balance_reply(&w), Some(60));
    client
        .invoke(a, &gb, &[Account::op_vec(&AccountOp::Deposit(40))])
        .expect("deposit");
    client.commit(a).expect("commit transfer");

    // Failed transfer aborts both legs.
    let b = client.begin_action();
    let ga = client.activate(b, alice, 2).expect("activate alice");
    let gb = client.activate(b, bob, 2).expect("activate bob");
    client
        .invoke(b, &ga, &[Account::op_vec(&AccountOp::Withdraw(10))])
        .expect("withdraw");
    client
        .invoke(b, &gb, &[Account::op_vec(&AccountOp::Deposit(10))])
        .expect("deposit");
    client.abort(b); // application decides to roll back

    // Balances: only the first transfer happened.
    let check = sys.client(n(5));
    let c = check.begin_action();
    let ga = check.activate_read_only(c, alice, 1).expect("alice ro");
    let gb = check.activate_read_only(c, bob, 1).expect("bob ro");
    let ra = check
        .invoke_read(c, &ga, &[Account::op_vec(&AccountOp::Balance)])
        .expect("balance a");
    let rb = check
        .invoke_read(c, &gb, &[Account::op_vec(&AccountOp::Balance)])
        .expect("balance b");
    check.commit(c).expect("commit check");
    assert_eq!(balance_reply(&ra), Some(60));
    assert_eq!(balance_reply(&rb), Some(50));
}

#[test]
fn exclude_policy_promote_aborts_under_concurrent_reader() {
    // §4.2.1: with plain write promotion the committing writer aborts when
    // readers share the St entry; with the exclude-write lock it succeeds.
    for (policy, expect_ok) in [
        (ExcludePolicy::PromoteToWrite, false),
        (ExcludePolicy::ExcludeWriteLock, true),
    ] {
        let sys = System::builder(78)
            .nodes(6)
            .policy(ReplicationPolicy::Active)
            .exclude_policy(policy)
            .build();
        let uid = create_counter(&sys, 0);
        // A reader holds a read lock on the St entry (via activation).
        let reader = sys.client(n(5));
        let ra = reader.begin_action();
        let _rg = reader.activate_read_only(ra, uid, 1).expect("reader");
        // The writer modifies and commits while a store is down → Exclude.
        let writer = sys.client(n(4));
        let wa = writer.begin_action();
        let wg = writer.activate(wa, uid, 1).expect("writer");
        writer
            .invoke(wa, &wg, &counter_op(CounterOp::Add(1)))
            .expect("op");
        sys.sim().crash(n(3));
        let result = writer.commit(wa);
        assert_eq!(result.is_ok(), expect_ok, "policy {policy:?}");
        reader.commit(ra).expect("reader commit");
    }
}

#[test]
fn deterministic_same_seed_same_outcome() {
    let run = |seed: u64| {
        let sys = System::builder(seed)
            .nodes(6)
            .policy(ReplicationPolicy::Active)
            .build();
        let uid = create_counter(&sys, 0);
        let client = sys.client(n(4));
        for i in 0..5 {
            let a = client.begin_action();
            let g = client.activate(a, uid, 2).expect("activate");
            client
                .invoke(a, &g, &counter_op(CounterOp::Add(i)))
                .expect("op");
            client.commit(a).expect("commit");
        }
        (
            counter_value(&sys, uid, n(5)),
            sys.sim().counters().delivered,
            sys.sim().now(),
        )
    };
    assert_eq!(run(123), run(123), "identical seeds, identical runs");
}

/// The paper's Figure 1 window, end to end: an in-flight action's server
/// crashes (losing the action's uncommitted update), a *concurrent*
/// activation reloads the replica from the committed stores, and the
/// original action tries to continue. The reborn copy is a different state
/// lineage — the action must abort (failure-attributed), never silently
/// continue against state that lost its own first operation. (Found by the
/// scenario oracle under the `send_window_crashes` nemesis.)
#[test]
fn reborn_replica_fails_the_in_flight_action() {
    for policy in [
        ReplicationPolicy::SingleCopyPassive,
        ReplicationPolicy::CoordinatorCohort,
        ReplicationPolicy::Active,
    ] {
        let sys = system(policy, BindingScheme::Standard);
        let uid = create_counter(&sys, 0);
        let a_client = sys.client(n(4));
        let action = a_client.begin_action();
        let group = a_client.activate(action, uid, 3).expect("activate A");
        let r = a_client
            .invoke(action, &group, &counter_op(CounterOp::Add(1)))
            .expect("first op");
        assert_eq!(counter_reply(&r), Some(1), "policy {policy}");

        // Every bound server dies mid-action (uncommitted state lost) and
        // recovers; then another client's activation reloads the replicas
        // from the committed (value 0) stores.
        for &server in &[n(1), n(2), n(3)] {
            sys.sim().crash(server);
        }
        for &server in &[n(1), n(2), n(3)] {
            sys.recovery().recover_node(server);
        }
        let b_client = sys.client(n(5));
        let b_action = b_client.begin_action();
        let _b_group = b_client
            .activate_read_only(b_action, uid, 3)
            .expect("B reactivates the passive object");

        // A's next invoke must fail — the reborn replicas never see the op.
        let err = a_client
            .invoke(action, &group, &counter_op(CounterOp::Add(1)))
            .expect_err("the in-flight action must not continue on reborn replicas");
        assert_eq!(err.cause(), Cause::Failure, "policy {policy}: {err}");
        a_client.abort(action);
        b_client.commit(b_action).expect("B commits its read");

        // Nothing of A's aborted action leaked into the committed state.
        assert_eq!(counter_value(&sys, uid, n(5)), 0, "policy {policy}");
    }
}

#[test]
fn observed_system_reports_spans_counters_and_wire_stats() {
    use groupview_obs::{Counter as ObsCounter, Phase};
    let sys = System::builder(77)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .observe()
        .build();
    assert!(sys.obs().is_enabled());
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    for i in 0..3 {
        let a = client.begin_action();
        let g = client.activate(a, uid, 2).expect("activate");
        client
            .invoke(a, &g, &counter_op(CounterOp::Add(i)))
            .expect("invoke");
        client.commit(a).expect("commit");
    }
    let snap = sys.metrics_snapshot();
    assert_eq!(snap.counter(ObsCounter::Invokes), 3);
    assert_eq!(snap.counter(ObsCounter::Multicasts), 3);
    assert!(snap.counter(ObsCounter::Commits) >= 3);
    assert_eq!(snap.phase(Phase::Invoke).count(), 3);
    assert_eq!(snap.phase(Phase::Bind).count(), 3);
    assert_eq!(snap.phase(Phase::Probe).count(), 3);
    assert_eq!(snap.phase(Phase::Multicast).count(), 3);
    assert!(
        snap.phase(Phase::Invoke).total() >= snap.phase(Phase::Multicast).total(),
        "the multicast leg nests inside the invoke span"
    );
    // Object creation + 3 ops moved real bytes through the wire pool.
    assert!(snap.wire_bytes_copied > 0);
    assert!(snap.wire_buffer_allocs + snap.wire_pool_reuses > 0);
    // Spans drain for export; a second snapshot keeps counters.
    let spans = sys.obs().take_spans();
    assert!(spans.len() as u64 >= snap.span_count());
    assert_eq!(sys.metrics_snapshot().counter(ObsCounter::Invokes), 3);
}

#[test]
fn unobserved_system_records_nothing() {
    use groupview_obs::Counter as ObsCounter;
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    assert!(!sys.obs().is_enabled());
    let uid = create_counter(&sys, 5);
    assert_eq!(counter_value(&sys, uid, n(4)), 5);
    let snap = sys.metrics_snapshot();
    assert_eq!(snap.counter(ObsCounter::Invokes), 0);
    assert_eq!(snap.span_count(), 0);
    // Wire stats are absorbed even with span recording off.
    assert!(snap.wire_bytes_copied > 0);
}

/// A snapshot's wire-pool fields are the wire traffic since the system was
/// built, read from the wire layer's own counters: a system that was never
/// observed still reports them, and each snapshot reports the running
/// total, however many came before it.
#[test]
fn never_observed_system_reports_its_wire_traffic() {
    use groupview_sim::wire;
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let built = wire::stats();
    let traffic = |snap: groupview_obs::MetricsSnapshot| {
        (
            snap.wire_buffer_allocs,
            snap.wire_pool_reuses,
            snap.wire_bytes_copied,
            snap.trace_dropped,
        )
    };
    let moved = || {
        let w = wire::stats().since(built);
        (w.buffer_allocs, w.pool_reuses, w.bytes_copied, 0)
    };
    let uid = create_counter(&sys, 5);
    let first = traffic(sys.metrics_snapshot());
    assert!(first.2 > 0, "creating an object encodes its state");
    assert_eq!(first, moved());
    assert_eq!(counter_value(&sys, uid, n(4)), 5);
    let second = traffic(sys.metrics_snapshot());
    assert!(second.2 > first.2, "a read moves more bytes");
    assert_eq!(second, moved());
    assert!(!sys.obs().is_enabled());
}

/// An action id that has already committed or aborted is refused with a
/// typed error at every raw entry point, under every policy and binding
/// scheme, and leaves nothing behind.
#[test]
fn stale_action_ids_are_refused_not_panicked_on() {
    use groupview_actions::TxError;
    use groupview_core::{BindError, DbError};
    use groupview_replication::ActivateError;
    for policy in ReplicationPolicy::ALL {
        for scheme in BindingScheme::ALL {
            let sys = system(policy, scheme);
            let servers = [n(1), n(2), n(3)];
            let uid = sys
                .create_typed_named("stale/counter", Counter::new(1), &servers, &servers)
                .expect("create object")
                .uid();
            let client = sys.client(n(4));
            let handle = client.open::<Counter>(uid);
            for commit in [true, false] {
                let stale = client.begin_action();
                let group = client.activate(stale, uid, 2).expect("activate");
                if commit {
                    client.commit(stale).expect("commit");
                } else {
                    client.abort(stale);
                }
                let not_active = |e: ActivateError| {
                    matches!(
                        e,
                        ActivateError::Bind(BindError::Db(DbError::Tx(TxError::NotActive(a))))
                            if a == stale
                    )
                };
                let what = format!("{policy} / {scheme:?}");
                assert!(
                    not_active(client.activate(stale, uid, 2).unwrap_err()),
                    "{what}"
                );
                assert!(
                    not_active(client.activate_read_only(stale, uid, 1).unwrap_err()),
                    "{what}"
                );
                assert!(not_active(handle.activate(stale, 2).unwrap_err()), "{what}");
                assert!(
                    not_active(
                        client
                            .activate_by_name(stale, "stale/counter", 2)
                            .unwrap_err()
                    ),
                    "{what}"
                );
                for write in [true, false] {
                    let op = counter_op(CounterOp::Add(1));
                    let refused = if write {
                        client.invoke(stale, &group, &op)
                    } else {
                        client.invoke_read(stale, &group, &op)
                    };
                    assert!(
                        matches!(refused, Err(InvokeError::Tx(TxError::NotActive(a))) if a == stale),
                        "{what}"
                    );
                }
                assert!(sys.tx().locks_empty(), "{what}");
                assert_eq!(sys.tx().live_actions(), 0, "{what}");
            }
            assert_eq!(counter_value(&sys, uid, n(5)), 1, "{policy} / {scheme:?}");
        }
    }
}

/// A raw invoke through an activation that another action (or another
/// client) made is refused: its dirty bit belongs to the action that bound
/// it, so an update accepted here would commit without a write-back and be
/// lost at the next passivation.
#[test]
fn raw_invoke_through_a_foreign_activation_is_refused() {
    use groupview_core::keys::object_key;
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let binder = client.begin_action();
    let group = client.activate(binder, uid, 2).expect("activate");
    let add = counter_op(CounterOp::Add(5));

    let other_action = client.begin_action();
    assert_eq!(
        client.invoke(other_action, &group, &add),
        Err(InvokeError::NotActivated(uid))
    );
    let other_client = sys.client(n(5));
    let foreign = other_client.begin_action();
    assert_eq!(
        other_client.invoke(foreign, &group, &add),
        Err(InvokeError::NotActivated(uid))
    );
    assert!(
        sys.tx().lock_holders(object_key(uid)).is_empty(),
        "a refused invoke takes no lock"
    );
    let get = counter_op(CounterOp::Get);
    let value = client.invoke_read(binder, &group, &get).expect("read");
    assert_eq!(counter_reply(&value), Some(0), "object unchanged");

    for (c, a) in [(&client, other_action), (&other_client, foreign)] {
        c.commit(a).expect("commit the refused action");
    }
    client.commit(binder).expect("commit the binder");
    assert!(sys.tx().locks_empty());
    for store in [n(1), n(2), n(3)] {
        let state = sys.stores().read_local(store, uid).expect("stored");
        assert_eq!(state.version, Version::INITIAL);
    }
    assert!(sys.try_passivate(uid), "quiescent: passivated");
    assert_eq!(counter_value(&sys, uid, n(5)), 0);
}

/// Handles keep no per-action state: a second handle on the same client
/// and object invokes on the activation the first one made.
#[test]
fn a_second_handle_invokes_on_the_first_handles_activation() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 10);
    let client = sys.client(n(4));
    let first = client.open::<Counter>(uid);
    let second = client.open::<Counter>(uid);
    let a = client.begin_action();
    first.activate(a, 2).expect("activate");
    assert_eq!(second.invoke(a, CounterOp::Add(1)), Ok(11));
    assert_eq!(second.invoke_batch(a, &[CounterOp::Add(1)]), Ok(vec![12]));
    assert_eq!(first.invoke(a, CounterOp::Get), Ok(12));
    client.commit(a).expect("commit");
    assert_eq!(counter_value(&sys, uid, n(5)), 12);
}

/// A `Tx` takes only the uid and the class from a handle: one opened on
/// another client of the same system activates and commits through the
/// transaction's own client.
#[test]
fn a_tx_accepts_a_handle_opened_on_another_client() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let elsewhere = sys.client(n(5)).open::<Counter>(uid);
    let client = sys.client(n(4));
    let mut tx = client.begin();
    assert_eq!(tx.invoke(&elsewhere, CounterOp::Add(3)), Ok(3));
    assert_eq!(tx.invoke(&elsewhere, CounterOp::Add(4)), Ok(7));
    assert_eq!(tx.object_count(), 1, "activated once, on the tx's client");
    tx.commit().expect("commit");
    assert!(sys.tx().locks_empty());
    assert_eq!(counter_value(&sys, uid, n(5)), 7);
}

/// However an action ends — commit, a failed commit, abort, or a client
/// crash — its client lets go of every activation it made.
#[test]
fn a_finished_action_leaves_no_activation_behind() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    // Servers n1, n2; the only store n3, so crashing it fails the commit.
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(1), n(2)], &[n(3)])
        .expect("create object");
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    for ending in ["commit", "failed commit", "abort", "crash"] {
        let a = client.begin_action();
        counter.activate(a, 2).expect("activate");
        counter.invoke(a, CounterOp::Add(1)).expect("invoke");
        match ending {
            "commit" => client.commit(a).expect("commit"),
            "failed commit" => {
                sys.sim().crash(n(3));
                client.commit(a).expect_err("the only store is down");
                sys.recovery().recover_node(n(3));
            }
            "abort" => client.abort(a),
            _ => assert_eq!(client.crash_without_cleanup(a), 1),
        }
        assert_eq!(
            counter.invoke(a, CounterOp::Get),
            Err(InvokeError::NotActivated(uid)),
            "after {ending}"
        );
        assert!(sys.tx().locks_empty(), "after {ending}");
    }
    assert_eq!(counter_value(&sys, uid, n(5)), 1);
}

/// A wide batch runs from the frame pool: once warm, a 64-op
/// `invoke_batch` creates no fresh frame under any policy (its working set
/// of live frames stays under the pool's cap).
#[test]
fn a_64_op_batch_creates_no_fresh_frame() {
    for policy in ReplicationPolicy::ALL {
        let sys = system(policy, BindingScheme::Standard);
        let client = sys.client(n(4));
        let counter = client.open::<Counter>(create_counter(&sys, 0));
        let action = client.begin_action();
        counter.activate(action, 3).expect("activate");
        let ops = [CounterOp::Add(1); 64];
        // Warm the frame pool up to the window's working set.
        for _ in 0..16 {
            counter.invoke_batch(action, &ops).expect("warm-up batch");
        }
        let before = groupview_sim::wire::stats();
        for _ in 0..16 {
            counter.invoke_batch(action, &ops).expect("batch");
        }
        let frames = groupview_sim::wire::stats().since(before);
        assert_eq!(frames.buffer_allocs, 0, "{policy}: {frames}");
        assert!(frames.pool_reuses >= 16, "{policy}: {frames}");
        client.commit(action).expect("commit");
    }
}

/// §4.1.2: a server that recovers `Insert`s itself into `Sv` again, even
/// where a binder pruned it while it was down. Under the standard scheme
/// it was never removed; under the updating schemes the client's bind
/// `Remove`d it, and only its own `Insert` brings it back.
fn recovered_server_rejoins_sv(scheme: BindingScheme) {
    let sys = system(ReplicationPolicy::Active, scheme);
    let uid = create_counter(&sys, 0);
    sys.sim().crash(n(1));
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op");
    client.commit(a).expect("commit without n1");
    let listed = || sys.naming().server_db.entry(uid).unwrap().servers;
    assert_eq!(
        listed().contains(&n(1)),
        !scheme.maintains_use_lists(),
        "{scheme}: only the updating schemes prune"
    );
    let report = sys.recovery().recover_node(n(1));
    assert_eq!(report.inserted, vec![uid], "{scheme}");
    assert!(report.fully_recovered(), "{scheme}");
    assert!(listed().contains(&n(1)), "{scheme}: n1 back in Sv");
    assert_eq!(listed().len(), 3, "{scheme}");
}

#[test]
fn recovered_server_rejoins_sv_under_the_standard_scheme() {
    recovered_server_rejoins_sv(BindingScheme::Standard);
}

#[test]
fn recovered_server_rejoins_sv_under_the_independent_scheme() {
    recovered_server_rejoins_sv(BindingScheme::IndependentTopLevel);
}

#[test]
fn recovered_server_rejoins_sv_under_the_nested_top_level_scheme() {
    recovered_server_rejoins_sv(BindingScheme::NestedTopLevel);
}

/// A node that only stores an object is refreshed and re-`Include`d on
/// recovery, and never becomes one of its servers.
#[test]
fn a_recovered_store_only_node_does_not_become_a_server() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2)],
            &[n(1), n(2), n(3)],
        )
        .expect("create object");
    sys.sim().crash(n(3));
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("op");
    client.commit(a).expect("commit excludes n3");
    let report = sys.recovery().recover_node(n(3));
    assert_eq!(report.included, vec![uid]);
    assert!(report.inserted.is_empty());
    assert_eq!(
        sys.naming().server_db.entry(uid).unwrap().servers,
        vec![n(1), n(2)]
    );
}

/// An action pays one timeout per dead node: the bind probe finds n1 dead,
/// so both state reads go to live stores and the commit excludes n1 from
/// `St` without sending it a prepare.
#[test]
fn an_action_pays_one_timeout_per_dead_node() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    sys.sim().crash(n(1));
    let timeouts = || sys.sim().counters().timeouts;
    let before = timeouts();
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    assert_eq!(g.servers, vec![n(2), n(3)]);
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(5)))
        .expect("op");
    client.commit(a).expect("commit");
    assert_eq!(timeouts() - before, 1);
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores, vec![n(2), n(3)], "n1 excluded");
    assert_eq!(counter_value(&sys, uid, n(5)), 5);
}

/// When every `St` member of an object is a suspect, the commit still
/// prepares them all: a suspect may have come back. Here the client is cut
/// off from n1 and n2 at bind time (both probes fail; the bound server n3
/// loads from n1), the cut heals before the commit, and both stores take
/// the write.
#[test]
fn every_store_suspected_is_still_prepared() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2)],
        )
        .expect("create object");
    sys.sim().partition(n(4), n(1));
    sys.sim().partition(n(4), n(2));
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 2).expect("activate");
    assert_eq!(g.servers, vec![n(3)]);
    client
        .invoke(a, &g, &counter_op(CounterOp::Add(3)))
        .expect("op");
    sys.sim().heal_all();
    client
        .commit(a)
        .expect("both suspects prepared and committed");
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores, vec![n(1), n(2)], "no store excluded");
    for store in [n(1), n(2)] {
        let state = sys.stores().read_local(store, uid).expect("stored");
        assert_eq!(Counter::decode_state(&state.data).value(), 3);
    }
}

/// The committed counter value in `store`'s object store.
fn stored_value(sys: &System, uid: groupview_store::Uid, store: NodeId) -> (Version, i64) {
    let state = sys.stores().read_local(store, uid).expect("stored");
    (state.version, Counter::decode_state(&state.data).value())
}

/// §2.3(2)(ii): a coordinator that crashes after checkpointing an op but
/// before replying leaves the op applied at its cohorts. The retry at the
/// promoted cohort replays it: the op applies once, and the action still
/// writes it back at commit.
#[test]
fn a_checkpointed_op_retried_on_a_promoted_cohort_applies_once() {
    let sys = system(
        ReplicationPolicy::CoordinatorCohort,
        BindingScheme::Standard,
    );
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    let a = client.begin_action();
    let g = client.activate(a, uid, 3).expect("activate");
    // n1 coordinates; it crashes right after its two checkpoint sends.
    sys.sim().crash_after_sends(n(1), 2);
    let r = client
        .invoke(a, &g, &counter_op(CounterOp::Add(1)))
        .expect("retried on n2");
    assert!(!sys.sim().is_up(n(1)), "n1 crashed before replying");
    assert_eq!(counter_reply(&r), Some(1), "applied once");
    client.commit(a).expect("commit");
    for store in [n(2), n(3)] {
        assert_eq!(stored_value(&sys, uid, store), (Version::new(1), 1));
    }
}

/// A coordinator that stays up but whose reply is lost gets the retry
/// itself, and replays the op: it applies once, and the action still
/// writes it back at commit. A lossy network drops the reply on some
/// seeds; every seed must apply the op at most once, and at least one
/// must take that path.
#[test]
fn a_lost_reply_is_retried_at_the_coordinator_and_applies_once() {
    let mut replayed = 0;
    for seed in 0..64 {
        let sys = System::builder(seed)
            .nodes(6)
            .policy(ReplicationPolicy::CoordinatorCohort)
            .trace()
            .build();
        let uid = create_counter(&sys, 0);
        let client = sys.client(n(4));
        let a = client.begin_action();
        let g = client.activate(a, uid, 3).expect("activate");
        sys.sim().take_trace();
        sys.sim().set_drop_probability(0.3);
        let r = client.invoke(a, &g, &counter_op(CounterOp::Add(1)));
        sys.sim().set_drop_probability(0.0);
        let trace = sys.sim().take_trace().expect("tracing");
        let Ok(r) = r else {
            client.abort(a);
            continue;
        };
        assert_eq!(counter_reply(&r), Some(1), "seed {seed}: applied once");
        let reply_lost = trace.iter().any(
            |ev| matches!(ev, TraceEvent::Lost { from, to, .. } if *from == n(1) && *to == n(4)),
        );
        client.commit(a).expect("commit");
        if reply_lost && sys.sim().counters().timeouts == 1 {
            replayed += 1;
            assert_eq!(stored_value(&sys, uid, n(1)), (Version::new(1), 1));
        }
    }
    assert!(replayed > 0, "no seed lost the coordinator's reply");
}

/// A commit whose verdict dooms it after some stores have staged the new
/// states leaves nothing behind: the abort discards every staged intent
/// of the action, both objects keep their committed values, and the
/// commit costs the pinned number of delivered messages.
#[test]
fn a_doomed_commit_discards_every_staged_write() {
    let stores = [n(1), n(2), n(3)];
    // Whether any live store still holds an intent staged for `token`.
    let staged_anywhere = |sys: &System, token| {
        stores.iter().any(|&node| {
            sys.stores()
                .with(node, |s| s.indoubt().contains(&token))
                .unwrap_or(false)
        })
    };
    // Messages the commit delivers under every policy: a prepare and an
    // abort round trip to each store of `a` (n1, n2; n3 times out), and
    // in the second case the refused `Exclude`'s round trip to n0.
    const DELIVERED: (u64, u64) = (8, 10);
    for policy in ReplicationPolicy::ALL {
        // All stores of `b` down: `CommitError::AllStoresFailed`.
        let sys = system(policy, BindingScheme::Standard);
        let a = sys
            .create_typed(Counter::new(1), &[n(1)], &[n(1), n(2)])
            .expect("a");
        let b = sys
            .create_typed(Counter::new(2), &[n(1)], &[n(3)])
            .expect("b");
        let client = sys.client(n(4));
        let (ha, hb) = (a.open(&client), b.open(&client));
        let mut tx = client.begin();
        let token = groupview_store::TxToken::new(tx.action().raw());
        tx.invoke(&ha, CounterOp::Add(10)).expect("a");
        tx.invoke(&hb, CounterOp::Add(20)).expect("b");
        sys.sim().crash(n(3));
        let before = sys.sim().counters().delivered;
        let err = tx.commit().expect_err("b has no live store");
        let delivered = sys.sim().counters().delivered - before;
        assert!(
            matches!(err, CommitError::AllStoresFailed { uid, .. } if uid == b.uid()),
            "{policy}: {err}"
        );
        sys.sim().recover(n(3));
        assert!(
            !staged_anywhere(&sys, token),
            "{policy}: an intent survived"
        );
        assert_eq!(counter_value(&sys, a.uid(), n(5)), 1, "{policy}");
        assert_eq!(counter_value(&sys, b.uid(), n(5)), 2, "{policy}");
        assert!(sys.tx().locks_empty(), "{policy}");
        let all_failed = delivered;

        // `b`'s exclusion refused: a reader shares its St entry, and the
        // plain write promotion (§4.2.1) cannot get the write lock.
        let sys = System::builder(77)
            .nodes(6)
            .policy(policy)
            .exclude_policy(ExcludePolicy::PromoteToWrite)
            .build();
        let a = sys
            .create_typed(Counter::new(1), &[n(1)], &[n(1), n(2)])
            .expect("a");
        let b = sys
            .create_typed(Counter::new(2), &[n(1)], &[n(2), n(3)])
            .expect("b");
        let reader = sys.client(n(5));
        let read = reader.begin_action();
        b.open(&reader).activate_read_only(read, 1).expect("reader");
        let client = sys.client(n(4));
        let (ha, hb) = (a.open(&client), b.open(&client));
        let mut tx = client.begin();
        let token = groupview_store::TxToken::new(tx.action().raw());
        tx.invoke(&ha, CounterOp::Add(10)).expect("a");
        tx.invoke(&hb, CounterOp::Add(20)).expect("b");
        sys.sim().crash(n(3));
        let before = sys.sim().counters().delivered;
        let err = tx.commit().expect_err("the exclusion is refused");
        let delivered = sys.sim().counters().delivered - before;
        assert!(matches!(err, CommitError::Exclude(_)), "{policy}: {err}");
        reader.commit(read).expect("reader commits");
        sys.sim().recover(n(3));
        assert!(
            !staged_anywhere(&sys, token),
            "{policy}: an intent survived"
        );
        assert_eq!(counter_value(&sys, a.uid(), n(5)), 1, "{policy}");
        assert_eq!(counter_value(&sys, b.uid(), n(5)), 2, "{policy}");
        assert!(sys.tx().locks_empty(), "{policy}");
        assert_eq!((all_failed, delivered), DELIVERED, "{policy}");
    }
}

/// A phase-2 commit lost to a live store leaves its intent in doubt while
/// later actions commit the same object there. The store's recovery then
/// resolves the old intent as committed, and must not put its older state
/// back over the newer one (I2).
#[test]
fn a_late_resolved_commit_keeps_the_newer_state() {
    for policy in ReplicationPolicy::ALL {
        let sys = system(policy, BindingScheme::Standard);
        // n3 stores the counter but does not serve it.
        let c = sys
            .create_typed(Counter::new(0), &[n(1), n(2)], &[n(1), n(2), n(3)])
            .expect("create");
        let client = sys.client(n(4));
        let h = c.open(&client);
        let add_one = || {
            let mut tx = client.begin();
            tx.invoke(&h, CounterOp::Add(1)).expect("invoke");
            tx.commit().expect("commit");
        };
        // n3 stops right after acknowledging the first action's prepare, so
        // the phase-2 commit to it is lost, and it is back up before the
        // next action without running recovery.
        sys.stores().arm_crash_after_prepare(n(3));
        add_one();
        sys.sim().recover(n(3));
        assert_eq!(sys.tx().decisions().len(), 1, "{policy}: one in doubt");
        // Two more actions commit at every store, n3 included.
        add_one();
        add_one();
        let report = sys.recovery().recover_node(n(3));
        assert_eq!(report.resolved_commits.len(), 1, "{policy}");
        assert!(sys.tx().decisions().is_empty(), "{policy}");
        for store in [n(1), n(2), n(3)] {
            let state = sys.stores().read_local(store, c.uid()).expect("stored");
            assert_eq!(state.version, Version::new(3), "{policy} at {store}");
            assert_eq!(Counter::decode_state(&state.data).value(), 3);
        }
        assert_eq!(counter_value(&sys, c.uid(), n(5)), 3, "{policy}");
    }
}
