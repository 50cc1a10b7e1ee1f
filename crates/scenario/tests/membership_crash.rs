//! Crash-during-migration, pinned deterministically (the elastic twin of
//! `store_crash.rs`): a migration's 2PC write-back is interrupted by the
//! §4 store-commit trap on the **target** node, and the abort taxonomy is
//! asserted causally per replication policy — the coordinator heard the
//! prepare ack, so the decision stands, the migration must NOT abort, and
//! target-node recovery resolves the in-doubt replica from the decision
//! record. Plus the end-to-end reborn-node case: a node that crashed,
//! was drained and decommissioned while down, and later recovers must
//! purge its migrated-away replicas (never resurrect them) and can then
//! rejoin and take replicas back.

use groupview_membership::{Membership, MigrateError, Rebalancer};
use groupview_replication::{Counter, CounterOp, ObjectType, ReplicationPolicy, System};
use groupview_scenario::{
    check_counter_states, check_quiescent_invariants, ModelKind, ObjectModel,
};
use groupview_sim::NodeId;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn target_store_crash_in_migration_commit_resolves_by_decision_record() {
    for policy in ReplicationPolicy::ALL {
        let sys = System::builder(7).nodes(7).policy(policy).build();
        let trio = [n(1), n(2), n(3)];
        let uid = sys
            .create_typed(Counter::new(0), &trio, &trio)
            .expect("create");

        // Commit real history first so the migrated state is non-trivial.
        let client = sys.client(n(4));
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).expect("activate");
        assert_eq!(
            counter.invoke(action, CounterOp::Add(5)).expect("invoke"),
            5
        );
        client.commit(action).expect("commit");
        assert!(sys.try_passivate(uid.uid()), "{policy}: quiescent");

        let membership = Membership::new(&sys);
        let fresh = membership.add_node();

        // Arm the §4 trap on the migration target: it dies the instant it
        // acknowledges the prepare for the migrated replica's write-back.
        sys.stores().arm_crash_after_prepare(fresh);
        membership
            .migrate(uid.uid(), n(1), fresh)
            .unwrap_or_else(|e| {
                panic!(
                    "{policy}: the coordinator heard the prepare ack, so the \
                 decision stands; the migration must not abort: {e}"
                )
            });
        assert!(
            !sys.sim().is_up(fresh),
            "{policy}: the armed target crashed in the commit window"
        );

        // The directory already points at the new node (the Tx committed),
        // but the replica exists only in the crashed store's intent log.
        // Recovery must resolve it from the decision record.
        sys.recovery().recover_node(fresh);
        let state = sys
            .stores()
            .read_local(fresh, uid.uid())
            .unwrap_or_else(|e| panic!("{policy}: in-doubt replica unresolved: {e}"));
        assert_eq!(
            Counter::decode_state(&state.data).value(),
            5,
            "{policy}: migrated replica does not hold the committed state"
        );
        assert!(
            sys.stores().read_local(n(1), uid.uid()).is_err(),
            "{policy}: the source replica must be gone"
        );

        // Quiescent invariants at full strength: the migrated St set
        // {2, 3, fresh} is byte-identical at the committed value.
        let objects = [ObjectModel {
            uid: uid.uid(),
            kind: ModelKind::COUNTER,
            full_strength: 3,
        }];
        let violations = check_quiescent_invariants(&sys, &objects);
        assert!(violations.is_empty(), "{policy}: {violations:?}");
        let violations = check_counter_states(&sys, &[(uid.uid(), 5)]);
        assert!(violations.is_empty(), "{policy}: {violations:?}");

        // And the object still serves from its new placement.
        let reader = sys.client(n(5));
        let observer = uid.open(&reader);
        let action = reader.begin_action();
        observer.activate_read_only(action, 1).expect("activate");
        assert_eq!(
            observer.invoke(action, CounterOp::Get).expect("read"),
            5,
            "{policy}"
        );
        reader.commit(action).expect("commit");
    }
}

/// A migration writes **only** the target: a trap armed on the source node
/// never sees a prepare, never fires, and disarms cleanly.
#[test]
fn migration_never_prepares_on_the_source() {
    let sys = System::builder(9).nodes(7).build();
    let trio = [n(1), n(2), n(3)];
    let uid = sys
        .create_typed(Counter::new(3), &trio, &trio)
        .expect("create");
    let membership = Membership::new(&sys);
    let fresh = membership.add_node();
    sys.stores().arm_crash_after_prepare(n(1));
    membership.migrate(uid.uid(), n(1), fresh).expect("migrate");
    assert!(
        sys.sim().is_up(n(1)),
        "no prepare ever reaches the migration source"
    );
    sys.stores().disarm_crash_after_prepare(n(1));
}

/// A dead target is rejected up front — before any directory repoint — so
/// a failed precheck leaves no trace to roll back.
#[test]
fn migration_to_a_dead_target_is_refused_before_any_repoint() {
    let sys = System::builder(11).nodes(7).build();
    let trio = [n(1), n(2), n(3)];
    let uid = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create");
    let membership = Membership::new(&sys);
    let fresh = membership.add_node();
    sys.sim().crash(fresh);
    match membership.migrate(uid.uid(), n(1), fresh) {
        Err(MigrateError::Unreachable(u)) => assert_eq!(u, uid.uid()),
        other => panic!("expected Unreachable, got {other:?}"),
    }
    // Nothing moved: the source still serves and stores the replica.
    assert!(sys.stores().read_local(n(1), uid.uid()).is_ok());
    let objects = [ObjectModel {
        uid: uid.uid(),
        kind: ModelKind::COUNTER,
        full_strength: 3,
    }];
    let violations = check_quiescent_invariants(&sys, &objects);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The end-to-end reborn-node drill: n2 crashes mid-life, is drained and
/// decommissioned **while down** (its replicas migrate from the surviving
/// St members), and later recovers. The reborn store must purge its stale
/// migrated-away replicas — not resurrect them into `St` — and can then
/// rejoin the world and take replicas back through the rebalancer.
#[test]
fn reborn_node_purges_stale_replicas_then_rejoins() {
    let sys = System::builder(13).nodes(7).build();
    let trio = [n(1), n(2), n(3)];
    let a = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create a");
    let b = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create b");

    // Commit history touching both objects.
    let client = sys.client(n(4));
    for (uid, add) in [(&a, 7), (&b, 9)] {
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).expect("activate");
        counter.invoke(action, CounterOp::Add(add)).expect("invoke");
        client.commit(action).expect("commit");
        assert!(sys.try_passivate(uid.uid()));
    }

    // n2 dies holding replicas of both objects; the world grows a fresh
    // node and drains n2 while it is down — every migration reads its
    // state from the surviving St members.
    sys.sim().crash(n(2));
    let membership = Membership::new(&sys);
    membership.add_node();
    let report = membership.drain_node(n(2), 4);
    assert!(report.complete, "drain of a dead node completes: {report}");
    assert_eq!(report.moved.len(), 2, "both replicas migrated");

    // Reborn: n2 recovers. Its store still holds the pre-crash replica
    // bytes, but both replicas migrated away while it was down — recovery
    // must purge them (tombstones), never re-Include them.
    let recovery = sys.recovery().recover_node(n(2));
    let mut purged = recovery.purged.clone();
    purged.sort_unstable();
    let mut expected = vec![a.uid(), b.uid()];
    expected.sort_unstable();
    assert_eq!(purged, expected, "stale replicas purged, not resurrected");
    assert!(sys.stores().read_local(n(2), a.uid()).is_err());
    assert!(sys.stores().read_local(n(2), b.uid()).is_err());
    for uid in [a.uid(), b.uid()] {
        assert!(
            !sys.stores().is_retired(n(2), uid),
            "the purge clears the tombstone"
        );
    }

    let objects = [
        ObjectModel {
            uid: a.uid(),
            kind: ModelKind::COUNTER,
            full_strength: 3,
        },
        ObjectModel {
            uid: b.uid(),
            kind: ModelKind::COUNTER,
            full_strength: 3,
        },
    ];
    let violations = check_quiescent_invariants(&sys, &objects);
    assert!(violations.is_empty(), "{violations:?}");
    let violations = check_counter_states(&sys, &[(a.uid(), 7), (b.uid(), 9)]);
    assert!(violations.is_empty(), "{violations:?}");

    // Rejoin: re-activated, the reborn node is a rebalance target again
    // and takes replicas back.
    membership.activate_node(n(2));
    let report = Rebalancer.rebalance(&membership);
    assert!(
        report.busy.is_empty() && report.failed.is_empty(),
        "{report}"
    );
    assert!(
        !membership.hosted(n(2)).is_empty(),
        "the reborn node hosts replicas again after rebalancing"
    );
    let violations = check_quiescent_invariants(&sys, &objects);
    assert!(violations.is_empty(), "{violations:?}");
    let violations = check_counter_states(&sys, &[(a.uid(), 7), (b.uid(), 9)]);
    assert!(violations.is_empty(), "{violations:?}");
}
