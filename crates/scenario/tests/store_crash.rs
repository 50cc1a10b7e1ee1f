//! The §4 two-phase-commit window, pinned deterministically: a store node
//! crashes *between* prepare and commit (right after sending its prepare
//! acknowledgement), the coordinator's decision stands, and the recovery
//! protocol resolves the in-doubt transaction from the decision record —
//! under every replication policy, with the abort taxonomy asserted
//! causally (the committing action itself must NOT abort).

use groupview_replication::{Counter, CounterOp, ObjectType, ReplicationPolicy, System};
use groupview_scenario::{
    check_counter_states, check_quiescent_invariants, ModelKind, ObjectModel,
};
use groupview_sim::NodeId;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn store_crash_between_prepare_and_commit_resolves_by_decision_record() {
    for policy in ReplicationPolicy::ALL {
        let sys = System::builder(7).nodes(6).policy(policy).build();
        let trio = [n(1), n(2), n(3)];
        let uid = sys
            .create_typed(Counter::new(0), &trio, &trio)
            .expect("create");
        let client = sys.client(n(4));
        let counter = uid.open(&client);

        let action = client.begin_action();
        counter.activate(action, 2).expect("activate");
        assert_eq!(
            counter.invoke(action, CounterOp::Add(5)).expect("invoke"),
            5,
            "{policy}"
        );
        // Arm the trap on a store the write-back will prepare: n2 dies the
        // instant it has acknowledged the prepare.
        sys.stores().arm_crash_after_prepare(n(2));
        client
            .commit(action)
            .unwrap_or_else(|e| panic!("{policy}: the coordinator heard every prepare ack, so the decision stands; commit must not abort: {e}"));
        assert!(
            !sys.sim().is_up(n(2)),
            "{policy}: the armed store crashed in the commit window"
        );

        // n2 is still listed in St (its prepare succeeded — nothing was
        // excluded), but it is down with the new state only in its intent
        // log. Recovery must resolve the in-doubt write from the
        // coordinator's decision record before the store serves reads.
        let report = sys.recovery().recover_node(n(2));
        assert!(
            report.refreshed.contains(&uid.uid()) || {
                let state = sys.stores().read_local(n(2), uid.uid()).expect("readable");
                Counter::decode_state(&state.data).value() == 5
            },
            "{policy}: recovery left n2 stale"
        );
        let state = sys.stores().read_local(n(2), uid.uid()).expect("readable");
        assert_eq!(
            Counter::decode_state(&state.data).value(),
            5,
            "{policy}: in-doubt write not resolved to the committed state"
        );

        // The paper's quiescent invariants hold: every listed store
        // byte-identical at the model's value, St at full strength, no
        // leaked locks, quiescent use lists.
        let objects = [ObjectModel {
            uid: uid.uid(),
            kind: ModelKind::COUNTER,
            full_strength: 3,
        }];
        let violations = check_quiescent_invariants(&sys, &objects);
        assert!(violations.is_empty(), "{policy}: {violations:?}");
        let violations = check_counter_states(&sys, &[(uid.uid(), 5)]);
        assert!(violations.is_empty(), "{policy}: {violations:?}");

        // And a fresh typed read observes the committed value.
        assert!(sys.try_passivate(uid.uid()));
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

/// An armed trap that no prepare ever reaches must be disarmable: the node
/// stays up and later commits are unaffected.
#[test]
fn unfired_store_trap_disarms_cleanly() {
    let sys = System::builder(9).nodes(6).build();
    let trio = [n(1), n(2), n(3)];
    let uid = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create");
    sys.stores().arm_crash_after_prepare(n(2));
    sys.stores().disarm_crash_after_prepare(n(2));
    let client = sys.client(n(4));
    let counter = uid.open(&client);
    let action = client.begin_action();
    counter.activate(action, 2).expect("activate");
    counter.invoke(action, CounterOp::Add(1)).expect("invoke");
    client.commit(action).expect("commit");
    assert!(sys.sim().is_up(n(2)), "disarmed trap must not fire");
}
