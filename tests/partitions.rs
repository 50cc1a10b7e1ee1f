//! Network partitions: the paper's §2.3(2)(i) notes active replication
//! keeps an object available "in the absence of network partitions
//! preventing communication". These tests pin down what partitions do to
//! the binding machinery — and that consistency survives them.

use groupview::{Counter, CounterOp, NodeId, ObjectType, ReplicationPolicy, System};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build(seed: u64) -> (System, groupview::Uid) {
    let sys = System::builder(seed)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    (sys, uid)
}

#[test]
fn client_partitioned_from_naming_service_cannot_bind() {
    let (sys, uid) = build(201);
    let client = sys.client(n(4));
    sys.sim().partition(n(4), n(0));
    let action = client.begin_action();
    let err = client
        .activate(action, uid, 2)
        .expect_err("naming unreachable");
    assert!(matches!(err, groupview::ActivateError::Bind(_)));
    client.abort(action);
    // Healing restores service.
    sys.sim().heal(n(4), n(0));
    let counter = client.open::<Counter>(uid);
    let action = client.begin_action();
    counter.activate(action, 2).expect("bind after heal");
    counter.invoke(action, CounterOp::Add(1)).expect("invoke");
    client.commit(action).expect("commit");
}

#[test]
fn client_partitioned_from_a_server_binds_elsewhere() {
    let (sys, uid) = build(202);
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    // The client cannot reach n1, but n2/n3 still serve it.
    sys.sim().partition(n(4), n(1));
    let action = client.begin_action();
    let group = counter.activate(action, 2).expect("bind around partition");
    assert!(
        !group.servers.contains(&n(1)),
        "partitioned server probed dead"
    );
    assert_eq!(group.servers.len(), 2);
    counter.invoke(action, CounterOp::Add(5)).expect("invoke");
    client.commit(action).expect("commit");
}

#[test]
fn store_partitioned_at_commit_gets_excluded_then_reincluded() {
    let (sys, uid) = build(203);
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    let action = client.begin_action();
    counter.activate(action, 2).expect("activate");
    counter.invoke(action, CounterOp::Add(9)).expect("invoke");
    // The commit coordinator (the client's node) loses contact with n3.
    sys.sim().partition(n(4), n(3));
    client.commit(action).expect("commit without n3");
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(
        st.stores,
        vec![n(1), n(2)],
        "unreachable store excluded at commit"
    );
    // n3's store is now stale; after the partition heals, the recovery
    // protocol refreshes and re-includes it (the node never crashed, but
    // the same §4.2 routine applies).
    sys.sim().heal(n(4), n(3));
    let report = sys.recovery().recover_store(n(3));
    assert_eq!(report.included, vec![uid]);
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores.len(), 3);
    let state = sys.stores().read_local(n(3), uid).expect("state");
    assert_eq!(
        Counter::decode_state(&state.data).value(),
        9,
        "refreshed to latest"
    );
}

#[test]
fn partition_between_groups_blocks_cross_traffic_only() {
    let (sys, uid) = build(204);
    // Split: {naming, servers} | {client node 4}; client 5 unaffected.
    sys.sim()
        .partition_groups(&[n(0), n(1), n(2), n(3)], &[n(4)]);
    let cut_off = sys.client(n(4));
    let action = cut_off.begin_action();
    assert!(cut_off.activate(action, uid, 2).is_err());
    cut_off.abort(action);

    let fine = sys.client(n(5));
    let fine_counter = fine.open::<Counter>(uid);
    let action = fine.begin_action();
    fine_counter.activate(action, 2).expect("unaffected side");
    fine_counter
        .invoke(action, CounterOp::Add(2))
        .expect("invoke");
    fine.commit(action).expect("commit");

    sys.sim().heal_all();
    let counter = cut_off.open::<Counter>(uid);
    let action = cut_off.begin_action();
    counter.activate(action, 2).expect("after heal");
    assert_eq!(counter.invoke(action, CounterOp::Get).expect("read"), 2);
    cut_off.commit(action).expect("commit");
}

#[test]
fn no_stale_reads_across_partition_heal_cycles() {
    let (sys, uid) = build(205);
    let mut expected = 0i64;
    for round in 0..8u32 {
        // Rotate a partition between the client node and one store node.
        let victim = n(1 + (round % 3));
        sys.sim().partition(n(4), victim);
        let client = sys.client(n(4));
        let counter = client.open::<Counter>(uid);
        let action = client.begin_action();
        let committed = (|| {
            counter.activate(action, 2).ok()?;
            counter.invoke(action, CounterOp::Add(1)).ok()?;
            client.commit(action).ok()
        })();
        match committed {
            Some(()) => expected += 1,
            None => client.abort(action),
        }
        sys.sim().heal_all();
        // Heal-time recovery for whatever got excluded.
        for store in [n(1), n(2), n(3)] {
            sys.recovery().recover_store(store);
        }
        // Every listed store must hold the latest committed value.
        let st = sys.naming().state_db.entry(uid).expect("entry");
        for &node in &st.stores {
            let state = sys.stores().read_local(node, uid).expect("state");
            assert_eq!(
                Counter::decode_state(&state.data).value(),
                expected,
                "round {round}: stale store {node} listed in St"
            );
        }
    }
    assert!(expected > 0, "some rounds must commit");
}

#[test]
fn cohort_partitioned_from_coordinator_is_expelled_not_stale() {
    // Coordinator-cohort: a cohort that cannot receive checkpoints must not
    // survive in the activation set with stale state.
    let sys = System::builder(206)
        .nodes(6)
        .policy(ReplicationPolicy::CoordinatorCohort)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    // Action 1 activates all three; coordinator is n1.
    let action = client.begin_action();
    let group = counter.activate(action, 3).expect("activate");
    assert_eq!(group.servers, vec![n(1), n(2), n(3)]);
    // n3 gets partitioned from the coordinator: it misses the checkpoint.
    sys.sim().partition(n(1), n(3));
    counter.invoke(action, CounterOp::Add(5)).expect("invoke");
    client.commit(action).expect("commit");
    // n3 was expelled from the activation (unloaded); a new action joins
    // only the fresh members and never sees stale state through n3.
    sys.sim().heal_all();
    let action = client.begin_action();
    counter.activate(action, 3).expect("activate again");
    assert_eq!(
        counter.invoke(action, CounterOp::Get).expect("read"),
        5,
        "no stale cohort"
    );
    client.commit(action).expect("commit");
}
