//! Dynamic changes to the degree of replication (§2.3(1)): "a new replica
//! for an object can be added to the system … it is important to ensure
//! that such changes are reflected in the naming and binding service
//! without causing inconsistencies to current users of the object."

use groupview::{
    BindingScheme, Cause, Counter, CounterOp, DbError, NodeId, ObjectType, ReplicationPolicy,
    System, Uid,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build(scheme: BindingScheme) -> (System, Uid) {
    let sys = System::builder(301)
        .nodes(8)
        .scheme(scheme)
        .policy(ReplicationPolicy::Active)
        .build();
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(1), n(2)], &[n(1), n(2)])
        .expect("create");
    (sys, uid)
}

/// Grows `Sv` by one server node through the application-level `Insert`.
fn add_server(sys: &System, uid: Uid, host: NodeId) -> Result<(), DbError> {
    let action = sys.tx().begin_top(sys.naming().node());
    match sys.naming().server_db.insert(action, uid, host) {
        Ok(_) => {
            sys.tx().commit(action).map_err(DbError::Tx)?;
            Ok(())
        }
        Err(e) => {
            sys.tx().abort(action);
            Err(e)
        }
    }
}

/// Grows `St` by one store node: write the current state there, then
/// `Include` it — the §4.2 recovery routine doubles as degree growth.
fn add_store(sys: &System, uid: Uid, host: NodeId) -> Result<(), DbError> {
    sys.stores().add_store(host);
    let action = sys.tx().begin_top(sys.naming().node());
    let result = (|| {
        let view = sys.naming().state_db.get_view(action, uid)?;
        let src = view.stores[0];
        let state = sys
            .stores()
            .read_remote(sys.naming().node(), src, uid)
            .map_err(|_| DbError::NotFound(uid))?;
        sys.stores()
            .write_remote(sys.naming().node(), host, uid, state)
            .map_err(|_| DbError::NotFound(uid))?;
        sys.naming().state_db.include(action, uid, host)?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            sys.tx().commit(action).map_err(DbError::Tx)?;
            Ok(())
        }
        Err(e) => {
            sys.tx().abort(action);
            Err(e)
        }
    }
}

#[test]
fn growing_sv_makes_the_new_server_bindable() {
    let (sys, uid) = build(BindingScheme::Standard);
    add_server(&sys, uid, n(3)).expect("insert n3");
    assert_eq!(
        sys.naming().server_db.entry(uid).unwrap().servers,
        vec![n(1), n(2), n(3)]
    );
    // Kill one original server; the grown set still offers two (n2, n3) —
    // the new server loads its state from the surviving store n2.
    sys.sim().crash(n(1));
    let client = sys.client(n(5));
    let counter = client.open::<Counter>(uid);
    let action = client.begin_action();
    let group = counter.activate(action, 2).expect("bind the new server");
    assert_eq!(group.servers, vec![n(2), n(3)]);
    assert_eq!(
        counter
            .invoke(action, CounterOp::Get)
            .expect("read via the grown set"),
        0
    );
    client.commit(action).expect("commit");
}

#[test]
fn growing_st_adds_a_durable_copy() {
    let (sys, uid) = build(BindingScheme::Standard);
    // Commit a value first.
    let client = sys.client(n(5));
    let counter = client.open::<Counter>(uid);
    let action = client.begin_action();
    counter.activate(action, 2).expect("activate");
    counter.invoke(action, CounterOp::Add(42)).expect("invoke");
    client.commit(action).expect("commit");
    assert!(sys.try_passivate(uid));

    add_store(&sys, uid, n(4)).expect("include n4");
    assert_eq!(sys.naming().state_db.entry(uid).unwrap().len(), 3);
    let copy = sys.stores().read_local(n(4), uid).expect("copied state");
    assert_eq!(Counter::decode_state(&copy.data).value(), 42);

    // Grow Sv too, then lose both original nodes: the new server (n3) must
    // revive the object from the new store's (n4's) copy alone.
    add_server(&sys, uid, n(3)).expect("insert n3");
    sys.sim().crash(n(1));
    sys.sim().crash(n(2));
    let action = client.begin_action();
    let group = counter.activate(action, 1).expect("activate from n4");
    assert_eq!(group.servers, vec![n(3)]);
    assert_eq!(counter.invoke(action, CounterOp::Get).expect("read"), 42);
    client.commit(action).expect("commit");
}

#[test]
fn sv_growth_is_refused_while_clients_use_the_object() {
    // "without causing inconsistencies to current users": under the
    // standard scheme the users' read locks refuse the Insert; under the
    // updating schemes the non-empty use lists do.
    for scheme in [BindingScheme::Standard, BindingScheme::IndependentTopLevel] {
        let (sys, uid) = build(scheme);
        let user = sys.client(n(5));
        let action = user.begin_action();
        let _group = user.activate(action, uid, 2).expect("activate");
        let err = add_server(&sys, uid, n(3)).expect_err("must be refused in use");
        assert_eq!(err.cause(), Cause::Contention, "{scheme}: {err}");
        if scheme == BindingScheme::Standard {
            assert!(matches!(err, DbError::Tx(_)), "a refused lock: {err}");
        }
        user.commit(action).expect("commit");
        if scheme.maintains_use_lists() {
            // Bindings completed — now quiescent.
            assert!(sys.naming().server_db.entry(uid).unwrap().is_quiescent());
        }
        add_server(&sys, uid, n(3)).expect("succeeds once quiescent");
    }
}

#[test]
fn shrinking_sv_by_remove_hides_a_server_from_new_bindings() {
    let (sys, uid) = build(BindingScheme::Standard);
    let action = sys.tx().begin_top(n(0));
    assert!(sys.naming().server_db.remove(action, uid, n(2)).unwrap());
    sys.tx().commit(action).unwrap();
    let client = sys.client(n(5));
    let a = client.begin_action();
    let group = client.activate(a, uid, 2).expect("activate");
    assert_eq!(group.servers, vec![n(1)], "removed server not offered");
    client.commit(a).expect("commit");
}

#[test]
fn cached_scheme_changes_degree_without_any_refusal() {
    let (sys, uid) = build(BindingScheme::CachedNameServer);
    let user = sys.client(n(5));
    let action = user.begin_action();
    let _group = user.activate(action, uid, 2).expect("activate");
    // The §5 extension: membership updates cannot be refused, even mid-use.
    let cache = sys.server_cache().expect("cache").local();
    assert!(cache.record_server(uid, n(3)));
    assert_eq!(cache.read(uid), vec![n(1), n(2), n(3)]);
    user.commit(action).expect("commit");
    // New activations see the wider candidate set once passive again.
    assert!(sys.try_passivate(uid));
    sys.sim().crash(n(1));
    let a = user.begin_action();
    let group = user.activate(a, uid, 3).expect("bind via cache");
    assert_eq!(group.servers, vec![n(2), n(3)], "new server offered");
    user.abort(a);
}
