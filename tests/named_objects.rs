//! The name directory end to end: names → UIDs → bound replicas (§2.2's
//! full lookup chain), including atomicity of creation-with-naming.

use groupview::{
    Account, AccountOp, DbError, KvMap, KvOp, KvReply, NodeId, ReplicationPolicy, System,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build() -> System {
    System::builder(401)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build()
}

#[test]
fn create_named_lookup_invoke_roundtrip() {
    let sys = build();
    let uid = sys
        .create_typed_named(
            "accounts/alice",
            Account::new(500),
            &[n(1), n(2)],
            &[n(1), n(2)],
        )
        .expect("create named");

    let client = sys.client(n(4));
    let action = client.begin_action();
    let account = client
        .open_by_name::<Account>(action, "accounts/alice", 2)
        .expect("activate by name");
    assert_eq!(account.uid(), uid.uid());
    let balance = account
        .invoke(action, AccountOp::Withdraw(100))
        .expect("withdraw");
    assert_eq!(balance, 400);
    client.commit(action).expect("commit");
}

#[test]
fn unknown_names_fail_cleanly() {
    let sys = build();
    let client = sys.client(n(4));
    let action = client.begin_action();
    let err = client
        .activate_by_name(action, "no/such/object", 1)
        .expect_err("unknown name");
    assert!(matches!(
        err,
        groupview::ActivateError::Bind(groupview::BindError::Db(DbError::NotFound(_)))
    ));
    client.abort(action);
}

#[test]
fn name_collisions_abort_creation_atomically() {
    let sys = build();
    sys.create_typed_named("kv/config", KvMap::new(), &[n(1)], &[n(1)])
        .expect("first");
    let objects_before = sys.naming().server_db.uids().len();
    let err = sys
        .create_typed_named("kv/config", KvMap::new(), &[n(2)], &[n(2)])
        .expect_err("name taken");
    assert!(matches!(err, DbError::AlreadyExists(_)));
    // The failed creation left nothing behind: no object entries, no name.
    assert_eq!(sys.naming().server_db.uids().len(), objects_before);
    assert_eq!(
        sys.naming().directory.names(),
        vec!["kv/config".to_string()]
    );
}

#[test]
fn names_survive_naming_node_crash_and_recovery() {
    let sys = build();
    sys.create_typed_named("kv/session", KvMap::new(), &[n(1), n(2)], &[n(1), n(2)])
        .expect("create");
    // Write through the name.
    let client = sys.client(n(4));
    let action = client.begin_action();
    let session = client
        .open_by_name::<KvMap>(action, "kv/session", 2)
        .expect("activate");
    session
        .invoke(action, KvOp::Put("user".into(), "mcl".into()))
        .expect("put");
    client.commit(action).expect("commit");

    // The naming node crashes: lookups fail while it is down...
    sys.sim().crash(n(0));
    let action = client.begin_action();
    assert!(client.activate_by_name(action, "kv/session", 2).is_err());
    client.abort(action);

    // ...and work again after recovery (directory state is in the service's
    // persistent object, which our simulation keeps with the service).
    sys.recovery().recover_node(n(0));
    let action = client.begin_action();
    let session = client
        .open_by_name::<KvMap>(action, "kv/session", 2)
        .expect("activate after recovery");
    let value = session
        .invoke(action, KvOp::Get("user".into()))
        .expect("get");
    assert_eq!(value, KvReply::Value("mcl".into()));
    client.commit(action).expect("commit");
}

#[test]
fn directory_updates_are_transactional_with_the_client_action() {
    let sys = build();
    let uid = sys
        .create_typed_named("tmp/a", KvMap::new(), &[n(1)], &[n(1)])
        .expect("create")
        .uid();
    // Rename within an action, then abort: the rename is undone.
    let tx = sys.tx();
    let action = tx.begin_top(n(0));
    let dir = &sys.naming().directory;
    assert!(dir.unbind_name(action, "tmp/a").unwrap());
    dir.bind_name(action, "tmp/b", uid).unwrap();
    tx.abort(action);
    assert_eq!(dir.names(), vec!["tmp/a".to_string()]);
    // And committed when the action commits.
    let action = tx.begin_top(n(0));
    assert!(dir.unbind_name(action, "tmp/a").unwrap());
    dir.bind_name(action, "tmp/b", uid).unwrap();
    tx.commit(action).unwrap();
    assert_eq!(dir.names(), vec!["tmp/b".to_string()]);
}
