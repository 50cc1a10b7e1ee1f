//! One table of refusal causes: every leaf variant of every error type
//! names its [`Cause`], and every wrapper reports the cause of the error it
//! wraps, whatever that error wraps in turn.

use groupview::actions::{ActionId, LockKey, PrepareFault, TxError};
use groupview::group::{GroupError, GroupId};
use groupview::sim::NetError;
use groupview::store::{StoreError, TxToken};
use groupview::{
    ActivateError, BindError, Cause, CommitError, DbError, InvokeError, LockMode, MigrateError,
    NodeId, TxOpError, Uid,
};
use std::fmt::Debug;

/// Checks one row: `error` reports `expected`.
fn row<E: Debug>(error: &E, cause: Cause, expected: Cause) {
    assert_eq!(cause, expected, "{error:?}");
}

/// The errors of a table's rows.
fn values<E: Clone>(rows: &[(E, Cause)]) -> Vec<E> {
    rows.iter().map(|(e, _)| e.clone()).collect()
}

/// Checks each `(error, cause)` row.
macro_rules! rows {
    ($($rows:expr),*) => {$(
        for (e, expected) in &$rows {
            row(e, e.cause(), *expected);
        }
    )*};
}

/// Checks that `wrap(inner)` reports `inner`'s cause for every `inner`.
macro_rules! passes_through {
    ($inners:expr, $wrap:expr) => {
        for inner in $inners.iter() {
            let wrapped = $wrap(inner.clone());
            row(&wrapped, wrapped.cause(), inner.cause());
        }
    };
}

#[test]
fn every_error_names_its_cause_once() {
    use Cause::{Contention, Failure, Invalid};
    let (n1, uid) = (NodeId::new(1), Uid::from_raw(7));
    let refused = TxError::LockRefused {
        key: LockKey::new(1, 7),
        requested: LockMode::Write,
        held: LockMode::Read,
    };

    // Leaves, each with its cause.
    let net = [
        NetError::NodeDown(n1),
        NetError::Dropped,
        NetError::Partitioned { from: n1, to: n1 },
        NetError::Timeout,
    ];
    for e in &net {
        row(e, e.cause(), Failure);
    }
    let tx_leaves = [
        (refused, Contention),
        // Every action that stops being active under its client was ended
        // by a crash or a timeout.
        (TxError::NotActive(ActionId::from_raw(3)), Failure),
        (TxError::PrepareFailed { node: n1 }, Failure),
        (TxError::CoordinatorDown(n1), Failure),
    ];
    let db_leaves = [
        // Reclassified: a refusal of the request itself, not a crash.
        (DbError::NotFound(uid), Invalid),
        (DbError::AlreadyExists(uid), Invalid),
        (DbError::InvalidNodeList { repeated: None }, Invalid),
        (DbError::InvalidNodeList { repeated: Some(n1) }, Invalid),
        // Reclassified: only `Insert` raises it, refused by a busy use list.
        (DbError::NotQuiescent(uid), Contention),
        // Every store of St missed the copy (§2.3(3)).
        (DbError::LastStore(uid), Failure),
    ];
    let bind_leaves = [
        (BindError::NoServers { probed: 2 }, Failure),
        (BindError::Contention, Contention),
        // Reclassified: a binder set up without its cache.
        (BindError::NoServerCache, Invalid),
    ];
    let store_leaves = [
        (StoreError::NoStore(n1), Invalid),
        (StoreError::NodeDown(n1), Failure),
        (StoreError::NotFound(uid), Invalid),
        (StoreError::TxUnknown(TxToken::new(9)), Invalid),
    ];
    let group = [
        GroupError::UnknownGroup(GroupId::from_raw(2)),
        GroupError::NoLiveMembers(GroupId::from_raw(2)),
        GroupError::SenderDown(n1),
    ];
    for e in &group {
        row(e, e.cause(), Failure);
    }
    // Reclassified: a store that refused the write is not a crash.
    let prepare_leaves = [(PrepareFault::Refused(n1), Invalid)];
    let activate_leaves = [
        (ActivateError::NoState(uid), Failure),
        // Reclassified: an unregistered class is an invalid state.
        (ActivateError::UnknownType(uid), Invalid),
    ];
    let invoke_leaves = [
        (InvokeError::AllReplicasFailed(uid), Failure),
        (InvokeError::ServerFailed(uid), Failure),
        (InvokeError::NotLoaded(uid), Failure),
        // Reclassified: the typed surface's contract violations.
        (InvokeError::NotActivated(uid), Invalid),
        (InvokeError::MalformedReply(uid), Invalid),
    ];
    let commit_leaves = [(CommitError::NoFinalState(uid), Failure)];
    let migrate_leaves = [
        (MigrateError::NotHosted { uid, node: n1 }, Invalid),
        (MigrateError::AlreadyHosted { uid, node: n1 }, Invalid),
        (MigrateError::Busy(uid), Contention),
        (MigrateError::Unreachable(uid), Failure),
    ];
    rows!(
        tx_leaves,
        db_leaves,
        bind_leaves,
        store_leaves,
        prepare_leaves,
        activate_leaves,
        invoke_leaves,
        commit_leaves,
        migrate_leaves
    );

    // Every value of each type, its wrapped errors (to any depth) included,
    // so each wrapper is checked over all of them.
    let mut tx = values(&tx_leaves);
    tx.extend(net.map(TxError::Net));
    let mut db = values(&db_leaves);
    db.extend(tx.iter().copied().map(DbError::Tx));
    let mut bind = values(&bind_leaves);
    bind.extend(db.iter().copied().map(BindError::Db));
    let mut prepare = values(&prepare_leaves);
    prepare.extend(net.map(PrepareFault::Net));
    let mut activate = values(&activate_leaves);
    activate.extend(bind.iter().copied().map(ActivateError::Bind));
    let mut invoke = values(&invoke_leaves);
    invoke.extend(tx.iter().copied().map(InvokeError::Tx));
    invoke.extend(group.map(InvokeError::Group));
    let stores_failed = |last| CommitError::AllStoresFailed { uid, last };

    passes_through!(net, StoreError::Net);
    passes_through!(net, TxError::Net);
    passes_through!(net, PrepareFault::Net);
    passes_through!(tx, DbError::Tx);
    passes_through!(db, BindError::Db);
    passes_through!(bind, ActivateError::Bind);
    passes_through!(tx, InvokeError::Tx);
    passes_through!(group, InvokeError::Group);
    passes_through!(prepare, stores_failed);
    passes_through!(db, CommitError::Exclude);
    passes_through!(tx, CommitError::Tx);
    passes_through!(activate, TxOpError::Activate);
    passes_through!(invoke, TxOpError::Invoke);
    passes_through!(db, MigrateError::Db);
    passes_through!(tx, MigrateError::Commit);

    // Composite errors whose cause was once worked out by walking the
    // wrappers, named outright.
    let timeout = TxError::Net(NetError::Timeout);
    let composites = [
        (
            ActivateError::Bind(BindError::Db(DbError::Tx(timeout))),
            Failure,
        ),
        (
            ActivateError::Bind(BindError::Db(DbError::Tx(refused))),
            Contention,
        ),
        (ActivateError::Bind(BindError::Contention), Contention),
        (
            ActivateError::Bind(BindError::NoServers { probed: 2 }),
            Failure,
        ),
    ];
    rows!(composites);
    let down = PrepareFault::Net(NetError::NodeDown(n1));
    let commits = [
        (stores_failed(down), Failure),
        (stores_failed(PrepareFault::Refused(n1)), Invalid),
        (
            CommitError::Tx(TxError::PrepareFailed { node: n1 }),
            Failure,
        ),
        (CommitError::Exclude(DbError::Tx(timeout)), Failure),
        (CommitError::Exclude(DbError::LastStore(uid)), Failure),
        (CommitError::Tx(refused), Contention),
        (CommitError::Exclude(DbError::Tx(refused)), Contention),
    ];
    rows!(commits);
    let invokes = [
        (InvokeError::Tx(timeout), Failure),
        (InvokeError::Tx(refused), Contention),
        (InvokeError::Group(group[1]), Failure),
    ];
    rows!(invokes);
}

/// The collapse removed variants and never widened the `Result` an invoke,
/// an activation or a commit returns: each error is at most the size it had
/// before.
#[test]
fn errors_are_no_wider_than_before_the_collapse() {
    use std::mem::size_of;
    assert!(size_of::<InvokeError>() <= 24);
    assert!(size_of::<TxError>() <= 24);
    assert!(size_of::<DbError>() <= 24);
    assert!(size_of::<ActivateError>() <= 32);
    assert!(size_of::<BindError>() <= 32);
    assert!(size_of::<CommitError>() <= 32);
    assert!(size_of::<TxOpError>() <= 32);
}
