//! The naming service's tables under random action trees.
//!
//! Each case runs a sequence of steps against one `NamingService`. A step
//! is a top-level action with an optional nested child, each running a
//! random mix of create, `Insert`, `Remove`, `Increment`, `Decrement`,
//! purge, `Include`, `Exclude`, bind and unbind, and each ending in commit
//! or abort. A concurrent blocker action may hold a lock on one entry for
//! the whole step, so some operations are refused.
//!
//! Checked:
//! - an aborted child or top-level action leaves every Sv, St and
//!   directory entry equal to its snapshot from before the action;
//! - after every operation, `clients_in_use()` equals the client set
//!   recomputed from the entries, and `purge_client` (run in a probe
//!   child that is then aborted) reaches exactly the entries counting
//!   that client;
//! - a refused operation leaves the entry it was refused on unchanged.

use groupview_actions::{ActionId, LockKey, LockMode, TxError, TxSystem};
use groupview_core::keys::{name_key, server_entry_key, state_entry_key};
use groupview_core::{DbError, ExcludePolicy, NamingService, ServerEntry, StateEntry};
use groupview_sim::{ClientId, NodeId, Sim, SimConfig};
use groupview_store::{Stores, Uid};
use proptest::prelude::*;
use std::collections::BTreeSet;

const NAMES: [&str; 3] = ["a", "b", "c"];
const UIDS: u64 = 5;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn uid(i: u64) -> Uid {
    Uid::from_raw(i)
}

/// The nodes 1..=4 whose bit is set in `mask`.
fn nodes(mask: u8) -> Vec<NodeId> {
    (1..=4)
        .filter(|i| mask & (1 << (i - 1)) != 0)
        .map(n)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Create(Uid, Vec<NodeId>, Vec<NodeId>),
    Insert(Uid, NodeId),
    Remove(Uid, NodeId),
    Increment(ClientId, Uid, Vec<NodeId>),
    Decrement(ClientId, Uid, Vec<NodeId>),
    Purge(ClientId),
    Include(Uid, NodeId),
    Exclude(Vec<(Uid, Vec<NodeId>)>, ExcludePolicy),
    Bind(&'static str, Uid),
    Unbind(&'static str),
}

fn op() -> impl Strategy<Value = Op> {
    (0..10u8, 1..=UIDS, 1..5u32, 1..4u32, 0..16u8).prop_map(|(kind, u, host, client, mask)| {
        let (uid, host, client) = (uid(u), n(host), ClientId::new(client));
        match kind {
            0 => Op::Create(uid, nodes(mask), nodes(mask.rotate_right(1) & 15)),
            1 => Op::Insert(uid, host),
            2 => Op::Remove(uid, host),
            3 => Op::Increment(client, uid, nodes(mask)),
            4 => Op::Decrement(client, uid, nodes(mask)),
            5 => Op::Purge(client),
            6 => Op::Include(uid, host),
            7 => {
                let policy = if client.raw() % 2 == 0 {
                    ExcludePolicy::PromoteToWrite
                } else {
                    ExcludePolicy::ExcludeWriteLock
                };
                let other = Uid::from_raw(u % UIDS + 1);
                Op::Exclude(vec![(uid, nodes(mask)), (other, vec![host])], policy)
            }
            8 => Op::Bind(
                NAMES[u as usize % 3],
                Uid::from_raw(u64::from(mask % 3) + 1),
            ),
            _ => Op::Unbind(NAMES[u as usize % 3]),
        }
    })
}

/// One entry of one table.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ref {
    Sv(Uid),
    St(Uid),
    Name(&'static str),
}

impl Ref {
    fn all() -> impl Iterator<Item = Ref> {
        (1..=UIDS)
            .flat_map(|u| [Ref::Sv(uid(u)), Ref::St(uid(u))])
            .chain(NAMES.map(Ref::Name))
    }

    fn lock_key(self) -> LockKey {
        match self {
            Ref::Sv(u) => server_entry_key(u),
            Ref::St(u) => state_entry_key(u),
            Ref::Name(name) => name_key(name),
        }
    }
}

impl Op {
    /// The entries the operation addresses.
    fn refs(&self) -> Vec<Ref> {
        match self {
            Op::Create(u, ..) => vec![Ref::Sv(*u), Ref::St(*u)],
            Op::Insert(u, _) | Op::Remove(u, _) => vec![Ref::Sv(*u)],
            Op::Increment(_, u, _) | Op::Decrement(_, u, _) => vec![Ref::Sv(*u)],
            Op::Purge(_) => (1..=UIDS).map(|u| Ref::Sv(uid(u))).collect(),
            Op::Include(u, _) => vec![Ref::St(*u)],
            Op::Exclude(batch, _) => batch.iter().map(|(u, _)| Ref::St(*u)).collect(),
            Op::Bind(name, _) | Op::Unbind(name) => vec![Ref::Name(name)],
        }
    }

    /// The entries a refusal with `err` guarantees unchanged: the one the
    /// refusal names (multi-entry operations may have changed earlier
    /// entries, and their caller must abort), else every addressed entry.
    fn refused(&self, err: DbError) -> Vec<Ref> {
        match (self, err) {
            (_, DbError::Tx(TxError::LockRefused { key, .. })) => {
                Ref::all().filter(|r| r.lock_key() == key).collect()
            }
            (Op::Exclude(..), DbError::NotFound(u)) => vec![Ref::St(u)],
            _ => self.refs(),
        }
    }

    fn apply(&self, ns: &NamingService, a: ActionId) -> Result<(), DbError> {
        match self {
            Op::Create(u, sv, st) => ns.register_object(a, *u, sv.clone(), st.clone()),
            Op::Insert(u, h) => ns.server_db.insert(a, *u, *h).map(drop),
            Op::Remove(u, h) => ns.server_db.remove(a, *u, *h).map(drop),
            Op::Increment(c, u, hosts) => ns.server_db.increment(a, *c, *u, hosts),
            Op::Decrement(c, u, hosts) => ns.server_db.decrement(a, *c, *u, hosts),
            Op::Purge(c) => ns.server_db.purge_client(a, *c).map(drop),
            Op::Include(u, h) => ns.state_db.include(a, *u, *h).map(drop),
            Op::Exclude(batch, policy) => ns.state_db.exclude(a, batch, *policy).map(drop),
            Op::Bind(name, u) => ns.directory.bind_name(a, name, *u),
            Op::Unbind(name) => ns.directory.unbind_name(a, name).map(drop),
        }
    }
}

/// Every entry, read without locks. Directory values need a lookup (which
/// locks), so mid-action snapshots hold the bound names only.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    sv: Vec<(Uid, ServerEntry)>,
    st: Vec<(Uid, StateEntry)>,
    names: Vec<String>,
}

#[derive(Debug, PartialEq)]
enum View {
    Sv(Option<ServerEntry>),
    St(Option<StateEntry>),
    Bound(bool),
}

impl Snapshot {
    fn of(ns: &NamingService) -> Self {
        Snapshot {
            sv: (ns.server_db.uids().into_iter())
                .map(|u| (u, ns.server_db.entry(u).expect("listed")))
                .collect(),
            st: (ns.state_db.uids().into_iter())
                .map(|u| (u, ns.state_db.entry(u).expect("listed")))
                .collect(),
            names: ns.directory.names(),
        }
    }

    fn view(&self, r: Ref) -> View {
        match r {
            Ref::Sv(u) => View::Sv(self.sv.iter().find(|e| e.0 == u).map(|e| e.1.clone())),
            Ref::St(u) => View::St(self.st.iter().find(|e| e.0 == u).map(|e| e.1.clone())),
            Ref::Name(name) => View::Bound(self.names.iter().any(|b| b == name)),
        }
    }

    /// `(client, uid, host)` for every use-list counter.
    fn uses(&self) -> BTreeSet<(ClientId, Uid, NodeId)> {
        let mut uses = BTreeSet::new();
        for (u, e) in &self.sv {
            for (&host, ul) in &e.use_lists {
                uses.extend(ul.keys().map(|&c| (c, *u, host)));
            }
        }
        uses
    }
}

/// Every name's binding, looked up by a fresh action (no other action may
/// hold a name's write lock).
fn bindings(tx: &TxSystem, ns: &NamingService) -> Vec<Option<Uid>> {
    let a = tx.begin_top(n(0));
    let found = NAMES
        .iter()
        .map(|name| ns.directory.lookup(a, name).ok())
        .collect();
    tx.commit(a).expect("read-only commit");
    found
}

/// The use index against the entries, and every in-use client's purge
/// against the entries counting it (in a probe child that is aborted).
fn check_use_index(tx: &TxSystem, ns: &NamingService, action: ActionId) {
    let before = Snapshot::of(ns);
    let uses = before.uses();
    let mut clients: Vec<ClientId> = uses.iter().map(|u| u.0).collect();
    clients.dedup();
    assert_eq!(ns.server_db.clients_in_use(), clients);

    let probe = tx.begin_nested(action);
    for &client in &clients {
        // A lock held outside this action tree refuses the purge; the
        // probe's abort below must still restore what it did.
        if let Ok(mut cleaned) = ns.server_db.purge_client(probe, client) {
            cleaned.sort_unstable();
            let want: Vec<(Uid, NodeId)> = uses
                .iter()
                .filter(|u| u.0 == client)
                .map(|&(_, u, h)| (u, h))
                .collect();
            assert_eq!(cleaned, want, "purge of {client}");
        }
    }
    tx.abort(probe);
    assert_eq!(Snapshot::of(ns), before, "purge probe undone");
    assert_eq!(ns.server_db.clients_in_use(), clients);
}

fn run_ops(tx: &TxSystem, ns: &NamingService, action: ActionId, ops: &[Op]) {
    for op in ops {
        let before = Snapshot::of(ns);
        if let Err(err) = op.apply(ns, action) {
            let after = Snapshot::of(ns);
            for r in op.refused(err) {
                assert_eq!(after.view(r), before.view(r), "{op:?} refused with {err}");
            }
        }
        check_use_index(tx, ns, action);
    }
}

/// Takes a lock on one entry from outside the step's action tree.
fn block(ns: &NamingService, blocker: ActionId, kind: u8, u: u64) {
    let target = uid(u);
    let _ = match kind {
        0 => ns
            .server_db
            .get_server_locked(blocker, target, LockMode::Write)
            .map(drop),
        1 => ns.server_db.get_server(blocker, target).map(drop),
        2 => ns.state_db.get_view(blocker, target).map(drop),
        3 => ns
            .state_db
            .exclude(
                blocker,
                &[(target, vec![])],
                ExcludePolicy::ExcludeWriteLock,
            )
            .map(drop),
        4 => ns
            .directory
            .lookup(blocker, NAMES[u as usize % 3])
            .map(drop),
        _ => Ok(()),
    };
}

fn world() -> (Sim, TxSystem, NamingService) {
    let sim = Sim::new(SimConfig::new(28).with_nodes(6));
    let stores = Stores::new(&sim);
    let tx = TxSystem::new(&sim, &stores);
    let ns = NamingService::new(&sim, &tx, n(0));
    let a = tx.begin_top(n(0));
    for u in 1..=2 {
        ns.register_object(a, uid(u), vec![n(1), n(2)], vec![n(1), n(2)])
            .expect("register");
    }
    ns.directory.bind_name(a, "a", uid(1)).expect("bind");
    tx.commit(a).expect("commit");
    (sim, tx, ns)
}

/// A step: top-level ops, the nested child's ops and whether it commits,
/// whether the top-level action commits, and the blocker (kind 5..=6: none).
type Step = (Vec<Op>, bool, Vec<Op>, bool, bool, (u8, u64));

fn step() -> impl Strategy<Value = Step> {
    (
        prop::collection::vec(op(), 0..5),
        any::<bool>(),
        prop::collection::vec(op(), 0..4),
        any::<bool>(),
        any::<bool>(),
        (0..7u8, 1..=UIDS),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn aborts_restore_every_entry_and_the_use_index_tracks_the_entries(
        steps in prop::collection::vec(step(), 1..8)
    ) {
        let (_sim, tx, ns) = world();
        for (top_ops, with_child, child_ops, child_commits, commits, (kind, target)) in steps {
            let start = (Snapshot::of(&ns), bindings(&tx, &ns));
            let blocker = tx.begin_top(n(5));
            block(&ns, blocker, kind, target);

            let top = tx.begin_top(n(4));
            run_ops(&tx, &ns, top, &top_ops);
            if with_child {
                let before = Snapshot::of(&ns);
                let child = tx.begin_nested(top);
                run_ops(&tx, &ns, child, &child_ops);
                if child_commits {
                    tx.commit(child).expect("nested commit");
                } else {
                    tx.abort(child);
                    prop_assert_eq!(Snapshot::of(&ns), before);
                }
            }
            if commits {
                tx.commit(top).expect("no participants, coordinator up");
            } else {
                tx.abort(top);
                prop_assert_eq!(Snapshot::of(&ns), start.0.clone());
            }
            tx.commit(blocker).expect("read-only commit");
            prop_assert!(tx.locks_empty());
            if !commits {
                prop_assert_eq!((Snapshot::of(&ns), bindings(&tx, &ns)), start);
            }
        }
    }
}
