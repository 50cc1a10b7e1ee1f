//! The Object Server database: `UID → SvA` plus use lists (§4.1).

use crate::error::DbError;
use crate::keys::server_entry_key;
use crate::table::{Entry, Table};
use groupview_actions::{ActionId, LockKey, LockMode, TxSystem};
use groupview_sim::{ClientId, NodeId, NodeList};
use groupview_store::Uid;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One object's entry: the set `SvA` and the per-server *use lists*.
///
/// The paper's use list for a server node is a set of `<Ni, Ci>` pairs
/// counting the clients using that server (§4.1.3). We key counters directly
/// by [`ClientId`]; a per-client-node aggregation would lose the information
/// the cleanup daemon needs when a single client crashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerEntry {
    /// `SvA`: nodes capable of running a server, in insertion order.
    pub servers: NodeList,
    /// Per server node, the reference counts of clients bound to it.
    pub use_lists: BTreeMap<NodeId, BTreeMap<ClientId, u32>>,
}

impl ServerEntry {
    /// Creates an entry with the given server set and empty use lists.
    pub fn new(servers: impl Into<NodeList>) -> Self {
        ServerEntry {
            servers: servers.into(),
            use_lists: BTreeMap::new(),
        }
    }

    /// Servers whose use list is non-empty (the object is activated there).
    pub(crate) fn active_servers(&self) -> NodeList {
        self.servers
            .iter()
            .copied()
            .filter(|n| self.use_lists.get(n).is_some_and(|ul| !ul.is_empty()))
            .collect()
    }

    /// Whether no client is using any server (quiescent / passive object).
    pub fn is_quiescent(&self) -> bool {
        self.use_lists.values().all(BTreeMap::is_empty)
    }

    /// Total of all use-list counters (diagnostics).
    pub fn total_uses(&self) -> u64 {
        self.use_lists
            .values()
            .flat_map(|ul| ul.values())
            .map(|&c| c as u64)
            .sum()
    }

    /// Whether some host's use list counts `client`.
    fn counts(&self, client: ClientId) -> bool {
        self.use_lists.values().any(|ul| ul.contains_key(&client))
    }
}

impl fmt::Display for ServerEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sv={{")?;
        for (i, s) in self.servers.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}} uses={}", self.total_uses())
    }
}

/// Operation counters for the Object Server database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerDbOps {
    /// `GetServer` calls served.
    pub get_server: u64,
    /// `Insert` calls served (including refused-as-not-quiescent).
    pub insert: u64,
    /// `Remove` calls served.
    pub remove: u64,
    /// `Increment` calls served.
    pub increment: u64,
    /// `Decrement` calls served.
    pub decrement: u64,
}

/// Table-side state of the Object Server database.
#[derive(Default)]
pub(crate) struct ServerSide {
    ops: ServerDbOps,
    /// `(client, uid)` for every object with a use-list entry of `client`,
    /// derived from the entries by [`Entry::reindex`]. It turns the cleanup
    /// daemon's two scans — "which clients appear in any use list" and
    /// "which entries mention this client" — from full-database walks into
    /// O(log n) lookups.
    use_index: BTreeSet<(ClientId, Uid)>,
    /// Cumulative `GetServer` + `Increment` traffic per object, never
    /// decremented and never undone on abort: a monotone popularity
    /// signal. Every binding scheme calls `GetServer` per bind, so this
    /// counts activations even under the standard scheme (which never
    /// touches use lists). The rebalancer reads it as a deterministic QPS
    /// proxy (it depends only on the workload execution, not on whether
    /// observability is enabled).
    lifetime_uses: BTreeMap<Uid, u64>,
    /// `(host, uid)` for every server a binder pruned from `SvA` as dead:
    /// it keeps its claim on the object, because §4.1.2 has the recovered
    /// server `Insert` itself again. Only a migration away or the node's
    /// decommissioning ([`ObjectServerDb::retire_server`],
    /// [`ObjectServerDb::retire_host`]) ends the claim. Never undone: an
    /// aborted prune leaves the host listed, and a listed host is served
    /// anyway.
    pruned: BTreeSet<(NodeId, Uid)>,
}

impl Entry for ServerEntry {
    type Key = Uid;
    type Query = Uid;
    type Side = ServerSide;

    fn lock_key(uid: &Uid) -> LockKey {
        server_entry_key(*uid)
    }

    fn reindex(side: &mut ServerSide, uid: &Uid, before: Option<&Self>, after: Option<&Self>) {
        for entry in before.into_iter().chain(after) {
            for &client in entry.use_lists.values().flat_map(BTreeMap::keys) {
                if after.is_some_and(|a| a.counts(client)) {
                    side.use_index.insert((client, *uid));
                } else {
                    side.use_index.remove(&(client, *uid));
                }
            }
        }
    }
}

/// The Object Server database (`UID → SvA` mappings).
///
/// All operations execute on behalf of an atomic action: they lock the
/// entry in the appropriate mode (`GetServer` reads; everything else
/// writes) and mutate it in place; the entry's before-image is restored if
/// the surrounding action aborts. Locks follow strict 2PL, so uncommitted
/// changes are never visible to other actions.
///
/// Methods here run *at the database's node*; remote callers reach them
/// through [`crate::NamingService::remote`].
#[derive(Clone)]
pub struct ObjectServerDb {
    table: Table<ServerEntry>,
}

impl fmt::Debug for ObjectServerDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectServerDb")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl ObjectServerDb {
    /// Creates an empty database managed by the given action service.
    pub fn new(tx: &TxSystem) -> Self {
        ObjectServerDb {
            table: Table::new(tx),
        }
    }

    /// Creates the entry for a new object with server set `servers`.
    ///
    /// # Errors
    ///
    /// [`DbError::AlreadyExists`] or a lock refusal.
    pub(crate) fn create_entry(
        &self,
        action: ActionId,
        uid: Uid,
        servers: impl Into<NodeList>,
    ) -> Result<(), DbError> {
        self.table.write(action, &uid, LockMode::Write, |slot, _| {
            if slot.get().is_some() {
                return Err(DbError::AlreadyExists(uid));
            }
            slot.set(Some(ServerEntry::new(servers)));
            Ok(())
        })
    }

    /// `GetServer(objectname)`: returns the entry (server list and use
    /// lists) under a lock of the caller's choosing — `Read` for the
    /// standard scheme, `Write` when the caller will update the entry in the
    /// same action (avoids upgrade livelock between concurrent binders).
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn get_server_locked(
        &self,
        action: ActionId,
        uid: Uid,
        mode: LockMode,
    ) -> Result<ServerEntry, DbError> {
        self.table.read(action, &uid, mode, |entry, side| {
            side.ops.get_server += 1;
            let entry = entry.cloned().ok_or(DbError::NotFound(uid))?;
            *side.lifetime_uses.entry(uid).or_insert(0) += 1;
            Ok(entry)
        })
    }

    /// `GetServer` under a read lock (the common case).
    ///
    /// # Errors
    ///
    /// See [`ObjectServerDb::get_server_locked`].
    pub fn get_server(&self, action: ActionId, uid: Uid) -> Result<ServerEntry, DbError> {
        self.get_server_locked(action, uid, LockMode::Read)
    }

    /// `Insert(objectname, hostname)`: adds a server node.
    ///
    /// Per §4.1.2 this doubles as the quiescence check run by a recovered
    /// server node: it requires the entry's write lock **and** empty use
    /// lists. Returns whether the host was actually added (re-inserting an
    /// existing host still performs the quiescence check and succeeds as a
    /// no-op — that is exactly what a recovered node wants to know).
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`], [`DbError::NotQuiescent`], or a lock refusal.
    pub fn insert(&self, action: ActionId, uid: Uid, host: NodeId) -> Result<bool, DbError> {
        self.table
            .write(action, &uid, LockMode::Write, |slot, side| {
                side.ops.insert += 1;
                let entry = slot.get().ok_or(DbError::NotFound(uid))?;
                if !entry.is_quiescent() {
                    return Err(DbError::NotQuiescent(uid));
                }
                if entry.servers.contains(&host) {
                    return Ok(false);
                }
                if let Some(e) = slot.get_mut() {
                    e.servers.push(host);
                }
                Ok(true)
            })
    }

    /// `Remove(objectname, hostname)`: removes a server node and its use
    /// list. Returns whether the host was present.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn remove(&self, action: ActionId, uid: Uid, host: NodeId) -> Result<bool, DbError> {
        self.table
            .write(action, &uid, LockMode::Write, |slot, side| {
                side.ops.remove += 1;
                let entry = slot.get().ok_or(DbError::NotFound(uid))?;
                let Some(pos) = entry.servers.iter().position(|&s| s == host) else {
                    return Ok(false);
                };
                if let Some(e) = slot.get_mut() {
                    e.servers.remove(pos);
                    e.use_lists.remove(&host);
                }
                Ok(true)
            })
    }

    /// `Remove` of a server a binder found dead (Figures 7 and 8). The
    /// host keeps its claim on the object ([`ObjectServerDb::uids_served_by`]),
    /// so its recovery `Insert`s it again.
    ///
    /// # Errors
    ///
    /// As [`ObjectServerDb::remove`].
    pub(crate) fn prune(&self, action: ActionId, uid: Uid, host: NodeId) -> Result<bool, DbError> {
        let removed = self.remove(action, uid, host)?;
        if removed {
            self.table.with_side(|side| side.pruned.insert((host, uid)));
        }
        Ok(removed)
    }

    /// `Increment(client, hostnames...)`: bumps `client`'s counter in the
    /// use list of each named host (§4.1.3).
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn increment(
        &self,
        action: ActionId,
        client: ClientId,
        uid: Uid,
        hosts: &[NodeId],
    ) -> Result<(), DbError> {
        self.table
            .write(action, &uid, LockMode::Write, |slot, side| {
                side.ops.increment += 1;
                let entry = slot.get_mut().ok_or(DbError::NotFound(uid))?;
                *side.lifetime_uses.entry(uid).or_insert(0) += 1;
                for &host in hosts {
                    *entry
                        .use_lists
                        .entry(host)
                        .or_default()
                        .entry(client)
                        .or_insert(0) += 1;
                }
                Ok(())
            })
    }

    /// `Decrement(client, hostnames...)`: the complement of `Increment`.
    /// Counters saturate at zero and empty entries are pruned.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn decrement(
        &self,
        action: ActionId,
        client: ClientId,
        uid: Uid,
        hosts: &[NodeId],
    ) -> Result<(), DbError> {
        self.table
            .write(action, &uid, LockMode::Write, |slot, side| {
                side.ops.decrement += 1;
                let entry = slot.get().ok_or(DbError::NotFound(uid))?;
                let counted = |h: &NodeId| {
                    entry
                        .use_lists
                        .get(h)
                        .is_some_and(|ul| ul.contains_key(&client))
                };
                if !hosts.iter().any(counted) {
                    return Ok(());
                }
                let Some(entry) = slot.get_mut() else {
                    return Ok(());
                };
                for host in hosts {
                    let Some(ul) = entry.use_lists.get_mut(host) else {
                        continue;
                    };
                    let Some(c) = ul.get_mut(&client) else {
                        continue;
                    };
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        ul.remove(&client);
                        if ul.is_empty() {
                            entry.use_lists.remove(host);
                        }
                    }
                }
                Ok(())
            })
    }

    /// Removes every use-list entry of `client` across all objects and
    /// hosts (cleanup after a client crash), pruning the use lists it
    /// empties. Returns `(uid, host)` pairs cleaned.
    ///
    /// # Errors
    ///
    /// A lock refusal on any affected entry (nothing else).
    pub fn purge_client(
        &self,
        action: ActionId,
        client: ClientId,
    ) -> Result<Vec<(Uid, NodeId)>, DbError> {
        // Find affected entries from the use index — one O(log n) range
        // instead of a full-database scan (no locks needed: the sweep
        // re-checks under the entry lock before mutating).
        let affected: Vec<Uid> = self.table.with_side(|side| {
            side.use_index
                .range((client, Uid::from_raw(0))..=(client, Uid::from_raw(u64::MAX)))
                .map(|&(_, uid)| uid)
                .collect()
        });
        let mut cleaned = Vec::new();
        for uid in affected {
            self.table.write(action, &uid, LockMode::Write, |slot, _| {
                if !slot.get().is_some_and(|e| e.counts(client)) {
                    return Ok(());
                }
                if let Some(entry) = slot.get_mut() {
                    entry.use_lists.retain(|&host, ul| {
                        if ul.remove(&client).is_some() {
                            cleaned.push((uid, host));
                        }
                        !ul.is_empty()
                    });
                }
                Ok(())
            })?;
        }
        Ok(cleaned)
    }

    // ----- unlocked introspection (tests, metrics, daemons) -------------

    /// Snapshot of an entry without locking (diagnostics only).
    pub fn entry(&self, uid: Uid) -> Option<ServerEntry> {
        self.table.get(&uid)
    }

    /// All object UIDs with entries, sorted (the map iterates in key
    /// order, so this is a plain collect — no sort pass).
    pub fn uids(&self) -> Vec<Uid> {
        self.table.keys()
    }

    /// Number of entries (cheaper than `uids().len()`).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// UIDs whose server set contains `host`, sorted. Recovery uses this
    /// to find the objects a restarted node should re-register for,
    /// without cloning whole entries.
    pub fn uids_hosting(&self, host: NodeId) -> Vec<Uid> {
        self.table.keys_where(|e| e.servers.contains(&host))
    }

    /// The objects `host` serves, sorted: those whose `SvA` lists it, and
    /// those a binder pruned it from that no migration has moved away
    /// since. A recovered server re-`Insert`s itself into each (§4.1.2).
    pub(crate) fn uids_served_by(&self, host: NodeId) -> Vec<Uid> {
        let mut uids = self.uids_hosting(host);
        let listed = uids.len();
        self.table.with_side(|side| {
            let range = (host, Uid::from_raw(0))..=(host, Uid::from_raw(u64::MAX));
            uids.extend(side.pruned.range(range).map(|&(_, uid)| uid));
        });
        if uids.len() > listed {
            uids.sort_unstable();
            uids.dedup();
        }
        uids
    }

    /// Whether `host` serves `uid` (see [`ObjectServerDb::uids_served_by`]).
    pub(crate) fn is_served_by(&self, uid: Uid, host: NodeId) -> bool {
        self.table
            .get(&uid)
            .is_some_and(|e| e.servers.contains(&host))
            || self
                .table
                .with_side(|side| side.pruned.contains(&(host, uid)))
    }

    /// Ends `host`'s claim on `uid` once a committed migration has moved
    /// the server role away: its recovery no longer re-`Insert`s it.
    pub fn retire_server(&self, uid: Uid, host: NodeId) {
        self.table
            .with_side(|side| side.pruned.remove(&(host, uid)));
    }

    /// Ends every claim `host` kept through a prune: a decommissioned
    /// node serves nothing, whatever it was pruned from.
    pub fn retire_host(&self, host: NodeId) {
        self.table
            .with_side(|side| side.pruned.retain(|&(h, _)| h != host));
    }

    /// Cumulative `GetServer` + `Increment` count for `uid` over the
    /// database's whole lifetime (monotone; aborts do not subtract). Zero
    /// for unknown or never-used objects.
    pub fn lifetime_uses(&self, uid: Uid) -> u64 {
        self.table
            .with_side(|side| side.lifetime_uses.get(&uid).copied().unwrap_or(0))
    }

    /// Every client appearing in some use list (sorted, deduplicated).
    /// The cleanup daemon checks these against liveness. Served straight
    /// from the use index.
    pub fn clients_in_use(&self) -> Vec<ClientId> {
        let mut clients: Vec<ClientId> = self
            .table
            .with_side(|side| side.use_index.iter().map(|&(client, _)| client).collect());
        clients.dedup();
        clients
    }

    /// Operation counters.
    pub fn ops(&self) -> ServerDbOps {
        self.table.with_side(|side| side.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::{Sim, SimConfig};
    use groupview_store::Stores;

    fn world() -> (Sim, TxSystem, ObjectServerDb) {
        let sim = Sim::new(SimConfig::new(21).with_nodes(4));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let db = ObjectServerDb::new(&tx);
        (sim, tx, db)
    }

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    fn setup_entry(tx: &TxSystem, db: &ObjectServerDb) {
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid(), vec![n(1), n(2)]).unwrap();
        tx.commit(a).unwrap();
    }

    #[test]
    fn create_get_roundtrip() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        let e = db.get_server(a, uid()).unwrap();
        assert_eq!(e.servers, vec![n(1), n(2)]);
        assert!(e.is_quiescent());
        tx.commit(a).unwrap();
        assert_eq!(db.uids(), vec![uid()]);
        assert_eq!(db.ops().get_server, 1);
    }

    #[test]
    fn create_duplicate_fails() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        assert_eq!(
            db.create_entry(a, uid(), vec![n(3)]),
            Err(DbError::AlreadyExists(uid()))
        );
        tx.abort(a);
    }

    #[test]
    fn create_undone_on_abort() {
        let (_, tx, db) = world();
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid(), vec![n(1)]).unwrap();
        tx.abort(a);
        assert_eq!(db.entry(uid()), None);
    }

    #[test]
    fn get_server_missing_entry() {
        let (_, tx, db) = world();
        let a = tx.begin_top(n(0));
        assert_eq!(db.get_server(a, uid()), Err(DbError::NotFound(uid())));
        tx.abort(a);
    }

    #[test]
    fn insert_remove_with_undo() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        // Insert n3, commit: persists.
        let a = tx.begin_top(n(0));
        assert!(db.insert(a, uid(), n(3)).unwrap());
        assert!(!db.insert(a, uid(), n(3)).unwrap(), "re-insert is a no-op");
        tx.commit(a).unwrap();
        assert_eq!(db.entry(uid()).unwrap().servers, vec![n(1), n(2), n(3)]);
        // Remove n1 then abort: restored at its old position.
        let b = tx.begin_top(n(0));
        assert!(db.remove(b, uid(), n(1)).unwrap());
        assert!(!db.remove(b, uid(), n(1)).unwrap());
        assert_eq!(db.entry(uid()).unwrap().servers, vec![n(2), n(3)]);
        tx.abort(b);
        assert_eq!(db.entry(uid()).unwrap().servers, vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn insert_requires_quiescence() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        // Object in use: a recovered server node's Insert must be refused.
        let b = tx.begin_top(n(0));
        assert_eq!(db.insert(b, uid(), n(3)), Err(DbError::NotQuiescent(uid())));
        tx.abort(b);
        // After the client decrements, Insert succeeds.
        let d = tx.begin_top(n(0));
        db.decrement(d, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(d).unwrap();
        let e = tx.begin_top(n(0));
        assert!(db.insert(e, uid(), n(3)).unwrap());
        tx.commit(e).unwrap();
    }

    #[test]
    fn increment_decrement_lifecycle() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1), n(2)]).unwrap();
        db.increment(a, c(2), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        let e = db.entry(uid()).unwrap();
        assert_eq!(e.total_uses(), 3);
        assert_eq!(e.active_servers(), vec![n(1), n(2)]);
        assert_eq!(
            e.use_lists[&n(1)].keys().collect::<Vec<_>>(),
            [&c(1), &c(2)]
        );
        assert!(!e.is_quiescent());
        // Decrement c1 everywhere.
        let b = tx.begin_top(n(0));
        db.decrement(b, c(1), uid(), &[n(1), n(2)]).unwrap();
        tx.commit(b).unwrap();
        let e = db.entry(uid()).unwrap();
        assert_eq!(e.total_uses(), 1);
        assert_eq!(e.active_servers(), vec![n(1)]);
    }

    #[test]
    fn increment_undone_on_abort() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1)]).unwrap();
        tx.abort(a);
        assert!(db.entry(uid()).unwrap().is_quiescent());
    }

    #[test]
    fn decrement_undone_on_abort() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        db.decrement(b, c(1), uid(), &[n(1)]).unwrap();
        assert!(db.entry(uid()).unwrap().is_quiescent());
        tx.abort(b);
        assert_eq!(db.entry(uid()).unwrap().total_uses(), 1);
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.decrement(a, c(9), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        assert!(db.entry(uid()).unwrap().is_quiescent());
    }

    #[test]
    fn remove_drops_use_list_and_abort_restores_it() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        db.remove(b, uid(), n(1)).unwrap();
        assert!(db.entry(uid()).unwrap().is_quiescent());
        tx.abort(b);
        let e = db.entry(uid()).unwrap();
        assert_eq!(
            e.use_lists[&n(1)].keys().collect::<Vec<_>>(),
            [&c(1)],
            "use list restored"
        );
    }

    #[test]
    fn concurrent_readers_share_writer_refused() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let r1 = tx.begin_top(n(0));
        let r2 = tx.begin_top(n(3));
        db.get_server(r1, uid()).unwrap();
        db.get_server(r2, uid()).unwrap();
        let w = tx.begin_top(n(0));
        let err = db.insert(w, uid(), n(3)).unwrap_err();
        assert!(matches!(
            err,
            DbError::Tx(groupview_actions::TxError::LockRefused { .. })
        ));
        tx.abort(w);
        tx.commit(r1).unwrap();
        tx.commit(r2).unwrap();
        assert!(tx.locks_empty());
    }

    #[test]
    fn purge_client_cleans_all_entries() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let uid2 = Uid::from_raw(2);
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid2, vec![n(2)]).unwrap();
        db.increment(a, c(1), uid(), &[n(1), n(2)]).unwrap();
        db.increment(a, c(1), uid2, &[n(2)]).unwrap();
        db.increment(a, c(2), uid2, &[n(2)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        let mut cleaned = db.purge_client(b, c(1)).unwrap();
        cleaned.sort_unstable();
        assert_eq!(cleaned, vec![(uid(), n(1)), (uid(), n(2)), (uid2, n(2))]);
        tx.commit(b).unwrap();
        assert!(db.entry(uid()).unwrap().is_quiescent());
        assert_eq!(db.entry(uid2).unwrap().total_uses(), 1, "c2 untouched");
    }

    #[test]
    fn purge_undone_on_abort() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        db.purge_client(b, c(1)).unwrap();
        tx.abort(b);
        assert_eq!(db.entry(uid()).unwrap().total_uses(), 1);
    }

    #[test]
    fn purging_the_only_client_leaves_a_fresh_entry() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1), n(2)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        db.purge_client(b, c(1)).unwrap();
        tx.commit(b).unwrap();
        assert_eq!(
            db.entry(uid()),
            Some(ServerEntry::new(vec![n(1), n(2)])),
            "no emptied use list is left behind"
        );
    }

    #[test]
    fn entry_display() {
        let e = ServerEntry::new(vec![n(1), n(2)]);
        assert_eq!(e.to_string(), "Sv={n1,n2} uses=0");
    }

    #[test]
    fn use_index_survives_aborts() {
        let (_, tx, db) = world();
        setup_entry(&tx, &db);
        // Aborted increment leaves the index empty.
        let a = tx.begin_top(n(0));
        db.increment(a, c(1), uid(), &[n(1), n(2)]).unwrap();
        assert_eq!(db.clients_in_use(), vec![c(1)]);
        tx.abort(a);
        assert!(db.clients_in_use().is_empty());
        // Committed increment, aborted decrement: the client stays indexed.
        let b = tx.begin_top(n(0));
        db.increment(b, c(1), uid(), &[n(1)]).unwrap();
        tx.commit(b).unwrap();
        let d = tx.begin_top(n(0));
        db.decrement(d, c(1), uid(), &[n(1)]).unwrap();
        assert!(db.clients_in_use().is_empty());
        tx.abort(d);
        assert_eq!(db.clients_in_use(), vec![c(1)]);
        // Aborted remove restores the host's use list into the index.
        let e = tx.begin_top(n(0));
        db.remove(e, uid(), n(1)).unwrap();
        assert!(db.clients_in_use().is_empty());
        tx.abort(e);
        assert_eq!(db.clients_in_use(), vec![c(1)]);
        // Aborted purge restores; committed purge clears.
        let f = tx.begin_top(n(0));
        db.purge_client(f, c(1)).unwrap();
        tx.abort(f);
        assert_eq!(db.clients_in_use(), vec![c(1)]);
        let g = tx.begin_top(n(0));
        assert_eq!(db.purge_client(g, c(1)).unwrap(), vec![(uid(), n(1))]);
        tx.commit(g).unwrap();
        assert!(db.clients_in_use().is_empty());
    }

    #[test]
    fn indexed_lookups_scale_to_fifty_thousand_entries() {
        let (_, tx, db) = world();
        const N: u64 = 50_000;
        // Registration: every object gets an entry, alternating hosts;
        // every 10th is put in use by one client.
        let a = tx.begin_top(n(0));
        for i in 0..N {
            let u = Uid::from_raw(i + 1);
            let host = if i % 2 == 0 { n(1) } else { n(2) };
            db.create_entry(a, u, vec![host]).unwrap();
            if i % 10 == 0 {
                db.increment(a, c(7), u, &[host]).unwrap();
            }
        }
        tx.commit(a).unwrap();
        assert_eq!(db.len(), N as usize);
        let uids = db.uids();
        assert_eq!(uids.len(), N as usize);
        assert!(
            uids.windows(2).all(|w| w[0] < w[1]),
            "sorted without a sort pass"
        );
        assert_eq!(db.uids_hosting(n(1)).len(), 25_000);
        assert_eq!(db.clients_in_use(), vec![c(7)]);

        // Registration of a recovered node on a quiescent entry.
        let b = tx.begin_top(n(0));
        assert!(db.insert(b, Uid::from_raw(2), n(3)).unwrap());
        tx.commit(b).unwrap();
        assert_eq!(db.uids_hosting(n(3)), vec![Uid::from_raw(2)]);

        // Expel: removing a host drops its use list from the index too.
        let d = tx.begin_top(n(0));
        assert!(db.remove(d, Uid::from_raw(1), n(1)).unwrap());
        tx.commit(d).unwrap();
        assert_eq!(db.uids_hosting(n(1)).len(), 24_999);

        // The reverse index hands the purge its affected set directly.
        let p = tx.begin_top(n(0));
        let cleaned = db.purge_client(p, c(7)).unwrap();
        assert_eq!(cleaned.len(), 4_999);
        tx.commit(p).unwrap();
        assert!(db.clients_in_use().is_empty());
    }
}
