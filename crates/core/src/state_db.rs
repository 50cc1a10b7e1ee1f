//! The Object State database: `UID → StA` (§4.2).

use crate::error::DbError;
use crate::keys::state_entry_key;
use crate::table::{Entry, Table};
use groupview_actions::{ActionId, LockKey, LockMode, TxSystem};
use groupview_sim::{NodeId, NodeList};
use groupview_store::Uid;
use std::fmt;

/// One object's entry: the set `StA` of nodes whose object stores hold a
/// (current) state of the object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateEntry {
    /// `StA`, in insertion order.
    pub stores: NodeList,
}

impl StateEntry {
    /// Creates an entry with the given store set.
    pub fn new(stores: impl Into<NodeList>) -> Self {
        StateEntry {
            stores: stores.into(),
        }
    }

    /// Whether `node` is listed.
    pub fn contains(&self, node: NodeId) -> bool {
        self.stores.contains(&node)
    }

    /// Number of listed stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the object has no listed store (it is then unavailable).
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

impl fmt::Display for StateEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "St={{")?;
        for (i, s) in self.stores.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

/// How `Exclude` obtains its lock when the committing client already holds
/// a read lock on the entry (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExcludePolicy {
    /// Promote the read lock to a plain write lock. Refused whenever any
    /// other client holds a read lock — the paper's noted disadvantage.
    PromoteToWrite,
    /// Use the type-specific exclude-write lock, which is compatible with
    /// read locks: concurrent readers do not block the exclusion.
    ExcludeWriteLock,
}

impl ExcludePolicy {
    /// The lock mode this policy requests.
    pub(crate) fn mode(self) -> LockMode {
        match self {
            ExcludePolicy::PromoteToWrite => LockMode::Write,
            ExcludePolicy::ExcludeWriteLock => LockMode::ExcludeWrite,
        }
    }
}

/// Operation counters for the Object State database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDbOps {
    /// `GetView` calls served.
    pub get_view: u64,
    /// `Include` calls served.
    pub include: u64,
    /// `Exclude` calls served (batch = one call).
    pub exclude: u64,
    /// Individual store-node exclusions applied.
    pub excluded_nodes: u64,
}

impl Entry for StateEntry {
    type Key = Uid;
    type Query = Uid;
    type Side = StateDbOps;

    fn lock_key(uid: &Uid) -> LockKey {
        state_entry_key(*uid)
    }
}

/// The Object State database (`UID → StA` mappings).
///
/// Servers call [`ObjectStateDb::get_view`] to find stores to load from and
/// [`ObjectStateDb::exclude`] at commit time to prune stores that missed the
/// state write; a recovered store node calls [`ObjectStateDb::include`]
/// after refreshing its states (§4.2). As with the server database, each
/// entry is independently lock-controlled and restored on abort.
#[derive(Clone)]
pub struct ObjectStateDb {
    table: Table<StateEntry>,
}

impl fmt::Debug for ObjectStateDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStateDb")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl ObjectStateDb {
    /// Creates an empty database managed by the given action service.
    pub fn new(tx: &TxSystem) -> Self {
        ObjectStateDb {
            table: Table::new(tx),
        }
    }

    /// Creates the entry for a new object with store set `stores`.
    ///
    /// # Errors
    ///
    /// [`DbError::AlreadyExists`] or a lock refusal.
    pub(crate) fn create_entry(
        &self,
        action: ActionId,
        uid: Uid,
        stores: impl Into<NodeList>,
    ) -> Result<(), DbError> {
        self.table.write(action, &uid, LockMode::Write, |slot, _| {
            if slot.get().is_some() {
                return Err(DbError::AlreadyExists(uid));
            }
            slot.set(Some(StateEntry::new(stores)));
            Ok(())
        })
    }

    /// `GetView(objectname)`: the list of store nodes, under a read lock.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn get_view(&self, action: ActionId, uid: Uid) -> Result<StateEntry, DbError> {
        self.table.read(action, &uid, LockMode::Read, |entry, ops| {
            ops.get_view += 1;
            entry.cloned().ok_or(DbError::NotFound(uid))
        })
    }

    /// `Include(objectname, hostname)`: re-adds a store node whose object
    /// store again holds the latest committed state. Returns whether the
    /// host was actually added.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] or a lock refusal.
    pub fn include(&self, action: ActionId, uid: Uid, host: NodeId) -> Result<bool, DbError> {
        self.table
            .write(action, &uid, LockMode::Write, |slot, ops| {
                ops.include += 1;
                if slot.get().ok_or(DbError::NotFound(uid))?.contains(host) {
                    return Ok(false);
                }
                if let Some(e) = slot.get_mut() {
                    e.stores.push(host);
                }
                Ok(true)
            })
    }

    /// `Exclude(<objectname, nodelist>, ...)`: removes, for each object in
    /// the batch, the named store nodes from its `St` set — the paper's
    /// commit-time guarantee that `StA` only names nodes holding mutually
    /// consistent, latest states.
    ///
    /// The lock mode is chosen by `policy` (§4.2.1): plain write (read-lock
    /// promotion — refused under concurrent readers) or the type-specific
    /// exclude-write lock (compatible with readers). Returns the number of
    /// store-node entries removed.
    ///
    /// An exclusion never empties `StA`: a committer whose view went stale
    /// (the exclude-write lock lets a concurrent commit shrink the entry
    /// under its read lock) could otherwise exclude the last listed store,
    /// leaving the object with no store at all. Such a batch is refused
    /// whole, and per §2.3(3) — every store of `StA` missed the copy — the
    /// caller's action must abort.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] for an unknown object,
    /// [`DbError::LastStore`] for an exclusion that would leave an
    /// entry empty, or a lock refusal — in which case, per the paper, the
    /// caller's action must abort. A refused batch changes nothing.
    pub fn exclude(
        &self,
        action: ActionId,
        batch: &[(Uid, Vec<NodeId>)],
        policy: ExcludePolicy,
    ) -> Result<usize, DbError> {
        // Lock and check everything first so the batch is all-or-nothing.
        for (uid, _) in batch {
            let excluded =
                |s: &NodeId| batch.iter().any(|(u, nodes)| u == uid && nodes.contains(s));
            self.table.read(action, uid, policy.mode(), |entry, _| {
                let entry = entry.ok_or(DbError::NotFound(*uid))?;
                if entry.stores.iter().all(excluded) {
                    return Err(DbError::LastStore(*uid));
                }
                Ok(())
            })?;
        }
        let mut total = 0;
        for (uid, nodes) in batch {
            total += self.table.update(action, uid, |slot, _| {
                if !slot
                    .get()
                    .is_some_and(|e| nodes.iter().any(|&n| e.contains(n)))
                {
                    return Ok(0);
                }
                let Some(e) = slot.get_mut() else {
                    return Ok(0);
                };
                let listed = e.stores.len();
                e.stores.retain(|s| !nodes.contains(s));
                Ok(listed - e.stores.len())
            })?;
        }
        self.table.with_side(|ops| {
            ops.exclude += 1;
            ops.excluded_nodes += total as u64;
        });
        Ok(total)
    }

    // ----- unlocked introspection ---------------------------------------

    /// Snapshot of an entry without locking (diagnostics only).
    pub fn entry(&self, uid: Uid) -> Option<StateEntry> {
        self.table.get(&uid)
    }

    /// All object UIDs with entries, sorted (map key order — no sort pass).
    pub fn uids(&self) -> Vec<Uid> {
        self.table.keys()
    }

    /// UIDs whose store set contains `host`, sorted — the state-side twin
    /// of [`crate::ObjectServerDb::uids_hosting`], without cloning entries.
    pub fn uids_hosting(&self, host: NodeId) -> Vec<Uid> {
        self.table.keys_where(|e| e.contains(host))
    }

    /// Operation counters.
    pub fn ops(&self) -> StateDbOps {
        self.table.with_side(|ops| *ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::{Sim, SimConfig};
    use groupview_store::Stores;

    fn world() -> (Sim, TxSystem, ObjectStateDb) {
        let sim = Sim::new(SimConfig::new(22).with_nodes(5));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let db = ObjectStateDb::new(&tx);
        (sim, tx, db)
    }

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn setup(tx: &TxSystem, db: &ObjectStateDb, stores: Vec<NodeId>) {
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid(), stores).unwrap();
        tx.commit(a).unwrap();
    }

    #[test]
    fn create_get_view_roundtrip() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let a = tx.begin_top(n(0));
        let e = db.get_view(a, uid()).unwrap();
        assert_eq!(e.stores, vec![n(1), n(2)]);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert!(e.contains(n(1)));
        tx.commit(a).unwrap();
        assert_eq!(db.ops().get_view, 1);
        assert_eq!(db.uids(), vec![uid()]);
        assert_eq!(e.to_string(), "St={n1,n2}");
    }

    #[test]
    fn exclude_removes_and_abort_restores_order() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2), n(3)]);
        let a = tx.begin_top(n(0));
        let removed = db
            .exclude(
                a,
                &[(uid(), vec![n(1), n(3)])],
                ExcludePolicy::PromoteToWrite,
            )
            .unwrap();
        assert_eq!(removed, 2);
        assert_eq!(db.entry(uid()).unwrap().stores, vec![n(2)]);
        tx.abort(a);
        assert_eq!(
            db.entry(uid()).unwrap().stores,
            vec![n(1), n(2), n(3)],
            "abort must restore the original order"
        );
    }

    #[test]
    fn exclude_batch_spans_objects() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let uid2 = Uid::from_raw(2);
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid2, vec![n(2), n(3)]).unwrap();
        tx.commit(a).unwrap();
        let b = tx.begin_top(n(0));
        let removed = db
            .exclude(
                b,
                &[(uid(), vec![n(2)]), (uid2, vec![n(2), n(9)])],
                ExcludePolicy::ExcludeWriteLock,
            )
            .unwrap();
        assert_eq!(removed, 2, "n9 was not present and does not count");
        tx.commit(b).unwrap();
        assert_eq!(db.entry(uid()).unwrap().stores, vec![n(1)]);
        assert_eq!(db.entry(uid2).unwrap().stores, vec![n(3)]);
        assert_eq!(db.ops().excluded_nodes, 2);
    }

    #[test]
    fn promotion_policy_blocked_by_concurrent_reader() {
        // The §4.2.1 problem: reader R and committing client W both hold
        // read locks; W's promotion to Write is refused.
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let r = tx.begin_top(n(3));
        db.get_view(r, uid()).unwrap();
        let w = tx.begin_top(n(0));
        db.get_view(w, uid()).unwrap();
        let err = db
            .exclude(w, &[(uid(), vec![n(2)])], ExcludePolicy::PromoteToWrite)
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::Tx(groupview_actions::TxError::LockRefused { .. })
        ));
        tx.abort(w);
        tx.commit(r).unwrap();
    }

    #[test]
    fn exclude_write_policy_succeeds_under_readers() {
        // Same scenario with the type-specific lock: succeeds.
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let r = tx.begin_top(n(3));
        db.get_view(r, uid()).unwrap();
        let w = tx.begin_top(n(0));
        db.get_view(w, uid()).unwrap();
        let removed = db
            .exclude(w, &[(uid(), vec![n(2)])], ExcludePolicy::ExcludeWriteLock)
            .unwrap();
        assert_eq!(removed, 1);
        tx.commit(w).unwrap();
        tx.commit(r).unwrap();
        assert_eq!(db.entry(uid()).unwrap().stores, vec![n(1)]);
        assert!(tx.locks_empty());
    }

    #[test]
    fn two_concurrent_excluders_serialize() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let a = tx.begin_top(n(0));
        let b = tx.begin_top(n(3));
        db.exclude(a, &[(uid(), vec![n(1)])], ExcludePolicy::ExcludeWriteLock)
            .unwrap();
        let err = db
            .exclude(b, &[(uid(), vec![n(2)])], ExcludePolicy::ExcludeWriteLock)
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::Tx(groupview_actions::TxError::LockRefused { .. })
        ));
        tx.commit(a).unwrap();
        tx.abort(b);
    }

    #[test]
    fn an_exclusion_never_empties_st() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1), n(2)]);
        let uid2 = Uid::from_raw(2);
        let a = tx.begin_top(n(0));
        db.create_entry(a, uid2, vec![n(3), n(4)]).unwrap();
        tx.commit(a).unwrap();
        let empty = Err(DbError::LastStore(uid()));
        for policy in [
            ExcludePolicy::PromoteToWrite,
            ExcludePolicy::ExcludeWriteLock,
        ] {
            let b = tx.begin_top(n(0));
            // Every listed store at once, or in two parts of one batch; a
            // valid exclusion earlier in the batch is refused with it.
            let batches = [
                vec![(uid(), vec![n(1), n(2), n(3)])],
                vec![(uid2, vec![n(3)]), (uid(), vec![n(1)]), (uid(), vec![n(2)])],
            ];
            for batch in &batches {
                assert_eq!(db.exclude(b, batch, policy), empty, "{policy:?}");
            }
            assert_eq!(db.entry(uid()).unwrap().stores, vec![n(1), n(2)]);
            assert_eq!(db.entry(uid2).unwrap().stores, vec![n(3), n(4)]);
            assert_eq!(db.exclude(b, &[(uid(), vec![n(1)])], policy), Ok(1));
            assert_eq!(db.exclude(b, &[(uid(), vec![n(2)])], policy), empty);
            tx.abort(b);
        }
        assert_eq!(db.ops().exclude, 2, "refused batches are not counted");
        assert!(tx.locks_empty());
    }

    #[test]
    fn include_readds_with_undo() {
        let (_, tx, db) = world();
        setup(&tx, &db, vec![n(1)]);
        let a = tx.begin_top(n(0));
        assert!(db.include(a, uid(), n(2)).unwrap());
        assert!(!db.include(a, uid(), n(2)).unwrap(), "idempotent");
        tx.abort(a);
        assert_eq!(db.entry(uid()).unwrap().stores, vec![n(1)]);
        let b = tx.begin_top(n(0));
        db.include(b, uid(), n(2)).unwrap();
        tx.commit(b).unwrap();
        assert_eq!(db.entry(uid()).unwrap().stores, vec![n(1), n(2)]);
        assert_eq!(db.ops().include, 3);
    }

    #[test]
    fn unknown_objects_are_reported() {
        let (_, tx, db) = world();
        let a = tx.begin_top(n(0));
        assert_eq!(db.get_view(a, uid()), Err(DbError::NotFound(uid())));
        assert_eq!(db.include(a, uid(), n(1)), Err(DbError::NotFound(uid())));
        assert_eq!(
            db.exclude(a, &[(uid(), vec![n(1)])], ExcludePolicy::PromoteToWrite),
            Err(DbError::NotFound(uid()))
        );
        tx.abort(a);
    }

    #[test]
    fn policy_modes() {
        assert_eq!(ExcludePolicy::PromoteToWrite.mode(), LockMode::Write);
        assert_eq!(
            ExcludePolicy::ExcludeWriteLock.mode(),
            LockMode::ExcludeWrite
        );
    }
}
