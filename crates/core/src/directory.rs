//! The name directory: user-given names → UIDs (§2.2).
//!
//! "The naming and binding service provides a mapping from user-given names
//! of objects to UIDs, and from UIDs to location information." The location
//! half lives in [`crate::ObjectServerDb`] / [`crate::ObjectStateDb`]; this
//! module supplies the first half: a hierarchical-free, flat directory of
//! string names, held by [`crate::NamingService`] beside the two databases
//! and built the same way (per-name locks, entries restored on abort).

use crate::error::DbError;
use crate::keys::name_key;
use crate::table::{Entry, Table};
use groupview_actions::{ActionId, LockKey, LockMode, TxSystem};
use groupview_store::Uid;
use std::fmt;

/// A directory entry is the UID a name is bound to.
impl Entry for Uid {
    type Key = String;
    type Query = str;
    type Side = ();

    fn lock_key(name: &str) -> LockKey {
        name_key(name)
    }
}

/// A flat directory mapping application-level names to [`Uid`]s.
///
/// Operations run at the directory's node under the caller's atomic action:
/// `lookup` takes a read lock on the name, `bind_name`/`unbind_name` take a
/// write lock, so directory updates commit or abort together with the rest
/// of the action (e.g. object creation). Remote callers reach it through
/// [`crate::NamingService::remote`].
#[derive(Clone)]
pub struct Directory {
    table: Table<Uid>,
}

impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Directory")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Directory {
    /// Creates an empty directory managed by the given action service.
    pub fn new(tx: &TxSystem) -> Self {
        Directory {
            table: Table::new(tx),
        }
    }

    /// Binds `name` to `uid` within `action`.
    ///
    /// # Errors
    ///
    /// [`DbError::AlreadyExists`] if the name is taken (by a different UID),
    /// or a lock refusal.
    pub fn bind_name(&self, action: ActionId, name: &str, uid: Uid) -> Result<(), DbError> {
        self.table.write(action, name, LockMode::Write, |slot, _| {
            match slot.get().copied() {
                Some(existing) if existing == uid => Ok(()), // idempotent
                Some(_) => Err(DbError::AlreadyExists(uid)),
                None => {
                    slot.set(Some(uid));
                    Ok(())
                }
            }
        })
    }

    /// Looks `name` up within `action` (read lock on the name).
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] (with a nil UID) for unknown names, or a lock
    /// refusal.
    pub fn lookup(&self, action: ActionId, name: &str) -> Result<Uid, DbError> {
        self.table.read(action, name, LockMode::Read, |entry, _| {
            entry.copied().ok_or(DbError::NotFound(Uid::from_raw(0)))
        })
    }

    /// Removes `name` within `action`. Returns whether it existed.
    ///
    /// # Errors
    ///
    /// A lock refusal.
    pub fn unbind_name(&self, action: ActionId, name: &str) -> Result<bool, DbError> {
        self.table.write(action, name, LockMode::Write, |slot, _| {
            let bound = slot.get().is_some();
            if bound {
                slot.set(None);
            }
            Ok(bound)
        })
    }

    /// All bound names, sorted (diagnostics; no locks).
    pub fn names(&self) -> Vec<String> {
        self.table.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::{NodeId, Sim, SimConfig};
    use groupview_store::Stores;

    fn world() -> (Sim, TxSystem, Directory) {
        let sim = Sim::new(SimConfig::new(66).with_nodes(3));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let dir = Directory::new(&tx);
        (sim, tx, dir)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bind_lookup_unbind_roundtrip() {
        let (_, tx, dir) = world();
        let uid = Uid::from_raw(7);
        let a = tx.begin_top(n(0));
        dir.bind_name(a, "accounts/alice", uid).unwrap();
        assert_eq!(dir.lookup(a, "accounts/alice"), Ok(uid));
        tx.commit(a).unwrap();

        let b = tx.begin_top(n(0));
        assert_eq!(dir.lookup(b, "accounts/alice"), Ok(uid));
        assert!(dir.unbind_name(b, "accounts/alice").unwrap());
        assert!(!dir.unbind_name(b, "accounts/alice").unwrap());
        tx.commit(b).unwrap();
        assert!(dir.names().is_empty());
    }

    #[test]
    fn bind_is_idempotent_but_collisions_fail() {
        let (_, tx, dir) = world();
        let a = tx.begin_top(n(0));
        dir.bind_name(a, "x", Uid::from_raw(1)).unwrap();
        dir.bind_name(a, "x", Uid::from_raw(1)).unwrap();
        assert_eq!(
            dir.bind_name(a, "x", Uid::from_raw(2)),
            Err(DbError::AlreadyExists(Uid::from_raw(2)))
        );
        tx.commit(a).unwrap();
    }

    #[test]
    fn abort_undoes_bind_and_unbind() {
        let (_, tx, dir) = world();
        let uid = Uid::from_raw(3);
        let a = tx.begin_top(n(0));
        dir.bind_name(a, "keep", uid).unwrap();
        tx.commit(a).unwrap();

        let b = tx.begin_top(n(0));
        dir.bind_name(b, "temp", Uid::from_raw(4)).unwrap();
        dir.unbind_name(b, "keep").unwrap();
        tx.abort(b);
        assert_eq!(dir.names(), vec!["keep".to_string()]);
        let c = tx.begin_top(n(0));
        assert_eq!(dir.lookup(c, "keep"), Ok(uid));
        tx.commit(c).unwrap();
    }

    #[test]
    fn unknown_name_not_found() {
        let (_, tx, dir) = world();
        let a = tx.begin_top(n(0));
        assert!(matches!(dir.lookup(a, "ghost"), Err(DbError::NotFound(_))));
        tx.abort(a);
    }

    #[test]
    fn per_name_locking_allows_disjoint_writers() {
        let (_, tx, dir) = world();
        let a = tx.begin_top(n(0));
        let b = tx.begin_top(n(1));
        dir.bind_name(a, "a-name", Uid::from_raw(1)).unwrap();
        dir.bind_name(b, "b-name", Uid::from_raw(2)).unwrap();
        // Same name conflicts:
        let err = dir.bind_name(b, "a-name", Uid::from_raw(3)).unwrap_err();
        assert!(matches!(
            err,
            DbError::Tx(groupview_actions::TxError::LockRefused { .. })
        ));
        tx.commit(a).unwrap();
        tx.commit(b).unwrap();
        assert_eq!(dir.names().len(), 2);
    }

    #[test]
    fn readers_share_names() {
        let (_, tx, dir) = world();
        let setup = tx.begin_top(n(0));
        dir.bind_name(setup, "shared", Uid::from_raw(9)).unwrap();
        tx.commit(setup).unwrap();
        let a = tx.begin_top(n(0));
        let b = tx.begin_top(n(1));
        assert!(dir.lookup(a, "shared").is_ok());
        assert!(dir.lookup(b, "shared").is_ok());
        tx.commit(a).unwrap();
        tx.commit(b).unwrap();
    }
}
