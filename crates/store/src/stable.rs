//! One node's stable object store with a two-phase-commit intent log.

use crate::error::StoreError;
use crate::state::ObjectState;
use crate::uid::Uid;
use groupview_sim::{IdMap, NodeId};
use std::fmt;

/// Token naming a prepared transaction in a store's intent log.
///
/// The atomic-action layer uses its action ids here; the store layer only
/// needs an opaque stable identifier (keeping this crate below the actions
/// crate in the dependency order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxToken(u64);

impl TxToken {
    /// Wraps a raw transaction number.
    pub const fn new(raw: u64) -> Self {
        TxToken(raw)
    }

    /// The raw transaction number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0)
    }
}

/// A single node's stable object store.
///
/// Contents survive crashes of the owning node (paper §2.1: "any data stored
/// on stable storage remains unaffected by a crash"); *access* requires the
/// node to be up, which the [`crate::Stores`] registry enforces.
///
/// Besides committed object states the store keeps an **intent log** of
/// writes prepared by two-phase commit but not yet resolved. After a crash,
/// recovery inspects [`StableStore::indoubt`] and resolves each entry.
///
/// A committed intent leaves its emptied write-set behind as the store's
/// one spare, which [`StableStore::write_set`] hands to the next prepare
/// here: a steady stream of commits reuses one vector per store. In-doubt
/// and aborted intents are never reused.
#[derive(Debug, Clone)]
pub struct StableStore {
    node: NodeId,
    objects: IdMap<Uid, ObjectState>,
    intents: IdMap<TxToken, Vec<(Uid, ObjectState)>>,
    /// The write-set of the last committed intent, emptied.
    spare: Vec<(Uid, ObjectState)>,
}

impl StableStore {
    /// Creates an empty store owned by `node`.
    pub fn new(node: NodeId) -> Self {
        StableStore {
            node,
            objects: IdMap::default(),
            intents: IdMap::default(),
            spare: Vec::new(),
        }
    }

    /// The node owning this store.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Reads the committed state of `uid`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the store holds no state for `uid`.
    pub fn read(&self, uid: Uid) -> Result<ObjectState, StoreError> {
        self.objects
            .get(&uid)
            .cloned()
            .ok_or(StoreError::NotFound(uid))
    }

    /// Installs a committed state for `uid`, replacing any previous one.
    pub fn write(&mut self, uid: Uid, state: ObjectState) {
        self.objects.insert(uid, state);
    }

    /// Deletes the state for `uid`. Returns whether anything was removed.
    pub fn remove(&mut self, uid: Uid) -> bool {
        self.objects.remove(&uid).is_some()
    }

    /// Whether the store holds a state for `uid`.
    pub fn contains(&self, uid: Uid) -> bool {
        self.objects.contains_key(&uid)
    }

    /// All UIDs stored here, in unspecified order.
    pub fn uids(&self) -> Vec<Uid> {
        self.objects.keys().copied().collect()
    }

    /// Number of committed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store holds no committed objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    // ----- intent log (two-phase commit) -------------------------------

    /// Phase 1: durably records the writes of transaction `tx` without
    /// installing them.
    pub(crate) fn prepare(&mut self, tx: TxToken, writes: Vec<(Uid, ObjectState)>) {
        self.intents.insert(tx, writes);
    }

    /// Phase 2 (commit): installs the prepared writes of `tx`, except a
    /// write of an object this store already holds at a strictly newer
    /// version. That happens when `tx`'s phase-2 message was lost and
    /// later actions committed the object here before recovery resolved
    /// `tx`: the late resolution must not put the older state back.
    ///
    /// # Errors
    ///
    /// [`StoreError::TxUnknown`] if `tx` was never prepared here (or was
    /// already resolved).
    pub fn commit(&mut self, tx: TxToken) -> Result<(), StoreError> {
        let mut writes = self.intents.remove(&tx).ok_or(StoreError::TxUnknown(tx))?;
        for (uid, state) in writes.drain(..) {
            let newer_held = self
                .objects
                .get(&uid)
                .is_some_and(|held| held.version > state.version);
            if !newer_held {
                self.objects.insert(uid, state);
            }
        }
        self.spare = writes;
        Ok(())
    }

    /// Phase 2 (abort): discards the prepared writes of `tx`. Idempotent —
    /// aborting an unknown transaction is a no-op (presumed abort).
    pub fn abort(&mut self, tx: TxToken) {
        self.intents.remove(&tx);
    }

    /// An empty write-set for the next prepare here: the spare left by the
    /// last committed intent (its capacity kept), or a new vector.
    pub fn write_set(&mut self) -> Vec<(Uid, ObjectState)> {
        std::mem::take(&mut self.spare)
    }

    /// The unresolved transactions here whose staged writes include `uid`,
    /// sorted.
    pub fn indoubt_on(&self, uid: Uid) -> Vec<TxToken> {
        let mut v: Vec<TxToken> = self
            .intents
            .iter()
            .filter(|(_, writes)| writes.iter().any(|(u, _)| *u == uid))
            .map(|(&tx, _)| tx)
            .collect();
        v.sort_unstable();
        v
    }

    /// Transactions prepared here but not yet resolved; recovery must decide
    /// each one (this reproduction uses presumed-abort).
    pub fn indoubt(&self) -> Vec<TxToken> {
        let mut v: Vec<TxToken> = self.intents.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ObjectState, TypeTag, Version};

    fn st(data: &[u8]) -> ObjectState {
        ObjectState::initial(TypeTag::new(1), data.to_vec())
    }

    fn store() -> StableStore {
        StableStore::new(NodeId::new(0))
    }

    #[test]
    fn write_read_remove_roundtrip() {
        let mut s = store();
        let uid = Uid::from_raw(5);
        assert_eq!(s.read(uid), Err(StoreError::NotFound(uid)));
        s.write(uid, st(b"a"));
        assert_eq!(s.read(uid).unwrap().data, b"a");
        assert!(s.contains(uid));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(s.remove(uid));
        assert!(!s.remove(uid));
        assert!(s.is_empty());
    }

    #[test]
    fn uids_lists_everything() {
        let mut s = store();
        s.write(Uid::from_raw(1), st(b"x"));
        s.write(Uid::from_raw(2), st(b"y"));
        let mut uids = s.uids();
        uids.sort_unstable();
        assert_eq!(uids, vec![Uid::from_raw(1), Uid::from_raw(2)]);
    }

    #[test]
    fn prepare_then_commit_installs_writes() {
        let mut s = store();
        let uid = Uid::from_raw(9);
        s.write(uid, st(b"old"));
        let tx = TxToken::new(1);
        s.prepare(tx, vec![(uid, st(b"new"))]);
        // Not installed yet:
        assert_eq!(s.read(uid).unwrap().data, b"old");
        assert_eq!(s.indoubt(), vec![tx]);
        s.commit(tx).unwrap();
        assert_eq!(s.read(uid).unwrap().data, b"new");
        assert!(s.indoubt().is_empty());
        // Double commit is an error (already resolved).
        assert_eq!(s.commit(tx), Err(StoreError::TxUnknown(tx)));
    }

    #[test]
    fn a_late_resolved_intent_does_not_overwrite_a_newer_commit() {
        let mut s = store();
        let uid = Uid::from_raw(9);
        s.write(uid, st(b"v0"));
        let v1 = ObjectState {
            version: Version::new(1),
            ..st(b"v1")
        };
        let v2 = ObjectState {
            version: Version::new(2),
            ..st(b"v2")
        };
        // A's intent is staged; its phase-2 commit is lost, so it stays
        // in doubt while a later action B commits a newer state.
        let (a, b) = (TxToken::new(1), TxToken::new(2));
        s.prepare(a, vec![(uid, v1)]);
        s.prepare(b, vec![(uid, v2)]);
        s.commit(b).unwrap();
        // Recovery then resolves A as committed: B's state stays.
        s.commit(a).unwrap();
        assert_eq!(s.read(uid).unwrap().data, b"v2");
        assert_eq!(s.read(uid).unwrap().version, Version::new(2));
        assert!(s.indoubt().is_empty());
    }

    #[test]
    fn prepare_then_abort_discards_writes() {
        let mut s = store();
        let uid = Uid::from_raw(9);
        s.write(uid, st(b"old"));
        let tx = TxToken::new(2);
        s.prepare(tx, vec![(uid, st(b"new"))]);
        s.abort(tx);
        assert_eq!(s.read(uid).unwrap().data, b"old");
        // Presumed abort: aborting again (or an unknown tx) is fine.
        s.abort(tx);
        s.abort(TxToken::new(77));
    }

    #[test]
    fn indoubt_is_sorted_and_complete() {
        let mut s = store();
        s.prepare(TxToken::new(3), vec![]);
        s.prepare(TxToken::new(1), vec![]);
        assert_eq!(s.indoubt(), vec![TxToken::new(1), TxToken::new(3)]);
    }
}
