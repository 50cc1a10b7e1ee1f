//! Registry of all object stores in the world.

use crate::error::StoreError;
use crate::stable::{StableStore, TxToken};
use crate::state::ObjectState;
use crate::uid::Uid;
use groupview_sim::{IdMap, IdSet, NodeId, Sim};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Cheap, cloneable handle to every node's object store.
///
/// The paper assumes "at least one node (say β) whose object store contains
/// the state of the object" (§3.1); which nodes have stores at all is a
/// deployment choice, so stores are added explicitly with
/// [`Stores::add_store`].
///
/// All accessors enforce the failure model: a crashed node's store exists
/// (stable storage survives) but cannot be read or written until the node
/// recovers. Remote accessors ([`Stores::read_remote`],
/// [`Stores::write_remote`]) go through the simulated network and charge
/// message costs; write paths also charge the stable-storage force cost.
#[derive(Clone)]
pub struct Stores {
    sim: Sim,
    inner: Rc<RefCell<IdMap<NodeId, StableStore>>>,
    /// Nodes armed to crash in the two-phase-commit window: the next
    /// successful prepare staged at such a node arms a one-send crash
    /// budget, so the node dies right after acknowledging the prepare —
    /// i.e. **between prepare and commit**, leaving the transaction
    /// in-doubt for recovery to resolve (the §4 window the scenario
    /// engine's store nemesis targets).
    armed_prepare_crashes: Rc<RefCell<IdSet<NodeId>>>,
    /// Replica tombstones: `(node, uid)` pairs whose local state copy was
    /// migrated away. Control-plane metadata (held by the membership
    /// manager, writable even while the node is down): §4 recovery normally
    /// **re-includes** any state a recovering store still holds, which
    /// would resurrect a migrated-away replica — a retired pair is purged
    /// instead. A tombstone lives only as long as the copy it guards: the
    /// recovery that purges the copy clears it, as does migrating the
    /// replica back.
    retired: Rc<RefCell<IdSet<(NodeId, Uid)>>>,
}

impl fmt::Debug for Stores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.inner.borrow();
        f.debug_struct("Stores")
            .field("nodes", &map.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Stores {
    /// Creates an empty registry bound to a simulation.
    pub fn new(sim: &Sim) -> Self {
        Stores {
            sim: sim.clone(),
            inner: Rc::default(),
            armed_prepare_crashes: Rc::default(),
            retired: Rc::default(),
        }
    }

    /// Tombstones `uid`'s state copy on `node`: the copy was migrated away
    /// and must not be re-included by recovery. May be called while the
    /// node is down (tombstones are control-plane metadata, not node
    /// state).
    pub fn retire(&self, node: NodeId, uid: Uid) {
        self.retired.borrow_mut().insert((node, uid));
    }

    /// Whether `uid`'s copy on `node` is tombstoned.
    pub fn is_retired(&self, node: NodeId, uid: Uid) -> bool {
        self.retired.borrow().contains(&(node, uid))
    }

    /// Clears a tombstone (the replica is migrating back onto `node`).
    pub fn unretire(&self, node: NodeId, uid: Uid) {
        self.retired.borrow_mut().remove(&(node, uid));
    }

    /// Arms the mid-commit fault point on `node`: its next successful
    /// prepare crashes it immediately after the prepare acknowledgement is
    /// sent, landing the crash between the two commit phases. One-shot;
    /// [`Stores::disarm_crash_after_prepare`] cancels an unfired trap.
    pub fn arm_crash_after_prepare(&self, node: NodeId) {
        self.armed_prepare_crashes.borrow_mut().insert(node);
    }

    /// Cancels an armed (and not yet fired) mid-commit fault point.
    pub fn disarm_crash_after_prepare(&self, node: NodeId) {
        self.armed_prepare_crashes.borrow_mut().remove(&node);
    }

    /// Equips `node` with an (empty) object store. Idempotent.
    pub fn add_store(&self, node: NodeId) {
        self.inner
            .borrow_mut()
            .entry(node)
            .or_insert_with(|| StableStore::new(node));
    }

    /// Whether `node` has an object store (regardless of liveness).
    pub fn has_store(&self, node: NodeId) -> bool {
        self.inner.borrow().contains_key(&node)
    }

    /// Nodes that have stores, sorted.
    pub fn store_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.inner.borrow().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Runs `f` against the store on `node` if the node is up.
    ///
    /// This is the low-level accessor used by server-side handlers that are
    /// already executing on `node`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoStore`] if the node has no store, or
    /// [`StoreError::NodeDown`] if it is crashed.
    pub fn with<R>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut StableStore) -> R,
    ) -> Result<R, StoreError> {
        if !self.sim.is_up(node) {
            return Err(StoreError::NodeDown(node));
        }
        let mut map = self.inner.borrow_mut();
        let store = map.get_mut(&node).ok_or(StoreError::NoStore(node))?;
        Ok(f(store))
    }

    /// Reads the committed state of `uid` from the store on `node` (local).
    ///
    /// # Errors
    ///
    /// See [`Stores::with`]; additionally [`StoreError::NotFound`].
    pub fn read_local(&self, node: NodeId, uid: Uid) -> Result<ObjectState, StoreError> {
        self.with(node, |s| s.read(uid))?
    }

    /// Writes a committed state to the store on `node` (local), charging the
    /// stable-storage force cost.
    ///
    /// # Errors
    ///
    /// See [`Stores::with`].
    pub fn write_local(
        &self,
        node: NodeId,
        uid: Uid,
        state: ObjectState,
    ) -> Result<(), StoreError> {
        self.with(node, |s| s.write(uid, state))?;
        self.sim.charge_stable_write();
        Ok(())
    }

    /// Reads `uid` from the store on `target` via RPC from `from`.
    ///
    /// # Errors
    ///
    /// Network failures surface as [`StoreError::Net`]; store-level failures
    /// as in [`Stores::read_local`].
    pub fn read_remote(
        &self,
        from: NodeId,
        target: NodeId,
        uid: Uid,
    ) -> Result<ObjectState, StoreError> {
        let this = self.clone();
        // Response size is approximated by a typical state size; exact
        // accounting would require running the handler first.
        self.sim
            .rpc_flat(from, target, 32, 256, move || this.read_local(target, uid))
    }

    /// Writes `state` for `uid` to the store on `target` via RPC from `from`.
    ///
    /// # Errors
    ///
    /// Network failures surface as [`StoreError::Net`]; store-level failures
    /// as in [`Stores::write_local`].
    pub fn write_remote(
        &self,
        from: NodeId,
        target: NodeId,
        uid: Uid,
        state: ObjectState,
    ) -> Result<(), StoreError> {
        let this = self.clone();
        let bytes = state.wire_size();
        self.sim.rpc_flat(from, target, bytes, 16, move || {
            this.write_local(target, uid, state)
        })
    }

    // ----- two-phase-commit participant operations (local) -------------

    /// An empty write-set to fill for the next prepare at `node`: the
    /// emptied vector of the last intent committed there
    /// ([`StableStore::write_set`]), so commits reuse one vector per store.
    /// Only memory moves — no message, no stable write, no virtual time —
    /// so the node need not be up; a node without a store yields a new
    /// vector.
    pub fn write_set(&self, node: NodeId) -> Vec<(Uid, ObjectState)> {
        self.inner
            .borrow_mut()
            .get_mut(&node)
            .map(StableStore::write_set)
            .unwrap_or_default()
    }

    /// Durably prepares writes for `tx` on `node`.
    ///
    /// # Errors
    ///
    /// See [`Stores::with`].
    pub fn prepare_local(
        &self,
        node: NodeId,
        tx: TxToken,
        writes: Vec<(Uid, ObjectState)>,
    ) -> Result<(), StoreError> {
        self.with(node, |s| s.prepare(tx, writes))?;
        self.sim.charge_stable_write();
        if self.armed_prepare_crashes.borrow_mut().remove(&node) {
            // The prepare is durably staged; the node now dies right after
            // its next send — the prepare ack — so the coordinator's commit
            // finds it down and the transaction is left in-doubt.
            self.sim.crash_after_sends(node, 1);
        }
        Ok(())
    }

    /// Commits prepared writes for `tx` on `node`.
    ///
    /// # Errors
    ///
    /// See [`Stores::with`]; additionally [`StoreError::TxUnknown`].
    pub fn commit_local(&self, node: NodeId, tx: TxToken) -> Result<(), StoreError> {
        let r = self.with(node, |s| s.commit(tx))?;
        self.sim.charge_stable_write();
        r
    }

    /// Aborts prepared writes for `tx` on `node` (no-op if unknown).
    ///
    /// # Errors
    ///
    /// See [`Stores::with`].
    pub fn abort_local(&self, node: NodeId, tx: TxToken) -> Result<(), StoreError> {
        self.with(node, |s| s.abort(tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TypeTag;
    use groupview_sim::SimConfig;

    fn world() -> (Sim, Stores) {
        let sim = Sim::new(SimConfig::new(2).with_nodes(3));
        let stores = Stores::new(&sim);
        stores.add_store(NodeId::new(1));
        stores.add_store(NodeId::new(2));
        (sim, stores)
    }

    fn st(data: &[u8]) -> ObjectState {
        ObjectState::initial(TypeTag::new(1), data.to_vec())
    }

    #[test]
    fn local_roundtrip_and_missing_store() {
        let (_sim, stores) = world();
        let uid = Uid::from_raw(1);
        assert_eq!(
            stores.read_local(NodeId::new(0), uid),
            Err(StoreError::NoStore(NodeId::new(0)))
        );
        stores.write_local(NodeId::new(1), uid, st(b"v")).unwrap();
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"v");
        assert_eq!(
            stores.read_local(NodeId::new(2), uid),
            Err(StoreError::NotFound(uid))
        );
        assert_eq!(stores.store_nodes(), vec![NodeId::new(1), NodeId::new(2)]);
        assert!(stores.has_store(NodeId::new(1)));
        assert!(!stores.has_store(NodeId::new(0)));
    }

    #[test]
    fn crashed_node_store_is_unavailable_but_durable() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(1);
        let n = NodeId::new(1);
        stores.write_local(n, uid, st(b"v")).unwrap();
        sim.crash(n);
        assert_eq!(stores.read_local(n, uid), Err(StoreError::NodeDown(n)));
        assert_eq!(
            stores.write_local(n, uid, st(b"w")),
            Err(StoreError::NodeDown(n))
        );
        sim.recover(n);
        assert_eq!(stores.read_local(n, uid).unwrap().data, b"v");
    }

    #[test]
    fn remote_read_and_write_use_the_network() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(3);
        let before = sim.counters().delivered;
        stores
            .write_remote(NodeId::new(0), NodeId::new(1), uid, st(b"remote"))
            .unwrap();
        let got = stores
            .read_remote(NodeId::new(0), NodeId::new(1), uid)
            .unwrap();
        assert_eq!(got.data, b"remote");
        assert_eq!(
            sim.counters().delivered - before,
            4,
            "two RPCs = four messages"
        );
    }

    #[test]
    fn remote_access_to_down_node_is_a_net_error() {
        let (sim, stores) = world();
        sim.crash(NodeId::new(1));
        let err = stores
            .read_remote(NodeId::new(0), NodeId::new(1), Uid::from_raw(1))
            .unwrap_err();
        assert!(matches!(err, StoreError::Net(_)), "got {err:?}");
    }

    #[test]
    fn prepare_commit_via_registry() {
        let (_sim, stores) = world();
        let n = NodeId::new(1);
        let uid = Uid::from_raw(4);
        stores.write_local(n, uid, st(b"old")).unwrap();
        let tx = TxToken::new(11);
        stores
            .prepare_local(n, tx, vec![(uid, st(b"new"))])
            .unwrap();
        assert_eq!(stores.read_local(n, uid).unwrap().data, b"old");
        stores.commit_local(n, tx).unwrap();
        assert_eq!(stores.read_local(n, uid).unwrap().data, b"new");
    }

    #[test]
    fn prepare_abort_via_registry() {
        let (_sim, stores) = world();
        let n = NodeId::new(2);
        let uid = Uid::from_raw(5);
        stores.write_local(n, uid, st(b"old")).unwrap();
        let tx = TxToken::new(12);
        stores
            .prepare_local(n, tx, vec![(uid, st(b"new"))])
            .unwrap();
        stores.abort_local(n, tx).unwrap();
        assert_eq!(stores.read_local(n, uid).unwrap().data, b"old");
    }

    #[test]
    fn intent_log_survives_crash_for_recovery() {
        let (sim, stores) = world();
        let n = NodeId::new(1);
        let uid = Uid::from_raw(6);
        let tx = TxToken::new(13);
        stores
            .prepare_local(n, tx, vec![(uid, st(b"pending"))])
            .unwrap();
        sim.crash(n);
        sim.recover(n);
        let indoubt = stores.with(n, |s| s.indoubt()).unwrap();
        assert_eq!(indoubt, vec![tx], "prepared tx must survive the crash");
        stores.commit_local(n, tx).unwrap();
        assert_eq!(stores.read_local(n, uid).unwrap().data, b"pending");
    }

    #[test]
    fn armed_prepare_crash_fires_between_phases() {
        let (sim, stores) = world();
        let n1 = NodeId::new(1);
        let uid = Uid::from_raw(9);
        stores.write_local(n1, uid, st(b"old")).unwrap();
        stores.arm_crash_after_prepare(n1);
        let tx = TxToken::new(21);
        // Remote prepare: the ack send fires the armed crash.
        let this = stores.clone();
        let ok = sim
            .rpc_flat(NodeId::new(0), n1, 32, 16, move || {
                this.prepare_local(n1, tx, vec![(uid, st(b"new"))])
            })
            .is_ok();
        assert!(ok, "the coordinator hears the prepare ack");
        assert!(
            !sim.is_up(n1),
            "…and the node dies right after sending it — the commit that \
             follows will find it down"
        );
        sim.recover(n1);
        assert_eq!(
            stores.with(n1, |s| s.indoubt()).unwrap(),
            vec![tx],
            "the staged write survived as in-doubt"
        );
        // Disarm is a no-op once fired; arming and disarming leaves no trap.
        stores.arm_crash_after_prepare(n1);
        stores.disarm_crash_after_prepare(n1);
        stores.commit_local(n1, tx).unwrap();
        assert!(sim.is_up(n1), "no further crash");
        assert_eq!(stores.read_local(n1, uid).unwrap().data, b"new");
    }

    /// Prepares `writes` for `tx` on `node` from the node's recycled
    /// write-set and commits it; returns the write-set's buffer address.
    fn commit_through_write_set(
        stores: &Stores,
        node: NodeId,
        tx: u64,
        writes: &[(Uid, ObjectState)],
    ) -> *const (Uid, ObjectState) {
        let mut set = stores.write_set(node);
        assert!(set.is_empty(), "a recycled write-set comes back empty");
        set.extend_from_slice(writes);
        let buffer = set.as_ptr();
        stores.prepare_local(node, TxToken::new(tx), set).unwrap();
        stores.commit_local(node, TxToken::new(tx)).unwrap();
        buffer
    }

    #[test]
    fn each_store_keeps_exactly_one_spare_write_set() {
        let (_sim, stores) = world();
        let uid = Uid::from_raw(20);
        for node in [NodeId::new(1), NodeId::new(2)] {
            let first = commit_through_write_set(&stores, node, 1, &[(uid, st(b"1"))]);
            for k in 2..=10 {
                let reused = commit_through_write_set(&stores, node, k, &[(uid, st(b"k"))]);
                assert_eq!(reused, first, "commit {k} reused the one buffer");
            }
            let spare = stores.write_set(node);
            assert!(spare.capacity() > 0, "the last commit left its spare");
            assert_eq!(
                stores.write_set(node).capacity(),
                0,
                "and only one: the next write-set is new"
            );
        }
        assert_eq!(stores.write_set(NodeId::new(0)).capacity(), 0, "no store");
    }

    #[test]
    fn a_reused_write_set_carries_no_stale_entry() {
        let (_sim, stores) = world();
        let n = NodeId::new(1);
        let (a, b) = (Uid::from_raw(21), Uid::from_raw(22));
        commit_through_write_set(&stores, n, 1, &[(a, st(b"A"))]);
        stores.write_local(n, a, st(b"later")).unwrap();
        commit_through_write_set(&stores, n, 2, &[(b, st(b"B"))]);
        assert_eq!(
            stores.read_local(n, a).unwrap().data,
            b"later",
            "A's write did not ride along with B's intent"
        );
        assert_eq!(stores.read_local(n, b).unwrap().data, b"B");
    }

    #[test]
    fn in_doubt_and_aborted_intents_are_never_reused() {
        let (sim, stores) = world();
        let n = NodeId::new(1);
        let uid = Uid::from_raw(23);
        let (in_doubt, aborted) = (TxToken::new(31), TxToken::new(32));
        stores
            .prepare_local(n, in_doubt, vec![(uid, st(b"pending"))])
            .unwrap();
        stores
            .prepare_local(n, aborted, vec![(uid, st(b"dropped"))])
            .unwrap();
        stores.abort_local(n, aborted).unwrap();
        assert_eq!(
            stores.write_set(n).capacity(),
            0,
            "neither intent handed its write-set on"
        );
        sim.crash(n);
        sim.recover(n);
        assert_eq!(stores.with(n, |s| s.indoubt()).unwrap(), vec![in_doubt]);
        assert_eq!(stores.write_set(n).capacity(), 0);
        stores.commit_local(n, in_doubt).unwrap();
        assert_eq!(
            stores.read_local(n, uid).unwrap().data,
            b"pending",
            "the in-doubt intent survived the crash whole"
        );
        assert!(
            stores.write_set(n).capacity() > 0,
            "once committed, its write-set is the spare"
        );
    }

    #[test]
    fn tombstones_track_retired_copies_even_while_down() {
        let (sim, stores) = world();
        let n = NodeId::new(1);
        let uid = Uid::from_raw(8);
        stores.write_local(n, uid, st(b"v")).unwrap();
        assert!(!stores.is_retired(n, uid));
        // Retiring works while the node is crashed: tombstones are
        // control-plane metadata, not node state.
        sim.crash(n);
        stores.retire(n, uid);
        assert!(stores.is_retired(n, uid));
        sim.recover(n);
        assert!(stores.is_retired(n, uid), "tombstones survive recovery");
        stores.unretire(n, uid);
        assert!(!stores.is_retired(n, uid));
    }

    #[test]
    fn stable_writes_charge_local_cost() {
        let (sim, stores) = world();
        let before = sim.now();
        stores
            .write_local(NodeId::new(1), Uid::from_raw(7), st(b"x"))
            .unwrap();
        assert!(sim.now() > before, "stable write must cost virtual time");
    }
}
