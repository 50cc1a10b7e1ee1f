//! The action manager: begin/commit/abort and two-phase commit.

use crate::action::ActionId;
use crate::arena::{UndoApplier, UndoArena};
use crate::error::TxError;
use crate::lock::{Ancestry, LockKey, LockManager, LockMode};
use crate::participant::StoreWriteParticipant;
use groupview_obs::{Counter as ObsCounter, Phase, Registry};
use groupview_sim::{IdMap, NodeId, Sim};
use groupview_store::{Stores, TxToken};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

type Undo = Box<dyn FnOnce()>;

/// One action's record (the hig-proto shape): everything the service knows
/// about the action. It is in the action table exactly while the action is
/// active — a nested commit merges it into the parent's record, a top-level
/// commit or an abort takes it out — and is then emptied, keeping its
/// buffers, for a later action to reuse. The locks it holds live in the
/// lock table alone.
struct Tx {
    /// The action this one merges into when it commits: `Some` for a nested
    /// action (also its lock-parent), `None` for top-level and
    /// nested-top-level actions, which commit on their own.
    parent: Option<ActionId>,
    /// The node coordinating this action's commit.
    client_node: NodeId,
    /// Object-state undo log: one first-write snapshot per touched object
    /// plus the applied op ids (see [`UndoArena`]).
    arena: UndoArena,
    /// Generic compensation closures (binding decrements and the like);
    /// these still run LIFO, before the arena replays.
    undos: Vec<Undo>,
    /// Two-phase-commit participants, held by value: enlisting one moves
    /// it into this vector, whose buffer the recycled record keeps.
    participants: Vec<StoreWriteParticipant>,
    /// Nested actions begun within this one, oldest first (ids of children
    /// that have since ended are simply absent from the table).
    children: Vec<ActionId>,
}

impl fmt::Debug for Tx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("parent", &self.parent)
            .field("undo_objects", &self.arena.object_count())
            .field("undos", &self.undos.len())
            .field("participants", &self.participants.len())
            .finish()
    }
}

/// Aggregate statistics over all actions of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Actions begun (all kinds).
    pub started: u64,
    /// Actions committed (all kinds).
    pub committed: u64,
    /// Actions aborted (all kinds).
    pub aborted: u64,
    /// Lock requests refused.
    pub lock_refusals: u64,
    /// Top-level commits that failed in phase 1.
    pub prepare_failures: u64,
    /// Committed *transactions* that wrote two or more distinct objects
    /// (the multi-object slice of `committed`).
    pub multi_committed: u64,
    /// Aborted transactions that had written two or more distinct objects.
    pub multi_aborted: u64,
}

// Boxed records in plain `Vec`s on purpose: see `TxInner::actions`.
#[allow(clippy::vec_box)]
struct TxInner {
    sim: Sim,
    next_id: u64,
    /// The active actions, and nothing else: membership *is* "active".
    /// Records are boxed because they move between this table, the free
    /// list and an abort's unwinding list: a box moves as one pointer, a
    /// record is some two hundred bytes.
    actions: IdMap<ActionId, Box<Tx>>,
    /// Emptied records of ended actions, which `begin` reuses. Never longer
    /// than the peak number of simultaneously active actions.
    spare: Vec<Box<Tx>>,
    /// The records an abort has taken out of the table, held while their
    /// compensation runs (kept between aborts for its capacity).
    unwinding: Vec<Box<Tx>>,
    /// The op ids of the arena entry an abort is replaying (kept between
    /// aborts for its capacity, as `unwinding` is).
    replayed: Vec<u64>,
    locks: LockManager,
    /// The coordinator's commit records, kept only while a participant is
    /// in doubt: `token →` the nodes whose phase-2 commit went
    /// unacknowledged. Store recovery consults this to resolve in-doubt
    /// intents and releases a node's claim once its intent log is settled;
    /// a token without a record is presumed aborted.
    decisions: IdMap<TxToken, Vec<NodeId>>,
    stats: TxStats,
    /// Observability registry (disabled by default: every recording call is
    /// an inlined no-op, so unobserved runs pay nothing).
    obs: Registry,
    /// Replays undo-arena entries on abort (installed by the replication
    /// layer, which owns the replica registry).
    applier: Option<Rc<dyn UndoApplier>>,
}

/// Lock ancestry read off the action records: every lock-ancestor of a
/// running nested action is suspended, hence still in the table.
struct AncestryView<'a>(&'a IdMap<ActionId, Box<Tx>>);

impl Ancestry for AncestryView<'_> {
    fn lock_parent(&self, a: ActionId) -> Option<ActionId> {
        self.0.get(&a)?.parent
    }
}

/// The atomic-action service.
///
/// One `TxSystem` manages every action in the simulated world — it plays the
/// role of Arjuna's atomic action module on each node, with bookkeeping
/// centralised because the simulation is single-threaded. Message and
/// stable-storage costs are still charged where a distributed implementation
/// would pay them (participant RPCs, decision-record forces).
///
/// See the [crate documentation](crate) for an example.
#[derive(Clone)]
pub struct TxSystem {
    inner: Rc<RefCell<TxInner>>,
    stores: Stores,
}

impl fmt::Debug for TxSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TxSystem")
            .field("actions", &inner.actions.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl TxSystem {
    /// Creates the action service for a world.
    pub fn new(sim: &Sim, stores: &Stores) -> TxSystem {
        TxSystem {
            inner: Rc::new(RefCell::new(TxInner {
                sim: sim.clone(),
                next_id: 1,
                actions: IdMap::default(),
                spare: Vec::new(),
                unwinding: Vec::new(),
                replayed: Vec::new(),
                locks: LockManager::new(),
                decisions: IdMap::default(),
                stats: TxStats::default(),
                obs: Registry::new(),
                applier: None,
            })),
            stores: stores.clone(),
        }
    }

    /// The store registry this service commits against.
    pub fn stores(&self) -> &Stores {
        &self.stores
    }

    /// Share an observability registry: lock/prepare/commit/undo spans and
    /// counters are recorded into it (when it is enabled).
    pub fn set_observer(&self, obs: &Registry) {
        self.inner.borrow_mut().obs = obs.clone();
    }

    /// The observability registry currently in use (disabled by default).
    pub fn observer(&self) -> Registry {
        self.inner.borrow().obs.clone()
    }

    /// Installs the undo-arena applier: the replication layer's hook that
    /// restores object snapshots when a transaction aborts.
    pub fn set_undo_applier(&self, applier: Rc<dyn UndoApplier>) {
        self.inner.borrow_mut().applier = Some(applier);
    }

    // ----- lifecycle ---------------------------------------------------

    /// Begins a top-level action coordinated by `client_node`.
    pub fn begin_top(&self, client_node: NodeId) -> ActionId {
        self.inner.borrow_mut().begin(None, client_node)
    }

    /// Begins an action nested in `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an active action.
    pub fn begin_nested(&self, parent: ActionId) -> ActionId {
        self.begin_within(parent, true)
    }

    /// Begins a *nested top-level* action from within `enclosing`
    /// (paper Figure 8): it commits independently of `enclosing`.
    ///
    /// # Panics
    ///
    /// Panics if `enclosing` is not an active action.
    pub fn begin_nested_top(&self, enclosing: ActionId) -> ActionId {
        self.begin_within(enclosing, false)
    }

    /// Begins an action from within `outer`, coordinated by `outer`'s node:
    /// nested in it, or independent of it (nested top-level).
    fn begin_within(&self, outer: ActionId, nested: bool) -> ActionId {
        let Some(node) = self.client_node(outer) else {
            panic!("begin within {outer}: it is not an active action");
        };
        self.inner.borrow_mut().begin(nested.then_some(outer), node)
    }

    /// Runs `f` on `action`'s record, or refuses if the action is over.
    fn with_active<R>(&self, action: ActionId, f: impl FnOnce(&mut Tx) -> R) -> Result<R, TxError> {
        let mut inner = self.inner.borrow_mut();
        inner
            .actions
            .get_mut(&action)
            .map(|rec| f(rec))
            .ok_or(TxError::NotActive(action))
    }

    // ----- per-action operations ----------------------------------------

    /// Acquires (or upgrades to) `mode` on `key` on behalf of `action`.
    ///
    /// # Errors
    ///
    /// [`TxError::LockRefused`] on conflict with an unrelated action,
    /// [`TxError::NotActive`] if the action cannot lock anymore.
    pub fn lock(&self, action: ActionId, key: LockKey, mode: LockMode) -> Result<(), TxError> {
        let mut inner = self.inner.borrow_mut();
        let TxInner {
            locks,
            actions,
            sim,
            obs,
            ..
        } = &mut *inner;
        let node = actions
            .get(&action)
            .ok_or(TxError::NotActive(action))?
            .client_node;
        match locks.acquire(&AncestryView(actions), action, key, mode) {
            Ok(()) => {
                // Lock acquisition is instantaneous in this model; the span
                // still counts toward the phase breakdown.
                let now = sim.now().as_micros();
                obs.add(ObsCounter::LocksAcquired, 1);
                obs.record_node_lock(node.raw());
                obs.span(action.raw(), Phase::LockAcquire, now, now);
                Ok(())
            }
            Err(held) => {
                obs.add(ObsCounter::LocksRefused, 1);
                Err(TxError::LockRefused {
                    key,
                    requested: mode,
                    held,
                })
            }
        }
    }

    /// Registers compensation to run if `action` (or an ancestor it merges
    /// into) aborts. Undos run in LIFO order.
    ///
    /// # Errors
    ///
    /// [`TxError::NotActive`] if the action is not active.
    pub fn push_undo(
        &self,
        action: ActionId,
        undo: impl FnOnce() + 'static,
    ) -> Result<(), TxError> {
        self.with_active(action, |rec| rec.undos.push(Box::new(undo)))
    }

    /// Whether `action`'s undo arena already holds a first-write snapshot
    /// entry for object `key` (the invoke path snapshots each object once
    /// per transaction).
    pub fn undo_logged(&self, action: ActionId, key: u64) -> bool {
        self.inner
            .borrow()
            .actions
            .get(&action)
            .is_some_and(|r| r.arena.has_entry(key))
    }

    /// Appends a first-write snapshot entry for object `key` to `action`'s
    /// undo arena: the pinned `(node, incarnation)` replica set and the
    /// pre-write snapshot bytes.
    ///
    /// # Errors
    ///
    /// [`TxError::NotActive`] if the action is not active.
    pub fn log_undo_snapshot(
        &self,
        action: ActionId,
        key: u64,
        tag: u32,
        servers: impl IntoIterator<Item = (u32, u64)>,
        snapshot: &[u8],
    ) -> Result<(), TxError> {
        self.with_active(action, |rec| {
            rec.arena.push_entry(key, tag, servers, snapshot)
        })
    }

    /// Records an applied (possibly batch) operation id against object
    /// `key` in `action`'s undo arena — the steady-state write-path cost of
    /// undo logging (no snapshot, no boxing).
    ///
    /// # Errors
    ///
    /// [`TxError::NotActive`] if the action is not active.
    pub fn log_undo_op(&self, action: ActionId, key: u64, op_id: u64) -> Result<(), TxError> {
        self.with_active(action, |rec| rec.arena.push_op(key, op_id))
    }

    /// Registers a two-phase-commit participant for `action`'s (eventual)
    /// top-level commit.
    ///
    /// # Errors
    ///
    /// [`TxError::NotActive`] if the action is not active.
    pub fn add_participant(
        &self,
        action: ActionId,
        p: impl Into<StoreWriteParticipant>,
    ) -> Result<(), TxError> {
        let p = p.into();
        self.with_active(action, |rec| rec.participants.push(p))
    }

    // ----- termination ---------------------------------------------------

    /// Commits `action`.
    ///
    /// * Nested actions merge their locks, undos, and participants into the
    ///   parent.
    /// * Top-level (and nested-top-level) actions run two-phase commit over
    ///   their participants, force the decision record, and release locks.
    ///
    /// Any still-active nested children are aborted first (they did not
    /// commit, so their effects must not survive). Active nested-top-level
    /// children are independent and untouched.
    ///
    /// # Errors
    ///
    /// [`TxError::NotActive`], [`TxError::CoordinatorDown`], or
    /// [`TxError::PrepareFailed`] (in which case the action has aborted).
    pub fn commit(&self, action: ActionId) -> Result<(), TxError> {
        let (parent, mut children) = self.with_active(action, |rec| {
            (rec.parent, std::mem::take(&mut rec.children))
        })?;
        for &stray in &children {
            self.abort(stray);
        }
        children.clear();
        self.with_active(action, |rec| rec.children = children)?;
        match parent {
            Some(parent) => self.commit_nested(action, parent),
            None => self.commit_top(action),
        }
    }

    fn commit_nested(&self, action: ActionId, parent: ActionId) -> Result<(), TxError> {
        let mut inner = self.inner.borrow_mut();
        let mut child = inner
            .actions
            .remove(&action)
            .ok_or(TxError::NotActive(action))?;
        inner.locks.transfer(action, parent);
        let prec = inner
            .actions
            .get_mut(&parent)
            .expect("the parent of an active nested action is suspended, not over");
        prec.undos.append(&mut child.undos);
        prec.participants.append(&mut child.participants);
        prec.arena.absorb(&child.arena);
        inner.retire(child);
        inner.stats.committed += 1;
        Ok(())
    }

    fn commit_top(&self, action: ActionId) -> Result<(), TxError> {
        let (sim, obs, node) = {
            let inner = self.inner.borrow();
            let rec = inner.actions.get(&action);
            let node = rec.ok_or(TxError::NotActive(action))?.client_node;
            (inner.sim.clone(), inner.obs.clone(), node)
        };
        if !sim.is_up(node) {
            // The coordinator itself is dead; nothing can be decided now.
            self.abort(action);
            return Err(TxError::CoordinatorDown(node));
        }
        let mut participants =
            self.with_active(action, |rec| std::mem::take(&mut rec.participants))?;

        // Both commit phases run with trace attribution to this action, so
        // message loss during 2PC is causally tagged.
        sim.with_active_action(action.raw(), || -> Result<(), TxError> {
            // Phase 1: prepare everyone.
            let prepare_start = sim.now().as_micros();
            let mut failed: Option<NodeId> = None;
            for p in participants.iter_mut() {
                if p.try_prepare().is_err() {
                    failed = Some(p.node());
                    break;
                }
                obs.add(ObsCounter::Prepares, 1);
            }
            if !participants.is_empty() {
                obs.span(
                    action.raw(),
                    Phase::Prepare,
                    prepare_start,
                    sim.now().as_micros(),
                );
            }
            if let Some(bad_node) = failed {
                for p in participants.iter_mut() {
                    p.abort();
                }
                // No abort record is written: a token without a record is
                // presumed aborted.
                self.inner.borrow_mut().stats.prepare_failures += 1;
                self.abort(action);
                return Err(TxError::PrepareFailed { node: bad_node });
            }

            // Decision point: force the commit record at the coordinator.
            let commit_start = sim.now().as_micros();
            if !participants.is_empty() {
                sim.charge_stable_write();
            }

            // Phase 2: best-effort commit. The record outlives the action
            // only on behalf of participants that did not acknowledge; they
            // stay in-doubt and are resolved by store recovery via
            // `decision`. (The world is synchronous: nothing can consult
            // the record between the decision point and the end of phase 2,
            // so an all-acknowledged commit never materialises one.)
            let in_doubt: Vec<NodeId> = participants
                .iter_mut()
                .filter_map(|p| (!p.commit()).then(|| p.node()))
                .collect();
            if !in_doubt.is_empty() {
                self.inner
                    .borrow_mut()
                    .decisions
                    .insert(TxToken::new(action.raw()), in_doubt);
            }
            if !participants.is_empty() {
                obs.span(
                    action.raw(),
                    Phase::Commit,
                    commit_start,
                    sim.now().as_micros(),
                );
            }
            obs.add(ObsCounter::Commits, 1);
            Ok(())
        })?;

        let mut inner = self.inner.borrow_mut();
        inner.locks.release_all(action);
        inner.stats.committed += 1;
        if let Some(mut rec) = inner.actions.remove(&action) {
            if rec.arena.object_count() >= 2 {
                inner.stats.multi_committed += 1;
            }
            // Hand the participant vector back so the record keeps its buffer.
            rec.participants = participants;
            inner.retire(rec);
        }
        Ok(())
    }

    /// Aborts `action`: undoes its (and its active nested children's)
    /// effects in LIFO order, tells registered participants to discard
    /// staged state, and releases all locks.
    ///
    /// Aborting a non-active action is a no-op (abort is idempotent).
    pub fn abort(&self, action: ActionId) {
        let (mut recs, mut replayed, sim, obs, applier) = {
            let mut inner = self.inner.borrow_mut();
            let mut recs = std::mem::take(&mut inner.unwinding);
            if !inner.collect_abort(action, &mut recs) {
                inner.unwinding = recs;
                return;
            }
            (
                recs,
                std::mem::take(&mut inner.replayed),
                inner.sim.clone(),
                inner.obs.clone(),
                inner.applier.clone(),
            )
        };
        let undo_start = sim.now().as_micros();
        let undo_count = recs
            .iter()
            .map(|r| (r.undos.len() + r.arena.op_count()) as u64)
            .sum::<u64>();
        // Run compensation outside the borrow: undo closures and arena
        // replay touch database/replica state through their own handles.
        // Attribute any messages they cause (participant abort RPCs) to
        // this action. The records are newest first: every closure runs
        // first (LIFO), then each arena replays newest-entry-first —
        // snapshot restoration is idempotent, so only the relative order of
        // same-object entries matters — then every participant aborts.
        sim.with_active_action(action.raw(), || {
            for rec in recs.iter_mut() {
                for u in rec.undos.drain(..).rev() {
                    u();
                }
            }
            if let Some(applier) = applier {
                for rec in &recs {
                    rec.arena.replay(applier.as_ref(), &mut replayed);
                }
            }
            for rec in recs.iter_mut() {
                for p in rec.participants.iter_mut() {
                    p.abort();
                }
            }
        });
        {
            let mut inner = self.inner.borrow_mut();
            for rec in recs.drain(..) {
                inner.retire(rec);
            }
            inner.unwinding = recs;
            inner.replayed = replayed;
        }
        obs.add(ObsCounter::Aborts, 1);
        obs.add(ObsCounter::UndoOps, undo_count);
        if undo_count > 0 {
            obs.span(action.raw(), Phase::Undo, undo_start, sim.now().as_micros());
        }
    }

    // ----- introspection --------------------------------------------------

    /// Whether `action` is currently active.
    pub fn is_active(&self, action: ActionId) -> bool {
        self.inner.borrow().actions.contains_key(&action)
    }

    /// How many actions are active right now — the size of the action
    /// table, which holds nothing else (quiescence invariant: zero).
    pub fn live_actions(&self) -> usize {
        self.inner.borrow().actions.len()
    }

    /// How many emptied records wait for reuse.
    #[cfg(test)]
    fn spare_records(&self) -> usize {
        self.inner.borrow().spare.len()
    }

    /// The coordinator node of `action`, while it is active.
    pub fn client_node(&self, action: ActionId) -> Option<NodeId> {
        self.inner
            .borrow()
            .actions
            .get(&action)
            .map(|r| r.client_node)
    }

    /// The stable transaction token of `action` (for store intent logs).
    pub fn token(action: ActionId) -> TxToken {
        TxToken::new(action.raw())
    }

    /// Whether the coordinator holds a commit record for `token`. `false`
    /// is presumed abort: the transaction aborted, never reached its
    /// decision point, or committed with every participant acknowledged
    /// (in which case no store holds an intent that could ask).
    pub fn decision(&self, token: TxToken) -> bool {
        self.inner.borrow().decisions.contains_key(&token)
    }

    /// The commit records currently held, each with the participant nodes
    /// it is held for, sorted by token (quiescence invariant: every one is
    /// matched by an in-doubt intent at one of its nodes).
    pub fn decisions(&self) -> Vec<(TxToken, Vec<NodeId>)> {
        let mut v: Vec<(TxToken, Vec<NodeId>)> = self
            .inner
            .borrow()
            .decisions
            .iter()
            .map(|(&token, nodes)| (token, nodes.clone()))
            .collect();
        v.sort_unstable_by_key(|&(token, _)| token);
        v
    }

    /// Store recovery's acknowledgement that `node`'s intent log holds no
    /// unresolved intent any more: commit records stop being kept on its
    /// behalf, and a record nobody else needs is forgotten.
    pub fn release_decisions(&self, node: NodeId) {
        self.inner.borrow_mut().decisions.retain(|_, nodes| {
            nodes.retain(|&n| n != node);
            !nodes.is_empty()
        });
    }

    /// Whether the lock table is completely empty (quiescence invariant).
    pub fn locks_empty(&self) -> bool {
        self.inner.borrow().locks.is_empty()
    }

    /// The mode `action` holds on `key`, if any.
    pub fn lock_mode_of(&self, action: ActionId, key: LockKey) -> Option<LockMode> {
        self.inner.borrow().locks.mode_of(action, key)
    }

    /// Current holders of `key` (tests and diagnostics).
    pub fn lock_holders(&self, key: LockKey) -> Vec<(ActionId, LockMode)> {
        self.inner.borrow().locks.holders(key)
    }

    /// Aggregate statistics (lock refusals come from the lock manager).
    pub fn stats(&self) -> TxStats {
        let inner = self.inner.borrow();
        TxStats {
            lock_refusals: inner.locks.refusals(),
            ..inner.stats
        }
    }
}

impl TxInner {
    /// Issues the next id and opens its record (a recycled one if any is
    /// spare); a nested action (`parent` given) is also entered in its
    /// parent's child list.
    fn begin(&mut self, parent: Option<ActionId>, client_node: NodeId) -> ActionId {
        let id = ActionId::from_raw(self.next_id);
        self.next_id += 1;
        if let Some(prec) = parent.and_then(|p| self.actions.get_mut(&p)) {
            prec.children.push(id);
        }
        let mut rec = self.spare.pop().unwrap_or_else(|| {
            Box::new(Tx {
                parent: None,
                client_node,
                arena: UndoArena::new(),
                undos: Vec::new(),
                participants: Vec::new(),
                children: Vec::new(),
            })
        });
        rec.parent = parent;
        rec.client_node = client_node;
        self.actions.insert(id, rec);
        self.stats.started += 1;
        id
    }

    /// Empties the record of an ended action, keeping its buffers'
    /// capacity, and shelves it for the next `begin`.
    fn retire(&mut self, mut rec: Box<Tx>) {
        rec.arena.clear();
        rec.undos.clear();
        rec.participants.clear();
        rec.children.clear();
        self.spare.push(rec);
    }

    /// Removes `action` and its active nested subtree from the table,
    /// releasing their locks and handing their records to the caller,
    /// newest first. `false` if `action` was not active.
    #[allow(clippy::vec_box)]
    fn collect_abort(&mut self, action: ActionId, recs: &mut Vec<Box<Tx>>) -> bool {
        let Some(rec) = self.actions.remove(&action) else {
            return false;
        };
        // Children's effects are more recent: undo them first.
        for &child in rec.children.iter().rev() {
            self.collect_abort(child, recs);
        }
        if rec.arena.object_count() >= 2 {
            self.stats.multi_aborted += 1;
        }
        recs.push(rec);
        self.locks.release_all(action);
        self.stats.aborted += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::SimConfig;
    use groupview_store::{ObjectState, TypeTag, Uid};
    use std::cell::RefCell as StdRefCell;
    use std::rc::Rc as StdRc;

    fn world() -> (Sim, Stores, TxSystem) {
        let sim = Sim::new(SimConfig::new(5).with_nodes(4));
        let stores = Stores::new(&sim);
        for n in sim.nodes() {
            stores.add_store(n);
        }
        let tx = TxSystem::new(&sim, &stores);
        (sim, stores, tx)
    }

    fn key(k: u64) -> LockKey {
        LockKey::new(1, k)
    }

    fn state(b: &[u8]) -> ObjectState {
        ObjectState::initial(TypeTag::new(1), b.to_vec())
    }

    #[test]
    fn top_level_lifecycle() {
        let (_, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        assert!(tx.is_active(a));
        assert_eq!(tx.client_node(a), Some(NodeId::new(0)));
        tx.commit(a).unwrap();
        assert!(!tx.is_active(a));
        assert_eq!(tx.live_actions(), 0);
        assert_eq!(tx.commit(a), Err(TxError::NotActive(a)));
        let s = tx.stats();
        assert_eq!((s.started, s.committed, s.aborted), (1, 1, 0));
    }

    #[test]
    fn locks_released_at_top_commit_only() {
        let (_, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        let n = tx.begin_nested(a);
        tx.lock(n, key(1), LockMode::Read).unwrap();
        tx.commit(n).unwrap();
        // Lock inherited by parent, still blocking writers:
        let b = tx.begin_top(NodeId::new(1));
        assert!(matches!(
            tx.lock(b, key(1), LockMode::Write),
            Err(TxError::LockRefused { .. })
        ));
        tx.commit(a).unwrap();
        tx.lock(b, key(1), LockMode::Write).unwrap();
        tx.commit(b).unwrap();
        assert!(tx.locks_empty());
    }

    #[test]
    fn nested_abort_runs_undos_in_lifo_order() {
        let (_, _, tx) = world();
        let log = StdRc::new(StdRefCell::new(Vec::new()));
        let a = tx.begin_top(NodeId::new(0));
        let n = tx.begin_nested(a);
        for i in 0..3 {
            let log2 = log.clone();
            tx.push_undo(n, move || log2.borrow_mut().push(i)).unwrap();
        }
        tx.abort(n);
        assert_eq!(*log.borrow(), vec![2, 1, 0]);
        assert!(!tx.is_active(n));
        // Parent unaffected.
        assert!(tx.is_active(a));
        tx.commit(a).unwrap();
    }

    #[test]
    fn parent_abort_undoes_committed_child_effects() {
        let (_, _, tx) = world();
        let hit = StdRc::new(StdRefCell::new(0));
        let a = tx.begin_top(NodeId::new(0));
        let n = tx.begin_nested(a);
        let hit2 = hit.clone();
        tx.push_undo(n, move || *hit2.borrow_mut() += 1).unwrap();
        tx.commit(n).unwrap();
        assert_eq!(*hit.borrow(), 0, "commit of child must not run undos");
        tx.abort(a);
        assert_eq!(*hit.borrow(), 1, "parent abort undoes child effects");
        assert!(tx.locks_empty());
    }

    #[test]
    fn commit_aborts_stray_active_nested_children() {
        let (_, _, tx) = world();
        let hit = StdRc::new(StdRefCell::new(0));
        let a = tx.begin_top(NodeId::new(0));
        let n = tx.begin_nested(a);
        let hit2 = hit.clone();
        tx.push_undo(n, move || *hit2.borrow_mut() += 1).unwrap();
        tx.commit(a).unwrap();
        assert!(!tx.is_active(n));
        assert_eq!(*hit.borrow(), 1, "the stray child aborted, not merged");
    }

    #[test]
    fn nested_top_level_commits_independently() {
        let (sim, stores, tx) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(NodeId::new(0));
        let ntl = tx.begin_nested_top(a);
        // The NTL action writes durably through a store participant.
        tx.add_participant(
            ntl,
            StoreWriteParticipant::new(
                &sim,
                &stores,
                NodeId::new(0),
                NodeId::new(1),
                TxSystem::token(ntl),
                vec![(uid, state(b"ntl"))],
            ),
        )
        .unwrap();
        tx.commit(ntl).unwrap();
        // Enclosing aborts afterwards; the NTL effect survives.
        tx.abort(a);
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"ntl");
        let s = tx.stats();
        assert_eq!((s.committed, s.aborted), (1, 1));
    }

    #[test]
    fn ntl_locks_do_not_flow_to_enclosing() {
        let (_, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        let ntl = tx.begin_nested_top(a);
        tx.lock(ntl, key(5), LockMode::Write).unwrap();
        // The enclosing action is unrelated for locking purposes:
        assert!(matches!(
            tx.lock(a, key(5), LockMode::Read),
            Err(TxError::LockRefused { .. })
        ));
        tx.commit(ntl).unwrap();
        // After NTL commit the lock is gone entirely (not inherited).
        tx.lock(a, key(5), LockMode::Write).unwrap();
        tx.commit(a).unwrap();
        assert!(tx.locks_empty());
    }

    /// A nested-top-level action is no part of its enclosing action's
    /// record: it outlives the enclosing commit or abort untouched.
    #[test]
    fn ntl_child_outlives_its_enclosing_action() {
        let (_, _, tx) = world();
        for enclosing_commits in [true, false] {
            let a = tx.begin_top(NodeId::new(0));
            let ntl = tx.begin_nested_top(a);
            let hit = StdRc::new(StdRefCell::new(0));
            let hit2 = hit.clone();
            tx.push_undo(ntl, move || *hit2.borrow_mut() += 1).unwrap();
            tx.lock(ntl, key(6), LockMode::Write).unwrap();
            if enclosing_commits {
                tx.commit(a).unwrap();
            } else {
                tx.abort(a);
            }
            assert!(!tx.is_active(a) && tx.is_active(ntl));
            assert_eq!(tx.live_actions(), 1);
            assert_eq!(tx.lock_mode_of(ntl, key(6)), Some(LockMode::Write));
            // The survivor still locks, nests, commits and releases.
            tx.lock(ntl, key(7), LockMode::Read).unwrap();
            let n = tx.begin_nested(ntl);
            tx.lock(n, key(6), LockMode::Write).unwrap();
            tx.commit(n).unwrap();
            tx.commit(ntl).unwrap();
            assert_eq!(*hit.borrow(), 0, "the enclosing outcome undid nothing");
            assert_eq!(tx.live_actions(), 0);
            assert!(tx.locks_empty());
        }
        let s = tx.stats();
        assert_eq!((s.started, s.committed, s.aborted), (6, 5, 1));
    }

    #[test]
    fn two_phase_commit_installs_on_all_stores() {
        let (sim, stores, tx) = world();
        let uid = Uid::from_raw(7);
        let a = tx.begin_top(NodeId::new(0));
        for target in [NodeId::new(1), NodeId::new(2)] {
            tx.add_participant(
                a,
                StoreWriteParticipant::new(
                    &sim,
                    &stores,
                    NodeId::new(0),
                    target,
                    TxSystem::token(a),
                    vec![(uid, state(b"v1"))],
                ),
            )
            .unwrap();
        }
        tx.commit(a).unwrap();
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"v1");
        assert_eq!(stores.read_local(NodeId::new(2), uid).unwrap().data, b"v1");
        assert!(
            tx.decisions().is_empty(),
            "every participant acknowledged: no record outlives the commit"
        );
    }

    #[test]
    fn prepare_failure_aborts_everything() {
        let (sim, stores, tx) = world();
        let uid = Uid::from_raw(8);
        stores
            .write_local(NodeId::new(1), uid, state(b"old"))
            .unwrap();
        sim.crash(NodeId::new(2));
        let a = tx.begin_top(NodeId::new(0));
        for target in [NodeId::new(1), NodeId::new(2)] {
            tx.add_participant(
                a,
                StoreWriteParticipant::new(
                    &sim,
                    &stores,
                    NodeId::new(0),
                    target,
                    TxSystem::token(a),
                    vec![(uid, state(b"new"))],
                ),
            )
            .unwrap();
        }
        let err = tx.commit(a).unwrap_err();
        assert_eq!(
            err,
            TxError::PrepareFailed {
                node: NodeId::new(2)
            }
        );
        assert_eq!(tx.live_actions(), 0);
        // Nothing installed anywhere; node 1's intent log cleaned up.
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"old");
        assert!(stores
            .with(NodeId::new(1), |s| s.indoubt())
            .unwrap()
            .is_empty());
        assert!(
            !tx.decision(TxSystem::token(a)) && tx.decisions().is_empty(),
            "no abort record: presumed abort"
        );
        assert_eq!(tx.stats().prepare_failures, 1);
    }

    #[test]
    fn participant_crash_between_phases_resolved_by_decision_record() {
        let (sim, stores, tx) = world();
        let uid = Uid::from_raw(9);
        let victim = NodeId::new(1);
        let a = tx.begin_top(NodeId::new(0));
        tx.add_participant(
            a,
            StoreWriteParticipant::new(
                &sim,
                &stores,
                NodeId::new(0),
                victim,
                TxSystem::token(a),
                vec![(uid, state(b"durable"))],
            ),
        )
        .unwrap();
        // Crash the participant right after it acknowledges prepare: the
        // prepare RPC involves 2 sends from the victim's perspective? No —
        // the victim only sends the prepare reply (1 send), then the commit
        // reply. Crash it after the prepare reply:
        sim.crash_after_sends(victim, 1);
        tx.commit(a).unwrap(); // decision = commit; phase 2 to victim fails
        assert!(!sim.is_up(victim));
        // Recovery: the store finds the in-doubt tx and asks the
        // coordinator's decision record.
        sim.recover(victim);
        let indoubt = stores.with(victim, |s| s.indoubt()).unwrap();
        assert_eq!(indoubt, vec![TxSystem::token(a)]);
        assert!(tx.decision(TxSystem::token(a)));
        assert_eq!(
            tx.decisions(),
            vec![(TxSystem::token(a), vec![victim])],
            "exactly one record, held for the in-doubt participant"
        );
        // What `core::recovery::recover_store` does with the answer:
        // install the intent, then tell the coordinator the log is settled.
        stores.commit_local(victim, TxSystem::token(a)).unwrap();
        tx.release_decisions(NodeId::new(2));
        assert!(tx.decision(TxSystem::token(a)), "another node's release");
        tx.release_decisions(victim);
        assert!(tx.decisions().is_empty(), "resolved: record forgotten");
        assert_eq!(stores.read_local(victim, uid).unwrap().data, b"durable");
    }

    #[test]
    fn coordinator_down_cannot_commit() {
        let (sim, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        tx.lock(a, key(3), LockMode::Write).unwrap();
        sim.crash(NodeId::new(0));
        assert_eq!(tx.commit(a), Err(TxError::CoordinatorDown(NodeId::new(0))));
        assert_eq!(tx.live_actions(), 0);
        assert!(tx.locks_empty());
    }

    #[test]
    fn operations_on_terminated_actions_fail_cleanly() {
        let (sim, stores, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        tx.commit(a).unwrap();
        // A terminated id and one that was never issued answer alike.
        for gone in [a, ActionId::from_raw(999)] {
            assert_eq!(
                tx.lock(gone, key(1), LockMode::Read),
                Err(TxError::NotActive(gone))
            );
            assert_eq!(tx.push_undo(gone, || {}), Err(TxError::NotActive(gone)));
            assert_eq!(
                tx.log_undo_snapshot(gone, 1, 1, [(1, 1)], b"s"),
                Err(TxError::NotActive(gone))
            );
            assert_eq!(tx.log_undo_op(gone, 1, 7), Err(TxError::NotActive(gone)));
            let p = StoreWriteParticipant::new(
                &sim,
                &stores,
                NodeId::new(0),
                NodeId::new(1),
                TxSystem::token(gone),
                vec![],
            );
            // Boxed, as the benchmark harness enlists it.
            assert_eq!(
                tx.add_participant(gone, Box::new(p)),
                Err(TxError::NotActive(gone))
            );
            assert_eq!(tx.commit(gone), Err(TxError::NotActive(gone)));
        }
        // Abort of a committed action is a no-op.
        tx.abort(a);
        let s = tx.stats();
        assert_eq!((s.committed, s.aborted), (1, 0));
    }

    /// History independence: whatever ran before, a quiescent service holds
    /// no action record, no lock, and (its participants having all
    /// acknowledged) no commit record.
    #[test]
    fn twenty_thousand_actions_leave_no_decision_record() {
        let (sim, stores, tx) = world();
        let uid = Uid::from_raw(30);
        sim.crash(NodeId::new(3)); // a participant there fails its prepare
        for i in 0..20_000u64 {
            let a = tx.begin_top(NodeId::new(0));
            let first = tx.begin_nested(a);
            tx.lock(first, key(i % 7), LockMode::Write).unwrap();
            let second = tx.begin_nested(a);
            tx.log_undo_snapshot(second, i, 1, [(1, 1)], b"s").unwrap();
            match i % 3 {
                0 => {
                    tx.commit(first).unwrap();
                    tx.abort(second);
                    tx.commit(a).unwrap(); // one child in, one out
                }
                1 => {
                    tx.commit(first).unwrap();
                    tx.abort(a); // `second` is still active: aborted with it
                }
                _ => {
                    tx.commit(second).unwrap();
                    let target = NodeId::new(1 + (i % 4) as u32 % 3); // n3 is down
                    tx.add_participant(
                        a,
                        StoreWriteParticipant::new(
                            &sim,
                            &stores,
                            NodeId::new(0),
                            target,
                            TxSystem::token(a),
                            vec![(uid, state(b"w"))],
                        ),
                    )
                    .unwrap();
                    // `first` is stray at commit; the 2PC succeeds or fails
                    // in phase 1 depending on the target.
                    let outcome = tx.commit(a);
                    assert_eq!(outcome.is_err(), target == NodeId::new(3));
                }
            }
            assert!(tx.decisions().is_empty(), "after action {i}");
            assert_eq!(tx.live_actions(), 0, "after action {i}");
            assert!(tx.locks_empty(), "after action {i}");
            assert!(
                tx.spare_records() <= 3,
                "after action {i}: at most the peak"
            );
        }
        let s = tx.stats();
        assert_eq!(s.started, 60_000);
        assert_eq!(s.committed + s.aborted, s.started, "every action ended");
        assert!(s.prepare_failures > 0 && s.committed > 0 && s.aborted > 0);
    }

    /// A record is recycled after a commit or an abort; whatever the first
    /// action left in it — arena entries, undo closures, participants,
    /// children — must not act on behalf of the action that reuses it.
    #[test]
    fn a_recycled_record_carries_nothing_into_the_next_action() {
        for first_commits in [false, true] {
            let (sim, stores, tx) = world();
            let applier = StdRc::new(RecordingApplier {
                log: StdRefCell::new(Vec::new()),
            });
            tx.set_undo_applier(applier.clone());
            let undone = StdRc::new(StdRefCell::new(0));
            let (store, uid) = (NodeId::new(1), Uid::from_raw(40));
            // Every participant call to the remote store is a message.
            let store_side = || {
                (
                    sim.counters().delivered,
                    stores.read_local(store, uid),
                    stores.with(store, |s| s.indoubt()),
                )
            };

            let a = tx.begin_top(NodeId::new(0));
            tx.log_undo_snapshot(a, 1, 1, [(1, 1)], b"snap").unwrap();
            tx.log_undo_op(a, 1, 7).unwrap();
            let undone2 = undone.clone();
            tx.push_undo(a, move || *undone2.borrow_mut() += 1).unwrap();
            tx.add_participant(
                a,
                StoreWriteParticipant::new(
                    &sim,
                    &stores,
                    NodeId::new(0),
                    store,
                    TxSystem::token(a),
                    vec![(uid, state(b"first"))],
                ),
            )
            .unwrap();
            let _child = tx.begin_nested(a);
            if first_commits {
                tx.commit(a).unwrap();
            } else {
                tx.abort(a);
            }
            let seen = (applier.log.borrow().len(), *undone.borrow(), store_side());
            assert_eq!(tx.spare_records(), 2);

            // LIFO: the next top-level action reuses `a`'s record, its
            // child the child's.
            let b = tx.begin_top(NodeId::new(0));
            assert_eq!(tx.spare_records(), 1);
            assert!(
                tx.inner.borrow().actions[&b].children.is_empty(),
                "no stale child ids"
            );
            let _ = tx.begin_nested(b);
            tx.abort(b);
            assert_eq!(
                (applier.log.borrow().len(), *undone.borrow(), store_side()),
                seen,
                "the reused record replayed, ran or called nothing (first commits: {first_commits})"
            );
            assert_eq!(tx.live_actions(), 0);
            assert_eq!(tx.spare_records(), 2);
        }
    }

    #[test]
    fn nested_chain_three_deep_inherits_to_root() {
        let (_, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        let n1 = tx.begin_nested(a);
        let n2 = tx.begin_nested(n1);
        tx.lock(n2, key(4), LockMode::Write).unwrap();
        tx.commit(n2).unwrap();
        tx.commit(n1).unwrap();
        assert_eq!(tx.lock_mode_of(a, key(4)), Some(LockMode::Write));
        let b = tx.begin_top(NodeId::new(1));
        assert!(tx.lock(b, key(4), LockMode::Read).is_err());
        tx.commit(a).unwrap();
        tx.lock(b, key(4), LockMode::Read).unwrap();
        tx.commit(b).unwrap();
    }

    #[test]
    fn observer_records_lock_commit_and_abort_telemetry() {
        let (sim, stores, tx) = world();
        let obs = Registry::new();
        obs.set_enabled(true);
        tx.set_observer(&obs);
        let uid = Uid::from_raw(21);
        let a = tx.begin_top(NodeId::new(0));
        tx.lock(a, key(9), LockMode::Write).unwrap();
        tx.add_participant(
            a,
            StoreWriteParticipant::new(
                &sim,
                &stores,
                NodeId::new(0),
                NodeId::new(1),
                TxSystem::token(a),
                vec![(uid, state(b"x"))],
            ),
        )
        .unwrap();
        tx.commit(a).unwrap();
        assert_eq!(obs.get(ObsCounter::LocksAcquired), 1);
        assert_eq!(obs.get(ObsCounter::Prepares), 1);
        assert_eq!(obs.get(ObsCounter::Commits), 1);
        let snap = obs.snapshot();
        assert_eq!(snap.phase(Phase::LockAcquire).count(), 1);
        assert_eq!(snap.phase(Phase::Prepare).count(), 1);
        assert!(
            snap.phase(Phase::Prepare).total() > 0,
            "prepare RPCs advance virtual time"
        );
        assert_eq!(snap.phase(Phase::Commit).count(), 1);

        let b = tx.begin_top(NodeId::new(0));
        tx.push_undo(b, || {}).unwrap();
        tx.abort(b);
        assert_eq!(obs.get(ObsCounter::Aborts), 1);
        assert_eq!(obs.get(ObsCounter::UndoOps), 1);
        assert_eq!(tx.observer().get(ObsCounter::Commits), 1);
    }

    #[test]
    fn abort_statistics_count_whole_subtree() {
        let (_, _, tx) = world();
        let a = tx.begin_top(NodeId::new(0));
        let n1 = tx.begin_nested(a);
        let _n2 = tx.begin_nested(n1);
        tx.abort(a);
        let s = tx.stats();
        assert_eq!(s.aborted, 3, "root + two nested children");
    }

    type UndoRecord = (u64, u32, Vec<(u32, u64)>, Vec<u64>, Vec<u8>);

    struct RecordingApplier {
        log: StdRefCell<Vec<UndoRecord>>,
    }

    impl crate::arena::UndoApplier for RecordingApplier {
        fn undo(&self, key: u64, tag: u32, servers: &[(u32, u64)], ops: &[u64], snap: &[u8]) {
            self.log
                .borrow_mut()
                .push((key, tag, servers.to_vec(), ops.to_vec(), snap.to_vec()));
        }
    }

    #[test]
    fn abort_replays_arena_entries_in_reverse_through_the_applier() {
        let (_, _, tx) = world();
        let applier = StdRc::new(RecordingApplier {
            log: StdRefCell::new(Vec::new()),
        });
        tx.set_undo_applier(applier.clone());
        let a = tx.begin_top(NodeId::new(0));
        tx.log_undo_snapshot(a, 10, 3, [(1, 1), (2, 1)], b"ten")
            .unwrap();
        tx.log_undo_op(a, 10, 100).unwrap();
        tx.log_undo_snapshot(a, 20, 3, [(1, 1)], b"twenty").unwrap();
        tx.log_undo_op(a, 20, 101).unwrap();
        tx.log_undo_op(a, 10, 102).unwrap();
        assert!(tx.undo_logged(a, 10) && tx.undo_logged(a, 20));
        assert!(!tx.undo_logged(a, 30));
        tx.abort(a);
        let log = applier.log.borrow();
        assert_eq!(log.len(), 2, "one restore per touched object");
        assert_eq!(log[0].0, 20, "newest entry first");
        assert_eq!(log[0].4, b"twenty");
        assert_eq!(log[1].0, 10);
        assert_eq!(log[1].2, vec![(1, 1), (2, 1)]);
        assert_eq!(log[1].3, vec![100, 102], "all of object 10's op ids");
        let s = tx.stats();
        assert_eq!(s.multi_aborted, 1, "two objects written => multi abort");
    }

    #[test]
    fn commit_discards_the_arena_and_counts_multi_object_transactions() {
        let (_, _, tx) = world();
        let applier = StdRc::new(RecordingApplier {
            log: StdRefCell::new(Vec::new()),
        });
        tx.set_undo_applier(applier.clone());
        // Single-object transaction: committed but not multi.
        let a = tx.begin_top(NodeId::new(0));
        tx.log_undo_snapshot(a, 1, 1, [(1, 1)], b"one").unwrap();
        tx.commit(a).unwrap();
        // Two-object transaction: counted in the multi breakdown.
        let b = tx.begin_top(NodeId::new(0));
        tx.log_undo_snapshot(b, 1, 1, [(1, 1)], b"one").unwrap();
        tx.log_undo_snapshot(b, 2, 1, [(1, 1)], b"two").unwrap();
        tx.commit(b).unwrap();
        assert!(applier.log.borrow().is_empty(), "commits never replay");
        let s = tx.stats();
        assert_eq!((s.committed, s.multi_committed, s.multi_aborted), (2, 1, 0));
    }

    #[test]
    fn nested_commit_absorbs_the_child_arena_into_the_parent() {
        let (_, _, tx) = world();
        let applier = StdRc::new(RecordingApplier {
            log: StdRefCell::new(Vec::new()),
        });
        tx.set_undo_applier(applier.clone());
        let a = tx.begin_top(NodeId::new(0));
        tx.log_undo_snapshot(a, 1, 1, [(1, 1)], b"parent-1")
            .unwrap();
        let n = tx.begin_nested(a);
        tx.log_undo_snapshot(n, 1, 1, [(1, 1)], b"child-1").unwrap();
        tx.log_undo_snapshot(n, 2, 1, [(2, 1)], b"child-2").unwrap();
        tx.commit(n).unwrap();
        tx.abort(a);
        let log = applier.log.borrow();
        // Reverse order: child entries first, parent's older snapshot of
        // object 1 last (it wins).
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, 2);
        assert_eq!(log[1].4, b"child-1");
        assert_eq!(log[2].4, b"parent-1");
    }
}
