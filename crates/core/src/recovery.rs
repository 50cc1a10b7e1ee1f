//! Node recovery protocols (§4.1.2 and §4.2).
//!
//! The paper prescribes two recovery duties:
//!
//! * A crashed node with an **object store** "must ensure, upon recovery,
//!   that its objects do contain the latest committed states. For this
//!   purpose, it can run atomic actions to update its object states and
//!   then invoke the `Include(..)` operation for making the object states
//!   available again." (§4.2)
//! * A recovered **server** node executes `Insert(UIDA, δ)` before it is
//!   ready to act as a server again — "execution of this operation is
//!   necessary to check that A is quiescent" (§4.1.2). It does so for every
//!   object it serves, including those a binder `Remove`d it from while it
//!   was down (`ObjectServerDb::uids_served_by`); a store-only
//!   node serves nothing and never becomes a server.
//!
//! Additionally, two-phase commit leaves *in-doubt* prepared transactions in
//! the store's intent log; recovery resolves them against the coordinator's
//! commit record (no record: presumed abort) and then releases the record.
//!
//! [`RecoveryManager::recover_node`] does each duty once, for every object.
//! What it could not finish — a refresh with no reachable source, an
//! `Insert` refused because the object is in use, a decided commit not yet
//! applied — comes back as a [`Deferred`] value, and
//! [`RecoveryManager::retry`] does that work and nothing else. An object
//! already recovered is never visited again by a retry: if a commit
//! `Exclude`s the node from it once more while other work is still
//! deferred, it stays out of `St` until the node's next recovery (§4.2
//! gives the refresh duty to a *crashed* node; a live node left out of `St`
//! holds a stale copy nobody reads).

use crate::error::DbError;
use crate::naming::{Cost, NamingService};
use crate::nonatomic::RemoteServerCache;
use groupview_actions::{ActionId, TxSystem};
use groupview_sim::{NodeId, Sim};
use groupview_store::{ObjectState, Stores, TxToken, Uid};
use std::fmt;

/// What one recovery pass accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// In-doubt transactions resolved as committed.
    pub resolved_commits: Vec<TxToken>,
    /// In-doubt transactions resolved as aborted (incl. presumed abort).
    pub resolved_aborts: Vec<TxToken>,
    /// In-doubt transactions decided as committed whose local commit
    /// failed — the caller should retry these later.
    pub indoubt_deferred: Vec<TxToken>,
    /// Objects whose local state was refreshed from a current `St` member.
    pub refreshed: Vec<Uid>,
    /// Objects re-`Include`d into their `St` set.
    pub included: Vec<Uid>,
    /// Objects for which the recovered server node's `Insert` succeeded.
    pub inserted: Vec<Uid>,
    /// Objects whose `Insert` was refused (not quiescent / lock contention)
    /// — the caller should retry these later.
    pub insert_deferred: Vec<Uid>,
    /// Objects whose store refresh failed (no reachable current store) —
    /// retry later.
    pub refresh_deferred: Vec<Uid>,
    /// Objects whose local copy was purged because the replica had been
    /// retired (migrated away) while the node was down. Without the
    /// tombstone check, refresh would re-`Include` the stale copy and
    /// resurrect a replica that was deliberately moved elsewhere.
    pub purged: Vec<Uid>,
}

impl RecoveryReport {
    /// Whether anything remains to retry.
    pub fn fully_recovered(&self) -> bool {
        self.insert_deferred.is_empty()
            && self.refresh_deferred.is_empty()
            && self.indoubt_deferred.is_empty()
    }

    /// Folds another report's results into this one (e.g. store-side and
    /// server-side passes of the same node).
    pub fn merge(&mut self, other: RecoveryReport) {
        self.resolved_commits.extend(other.resolved_commits);
        self.resolved_aborts.extend(other.resolved_aborts);
        self.indoubt_deferred.extend(other.indoubt_deferred);
        self.refreshed.extend(other.refreshed);
        self.included.extend(other.included);
        self.inserted.extend(other.inserted);
        self.insert_deferred.extend(other.insert_deferred);
        self.refresh_deferred.extend(other.refresh_deferred);
        self.purged.extend(other.purged);
    }

    /// The work this report, a pass over `node`, left for a retry.
    pub fn deferred(self, node: NodeId) -> Deferred {
        Deferred {
            node,
            refresh: self.refresh_deferred,
            insert: self.insert_deferred,
            indoubt: self.indoubt_deferred,
        }
    }
}

/// The §4 work a recovery pass over one node left undone, handed back so
/// that [`RecoveryManager::retry`] does exactly that work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deferred {
    /// The recovering node.
    pub node: NodeId,
    /// Objects whose store refresh + `Include` is still to do.
    pub refresh: Vec<Uid>,
    /// Objects whose `Insert` is still to do.
    pub insert: Vec<Uid>,
    /// In-doubt transactions decided as committed but not yet applied.
    pub indoubt: Vec<TxToken>,
}

impl Deferred {
    /// Whether nothing is left to do: the node has fully recovered.
    pub fn is_done(&self) -> bool {
        self.refresh.is_empty() && self.insert.is_empty() && self.indoubt.is_empty()
    }
}

/// Runs the paper's recovery protocols for crashed nodes.
#[derive(Clone)]
pub struct RecoveryManager {
    sim: Sim,
    tx: TxSystem,
    naming: NamingService,
    stores: Stores,
    cache: Option<RemoteServerCache>,
}

impl fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryManager").finish_non_exhaustive()
    }
}

impl RecoveryManager {
    /// Creates a recovery manager for the world.
    pub fn new(sim: &Sim, naming: &NamingService, stores: &Stores) -> Self {
        RecoveryManager {
            sim: sim.clone(),
            tx: naming.tx().clone(),
            naming: naming.clone(),
            stores: stores.clone(),
            cache: None,
        }
    }

    /// Attaches the non-atomic server cache: a recovered server node then
    /// re-announces itself there too (the §5 extension's recovery path).
    pub fn with_cache(mut self, cache: RemoteServerCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Brings `node` back up (if needed) and runs the full recovery
    /// protocol: in-doubt resolution, store refresh + `Include`, and server
    /// re-`Insert`. [`RecoveryReport::deferred`] turns the report into the
    /// work left for [`RecoveryManager::retry`].
    pub fn recover_node(&self, node: NodeId) -> RecoveryReport {
        self.sim.recover(node);
        let mut report = RecoveryReport::default();
        if self.stores.has_store(node) {
            report.merge(self.recover_store(node));
        }
        report.merge(self.recover_server(node));
        report
    }

    /// Store-side recovery of an already-up `node`.
    ///
    /// 1. Resolves in-doubt prepared transactions against the coordinator's
    ///    decision record.
    /// 2. For each object held locally: if the node is no longer in `St`
    ///    (it was excluded while down), fetch the latest state from a
    ///    current `St` member, install it, and `Include` the node back.
    pub fn recover_store(&self, node: NodeId) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if !self.sim.is_up(node) {
            return report;
        }
        let indoubt = self.stores.with(node, |s| s.indoubt()).unwrap_or_default();
        // Once the node's intent log is empty, the coordinator need not
        // keep a commit record on its behalf any longer (this also covers a
        // phase-2 commit that was applied but whose reply was lost).
        let settled = self.settle(node, &indoubt, &mut report);
        if settled {
            self.tx.release_decisions(node);
        }
        let mut uids = self.stores.with(node, |s| s.uids()).unwrap_or_default();
        uids.sort_unstable();
        self.refresh(node, &uids, settled, &mut report);
        report
    }

    /// Server-side recovery of an already-up `node`: executes `Insert` for
    /// every object it serves — the §4.1.2 quiescence check.
    pub fn recover_server(&self, node: NodeId) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if !self.sim.is_up(node) {
            return report;
        }
        let uids = self.naming.server_db.uids_served_by(node);
        self.insert(node, &uids, &mut report);
        report
    }

    /// Retries the work a pass deferred, and only that work. An object
    /// that left the node meanwhile (migrated away) is dropped from it.
    /// Nothing is tried while the node is down: the report then defers
    /// all of `work` again.
    pub fn retry(&self, work: &Deferred) -> RecoveryReport {
        let node = work.node;
        let mut report = RecoveryReport::default();
        if !self.sim.is_up(node) {
            report.refresh_deferred.clone_from(&work.refresh);
            report.insert_deferred.clone_from(&work.insert);
            report.indoubt_deferred.clone_from(&work.indoubt);
            return report;
        }
        let mut settled = true;
        if !work.indoubt.is_empty() {
            let log = self.stores.with(node, |s| s.indoubt()).unwrap_or_default();
            let (mine, others): (Vec<TxToken>, Vec<TxToken>) =
                log.into_iter().partition(|t| work.indoubt.contains(t));
            // The decision records go only once the whole intent log is
            // settled, not just the part this retry owns.
            settled = self.settle(node, &mine, &mut report) && others.is_empty();
            if settled {
                self.tx.release_decisions(node);
            }
        }
        let held: Vec<Uid> = work
            .refresh
            .iter()
            .copied()
            .filter(|&uid| self.stores.with(node, |s| s.contains(uid)) == Ok(true))
            .collect();
        self.refresh(node, &held, settled, &mut report);
        let served: Vec<Uid> = work
            .insert
            .iter()
            .copied()
            .filter(|&uid| self.naming.server_db.is_served_by(uid, node))
            .collect();
        self.insert(node, &served, &mut report);
        report
    }

    /// Resolves `node`'s in-doubt transactions `tokens` against the
    /// coordinator's decision record; returns whether they all settled.
    fn settle(&self, node: NodeId, tokens: &[TxToken], report: &mut RecoveryReport) -> bool {
        let mut settled = true;
        for &token in tokens {
            if self.tx.decision(token) {
                if self.stores.commit_local(node, token).is_ok() {
                    report.resolved_commits.push(token);
                } else {
                    report.indoubt_deferred.push(token);
                    settled = false;
                }
            } else {
                // No commit record: presumed abort.
                let _ = self.stores.abort_local(node, token);
                report.resolved_aborts.push(token);
            }
        }
        settled
    }

    /// Refresh + `Include` for each of `uids` — unless the replica was
    /// retired (migrated away) while the node was down, in which case the
    /// stale local copy is purged instead of resurrected. With the intent
    /// log `settled`, nothing can write the copy back, so its tombstone
    /// goes too.
    fn refresh(&self, node: NodeId, uids: &[Uid], settled: bool, report: &mut RecoveryReport) {
        for &uid in uids {
            if self.stores.is_retired(node, uid) {
                let _ = self.stores.with(node, |s| s.remove(uid));
                if settled {
                    self.stores.unretire(node, uid);
                }
                report.purged.push(uid);
                continue;
            }
            match self.refresh_one(node, uid) {
                Ok(RefreshOutcome::AlreadyCurrent) => {}
                Ok(RefreshOutcome::Refreshed) => {
                    report.refreshed.push(uid);
                    report.included.push(uid);
                }
                Err(_) => report.refresh_deferred.push(uid),
            }
        }
    }

    /// `Insert(uid, node)` for each of `uids`, one top-level action each.
    fn insert(&self, node: NodeId, uids: &[Uid], report: &mut RecoveryReport) {
        for &uid in uids {
            let action = self.tx.begin_top(node);
            let inserted = self.naming.remote(node, Cost::UPDATE, |ns| {
                ns.server_db.insert(action, uid, node)
            });
            match inserted {
                Ok(_) => match self.tx.commit(action) {
                    Ok(()) => {
                        if let Some(cache) = &self.cache {
                            cache.report_server_from(node, uid, node);
                        }
                        report.inserted.push(uid)
                    }
                    Err(_) => report.insert_deferred.push(uid),
                },
                // Not quiescent, contended or unreachable: retry later.
                Err(_) => {
                    self.tx.abort(action);
                    report.insert_deferred.push(uid);
                }
            }
        }
    }

    fn refresh_one(&self, node: NodeId, uid: Uid) -> Result<RefreshOutcome, DbError> {
        let action = self.tx.begin_top(node);
        let outcome = (|| {
            let view = self
                .naming
                .remote(node, Cost::READ, |ns| ns.state_db.get_view(action, uid))?;
            if view.contains(node) {
                // Still in St: by the system invariant the local state is the
                // latest committed one (it would have been excluded
                // otherwise) — nothing to do.
                return Ok(RefreshOutcome::AlreadyCurrent);
            }
            // Fetch from the first reachable current store. A store whose
            // phase-2 commit was lost is still in St but holds the state
            // before that commit until its own recovery runs, so the source
            // first installs its decided intents on `uid`.
            let mut fetched = None;
            for &src in &view.stores {
                self.settle_decided(src, uid);
                if let Ok(state) = self.stores.read_remote(node, src, uid) {
                    fetched = Some(state);
                    break;
                }
            }
            match fetched {
                Some(state) => {
                    self.install(action, node, uid, state)?;
                    Ok(RefreshOutcome::Refreshed)
                }
                // `St` is never empty (an exclusion refuses to empty it):
                // its stores are all unreachable, retry later.
                None => Err(groupview_sim::NetError::Timeout.into()),
            }
        })();
        match &outcome {
            Ok(_) => self.tx.commit(action)?,
            Err(_) => self.tx.abort(action),
        }
        outcome
    }

    /// Commits the intents on `uid` that `src` holds in doubt and the
    /// coordinator decided to commit. Undecided ones stay for `src`'s own
    /// recovery, which also releases the decision records once its whole
    /// intent log is settled. A down `src` settles nothing.
    fn settle_decided(&self, src: NodeId, uid: Uid) {
        let tokens = self
            .stores
            .with(src, |s| s.indoubt_on(uid))
            .unwrap_or_default();
        for token in tokens {
            if self.tx.decision(token) {
                let _ = self.stores.commit_local(src, token);
            }
        }
    }

    /// Writes a fetched current state into `node`'s store and `Include`s
    /// the node back into `St`, under `action`. A failed local write is
    /// the store's own error, so a crashed node reports a failure.
    fn install(
        &self,
        action: ActionId,
        node: NodeId,
        uid: Uid,
        state: ObjectState,
    ) -> Result<(), DbError> {
        self.stores
            .write_local(node, uid, state)
            .map_err(DbError::Store)?;
        self.naming.remote(node, Cost::UPDATE, |ns| {
            ns.state_db.include(action, uid, node)
        })?;
        Ok(())
    }
}

/// What happened to one object during store recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefreshOutcome {
    AlreadyCurrent,
    Refreshed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_db::ExcludePolicy;
    use groupview_sim::{Cause, ClientId, SimConfig};
    use groupview_store::{StoreError, TypeTag};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    /// Excludes n2 from `uid()`'s store set, from n3.
    fn exclude_n2(ns: &NamingService, action: ActionId) {
        let batch = [(uid(), vec![n(2)])];
        ns.remote(n(3), Cost::EXCLUDE, |ns| {
            ns.state_db
                .exclude(action, &batch, ExcludePolicy::ExcludeWriteLock)
        })
        .unwrap();
    }

    fn state(b: &[u8]) -> ObjectState {
        ObjectState::initial(TypeTag::new(1), b.to_vec())
    }

    /// naming at n0; stores at n1, n2; servers n1, n2.
    fn world() -> (Sim, TxSystem, NamingService, Stores, RecoveryManager) {
        let sim = Sim::new(SimConfig::new(44).with_nodes(4));
        let stores = Stores::new(&sim);
        stores.add_store(n(1));
        stores.add_store(n(2));
        let tx = TxSystem::new(&sim, &stores);
        let ns = NamingService::new(&sim, &tx, n(0));
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid(), vec![n(1), n(2)], vec![n(1), n(2)])
            .unwrap();
        tx.commit(a).unwrap();
        stores.write_local(n(1), uid(), state(b"v0")).unwrap();
        stores.write_local(n(2), uid(), state(b"v0")).unwrap();
        let rm = RecoveryManager::new(&sim, &ns, &stores);
        (sim, tx, ns, stores, rm)
    }

    #[test]
    fn excluded_store_is_refreshed_and_reincluded() {
        let (sim, tx, ns, stores, rm) = world();
        // n2 crashes; a commit writes v1 to n1 only and excludes n2.
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        stores.write_local(n(1), uid(), state(b"v1")).unwrap();
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        assert_eq!(ns.state_db.entry(uid()).unwrap().stores, vec![n(1)]);

        let report = rm.recover_node(n(2));
        assert_eq!(report.refreshed, vec![uid()]);
        assert_eq!(report.included, vec![uid()]);
        assert!(report.fully_recovered());
        assert_eq!(
            stores.read_local(n(2), uid()).unwrap().data,
            b"v1",
            "state refreshed from n1"
        );
        assert_eq!(ns.state_db.entry(uid()).unwrap().stores, vec![n(1), n(2)]);
    }

    #[test]
    fn store_still_in_st_needs_no_refresh() {
        let (sim, _tx, ns, stores, rm) = world();
        sim.crash(n(2));
        // No commit happened while n2 was down — it is still in St.
        let report = rm.recover_node(n(2));
        assert!(report.refreshed.is_empty());
        assert!(report.included.is_empty());
        assert_eq!(stores.read_local(n(2), uid()).unwrap().data, b"v0");
        assert_eq!(ns.state_db.entry(uid()).unwrap().stores.len(), 2);
    }

    #[test]
    fn server_insert_runs_on_recovery() {
        let (sim, _tx, ns, _stores, rm) = world();
        sim.crash(n(1));
        let report = rm.recover_node(n(1));
        assert!(report.refreshed.is_empty(), "still in St");
        assert_eq!(report.inserted, vec![uid()], "quiescence check passed");
        assert_eq!(ns.server_db.entry(uid()).unwrap().servers.len(), 2);
    }

    #[test]
    fn server_insert_deferred_while_clients_active() {
        let (sim, tx, ns, _stores, rm) = world();
        // A client is using the object (non-empty use list).
        let a = tx.begin_top(n(3));
        ns.server_db
            .get_server_locked(a, uid(), groupview_actions::LockMode::Write)
            .unwrap();
        ns.server_db
            .increment(a, ClientId::new(7), uid(), &[n(2)])
            .unwrap();
        tx.commit(a).unwrap();

        sim.crash(n(1));
        let report = rm.recover_node(n(1));
        assert_eq!(report.insert_deferred, vec![uid()]);
        assert!(!report.fully_recovered());

        // After the client releases, a retry succeeds.
        let b = tx.begin_top(n(3));
        ns.server_db
            .decrement(b, ClientId::new(7), uid(), &[n(2)])
            .unwrap();
        tx.commit(b).unwrap();
        let retry = rm.recover_server(n(1));
        assert_eq!(retry.inserted, vec![uid()]);
    }

    #[test]
    fn indoubt_transactions_resolve_from_decision_record() {
        let (sim, tx, _ns, stores, rm) = world();
        // Simulate a participant crash between phases: prepared writes with
        // a committed decision, plus an undecided one.
        let committed_tok = {
            let a = tx.begin_top(n(3));
            tx.add_participant(
                a,
                groupview_actions::StoreWriteParticipant::new(
                    &sim,
                    &stores,
                    n(3),
                    n(1),
                    TxSystem::token(a),
                    vec![(uid(), state(b"committed"))],
                ),
            )
            .unwrap();
            sim.crash_after_sends(n(1), 1); // dies after prepare ack
            tx.commit(a).unwrap();
            TxSystem::token(a)
        };
        // Also park an undecided prepared tx directly in the (now down)
        // store's stable intent log — possible because stable storage is
        // written before the crash in the real protocol.
        sim.recover(n(1));
        let orphan = TxToken::new(9999);
        stores
            .prepare_local(n(1), orphan, vec![(uid(), state(b"orphan"))])
            .unwrap();
        sim.crash(n(1));

        assert_eq!(
            tx.decisions(),
            vec![(committed_tok, vec![n(1)])],
            "the record is kept for the in-doubt participant only"
        );
        let report = rm.recover_node(n(1));
        assert_eq!(report.resolved_commits, vec![committed_tok]);
        assert_eq!(report.resolved_aborts, vec![orphan]);
        assert!(
            tx.decisions().is_empty(),
            "last in-doubt intent resolved: the record is forgotten"
        );
        assert_eq!(
            stores.read_local(n(1), uid()).unwrap().data,
            b"committed",
            "decided-commit installed, orphan discarded"
        );
    }

    #[test]
    fn refresh_reads_a_source_whose_phase_2_commit_was_lost_after_settling_it() {
        let (sim, tx, ns, stores, rm) = world();
        // n2 is down; action a writes v1 to n1 alone and excludes n2.
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        stores.write_local(n(1), uid(), state(b"v1")).unwrap();
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        // Action b prepares v2 at n1, but its phase-2 commit is lost: n1
        // stays in St, in doubt, still holding v1 as committed.
        let b = tx.begin_top(n(3));
        tx.add_participant(
            b,
            groupview_actions::StoreWriteParticipant::new(
                &sim,
                &stores,
                n(3),
                n(1),
                TxSystem::token(b),
                vec![(uid(), state(b"v2"))],
            ),
        )
        .unwrap();
        // n1 stops after its prepare ack and comes back up without running
        // recovery: the same store as one whose commit message was dropped.
        sim.crash_after_sends(n(1), 1);
        tx.commit(b).unwrap();
        sim.recover(n(1));
        assert_eq!(stores.read_local(n(1), uid()).unwrap().data, b"v1");
        assert_eq!(tx.decisions(), vec![(TxSystem::token(b), vec![n(1)])]);

        // n2's refresh copies b's state, not the v1 n1 held as committed.
        let report = rm.recover_node(n(2));
        assert_eq!(report.refreshed, vec![uid()]);
        assert_eq!(stores.read_local(n(2), uid()).unwrap().data, b"v2");
        assert_eq!(stores.read_local(n(1), uid()).unwrap().data, b"v2");
        assert!(stores.with(n(1), |s| s.indoubt()).unwrap().is_empty());
        // n1's own recovery then finds nothing in doubt and releases the
        // record.
        rm.recover_node(n(1));
        assert!(tx.decisions().is_empty());
    }

    #[test]
    fn retired_replica_is_purged_not_resurrected() {
        let (sim, tx, ns, stores, rm) = world();
        // n2 crashes; while it is down the replica at n2 migrates away:
        // exclude n2 from St and drop the tombstone.
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        stores.retire(n(2), uid());

        let report = rm.recover_node(n(2));
        assert_eq!(report.purged, vec![uid()], "stale copy purged");
        assert!(report.refreshed.is_empty(), "no refresh for retired copy");
        assert!(report.included.is_empty(), "not re-included into St");
        assert!(report.fully_recovered());
        assert!(
            stores.read_local(n(2), uid()).is_err(),
            "local copy physically removed"
        );
        assert!(!stores.is_retired(n(2), uid()), "tombstone cleared");
        assert_eq!(
            ns.state_db.entry(uid()).unwrap().stores,
            vec![n(1)],
            "St untouched by the recovered node"
        );
    }

    #[test]
    fn recovery_of_node_without_store_only_reinserts() {
        let (sim, _tx, ns, _stores, rm) = world();
        // n3 has no store and is not in Sv: recovery is a no-op.
        sim.crash(n(3));
        let report = rm.recover_node(n(3));
        assert_eq!(report, RecoveryReport::default());
        assert!(ns.server_db.entry(uid()).unwrap().servers.contains(&n(1)));
    }

    /// A §4.2 refresh whose local write fails (the recovering node crashed
    /// after fetching the state) reports the store's failure, not a
    /// missing entry, and leaves the node out of `St`.
    #[test]
    fn a_failed_local_install_is_a_store_failure() {
        let (sim, tx, ns, _stores, rm) = world();
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        let a = tx.begin_top(n(3));
        let err = rm.install(a, n(2), uid(), state(b"v1")).unwrap_err();
        tx.abort(a);
        assert_eq!(err, DbError::Store(StoreError::NodeDown(n(2))));
        assert_eq!(err.cause(), Cause::Failure);
        assert_eq!(ns.state_db.entry(uid()).unwrap().stores, vec![n(1)]);
    }

    #[test]
    fn refresh_deferred_when_no_source_reachable() {
        let (sim, tx, ns, stores, rm) = world();
        // Exclude n2, then also take n1 (the only current store) down.
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        sim.crash(n(1));
        let report = rm.recover_node(n(2));
        assert_eq!(report.refresh_deferred, vec![uid()]);
        assert!(!report.fully_recovered());
        // Once n1 is back, the retry succeeds.
        rm.recover_node(n(1));
        let retry = rm.recover_store(n(2));
        assert_eq!(retry.included, vec![uid()]);
        assert_eq!(stores.read_local(n(2), uid()).unwrap().data, b"v0");
    }

    #[test]
    fn retry_does_only_the_deferred_work() {
        let (sim, tx, ns, stores, rm) = world();
        // n2 is excluded while down, and its only source n1 goes down too.
        sim.crash(n(2));
        let a = tx.begin_top(n(3));
        exclude_n2(&ns, a);
        tx.commit(a).unwrap();
        sim.crash(n(1));
        let work = rm.recover_node(n(2)).deferred(n(2));
        assert_eq!(work.refresh, vec![uid()]);
        assert!(work.insert.is_empty(), "n2's Insert went through");
        // Nothing changes while the source stays down.
        assert_eq!(rm.retry(&work).deferred(n(2)), work);
        sim.recover(n(1));
        let report = rm.retry(&work);
        assert_eq!(report.included, vec![uid()]);
        assert!(report.inserted.is_empty(), "the done Insert is not redone");
        assert!(report.deferred(n(2)).is_done());
        assert_eq!(stores.read_local(n(2), uid()).unwrap().data, b"v0");
    }

    /// An object the node already recovered, then lost again to a commit's
    /// `Exclude` while other work was still deferred, is left alone by the
    /// retry: §4.2 gives the refresh duty to a crashed node, and the live
    /// node's copy is out of `St`, so no one reads it. The node's next
    /// recovery includes it again.
    #[test]
    fn an_object_excluded_again_while_recovering_stays_excluded() {
        let (sim, tx, ns, stores, rm) = world();
        // A second object, stored on n2 and n3 only.
        stores.add_store(n(3));
        let other = Uid::from_raw(2);
        let a = tx.begin_top(n(0));
        ns.register_object(a, other, vec![n(1)], vec![n(2), n(3)])
            .unwrap();
        tx.commit(a).unwrap();
        stores.write_local(n(2), other, state(b"w0")).unwrap();
        stores.write_local(n(3), other, state(b"w0")).unwrap();
        // n2 is excluded from both while down; then n3 goes down as well.
        sim.crash(n(2));
        let a = tx.begin_top(n(0));
        let batch = [(uid(), vec![n(2)]), (other, vec![n(2)])];
        ns.state_db
            .exclude(a, &batch, ExcludePolicy::ExcludeWriteLock)
            .unwrap();
        tx.commit(a).unwrap();
        sim.crash(n(3));
        let report = rm.recover_node(n(2));
        assert_eq!(report.included, vec![uid()]);
        let work = report.deferred(n(2));
        assert_eq!(work.refresh, vec![other], "no source for the second");
        // While n2 is still recovering, a commit excludes it from uid()
        // again.
        let a = tx.begin_top(n(0));
        ns.state_db
            .exclude(a, &[(uid(), vec![n(2)])], ExcludePolicy::ExcludeWriteLock)
            .unwrap();
        tx.commit(a).unwrap();
        sim.recover(n(3));
        let report = rm.retry(&work);
        assert_eq!(report.included, vec![other]);
        assert!(report.deferred(n(2)).is_done());
        assert_eq!(ns.state_db.entry(uid()).unwrap().stores, vec![n(1)]);
        // The next recovery of n2 includes it again.
        sim.crash(n(2));
        assert_eq!(rm.recover_node(n(2)).included, vec![uid()]);
    }
}
