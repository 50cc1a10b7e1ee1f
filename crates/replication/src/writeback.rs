//! Commit-time state copy with `Exclude` (§2.3(3), §3.2, §4.2).
//!
//! "At commit time, an attempt is made to copy the state of the object at α
//! to the object stores of all the nodes ∈ StA. To ensure that StA contains
//! the names of only those nodes with mutually consistent states of A, the
//! names of all those nodes for which the copy operation failed must be
//! removed from StA."
//!
//! The copy is the *prepare* phase of the store write: each store in `St`
//! durably stages the new state, all in one round that costs the slowest
//! store on the virtual clock; stores that cannot be reached are
//! `Exclude`d from `St` within the same client action (so the exclusion
//! commits or aborts atomically with the state change). Each participant
//! enlists with the action as soon as its prepare succeeds, and rides the
//! action's two-phase commit, where its prepare is a no-op: a store
//! participant prepares at most once.
//!
//! The write-back keeps nothing of its own: the new state of each object
//! waits in its activation (`Activation::staged`), each prepared store in
//! the action record's participant vector. A verdict that dooms the
//! action just returns the error; the caller aborts the action, and the
//! abort discards every staged intent — abort is the only cleanup path.
//!
//! Failure rules straight from the paper:
//! * every store down → the action must abort ([`CommitError::AllStoresFailed`]);
//! * the `Exclude` lock refused (plain-write promotion under concurrent
//!   readers) → the action must abort ([`CommitError::Exclude`]);
//! * the object was never modified → no copy at all (read optimisation).
//!
//! A store the action already found dead — a suspect of one of its
//! activations (see `activation.rs`) — is excluded without being sent a
//! prepare, so the action waits on each dead node once. That holds only
//! while every object keeps an unsuspected `St` member to write and
//! exclusion is enabled; otherwise every store in `St` is prepared, a
//! suspect included (it may have recovered).

use crate::error::CommitError;
use crate::invoke::ObjectGroup;
use crate::system::System;
use groupview_actions::{ActionId, StoreWriteParticipant, TxError, TxSystem};
use groupview_core::{Cost, DbError};
use groupview_sim::{NodeId, NodeList};
use groupview_store::Uid;

impl System {
    /// Stages the modified state of every dirty `groups` activation on
    /// every functioning store in its `St`, excluding the unreachable ones,
    /// and enlists each staged write with `action`'s two-phase commit as
    /// soon as it is prepared. Each dirty activation keeps the state (and
    /// so the version) its object will have once the action commits, in
    /// its `staged` slot. On an error the caller aborts the action, which
    /// discards every staged write.
    ///
    /// The staging is **one participant per store node over the union of
    /// touched objects**: a store's intent log keeps one staged write-set
    /// per transaction token, so a multi-object transaction must hand each
    /// store all of its writes at once — per-object participants would
    /// overwrite each other's staged sets and commit only the last object.
    pub(crate) fn do_writeback(
        &self,
        action: ActionId,
        groups: &[ObjectGroup],
    ) -> Result<(), CommitError> {
        let inner = &self.inner;
        let dirty = || groups.iter().filter(|g| g.dirty.get());
        if dirty().next().is_none() {
            return Ok(());
        }
        let coordinator = inner
            .tx
            .client_node(action)
            .ok_or(CommitError::Tx(TxError::NotActive(action)))?;

        // The final (uncommitted) state of each object, from a surviving
        // replica the action actually wrote through (the bound set Sv').
        // Only replicas of the lineage pinned at activation qualify: a
        // reborn copy (crashed and reloaded from the stores by a later
        // activation) holds the last *committed* state without this
        // action's operations — committing its snapshot would silently
        // discard them.
        for group in dirty() {
            let uid = group.uid;
            let mut final_state = None;
            for &node in &group.servers {
                let Some(pinned) = group.pinned_incarnation(node) else {
                    continue;
                };
                if !inner.sim.is_up(node) {
                    continue;
                }
                let Some(handle) = inner.registry.get(uid, node) else {
                    continue;
                };
                if handle.borrow().incarnation() != pinned {
                    continue;
                }
                let snapshot = handle.borrow_mut().snapshot_state(&inner.sim, &inner.wire);
                if let Some(state) = snapshot {
                    final_state = Some(state);
                    break;
                }
            }
            let mut state = final_state.ok_or(CommitError::NoFinalState(uid))?;
            state.version = state.version.next();
            group.staged.replace(Some(state));
        }

        // Stage one write-set per store of the union across all touched
        // objects, in first-seen order (so the single-object message
        // sequence is unchanged); collect failures with sources.
        let token = TxSystem::token(action);
        let skipped = skipped_suspects(dirty(), inner.exclude_enabled);
        let mut failed = NodeList::new();
        let mut last_fault = None;
        let union = dirty().enumerate().flat_map(|(i, group)| {
            group
                .st_nodes
                .iter()
                .enumerate()
                .filter(move |&(j, st_node)| {
                    !group.st_nodes[..j].contains(st_node)
                        && !dirty().take(i).any(|g| g.st_nodes.contains(st_node))
                })
                .map(|(_, &st_node)| st_node)
        });
        // The prepares go out together: the round costs the slowest store.
        let mut fork = inner.sim.fork();
        for st_node in union {
            inner.sim.branch(&mut fork);
            if skipped.contains(&st_node) {
                failed.push(st_node);
                continue;
            }
            // The write-set this store's last committed intent left behind.
            let mut writes = inner.stores.write_set(st_node);
            writes.extend(
                dirty()
                    .filter(|g| g.st_nodes.contains(&st_node))
                    .filter_map(|g| g.staged.borrow().clone().map(|state| (g.uid, state))),
            );
            let mut participant = StoreWriteParticipant::new(
                &inner.sim,
                &inner.stores,
                coordinator,
                st_node,
                token,
                writes,
            );
            match participant.try_prepare() {
                Ok(()) => inner
                    .tx
                    .add_participant(action, participant)
                    .map_err(CommitError::Tx)?,
                Err(fault) => {
                    failed.push(st_node);
                    last_fault = Some(fault);
                }
            }
        }
        inner.sim.join(fork);

        // Per-object verdicts: any object whose *entire* `St` missed the
        // copy dooms the action ("all the nodes ∈ StA are down" — the
        // action must abort; the carried fault lets metrics attribute the
        // abort to the crash). Partially missed objects exclude the missed
        // stores instead; if the view went stale and the entry now lists
        // only missed stores, the `Exclude` refuses to empty it and the
        // action aborts all the same.
        let mut exclusions: Vec<(Uid, Vec<NodeId>)> = Vec::new();
        for group in dirty() {
            let missed: Vec<NodeId> = group
                .st_nodes
                .iter()
                .copied()
                .filter(|node| failed.contains(node))
                .collect();
            if missed.len() == group.st_nodes.len() {
                return Err(match last_fault {
                    Some(last) => CommitError::AllStoresFailed {
                        uid: group.uid,
                        last,
                    },
                    // No store was tried: the view is empty, which an
                    // exclusion never leaves.
                    None => CommitError::Exclude(DbError::LastStore(group.uid)),
                });
            }
            if !missed.is_empty() {
                exclusions.push((group.uid, missed));
            }
        }

        if !exclusions.is_empty() && inner.exclude_enabled {
            // Exclude the missed stores within this same action. The client
            // already holds a read lock on the entries (taken at
            // activation); the policy decides whether this is a write
            // promotion or the paper's exclude-write lock.
            inner
                .naming
                .remote(coordinator, Cost::EXCLUDE, |ns| {
                    ns.state_db
                        .exclude(action, &exclusions, inner.exclude_policy)
                })
                .map_err(CommitError::Exclude)?;
        }
        Ok(())
    }
}

/// The suspects of the `dirty` activations that the write-back excludes
/// without a prepare: all of them, if exclusion is on and every object
/// keeps an unsuspected `St` member; otherwise none. Empty (and no scan
/// beyond the groups) when the action has seen no failure.
fn skipped_suspects<'a>(
    dirty: impl Iterator<Item = &'a ObjectGroup> + Clone,
    exclude_enabled: bool,
) -> NodeList {
    let mut suspects = NodeList::new();
    for &node in dirty.clone().flat_map(|g| g.suspects.iter()) {
        if !suspects.contains(&node) {
            suspects.push(node);
        }
    }
    let writable = |g: &ObjectGroup| g.st_nodes.iter().any(|n| !suspects.contains(n));
    if suspects.is_empty() || !exclude_enabled || !dirty.clone().all(writable) {
        return NodeList::new();
    }
    suspects
}
