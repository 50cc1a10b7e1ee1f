//! Commit-time state copy with `Exclude` (§2.3(3), §3.2, §4.2).
//!
//! "At commit time, an attempt is made to copy the state of the object at α
//! to the object stores of all the nodes ∈ StA. To ensure that StA contains
//! the names of only those nodes with mutually consistent states of A, the
//! names of all those nodes for which the copy operation failed must be
//! removed from StA."
//!
//! The copy is the *prepare* phase of the store write: each store in `St`
//! durably stages the new state; stores that cannot be reached are
//! `Exclude`d from `St` within the same client action (so the exclusion
//! commits or aborts atomically with the state change). The staged
//! participants then ride the action's two-phase commit, where their
//! prepare is a no-op: a store participant prepares at most once.
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
use groupview_actions::{ActionId, StoreWriteParticipant, TxSystem};
use groupview_core::{Cost, DbError};
use groupview_sim::{NodeId, NodeList};
use groupview_store::{ObjectState, Uid};

impl System {
    /// Stages the modified state of every `groups` object on every
    /// functioning store in its `St`, excluding the unreachable ones, and
    /// registers the staged writes with `action`'s two-phase commit.
    /// Returns the state (and so the version) each object will have once
    /// the action commits, parallel to `groups`.
    ///
    /// The staging is **one participant per store node over the union of
    /// touched objects**: a store's intent log keeps one staged write-set
    /// per transaction token, so a multi-object transaction must hand each
    /// store all of its writes at once — per-object participants would
    /// overwrite each other's staged sets and commit only the last object.
    pub(crate) fn do_writeback(
        &self,
        action: ActionId,
        groups: &[&ObjectGroup],
    ) -> Result<Vec<ObjectState>, CommitError> {
        let inner = &self.inner;

        // The final (uncommitted) state of each object, from a surviving
        // replica the action actually wrote through (the bound set Sv').
        // Only replicas of the lineage pinned at activation qualify: a
        // reborn copy (crashed and reloaded from the stores by a later
        // activation) holds the last *committed* state without this
        // action's operations — committing its snapshot would silently
        // discard them.
        let mut new_states: Vec<ObjectState> = Vec::with_capacity(groups.len());
        for group in groups {
            let uid = group.uid;
            let mut final_state: Option<ObjectState> = None;
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
            new_states.push(state);
        }

        let token = TxSystem::token(action);
        let coordinator = inner
            .tx
            .client_node(action)
            .unwrap_or_else(|| groups[0].req.client_node);

        // Stage one write-set per store of the union across all touched
        // objects, in first-seen order (so the single-object message
        // sequence is unchanged); collect failures with sources.
        let skipped = skipped_suspects(groups, inner.exclude_enabled);
        let mut prepared: Vec<StoreWriteParticipant> = Vec::new();
        let mut failed: Vec<NodeId> = Vec::new();
        let mut last_fault = None;
        let union = groups.iter().enumerate().flat_map(|(i, group)| {
            group
                .st_nodes
                .iter()
                .enumerate()
                .filter(move |&(j, st_node)| {
                    !group.st_nodes[..j].contains(st_node)
                        && !groups[..i].iter().any(|g| g.st_nodes.contains(st_node))
                })
                .map(|(_, &st_node)| st_node)
        });
        for st_node in union {
            if skipped.contains(&st_node) {
                failed.push(st_node);
                continue;
            }
            // The write-set this store's last committed intent left behind.
            let mut writes = inner.stores.write_set(st_node);
            writes.extend(
                groups
                    .iter()
                    .zip(&new_states)
                    .filter(|(g, _)| g.st_nodes.contains(&st_node))
                    .map(|(g, state)| (g.uid, state.clone())),
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
                Ok(()) => prepared.push(participant),
                Err(fault) => {
                    failed.push(st_node);
                    last_fault = Some(fault);
                }
            }
        }

        // Per-object verdicts: any object whose *entire* `St` missed the
        // copy dooms the action ("all the nodes ∈ StA are down" — the
        // action must abort; the carried fault lets metrics attribute the
        // abort to the crash). Partially missed objects exclude the missed
        // stores instead; if the view went stale and the entry now lists
        // only missed stores, the `Exclude` refuses to empty it and the
        // action aborts all the same.
        let mut exclusions: Vec<(Uid, Vec<NodeId>)> = Vec::new();
        let mut doomed: Option<CommitError> = None;
        for group in groups {
            let missed: Vec<NodeId> = group
                .st_nodes
                .iter()
                .copied()
                .filter(|node| failed.contains(node))
                .collect();
            if missed.len() == group.st_nodes.len() {
                doomed = Some(match last_fault {
                    Some(last) => CommitError::AllStoresFailed {
                        uid: group.uid,
                        last,
                    },
                    // No store was tried: the view is empty, which an
                    // exclusion never leaves.
                    None => CommitError::Exclude(DbError::LastStore(group.uid)),
                });
                break;
            }
            if !missed.is_empty() {
                exclusions.push((group.uid, missed));
            }
        }
        if let Some(e) = doomed {
            for mut p in prepared {
                p.abort();
            }
            return Err(e);
        }

        if !exclusions.is_empty() && inner.exclude_enabled {
            // Exclude the missed stores within this same action. The client
            // already holds a read lock on the entries (taken at
            // activation); the policy decides whether this is a write
            // promotion or the paper's exclude-write lock.
            if let Err(e) = inner.naming.remote(coordinator, Cost::EXCLUDE, |ns| {
                ns.state_db
                    .exclude(action, &exclusions, inner.exclude_policy)
            }) {
                for mut p in prepared {
                    p.abort();
                }
                return Err(CommitError::Exclude(e));
            }
        }

        for participant in prepared {
            inner
                .tx
                .add_participant(action, participant)
                .map_err(CommitError::Tx)?;
        }
        Ok(new_states)
    }
}

/// The suspects of `groups`' activations that the write-back excludes
/// without a prepare: all of them, if exclusion is on and every object
/// keeps an unsuspected `St` member; otherwise none. Empty (and no scan
/// beyond the groups) when the action has seen no failure.
fn skipped_suspects(groups: &[&ObjectGroup], exclude_enabled: bool) -> NodeList {
    let mut suspects = NodeList::new();
    for &node in groups.iter().flat_map(|g| g.suspects.iter()) {
        if !suspects.contains(&node) {
            suspects.push(node);
        }
    }
    let writable = |g: &&ObjectGroup| g.st_nodes.iter().any(|n| !suspects.contains(n));
    if suspects.is_empty() || !exclude_enabled || !groups.iter().all(writable) {
        return NodeList::new();
    }
    suspects
}
