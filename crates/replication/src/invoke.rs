//! Operation invocation under the three replication policies (§2.3(2)).
//!
//! Every policy shares one wire discipline: the operations of an invocation,
//! one or many, are encoded into a single pooled
//! [`GroupMsg`](crate::wire::GroupMsg) frame, and that frame — not a fresh
//! vector per RPC closure — travels to however many replicas the policy
//! involves. Replies and checkpoints come back as
//! shared buffers too; see `docs/WIRE.md` for the ownership rules.

use crate::error::InvokeError;
use crate::policy::ReplicationPolicy;
use crate::replica::ReplicaHandle;
use crate::system::System;
use crate::wire::{self, GroupMsgCodec, MemberReply, MemberReplyCodec, Replies};
use groupview_actions::{ActionId, LockMode};
use groupview_core::keys::object_key;
use groupview_core::{BindRequest, Binding};
use groupview_group::{Enrolment, GroupId, GroupMember};
use groupview_obs::{Counter as ObsCounter, Phase};
use groupview_sim::wire::Codec;
use groupview_sim::{Bytes, InlineVec, NodeId, NodeList, Sim, WireEncoder};
use groupview_store::{ObjectState, SnapshotCodec, Uid};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A client's handle to an activated object: the bound servers plus the
/// `St` view captured (and read-locked) at activation.
///
/// One refcounted [`Activation`]: the client's action table owns it and
/// the caller shares the allocation the activation built, so a clone is a
/// pointer bump. Fields read through `Deref` (`group.servers`,
/// `group.uid`, …).
#[derive(Debug, Clone)]
pub struct ObjectGroup(pub(crate) Rc<Activation>);

impl Deref for ObjectGroup {
    type Target = Activation;

    fn deref(&self) -> &Activation {
        &self.0
    }
}

/// What one activation bound (the shared body of an [`ObjectGroup`]).
#[derive(Debug)]
pub struct Activation {
    /// The action this activation was made for.
    pub(crate) action: ActionId,
    /// The object.
    pub uid: Uid,
    /// The replication policy the object is activated under.
    pub policy: ReplicationPolicy,
    /// The bound servers (`Sv'`).
    pub servers: NodeList,
    /// `St(A)` as read at activation. Its entry stays read-locked by the
    /// client action, but the §4.2.1 exclude-write lock lets a concurrent
    /// commit shrink it, so this view may have gone stale by commit time.
    pub st_nodes: NodeList,
    /// The multicast group (active replication only).
    pub(crate) comms_group: Option<GroupId>,
    /// The original bind request (needed for binding completion).
    pub(crate) req: BindRequest,
    /// The binding (registration state, statistics).
    pub(crate) binding: Binding,
    /// Nodes this activation found dead: the binding's probe failures and
    /// every store whose state read failed. Empty unless a failure was
    /// seen; the commit excludes a suspected store without preparing it.
    pub(crate) suspects: NodeList,
    /// The state lineage of every bound replica, pinned at activation
    /// (see [`crate::ServerReplica::incarnation`]): invoke and commit
    /// refuse replicas that were reborn (crashed and reloaded by a later
    /// activation) underneath this action.
    pub(crate) incarnations: InlineVec<(NodeId, u64), { NodeList::CAPACITY }>,
    /// Whether an operation through this activation mutated the object:
    /// commit writes back exactly the dirty activations of its action.
    pub(crate) dirty: Cell<bool>,
    /// The state (at its next version) the commit-time copy staged for
    /// this object, from the write-back until the commit's outcome is
    /// known (see `writeback.rs`).
    pub(crate) staged: RefCell<Option<ObjectState>>,
}

impl Activation {
    /// The binding statistics recorded when this group was activated.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The multicast group the bound replicas are enrolled in (active
    /// replication only), for introspection through
    /// [`crate::System::comms`].
    pub fn multicast_group(&self) -> Option<GroupId> {
        self.comms_group
    }

    /// The incarnation pinned for `node` at activation.
    pub(crate) fn pinned_incarnation(&self, node: NodeId) -> Option<u64> {
        self.incarnations
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, inc)| inc)
    }

    /// Whether `node`'s replica still belongs to the lineage this action
    /// bound: up, present, and of the pinned incarnation.
    fn same_lineage(&self, sys: &System, node: NodeId) -> bool {
        let inner = &sys.inner;
        inner.sim.is_up(node)
            && self.pinned_incarnation(node).is_some_and(|pinned| {
                inner
                    .registry
                    .get(self.uid, node)
                    .is_some_and(|r| r.borrow().incarnation() == pinned)
            })
    }
}

/// Adapter making a [`ReplicaHandle`] a multicast group member.
pub(crate) struct ReplicaMember {
    sim: Sim,
    wire: WireEncoder,
    replica: ReplicaHandle,
    /// The lineage this membership was enrolled for: a reborn replica
    /// (reloaded by a later activation) answers "not loaded" instead of
    /// executing operations that belong to the previous incarnation.
    expected_incarnation: u64,
}

impl ReplicaMember {
    pub(crate) fn new(
        sim: &Sim,
        wire: &WireEncoder,
        replica: ReplicaHandle,
        expected_incarnation: u64,
    ) -> Self {
        ReplicaMember {
            sim: sim.clone(),
            wire: wire.clone(),
            replica,
            expected_incarnation,
        }
    }

    /// What a member enrolled for `replica` at `incarnation` stands for.
    /// The target is the replica's address: a member owns its replica
    /// handle, so the address stays taken for as long as it is enrolled.
    pub(crate) fn enrolment_for(replica: &ReplicaHandle, incarnation: u64) -> Enrolment {
        Enrolment {
            target: Rc::as_ptr(replica) as *const () as usize,
            incarnation,
        }
    }
}

impl fmt::Debug for ReplicaMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaMember").finish_non_exhaustive()
    }
}

impl GroupMember for ReplicaMember {
    fn deliver(&mut self, _seq: u64, msg: &Bytes) -> Bytes {
        let reply = if self.replica.borrow().incarnation() != self.expected_incarnation {
            MemberReply::NotLoaded
        } else {
            match GroupMsgCodec::decode(msg) {
                Some(m) => {
                    MemberReply::from(self.replica.borrow_mut().invoke(&self.sim, &self.wire, &m))
                }
                None => MemberReply::NotLoaded,
            }
        };
        MemberReplyCodec::encode(&self.wire, &reply)
    }

    fn enrolment(&self) -> Option<Enrolment> {
        Some(Self::enrolment_for(
            &self.replica,
            self.expected_incarnation,
        ))
    }
}

impl System {
    /// Invokes `n` operations on the activated object behind `group`, on
    /// behalf of `action`, as **one** replicated unit, declaring write
    /// (`true`) or read-only (`false`) intent for object-level concurrency
    /// control: one lock acquisition, one operation id, one undo snapshot
    /// (abort restores the pre-invocation state and empties any replica
    /// slot that remembers the op), one pooled wire frame, one policy
    /// round, one dirty-marking.
    /// `write_op(i, buf)` encodes the `i`-th op straight into that frame.
    /// The replies come back index-aligned with the ops; `n == 0` is a
    /// no-op that touches neither locks nor the wire. Trace events caused
    /// by invocation messages are attributed to `action`.
    pub(crate) fn do_invoke(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        n: usize,
        write_intent: bool,
        write_op: &mut dyn FnMut(usize, &mut Vec<u8>),
    ) -> Result<Replies, InvokeError> {
        if n == 0 {
            return Ok(Replies::default());
        }
        let inner = &self.inner;
        if n > 1 {
            inner.obs.add(ObsCounter::BatchOps, n as u64);
        }
        inner.sim.with_active_action(action.raw(), || {
            let invoke_start = inner.sim.now().as_micros();
            inner.obs.add(ObsCounter::Invokes, 1);
            for &server in &group.servers {
                inner.obs.record_node_invoke(server.raw());
            }
            let mode = if write_intent {
                LockMode::Write
            } else {
                LockMode::Read
            };
            inner.tx.lock(action, object_key(group.uid), mode)?;
            let op_id = self.next_op_id();
            if write_intent {
                self.push_object_undo(action, group, op_id)?;
            }
            // The only encode of this invocation: one pooled frame shared
            // by every replica the policy touches (and by the retry loop of
            // the coordinator-cohort policy). Its buffer returns to the
            // pool when the last reference drops at the end of this call.
            let msg = inner
                .wire
                .encode_with(|buf| wire::write_invocation(buf, op_id, n, write_op));
            let (reply, mutated) = self.dispatch_policy(action, group, &msg)?;
            if mutated {
                group.dirty.set(true);
            }
            inner.obs.span(
                action.raw(),
                Phase::Invoke,
                invoke_start,
                inner.sim.now().as_micros(),
            );
            Replies::decode(reply, n).ok_or(InvokeError::MalformedReply(group.uid))
        })
    }

    /// The replicated leg of an invocation: route the encoded frame through
    /// the group's policy, recording the multicast/RPC span and counter.
    fn dispatch_policy(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        msg: &Bytes,
    ) -> Result<(Bytes, bool), InvokeError> {
        let inner = &self.inner;
        let mcast_start = inner.sim.now().as_micros();
        let result = match group.policy {
            ReplicationPolicy::Active => {
                inner.obs.add(ObsCounter::Multicasts, 1);
                self.invoke_active(group, msg)?
            }
            ReplicationPolicy::CoordinatorCohort => {
                inner.obs.add(ObsCounter::Rpcs, 1);
                self.invoke_cohort(group, msg)?
            }
            ReplicationPolicy::SingleCopyPassive => {
                inner.obs.add(ObsCounter::Rpcs, 1);
                self.invoke_single(group, msg)?
            }
        };
        inner.obs.span(
            action.raw(),
            Phase::Multicast,
            mcast_start,
            inner.sim.now().as_micros(),
        );
        Ok(result)
    }

    /// Logs this write into the action's undo arena so an abort restores
    /// every live same-lineage replica of the group's object to its
    /// pre-transaction state. The *first* write per (action, object) logs a
    /// snapshot entry with the pinned `(node, incarnation)` pairs; every
    /// later write appends only a `(uid, op_id)` record — amortised zero
    /// allocations per op. Reborn replicas (a different incarnation than
    /// the action bound) belong to other activations; the abort-time
    /// [`groupview_actions::UndoApplier`] re-checks incarnations and skips
    /// them.
    fn push_object_undo(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        op_id: u64,
    ) -> Result<(), groupview_actions::TxError> {
        let inner = &self.inner;
        let uid = group.uid;
        if !inner.tx.undo_logged(action, uid.raw()) {
            let mut snapshot = None;
            for &node in &group.servers {
                if !group.same_lineage(self, node) {
                    continue;
                }
                let handle = inner.registry.get(uid, node).expect("lineage checked");
                if !handle.borrow_mut().is_loaded(&inner.sim) {
                    continue;
                }
                // One snapshot restores every replica (all loaded copies
                // are mutually consistent).
                let state = handle
                    .borrow_mut()
                    .snapshot_state(&inner.sim, &inner.wire)
                    .expect("checked loaded");
                snapshot = Some((state.type_tag, state.data));
                break;
            }
            let Some((tag, data)) = snapshot else {
                return Ok(()); // nothing loaded — nothing to undo
            };
            let servers = group.servers.iter().filter_map(|&node| {
                if !group.same_lineage(self, node) {
                    return None;
                }
                let loaded = inner
                    .registry
                    .get(uid, node)
                    .is_some_and(|h| h.borrow_mut().is_loaded(&inner.sim));
                if !loaded {
                    return None;
                }
                Some((node.raw(), group.pinned_incarnation(node)?))
            });
            inner
                .tx
                .log_undo_snapshot(action, uid.raw(), tag.raw(), servers, &data)?;
        }
        inner.tx.log_undo_op(action, uid.raw(), op_id)
    }

    /// §2.3(2)(i): every replica processes the op via reliable ordered
    /// multicast; crashed replicas are masked while at least one survives.
    fn invoke_active(
        &self,
        group: &ObjectGroup,
        msg: &Bytes,
    ) -> Result<(Bytes, bool), InvokeError> {
        let inner = &self.inner;
        let gid = group
            .comms_group
            .ok_or(InvokeError::AllReplicasFailed(group.uid))?;
        let _ = inner.comms.prune_dead_members(gid);
        let outcome = inner
            .comms
            .multicast(gid, group.req.client_node, msg)
            .map_err(InvokeError::Group)?;
        // Virtual synchrony: a live member that nevertheless missed the
        // delivery (network partition) no longer holds current state — it
        // must be expelled from the activated group, or a later activation
        // could join its stale copy. Its next activation reloads from the
        // object stores.
        for &node in &outcome.missed {
            if let Some(handle) = inner.registry.get(group.uid, node) {
                handle.borrow_mut().unload(&inner.sim);
            }
            let _ = inner.comms.leave(gid, node);
        }
        // Use the first reply from a member that actually holds state; a
        // member that lost its volatile state answers "not loaded" and is
        // ignored (it is evicted at the next activation). The returned
        // payload is a zero-copy slice of the member's reply frame.
        let mut saw_unloaded = false;
        for (_, reply) in &outcome.replies {
            match MemberReplyCodec::decode(reply) {
                Some(MemberReply::Loaded(r)) => return Ok((r.reply, r.mutated)),
                Some(MemberReply::NotLoaded) => saw_unloaded = true,
                None => {}
            }
        }
        if saw_unloaded {
            Err(InvokeError::NotLoaded(group.uid))
        } else {
            Err(InvokeError::AllReplicasFailed(group.uid))
        }
    }

    /// §2.3(2)(ii): the coordinator (lowest-id live loaded replica)
    /// processes and checkpoints to the cohorts; on its failure a cohort is
    /// elected and the operation retried. This loop is the only retry in
    /// any policy, so only it fills the replicas' at-most-once slots: the
    /// coordinator remembers each op it applies, and each cohort remembers
    /// the op its checkpoint carries. A retry at either (the same
    /// coordinator after a lost reply, or a promoted cohort) replays the op
    /// instead of re-executing it.
    fn invoke_cohort(
        &self,
        group: &ObjectGroup,
        msg: &Bytes,
    ) -> Result<(Bytes, bool), InvokeError> {
        let inner = &self.inner;
        let uid = group.uid;
        // At most one retry per server: each failure removes a coordinator.
        for _ in 0..=group.servers.len() {
            // Only replicas of the pinned lineage may coordinate: a reborn
            // replica (reloaded from the stores by a later activation) is
            // loaded and alive, but has lost this action's uncommitted
            // operations — electing it would silently roll them back.
            let coordinator = group
                .servers
                .iter()
                .copied()
                .filter(|&s| {
                    group.same_lineage(self, s)
                        && inner
                            .registry
                            .get(uid, s)
                            .is_some_and(|r| r.borrow_mut().is_loaded(&inner.sim))
                })
                .min();
            let Some(coord) = coordinator else {
                return Err(InvokeError::AllReplicasFailed(uid));
            };

            // Checkpoints go only to cohorts that still hold a *loaded*
            // replica. A member that was expelled from the activation (its
            // bind probe failed, or it missed an earlier checkpoint) must
            // stay unloaded until a fresh activation reloads it from the
            // object stores — re-installing state here would resurrect it
            // into the activation set behind a concurrent action's back,
            // and a later activation could then elect it (stale) as
            // coordinator, silently losing committed updates. (Found by the
            // scenario oracle under `cohort/lossy_window`.)
            let mut cohorts = inner.cohort_scratch.take();
            cohorts.extend(group.servers.iter().copied().filter(|&s| {
                s != coord
                    && group.same_lineage(self, s)
                    && inner
                        .registry
                        .get(uid, s)
                        .is_some_and(|r| r.borrow_mut().is_loaded(&inner.sim))
            }));
            let cohorts_in_handler = &cohorts;
            let replica = inner.registry.get(uid, coord).expect("checked loaded");
            let sim = inner.sim.clone();
            let registry = inner.registry.clone();
            let types = inner.types.clone();
            let wire = inner.wire.clone();
            // Borrowed by the handler (rpc handlers are plain `FnOnce`s, not
            // boxed), so the common no-miss case allocates nothing.
            let missed_cohorts: RefCell<Vec<NodeId>> = RefCell::new(Vec::new());
            let missed_in_handler = &missed_cohorts;
            let result = inner.sim.rpc(
                group.req.client_node,
                coord,
                msg.wire_size(),
                64,
                move || {
                    let m = GroupMsgCodec::decode(msg)?;
                    // A retry of an op this replica already applied (as
                    // coordinator, or through a checkpoint) replays it,
                    // mutation flag included: the action must still write
                    // the op back at commit.
                    if let Some(replayed) = replica.borrow_mut().recall(&sim, m.op_id) {
                        return Some(replayed);
                    }
                    let result = replica.borrow_mut().invoke(&sim, &wire, &m);
                    if let Some(res) = &result {
                        if res.mutated {
                            replica.borrow_mut().remember(&sim, m.op_id, res);
                            // Checkpoint the new state to every cohort:
                            // encode ONE snapshot frame and push the same
                            // buffer to all of them; each cohort decodes a
                            // zero-copy view.
                            let snapshot = replica.borrow_mut().snapshot_state(&sim, &wire);
                            if let Some(state) = snapshot {
                                let frame = SnapshotCodec::encode(&wire, &state);
                                for &cohort in cohorts_in_handler {
                                    // Pre-filtered loaded above; a missing
                                    // handle means the cohort was expelled
                                    // concurrently and must stay out.
                                    let Some(target) = registry.get(uid, cohort) else {
                                        continue;
                                    };
                                    let types = &types;
                                    let sim_inner = &sim;
                                    if sim
                                        .send_oneway(coord, cohort, frame.wire_size(), || {
                                            if let Some(chk) = SnapshotCodec::decode(&frame) {
                                                target.borrow_mut().install_checkpoint(
                                                    sim_inner,
                                                    &chk,
                                                    Some((m.op_id, res)),
                                                    types,
                                                );
                                            }
                                        })
                                        .is_err()
                                        && sim.is_up(cohort)
                                    {
                                        // Live but unreachable (partition):
                                        // the cohort missed this checkpoint
                                        // and must leave the activated group.
                                        missed_in_handler.borrow_mut().push(cohort);
                                    }
                                }
                            }
                        }
                    }
                    result
                },
            );
            // Expel cohorts that missed the checkpoint (stale copies).
            for &node in missed_cohorts.borrow().iter() {
                if let Some(handle) = inner.registry.get(uid, node) {
                    handle.borrow_mut().unload(&inner.sim);
                }
            }
            cohorts.clear();
            inner.cohort_scratch.replace(cohorts);
            match result {
                Ok(Some(res)) => return Ok((res.reply, res.mutated)),
                Ok(None) => return Err(InvokeError::NotLoaded(uid)),
                Err(_) => continue, // coordinator failed; elect the next one
            }
        }
        Err(InvokeError::AllReplicasFailed(uid))
    }

    /// §2.3(2)(iii): the single activated copy processes; its failure means
    /// the action must abort.
    fn invoke_single(
        &self,
        group: &ObjectGroup,
        msg: &Bytes,
    ) -> Result<(Bytes, bool), InvokeError> {
        let inner = &self.inner;
        let uid = group.uid;
        let server = *group
            .servers
            .first()
            .ok_or(InvokeError::ServerFailed(uid))?;
        let replica = inner
            .registry
            .get(uid, server)
            .ok_or(InvokeError::NotLoaded(uid))?;
        let pinned = group.pinned_incarnation(server).unwrap_or(0);
        let sim = inner.sim.clone();
        let wire = inner.wire.clone();
        let result = inner.sim.rpc(
            group.req.client_node,
            server,
            msg.wire_size(),
            64,
            move || {
                // Server-side lineage check: a reborn copy (the server
                // crashed — losing this action's uncommitted updates — and
                // a later activation reloaded it from the stores) is not
                // the copy this action bound; it refuses the call instead
                // of executing on the wrong state, and per §2.3(2)(iii)
                // the action aborts. The refusal costs a normal round
                // trip, like any other server reply.
                if replica.borrow().incarnation() != pinned {
                    return None;
                }
                GroupMsgCodec::decode(msg)
                    .and_then(|m| replica.borrow_mut().invoke(&sim, &wire, &m))
            },
        );
        match result {
            Ok(Some(res)) => Ok((res.reply, res.mutated)),
            Ok(None) => Err(InvokeError::NotLoaded(uid)),
            Err(_) => Err(InvokeError::ServerFailed(uid)),
        }
    }
}
