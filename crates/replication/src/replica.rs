//! Server replicas: activated copies of persistent objects.

use crate::object::{InvokeResult, ReplicaObject, TypeRegistry};
use crate::wire::{self, GroupMsg};
use groupview_sim::{IdMap, NodeId, Sim, WireEncoder};
use groupview_store::{ObjectState, TypeTag, Uid, Version, Volatile};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The loaded, volatile part of a replica.
struct Loaded {
    obj: Box<dyn ReplicaObject>,
    base_version: Version,
    /// The at-most-once slot: the op id and result of the one invocation a
    /// retry can still reach. Op ids are fresh for every invocation, and
    /// the only retry is the coordinator-cohort loop inside that same
    /// invocation (the simulator runs handlers inline, so nothing
    /// interleaves), so a replica never needs more than the in-flight op.
    /// Only that policy fills the slot, through
    /// [`ServerReplica::remember`]; under the others it stays empty and
    /// every reply frame returns to the pool when its invocation ends. A
    /// commit empties the slot, and so does an undo of the op it names.
    remembered: Option<(u64, InvokeResult)>,
}

impl fmt::Debug for Loaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Loaded")
            .field("base_version", &self.base_version)
            .field("remembered", &self.remembered.as_ref().map(|(id, _)| id))
            .finish()
    }
}

/// An activated copy of an object at one server node.
///
/// The object's in-memory state is **volatile** (wrapped in
/// [`Volatile`]): a crash of the hosting node silently discards it, and the
/// next activation reloads from an object store — exactly the paper's
/// passive-object/activation model (§2.2).
#[derive(Debug)]
pub struct ServerReplica {
    uid: Uid,
    node: NodeId,
    /// Monotone count of state loads from an object store — the replica's
    /// state **lineage**. A crash-then-reload (by any later activation)
    /// produces a replica that is byte-plausible but belongs to a different
    /// lineage: it has lost every uncommitted operation of the actions
    /// bound to the previous incarnation. Activations pin the incarnation
    /// of every bound replica; invoke/commit paths refuse replicas whose
    /// incarnation no longer matches, so an in-flight action whose replica
    /// was reborn underneath it aborts instead of silently losing its own
    /// updates. (Found by the scenario oracle under `send_window_crashes`:
    /// a server armed to crash mid-reply was reloaded by a concurrent
    /// activation, and the original action kept invoking against the
    /// reborn copy.)
    incarnation: u64,
    state: Volatile<Option<Loaded>>,
}

impl ServerReplica {
    /// Creates an unloaded replica of `uid` at `node`.
    pub fn new(sim: &Sim, uid: Uid, node: NodeId) -> Self {
        ServerReplica {
            uid,
            node,
            incarnation: 0,
            state: Volatile::new(sim, node),
        }
    }

    /// The current state lineage (see the field docs). Checkpoint installs
    /// and undo restores continue a lineage; only [`ServerReplica::load`]
    /// starts a new one.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The object this replica serves.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The node hosting this replica.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the replica currently holds a loaded state (crash-aware).
    pub(crate) fn is_loaded(&mut self, sim: &Sim) -> bool {
        self.state.get(sim).is_some()
    }

    /// Loads the replica from a stored state.
    ///
    /// Returns `false` when the state's class is not in `types` (the node
    /// lacks the object's code, §3.1).
    pub fn load(&mut self, sim: &Sim, state: &ObjectState, types: &TypeRegistry) -> bool {
        let Some(obj) = types.decode(state.type_tag, &state.data) else {
            return false;
        };
        self.incarnation += 1;
        self.state.set(
            sim,
            Some(Loaded {
                obj,
                base_version: state.version,
                remembered: None,
            }),
        );
        true
    }

    /// Unloads the replica (passivation: "destroying the server", §2.3(3)).
    pub(crate) fn unload(&mut self, sim: &Sim) {
        self.state.set(sim, None);
    }

    /// Executes the ops of `msg`, appending every reply to one frame from
    /// the pooled `enc`. Returns `None` when no state is loaded or the body
    /// is malformed. An op id this replica [remembers](Self::remember)
    /// executes nothing: the remembered reply comes back as a read, so a
    /// duplicate never reports a fresh mutation.
    ///
    /// The ops apply as one unit: the body is validated whole before the
    /// first op runs (a malformed batch mutates nothing), and the unit is
    /// remembered under its one op id, so a retry after coordinator
    /// failover can never re-execute a prefix of an applied batch.
    /// `mutated` is the OR across the ops, so an all-reads batch still
    /// takes the paper's read optimisation at commit.
    pub fn invoke(&mut self, sim: &Sim, enc: &WireEncoder, msg: &GroupMsg) -> Option<InvokeResult> {
        if let Some(done) = self.recall(sim, msg.op_id) {
            return Some(InvokeResult::read(done.reply));
        }
        let loaded = self.state.get_mut(sim).as_mut()?;
        let mut ops = msg.ops()?;
        let mut mutated = false;
        let reply = enc.encode_with(|buf| {
            wire::write_body(buf, ops.len(), |_, buf| {
                let op = ops.next().expect("validated count");
                mutated |= loaded.obj.invoke(&msg.body[op], buf);
            });
        });
        Some(InvokeResult { reply, mutated })
    }

    /// Fills the at-most-once slot with `op_id`'s result, replacing the
    /// op it held (whose reply frame then returns to the pool). A no-op
    /// when no state is loaded.
    pub fn remember(&mut self, sim: &Sim, op_id: u64, result: &InvokeResult) {
        if let Some(loaded) = self.state.get_mut(sim).as_mut() {
            loaded.remembered = Some((op_id, result.clone()));
        }
    }

    /// The remembered result of `op_id`, mutation flag included, if the
    /// slot holds it: a retry replays what the first attempt did.
    pub(crate) fn recall(&mut self, sim: &Sim, op_id: u64) -> Option<InvokeResult> {
        let (id, result) = self.state.get(sim).as_ref()?.remembered.as_ref()?;
        (*id == op_id).then(|| result.clone())
    }

    /// A snapshot of the current (possibly uncommitted) state, tagged with
    /// the replica's base (last committed) version. The returned state's
    /// data is a pooled, shared buffer: cloning it per cohort or per store
    /// participant shares, not copies, and the buffer's storage returns to
    /// `enc`'s pool when the last clone drops.
    pub fn snapshot_state(&mut self, sim: &Sim, enc: &WireEncoder) -> Option<ObjectState> {
        let loaded = self.state.get_mut(sim).as_mut()?;
        Some(ObjectState {
            type_tag: loaded.obj.type_tag(),
            version: loaded.base_version,
            data: loaded.obj.snapshot(enc),
        })
    }

    /// Records that the surrounding action committed at `version`. The
    /// slot empties too: no retry reaches an op of a finished action, so
    /// its reply frame goes back to the pool now, not at the next op.
    pub(crate) fn mark_committed(&mut self, sim: &Sim, version: Version) {
        if let Some(loaded) = self.state.get_mut(sim).as_mut() {
            loaded.base_version = version;
            loaded.remembered = None;
        }
    }

    /// Installs a coordinator checkpoint: full state plus the op that
    /// produced it, which the replica [remembers](Self::remember) so a
    /// retry at this cohort, once promoted, replays instead of re-executing.
    /// A same-class loaded replica is restored **in place**
    /// ([`ReplicaObject::restore`]); only an unloaded (or, defensively,
    /// differently-tagged) replica decodes a fresh box.
    pub(crate) fn install_checkpoint(
        &mut self,
        sim: &Sim,
        state: &ObjectState,
        op: Option<(u64, &InvokeResult)>,
        types: &TypeRegistry,
    ) -> bool {
        if !types.knows(state.type_tag) {
            return false;
        }
        let cell = self.state.get_mut(sim);
        match cell.as_mut() {
            Some(loaded) if loaded.obj.type_tag() == state.type_tag => {
                loaded.obj.restore(&state.data);
                loaded.base_version = state.version;
            }
            _ => {
                let Some(obj) = types.decode(state.type_tag, &state.data) else {
                    return false;
                };
                *cell = Some(Loaded {
                    obj,
                    base_version: state.version,
                    remembered: None,
                });
            }
        }
        if let Some((op_id, result)) = op {
            self.remember(sim, op_id, result);
        }
        true
    }

    /// Restores the object's data (undo of uncommitted invocations); the
    /// base version is preserved, and a slot naming one of `undone_ops` is
    /// emptied so a retry re-executes it. Same-class restores happen in
    /// place, without decoding a fresh box.
    pub(crate) fn restore_data(
        &mut self,
        sim: &Sim,
        tag: TypeTag,
        data: &[u8],
        undone_ops: &[u64],
        types: &TypeRegistry,
    ) -> bool {
        let Some(loaded) = self.state.get_mut(sim).as_mut() else {
            return false;
        };
        if loaded.obj.type_tag() == tag {
            loaded.obj.restore(data);
        } else {
            let Some(obj) = types.decode(tag, data) else {
                return false;
            };
            loaded.obj = obj;
        }
        if (loaded.remembered.as_ref()).is_some_and(|(id, _)| undone_ops.contains(id)) {
            loaded.remembered = None;
        }
        true
    }
}

/// Shared handle to a replica.
pub type ReplicaHandle = Rc<RefCell<ServerReplica>>;

/// One object's activated replicas, sorted by node.
type ReplicaSet = Vec<(NodeId, ReplicaHandle)>;

/// Registry of all activated replicas, keyed per object: one lookup yields
/// every replica of a UID, already in node order, so activation and
/// passivation cost the replicas of *that* object, whatever the size of the
/// world. A replica set is a handful of entries (`|Sv|`), so the point
/// lookup [`ReplicaRegistry::get`] on the invoke path is one hash probe plus
/// a scan of that handful.
#[derive(Clone, Default)]
pub struct ReplicaRegistry {
    inner: Rc<RefCell<IdMap<Uid, ReplicaSet>>>,
}

impl fmt::Debug for ReplicaRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaRegistry")
            .field("objects", &self.inner.borrow().len())
            .finish()
    }
}

impl ReplicaRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ReplicaRegistry::default()
    }

    /// The replica of `uid` at `node`, creating an unloaded one if absent.
    pub fn get_or_create(&self, sim: &Sim, uid: Uid, node: NodeId) -> ReplicaHandle {
        let mut inner = self.inner.borrow_mut();
        let replicas = inner.entry(uid).or_default();
        match replicas.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(i) => replicas[i].1.clone(),
            Err(i) => {
                let handle = Rc::new(RefCell::new(ServerReplica::new(sim, uid, node)));
                replicas.insert(i, (node, handle.clone()));
                handle
            }
        }
    }

    /// The replica of `uid` at `node`, if one was ever activated.
    pub fn get(&self, uid: Uid, node: NodeId) -> Option<ReplicaHandle> {
        self.inner
            .borrow()
            .get(&uid)?
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, h)| h.clone())
    }

    /// Appends every replica of `uid`, sorted by node, to `out` — the
    /// caller's buffer, so a caller that keeps one allocates nothing.
    pub fn replicas_of(&self, uid: Uid, out: &mut Vec<(NodeId, ReplicaHandle)>) {
        if let Some(replicas) = self.inner.borrow().get(&uid) {
            out.extend(replicas.iter().cloned());
        }
    }

    /// Drops the single replica of `uid` at `node`, if present. Migration
    /// uses this after a move commits: the expelled incarnation must not
    /// linger as an activation target on the old host.
    pub fn remove_at(&self, uid: Uid, node: NodeId) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some(replicas) = inner.get_mut(&uid) else {
            return false;
        };
        let Ok(i) = replicas.binary_search_by_key(&node, |(n, _)| *n) else {
            return false;
        };
        replicas.remove(i);
        if replicas.is_empty() {
            inner.remove(&uid);
        }
        true
    }

    /// Drops every replica of `uid` (passivation).
    pub fn remove_object(&self, uid: Uid) -> usize {
        self.inner
            .borrow_mut()
            .remove(&uid)
            .map_or(0, |replicas| replicas.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp, ObjectType};
    use crate::wire::{GroupMsgCodec, Replies};
    use groupview_sim::wire::Codec;
    use groupview_sim::{Bytes, SimConfig};

    fn world() -> (Sim, TypeRegistry) {
        (
            Sim::new(SimConfig::new(3).with_nodes(3)),
            TypeRegistry::with_builtins(),
        )
    }

    /// Invocation `op_id` of the counter ops `ops`, as a replica receives it.
    fn msg(op_id: u64, ops: &[CounterOp]) -> GroupMsg {
        let frame = enc().encode_with(|buf| {
            wire::write_invocation(buf, op_id, ops.len(), |i, buf| {
                Counter::encode_op(&ops[i], buf)
            })
        });
        GroupMsgCodec::decode(&frame).expect("well-formed")
    }

    /// Decodes a counter reply.
    fn counter_reply(reply: &[u8]) -> Option<i64> {
        Counter::decode_reply(&CounterOp::Get, reply)
    }

    fn enc() -> WireEncoder {
        WireEncoder::new()
    }

    fn counter_state(v: i64) -> ObjectState {
        ObjectState::initial(Counter::TYPE_TAG, Counter::new(v).snapshot(&enc()))
    }

    #[test]
    fn load_invoke_snapshot_cycle() {
        let (sim, types) = world();
        let enc = enc();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        assert!(!r.is_loaded(&sim));
        assert!(r.invoke(&sim, &enc, &msg(1, &[CounterOp::Get])).is_none());
        assert!(r.load(&sim, &counter_state(10), &types));
        assert!(r.is_loaded(&sim));
        let res = r.invoke(&sim, &enc, &msg(1, &[CounterOp::Add(5)])).unwrap();
        assert!(res.mutated);
        assert_eq!(counter_reply(&res.reply), Some(15));
        let snap = r.snapshot_state(&sim, &enc).unwrap();
        assert_eq!(snap.version, Version::INITIAL, "base version until commit");
        assert_eq!(Counter::decode_state(&snap.data).value(), 15);
        assert_eq!(r.uid(), Uid::from_raw(1));
        assert_eq!(r.node(), NodeId::new(0));
    }

    #[test]
    fn crash_discards_loaded_state() {
        let (sim, types) = world();
        let n = NodeId::new(1);
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), n);
        r.load(&sim, &counter_state(5), &types);
        sim.crash(n);
        sim.recover(n);
        assert!(!r.is_loaded(&sim), "volatile state lost");
        assert!(r.snapshot_state(&sim, &enc()).is_none());
    }

    #[test]
    fn duplicate_op_ids_execute_once() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        let enc = enc();
        r.load(&sim, &counter_state(0), &types);
        let op = msg(42, &[CounterOp::Add(1)]);
        let first = r.invoke(&sim, &enc, &op).unwrap();
        assert!(first.mutated);
        r.remember(&sim, op.op_id, &first);
        let dup = r.invoke(&sim, &enc, &op).unwrap();
        assert!(!dup.mutated, "duplicate must not report a new mutation");
        assert_eq!(dup.reply, first.reply, "cached reply returned");
        let check = r.invoke(&sim, &enc, &msg(43, &[CounterOp::Get])).unwrap();
        assert_eq!(counter_reply(&check.reply), Some(1));
    }

    #[test]
    fn batch_applies_in_order_and_dedups_whole_batch() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        let enc = enc();
        r.load(&sim, &counter_state(0), &types);
        let batch = msg(5, &[CounterOp::Add(1), CounterOp::Get, CounterOp::Add(10)]);
        assert!(batch.batched);

        let first = r.invoke(&sim, &enc, &batch).unwrap();
        assert!(first.mutated, "batch contains writes");
        r.remember(&sim, batch.op_id, &first);
        let replies = Replies::decode(first.reply.clone(), 3).expect("one reply per op");
        let replies: Vec<&[u8]> = replies.iter().collect();
        assert_eq!(counter_reply(replies[0]), Some(1));
        assert_eq!(counter_reply(replies[1]), Some(1));
        assert_eq!(counter_reply(replies[2]), Some(11));

        // Redelivery of the same batch id executes nothing.
        let dup = r.invoke(&sim, &enc, &batch).unwrap();
        assert!(!dup.mutated, "duplicate batch must not re-execute");
        assert_eq!(dup.reply, first.reply, "cached aggregate reply");
        let check = r.invoke(&sim, &enc, &msg(6, &[CounterOp::Get])).unwrap();
        assert_eq!(counter_reply(&check.reply), Some(11));
    }

    #[test]
    fn malformed_batch_rejects_without_mutating() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        let enc = enc();
        r.load(&sim, &counter_state(7), &types);
        // Count promises two ops but the body holds none.
        let malformed = GroupMsg {
            op_id: 9,
            batched: true,
            body: Bytes::from_static(&[2, 0, 0, 0]),
        };
        assert!(r.invoke(&sim, &enc, &malformed).is_none());
        let check = r.invoke(&sim, &enc, &msg(10, &[CounterOp::Get])).unwrap();
        assert_eq!(counter_reply(&check.reply), Some(7), "state untouched");
    }

    #[test]
    fn mark_committed_updates_base_version() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        r.load(&sim, &counter_state(0), &types);
        r.mark_committed(&sim, Version::new(3));
        assert_eq!(
            r.snapshot_state(&sim, &enc()).unwrap().version,
            Version::new(3)
        );
    }

    #[test]
    fn checkpoint_installs_state_and_dedup_entry() {
        let (sim, types) = world();
        let mut cohort = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(1));
        cohort.load(&sim, &counter_state(0), &types);
        // Coordinator applied op 7 producing value 9; cohort installs.
        let enc = enc();
        let chk = ObjectState {
            type_tag: Counter::TYPE_TAG,
            version: Version::INITIAL,
            data: Counter::new(9).snapshot(&enc),
        };
        assert!(cohort.install_checkpoint(
            &sim,
            &chk,
            Some((
                7,
                &InvokeResult {
                    reply: 9i64.to_le_bytes().to_vec().into(),
                    mutated: true,
                }
            )),
            &types
        ));
        // A retried op 7 at the (now promoted) cohort is deduped.
        let res = cohort
            .invoke(&sim, &enc, &msg(7, &[CounterOp::Add(9)]))
            .unwrap();
        assert!(!res.mutated);
        assert_eq!(counter_reply(&res.reply), Some(9));
        let get = cohort
            .invoke(&sim, &enc, &msg(8, &[CounterOp::Get]))
            .unwrap();
        assert_eq!(counter_reply(&get.reply), Some(9));
    }

    #[test]
    fn the_slot_holds_one_op_and_recall_replays_its_mutation() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        let enc = enc();
        r.load(&sim, &counter_state(0), &types);
        // Executing alone remembers nothing: a repeat applies again.
        let add = msg(1, &[CounterOp::Add(1)]);
        let first = r.invoke(&sim, &enc, &add).unwrap();
        assert!(r.recall(&sim, 1).is_none());
        let again = r.invoke(&sim, &enc, &add).unwrap();
        assert_eq!(counter_reply(&again.reply), Some(2));
        r.remember(&sim, 1, &first);
        assert_eq!(r.recall(&sim, 1), Some(first), "replayed as a write");
        // Remembering the next op forgets the previous one.
        let next = r.invoke(&sim, &enc, &msg(2, &[CounterOp::Add(1)])).unwrap();
        r.remember(&sim, 2, &next);
        assert!(r.recall(&sim, 1).is_none());
        assert_eq!(r.recall(&sim, 2), Some(next));
        // An undo that does not name the remembered op keeps it.
        let snap = r.snapshot_state(&sim, &enc).unwrap();
        r.restore_data(&sim, snap.type_tag, &snap.data, &[1], &types);
        assert!(r.recall(&sim, 2).is_some());
        // No retry reaches an op of a committed action.
        r.mark_committed(&sim, Version::new(1));
        assert!(r.recall(&sim, 2).is_none());
    }

    #[test]
    fn checkpoint_onto_unloaded_replica_loads_it() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(1));
        assert!(r.install_checkpoint(&sim, &counter_state(4), None, &types));
        assert!(r.is_loaded(&sim));
    }

    #[test]
    fn restore_data_undoes_and_forgets_ops() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        let enc = enc();
        r.load(&sim, &counter_state(10), &types);
        let before = r.snapshot_state(&sim, &enc).unwrap();
        let added = r.invoke(&sim, &enc, &msg(5, &[CounterOp::Add(100)]));
        r.remember(&sim, 5, &added.unwrap());
        assert!(r.restore_data(&sim, before.type_tag, &before.data, &[5], &types));
        let v = r.invoke(&sim, &enc, &msg(6, &[CounterOp::Get])).unwrap();
        assert_eq!(counter_reply(&v.reply), Some(10));
        // Op 5 can run again after the undo.
        let again = r.invoke(&sim, &enc, &msg(5, &[CounterOp::Add(1)])).unwrap();
        assert!(again.mutated);
    }

    #[test]
    fn unknown_type_refuses_load() {
        let (sim, _) = world();
        let empty = TypeRegistry::default();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        assert!(!r.load(&sim, &counter_state(1), &empty));
        assert!(!r.is_loaded(&sim));
    }

    #[test]
    fn registry_lifecycle() {
        let (sim, _types) = world();
        let reg = ReplicaRegistry::new();
        let uid = Uid::from_raw(1);
        assert!(reg.get(uid, NodeId::new(0)).is_none());
        let h1 = reg.get_or_create(&sim, uid, NodeId::new(0));
        let h2 = reg.get_or_create(&sim, uid, NodeId::new(0));
        assert!(Rc::ptr_eq(&h1, &h2), "same replica handle");
        reg.get_or_create(&sim, uid, NodeId::new(1));
        reg.get_or_create(&sim, Uid::from_raw(2), NodeId::new(1));
        let mut found = Vec::new();
        reg.replicas_of(uid, &mut found);
        assert_eq!(found.len(), 2);
        assert_eq!(reg.remove_object(uid), 2);
        found.clear();
        reg.replicas_of(uid, &mut found);
        assert!(found.is_empty());
        assert!(reg.get(Uid::from_raw(2), NodeId::new(1)).is_some());
    }

    #[test]
    fn incarnation_counts_loads_only() {
        let (sim, types) = world();
        let n = NodeId::new(1);
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), n);
        assert_eq!(r.incarnation(), 0);
        r.load(&sim, &counter_state(5), &types);
        assert_eq!(r.incarnation(), 1, "a load starts a new lineage");
        // Within-lineage transitions don't bump: checkpoint, undo, commit.
        r.install_checkpoint(&sim, &counter_state(9), None, &types);
        let snap = r.snapshot_state(&sim, &enc()).unwrap();
        r.restore_data(&sim, snap.type_tag, &snap.data, &[], &types);
        r.mark_committed(&sim, Version::new(2));
        assert_eq!(r.incarnation(), 1);
        // A crash alone doesn't either — the reload after it does.
        sim.crash(n);
        sim.recover(n);
        assert_eq!(r.incarnation(), 1);
        assert!(!r.is_loaded(&sim));
        r.load(&sim, &counter_state(5), &types);
        assert_eq!(r.incarnation(), 2, "the reborn replica is a new lineage");
    }

    #[test]
    fn unload_passivates() {
        let (sim, types) = world();
        let mut r = ServerReplica::new(&sim, Uid::from_raw(1), NodeId::new(0));
        r.load(&sim, &counter_state(1), &types);
        r.unload(&sim);
        assert!(!r.is_loaded(&sim));
    }
}
