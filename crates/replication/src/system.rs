//! The `System` façade: the public API a downstream user programs against.

use crate::error::{ActivateError, CommitError, InvokeError};
use crate::invoke::ObjectGroup;
use crate::object::{ObjectType, ReplicaObject, TypeRegistry};
use crate::policy::ReplicationPolicy;
use crate::replica::{ReplicaHandle, ReplicaRegistry};
use crate::tx::Tx;
use crate::typed::{Handle, TypedUid};
use crate::wire::Replies;
use groupview_actions::{ActionId, StoreWriteParticipant, TxError, TxSystem};
use groupview_core::keys::{object_key, server_entry_key, state_entry_key};
use groupview_core::{
    check_node_lists, Binder, BindingScheme, CleanupDaemon, Cost, DbError, ExcludePolicy,
    NamingService, RecoveryManager, RemoteServerCache, ServerCache,
};
use groupview_group::{GroupComms, GroupId};
use groupview_obs::{MetricsSnapshot, NodeLoad, Phase, Registry as ObsRegistry};
use groupview_sim::wire::{self, WireStats};
use groupview_sim::{ClientId, IdMap, NodeId, Sim, SimConfig, WireEncoder};
use groupview_store::{ObjectState, Stores, Uid, UidGen, Version};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

pub(crate) struct SystemInner {
    pub(crate) sim: Sim,
    pub(crate) stores: Stores,
    pub(crate) tx: TxSystem,
    pub(crate) comms: GroupComms,
    pub(crate) naming: NamingService,
    pub(crate) binder: Binder,
    pub(crate) registry: ReplicaRegistry,
    pub(crate) types: TypeRegistry,
    pub(crate) recovery: RecoveryManager,
    pub(crate) cleanup: CleanupDaemon,
    pub(crate) server_cache: Option<RemoteServerCache>,
    pub(crate) policy: ReplicationPolicy,
    pub(crate) exclude_policy: ExcludePolicy,
    pub(crate) exclude_enabled: bool,
    pub(crate) active_groups: RefCell<IdMap<Uid, GroupId>>,
    /// Handle to this thread's frame pool, used by every wire encode in
    /// the system (operation frames, member replies, checkpoint snapshots).
    pub(crate) wire: WireEncoder,
    /// Observability registry shared with the action service; disabled by
    /// default (see [`SystemBuilder::observe`]).
    pub(crate) obs: ObsRegistry,
    /// This thread's wire counters when the system was built (they are
    /// thread-local and monotonic; the mark turns them into this system's
    /// traffic).
    wire_mark: WireStats,
    uid_gen: RefCell<UidGen>,
    next_op: Cell<u64>,
    next_client: Cell<u32>,
    /// The coordinator-cohort invoke's cohort list, kept between calls for
    /// its capacity (a nested invoke finds it taken and builds its own).
    pub(crate) cohort_scratch: RefCell<Vec<NodeId>>,
    /// An activation's replica list (the object's activation set), kept
    /// between activations for its capacity; emptied after each, so it
    /// pins no replica.
    pub(crate) activation_scratch: RefCell<Vec<(NodeId, ReplicaHandle)>>,
}

/// A complete persistent-replicated-object system over a simulated world.
///
/// Construct with [`System::builder`]; create objects with
/// [`System::create_object`]; obtain per-application [`Client`] handles with
/// [`System::client`]. See the [crate docs](crate) for a full example.
#[derive(Clone)]
pub struct System {
    pub(crate) inner: Rc<SystemInner>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("policy", &self.inner.policy)
            .field("scheme", &self.inner.binder.scheme())
            .field("nodes", &self.inner.sim.num_nodes())
            .finish()
    }
}

/// Configures and builds a [`System`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    seed: u64,
    nodes: usize,
    scheme: BindingScheme,
    policy: ReplicationPolicy,
    exclude_policy: ExcludePolicy,
    trace: bool,
    exclude_enabled: bool,
    observe: bool,
}

impl SystemBuilder {
    /// Number of nodes in the world (default 4). Node 0 hosts the naming
    /// service.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// The database access scheme (default [`BindingScheme::Standard`], as
    /// in Arjuna: "by default, standard atomic actions are used").
    pub fn scheme(mut self, scheme: BindingScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The replication policy (default [`ReplicationPolicy::Active`]).
    pub fn policy(mut self, policy: ReplicationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// How commit-time `Exclude` locks the state entry (default
    /// [`ExcludePolicy::ExcludeWriteLock`], the paper's recommendation).
    pub fn exclude_policy(mut self, p: ExcludePolicy) -> Self {
        self.exclude_policy = p;
        self
    }

    /// **Ablation only**: disables the commit-time `Exclude` protocol, so
    /// `St` keeps listing stores that missed state copies. This deliberately
    /// breaks the paper's §2.3(3) guarantee — experiment E10 uses it to
    /// measure how many stale bindings the protocol prevents.
    pub fn ablate_disable_exclude(mut self) -> Self {
        self.exclude_enabled = false;
        self
    }

    /// Enables simulation event tracing.
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables the observability registry: causal action spans and protocol
    /// counters are recorded (see [`System::obs`] and
    /// [`System::metrics_snapshot`]). Off by default — recording calls are
    /// inlined no-ops that never allocate, and an observed run is
    /// bit-for-bit identical to an unobserved one (recording only reads the
    /// virtual clock).
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 nodes are requested.
    pub fn build(self) -> System {
        assert!(self.nodes >= 2, "a groupview system needs at least 2 nodes");
        let mut cfg = SimConfig::new(self.seed).with_nodes(self.nodes);
        if self.trace {
            cfg = cfg.with_trace();
        }
        let sim = Sim::new(cfg);
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let obs = ObsRegistry::new();
        if self.observe {
            obs.set_enabled(true);
        }
        tx.set_observer(&obs);
        let comms = GroupComms::new(&sim);
        // Node 0 hosts the naming service (and the cached name server).
        let naming_node = NodeId::new(0);
        let naming = NamingService::new(&sim, &tx, naming_node);
        let binder = Binder::new(&sim, &naming, self.scheme);
        let recovery = RecoveryManager::new(&sim, &naming, &stores);
        let cleanup = CleanupDaemon::new(&sim, &naming);
        let server_cache = if self.scheme.uses_server_cache() {
            Some(RemoteServerCache::new(
                &sim,
                naming_node,
                ServerCache::new(),
            ))
        } else {
            None
        };
        let binder = match &server_cache {
            Some(cache) => binder.with_cache(cache.clone()),
            None => binder,
        };
        let recovery = match &server_cache {
            Some(cache) => recovery.with_cache(cache.clone()),
            None => recovery,
        };
        let sys = System {
            inner: Rc::new(SystemInner {
                registry: ReplicaRegistry::new(),
                types: TypeRegistry::with_builtins(),
                policy: self.policy,
                exclude_policy: self.exclude_policy,
                exclude_enabled: self.exclude_enabled,
                active_groups: RefCell::default(),
                wire: WireEncoder::new(),
                obs,
                wire_mark: wire::stats(),
                uid_gen: RefCell::new(UidGen::new(naming_node)),
                next_op: Cell::new(1),
                next_client: Cell::new(0),
                cohort_scratch: RefCell::default(),
                activation_scratch: RefCell::default(),
                sim,
                stores,
                tx,
                comms,
                naming,
                binder,
                recovery,
                cleanup,
                server_cache,
            }),
        };
        // The abort-time undo path: arena entries restore replicas through
        // the registry. Installed after the inner Rc exists because the
        // applier shares the registry and class table it holds.
        sys.inner
            .tx
            .set_undo_applier(Rc::new(crate::undo::ReplicaUndoApplier::new(
                sys.inner.sim.clone(),
                sys.inner.registry.clone(),
                sys.inner.types.clone(),
            )));
        sys
    }
}

impl System {
    /// Starts building a system with the given deterministic seed.
    pub fn builder(seed: u64) -> SystemBuilder {
        SystemBuilder {
            seed,
            nodes: 4,
            scheme: BindingScheme::Standard,
            policy: ReplicationPolicy::Active,
            exclude_policy: ExcludePolicy::ExcludeWriteLock,
            trace: false,
            exclude_enabled: true,
            observe: false,
        }
    }

    // ----- accessors -----------------------------------------------------

    /// The simulation world.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The object store registry.
    pub fn stores(&self) -> &Stores {
        &self.inner.stores
    }

    /// The atomic action service.
    pub fn tx(&self) -> &TxSystem {
        &self.inner.tx
    }

    /// The observability registry (disabled unless the system was built
    /// with [`SystemBuilder::observe`]).
    pub fn obs(&self) -> &ObsRegistry {
        &self.inner.obs
    }

    /// Builds a [`MetricsSnapshot`] of everything observed so far. The
    /// wire-pool fields are this thread's wire traffic since the system was
    /// built and `trace_dropped` is the sim's trace-ring drop count; both
    /// are reported whether or not the system is observed.
    ///
    /// Must be called on the thread that ran the system (always true for
    /// this `!Send` type): wire counters are thread-local.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let wire = wire::stats().since(inner.wire_mark);
        let mut snap = MetricsSnapshot {
            wire_buffer_allocs: wire.buffer_allocs,
            wire_pool_reuses: wire.pool_reuses,
            wire_bytes_copied: wire.bytes_copied,
            trace_dropped: inner.sim.trace_dropped(),
            ..inner.obs.snapshot()
        };
        // Fold the sim's per-node delivered-byte counters into the node
        // load table: invokes and locks are recorded by the protocol
        // layers, bytes by the network model. Only when observing — a
        // disabled registry must yield the all-empty snapshot.
        if inner.obs.is_enabled() {
            for node in inner.sim.nodes() {
                let (bytes_in, bytes_out) = inner.sim.node_traffic(node);
                snap.absorb_node_load(&NodeLoad {
                    node: node.raw(),
                    bytes_in,
                    bytes_out,
                    ..NodeLoad::default()
                });
            }
        }
        snap
    }

    /// The naming-and-binding service.
    pub fn naming(&self) -> &NamingService {
        &self.inner.naming
    }

    /// The client-side binder.
    pub fn binder(&self) -> &Binder {
        &self.inner.binder
    }

    /// The group communication service.
    pub fn comms(&self) -> &GroupComms {
        &self.inner.comms
    }

    /// The replica registry.
    pub fn registry(&self) -> &ReplicaRegistry {
        &self.inner.registry
    }

    /// The recovery manager.
    pub fn recovery(&self) -> &RecoveryManager {
        &self.inner.recovery
    }

    /// The use-list cleanup daemon.
    pub fn cleanup(&self) -> &CleanupDaemon {
        &self.inner.cleanup
    }

    /// The non-atomic server cache, present only under
    /// [`BindingScheme::CachedNameServer`] (the paper's §5 extension).
    pub fn server_cache(&self) -> Option<&RemoteServerCache> {
        self.inner.server_cache.as_ref()
    }

    /// The replication policy in force.
    pub fn policy(&self) -> ReplicationPolicy {
        self.inner.policy
    }

    /// The binding scheme in force.
    pub fn scheme(&self) -> BindingScheme {
        self.inner.binder.scheme()
    }

    // ----- object lifecycle ------------------------------------------------

    /// Creates a persistent object: registers it in both databases with
    /// server set `sv` and store set `st`, and durably writes its initial
    /// state to every store in `st` — all in one atomic action. Nodes in
    /// `st` are equipped with object stores if they lack one.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidNodeList`] if `sv` or `st` is empty or names a
    /// node twice (refused before a uid is drawn or an action begun).
    /// Database or commit failures abort the creation atomically.
    pub fn create_object(
        &self,
        object: Box<dyn ReplicaObject>,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<Uid, DbError> {
        self.create(None, object, sv, st)
    }

    /// Registers the object (and binds `name` to it, if given), writing its
    /// initial state to every store in `st`, all in one atomic action. The
    /// node lists are checked before a uid is drawn.
    fn create(
        &self,
        name: Option<&str>,
        object: Box<dyn ReplicaObject>,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<Uid, DbError> {
        check_node_lists(sv, st)?;
        let inner = &self.inner;
        let naming = &inner.naming;
        let uid = inner.uid_gen.borrow_mut().next_uid();
        let initial = ObjectState::initial(object.type_tag(), object.snapshot(&inner.wire));
        let action = inner.tx.begin_top(naming.node());
        let staged = (|| {
            if let Some(name) = name {
                naming.directory.bind_name(action, name, uid)?;
            }
            naming.register_object(action, uid, sv, st)?;
            for &node in st {
                inner.stores.add_store(node);
                let participant = StoreWriteParticipant::new(
                    &inner.sim,
                    &inner.stores,
                    naming.node(),
                    node,
                    TxSystem::token(action),
                    vec![(uid, initial.clone())],
                );
                inner.tx.add_participant(action, participant)?;
            }
            Ok(())
        })();
        if let Err(e) = staged {
            inner.tx.abort(action);
            return Err(e);
        }
        inner.tx.commit(action)?;
        if let Some(cache) = &inner.server_cache {
            cache.local().seed(uid, sv);
        }
        Ok(uid)
    }

    /// Creates a persistent object of a typed class, returning a
    /// [`TypedUid`] that opens class-correct [`Handle`]s without a
    /// turbofish. The typed counterpart of [`System::create_object`].
    ///
    /// # Errors
    ///
    /// See [`System::create_object`].
    pub fn create_typed<O: ObjectType>(
        &self,
        initial: O,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<TypedUid<O>, DbError> {
        self.create_object(Box::new(initial), sv, st)
            .map(TypedUid::assume)
    }

    /// Creates a typed persistent object *and binds a name to it* in one
    /// atomic action: if any part fails, neither the object nor the name
    /// exists.
    ///
    /// # Errors
    ///
    /// See [`System::create_object`]; additionally
    /// [`DbError::AlreadyExists`] if the name is taken.
    pub fn create_typed_named<O: ObjectType>(
        &self,
        name: &str,
        initial: O,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<TypedUid<O>, DbError> {
        self.create(Some(name), Box::new(initial), sv, st)
            .map(TypedUid::assume)
    }

    /// Hands out a client handle running at `node`, with a fresh client id.
    pub fn client(&self, node: NodeId) -> Client {
        let id = ClientId::new(self.inner.next_client.get());
        self.inner.next_client.set(id.raw() + 1);
        self.client_with_id(id, node)
    }

    /// A client handle with an explicit id (workload drivers).
    pub fn client_with_id(&self, id: ClientId, node: NodeId) -> Client {
        Client {
            sys: self.clone(),
            id,
            node,
            groups: Rc::default(),
        }
    }

    /// Passivates `uid` if it is quiescent: no use-list entries, and no
    /// in-flight action holds a lock on the object or its database entries
    /// (§2.3(3): "an active copy of an object which is no longer in use
    /// will be said to be in a quiescent state; a quiescent object can
    /// passivate itself by destroying the server"). Unloads and drops all
    /// replicas and destroys the multicast group. Returns whether
    /// passivation happened.
    pub fn try_passivate(&self, uid: Uid) -> bool {
        let inner = &self.inner;
        let quiescent = inner
            .naming
            .server_db
            .entry(uid)
            .is_none_or(|e| e.is_quiescent());
        if !quiescent {
            return false;
        }
        let in_use = [object_key(uid), state_entry_key(uid), server_entry_key(uid)]
            .into_iter()
            .any(|key| !inner.tx.lock_holders(key).is_empty());
        if in_use {
            return false;
        }
        inner.registry.remove_object(uid);
        if let Some(gid) = inner.active_groups.borrow_mut().remove(&uid) {
            inner.comms.destroy_group(gid);
        }
        true
    }

    // ----- internal bookkeeping -------------------------------------------

    pub(crate) fn next_op_id(&self) -> u64 {
        let id = self.inner.next_op.get();
        self.inner.next_op.set(id + 1);
        id
    }

    pub(crate) fn bump_replica_versions(&self, group: &ObjectGroup, version: Version) {
        for &(node, pinned) in &group.incarnations {
            if !self.inner.sim.is_up(node) {
                continue;
            }
            if let Some(handle) = self.inner.registry.get(group.uid, node) {
                // A reborn replica belongs to a later activation's lineage;
                // this action's commit says nothing about its base version.
                if handle.borrow().incarnation() != pinned {
                    continue;
                }
                handle.borrow_mut().mark_committed(&self.inner.sim, version);
            }
        }
    }
}

/// A client application: runs atomic actions against persistent objects.
///
/// Obtained from [`System::client`]. All methods are deterministic given
/// the world's seed.
#[derive(Clone)]
pub struct Client {
    sys: System,
    id: ClientId,
    node: NodeId,
    /// The action table: every live activation this client made (each
    /// names its action), in activation order — the only record of what
    /// an action has bound (write-back, binding completion and every
    /// typed lookup read it). Shared by clones of this client.
    groups: Rc<RefCell<Vec<ObjectGroup>>>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("node", &self.node)
            .finish()
    }
}

impl Client {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Begins a typed multi-object transaction (see [`Tx`]): each
    /// [`Tx::invoke`](crate::Tx::invoke) auto-activates and applies under
    /// one top-level action, [`Tx::commit`](crate::Tx::commit) drives the
    /// store two-phase commit once over the union of touched objects.
    pub fn begin(&self) -> Tx {
        let action = self.begin_action();
        let now = self.sys.inner.sim.now().as_micros();
        self.sys
            .inner
            .obs
            .span(action.raw(), Phase::TxBegin, now, now);
        Tx::new(self.clone(), action)
    }

    /// Begins a top-level atomic action on the raw surface (thread the
    /// returned [`ActionId`] through activate/invoke/commit by hand; the
    /// typed [`Client::begin`] builder wraps exactly this).
    pub fn begin_action(&self) -> ActionId {
        self.sys.inner.tx.begin_top(self.node)
    }

    /// The system this client belongs to (typed surfaces record spans and
    /// read the clock through it).
    pub(crate) fn sys(&self) -> &System {
        &self.sys
    }

    /// The latest activation of `uid` this client made for `action`.
    pub(crate) fn group_of(&self, action: ActionId, uid: Uid) -> Option<ObjectGroup> {
        self.groups
            .borrow()
            .iter()
            .rev()
            .find(|g| g.action == action && g.uid == uid)
            .cloned()
    }

    /// How many activations this client holds for `action`.
    pub(crate) fn activation_count(&self, action: ActionId) -> usize {
        self.groups
            .borrow()
            .iter()
            .filter(|g| g.action == action)
            .count()
    }

    /// Activates `uid` for `action` and records the activation in the
    /// action table.
    fn bind(
        &self,
        action: ActionId,
        uid: Uid,
        replicas: usize,
        read_only: bool,
    ) -> Result<ObjectGroup, ActivateError> {
        let group = self
            .sys
            .do_activate(action, self.id, self.node, uid, replicas, read_only)?;
        self.groups.borrow_mut().push(group.clone());
        Ok(group)
    }

    /// Ends `action` in the action table: `f` runs on its activations, in
    /// activation order (binding completion and write-back send in this
    /// order), which are then dropped. They are moved to the tail of the
    /// table's own buffer, so ending an action allocates nothing.
    fn end_action<R>(&self, action: ActionId, f: impl FnOnce(&[ObjectGroup]) -> R) -> R {
        // Out of the cell while `f` runs, so nothing it reaches finds the
        // table borrowed.
        let mut table = self.groups.take();
        // A stable partition: the other actions' activations keep their
        // order ahead of `tail`, this action's keep theirs behind it.
        let mut tail = table.len();
        for i in (0..table.len()).rev() {
            if table[i].action == action {
                table[i..tail].rotate_left(1);
                tail -= 1;
            }
        }
        let result = f(&table[tail..]);
        table.truncate(tail);
        let mut slot = self.groups.borrow_mut();
        table.append(&mut slot);
        *slot = table;
        result
    }

    /// Refuses a raw invoke through `group` unless this client activated
    /// it for `action`: the dirty bit it sets must belong to the action
    /// that commits it. A finished action reports
    /// [`TxError::NotActive`] first.
    fn check_bound(&self, action: ActionId, group: &ObjectGroup) -> Result<(), InvokeError> {
        let bound = self
            .groups
            .borrow()
            .iter()
            .any(|g| g.action == action && Rc::ptr_eq(&g.0, &group.0));
        if bound {
            Ok(())
        } else if !self.sys.inner.tx.is_active(action) {
            Err(TxError::NotActive(action).into())
        } else {
            Err(InvokeError::NotActivated(group.uid))
        }
    }

    /// Opens a typed [`Handle`] for `uid`, asserting it belongs to class
    /// `O` (see [`TypedUid::assume`] for the trust model; uids from
    /// [`System::create_typed`] carry their class and can use
    /// [`TypedUid::open`] instead).
    pub fn open<O: ObjectType>(&self, uid: Uid) -> Handle<O> {
        Handle::new(self.clone(), uid)
    }

    /// Resolves `name` through the directory, activates the object for
    /// `action`, and opens a typed [`Handle`] on it — the typed
    /// counterpart of [`Client::activate_by_name`].
    ///
    /// # Errors
    ///
    /// See [`Client::activate_by_name`].
    pub fn open_by_name<O: ObjectType>(
        &self,
        action: ActionId,
        name: &str,
        replicas: usize,
    ) -> Result<Handle<O>, ActivateError> {
        let group = self.activate_by_name(action, name, replicas)?;
        Ok(self.open(group.uid))
    }

    /// Resolves a name through the directory (a nested action of `action`,
    /// per the paper's lookup-then-bind flow) and activates the object.
    ///
    /// # Errors
    ///
    /// [`ActivateError::Bind`] for unknown names or directory failures, plus
    /// everything [`Client::activate`] can report.
    pub fn activate_by_name(
        &self,
        action: ActionId,
        name: &str,
        replicas: usize,
    ) -> Result<ObjectGroup, ActivateError> {
        if !self.sys.inner.tx.is_active(action) {
            return Err(TxError::NotActive(action).into());
        }
        let nested = self.sys.inner.tx.begin_nested(action);
        let uid = match self
            .sys
            .naming()
            .remote(self.node, Cost::lookup(name), |ns| {
                ns.directory.lookup(nested, name)
            }) {
            Ok(uid) => {
                self.sys.inner.tx.commit(nested)?;
                uid
            }
            Err(e) => {
                self.sys.inner.tx.abort(nested);
                return Err(e.into());
            }
        };
        self.activate(action, uid, replicas)
    }

    /// Activates `uid` with up to `replicas` servers for read-write use,
    /// binding according to the system's scheme and loading passive state
    /// from the object stores as needed.
    ///
    /// # Errors
    ///
    /// See [`ActivateError`]; per the paper a failed binding means the
    /// client action must abort ([`Client::abort`]).
    pub fn activate(
        &self,
        action: ActionId,
        uid: Uid,
        replicas: usize,
    ) -> Result<ObjectGroup, ActivateError> {
        self.bind(action, uid, replicas, false)
    }

    /// Activates `uid` for read-only use (enables the standard scheme's
    /// bind-anywhere optimisation and, with [`Client::invoke_read`], the
    /// commit-time no-copy optimisation).
    ///
    /// # Errors
    ///
    /// See [`Client::activate`].
    pub fn activate_read_only(
        &self,
        action: ActionId,
        uid: Uid,
        replicas: usize,
    ) -> Result<ObjectGroup, ActivateError> {
        self.bind(action, uid, replicas, true)
    }

    /// Invokes `ops`, pre-encoded, as one state-changing unit (object
    /// write lock, one wire frame, one undo snapshot, one write-back at
    /// commit). This is the raw escape hatch under [`Handle::invoke`] and
    /// [`Handle::invoke_batch`], which encode typed ops and pick the lock
    /// intent from them.
    ///
    /// The replies are index-aligned with `ops`, borrowed from the
    /// replica's reply frame; empty `ops` return no replies without
    /// touching the object.
    ///
    /// # Errors
    ///
    /// See [`InvokeError`]; on error the action should be aborted. A
    /// `group` this client did not activate for `action` is refused with
    /// [`InvokeError::NotActivated`] (a finished action reports
    /// [`TxError::NotActive`] instead), as by every raw invoke.
    pub fn invoke(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        ops: &[impl AsRef<[u8]>],
    ) -> Result<Replies, InvokeError> {
        self.invoke_raw(action, group, ops, true)
    }

    /// Invokes `ops` as one read-only unit (object read lock; concurrent
    /// readers allowed).
    ///
    /// # Errors
    ///
    /// See [`Client::invoke`].
    pub fn invoke_read(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        ops: &[impl AsRef<[u8]>],
    ) -> Result<Replies, InvokeError> {
        self.invoke_raw(action, group, ops, false)
    }

    fn invoke_raw(
        &self,
        action: ActionId,
        group: &ObjectGroup,
        ops: &[impl AsRef<[u8]>],
        write: bool,
    ) -> Result<Replies, InvokeError> {
        self.check_bound(action, group)?;
        self.sys
            .do_invoke(action, group, ops.len(), write, &mut |i, buf| {
                buf.extend_from_slice(ops[i].as_ref())
            })
    }

    /// Commits the action: copies every modified object's new state to all
    /// functioning stores in its `St` (excluding the rest), runs two-phase
    /// commit, and completes bindings per the scheme.
    ///
    /// # Errors
    ///
    /// On any error the action has been aborted and all its effects undone.
    pub fn commit(&self, action: ActionId) -> Result<(), CommitError> {
        let sys = &self.sys;
        // Binding completion and commit-time write-back all send messages
        // on behalf of this action; attribute their trace events to it.
        self.end_action(action, |groups| {
            sys.sim().with_active_action(action.raw(), || {
                // Figure 8: Decrement runs as a nested top-level action
                // *inside* the client action. A contended decrement is left
                // to the cleanup daemon rather than failing the commit.
                if sys.scheme() == BindingScheme::NestedTopLevel {
                    for g in groups {
                        let _ = sys.inner.binder.complete(Some(action), &g.req, &g.binding);
                    }
                }

                // Commit-time state copy (with Exclude) for modified
                // objects, staged under the action: abort is the only
                // cleanup of a copy the verdict dooms.
                let outcome = match sys.do_writeback(action, groups) {
                    Ok(()) => sys.inner.tx.commit(action).map_err(CommitError::Tx),
                    Err(e) => {
                        sys.inner.tx.abort(action);
                        Err(e)
                    }
                };
                for g in groups {
                    if let (Ok(()), Some(state)) = (&outcome, g.staged.take()) {
                        sys.bump_replica_versions(g, state.version);
                    }
                }
                if outcome.is_err() || sys.scheme() == BindingScheme::IndependentTopLevel {
                    self.finish_bindings(groups);
                }
                outcome
            })
        })
    }

    /// Aborts the action, undoing all its effects, and completes any
    /// registered bindings (the Decrement of Figures 7/8).
    pub fn abort(&self, action: ActionId) {
        self.end_action(action, |groups| {
            self.sys.inner.tx.abort(action);
            self.finish_bindings(groups);
        });
    }

    /// Simulates this client crashing mid-action: the action is aborted by
    /// the system (its node noticed the broken binding) but **no binding
    /// completion runs** — use lists stay incremented until the cleanup
    /// daemon reclaims them. Returns the leaked group count.
    pub fn crash_without_cleanup(&self, action: ActionId) -> usize {
        self.end_action(action, |groups| {
            self.sys.inner.tx.abort(action);
            groups.iter().filter(|g| g.binding.registered).count()
        })
    }

    /// Best-effort binding completion for the independent scheme (and as a
    /// fallback for nested-top-level after the action ended).
    fn finish_bindings(&self, groups: &[ObjectGroup]) {
        if self.sys.scheme() == BindingScheme::NestedTopLevel {
            // Already completed inside the action (or deliberately leaked).
            return;
        }
        for g in groups {
            if g.binding.registered {
                let _ = self.sys.inner.binder.complete(None, &g.req, &g.binding);
            }
        }
    }
}
