//! Sharded worlds: N fully independent [`System`]s on N OS threads.
//!
//! The paper's machinery is embarrassingly partitionable — objects, their
//! directory entries, and their replica groups all key off UIDs — so the
//! scale-out story is *worlds*, not locks: a [`ShardRouter`] carves the
//! UID space into N disjoint slices, and a [`ShardedSystem`] runs one
//! complete world per slice, each owned **exclusively** by its own OS
//! thread. Per-shard state stays single-threaded `Rc<RefCell<…>>` exactly
//! as in a solo run; nothing on the hot path takes a lock.
//!
//! What crosses threads is messages only:
//!
//! * **jobs in** — closures shipped to a shard over its mailbox
//!   (an spsc-style [`std::sync::mpsc`] channel: callers on one side, the
//!   shard's event loop on the other);
//! * **replies out** — `Send` values (frames, typed replies, metrics)
//!   fanned back over per-call reply channels.
//!
//! The compile-time `send_boundary` test modules in sim/store/core/
//! replication pin exactly this split: boundary types are `Send`, worlds
//! are not.
//!
//! # UID alignment
//!
//! Shards never coordinate, yet every object must live on the shard its
//! UID routes to. The trick is that every shard walks the *same*
//! deterministic UID sequence and skips the entries the router assigns
//! elsewhere ([`System::skip_foreign_uids`]): shard `s` allocates exactly
//! the subsequence `{u : route(u) = s}`, so allocation and routing agree
//! by construction and the slices are disjoint. With one shard nothing is
//! foreign and nothing is skipped, which is why `shards = 1` reproduces a
//! solo world **bit for bit** (pinned by the scenario parity test).
//!
//! # Membership changes
//!
//! Elastic membership (the `groupview-membership` crate) adds, drains,
//! and rebalances **nodes inside one world** — it moves *replicas*, never
//! objects between shards. Routing is a pure total function of the UID
//! alone (see [`ShardRouter`]), so growing or shrinking a shard's node
//! set cannot re-route an existing UID: a migrated object keeps its shard
//! home, only its replica placement within that world changes. UIDs
//! minted by freshly added nodes (higher creator ids) route like any
//! other. `tests/shard_router_properties.rs` pins both properties —
//! membership-change stability and new-creator totality — alongside the
//! classic totality/disjointness/re-keying suite.
//!
//! See `docs/SHARDING.md` for the full design discussion.

use crate::error::{ActivateError, CommitError, InvokeError};
use crate::object::ObjectType;
use crate::system::{Client, System, SystemBuilder};
use crate::tx::{Tx, TxOpError};
use crate::typed::TypedUid;
use groupview_core::DbError;
use groupview_sim::NodeId;
use groupview_store::Uid;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Routers
// ---------------------------------------------------------------------------

/// Partitions the UID space across `shards()` worlds.
///
/// A router must be a **pure total function** of the UID: every UID maps
/// to exactly one shard in `0..shards()`, the same shard every time, on
/// every thread (`Send + Sync`, no interior state). The property tests in
/// this module pin totality, disjointness, and stability under re-keying
/// for the two built-in routers.
pub trait ShardRouter: Send + Sync {
    /// Number of shards this router partitions across.
    fn shards(&self) -> usize;

    /// The owning shard for `uid`, in `0..self.shards()`.
    fn route(&self, uid: Uid) -> usize;
}

/// Routes by a Fibonacci hash of the raw UID: spreads consecutive UIDs
/// across shards (load balance over locality).
#[derive(Debug, Clone)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// A hash router over `shards` worlds.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a router needs at least one shard");
        HashRouter { shards }
    }
}

impl ShardRouter for HashRouter {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, uid: Uid) -> usize {
        // Fibonacci multiplicative hash (2^64 / φ); the high bits mix the
        // per-node counter in the low bits of the UID well.
        let h = uid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards
    }
}

/// Routes contiguous blocks of each creator's sequence space round-robin:
/// shard `= (sequence / block) % shards`. Keeps runs of consecutively
/// created objects together (locality over balance).
#[derive(Debug, Clone)]
pub struct RangeRouter {
    shards: usize,
    block: u64,
}

impl RangeRouter {
    /// A range router over `shards` worlds with the given block length.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `block` is 0.
    pub fn new(shards: usize, block: u64) -> Self {
        assert!(shards > 0, "a router needs at least one shard");
        assert!(block > 0, "a range block must be non-empty");
        RangeRouter { shards, block }
    }
}

impl ShardRouter for RangeRouter {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, uid: Uid) -> usize {
        ((uid.sequence() / self.block) % self.shards as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// ShardedSystem
// ---------------------------------------------------------------------------

/// The world state resident on one shard thread: a complete [`System`]
/// plus a resident [`Client`] (hosted on the world's last node, the
/// conventional client host in this repo's worlds). Jobs shipped through
/// [`ShardedSystem::exec`] borrow it for their whole run — the thread is
/// the sole owner, so no synchronisation guards any of it.
pub struct ShardWorld {
    sys: System,
    client: Client,
    index: usize,
}

impl ShardWorld {
    /// This shard's world.
    pub fn sys(&self) -> &System {
        &self.sys
    }

    /// The shard's resident client (one per shard, created at launch).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// This shard's index in `0..shards`.
    pub fn index(&self) -> usize {
        self.index
    }
}

type Job = Box<dyn FnOnce(&ShardWorld) + Send>;

struct ShardHandle {
    mailbox: mpsc::Sender<Job>,
    thread: Option<JoinHandle<()>>,
}

/// N independent worlds on N OS threads behind a [`ShardRouter`].
///
/// Construct with [`ShardedSystem::launch`]. Work reaches a shard either
/// as routed typed calls ([`ShardedSystem::client`]) or as whole closures
/// ([`ShardedSystem::exec`] / [`ShardedSystem::exec_all`]) for drive loops
/// that should run shard-local without a channel crossing per operation.
/// Dropping the system closes every mailbox and joins the threads.
pub struct ShardedSystem {
    router: Arc<dyn ShardRouter>,
    shards: Vec<ShardHandle>,
    next_create: AtomicUsize,
}

impl fmt::Debug for ShardedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSystem")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedSystem {
    /// Launches one thread per router shard, each building its own world
    /// from a clone of `builder` (same seed: the worlds are identical
    /// replicas of the empty state and diverge only through the objects
    /// routed to them).
    ///
    /// # Panics
    ///
    /// Panics if a shard thread cannot be spawned.
    pub fn launch(builder: SystemBuilder, router: Arc<dyn ShardRouter>) -> Self {
        let shards = (0..router.shards())
            .map(|index| {
                let builder = builder.clone();
                let (mailbox, jobs) = mpsc::channel::<Job>();
                let thread = std::thread::Builder::new()
                    .name(format!("shard-{index}"))
                    .spawn(move || {
                        let sys = builder.build();
                        let client_host = NodeId::new(sys.sim().num_nodes() as u32 - 1);
                        let world = ShardWorld {
                            client: sys.client(client_host),
                            sys,
                            index,
                        };
                        while let Ok(job) = jobs.recv() {
                            job(&world);
                        }
                    })
                    .expect("spawn shard thread");
                ShardHandle {
                    mailbox,
                    thread: Some(thread),
                }
            })
            .collect();
        ShardedSystem {
            router,
            shards,
            next_create: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The router partitioning the UID space.
    pub fn router(&self) -> &Arc<dyn ShardRouter> {
        &self.router
    }

    /// Runs `f` on shard `shard`'s thread against its world and blocks
    /// for the result. This is the primitive everything else routes
    /// through; use it directly for shard-local drive loops that should
    /// not pay a channel crossing per operation.
    ///
    /// # Panics
    ///
    /// Panics if the shard index is out of range or the shard thread died
    /// (a job panicked on it).
    pub fn exec<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&ShardWorld) -> R + Send + 'static,
    {
        let (reply, result) = mpsc::channel();
        self.shards[shard]
            .mailbox
            .send(Box::new(move |world: &ShardWorld| {
                // A dropped receiver just means the caller stopped waiting.
                let _ = reply.send(f(world));
            }))
            .unwrap_or_else(|_| panic!("shard {shard} thread is gone"));
        result
            .recv()
            .unwrap_or_else(|_| panic!("shard {shard} died running a job"))
    }

    /// Runs `f` concurrently on **every** shard and collects the results
    /// in shard order. All shards start before any is awaited, so N
    /// shard-local drive loops overlap on N threads — this is the
    /// scaling primitive the sharded scenario runner drives.
    ///
    /// # Panics
    ///
    /// Panics if any shard thread died.
    pub fn exec_all<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&ShardWorld) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let receivers: Vec<_> = (0..self.shards.len())
            .map(|shard| {
                let f = Arc::clone(&f);
                let (reply, result) = mpsc::channel();
                self.shards[shard]
                    .mailbox
                    .send(Box::new(move |world: &ShardWorld| {
                        let _ = reply.send(f(world));
                    }))
                    .unwrap_or_else(|_| panic!("shard {shard} thread is gone"));
                result
            })
            .collect();
        receivers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                rx.recv()
                    .unwrap_or_else(|_| panic!("shard {shard} died running a job"))
            })
            .collect()
    }

    /// Creates a typed object on the next shard round-robin. The creating
    /// shard first skips UIDs the router assigns elsewhere, so the object's
    /// UID routes back to its home shard by construction.
    ///
    /// # Errors
    ///
    /// See [`System::create_typed`].
    pub fn create_typed<O>(
        &self,
        initial: O,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<TypedUid<O>, DbError>
    where
        O: ObjectType + Send + 'static,
    {
        let shard = self.next_create.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.create_typed_on(shard, initial, sv, st)
    }

    /// Creates a typed object on a specific shard (UID-aligned, as in
    /// [`ShardedSystem::create_typed`]).
    ///
    /// # Errors
    ///
    /// See [`System::create_typed`].
    ///
    /// # Panics
    ///
    /// Panics if the created UID does not route back to `shard` — a
    /// router that is not a pure function of the UID.
    pub fn create_typed_on<O>(
        &self,
        shard: usize,
        initial: O,
        sv: &[NodeId],
        st: &[NodeId],
    ) -> Result<TypedUid<O>, DbError>
    where
        O: ObjectType + Send + 'static,
    {
        let router = Arc::clone(&self.router);
        let (sv, st) = (sv.to_vec(), st.to_vec());
        self.exec(shard, move |world| {
            world
                .sys()
                .skip_foreign_uids(|uid| router.route(uid) == shard);
            let typed = world.sys().create_typed(initial, &sv, &st)?;
            assert_eq!(
                router.route(typed.uid()),
                shard,
                "router moved {} off its creating shard",
                typed.uid()
            );
            Ok(typed)
        })
    }

    /// A routed client façade over this system: every call becomes one
    /// atomic action on the owning shard.
    pub fn client(&self, replicas: usize) -> ShardedClient<'_> {
        ShardedClient {
            system: self,
            replicas,
        }
    }
}

impl Drop for ShardedSystem {
    fn drop(&mut self) {
        // Closing the mailboxes ends every shard loop; join to surface
        // shard panics at the owner rather than losing them.
        let threads: Vec<_> = self
            .shards
            .drain(..)
            .filter_map(|mut s| {
                drop(s.mailbox);
                s.thread.take()
            })
            .collect();
        for t in threads {
            if let Err(payload) = t.join() {
                if std::thread::panicking() {
                    continue; // already unwinding; don't double-panic
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ShardedClient
// ---------------------------------------------------------------------------

/// Any failure of a routed one-action call.
#[derive(Debug)]
pub enum ShardError {
    /// Activation (binding) failed; the action was aborted.
    Activate(ActivateError),
    /// The invocation failed; the action was aborted.
    Invoke(InvokeError),
    /// Commit failed (the action is already aborted per commit semantics).
    Commit(CommitError),
    /// A [`ShardedClient::transact`] named objects owned by two different
    /// shards. Cross-shard two-phase commit is not implemented — split the
    /// transaction, or route the objects to one shard. Refused before any
    /// shard work starts, so nothing needs undoing.
    CrossShard {
        /// The transaction's home shard (owner of its first object).
        home: usize,
        /// The offending object and the shard that owns it.
        uid: Uid,
        /// The owning shard of `uid`.
        other: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Activate(e) => write!(f, "activate: {e}"),
            ShardError::Invoke(e) => write!(f, "invoke: {e}"),
            ShardError::Commit(e) => write!(f, "commit: {e}"),
            ShardError::CrossShard { home, uid, other } => write!(
                f,
                "transaction spans shards: {uid} lives on shard {other}, not home shard {home}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Routes typed calls to the shard owning each UID, one atomic action per
/// call (begin → activate → invoke → commit on the shard's resident
/// client). Obtained from [`ShardedSystem::client`].
///
/// This is the correctness surface: cross-shard traffic stays explicit
/// messages. Throughput-critical loops should ship whole drive loops with
/// [`ShardedSystem::exec_all`] instead and stay shard-local.
#[derive(Debug, Clone, Copy)]
pub struct ShardedClient<'s> {
    system: &'s ShardedSystem,
    replicas: usize,
}

impl ShardedClient<'_> {
    /// The shard that owns `uid`.
    pub fn shard_of(&self, uid: Uid) -> usize {
        self.system.router.route(uid)
    }

    /// Invokes one typed operation as one atomic action on the owning
    /// shard and returns the decoded reply.
    ///
    /// # Errors
    ///
    /// See [`ShardError`]; on error the action was aborted on the shard.
    pub fn invoke<O>(&self, uid: TypedUid<O>, op: O::Op) -> Result<O::Reply, ShardError>
    where
        O: ObjectType + 'static,
        O::Op: Send,
        O::Reply: Send + 'static,
    {
        let replicas = self.replicas;
        self.system.exec(self.shard_of(uid.uid()), move |world| {
            let client = world.client();
            let handle = uid.open(client);
            let action = client.begin_action();
            if let Err(e) = handle.activate(action, replicas) {
                client.abort(action);
                return Err(ShardError::Activate(e));
            }
            let reply = match handle.invoke(action, op) {
                Ok(reply) => reply,
                Err(e) => {
                    client.abort(action);
                    return Err(ShardError::Invoke(e));
                }
            };
            client.commit(action).map_err(ShardError::Commit)?;
            Ok(reply)
        })
    }

    /// Invokes a batch of typed operations on one object as one atomic
    /// action on its owning shard (one object lock, one wire frame, one
    /// undo snapshot — see [`crate::Handle::invoke_batch`]). Replies come
    /// back index-aligned.
    ///
    /// # Errors
    ///
    /// See [`ShardError`]; on error none of the batch's effects survive.
    pub fn invoke_batch<O>(
        &self,
        uid: TypedUid<O>,
        ops: Vec<O::Op>,
    ) -> Result<Vec<O::Reply>, ShardError>
    where
        O: ObjectType + 'static,
        O::Op: Send,
        O::Reply: Send + 'static,
    {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let replicas = self.replicas;
        self.system.exec(self.shard_of(uid.uid()), move |world| {
            let client = world.client();
            let handle = uid.open(client);
            let action = client.begin_action();
            if let Err(e) = handle.activate(action, replicas) {
                client.abort(action);
                return Err(ShardError::Activate(e));
            }
            let replies = match handle.invoke_batch(action, &ops) {
                Ok(replies) => replies,
                Err(e) => {
                    client.abort(action);
                    return Err(ShardError::Invoke(e));
                }
            };
            client.commit(action).map_err(ShardError::Commit)?;
            Ok(replies)
        })
    }

    /// Runs a typed multi-object transaction on the shard owning every
    /// object in `uids`: `body` receives a [`Tx`] on the shard's thread
    /// (open handles against [`Tx::client`]), and a successful return
    /// commits it. An `Err` from `body` — or a panic — aborts the
    /// transaction and restores every touched object.
    ///
    /// All objects must live on **one** shard: cross-shard transactions are
    /// refused up front with [`ShardError::CrossShard`] (distributed 2PC
    /// across worlds is a non-goal of the sharding layer; see
    /// `docs/SHARDING.md`).
    ///
    /// # Errors
    ///
    /// [`ShardError::CrossShard`] before any work; otherwise the
    /// transaction's own activate/invoke/commit failures.
    ///
    /// # Panics
    ///
    /// Panics if `uids` is empty.
    pub fn transact<R, F>(&self, uids: &[Uid], body: F) -> Result<R, ShardError>
    where
        R: Send + 'static,
        F: FnOnce(&mut Tx) -> Result<R, TxOpError> + Send + 'static,
    {
        let home = self.shard_of(*uids.first().expect("a transaction needs objects"));
        for &uid in &uids[1..] {
            let other = self.shard_of(uid);
            if other != home {
                return Err(ShardError::CrossShard { home, uid, other });
            }
        }
        let replicas = self.replicas;
        self.system.exec(home, move |world| {
            let mut tx = world.client().begin().with_replicas(replicas);
            match body(&mut tx) {
                Ok(r) => {
                    tx.commit().map_err(ShardError::Commit)?;
                    Ok(r)
                }
                Err(e) => {
                    tx.abort();
                    Err(match e {
                        TxOpError::Activate(a) => ShardError::Activate(a),
                        TxOpError::Invoke(i) => ShardError::Invoke(i),
                    })
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use crate::policy::ReplicationPolicy;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn small_system(shards: usize) -> ShardedSystem {
        let builder = System::builder(42)
            .nodes(5)
            .policy(ReplicationPolicy::Active);
        ShardedSystem::launch(builder, Arc::new(HashRouter::new(shards)))
    }

    #[test]
    fn sharded_system_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedSystem>();
        assert_send_sync::<HashRouter>();
        assert_send_sync::<RangeRouter>();
        assert_send_sync::<ShardError>();
    }

    #[test]
    fn exec_runs_on_the_owning_thread_with_a_live_world() {
        let sys = small_system(2);
        let nodes = sys.exec(1, |world| {
            assert_eq!(world.index(), 1);
            world.sys().sim().num_nodes()
        });
        assert_eq!(nodes, 5);
    }

    #[test]
    fn exec_all_reaches_every_shard_in_order() {
        let sys = small_system(4);
        let indices = sys.exec_all(|world| world.index());
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn created_objects_route_back_to_their_shard_and_ops_flow() {
        let sys = small_system(3);
        let servers: Vec<NodeId> = (1..=3).map(n).collect();
        let client = sys.client(3);
        let mut uids = Vec::new();
        for i in 0..12i64 {
            let uid = sys
                .create_typed(Counter::new(i), &servers, &servers)
                .expect("create");
            assert_eq!(
                sys.router().route(uid.uid()),
                (i as usize) % 3,
                "round-robin creation must land router-aligned"
            );
            uids.push((uid, i));
        }
        for &(uid, base) in &uids {
            let reply = client.invoke(uid, CounterOp::Add(5)).expect("invoke");
            assert_eq!(reply, base + 5);
        }
        // A batch stays one replicated unit on the owning shard.
        let (uid, base) = uids[7];
        let replies = client
            .invoke_batch(uid, vec![CounterOp::Add(1); 4])
            .expect("batch");
        assert_eq!(replies, vec![base + 6, base + 7, base + 8, base + 9]);
    }

    #[test]
    fn shard_uid_slices_are_disjoint() {
        let sys = small_system(4);
        let servers: Vec<NodeId> = (1..=3).map(n).collect();
        let mut seen = groupview_sim::IdSet::default();
        for i in 0..32i64 {
            let uid = sys
                .create_typed(Counter::new(i), &servers, &servers)
                .expect("create");
            assert!(seen.insert(uid.uid()), "duplicate uid across shards");
        }
    }

    #[test]
    fn hash_router_is_total_and_stable() {
        for shards in [1usize, 2, 3, 4, 8] {
            let a = HashRouter::new(shards);
            let b = HashRouter::new(shards);
            for raw in 0..4096u64 {
                let uid = Uid::from_raw(raw | (3 << 40));
                let s = a.route(uid);
                assert!(s < shards, "route out of range");
                // Re-keying: a freshly built router with the same shard
                // count routes identically (pure function of the uid).
                assert_eq!(s, b.route(uid));
            }
        }
    }

    #[test]
    fn range_router_keeps_blocks_together() {
        let r = RangeRouter::new(4, 16);
        for block in 0..32u64 {
            let home = r.route(Uid::from_raw(block * 16));
            assert!(home < 4);
            for off in 0..16u64 {
                assert_eq!(r.route(Uid::from_raw(block * 16 + off)), home);
            }
        }
    }

    #[test]
    fn single_shard_skips_nothing() {
        // The parity cornerstone: with one shard every uid is owned, so
        // allocation is identical to a solo world.
        let solo = System::builder(9).nodes(4).build();
        let sharded = small_system(1);
        let servers = vec![n(1), n(2)];
        for i in 0..8i64 {
            let a = solo
                .create_typed(Counter::new(i), &servers, &servers)
                .expect("solo create");
            let b = sharded
                .create_typed(Counter::new(i), &servers, &servers)
                .expect("sharded create");
            assert_eq!(a.uid(), b.uid(), "shard=1 must allocate identically");
        }
    }
}
