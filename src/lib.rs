//! # groupview
//!
//! A complete Rust implementation of the system described in
//!
//! > M.C. Little, D.L. McCue, S.K. Shrivastava, *"Maintaining Information
//! > about Persistent Replicated Objects in a Distributed System"*,
//! > Proceedings of the 13th International Conference on Distributed
//! > Computing Systems (ICDCS), Pittsburgh, May 1993, pp. 491–498.
//!
//! — persistent objects managed by nested atomic actions, replicated for
//! availability, with a **naming-and-binding service** (the Arjuna *group
//! view database*) that guarantees clients only ever bind to replicas that
//! are mutually consistent and hold the latest committed state.
//!
//! The system runs over a deterministic discrete-event simulation, so every
//! protocol behaviour — including crash interleavings such as "the server
//! executed the call, then died before replying" — is exactly reproducible
//! from a seed.
//!
//! ## Quick start
//!
//! ```rust
//! use groupview::{System, Counter, CounterOp, ReplicationPolicy};
//!
//! // A five-node world; node 0 hosts the naming service.
//! let sys = System::builder(42)
//!     .nodes(5)
//!     .policy(ReplicationPolicy::Active)
//!     .build();
//! let nodes = sys.sim().nodes();
//!
//! // A counter stored on three nodes, servable by the same three. The
//! // typed uid remembers the class.
//! let uid = sys.create_typed(Counter::new(0), &nodes[1..4], &nodes[1..4])?;
//!
//! // A client runs an atomic action against two active replicas through a
//! // typed handle: operations in, decoded replies out — no byte codecs.
//! let client = sys.client(nodes[4]);
//! let counter = uid.open(&client);
//! let action = client.begin_action();
//! counter.activate(action, 2)?;
//! assert_eq!(counter.invoke(action, CounterOp::Add(10))?, 10);
//! client.commit(action)?;
//!
//! // A crash of one replica is masked; the state is safe on every store.
//! // `Get` is read-only, so the handle takes a read lock automatically.
//! sys.sim().crash(nodes[1]);
//! let action = client.begin_action();
//! counter.activate(action, 2)?;
//! assert_eq!(counter.invoke(action, CounterOp::Get)?, 10);
//! client.commit(action)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The raw byte-level surface ([`Client::invoke`] with encoded ops) remains
//! available as an escape hatch; see `docs/OBJECTS.md` for how a class is
//! written once as an [`ObjectType`], the [`ReplicaObject`] view servers
//! derive from it, and the encoder-ownership rules.
//!
//! Worlds are **elastic**: [`Membership`] adds fresh nodes and drains old
//! ones at runtime — each replica moved by a transactional migration that
//! repoints the directory and copies state atomically — and a
//! [`Rebalancer`] spreads placement by measured per-object load. See
//! `docs/MEMBERSHIP.md` and `examples/elastic_cluster.rs`.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `groupview-sim` | deterministic simulation kernel: virtual time, crashes, network model, RPC |
//! | [`store`] | `groupview-store` | UIDs, versioned object states, stable object stores, volatile cells |
//! | [`actions`] | `groupview-actions` | lock manager (incl. exclude-write mode), nested + nested-top-level atomic actions, two-phase commit |
//! | [`group`] | `groupview-group` | membership views, reliable totally-ordered multicast, election |
//! | [`core`] | `groupview-core` | **the paper's contribution**: Object Server / Object State databases, use lists, binding schemes, recovery, cleanup |
//! | [`obs`] | `groupview-obs` | observability: causal action spans, per-world metrics registry, Perfetto/JSONL exporters |
//! | [`replication`] | `groupview-replication` | replication policies, activation, commit-time write-back, the [`System`] façade |
//! | [`membership`] | `groupview-membership` | elastic membership: add/drain nodes, transactional replica migration, stats-driven rebalancing |
//! | [`workload`] | `groupview-workload` | workload specs, run metrics, tables |
//! | [`scenario`] | `groupview-scenario` | chaos + execution engine: the workload runner, time-keyed fault plans, seeded nemeses, history recorder, consistency oracle, scenario matrix, soak mode |
//!
//! The most common types are re-exported at the crate root.

#![forbid(unsafe_code)]

pub use groupview_actions as actions;
pub use groupview_core as core;
pub use groupview_group as group;
pub use groupview_membership as membership;
pub use groupview_obs as obs;
pub use groupview_replication as replication;
pub use groupview_scenario as scenario;
pub use groupview_sim as sim;
pub use groupview_store as store;
pub use groupview_workload as workload;

pub use groupview_actions::{ActionId, LockMode, TxSystem};
pub use groupview_core::{
    BindError, Binder, BindingScheme, CleanupDaemon, DbError, ExcludePolicy, NamingService,
    RecoveryManager,
};
pub use groupview_membership::{
    DrainReport, Membership, MigrateError, MigrationPlan, Move, NodeLoadStat, NodeStatus,
    ObjectStat, RebalanceReport, Rebalancer,
};
pub use groupview_obs::{
    ChromeTrace, Histogram, MetricsSnapshot, Phase, Registry, SpanRec, TraceSummary,
};
pub use groupview_replication::{
    Account, AccountOp, ActivateError, Client, CommitError, Counter, CounterOp, Handle,
    InvokeError, KvMap, KvOp, KvReply, ObjectGroup, ObjectType, ReplicaObject, ReplicationPolicy,
    System, SystemBuilder, Tx, TxOpError, TypedUid,
};
pub use groupview_scenario::{
    canned_scenarios, run_matrix, run_plan_typed, run_scenario_traced, run_soak, FaultPlan,
    History, ModelKind, Oracle, OracleReport, PlanAction, Scenario, ScenarioReport, SoakConfig,
    SoakReport, TracedRun,
};
pub use groupview_sim::{
    Bytes, Cause, ClientId, Codec, NetConfig, NodeId, NodeList, Sim, SimConfig, WireEncoder,
};
pub use groupview_store::{ObjectState, SnapshotCodec, Stores, TypeTag, Uid, Version};
pub use groupview_workload::{RunMetrics, WorkloadSpec};
