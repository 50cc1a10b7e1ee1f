//! Replica management for `groupview`.
//!
//! This crate turns the substrates (simulation, stores, actions, groups) and
//! the naming service into a usable persistent-replicated-object system. It
//! implements §2.3(2) of the paper — the three **object replication
//! policies**:
//!
//! * [`ReplicationPolicy::Active`]: all bound replicas execute every
//!   operation, delivered through reliable totally-ordered multicast; up to
//!   `k−1` replica failures are masked.
//! * [`ReplicationPolicy::CoordinatorCohort`]: one replica (the lowest-id
//!   live one) executes and checkpoints its state to the cohorts; on
//!   coordinator failure a cohort is elected and the operation is retried
//!   (duplicate execution is suppressed by operation ids).
//! * [`ReplicationPolicy::SingleCopyPassive`]: a single activated copy; its
//!   failure aborts the client action; the new state reaches all stores in
//!   `St` only at commit.
//!
//! and §3.2's activation/commit machinery for every `|Sv| × |St|`
//! configuration (Figures 2–5): activation loads state from any store in
//! `St`; commit copies the new state to all functioning stores in `St` and
//! **`Exclude`s the rest** so later bindings can never see stale data; the
//! read optimisation skips the copy entirely when the object was not
//! modified.
//!
//! The entry point is [`System`] (built with [`SystemBuilder`]), its
//! per-application [`Client`] handles, and the typed [`Handle`] surface
//! ([`ObjectType`] classes — operations in, decoded replies out):
//!
//! ```rust
//! use groupview_replication::{System, Counter, CounterOp};
//!
//! let mut sys = System::builder(7).nodes(5).build();
//! let nodes = sys.sim().nodes();
//! let uid = sys
//!     .create_typed(Counter::new(0), &nodes[1..4], &nodes[1..4])
//!     .expect("create");
//!
//! let client = sys.client(nodes[4]);
//! let counter = uid.open(&client);
//! let action = client.begin_action();
//! counter.activate(action, 2).expect("activate");
//! assert_eq!(counter.invoke(action, CounterOp::Add(5)).expect("invoke"), 5);
//! client.commit(action).expect("commit");
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod error;
pub mod invoke;
pub mod object;
pub mod policy;
pub mod replica;
pub mod system;
pub mod tx;
pub mod typed;
pub(crate) mod undo;
pub mod wire;
pub mod writeback;

pub use crate::error::{ActivateError, CommitError, InvokeError};
pub use crate::invoke::ObjectGroup;
pub use crate::object::{
    Account, AccountOp, Counter, CounterOp, InvokeResult, KvMap, KvOp, KvReply, ObjectType,
    ReplicaObject, TypeRegistry,
};
pub use crate::policy::ReplicationPolicy;
pub use crate::replica::{ReplicaRegistry, ServerReplica};
pub use crate::system::{Client, System, SystemBuilder};
pub use crate::tx::{Tx, TxOpError};
pub use crate::typed::{Handle, TypedUid};

pub use crate::wire::{Frames, GroupMsg, GroupMsgCodec, MemberReply, MemberReplyCodec, Replies};
