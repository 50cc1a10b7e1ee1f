//! Deterministic discrete-event simulation kernel for `groupview`.
//!
//! The paper this project reproduces (Little, McCue, Shrivastava,
//! *Maintaining Information about Persistent Replicated Objects in a
//! Distributed System*, ICDCS 1993) assumes a set of fail-silent
//! workstations connected by a local-area network. This crate provides that
//! substrate as a **deterministic, single-threaded simulation**: every run is
//! a pure function of its [`SimConfig`] (including the RNG seed), which makes
//! protocol-level failure interleavings — "the node crashed after delivering
//! one of its two replies" — exactly reproducible in tests and benchmarks.
//!
//! # Responsibilities
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) advanced by message
//!   latencies and explicit charges. A fan-out the sender does not wait
//!   on between requests ([`Sim::fork`]) costs its slowest branch.
//! * **Node lifecycle**: nodes are *up* or *crashed* (fail-silent, §2.1 of
//!   the paper). Each crash bumps the node's *epoch*, which downstream crates
//!   use to invalidate volatile state automatically.
//! * **Network model**: per-message latency (base + jitter), probabilistic
//!   drops, symmetric partitions, and scripted fault points such as
//!   [`Sim::crash_after_sends`].
//! * **Random stream** ([`Rng`]): the seeded splitmix64 generator behind
//!   jitter, drops and the scenario nemeses, owned here so that the same
//!   seed gives the same bytes.
//! * **RPC**: a synchronous request/response helper ([`Sim::rpc`]) that
//!   preserves the failure asymmetry the paper reasons about — a server may
//!   execute an invocation and crash *before* the reply is delivered.
//! * **Event schedule**: timed opaque markers a driver acts on (the scenario
//!   runner's fault-plan entries).
//! * **Wire layer** ([`wire`]): reference-counted [`Bytes`] buffers, the
//!   pooled [`WireEncoder`], and the [`Codec`] trait — the zero-copy
//!   payload substrate every protocol layer shares.
//! * **Node lists** ([`NodeList`]): the group views and bindings every
//!   layer passes around, held inline so copying one allocates nothing.
//!
//! # Example
//!
//! ```rust
//! use groupview_sim::{Sim, SimConfig, NodeId};
//!
//! let sim = Sim::new(SimConfig::new(42).with_nodes(3));
//! let a = NodeId::new(0);
//! let b = NodeId::new(1);
//! let reply = sim.rpc(a, b, 64, 16, || "pong").expect("b is up");
//! assert_eq!(reply, "pong");
//! sim.crash(b);
//! assert!(sim.rpc(a, b, 64, 16, || "pong").is_err());
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod ids;
pub mod inline;
pub mod metrics;
pub mod rng;
pub mod rpc;
pub mod time;
pub mod trace;
pub mod wire;
pub mod world;

pub use crate::config::{NetConfig, SimConfig};
pub use crate::error::{Cause, NetError};
pub use crate::ids::{ClientId, IdHasher, IdMap, IdSet, NodeId};
pub use crate::inline::{InlineVec, NodeList};
pub use crate::metrics::NetCounters;
pub use crate::rng::Rng;
pub use crate::time::{SimDuration, SimTime};
pub use crate::trace::TraceEvent;
pub use crate::wire::{Bytes, Codec, WireEncoder, WireStats};
pub use crate::world::{Fork, ScheduledEvent, Sim};
