//! Object storage substrate for `groupview`.
//!
//! The paper's system model (§2.2, §3.1) assumes every persistent object has
//! a unique identifier (UID) and that its *passive* state lives in one or
//! more **object stores** — "filing systems for objects" on stable storage
//! that survive node crashes. Volatile storage on a node is lost whenever
//! that node crashes (§2.1).
//!
//! This crate provides those pieces:
//!
//! * [`Uid`] / [`UidGen`] — unique object identifiers,
//! * [`ObjectState`] — a type-tagged, versioned snapshot of an object,
//! * [`StableStore`] — one node's crash-surviving object store, including the
//!   prepared-transaction *intent log* used by two-phase commit,
//! * [`Volatile`] — an epoch-guarded cell whose contents evaporate when the
//!   owning node crashes,
//! * [`Stores`] — the registry of all stores with local and RPC accessors.
//!
//! # Example
//!
//! ```rust
//! use groupview_sim::{Sim, SimConfig, NodeId};
//! use groupview_store::{Stores, ObjectState, TypeTag, UidGen};
//!
//! let sim = Sim::new(SimConfig::new(1).with_nodes(2));
//! let stores = Stores::new(&sim);
//! let beta = NodeId::new(1);
//! stores.add_store(beta);
//!
//! let mut uids = UidGen::new(NodeId::new(0));
//! let uid = uids.next_uid();
//! let state = ObjectState::initial(TypeTag::new(1), b"hello".to_vec());
//! stores.write_local(beta, uid, state.clone())?;
//! assert_eq!(stores.read_local(beta, uid)?, state);
//!
//! // Stable storage survives a crash...
//! sim.crash(beta);
//! sim.recover(beta);
//! assert_eq!(stores.read_local(beta, uid)?, state);
//! # Ok::<(), groupview_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod registry;
pub mod stable;
pub mod state;
pub mod uid;
pub mod volatile;

pub use crate::error::StoreError;
pub use crate::registry::Stores;
pub use crate::stable::{StableStore, TxToken};
pub use crate::state::{ObjectState, SnapshotCodec, TypeTag, Version};
pub use crate::uid::{Uid, UidGen};
pub use crate::volatile::Volatile;
