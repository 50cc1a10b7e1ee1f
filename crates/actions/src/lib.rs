//! Atomic action (transaction) substrate for `groupview`.
//!
//! The paper (§2.2) assumes an *Atomic Action service* with the classic
//! properties — serialisability, failure atomicity, permanence of effect —
//! plus two structuring facilities its binding schemes rely on:
//!
//! * **nested atomic actions** (Figure 6): a child action whose locks and
//!   effects are inherited by its parent on commit and undone on abort;
//! * **nested top-level actions** (Figure 8): an independent top-level
//!   action started from *within* another action, committing durably
//!   regardless of what the enclosing action later does.
//!
//! It also requires a lock-based concurrency-control service with **type
//! specific lock modes**: §4.2.1 introduces an *exclude-write* lock that is
//! compatible with read locks, so a committing client can prune failed
//! stores from `St(A)` without forcing concurrent readers to abort.
//!
//! This crate implements all of that:
//!
//! * [`LockManager`] — strict two-phase locking over abstract [`LockKey`]s
//!   with [`LockMode::Read`] / [`LockMode::Write`] /
//!   [`LockMode::ExcludeWrite`] modes, refusal-based conflict handling (the
//!   paper's schemes abort rather than wait), upgrade rules, and Moss-style
//!   ancestor inheritance for nested actions;
//! * [`TxSystem`] — the action manager: begin/commit/abort for top-level,
//!   nested, and nested-top-level actions, LIFO undo logs, and a two-phase
//!   commit protocol over [`StoreWriteParticipant`]s. It keeps one record
//!   per *active* action and nothing about an action that has ended: a
//!   nested commit merges the record into its parent's, a top-level commit
//!   or an abort takes it out of the table, and the lock table alone says
//!   who holds what. An ended action's record is emptied and recycled for
//!   a later action, buffers and all — its participants are held by value
//!   in a vector it keeps — and the lock table reuses its emptied holder
//!   and key lists, so an action's bookkeeping allocates nothing in steady
//!   state;
//! * [`StoreWriteParticipant`] — the two-phase-commit participant: it
//!   installs new object states into a node's stable store at commit
//!   (phase 1 writes the store's intent log; in-doubt transactions are
//!   resolved from the coordinator's decision record after a crash). It
//!   prepares at most once, so a write staged before the two-phase commit
//!   rides it without being staged again.
//!
//! # Example
//!
//! ```rust
//! use groupview_sim::{Sim, SimConfig, NodeId};
//! use groupview_store::Stores;
//! use groupview_actions::{TxSystem, LockKey, LockMode};
//!
//! let sim = Sim::new(SimConfig::new(1).with_nodes(2));
//! let stores = Stores::new(&sim);
//! let tx = TxSystem::new(&sim, &stores);
//!
//! let a = tx.begin_top(NodeId::new(0));
//! let key = LockKey::new(1, 42);
//! tx.lock(a, key, LockMode::Write)?;
//!
//! // A concurrent action cannot acquire a conflicting lock...
//! let b = tx.begin_top(NodeId::new(1));
//! assert!(tx.lock(b, key, LockMode::Read).is_err());
//!
//! tx.commit(a)?;
//! // ...until the holder commits.
//! tx.lock(b, key, LockMode::Read)?;
//! tx.commit(b)?;
//! # Ok::<(), groupview_actions::TxError>(())
//! ```

#![forbid(unsafe_code)]

pub mod action;
pub mod arena;
pub mod error;
pub mod lock;
pub mod manager;
pub mod participant;

pub use crate::action::ActionId;
pub use crate::arena::{UndoApplier, UndoArena};
pub use crate::error::TxError;
pub use crate::lock::{LockKey, LockManager, LockMode};
pub use crate::manager::{TxStats, TxSystem};
pub use crate::participant::{PrepareFault, StoreWriteParticipant};
