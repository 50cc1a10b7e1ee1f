//! # groupview-membership — elastic membership and rebalancing
//!
//! The paper's group-view databases describe a *fixed* world: `SvA` and
//! `StA` name nodes that existed when the object was created. This crate
//! makes the world elastic while preserving every invariant the databases
//! guarantee:
//!
//! * **Lifecycle** ([`Membership`], [`NodeStatus`]): new nodes join the
//!   world at runtime ([`Membership::add_node`] — a fresh sim node plus an
//!   empty object store, immediately eligible as a migration target), and
//!   existing nodes drain ([`Membership::drain_node`]) — a draining node
//!   stops accepting new replicas and is decommissioned once its last
//!   replica has moved away.
//! * **Transactional migration** ([`Membership::migrate`],
//!   [`MigrateError`]): one replica moves host inside a single top-level
//!   atomic action. The `Insert`/`Remove` pair updates `Sv`, the
//!   `Include`/`Exclude` pair updates `St`, and the state copy lands on
//!   the new host through the same two-phase commit — so a directory
//!   lookup *never* observes a half-moved object, and an object that is
//!   in use simply refuses the move (`Insert`'s §4.1.2 quiescence check)
//!   until its clients finish on the pinned incarnation.
//! * **Stats-driven rebalancing** ([`Rebalancer`], [`MigrationPlan`]):
//!   per-node load (cumulative use counts × state bytes) feeds a greedy
//!   two-dimensional bin-packer that emits a bounded batch of moves,
//!   executed in order with busy-retry.
//!
//! Migration leaves a *tombstone* (`Stores::retire`) on the old host:
//! §4.2 store recovery consults it and purges the stale copy instead of
//! re-`Include`-ing it — without this, a node that crashed mid-drain
//! would resurrect every replica that was deliberately moved off it. The
//! purge clears the tombstone; a live source whose copy is deleted at
//! once needs none.
//!
//! Everything here is driven from the naming node and is fully
//! deterministic: the rebalancer reads only replay-stable inputs (the
//! server database's monotone lifetime-use counters and committed state
//! sizes), never wall clocks or observability snapshots, so an observed
//! run stays bit-for-bit identical to an unobserved one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lifecycle;
mod migrate;
mod rebalance;

pub use lifecycle::{DrainReport, Membership, NodeStatus};
pub use migrate::MigrateError;
pub use rebalance::{MigrationPlan, Move, NodeLoadStat, ObjectStat, RebalanceReport, Rebalancer};
