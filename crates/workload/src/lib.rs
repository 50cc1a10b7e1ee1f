//! Workload generation and measurement for `groupview`.
//!
//! The paper contains no quantitative evaluation — its claims about the
//! binding schemes, replication policies, and recovery protocols are
//! qualitative. This crate holds the vocabulary that turns those claims
//! into numbers:
//!
//! * [`WorkloadSpec`] describes a population of client applications (how
//!   many, where they run, which objects they touch, read/write mix,
//!   operations per action);
//! * [`RunMetrics`] is the record of everything a run measured — commits,
//!   the contention-vs-failure abort taxonomy for bind/invoke/commit,
//!   binding costs, [`Histogram`]s of per-action latency and messages;
//! * [`TextTable`] renders results the way the experiment harness prints
//!   them.
//!
//! The *execution engine* lives in `groupview-scenario`: its runner
//! (`run_plan_typed`) interleaves the client state machines step by step
//! and fills in a [`RunMetrics`]. The old `workload::Driver` was retired
//! after the runner reproduced its runs bit for bit (the scenario crate's
//! `tests/parity.rs` pins the recorded runs).

#![forbid(unsafe_code)]

pub mod metrics;
pub mod spec;
pub mod table;

pub use crate::metrics::RunMetrics;
pub use crate::spec::WorkloadSpec;
pub use crate::table::TextTable;
pub use groupview_obs::Histogram;
