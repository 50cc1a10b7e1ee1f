//! Experiment harness regenerating every figure of the paper.
//!
//! The paper's figures are schematic protocol diagrams, not measured plots;
//! each experiment here quantifies the claim behind one figure (or section),
//! and prints that claim beside its tables. Run them with:
//!
//! ```text
//! cargo run -p groupview-bench --bin experiments --release [e1..e13|all]
//! ```
//!
//! Every experiment is a pure function of its seeds: re-running reproduces
//! the tables bit-for-bit. Timing lives in `benchmark/`; the exact
//! allocation counts of the hot paths are pinned by this crate's
//! `alloc_budgets` test.

pub mod experiments;

pub use crate::experiments::{all_experiments, Experiment};
