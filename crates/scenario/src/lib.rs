//! Deterministic chaos engineering for `groupview`: fault plans, nemeses,
//! history recording, and a consistency oracle.
//!
//! The paper's claim is that GroupView/state-database information stays
//! correct *through* failures — crashes mid-update, §4 recovery, cleanup of
//! dead clients. This crate turns that claim into a scenario factory:
//!
//! * [`FaultPlan`] (`plan`) — a deterministic list of timed actions, each
//!   keyed by a **virtual-time offset** and read through the simulator's
//!   event queue. An entry fires at the top of the first driver step whose
//!   clock has reached it, between whole bind, invoke and commit calls;
//!   only the armed fault points (`CrashAfterSends`, `CrashStoreInCommit`)
//!   land inside a message exchange.
//! * nemeses (`nemesis`) — seeded generators ([`rolling_crashes`],
//!   [`send_window_crashes`] for the paper's Figure 1 window,
//!   [`flapping_partition`], [`lossy_window`], [`client_churn`],
//!   [`recovery_storm`]) mapping one scenario family to unbounded concrete
//!   schedules.
//! * [`History`] (`history`) — a near-zero-allocation recorder of every
//!   client invoke/commit/abort (payloads are refcounted
//!   [`Bytes`](groupview_sim::Bytes) clones).
//! * [`Oracle`] (`oracle`) — replays the committed history sequentially
//!   against real-class models ([`ModelKind`]: counter, kv map, account —
//!   every reply must match the model; final store states must equal the
//!   model's snapshot), then checks the paper's post-recovery invariants:
//!   quiescent use lists, `St` restored to full strength, byte-identical
//!   stores, no leaked locks.
//! * the runner (`runner`) — the workspace's **single workload execution
//!   engine** ([`run_plan_typed`]; it retired `workload::Driver`, whose
//!   recorded runs `tests/parity.rs` pins). [`Scenario`] = workload × plan
//!   × checks, run as a multi-seed matrix producing [`ScenarioReport`]s;
//!   plus [`canned_scenarios`], the 26-scenario suite CI drives across
//!   seeds.
//! * soak mode (`soak`) — [`run_soak`] chains composed nemesis schedules
//!   across a seed range for the experiment harness, reporting an
//!   aggregate oracle verdict summary.
//!
//! # Example
//!
//! ```rust
//! use groupview_scenario::{canned_scenarios, run_matrix};
//!
//! let reports = run_matrix(&canned_scenarios()[..1], &[7]);
//! assert!(reports[0].passed(), "{}", reports[0]);
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod history;
pub mod nemesis;
pub mod oracle;
pub mod plan;
pub mod runner;
pub mod scenarios;
pub mod soak;

pub use crate::export::{TracedRun, NOTES_TID};
pub use crate::history::{Event, EventKind, History};
pub use crate::nemesis::{
    client_churn, flapping_partition, lossy_window, recovery_storm, rolling_crashes,
    send_window_crashes,
};
pub use crate::oracle::{
    check_counter_states, check_final_states, check_quiescent_invariants, ModelKind, ObjectModel,
    Oracle, OracleReport,
};
pub use crate::plan::{FaultPlan, PlanAction, PlanError, PlanEvent};
pub use crate::runner::{
    run_matrix, run_plan_typed, run_scenario_in, run_scenario_traced, Checks, PlanGenerator,
    RunOutcome, Scenario, ScenarioReport,
};
pub use crate::scenarios::canned_scenarios;
pub use crate::soak::{run_soak, SoakConfig, SoakReport};
