//! The metric catalogue: every name the benchmark prints, with its unit,
//! and for end-to-end metrics the direction and the regression bound.
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`bench manifest`), and a test keeps the two equal.

use crate::json::{obj, Value};
use crate::probes;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// A function of (code, seed) alone: passes of one run must agree on
    /// it bit for bit, and the harness fails the run otherwise.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// What a user of the store would see, reported by every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    // The wall-clock bounds are as wide as a bound may be: on the shared
    // two-core box the benchmark was defined on, the same code measured
    // minutes apart differs by up to a fifth (see README, "Steadiness").
    e2e("commits_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("commit_us_p50", "us", Better::Lower, 0.25, false),
    e2e("commit_us_p99", "us", Better::Lower, 0.25, false),
    e2e("virt_commit_ms_p50", "ms", Better::Lower, 0.02, true),
    e2e("virt_commit_ms_p99", "ms", Better::Lower, 0.02, true),
    e2e("msgs_per_commit", "count", Better::Lower, 0.03, true),
    e2e("allocs_per_commit", "count", Better::Lower, 0.03, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05, false),
];

/// Layer metrics a traced pass yields (spans, counts per commit, registry
/// phases), before the probes and the estimates.
pub const TRACED: [(&str, &str); 42] = [
    ("replication.begin_us", "us"),
    ("replication.activate_us", "us"),
    ("replication.invoke_us", "us"),
    ("replication.commit_us", "us"),
    ("replication.tx_invoke_us", "us"),
    ("replication.tx_commit_us", "us"),
    ("driver.self_us", "us"),
    ("driver.longest_commit_ms", "ms"),
    ("alloc.begin", "count"),
    ("alloc.activate", "count"),
    ("alloc.invoke", "count"),
    ("alloc.commit", "count"),
    ("alloc.bytes_per_commit", "B"),
    ("membership.drain_step_ms", "ms"),
    ("membership.migrate_us", "us"),
    ("membership.plan_ms", "ms"),
    ("membership.moves", "count"),
    ("scenario.run_plan_s", "s"),
    ("scenario.steps_per_s", "1/s"),
    ("scenario.oracle_verify_ms", "ms"),
    ("scenario.history_events", "count"),
    ("obs.traced_overhead_ratio", "ratio"),
    ("sim.bytes_per_commit", "B"),
    ("sim.timeouts_per_commit", "count"),
    ("wire.buffer_allocs_per_commit", "count"),
    ("wire.pool_reuses_per_commit", "count"),
    ("wire.pool_hit_ratio", "ratio"),
    ("wire.bytes_copied_per_commit", "B"),
    ("actions.locks_acquired_per_commit", "count"),
    ("actions.locks_refused_per_commit", "count"),
    ("actions.prepares_per_commit", "count"),
    ("actions.undo_ops_per_commit", "count"),
    ("group.multicasts_per_commit", "count"),
    ("replication.rpcs_per_commit", "count"),
    ("replication.invokes_per_commit", "count"),
    ("obs.virt_bind_us_p50", "us"),
    ("obs.virt_invoke_us_p50", "us"),
    ("obs.virt_prepare_us_p50", "us"),
    ("obs.virt_commit_us_p50", "us"),
    ("rss_bytes_per_commit", "B"),
    ("failed_share", "ratio"),
    ("recovery_gap_virt_ms", "ms"),
];

/// Estimated attribution: probe cost × count per commit (see
/// `reduce::estimates`), and what the estimate leaves unexplained.
pub const ESTIMATES: [(&str, &str); 7] = [
    ("est.sim_us", "us"),
    ("est.wire_us", "us"),
    ("est.actions_us", "us"),
    ("est.group_us", "us"),
    ("est.core_us", "us"),
    ("est.store_us", "us"),
    ("est.unattributed_us", "us"),
];

/// The layer metrics an optimisation should raise; all others are costs.
const HIGHER_IS_BETTER: [&str; 2] = ["wire.pool_hit_ratio", "scenario.steps_per_s"];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    TRACED
        .iter()
        .chain(probes::CATALOGUE.iter())
        .chain(ESTIMATES.iter())
        .copied()
        .collect()
}

/// Why each workload exists, one line each (`BENCHMARK.json` `why`).
pub const WHY: [(&str, &str); 8] = [
    (
        "short_warm",
        "one Add per action on 2,000 warm counters: bind and commit dominate (core, actions, store 2PC); shows per-commit memory growth",
    ),
    (
        "wide_active",
        "same action over 50,000 counters picked at random: the active set and the Sv/St databases outgrow every cache",
    ),
    (
        "invoke_stream",
        "64 unbatched Adds per action: replication invoke, group multicast and sim wire dominate, bind and commit amortised",
    ),
    (
        "invoke_batched",
        "the same 64 Adds as invoke_batch of 16: the twin code path, which must move with invoke_stream or not at all",
    ),
    (
        "read_mostly",
        "coordinator-cohort, 90% read-only actions of 4 Gets beside 10% of 4 Adds: catches a write-path gain paid for by readers",
    ),
    (
        "transfers",
        "two-account Tx transfers over single-copy passive accounts: lock map, undo arena and one store 2PC; group does nothing",
    ),
    (
        "crash_churn",
        "the scenario runner, 12 clients under rolling server crashes, judged by the oracle: recovery, view change, RPC timeouts",
    ),
    (
        "elastic_drain",
        "drain one of five servers onto two added nodes, then rebalance: membership migrate and plan over core DB writes",
    ),
];

/// How long one run of the contract command measures.
pub const RUN_SECONDS: u64 = 12;

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    debug_assert_eq!(WHY.map(|(n, _)| n), workloads::NAMES);
    obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "bench",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WHY.iter()
                    .map(|&(name, why)| {
                        obj([("name", Value::from(name)), ("why", Value::from(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|&(name, unit)| {
                        // A layer metric has no bound; `better` says which
                        // way an optimisation should move it.
                        let better = if HIGHER_IS_BETTER.contains(&name) {
                            Better::Higher
                        } else {
                            Better::Lower
                        };
                        obj([
                            ("name", Value::from(name)),
                            ("unit", Value::from(unit)),
                            ("better", Value::from(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let mut seen = HashSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        for (name, unit) in layers {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        for (name, why) in WHY {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().encode_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&committed).expect("valid JSON"),
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }
}
