//! Observability must be a pure observer: running the exact same scenario
//! with spans + metrics recording ON must be **bit-for-bit identical** to
//! running it OFF — same virtual end time, same RNG draw count, same
//! workload metric fingerprint, same oracle verdict. Spans are built from
//! timestamps the simulation already produced; they charge no virtual
//! time and draw no randomness, and this suite is the proof.

use groupview_replication::System;
use groupview_scenario::{canned_scenarios, run_scenario_in, ModelKind, Scenario, ScenarioReport};
use groupview_store::Uid;
use groupview_workload::RunMetrics;
use proptest::prelude::*;

/// Every externally observable workload metric.
fn fingerprint(m: &RunMetrics) -> [u64; 15] {
    [
        m.attempts,
        m.commits,
        m.aborts,
        m.abort_bind(),
        m.abort_bind_contention,
        m.abort_bind_failure,
        m.abort_invoke(),
        m.abort_contention,
        m.abort_failure,
        m.abort_commit(),
        m.abort_commit_contention,
        m.abort_commit_failure,
        m.leaked_bindings,
        m.cleanup_reclaimed,
        m.steps,
    ]
}

/// Everything a run exposes that observability could conceivably perturb.
#[derive(Debug, PartialEq)]
struct RunTrace {
    end_time_us: u64,
    rng_draws: u64,
    fingerprint: [u64; 15],
    delivered: u64,
    crashes: u64,
    timeouts: u64,
    masked: bool,
    oracle_passed: bool,
    oracle_replayed: u64,
    oracle_violations: Vec<String>,
    failures: Vec<String>,
}

/// Builds the scenario's world (optionally observed and traced), runs it
/// via the runner's engine, and captures the full externally visible
/// outcome plus the sim's internals (end time, RNG draw count).
fn run(scenario: &Scenario, seed: u64, observe: bool) -> (RunTrace, ScenarioReport) {
    let mut builder = System::builder(seed)
        .nodes(scenario.nodes)
        .policy(scenario.policy)
        .scheme(scenario.scheme);
    if observe {
        builder = builder.observe().trace();
    }
    let sys = builder.build();
    let objects: Vec<(Uid, ModelKind)> = scenario
        .objects
        .iter()
        .map(|kind| {
            let uid = sys
                .create_object(kind.fresh(), &scenario.server_nodes, &scenario.server_nodes)
                .expect("object creation on a fresh world");
            (uid, *kind)
        })
        .collect();
    let report = run_scenario_in(scenario, seed, &sys, &objects);
    let trace = RunTrace {
        end_time_us: sys.sim().now().as_micros(),
        rng_draws: sys.sim().rng_draws(),
        fingerprint: fingerprint(&report.metrics),
        delivered: report.metrics.net.delivered,
        crashes: report.metrics.net.crashes,
        timeouts: report.metrics.net.timeouts,
        masked: report.masked(),
        oracle_passed: report.oracle.is_ok(),
        oracle_replayed: report.oracle.replayed_ops,
        oracle_violations: report.oracle.violations.clone(),
        failures: report.failures.clone(),
    };
    (trace, report)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Across the whole canned suite and a seed space: observed-and-traced
    /// runs reproduce unobserved runs exactly.
    #[test]
    fn observed_runs_are_bit_for_bit_identical_to_unobserved(
        scenario_idx in 0usize..14,
        seed in 0u64..100_000,
    ) {
        let scenarios = canned_scenarios();
        let scenario = &scenarios[scenario_idx % scenarios.len()];
        let (plain, plain_report) = run(scenario, seed, false);
        let (observed, observed_report) = run(scenario, seed, true);
        prop_assert_eq!(&plain, &observed, "{}: observability perturbed the run", scenario.name);
        // The observed run must also actually observe.
        prop_assert!(plain_report.obs.is_none());
        let snap = observed_report.obs.expect("observed run carries a snapshot");
        prop_assert!(snap.span_count() > 0, "observed run recorded spans");
    }
}
