//! The canned-scenario matrix: every scenario × every seed, oracle-checked.
//!
//! CI runs this with `--nocapture` so each `ScenarioReport` (commit/abort
//! taxonomy, crash masking, oracle verdicts) lands in the log.

use groupview_scenario::{canned_scenarios, run_matrix};

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn canned_matrix_passes_across_seeds() {
    let scenarios = canned_scenarios();
    assert!(scenarios.len() >= 8);
    let reports = run_matrix(&scenarios, &SEEDS);
    assert_eq!(reports.len(), scenarios.len() * SEEDS.len());
    let mut failed = 0;
    for report in &reports {
        println!("{report}");
        if !report.passed() {
            failed += 1;
        }
    }
    assert_eq!(
        failed, 0,
        "{failed} scenario cells failed (see reports above)"
    );
    // The matrix actually exercised faults and the oracle actually replayed
    // histories — guard against a vacuous pass.
    assert!(
        reports.iter().any(|r| r.crashes() > 0),
        "no scenario injected a crash"
    );
    assert!(
        reports.iter().map(|r| r.oracle.replayed_ops).sum::<u64>() > 0,
        "the oracle replayed nothing"
    );
    // Anti-vacuity for the harness itself, not a quality floor: across 84
    // deterministic cells some fault must have intersected in-flight work
    // (the single-copy crash scenarios guarantee it — an unreplicated
    // server crash cannot be masked). If the vendored RNG ever changes,
    // re-tune nemesis windows like any seed-sensitive test (see ROADMAP).
    assert!(
        reports.iter().any(|r| r.metrics.abort_failure > 0),
        "no scenario produced a failure-caused abort — faults too tame"
    );
    // The elastic cells really migrated replicas (a drain of server 2 has
    // replicas to move in every policy), and no cell left a migration
    // permanently stranded.
    assert!(
        reports
            .iter()
            .filter(|r| r.name.ends_with("elastic_ramp"))
            .all(|r| r.metrics.migrations > 0),
        "an elastic cell moved nothing"
    );
}
