//! A short scenario-driven soak: chained nemesis plans across seeds, every
//! cell oracle-checked over a mixed counter/kv/account population.
//!
//! CI runs this with `--nocapture` so every per-cell `ScenarioReport` and
//! the aggregate oracle verdict summary land in the log.

use groupview_scenario::{run_soak, SoakConfig};

#[test]
fn soak_chains_nemeses_across_seeds_and_passes() {
    let report = run_soak(&SoakConfig {
        base_seed: 1,
        rounds: 3,
    });
    for cell in &report.reports {
        println!("{cell}");
    }
    println!("{}", report.summary());
    assert_eq!(report.reports.len(), 9, "3 rounds × 3 policies");
    assert!(
        report.passed(),
        "{} soak cells failed (see reports above)",
        report.failed_cells()
    );
    // Anti-vacuity: the chained plans actually injected faults and the
    // oracle actually replayed mixed-class histories.
    assert!(report.reports.iter().any(|r| r.crashes() > 0));
    assert!(
        report
            .reports
            .iter()
            .map(|r| r.oracle.replayed_ops)
            .sum::<u64>()
            > 0
    );
}
