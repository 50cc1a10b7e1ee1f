//! Scenario-driven soak mode for the experiment harness.
//!
//! A soak chains **composed** nemesis schedules across a seed range: every
//! round takes a fresh seed, merges several nemesis families into one
//! fault plan (send-window crashes in the paper's Figure 1 window riding
//! on top of a lossy window, rolling crashes over client churn, an
//! elastic grow-the-world ramp — add two nodes, drain a server,
//! rebalance — under loss), runs
//! it under every replication policy against a mixed-class object
//! population (counter + kv map + account), and demands the full oracle
//! verdict each time. `cargo run -p groupview-bench --bin experiments soak`
//! prints the per-cell reports and the aggregate verdict summary; CI runs
//! a short soak in the scenario-matrix step.

use crate::nemesis;
use crate::oracle::ModelKind;
use crate::runner::{run_scenario_observed, Checks, Scenario, ScenarioReport};
use groupview_core::BindingScheme;
use groupview_replication::ReplicationPolicy;
use groupview_sim::{NodeId, SimDuration};
use groupview_workload::WorkloadSpec;
use std::fmt;

/// Soak shape: how many rounds, from which base seed.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Seed of the first round; round `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Number of rounds. Every round runs all three policies, so the soak
    /// executes `3 × rounds` scenario cells.
    pub rounds: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            base_seed: 1,
            rounds: 3,
        }
    }
}

/// Everything a soak produced.
#[derive(Debug)]
pub struct SoakReport {
    /// One report per `round × policy` cell, in execution order.
    pub reports: Vec<ScenarioReport>,
}

impl SoakReport {
    /// Whether every cell passed.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(ScenarioReport::passed)
    }

    /// Number of failed cells.
    pub fn failed_cells(&self) -> usize {
        self.reports.iter().filter(|r| !r.passed()).count()
    }

    /// The oracle verdict summary: cells, commits, replayed operations,
    /// injected crashes, masked cells, and violations — one line, fit for
    /// a CI log tail.
    pub fn summary(&self) -> String {
        let commits: u64 = self.reports.iter().map(|r| r.metrics.commits).sum();
        let replayed: u64 = self.reports.iter().map(|r| r.oracle.replayed_ops).sum();
        let crashes: u64 = self.reports.iter().map(ScenarioReport::crashes).sum();
        let masked = self.reports.iter().filter(|r| r.masked()).count();
        let violations: usize = self.reports.iter().map(|r| r.oracle.violations.len()).sum();
        format!(
            "soak: {} cells, {} commits, {} ops replayed, {} crashes injected, \
             {} cells fully masked, {} oracle violations, {} failed cells → {}",
            self.reports.len(),
            commits,
            replayed,
            crashes,
            masked,
            violations,
            self.failed_cells(),
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for report in &self.reports {
            writeln!(f, "{report}")?;
        }
        write!(f, "{}", self.summary())
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One soak cell: the standard 7-node topology under a chained plan.
fn soak_scenario(name: &'static str, policy: ReplicationPolicy, round: u64) -> Scenario {
    Scenario {
        name,
        policy,
        scheme: BindingScheme::Standard,
        nodes: 7,
        server_nodes: vec![n(1), n(2), n(3)],
        objects: vec![
            ModelKind::COUNTER,
            ModelKind::KvMap,
            ModelKind::Account { initial: 20 },
        ],
        workload: WorkloadSpec::new(vec![], vec![n(4), n(5), n(6)])
            .clients(3)
            .actions_per_client(5)
            .ops_per_action(2)
            .replicas(2)
            .read_fraction(0.25),
        plan: Box::new(move |seed| {
            // Chain two nemesis families per round, rotating the pair so
            // consecutive rounds stress different fault combinations.
            match round % 3 {
                0 => nemesis::send_window_crashes(
                    seed,
                    &[n(2), n(3)],
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(26),
                    SimDuration::from_millis(22),
                    3,
                    2,
                )
                .merge(nemesis::lossy_window(
                    seed,
                    SimDuration::from_millis(4),
                    SimDuration::from_millis(30),
                    0.08,
                    3,
                )),
                1 => nemesis::rolling_crashes(
                    seed,
                    &[n(1), n(2)],
                    SimDuration::from_millis(3),
                    SimDuration::from_millis(28),
                    SimDuration::from_millis(11),
                    2,
                )
                .merge(nemesis::client_churn(
                    seed,
                    3,
                    SimDuration::from_millis(5),
                    SimDuration::from_millis(25),
                    1,
                    1,
                )),
                // Grow-the-world round: two fresh nodes join, server 2
                // drains (every replica transactionally migrated off), and
                // a stats-driven rebalance spreads placement — all under a
                // lossy window, so migrations race dropped messages.
                _ => nemesis::elastic_ramp(
                    seed,
                    2,
                    n(2),
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(28),
                )
                .merge(nemesis::lossy_window(
                    seed,
                    SimDuration::from_millis(4),
                    SimDuration::from_millis(20),
                    0.08,
                    2,
                )),
            }
        }),
        checks: Checks {
            // Heavy chained chaos can blanket a short round; the oracle
            // verdicts are the contract, not availability.
            expect_commits: false,
            ..Checks::default()
        },
    }
}

/// Runs the soak: `rounds` seeds × all three replication policies, each
/// cell a chained nemesis plan over a mixed-class object population.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut reports = Vec::with_capacity(cfg.rounds as usize * 3);
    for round in 0..cfg.rounds {
        let seed = cfg.base_seed + round;
        for (name, policy) in [
            ("soak/active", ReplicationPolicy::Active),
            ("soak/cohort", ReplicationPolicy::CoordinatorCohort),
            ("soak/single_copy", ReplicationPolicy::SingleCopyPassive),
        ] {
            let scenario = soak_scenario(name, policy, round);
            // Soak cells run observed: the per-phase latency breakdown in
            // each report's Display is the harness's headline output.
            reports.push(run_scenario_observed(&scenario, seed));
        }
    }
    SoakReport { reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_passes_and_summarizes() {
        let report = run_soak(&SoakConfig {
            base_seed: 11,
            rounds: 2,
        });
        assert_eq!(report.reports.len(), 6, "rounds × policies");
        assert!(report.passed(), "{report}");
        assert_eq!(report.failed_cells(), 0);
        let summary = report.summary();
        assert!(summary.contains("6 cells"), "{summary}");
        assert!(summary.contains("PASS"), "{summary}");
        assert!(
            report.reports.iter().any(|r| r.crashes() > 0),
            "a soak must actually inject faults"
        );
        assert!(report.to_string().contains("soak:"));
        // Soak cells run observed: every report carries a snapshot and its
        // Display appends the per-phase latency breakdown.
        assert!(report.reports.iter().all(|r| r.obs.is_some()));
        let cell = report.reports[0].to_string();
        assert!(cell.contains("invoke"), "{cell}");
        assert!(cell.contains("p95="), "{cell}");
    }

    #[test]
    fn soak_rounds_chain_distinct_nemesis_pairs() {
        // Round 0 arms send-window crashes; round 1 rolls crashes over
        // client churn; round 2 grows the world (add, drain, rebalance)
        // under loss — all three families appear across a three-round soak.
        let r0 = soak_scenario("soak/active", ReplicationPolicy::Active, 0);
        let r1 = soak_scenario("soak/active", ReplicationPolicy::Active, 1);
        let r2 = soak_scenario("soak/active", ReplicationPolicy::Active, 2);
        let p0 = (r0.plan)(1);
        let p1 = (r1.plan)(1);
        let p2 = (r2.plan)(1);
        use crate::plan::PlanAction;
        assert!(p0
            .events()
            .iter()
            .any(|e| matches!(e.action, PlanAction::CrashAfterSends(..))));
        assert!(p1
            .events()
            .iter()
            .any(|e| matches!(e.action, PlanAction::CrashClient(_))));
        assert!(p2.events().iter().any(|e| e.action == PlanAction::AddNode));
        assert!(p2
            .events()
            .iter()
            .any(|e| matches!(e.action, PlanAction::DrainNode(_))));
        assert!(p2
            .events()
            .iter()
            .any(|e| e.action == PlanAction::Rebalance));
        p0.validate().expect("well-formed");
        p1.validate().expect("well-formed");
        p2.validate().expect("well-formed");
    }

    /// The elastic acceptance drill: the grow-the-world round (two nodes
    /// added, server 2 drained, placement rebalanced, all under a lossy
    /// window) completes with zero oracle violations across every
    /// replication policy × three seeds, and every cell really migrated.
    #[test]
    fn elastic_round_passes_across_policies_and_seeds() {
        for policy in ReplicationPolicy::ALL {
            let scenario = soak_scenario("soak/elastic", policy, 2);
            for seed in [1, 2, 3] {
                let report = run_scenario_observed(&scenario, seed);
                assert!(report.passed(), "{policy:?} seed {seed}: {report}");
                assert!(
                    report.oracle.violations.is_empty(),
                    "{policy:?} seed {seed}: {report}"
                );
                assert!(
                    report.metrics.migrations > 0,
                    "{policy:?} seed {seed} moved nothing: {report}"
                );
            }
        }
    }
}
