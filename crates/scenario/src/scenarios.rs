//! Canned scenarios: the matrix CI runs across seeds.
//!
//! Twenty-eight scenarios over one base topology (7 nodes: node 0 names,
//! nodes 1–3 serve and store, nodes 4–6 host clients; the elastic family
//! grows it mid-run) covering all three
//! replication policies, all fault families (crashes, rolling crashes,
//! send-window crashes in the paper's Figure 1 window, partitions,
//! flapping partitions, message loss, client churn, recovery storms,
//! elastic membership ramps and rebalance storms),
//! three binding schemes, batched and per-op invocation, and all three
//! object classes (counters everywhere; the send-window scenarios also
//! drive a KvMap and an Account so the oracle checks every operation type
//! under mid-exchange crashes; the transfer scenarios drive two-object
//! transactions through the typed `Tx` surface over a population of
//! Accounts and additionally demand conservation of money at every commit
//! point). Every scenario demands the oracle's sequential-replay
//! equivalence and the paper's post-recovery invariants; scenarios where
//! active replication should fully mask the injected faults additionally
//! demand a zero failure-caused abort count.

use crate::nemesis;
use crate::oracle::ModelKind;
use crate::plan::{FaultPlan, PlanAction};
use crate::runner::{Checks, PlanGenerator, Scenario};
use groupview_core::BindingScheme;
use groupview_replication::ReplicationPolicy;
use groupview_sim::{NodeId, SimDuration};
use groupview_workload::WorkloadSpec;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn servers() -> Vec<NodeId> {
    vec![n(1), n(2), n(3)]
}

fn base_workload() -> WorkloadSpec {
    WorkloadSpec::new(vec![], vec![n(4), n(5), n(6)])
        .clients(3)
        .actions_per_client(4)
        .ops_per_action(2)
        .replicas(2)
}

fn base(name: &'static str, policy: ReplicationPolicy) -> Scenario {
    Scenario {
        name,
        policy,
        scheme: BindingScheme::Standard,
        nodes: 7,
        server_nodes: servers(),
        objects: vec![ModelKind::COUNTER; 2],
        workload: base_workload(),
        plan: Box::new(|_| FaultPlan::new()),
        checks: Checks::default(),
    }
}

/// Two rounds of mid-commit store crashes over the three servers. The
/// rotation `(start, period, downtime)` is set per policy, because each
/// policy's actions take their own virtual time; the values were chosen
/// by checking which action each trap lands on at seeds 1–3. Plan
/// offsets are virtual times, so a change to what an action costs moves
/// those landings: check them again after one.
fn store_commit_crashes(policy: ReplicationPolicy) -> PlanGenerator {
    let [start, period, downtime] = match policy {
        ReplicationPolicy::Active => [2_000, 16_000, 12_000],
        ReplicationPolicy::CoordinatorCohort => [2_500, 20_000, 14_000],
        ReplicationPolicy::SingleCopyPassive => [2_000, 20_000, 18_000],
    };
    Box::new(move |seed| {
        nemesis::store_commit_crashes(
            seed,
            &[n(1), n(2), n(3)],
            SimDuration::from_micros(start),
            SimDuration::from_micros(period),
            SimDuration::from_micros(downtime),
            2,
        )
    })
}

/// The canned scenario suite (≥ 8 scenarios, all three policies).
pub fn canned_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 1. Fault-free baseline: everything must commit-or-contend, replay
    //    exactly, and a fault-free run is trivially "masked".
    let mut sc = base("active/fault_free", ReplicationPolicy::Active);
    sc.checks.expect_crash_masked = true;
    scenarios.push(sc);

    // 2. One server crash mid-run, recovered later: active replication
    //    must mask it completely (the crash-masking flagship).
    let mut sc = base("active/masked_server_crash", ReplicationPolicy::Active);
    sc.plan = Box::new(|_| {
        FaultPlan::new()
            .at(SimDuration::from_millis(3), PlanAction::CrashNode(n(2)))
            .at(SimDuration::from_millis(45), PlanAction::RecoverNode(n(2)))
    });
    sc.checks.expect_crash_masked = true;
    scenarios.push(sc);

    // 3. Rolling crashes across the whole server set: at most one replica
    //    down at a time; recovery repeatedly re-Includes and re-Inserts.
    let mut sc = base("active/rolling_crashes", ReplicationPolicy::Active);
    sc.plan = Box::new(|seed| {
        nemesis::rolling_crashes(
            seed,
            &[n(1), n(2), n(3)],
            SimDuration::from_millis(2),
            SimDuration::from_millis(30),
            SimDuration::from_millis(12),
            3,
        )
    });
    scenarios.push(sc);

    // 4. Flapping partition between the client side and one server: missed
    //    deliveries expel the member (virtual synchrony) instead of
    //    corrupting it.
    let mut sc = base("active/flapping_partition", ReplicationPolicy::Active);
    sc.scheme = BindingScheme::NestedTopLevel;
    sc.plan = Box::new(|seed| {
        nemesis::flapping_partition(
            seed,
            &[n(4), n(5), n(6)],
            &[n(2)],
            SimDuration::from_millis(2),
            SimDuration::from_millis(16),
            3,
        )
    });
    scenarios.push(sc);

    // 5. Recovery storm: every server crashes nearly at once, then all
    //    recover in random order — the joint-fixpoint recovery drill.
    let mut sc = base("active/recovery_storm", ReplicationPolicy::Active);
    sc.plan = Box::new(|seed| {
        nemesis::recovery_storm(
            seed,
            &[n(1), n(2), n(3)],
            SimDuration::from_millis(6),
            SimDuration::from_millis(5),
        )
    });
    sc.checks.expect_commits = false; // a storm may blanket the short run
    scenarios.push(sc);

    // 6. Client churn under the use-list-updating scheme: crashed clients
    //    leak use-list entries; sweeps must reclaim every one.
    let mut sc = base("active/client_churn", ReplicationPolicy::Active);
    sc.scheme = BindingScheme::IndependentTopLevel;
    sc.workload = base_workload().clients(4).actions_per_client(4);
    sc.plan = Box::new(|seed| {
        nemesis::client_churn(
            seed,
            4,
            SimDuration::from_millis(2),
            SimDuration::from_millis(25),
            2,
            1,
        )
    });
    scenarios.push(sc);

    // 7. Passivation churn: objects passivate between actions while servers
    //    roll over, exercising activation-from-store under crashes.
    let mut sc = base("active/passivate_rolling", ReplicationPolicy::Active);
    sc.workload = base_workload().passivate_between_actions();
    sc.plan = Box::new(|seed| {
        nemesis::rolling_crashes(
            seed,
            &[n(2), n(3)],
            SimDuration::from_millis(3),
            SimDuration::from_millis(28),
            SimDuration::from_millis(10),
            2,
        )
    });
    scenarios.push(sc);

    // 8. Coordinator-cohort under a lossy window: dropped checkpoints and
    //    RPCs abort actions (failure-caused) but can never corrupt state.
    let mut sc = base("cohort/lossy_window", ReplicationPolicy::CoordinatorCohort);
    sc.plan = Box::new(|seed| {
        nemesis::lossy_window(
            seed,
            SimDuration::from_millis(2),
            SimDuration::from_millis(24),
            0.12,
            3,
        )
    });
    sc.checks.expect_commits = false; // heavy loss can abort a short run
    scenarios.push(sc);

    // 9. Coordinator-cohort with a read-heavy mix and a coordinator crash:
    //    a cohort is elected and the retried ops must not double-apply.
    let mut sc = base(
        "cohort/coordinator_crash",
        ReplicationPolicy::CoordinatorCohort,
    );
    sc.workload = base_workload().read_fraction(0.5);
    sc.plan = Box::new(|_| {
        FaultPlan::new()
            .at(SimDuration::from_millis(4), PlanAction::CrashNode(n(1)))
            .at(SimDuration::from_millis(40), PlanAction::RecoverNode(n(1)))
    });
    scenarios.push(sc);

    // 10. Single-copy passive with a server crash: in-flight actions abort
    //     (attributed to the failure), later activations fail over, and the
    //     recovered store is refreshed before re-Inclusion.
    let mut sc = base(
        "single_copy/crash_failover",
        ReplicationPolicy::SingleCopyPassive,
    );
    sc.plan = Box::new(|_| {
        FaultPlan::new()
            .at(SimDuration::from_millis(3), PlanAction::CrashNode(n(1)))
            .at(SimDuration::from_millis(40), PlanAction::RecoverNode(n(1)))
    });
    scenarios.push(sc);

    // 11. Single-copy passive under client-server partitions: binds and
    //     invokes fail fast, heal restores service, nothing goes stale.
    let mut sc = base(
        "single_copy/flapping_partition",
        ReplicationPolicy::SingleCopyPassive,
    );
    sc.plan = Box::new(|seed| {
        nemesis::flapping_partition(
            seed,
            &[n(4), n(5), n(6)],
            &[n(1), n(2)],
            SimDuration::from_millis(3),
            SimDuration::from_millis(18),
            2,
        )
    });
    sc.checks.expect_commits = false;
    scenarios.push(sc);

    // 12–14. The paper's Figure 1 window, one scenario per policy: servers
    // are armed to crash after a seeded number of send *attempts*, so the
    // crash lands mid-exchange (mid-multicast, mid-reply) — under active
    // replication mid-fan-out divergence must be masked; under
    // coordinator-cohort the cohorts must take over without replaying or
    // losing updates; under single-copy the affected actions abort but
    // must never corrupt state. Each drives a KvMap *and* an Account (plus
    // a counter), so the oracle's per-operation-type checks — previous
    // values on Put, REFUSED overdrafts — all run in the crash window.
    //
    // Long armed windows (most of each period) and small budgets so the
    // scripted crash reliably fires inside a message exchange. The active
    // rotation `(start, period, downtime)` is tighter because its actions
    // are shorter; like the store-crash rotations below, it was chosen by
    // checking which action each crash lands on at seeds 1–3.
    for (name, policy, [start, period, downtime]) in [
        (
            "active/send_window_crashes",
            ReplicationPolicy::Active,
            [500, 21_000, 17_000],
        ),
        (
            "cohort/send_window_crashes",
            ReplicationPolicy::CoordinatorCohort,
            [2_000, 24_000, 20_000],
        ),
        (
            "single_copy/send_window_crashes",
            ReplicationPolicy::SingleCopyPassive,
            [2_000, 24_000, 20_000],
        ),
    ] {
        let mut sc = base(name, policy);
        sc.objects = vec![
            ModelKind::KvMap,
            ModelKind::Account { initial: 10 },
            ModelKind::COUNTER,
        ];
        sc.plan = Box::new(move |seed| {
            nemesis::send_window_crashes(
                seed,
                &[n(1), n(2), n(3)],
                SimDuration::from_micros(start),
                SimDuration::from_micros(period),
                SimDuration::from_micros(downtime),
                3,
                3,
            )
        });
        sc.checks.expect_commits = false; // an armed coordinator can blanket a short run
        scenarios.push(sc);
    }

    // 15–17. The §4 two-phase-commit window, one scenario per policy:
    // store nodes are armed to crash right after acknowledging a prepare,
    // so the crash lands *between* the two commit phases. The committing
    // action's decision stands (the coordinator heard the ack), the store
    // is left in-doubt, and the oracle then demands that recovery resolved
    // every in-doubt transaction (I1/I2: all stores byte-identical and
    // holding the replayed model's state, St back to full strength). Under
    // active replication the co-hosted replica crash must also be fully
    // masked — the abort taxonomy may show contention, never failures.
    for (name, policy) in [
        ("active/store_crash_in_commit", ReplicationPolicy::Active),
        (
            "cohort/store_crash_in_commit",
            ReplicationPolicy::CoordinatorCohort,
        ),
        (
            "single_copy/store_crash_in_commit",
            ReplicationPolicy::SingleCopyPassive,
        ),
    ] {
        let mut sc = base(name, policy);
        sc.plan = store_commit_crashes(policy);
        if policy == ReplicationPolicy::Active {
            sc.checks.expect_crash_masked = true;
        } else {
            // A mid-commit store crash can blanket a short run's window.
            sc.checks.expect_commits = false;
        }
        scenarios.push(sc);
    }

    // 18–20. Cross-object transfers under mid-2PC store crashes, one
    // scenario per policy: every mutating action is a two-object balanced
    // transfer built through the typed `Tx` surface (withdraw one account,
    // deposit another under the same action), committed one machine step
    // later so the armed store crash lands in the invoke→commit window.
    // The oracle replays each committed transaction atomically and
    // additionally checks *conservation*: the sum of all account balances
    // equals the initial total at every commit point — a lost deposit leg
    // or a half-committed transfer (one object installed, the other not)
    // breaks the sum immediately. In-doubt store states left by the
    // crashes must resolve at recovery to the same atomic outcome.
    for (name, policy) in [
        ("active/transfer_store_crash", ReplicationPolicy::Active),
        (
            "cohort/transfer_store_crash",
            ReplicationPolicy::CoordinatorCohort,
        ),
        (
            "single_copy/transfer_store_crash",
            ReplicationPolicy::SingleCopyPassive,
        ),
    ] {
        let mut sc = base(name, policy);
        sc.objects = vec![ModelKind::Account { initial: 50 }; 4];
        sc.workload = base_workload().transfers();
        sc.plan = store_commit_crashes(policy);
        sc.checks.conservation = true;
        // A mid-commit store crash can blanket a short run's window.
        sc.checks.expect_commits = false;
        scenarios.push(sc);
    }

    // 21. Batched invocations under rolling crashes: ops travel as
    // multi-op wire frames (one lock, one undo snapshot, one write-back
    // per batch), the history records them as ordered per-op events, and
    // the oracle must replay the batched commits exactly like unbatched
    // ones.
    let mut sc = base("active/batched_rolling", ReplicationPolicy::Active);
    sc.workload = base_workload().ops_per_action(8).ops_per_batch(4);
    sc.plan = Box::new(|seed| {
        nemesis::rolling_crashes(
            seed,
            &[n(1), n(2), n(3)],
            SimDuration::from_millis(2),
            SimDuration::from_millis(30),
            SimDuration::from_millis(12),
            3,
        )
    });
    scenarios.push(sc);

    // 22. Batched invocations through coordinator-cohort with a
    // coordinator crash: a batch retried after failover must dedup as one
    // at-most-once unit — no partial re-execution of an already-applied
    // batch. Mixed read fraction also drives the read-only batch path.
    let mut sc = base(
        "cohort/batched_coordinator_crash",
        ReplicationPolicy::CoordinatorCohort,
    );
    sc.workload = base_workload()
        .ops_per_action(8)
        .ops_per_batch(4)
        .read_fraction(0.25);
    sc.plan = Box::new(|_| {
        FaultPlan::new()
            .at(SimDuration::from_millis(4), PlanAction::CrashNode(n(1)))
            .at(SimDuration::from_millis(40), PlanAction::RecoverNode(n(1)))
    });
    scenarios.push(sc);

    // 23–25. Elastic membership ramp, one scenario per policy: the world
    // grows by two fresh nodes mid-run, original server 2 drains — every
    // replica it hosts migrates transactionally onto the survivors and
    // newcomers — and a stats-driven rebalance then spreads placement,
    // all under a lossy network window. The oracle still demands
    // sequential-replay equivalence and the paper's invariants at full
    // strength after quiesce: the committed history must survive every
    // move, and a half-migrated replica (repointed directory without
    // state, or state without directory) would fail I1/I2 immediately.
    for (name, policy) in [
        ("active/elastic_ramp", ReplicationPolicy::Active),
        ("cohort/elastic_ramp", ReplicationPolicy::CoordinatorCohort),
        (
            "single_copy/elastic_ramp",
            ReplicationPolicy::SingleCopyPassive,
        ),
    ] {
        let mut sc = base(name, policy);
        sc.workload = base_workload().actions_per_client(5);
        sc.plan = Box::new(|seed| {
            nemesis::elastic_ramp(
                seed,
                2,
                n(2),
                SimDuration::from_millis(2),
                SimDuration::from_millis(30),
            )
            .merge(nemesis::lossy_window(
                seed,
                SimDuration::from_millis(4),
                SimDuration::from_millis(16),
                0.08,
                2,
            ))
        });
        // Loss plus a draining server can blanket a short run's window.
        sc.checks.expect_commits = false;
        scenarios.push(sc);
    }

    // 26. Rebalance storm: a fresh node joins at once, then repeated
    // stats-driven rebalances race server crashes and recoveries — every
    // migration transaction keeps running into dead state sources,
    // shrunken target sets, and freshly refreshed stores, and each move
    // must still commit atomically or abort without a trace.
    let mut sc = base("active/rebalance_storm", ReplicationPolicy::Active);
    sc.plan = Box::new(|seed| {
        FaultPlan::new()
            .at(SimDuration::from_millis(1), PlanAction::AddNode)
            .merge(nemesis::rebalance_storm(
                seed,
                &[n(2), n(3)],
                SimDuration::from_millis(3),
                SimDuration::from_millis(12),
                3,
            ))
    });
    sc.checks.expect_commits = false; // crash-heavy storms can blanket a short run
    scenarios.push(sc);

    // 27–28. Scenario 8's loss over a window twice as long, for the other
    // two policies: a lost phase-2 commit leaves a live store in doubt
    // while later actions commit the same objects there, and recovery
    // must then resolve the old intent without putting its older state
    // back (I2), nor copy that store's stale state in a §4.2 refresh.
    for (name, policy) in [
        ("active/lossy_window", ReplicationPolicy::Active),
        (
            "single_copy/lossy_window",
            ReplicationPolicy::SingleCopyPassive,
        ),
    ] {
        let mut sc = base(name, policy);
        sc.plan = Box::new(|seed| {
            nemesis::lossy_window(
                seed,
                SimDuration::from_millis(2),
                SimDuration::from_millis(48),
                0.12,
                3,
            )
        });
        sc.checks.expect_commits = false; // heavy loss can abort a short run
        scenarios.push(sc);
    }

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_policies_and_is_large_enough() {
        let scenarios = canned_scenarios();
        assert!(
            scenarios.len() >= 8,
            "the issue demands ≥8 canned scenarios"
        );
        for policy in ReplicationPolicy::ALL {
            assert!(
                scenarios.iter().any(|s| s.policy == policy),
                "no scenario covers {policy:?}"
            );
            // Every policy gets a mid-2PC store-crash scenario.
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.policy == policy && s.name.ends_with("store_crash_in_commit")),
                "no store-crash scenario for {policy:?}"
            );
            // Every policy gets a Figure-1 send-window scenario driving a
            // KvMap and an Account alongside a counter.
            let sw = scenarios
                .iter()
                .find(|s| s.policy == policy && s.name.ends_with("send_window_crashes"))
                .unwrap_or_else(|| panic!("no send-window scenario for {policy:?}"));
            assert!(sw.objects.contains(&ModelKind::KvMap));
            assert!(sw
                .objects
                .iter()
                .any(|k| matches!(k, ModelKind::Account { .. })));
            // Every policy gets a typed-Tx transfer scenario over Accounts
            // with the conservation check armed.
            let tr = scenarios
                .iter()
                .find(|s| s.policy == policy && s.name.ends_with("transfer_store_crash"))
                .unwrap_or_else(|| panic!("no transfer scenario for {policy:?}"));
            assert!(tr.workload.transfers);
            assert!(tr.checks.conservation);
            assert!(tr
                .objects
                .iter()
                .all(|k| matches!(k, ModelKind::Account { .. })));
        }
        for policy in ReplicationPolicy::ALL {
            // Every policy gets an elastic-membership ramp (grow, drain,
            // rebalance) so transactional migration runs under each
            // replication discipline.
            let el = scenarios
                .iter()
                .find(|s| s.policy == policy && s.name.ends_with("elastic_ramp"))
                .unwrap_or_else(|| panic!("no elastic-ramp scenario for {policy:?}"));
            let plan = (el.plan)(1);
            let has = |want: fn(&PlanAction) -> bool| plan.events().iter().any(|e| want(&e.action));
            assert!(has(|a| *a == PlanAction::AddNode));
            assert!(has(|a| matches!(a, PlanAction::DrainNode(_))));
            assert!(has(|a| *a == PlanAction::Rebalance));
        }
        // Plus a rebalance storm racing crashes against migrations.
        assert!(
            scenarios.iter().any(|s| {
                s.name.ends_with("rebalance_storm")
                    && (s.plan)(1)
                        .events()
                        .iter()
                        .any(|e| matches!(e.action, PlanAction::CrashNode(_)))
            }),
            "no rebalance-storm scenario"
        );
        // At least one scenario drives batched invocations under a
        // nemesis, so the oracle verifies batched histories.
        assert!(
            scenarios
                .iter()
                .any(|s| s.workload.ops_per_batch > 1 && !(s.plan)(1).is_empty()),
            "no batched-workload scenario with a nemesis"
        );
        // Names are unique (reports would be ambiguous otherwise).
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn every_canned_plan_is_well_formed_across_seeds() {
        for scenario in canned_scenarios() {
            for seed in [1, 2, 3, 99, 1234] {
                let plan = (scenario.plan)(seed);
                plan.validate().unwrap_or_else(|e| {
                    panic!("{} seed {seed}: malformed plan: {e}", scenario.name)
                });
            }
        }
    }
}
