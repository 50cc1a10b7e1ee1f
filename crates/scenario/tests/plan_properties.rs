//! Property tests for the scenario engine's plan layer:
//!
//! every nemesis-generated `FaultPlan` is well-formed — recover only after
//! crash, heal only after partition, times monotone — across the whole
//! parameter space.

use groupview_scenario::{
    client_churn, flapping_partition, lossy_window, recovery_storm, rolling_crashes,
    send_window_crashes, PlanAction,
};
use groupview_sim::{NodeId, SimDuration};
use proptest::prelude::*;

fn nodes(k: usize) -> Vec<NodeId> {
    (1..=k as u32).map(NodeId::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn rolling_crashes_always_well_formed(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        start in 0u64..10_000,
        period in 2u64..50_000,
        rounds in 0usize..12,
    ) {
        let downtime = 1 + period / 2;
        let plan = rolling_crashes(
            seed,
            &nodes(k),
            SimDuration::from_micros(start),
            SimDuration::from_micros(period + 2),
            SimDuration::from_micros(downtime),
            rounds,
        );
        plan.validate().expect("rolling_crashes must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
        prop_assert_eq!(plan.len(), rounds * 2);
    }

    #[test]
    fn flapping_partition_always_well_formed(
        seed in 0u64..1_000_000,
        a in 1usize..4,
        b in 1usize..4,
        start in 0u64..10_000,
        period in 4u64..50_000,
        flaps in 0usize..10,
    ) {
        let side_a = nodes(a);
        let side_b: Vec<NodeId> = (10..10 + b as u32).map(NodeId::new).collect();
        let plan = flapping_partition(
            seed,
            &side_a,
            &side_b,
            SimDuration::from_micros(start),
            SimDuration::from_micros(period),
            flaps,
        );
        plan.validate().expect("flapping_partition must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
    }

    #[test]
    fn lossy_window_always_well_formed_and_ends_dry(
        seed in 0u64..1_000_000,
        start in 0u64..10_000,
        window in 2u64..100_000,
        peak_permille in 0u64..=1000,
        steps in 1usize..8,
    ) {
        let plan = lossy_window(
            seed,
            SimDuration::from_micros(start),
            SimDuration::from_micros(window),
            peak_permille as f64 / 1000.0,
            steps,
        );
        plan.validate().expect("lossy_window must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
        prop_assert!(matches!(
            plan.events().last().unwrap().action,
            PlanAction::SetDropProbability(p) if p == 0.0
        ));
    }

    #[test]
    fn client_churn_always_well_formed(
        seed in 0u64..1_000_000,
        clients in 1usize..8,
        kills_frac in 0usize..=8,
        start in 0u64..10_000,
        window in 1u64..60_000,
        sweep_every in 1usize..4,
    ) {
        let kills = kills_frac.min(clients);
        let plan = client_churn(
            seed,
            clients,
            SimDuration::from_micros(start),
            SimDuration::from_micros(window),
            kills,
            sweep_every,
        );
        plan.validate().expect("client_churn must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
        // Victims are always distinct.
        let mut victims: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|e| match e.action {
                PlanAction::CrashClient(i) => Some(i),
                _ => None,
            })
            .collect();
        victims.sort_unstable();
        let before = victims.len();
        victims.dedup();
        prop_assert_eq!(victims.len(), before);
        prop_assert_eq!(before, kills);
    }

    #[test]
    fn send_window_crashes_always_well_formed(
        seed in 0u64..1_000_000,
        k in 1usize..5,
        start in 0u64..10_000,
        period in 2u64..50_000,
        max_budget in 1u32..8,
        rounds in 0usize..12,
    ) {
        let downtime = 1 + period / 2;
        let plan = send_window_crashes(
            seed,
            &nodes(k),
            SimDuration::from_micros(start),
            SimDuration::from_micros(period + 2),
            SimDuration::from_micros(downtime),
            max_budget,
            rounds,
        );
        plan.validate().expect("send_window_crashes must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
        prop_assert_eq!(plan.len(), rounds * 2, "an arm and a recover per round");
        // Every armed budget is drawn from 1..=max_budget, and every arm is
        // followed by a recover of the same node (CrashAfterSends
        // well-formedness: never a zero budget, never armed-while-down).
        for ev in plan.events() {
            if let PlanAction::CrashAfterSends(_, budget) = ev.action {
                prop_assert!((1..=max_budget).contains(&budget));
            }
        }
        let arms = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, PlanAction::CrashAfterSends(..)))
            .count();
        let recovers = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, PlanAction::RecoverNode(_)))
            .count();
        prop_assert_eq!(arms, recovers);
    }

    #[test]
    fn recovery_storm_always_well_formed(
        seed in 0u64..1_000_000,
        k in 1usize..6,
        at in 0u64..20_000,
        spread in 0u64..30_000,
    ) {
        let plan = recovery_storm(
            seed,
            &nodes(k),
            SimDuration::from_micros(at),
            SimDuration::from_micros(spread),
        );
        plan.validate().expect("recovery_storm must be well-formed");
        prop_assert!(plan.is_time_sorted(), "nemesis offsets must be monotone");
        // Everyone who crashes recovers.
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, PlanAction::CrashNode(_)))
            .count();
        let recovers = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, PlanAction::RecoverNode(_)))
            .count();
        prop_assert_eq!(crashes, k);
        prop_assert_eq!(recovers, k);
    }

    /// Composing nemeses over disjoint resources is always executable:
    /// `merge` breaks vector-order monotonicity, but firing-order
    /// validation still accepts the combined schedule.
    #[test]
    fn merged_nemeses_always_validate(
        seed in 0u64..1_000_000,
        crash_start in 0u64..20_000,
        loss_start in 0u64..20_000,
        rounds in 1usize..6,
        steps in 1usize..5,
    ) {
        let crashes = rolling_crashes(
            seed,
            &nodes(2),
            SimDuration::from_micros(crash_start),
            SimDuration::from_micros(10_000),
            SimDuration::from_micros(4_000),
            rounds,
        );
        let loss = lossy_window(
            seed,
            SimDuration::from_micros(loss_start),
            SimDuration::from_micros(30_000),
            0.2,
            steps,
        );
        crashes
            .merge(loss)
            .validate()
            .expect("merged nemeses must stay executable");
    }
}
