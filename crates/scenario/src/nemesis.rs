//! Seeded nemeses: randomized [`FaultPlan`] generators.
//!
//! Each generator maps a seed to one concrete, **well-formed** fault
//! schedule from a scenario family — same seed, same plan — so a single
//! canned scenario yields unbounded distinct schedules across a seed
//! matrix. Well-formedness (crash/recover balanced, heal only after
//! partition, times monotone) is guaranteed by construction and
//! property-tested in `tests/plan_properties.rs`.

use crate::plan::{FaultPlan, PlanAction};
use groupview_sim::{NodeId, Rng, SimDuration};

fn rng_for(seed: u64, stream: u64) -> Rng {
    // Distinct streams per nemesis family so composing two nemeses with the
    // same scenario seed still yields independent schedules.
    Rng::new(seed ^ (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Uniform jitter in `[0, bound)` microseconds (0 when `bound` is 0).
fn jitter(rng: &mut Rng, bound: u64) -> u64 {
    if bound == 0 {
        0
    } else {
        rng.range(0..bound)
    }
}

/// Crashes the given nodes one at a time in rotation: node `k` goes down
/// roughly `start + k·period` after the run begins (with jitter) and
/// recovers `downtime` later,
/// so at most one node of the set is ever down.
pub fn rolling_crashes(
    seed: u64,
    nodes: &[NodeId],
    start: SimDuration,
    period: SimDuration,
    downtime: SimDuration,
    rounds: usize,
) -> FaultPlan {
    assert!(!nodes.is_empty(), "rolling_crashes needs nodes");
    assert!(
        downtime < period,
        "downtime must fit inside the rotation period"
    );
    let mut rng = rng_for(seed, 1);
    let mut plan = FaultPlan::new();
    let slack = period.as_micros() - downtime.as_micros();
    let mut t = start.as_micros();
    for round in 0..rounds {
        let node = nodes[round % nodes.len()];
        let down_at = t + jitter(&mut rng, slack / 2);
        let up_at = down_at + downtime.as_micros();
        plan = plan
            .at_micros(down_at, PlanAction::CrashNode(node))
            .at_micros(up_at, PlanAction::RecoverNode(node));
        t += period.as_micros();
    }
    plan
}

/// Repeatedly splits the world into `side_a` vs `side_b` and heals it: each
/// flap blocks all cross-side traffic for roughly half a period.
pub fn flapping_partition(
    seed: u64,
    side_a: &[NodeId],
    side_b: &[NodeId],
    start: SimDuration,
    period: SimDuration,
    flaps: usize,
) -> FaultPlan {
    assert!(
        !side_a.is_empty() && !side_b.is_empty(),
        "flapping_partition needs two non-empty sides"
    );
    let mut rng = rng_for(seed, 2);
    let mut plan = FaultPlan::new();
    let half = period.as_micros() / 2;
    let mut t = start.as_micros();
    for _ in 0..flaps {
        let cut_at = t + jitter(&mut rng, half / 2);
        let heal_at = cut_at + half / 2 + jitter(&mut rng, half / 2);
        plan = plan
            .at_micros(
                cut_at,
                PlanAction::PartitionGroups(side_a.to_vec(), side_b.to_vec()),
            )
            .at_micros(heal_at, PlanAction::HealAll);
        t += period.as_micros();
    }
    plan
}

/// Ramps the network's message-loss probability up to `peak` and back to
/// zero across `window`, in `steps` increments per side. Always ends with
/// the loss probability restored to 0.
pub fn lossy_window(
    seed: u64,
    start: SimDuration,
    window: SimDuration,
    peak: f64,
    steps: usize,
) -> FaultPlan {
    assert!((0.0..=1.0).contains(&peak), "peak must be in [0,1]");
    assert!(steps > 0, "lossy_window needs at least one step");
    let mut rng = rng_for(seed, 3);
    let mut plan = FaultPlan::new();
    let total_steps = 2 * steps; // up then down
    let stride = window.as_micros() / total_steps as u64;
    let mut t = start.as_micros();
    for i in 1..=steps {
        let p = peak * i as f64 / steps as f64;
        plan = plan.at_micros(
            t + jitter(&mut rng, stride / 2),
            PlanAction::SetDropProbability(p),
        );
        t += stride;
    }
    for i in (0..steps).rev() {
        let p = peak * i as f64 / steps as f64;
        plan = plan.at_micros(
            t + jitter(&mut rng, stride / 2),
            PlanAction::SetDropProbability(p),
        );
        t += stride;
    }
    plan
}

/// The paper's Figure 1 window, seeded: arms a
/// [`PlanAction::CrashAfterSends`] fault point on the given nodes in
/// rotation — node `k` is armed roughly `start + k·period` into the run
/// with a send budget drawn from `1..=max_budget`, and recovered (or
/// disarmed, if the budget never fired) `downtime` later. Because the
/// budget ticks on send *attempts*, the crash lands inside whatever
/// message exchange the node is in the middle of — a multicast fan-out, a
/// reply spray — even on a lossy network, which is exactly the
/// "B fails during delivery of the reply to GA" scenario.
pub fn send_window_crashes(
    seed: u64,
    nodes: &[NodeId],
    start: SimDuration,
    period: SimDuration,
    downtime: SimDuration,
    max_budget: u32,
    rounds: usize,
) -> FaultPlan {
    assert!(!nodes.is_empty(), "send_window_crashes needs nodes");
    assert!(max_budget > 0, "send budgets are drawn from 1..=max_budget");
    assert!(
        downtime < period,
        "downtime must fit inside the rotation period"
    );
    let mut rng = rng_for(seed, 6);
    let mut plan = FaultPlan::new();
    let slack = period.as_micros() - downtime.as_micros();
    let mut t = start.as_micros();
    for round in 0..rounds {
        let node = nodes[round % nodes.len()];
        let budget = 1 + rng.range(0..max_budget as u64) as u32;
        let arm_at = t + jitter(&mut rng, slack / 2);
        let recover_at = arm_at + downtime.as_micros();
        plan = plan
            .at_micros(arm_at, PlanAction::CrashAfterSends(node, budget))
            .at_micros(recover_at, PlanAction::RecoverNode(node));
        t += period.as_micros();
    }
    plan
}

/// The §4 two-phase-commit window, seeded: arms a
/// [`PlanAction::CrashStoreInCommit`] trap on the given store nodes in
/// rotation — node `k` is armed roughly `start + k·period` into the run and
/// recovered (or disarmed, if no prepare ever reached it) `downtime` later.
/// Because the trap fires on the store's own prepare acknowledgement, the
/// crash lands precisely *between* the prepare and commit phases of
/// whatever client action is writing back at that moment, leaving the store
/// with an in-doubt transaction that only the §4 recovery protocol (via the
/// coordinator's decision record) can resolve.
pub(crate) fn store_commit_crashes(
    seed: u64,
    nodes: &[NodeId],
    start: SimDuration,
    period: SimDuration,
    downtime: SimDuration,
    rounds: usize,
) -> FaultPlan {
    assert!(!nodes.is_empty(), "store_commit_crashes needs nodes");
    assert!(
        downtime < period,
        "downtime must fit inside the rotation period"
    );
    let mut rng = rng_for(seed, 7);
    let mut plan = FaultPlan::new();
    let slack = period.as_micros() - downtime.as_micros();
    let mut t = start.as_micros();
    for round in 0..rounds {
        let node = nodes[round % nodes.len()];
        let arm_at = t + jitter(&mut rng, slack / 2);
        let recover_at = arm_at + downtime.as_micros();
        plan = plan
            .at_micros(arm_at, PlanAction::CrashStoreInCommit(node))
            .at_micros(recover_at, PlanAction::RecoverNode(node));
        t += period.as_micros();
    }
    plan
}

/// Crashes `kills` distinct clients at random times within the window and
/// schedules periodic cleanup sweeps (plus one final sweep after the last
/// kill) so leaked use-list entries are reclaimed.
pub fn client_churn(
    seed: u64,
    clients: usize,
    start: SimDuration,
    window: SimDuration,
    kills: usize,
    sweep_every: usize,
) -> FaultPlan {
    assert!(kills <= clients, "cannot kill more clients than exist");
    assert!(sweep_every > 0, "sweep_every must be positive");
    let mut rng = rng_for(seed, 4);
    // Pick `kills` distinct victims by partial Fisher–Yates.
    let mut pool: Vec<usize> = (0..clients).collect();
    for i in 0..kills.min(clients.saturating_sub(1)) {
        let j = rng.range(i as u64..clients as u64) as usize;
        pool.swap(i, j);
    }
    let mut kill_times: Vec<u64> = (0..kills)
        .map(|_| start.as_micros() + jitter(&mut rng, window.as_micros().max(1)))
        .collect();
    kill_times.sort_unstable();
    // Strictly spaced so an interleaved sweep at `kill + 1` stays monotone.
    for i in 1..kill_times.len() {
        if kill_times[i] < kill_times[i - 1] + 2 {
            kill_times[i] = kill_times[i - 1] + 2;
        }
    }
    let mut plan = FaultPlan::new();
    let mut since_sweep = 0;
    let mut last = start.as_micros();
    for (k, &at) in kill_times.iter().enumerate() {
        plan = plan.at_micros(at, PlanAction::CrashClient(pool[k]));
        last = at;
        since_sweep += 1;
        if since_sweep == sweep_every {
            last += 1;
            plan = plan.at_micros(last, PlanAction::CleanupSweep);
            since_sweep = 0;
        }
    }
    plan.at_micros(last + 1, PlanAction::CleanupSweep)
}

/// Crashes *every* given node within `spread` of `at` (in random order),
/// then recovers them all — again in random order — within another
/// `spread`. The §4 recovery protocols then race each other: the storm the
/// paper's joint-fixpoint recovery must survive.
pub fn recovery_storm(
    seed: u64,
    nodes: &[NodeId],
    at: SimDuration,
    spread: SimDuration,
) -> FaultPlan {
    assert!(!nodes.is_empty(), "recovery_storm needs nodes");
    let mut rng = rng_for(seed, 5);
    let mut order: Vec<NodeId> = nodes.to_vec();
    for i in (1..order.len()).rev() {
        let j = rng.range_inclusive(0..=i as u64) as usize;
        order.swap(i, j);
    }
    let spread_us = spread.as_micros().max(1);
    let mut crash_times: Vec<u64> = order
        .iter()
        .map(|_| at.as_micros() + jitter(&mut rng, spread_us))
        .collect();
    crash_times.sort_unstable();
    let mut plan = FaultPlan::new();
    for (node, t) in order.iter().zip(&crash_times) {
        plan = plan.at_micros(*t, PlanAction::CrashNode(*node));
    }
    let recover_from = at.as_micros() + spread_us;
    let mut recover_times: Vec<u64> = order
        .iter()
        .map(|_| recover_from + jitter(&mut rng, spread_us))
        .collect();
    recover_times.sort_unstable();
    // Recover in a *different* shuffle than the crash order.
    for i in (1..order.len()).rev() {
        let j = rng.range_inclusive(0..=i as u64) as usize;
        order.swap(i, j);
    }
    for (node, t) in order.iter().zip(&recover_times) {
        plan = plan.at_micros(*t, PlanAction::RecoverNode(*node));
    }
    plan
}

/// Elastic-membership ramp: grows the world by `adds` fresh nodes early in
/// the window, drains `drain` mid-window — transactionally migrating every
/// replica it hosts onto the survivors and newcomers — and rebalances
/// placement near the end, once the drained replicas have landed.
/// Membership actions carry no well-formedness constraints (an add always
/// succeeds; a drain or rebalance against a busy or degraded world defers
/// and retries), so the seed only jitters *when* each step lands.
pub(crate) fn elastic_ramp(
    seed: u64,
    adds: usize,
    drain: NodeId,
    start: SimDuration,
    window: SimDuration,
) -> FaultPlan {
    assert!(
        adds > 0,
        "elastic_ramp grows the world by at least one node"
    );
    let mut rng = rng_for(seed, 8);
    let w = window.as_micros().max(8 * (adds as u64 + 2));
    let stride = w / (2 * adds as u64);
    let mut plan = FaultPlan::new();
    let mut t = start.as_micros();
    for _ in 0..adds {
        t += 1 + jitter(&mut rng, stride.max(2) - 1);
        plan = plan.at_micros(t, PlanAction::AddNode);
    }
    let drain_at = (start.as_micros() + w / 2 + jitter(&mut rng, w / 8)).max(t + 1);
    let rebalance_at = drain_at + w / 4 + jitter(&mut rng, w / 8);
    plan.at_micros(drain_at, PlanAction::DrainNode(drain))
        .at_micros(rebalance_at, PlanAction::Rebalance)
}

/// Rebalance storm: repeated placement rebalances racing node crashes.
/// Round `k` crashes one of `nodes` (seeded choice), rebalances while it
/// is down, recovers it, and rebalances again once it is back — so
/// migration transactions keep running into dead state sources, shrunken
/// target sets, and freshly refreshed stores, and every move must still
/// commit atomically or abort without a trace.
pub(crate) fn rebalance_storm(
    seed: u64,
    nodes: &[NodeId],
    start: SimDuration,
    period: SimDuration,
    rounds: usize,
) -> FaultPlan {
    assert!(!nodes.is_empty(), "rebalance_storm needs crash candidates");
    let mut rng = rng_for(seed, 9);
    let mut plan = FaultPlan::new();
    // Quarter-phase slots with jitter ≤ one slot keep each round's
    // crash → rebalance → recover → rebalance strictly ordered and the
    // recover strictly before the next round's crash.
    let p = period.as_micros().max(16);
    let q = p / 8;
    let mut t = start.as_micros();
    for _ in 0..rounds {
        let node = nodes[rng.range(0..nodes.len() as u64) as usize];
        let crash_at = t + jitter(&mut rng, q);
        let mid_at = crash_at + 1 + q + jitter(&mut rng, q);
        let recover_at = mid_at + 1 + q + jitter(&mut rng, q);
        let late_at = recover_at + 1 + q + jitter(&mut rng, q);
        plan = plan
            .at_micros(crash_at, PlanAction::CrashNode(node))
            .at_micros(mid_at, PlanAction::Rebalance)
            .at_micros(recover_at, PlanAction::RecoverNode(node))
            .at_micros(late_at, PlanAction::Rebalance);
        t += p;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn trio() -> Vec<NodeId> {
        vec![n(1), n(2), n(3)]
    }

    #[test]
    fn rolling_crashes_are_balanced_and_deterministic() {
        let mk = |seed| {
            rolling_crashes(
                seed,
                &trio(),
                SimDuration::from_millis(2),
                SimDuration::from_millis(20),
                SimDuration::from_millis(8),
                5,
            )
        };
        let plan = mk(7);
        assert_eq!(plan.len(), 10, "a crash and a recover per round");
        plan.validate().expect("well-formed");
        assert_eq!(plan, mk(7), "same seed, same plan");
        assert_ne!(plan, mk(8), "different seed, different schedule");
    }

    #[test]
    fn flapping_partition_always_heals() {
        let plan = flapping_partition(
            3,
            &[n(4), n(5)],
            &[n(2)],
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
            4,
        );
        plan.validate().expect("well-formed");
        assert!(matches!(
            plan.events().last().unwrap().action,
            PlanAction::HealAll
        ));
    }

    #[test]
    fn lossy_window_ends_dry() {
        let plan = lossy_window(
            9,
            SimDuration::from_millis(1),
            SimDuration::from_millis(12),
            0.4,
            3,
        );
        plan.validate().expect("well-formed");
        let last = plan.events().last().unwrap();
        assert_eq!(last.action, PlanAction::SetDropProbability(0.0));
        // Ramp reaches the peak (within float error) exactly once.
        let peak_hits = plan
            .events()
            .iter()
            .filter(
                |e| matches!(e.action, PlanAction::SetDropProbability(p) if (p - 0.4).abs() < 1e-12),
            )
            .count();
        assert_eq!(peak_hits, 1);
    }

    #[test]
    fn client_churn_kills_distinct_clients_and_sweeps() {
        let plan = client_churn(
            11,
            6,
            SimDuration::from_millis(1),
            SimDuration::from_millis(30),
            4,
            2,
        );
        plan.validate().expect("well-formed");
        let mut victims: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|e| match e.action {
                PlanAction::CrashClient(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(victims.len(), 4);
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 4, "victims are distinct");
        let sweeps = plan
            .events()
            .iter()
            .filter(|e| e.action == PlanAction::CleanupSweep)
            .count();
        assert_eq!(sweeps, 3, "one per two kills plus the final sweep");
    }

    #[test]
    fn send_window_crashes_arm_and_recover_in_rotation() {
        let mk = |seed| {
            send_window_crashes(
                seed,
                &trio(),
                SimDuration::from_millis(2),
                SimDuration::from_millis(20),
                SimDuration::from_millis(8),
                4,
                5,
            )
        };
        let plan = mk(7);
        assert_eq!(plan.len(), 10, "an arm and a recover per round");
        plan.validate().expect("well-formed");
        assert!(plan.is_time_sorted());
        assert_eq!(plan, mk(7), "same seed, same plan");
        assert_ne!(plan, mk(8), "different seed, different schedule");
        for ev in plan.events() {
            if let PlanAction::CrashAfterSends(_, k) = ev.action {
                assert!((1..=4).contains(&k), "budget {k} out of range");
            }
        }
    }

    #[test]
    fn store_commit_crashes_arm_and_recover_in_rotation() {
        let mk = |seed| {
            store_commit_crashes(
                seed,
                &trio(),
                SimDuration::from_millis(2),
                SimDuration::from_millis(20),
                SimDuration::from_millis(8),
                4,
            )
        };
        let plan = mk(3);
        assert_eq!(plan.len(), 8, "an arm and a recover per round");
        plan.validate().expect("well-formed");
        assert!(plan.is_time_sorted());
        assert_eq!(plan, mk(3), "same seed, same plan");
        assert_ne!(plan, mk(4), "different seed, different schedule");
        assert!(plan
            .events()
            .iter()
            .any(|e| matches!(e.action, PlanAction::CrashStoreInCommit(_))));
    }

    #[test]
    fn elastic_ramp_adds_then_drains_then_rebalances() {
        let mk = |seed| {
            elastic_ramp(
                seed,
                2,
                n(2),
                SimDuration::from_millis(2),
                SimDuration::from_millis(30),
            )
        };
        let plan = mk(7);
        plan.validate().expect("well-formed");
        assert!(plan.is_time_sorted());
        assert_eq!(plan, mk(7), "same seed, same plan");
        assert_ne!(plan, mk(8), "different seed, different schedule");
        let kinds: Vec<&PlanAction> = plan.events().iter().map(|e| &e.action).collect();
        assert_eq!(
            kinds,
            vec![
                &PlanAction::AddNode,
                &PlanAction::AddNode,
                &PlanAction::DrainNode(n(2)),
                &PlanAction::Rebalance,
            ],
            "grow, then drain, then rebalance"
        );
    }

    #[test]
    fn rebalance_storm_keeps_crashes_balanced_around_rebalances() {
        let mk = |seed| {
            rebalance_storm(
                seed,
                &trio(),
                SimDuration::from_millis(2),
                SimDuration::from_millis(10),
                4,
            )
        };
        let plan = mk(5);
        plan.validate().expect("well-formed");
        assert!(plan.is_time_sorted());
        assert_eq!(plan.len(), 16, "four events per round");
        assert_eq!(plan, mk(5), "same seed, same plan");
        assert_ne!(plan, mk(6), "different seed, different schedule");
        let rebalances = plan
            .events()
            .iter()
            .filter(|e| e.action == PlanAction::Rebalance)
            .count();
        assert_eq!(
            rebalances, 8,
            "one mid-crash and one post-recover per round"
        );
    }

    #[test]
    fn recovery_storm_downs_and_restores_everyone() {
        let plan = recovery_storm(
            5,
            &trio(),
            SimDuration::from_millis(4),
            SimDuration::from_millis(3),
        );
        plan.validate().expect("well-formed");
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
        assert_eq!((crashes, recovers), (3, 3));
    }
}
