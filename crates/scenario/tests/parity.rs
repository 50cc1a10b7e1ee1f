//! Runner-vs-recorded-metrics regression.
//!
//! Each case runs the scenario runner on a fixed world under a time-keyed
//! fault plan and pins every externally observable metric — the abort
//! taxonomy, message and timeout totals, step count and virtual end time —
//! to a recorded value. The values were first measured on the retired
//! `workload::Driver`, which applied its faults at the top of a driver step;
//! a plan entry fires at the top of the first step whose clock has reached
//! its offset, so each offset below lies inside the window of the step the
//! original fault used, and the recorded runs reproduce exactly.
//!
//! (If a deliberate engine or RNG change invalidates these numbers,
//! re-record them from a run you have verified by other means, and say so
//! in the commit.)
//!
//! Since fan-outs (multicasts, store rounds, bind probes) cost their
//! slowest branch, every step is shorter: the end times were re-recorded
//! then, and each fault offset moved to fire in the same step as before,
//! so every other pinned number stayed as it was.

use groupview_core::BindingScheme;
use groupview_replication::{Counter, ReplicationPolicy, System};
use groupview_scenario::{run_plan_typed, FaultPlan, ModelKind, PlanAction};
use groupview_sim::{NodeId, SimDuration};
use groupview_store::Uid;
use groupview_workload::{RunMetrics, WorkloadSpec};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn world(policy: ReplicationPolicy, scheme: BindingScheme, seed: u64) -> (System, Vec<Uid>) {
    let sys = System::builder(seed)
        .nodes(7)
        .policy(policy)
        .scheme(scheme)
        .build();
    let uids = (0..3)
        .map(|i| {
            sys.create_object(
                Box::new(Counter::new(i)),
                &[n(1), n(2), n(3)],
                &[n(1), n(2), n(3)],
            )
            .expect("create")
        })
        .collect();
    (sys, uids)
}

fn ms(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}

fn spec(objects: Vec<Uid>) -> WorkloadSpec {
    WorkloadSpec::new(objects, vec![n(4), n(5), n(6)])
        .clients(3)
        .actions_per_client(4)
        .ops_per_action(2)
}

/// Every externally observable metric the runner must reproduce.
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

/// The legacy `Driver`'s measured run, recorded at the moment of its
/// retirement: metric fingerprint, delivered messages, crashes, timeouts,
/// and the virtual end time in microseconds.
struct Recorded {
    fingerprint: [u64; 15],
    delivered: u64,
    crashes: u64,
    timeouts: u64,
    end_time_us: u64,
}

fn assert_reproduces(
    policy: ReplicationPolicy,
    scheme: BindingScheme,
    seed: u64,
    plan: FaultPlan,
    recorded: &Recorded,
) {
    let (sys, uids) = world(policy, scheme, seed);
    let spec = spec(uids);
    let outcome = run_plan_typed(
        &sys,
        &spec,
        &plan,
        &vec![ModelKind::COUNTER; spec.objects.len()],
    );
    let m = &outcome.metrics;
    assert_eq!(
        fingerprint(m),
        recorded.fingerprint,
        "runner drifted from the recorded legacy-driver metrics: {m}"
    );
    assert_eq!(m.net.delivered, recorded.delivered);
    assert_eq!(m.net.crashes, recorded.crashes);
    assert_eq!(m.net.timeouts, recorded.timeouts);
    assert_eq!(
        sys.sim().now().as_micros(),
        recorded.end_time_us,
        "virtual end time drifted"
    );
}

/// The crash-masking test's exact configuration (seed 13, crash node 2 at
/// 25 ms, inside step 5): the plan must mask the crash identically.
/// Re-recorded when an action began to pay one timeout per dead node: the
/// action that found n2 dead at bind excludes it at commit without a
/// prepare (4 → 3 timeouts, 20 ms less virtual time).
#[test]
fn crash_masking_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::Active,
        BindingScheme::Standard,
        13,
        FaultPlan::new().at(ms(25), PlanAction::CrashNode(n(2))),
        &Recorded {
            fingerprint: [12, 8, 4, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 15],
            delivered: 252,
            crashes: 1,
            timeouts: 3,
            end_time_us: 192_757,
        },
    );
}

/// Re-recorded when an action began to pay one timeout per dead node: an
/// action that finds n1 dead at bind no longer also waits on it for its
/// state read and its prepare (12 → 6 timeouts).
#[test]
fn single_copy_crash_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::SingleCopyPassive,
        BindingScheme::Standard,
        11,
        FaultPlan::new().at(ms(12), PlanAction::CrashNode(n(1))),
        &Recorded {
            fingerprint: [12, 8, 4, 0, 0, 0, 4, 2, 2, 0, 0, 0, 0, 0, 16],
            delivered: 216,
            crashes: 1,
            timeouts: 6,
            end_time_us: 254_232,
        },
    );
}

#[test]
fn client_crash_and_sweep_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
        12,
        FaultPlan::new()
            .at(ms(15), PlanAction::CrashClient(0))
            .at(ms(50), PlanAction::CleanupSweep),
        &Recorded {
            fingerprint: [9, 7, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 17],
            delivered: 288,
            crashes: 0,
            timeouts: 0,
            end_time_us: 137_313,
        },
    );
}

/// Re-recorded when §4 recovery began to retry only its deferred work:
/// the recovered n3 no longer re-runs its full pass every step, so it
/// holds fewer locks against the clients (7 → 8 commits, 5 → 4 invoke
/// contention aborts).
#[test]
fn recovery_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::Active,
        BindingScheme::Standard,
        13,
        FaultPlan::new()
            .at(ms(10), PlanAction::CrashNode(n(3)))
            .at(ms(145), PlanAction::RecoverNode(n(3))),
        &Recorded {
            fingerprint: [12, 8, 4, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 17],
            delivered: 354,
            crashes: 1,
            timeouts: 4,
            end_time_us: 260_882,
        },
    );
}

#[test]
fn fault_free_runs_match_recorded_driver_metrics() {
    for (seed, recorded) in [
        (
            9,
            Recorded {
                fingerprint: [12, 8, 4, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 17],
                delivered: 282,
                crashes: 0,
                timeouts: 0,
                end_time_us: 142_948,
            },
        ),
        (
            42,
            Recorded {
                fingerprint: [12, 10, 2, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 17],
                delivered: 318,
                crashes: 0,
                timeouts: 0,
                end_time_us: 159_477,
            },
        ),
        (
            77,
            Recorded {
                fingerprint: [12, 9, 3, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 17],
                delivered: 300,
                crashes: 0,
                timeouts: 0,
                end_time_us: 152_805,
            },
        ),
    ] {
        assert_reproduces(
            ReplicationPolicy::CoordinatorCohort,
            BindingScheme::Standard,
            seed,
            FaultPlan::new(),
            &recorded,
        );
    }
}
