//! Runner-vs-recorded-metrics regression.
//!
//! Before `workload::Driver` was deleted, this suite ran the legacy driver
//! and the scenario runner side by side on identical worlds and asserted
//! **bit-for-bit** equality of every externally observable metric — the
//! proof that the unified run loop reproduced the old one exactly. The
//! legacy driver's measured fingerprints from that final green run are
//! recorded below; the runner (driving the same step-keyed faults as
//! `FaultPlan::at_step` events) must keep reproducing them. Any drift means
//! the unified loop no longer matches what the retired driver did — the
//! same signal the live comparison gave, without keeping dead code around.
//!
//! (If a deliberate engine or RNG change invalidates these numbers,
//! re-record them from a run you have verified by other means, and say so
//! in the commit.)

use groupview_core::BindingScheme;
use groupview_replication::{Counter, ReplicationPolicy, System};
use groupview_scenario::{run_plan, FaultPlan, PlanAction};
use groupview_sim::NodeId;
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
        m.abort_bind,
        m.abort_bind_contention,
        m.abort_bind_failure,
        m.abort_invoke,
        m.abort_contention,
        m.abort_failure,
        m.abort_commit,
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
    let outcome = run_plan(&sys, &spec(uids), &plan);
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
/// step 5): the converted plan must mask the crash identically.
#[test]
fn crash_masking_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::Active,
        BindingScheme::Standard,
        13,
        FaultPlan::new().at_step(5, PlanAction::CrashNode(n(2))),
        &Recorded {
            fingerprint: [12, 8, 4, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 15],
            delivered: 252,
            crashes: 1,
            timeouts: 4,
            end_time_us: 282_922,
        },
    );
}

#[test]
fn single_copy_crash_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::SingleCopyPassive,
        BindingScheme::Standard,
        11,
        FaultPlan::new().at_step(3, PlanAction::CrashNode(n(1))),
        &Recorded {
            fingerprint: [12, 8, 4, 0, 0, 0, 4, 2, 2, 0, 0, 0, 0, 0, 16],
            delivered: 216,
            crashes: 1,
            timeouts: 12,
            end_time_us: 419_388,
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
            .at_step(2, PlanAction::CrashClient(0))
            .at_step(8, PlanAction::CleanupSweep),
        &Recorded {
            fingerprint: [9, 7, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 17],
            delivered: 288,
            crashes: 0,
            timeouts: 0,
            end_time_us: 231_098,
        },
    );
}

#[test]
fn recovery_run_matches_recorded_driver_metrics() {
    assert_reproduces(
        ReplicationPolicy::Active,
        BindingScheme::Standard,
        13,
        FaultPlan::new()
            .at_step(2, PlanAction::CrashNode(n(3)))
            .at_step(10, PlanAction::RecoverNode(n(3))),
        &Recorded {
            fingerprint: [12, 7, 5, 0, 0, 0, 5, 5, 0, 0, 0, 0, 0, 0, 15],
            delivered: 382,
            crashes: 1,
            timeouts: 4,
            end_time_us: 364_327,
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
                end_time_us: 231_785,
            },
        ),
        (
            42,
            Recorded {
                fingerprint: [12, 10, 2, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 17],
                delivered: 318,
                crashes: 0,
                timeouts: 0,
                end_time_us: 264_038,
            },
        ),
        (
            77,
            Recorded {
                fingerprint: [12, 9, 3, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 17],
                delivered: 300,
                crashes: 0,
                timeouts: 0,
                end_time_us: 249_361,
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
