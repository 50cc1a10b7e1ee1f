//! The retired `workload::Driver`'s test suite, ported onto the unified
//! scenario runner (`run_plan_typed` + time-keyed `FaultPlan`s): the
//! behavioral contracts the old driver's unit tests pinned — abort
//! accounting, crash masking, leak-and-sweep, recovery to full strength,
//! determinism, the read path — now hold of the single engine. The worlds
//! match `tests/parity.rs`, and so do the fault offsets.

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

fn run(sys: &System, spec: &WorkloadSpec, plan: FaultPlan) -> RunMetrics {
    run_plan_typed(
        sys,
        spec,
        &plan,
        &vec![ModelKind::COUNTER; spec.objects.len()],
    )
    .metrics
}

#[test]
fn fault_free_run_accounts_for_every_action() {
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 9);
    let metrics = run(&sys, &spec(uids), FaultPlan::new());
    assert_eq!(metrics.attempts, 12);
    assert_eq!(metrics.commits + metrics.aborts, 12);
    // No faults: the only possible aborts are object-lock contention
    // between interleaved writers (refusal-based locking). Causal
    // assertions only — no seed-dependent availability floor.
    assert_eq!(metrics.aborts, metrics.abort_invoke());
    assert_eq!(metrics.abort_failure, 0, "no crashes, no failure aborts");
    assert_eq!(metrics.abort_contention, metrics.abort_invoke());
    assert_eq!(
        metrics.abort_commit_failure, 0,
        "no crashes, no failure-caused commit aborts"
    );
    assert_eq!(metrics.action_latency_us.count(), 12);
    assert!(sys.tx().locks_empty(), "quiescent at end");
}

#[test]
fn single_client_run_commits_everything() {
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 9);
    let spec = WorkloadSpec::new(uids, vec![n(4)])
        .clients(1)
        .actions_per_client(6)
        .ops_per_action(2);
    let metrics = run(&sys, &spec, FaultPlan::new());
    assert_eq!(metrics.commits, 6);
    assert_eq!(metrics.aborts, 0);
    assert_eq!(metrics.availability(), 1.0);
    assert!(metrics.to_string().contains("availability=100.0%"));
}

#[test]
fn active_policy_survives_server_crash() {
    // Asserts crash masking *directly* via the abort-cause breakdown,
    // so the test is robust to RNG-seed interleaving changes: whatever
    // contention the schedule produces, a masked crash must cause no
    // failure-attributed abort anywhere.
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 13);
    let script = FaultPlan::new().at(ms(25), PlanAction::CrashNode(n(2)));
    let metrics = run(&sys, &spec(uids), script);
    assert_eq!(metrics.attempts, 12);
    assert!(metrics.commits > 0, "{metrics}");
    assert_eq!(
        metrics.abort_failure, 0,
        "the crash must be masked — every invoke abort must be \
         ordinary lock contention: {metrics}"
    );
    assert_eq!(
        metrics.abort_commit_failure, 0,
        "write-back must survive every masked crash: {metrics}"
    );
}

#[test]
fn single_copy_crash_causes_aborts() {
    let (sys, uids) = world(
        ReplicationPolicy::SingleCopyPassive,
        BindingScheme::Standard,
        11,
    );
    let script = FaultPlan::new().at(ms(12), PlanAction::CrashNode(n(1)));
    let metrics = run(&sys, &spec(uids), script);
    assert!(metrics.aborts > 0, "in-flight singletons abort: {metrics}");
    assert!(
        metrics.abort_failure > 0,
        "unreplicated crashes must show up as failure-caused: {metrics}"
    );
    // New activations fail over to other Sv members, so later actions
    // commit again.
    assert!(metrics.commits > 0);
}

#[test]
fn client_crash_leaks_then_sweep_reclaims() {
    let (sys, uids) = world(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
        12,
    );
    let script = FaultPlan::new()
        .at(ms(15), PlanAction::CrashClient(0))
        .at(ms(50), PlanAction::CleanupSweep);
    let metrics = run(&sys, &spec(uids), script);
    assert!(metrics.leaked_bindings >= 1, "{metrics:?}");
    assert!(metrics.cleanup_reclaimed >= 1);
    for uid in sys.naming().server_db.uids() {
        assert!(
            sys.naming().server_db.entry(uid).unwrap().is_quiescent(),
            "all use lists reclaimed"
        );
    }
}

#[test]
fn recovery_action_restores_full_strength() {
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 13);
    let script = FaultPlan::new()
        .at(ms(10), PlanAction::CrashNode(n(3)))
        .at(ms(145), PlanAction::RecoverNode(n(3)));
    let metrics = run(&sys, &spec(uids), script);
    assert!(metrics.commits > 0);
    // After recovery every object's St is back to full strength.
    for &uid in &sys.naming().state_db.uids() {
        assert_eq!(
            sys.naming().state_db.entry(uid).unwrap().len(),
            3,
            "St restored after recovery"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let once = |seed| {
        let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, seed);
        let script = FaultPlan::new().at(ms(30), PlanAction::CrashNode(n(1)));
        let m = run(&sys, &spec(uids), script);
        (m.commits, m.aborts, m.net.delivered, m.steps)
    };
    assert_eq!(once(42), once(42));
}

#[test]
fn read_only_workload_uses_read_path() {
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 14);
    let spec = spec(uids).read_fraction(1.0);
    let metrics = run(&sys, &spec, FaultPlan::new());
    assert_eq!(metrics.commits, 12);
    // Read-only actions never copy state: every store still holds v0.
    for uid in sys.naming().state_db.uids() {
        let st = sys.stores().read_local(n(1), uid).unwrap();
        assert_eq!(st.version, groupview_store::Version::INITIAL);
    }
}

/// §4 recovery is the recovering node's work, not a client's: a node that
/// hosts only an object the workload never touches crashes and recovers
/// mid-run, and every action still costs its client exactly the messages
/// it cost in the fault-free run.
#[test]
fn recovery_between_steps_is_charged_to_no_client() {
    let messages = |plan: FaultPlan| {
        let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 21);
        sys.create_object(Box::new(Counter::new(0)), &[n(5)], &[n(5)])
            .expect("create");
        let spec = WorkloadSpec::new(uids, vec![n(4)])
            .clients(1)
            .actions_per_client(6)
            .ops_per_action(2);
        run(&sys, &spec, plan).action_messages
    };
    let bystander_crash = FaultPlan::new()
        .at(ms(30), PlanAction::CrashNode(n(5)))
        .at(ms(80), PlanAction::RecoverNode(n(5)));
    let faulty = messages(bystander_crash);
    assert_eq!(faulty.count(), 6);
    assert_eq!(faulty, messages(FaultPlan::new()));
}

/// A client's cost is conserved: in a fault-free run every charged message
/// and every microsecond of the clock falls inside exactly one client
/// step, so the per-action samples add up to the run's own counters. The
/// clock also moves 50 µs between steps, which no client pays for.
#[test]
fn client_costs_sum_to_the_run_totals() {
    let (sys, uids) = world(ReplicationPolicy::Active, BindingScheme::Standard, 9);
    let sim = sys.sim();
    let sent = || {
        let c = sim.counters();
        c.delivered + c.timeouts
    };
    let (t0, n0) = (sim.now(), sent());
    let metrics = run(&sys, &spec(uids), FaultPlan::new());
    assert_eq!(metrics.action_messages.count(), 12);
    assert_eq!(metrics.action_messages.total(), sent() - n0);
    assert_eq!(
        metrics.action_latency_us.total(),
        sim.now().since(t0).as_micros() - 50 * metrics.steps
    );
}

/// A node that recovers under constant client load finishes its §4 work
/// within a few steps while the clients keep running: each step retries
/// only the work its recovery deferred, so it stops contending with the
/// clients over objects it has already recovered.
#[test]
fn a_node_recovering_under_load_converges_while_clients_run() {
    let sys = System::builder(1993)
        .nodes(7)
        .policy(ReplicationPolicy::Active)
        .scheme(BindingScheme::Standard)
        .build();
    let servers = [n(1), n(2), n(3)];
    let uids: Vec<Uid> = (0..8)
        .map(|_| {
            sys.create_object(Box::new(Counter::new(0)), &servers, &servers)
                .expect("create")
        })
        .collect();
    let spec = WorkloadSpec::new(uids, vec![n(4), n(5), n(6)])
        .clients(12)
        .actions_per_client(40)
        .ops_per_action(2)
        .replicas(2);
    let plan = FaultPlan::new()
        .at(ms(10), PlanAction::CrashNode(n(1)))
        .at(ms(100), PlanAction::RecoverNode(n(1)));
    let m = run(&sys, &spec, plan);
    assert!(m.commits > 0);
    // n1 recovers 100 virtual ms in, a few steps into a run of 130-odd:
    // its recovery converges within a handful of steps, and the clients
    // run on for at least 100 more.
    assert!(
        m.recovery_steps <= 20,
        "n1 still recovering after {} of {} steps",
        m.recovery_steps,
        m.steps
    );
    assert!(m.steps >= m.recovery_steps + 100, "{} steps", m.steps);
}
