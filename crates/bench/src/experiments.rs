//! The thirteen experiments (E1–E13), one per paper figure/section.
//!
//! Each experiment is a deterministic function returning one or more
//! [`TextTable`]s. Its [`Experiment`] entry names the figure or section it
//! quantifies and the paper's claim, which the harness prints beside the
//! measured tables.

use groupview_core::{BindingScheme, ExcludePolicy};
use groupview_group::comms::DeliveryMode;
use groupview_group::member::RecordingMember;
use groupview_group::GroupComms;
use groupview_replication::{Counter, CounterOp, ReplicationPolicy, System};
use groupview_scenario::{run_plan, FaultPlan, PlanAction};
use groupview_sim::{Bytes, NetConfig, NodeId, Sim, SimConfig};
use groupview_store::Uid;
use groupview_workload::table::{fmt_f64, fmt_pct};
use groupview_workload::{RunMetrics, TextTable, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A named experiment.
pub struct Experiment {
    /// Identifier (`e1`..`e13`).
    pub id: &'static str,
    /// The paper figure or section it quantifies.
    pub figure: &'static str,
    /// The paper's qualitative claim, paraphrased.
    pub claim: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Vec<TextTable>,
}

/// All experiments in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            figure: "Figure 1 / §2.3(2)",
            claim: "without reliable+ordered delivery, a group member's failure \
                    mid-reply makes client replicas diverge; with it, never",
            run: e1,
        },
        Experiment {
            id: "e2",
            figure: "Figure 2 / §3.2(1)",
            claim: "an unreplicated object (|Sv|=|St|=1) is unavailable whenever \
                    its node is down; affected actions abort",
            run: e2,
        },
        Experiment {
            id: "e3",
            figure: "Figure 3 / §3.2(2)",
            claim: "replicating only the state (|St|=k) keeps the object available \
                    across store crashes at the price of k-fold commit copies",
            run: e3,
        },
        Experiment {
            id: "e4",
            figure: "Figure 4 / §3.2(3)",
            claim: "with |Sv'|=k active servers, up to k-1 server failures are \
                    masked during execution; invocation cost grows with k",
            run: e4,
        },
        Experiment {
            id: "e5",
            figure: "Figure 5 / §3.2(4)",
            claim: "the general case combines both: availability improves along \
                    both the |Sv| and |St| axes",
            run: e5,
        },
        Experiment {
            id: "e6",
            figure: "Figure 6 / §4.1.2",
            claim: "under the standard scheme Sv is static, so every client \
                    rediscovers dead servers 'the hard way' at every bind",
            run: e6,
        },
        Experiment {
            id: "e7",
            figure: "Figure 7 / §4.1.3(i)",
            claim: "independent top-level actions keep Sv relatively up to date \
                    (dead servers pruned once) at the cost of use-list updates; \
                    client crashes leak counts until the cleanup daemon runs",
            run: e7,
        },
        Experiment {
            id: "e8",
            figure: "Figure 8 / §4.1.3(ii)",
            claim: "nested top-level actions achieve the same database hygiene \
                    from within the client action",
            run: e8,
        },
        Experiment {
            id: "e9",
            figure: "§4.2.1",
            claim: "promoting a read lock to write for Exclude aborts whenever \
                    other readers exist; the exclude-write lock never does",
            run: e9,
        },
        Experiment {
            id: "e10",
            figure: "§2.3(3)",
            claim: "commit-time Exclude prevents later clients from binding to \
                    stale replicas; without it they silently read stale state",
            run: e10,
        },
        Experiment {
            id: "e11",
            figure: "§4.1.2 + §4.2 recovery",
            claim: "a recovered node re-joins via Insert/Include, which are \
                    delayed exactly as long as clients hold conflicting locks",
            run: e11,
        },
        Experiment {
            id: "e12",
            figure: "§2.3(2)(i-iii)",
            claim: "active replication masks server crashes at the highest \
                    message cost; coordinator-cohort masks them with failover; \
                    single-copy passive aborts the affected actions",
            run: e12,
        },
        Experiment {
            id: "e13",
            figure: "§5 (concluding remarks / future work)",
            claim: "server data can live in a traditional non-atomic name \
                    server — removing lock interference between binders and \
                    administrators — while the transactional Object State \
                    database alone still guarantees consistent binding",
            run: e13,
        },
    ]
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Builds a world: node 0 naming, `servers`+`stores` as given, and returns
/// `objects` counters registered on them.
fn build_world(
    seed: u64,
    nodes: usize,
    policy: ReplicationPolicy,
    scheme: BindingScheme,
    sv: &[NodeId],
    st: &[NodeId],
    objects: usize,
) -> (System, Vec<Uid>) {
    let sys = System::builder(seed)
        .nodes(nodes)
        .policy(policy)
        .scheme(scheme)
        .build();
    let uids = (0..objects)
        .map(|_| {
            sys.create_object(Box::new(Counter::new(0)), sv, st)
                .expect("create object")
        })
        .collect();
    (sys, uids)
}

/// Drives `spec` with a step-keyed fault plan through the scenario
/// runner — the single execution engine that replaced the legacy
/// `workload::Driver` (bit-for-bit identical runs; see the scenario
/// crate's parity suite).
fn run_script(sys: &System, spec: &WorkloadSpec, script: FaultPlan) -> RunMetrics {
    run_plan(sys, spec, &script).metrics
}

/// Generates a step-keyed crash/recover plan: each step, while the node is
/// up, it crashes with probability `p` and recovers `down_for` steps later.
fn random_crash_script(seed: u64, node: NodeId, steps: u64, p: f64, down_for: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = FaultPlan::new();
    let mut down_until = 0u64;
    for step in 1..=steps {
        if step < down_until {
            continue;
        }
        if rng.random::<f64>() < p {
            script = script
                .at_step(step, PlanAction::CrashNode(node))
                .at_step(step + down_for, PlanAction::RecoverNode(node));
            down_until = step + down_for + 1;
        }
    }
    script
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: divergence without reliable ordered delivery
// ---------------------------------------------------------------------------

fn e1() -> Vec<TextTable> {
    let mut crash_table = TextTable::new(
        "E1a: sender crashes after delivering 1 of 2 replies (300 seeded trials)",
        &["delivery", "trials", "divergent", "divergence"],
    );
    for (mode, name) in [
        (DeliveryMode::Unreliable, "unreliable"),
        (DeliveryMode::ReliableOrdered, "reliable-ordered"),
    ] {
        let trials = 300;
        let mut divergent = 0;
        for t in 0..trials {
            if e1_trial(1_000 + t, mode, 0.0) {
                divergent += 1;
            }
        }
        crash_table.row(vec![
            name.into(),
            trials.to_string(),
            divergent.to_string(),
            fmt_pct(divergent as f64 / trials as f64),
        ]);
    }

    let mut drop_table = TextTable::new(
        "E1b: lossy network, no sender crash (300 seeded trials per cell)",
        &["delivery", "drop p", "divergent", "divergence"],
    );
    for (mode, name) in [
        (DeliveryMode::Unreliable, "unreliable"),
        (DeliveryMode::ReliableOrdered, "reliable-ordered"),
    ] {
        for p in [0.05, 0.15, 0.30] {
            let trials = 300;
            let mut divergent = 0;
            for t in 0..trials {
                if e1_trial(9_000 + t, mode, p) {
                    divergent += 1;
                }
            }
            drop_table.row(vec![
                name.into(),
                format!("{p:.2}"),
                divergent.to_string(),
                fmt_pct(divergent as f64 / trials as f64),
            ]);
        }
    }
    vec![crash_table, drop_table]
}

/// One Figure-1 trial: GA = {n1, n2}; B = n3 multicasts its reply. With
/// `crash` semantics (drop probability 0), B dies after its first delivery.
/// Returns whether A1 and A2 diverged.
fn e1_trial(seed: u64, mode: DeliveryMode, drop_p: f64) -> bool {
    let sim = Sim::new(
        SimConfig::new(seed)
            .with_nodes(4)
            .with_net(NetConfig::default().with_drop_probability(drop_p)),
    );
    let comms = GroupComms::new(&sim);
    let ga = comms.create_group(mode);
    let a1 = Rc::new(RefCell::new(RecordingMember::default()));
    let a2 = Rc::new(RefCell::new(RecordingMember::default()));
    comms.join(ga, n(1), a1.clone()).unwrap();
    comms.join(ga, n(2), a2.clone()).unwrap();
    let b = n(3);
    if drop_p == 0.0 {
        sim.crash_after_sends(b, 1);
    }
    let _ = comms.multicast(ga, b, &Bytes::from_static(b"reply"));
    let diverged = a1.borrow().log != a2.borrow().log;
    diverged
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: the unreplicated baseline
// ---------------------------------------------------------------------------

fn e2() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E2: |Sv|=|St|=1 baseline — availability vs crash probability of the object's node",
        &[
            "crash p/step",
            "attempts",
            "commits",
            "availability",
            "bind aborts",
            "invoke aborts",
            "commit aborts",
        ],
    );
    for (i, p) in [0.0, 0.01, 0.05, 0.10, 0.20].into_iter().enumerate() {
        let (sys, uids) = build_world(
            2_000 + i as u64,
            4,
            ReplicationPolicy::SingleCopyPassive,
            BindingScheme::Standard,
            &[n(1)],
            &[n(1)],
            1,
        );
        let script = random_crash_script(3_000 + i as u64, n(1), 400, p, 4);
        let spec = WorkloadSpec::new(uids, vec![n(2)])
            .clients(1)
            .actions_per_client(60)
            .ops_per_action(2)
            .replicas(1);
        let m = run_script(&sys, &spec, script);
        table.row(vec![
            format!("{p:.2}"),
            m.attempts.to_string(),
            m.commits.to_string(),
            fmt_pct(m.availability()),
            m.abort_bind.to_string(),
            m.abort_invoke.to_string(),
            m.abort_commit.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// E3 — Figure 3: |Sv|=1, |St|=k (single-copy passive with replicated state)
// ---------------------------------------------------------------------------

fn e3() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E3: |Sv|=1, |St|=k — one store crashes mid-run (recovering later)",
        &[
            "|St|",
            "availability",
            "mean msgs/action",
            "mean latency us",
            "stores excluded",
            "St size at end",
        ],
    );
    for k in 1..=5usize {
        let stores: Vec<NodeId> = (1..=k as u32).map(n).collect();
        let (sys, uids) = build_world(
            2_100 + k as u64,
            9,
            ReplicationPolicy::SingleCopyPassive,
            BindingScheme::Standard,
            &[n(1)],
            &stores,
            1,
        );
        // The last store in St crashes at step 10 and recovers at step 60.
        let victim = stores[k - 1];
        let script = FaultPlan::new()
            .at_step(10, PlanAction::CrashNode(victim))
            .at_step(60, PlanAction::RecoverNode(victim));
        let spec = WorkloadSpec::new(uids.clone(), vec![n(7)])
            .clients(1)
            .actions_per_client(50)
            .ops_per_action(2)
            .replicas(1);
        let m = run_script(&sys, &spec, script);
        let st_len = sys.naming().state_db.entry(uids[0]).map_or(0, |e| e.len());
        table.row(vec![
            k.to_string(),
            fmt_pct(m.availability()),
            fmt_f64(m.action_messages.mean()),
            fmt_f64(m.action_latency_us.mean()),
            sys.naming().state_db.ops().excluded_nodes.to_string(),
            st_len.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// E4 — Figure 4: |Sv|=k, |St|=1 (replicated servers, active replication)
// ---------------------------------------------------------------------------

fn e4() -> Vec<TextTable> {
    // E4a: one bound server crashes mid-run (recovering later). k=1 has no
    // spare to mask the failure; k>=2 rides it out.
    let mut masking = TextTable::new(
        "E4a: |Sv|=k, |St|=1 active replication — one bound server crashes mid-run",
        &[
            "|Sv|",
            "availability",
            "mean msgs/action",
            "mean latency us",
        ],
    );
    for k in 1..=5usize {
        let servers: Vec<NodeId> = (1..=k as u32).map(n).collect();
        let (sys, uids) = build_world(
            2_200 + k as u64,
            9,
            ReplicationPolicy::Active,
            BindingScheme::Standard,
            &servers,
            &[n(6)],
            1,
        );
        let script = FaultPlan::new()
            .at_step(10, PlanAction::CrashNode(servers[k - 1]))
            .at_step(80, PlanAction::RecoverNode(servers[k - 1]));
        let spec = WorkloadSpec::new(uids, vec![n(7)])
            .clients(1)
            .actions_per_client(50)
            .ops_per_action(2)
            .replicas(k);
        let m = run_script(&sys, &spec, script);
        masking.row(vec![
            k.to_string(),
            fmt_pct(m.availability()),
            fmt_f64(m.action_messages.mean()),
            fmt_f64(m.action_latency_us.mean()),
        ]);
    }

    // E4b: k=4 fixed; crash 0..4 servers (no recovery). Availability
    // survives up to k-1 failures and collapses at k.
    let mut threshold = TextTable::new(
        "E4b: |Sv|=4 — availability vs number of crashed servers (none recover)",
        &["crashed", "availability", "bind aborts", "invoke aborts"],
    );
    for crashed in 0..=4usize {
        let servers: Vec<NodeId> = (1..=4).map(n).collect();
        let (sys, uids) = build_world(
            2_250 + crashed as u64,
            9,
            ReplicationPolicy::Active,
            BindingScheme::Standard,
            &servers,
            &[n(6)],
            1,
        );
        let mut script = FaultPlan::new();
        for (i, &victim) in servers.iter().take(crashed).enumerate() {
            script = script.at_step(10 + 6 * i as u64, PlanAction::CrashNode(victim));
        }
        let spec = WorkloadSpec::new(uids, vec![n(7)])
            .clients(1)
            .actions_per_client(40)
            .ops_per_action(2)
            .replicas(4);
        let m = run_script(&sys, &spec, script);
        threshold.row(vec![
            crashed.to_string(),
            fmt_pct(m.availability()),
            m.abort_bind.to_string(),
            m.abort_invoke.to_string(),
        ]);
    }
    vec![masking, threshold]
}

// ---------------------------------------------------------------------------
// E5 — Figure 5: the general |Sv| x |St| surface
// ---------------------------------------------------------------------------

fn e5() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E5: availability over (|Sv|, |St|) with one server + one store crash mid-run",
        &["|Sv| \\ |St|", "1", "2", "3", "4"],
    );
    for sv_k in 1..=4usize {
        let mut cells = vec![sv_k.to_string()];
        for st_k in 1..=4usize {
            let servers: Vec<NodeId> = (1..=sv_k as u32).map(n).collect();
            let stores: Vec<NodeId> = (5..5 + st_k as u32).map(n).collect();
            let (sys, uids) = build_world(
                2_300 + (sv_k * 10 + st_k) as u64,
                11,
                ReplicationPolicy::Active,
                BindingScheme::Standard,
                &servers,
                &stores,
                1,
            );
            // Crash the last server and the last store; recover both later.
            let script = FaultPlan::new()
                .at_step(8, PlanAction::CrashNode(servers[sv_k - 1]))
                .at_step(12, PlanAction::CrashNode(stores[st_k - 1]))
                .at_step(50, PlanAction::RecoverNode(servers[sv_k - 1]))
                .at_step(52, PlanAction::RecoverNode(stores[st_k - 1]));
            let spec = WorkloadSpec::new(uids, vec![n(9)])
                .clients(1)
                .actions_per_client(40)
                .ops_per_action(2)
                .replicas(sv_k);
            let m = run_script(&sys, &spec, script);
            cells.push(fmt_pct(m.availability()));
        }
        table.row(cells);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// E6/E7/E8 — Figures 6-8: the three database access schemes
// ---------------------------------------------------------------------------

/// Shared sweep: 4 server nodes of which `crashed` are down from the start,
/// 8 clients binding with k=2.
fn scheme_sweep_row(scheme: BindingScheme, crashed: usize, seed: u64) -> Vec<String> {
    let servers: Vec<NodeId> = (1..=4).map(n).collect();
    let stores = vec![n(5), n(6)];
    let (sys, uids) = build_world(
        seed,
        10,
        ReplicationPolicy::Active,
        scheme,
        &servers,
        &stores,
        8, // one object per client on average: binding costs dominate, not
           // object-lock contention
    );
    let mut script = FaultPlan::new();
    for &victim in servers.iter().take(crashed) {
        script = script.at_step(1, PlanAction::CrashNode(victim));
    }
    let spec = WorkloadSpec::new(uids.clone(), vec![n(7), n(8), n(9)])
        .clients(8)
        .actions_per_client(10)
        .ops_per_action(1)
        .replicas(2)
        .passivate_between_actions();
    let m = run_script(&sys, &spec, script);
    let sv_len = sys
        .naming()
        .server_db
        .entry(uids[0])
        .map_or(0, |e| e.servers.len());
    vec![
        crashed.to_string(),
        m.attempts.to_string(),
        fmt_pct(m.availability()),
        m.probe_failures.to_string(),
        fmt_f64(m.probe_failures as f64 / m.attempts as f64),
        m.servers_removed.to_string(),
        m.bind_retries.to_string(),
        fmt_f64(m.action_messages.mean()),
        sv_len.to_string(),
    ]
}

const SCHEME_HEADERS: [&str; 9] = [
    "crashed servers",
    "actions",
    "availability",
    "dead probes",
    "probes/action",
    "Sv removals",
    "bind retries",
    "mean msgs/action",
    "|Sv| at end",
];

fn e6() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E6: standard scheme (Fig 6) — every client pays for dead servers",
        &SCHEME_HEADERS,
    );
    for (i, crashed) in [0usize, 1, 2].into_iter().enumerate() {
        table.row(scheme_sweep_row(
            BindingScheme::Standard,
            crashed,
            2_600 + i as u64,
        ));
    }
    vec![table]
}

fn e7() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E7: independent top-level actions (Fig 7) — dead servers pruned once",
        &SCHEME_HEADERS,
    );
    for (i, crashed) in [0usize, 1, 2].into_iter().enumerate() {
        table.row(scheme_sweep_row(
            BindingScheme::IndependentTopLevel,
            crashed,
            2_700 + i as u64,
        ));
    }

    // Client-crash leak: two clients die mid-action; the daemon reclaims.
    let mut leak = TextTable::new(
        "E7b: client crashes leak use-list entries until a cleanup sweep",
        &[
            "clients crashed",
            "leaked bindings",
            "reclaimed by sweep",
            "quiescent after",
        ],
    );
    let servers: Vec<NodeId> = (1..=4).map(n).collect();
    let (sys, uids) = build_world(
        2_750,
        10,
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
        &servers,
        &[n(5), n(6)],
        1,
    );
    let script = FaultPlan::new()
        .at_step(2, PlanAction::CrashClient(0))
        .at_step(4, PlanAction::CrashClient(1));
    let spec = WorkloadSpec::new(uids.clone(), vec![n(7), n(8), n(9)])
        .clients(6)
        .actions_per_client(8)
        .ops_per_action(2)
        .replicas(2);
    let m = run_script(&sys, &spec, script);
    // The daemon sweeps after the run; clients 0 and 1 are dead.
    let report = sys.cleanup().sweep(|c| c.raw() > 1);
    let quiescent = uids.iter().all(|&uid| {
        sys.naming()
            .server_db
            .entry(uid)
            .is_some_and(|e| e.is_quiescent())
    });
    leak.row(vec![
        "2".into(),
        m.leaked_bindings.to_string(),
        report.reclaimed().to_string(),
        quiescent.to_string(),
    ]);
    vec![table, leak]
}

fn e8() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E8: nested top-level actions (Fig 8) — same hygiene from inside the action",
        &SCHEME_HEADERS,
    );
    for (i, crashed) in [0usize, 1, 2].into_iter().enumerate() {
        table.row(scheme_sweep_row(
            BindingScheme::NestedTopLevel,
            crashed,
            2_800 + i as u64,
        ));
    }

    let mut cmp = TextTable::new(
        "E8b: schemes side by side (1 of 4 servers crashed)",
        &[
            "scheme",
            "availability",
            "dead probes",
            "probes/action",
            "mean msgs/action",
        ],
    );
    for scheme in BindingScheme::ALL {
        let row = scheme_sweep_row(scheme, 1, 2_850 + scheme as u64);
        cmp.row(vec![
            scheme.to_string(),
            row[2].clone(),
            row[3].clone(),
            row[4].clone(),
            row[7].clone(),
        ]);
    }
    vec![table, cmp]
}

// ---------------------------------------------------------------------------
// E9 — §4.2.1: lock promotion vs exclude-write lock
// ---------------------------------------------------------------------------

fn e9() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E9: commit-time Exclude under R concurrent readers (20 trials each)",
        &[
            "readers",
            "promote-to-write commits",
            "exclude-write commits",
        ],
    );
    for readers in [0usize, 1, 2, 4, 8] {
        let mut cells = vec![readers.to_string()];
        for policy in [
            ExcludePolicy::PromoteToWrite,
            ExcludePolicy::ExcludeWriteLock,
        ] {
            let trials = 20;
            let mut ok = 0;
            for t in 0..trials {
                if e9_trial(4_000 + t, readers, policy) {
                    ok += 1;
                }
            }
            cells.push(format!("{ok}/{trials}"));
        }
        table.row(cells);
    }
    vec![table]
}

/// One E9 trial: `readers` clients hold read locks on the St entry while a
/// writer commits with one store down (forcing an Exclude). Returns whether
/// the writer committed.
fn e9_trial(seed: u64, readers: usize, policy: ExcludePolicy) -> bool {
    let sys = System::builder(seed)
        .nodes(14)
        .policy(ReplicationPolicy::Active)
        .exclude_policy(policy)
        .build();
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(1), n(2)], &[n(1), n(2)])
        .expect("create");
    // Readers activate read-only and keep their actions open: activation's
    // nested GetView leaves each holding a read lock on the St entry. (They
    // do not invoke — the contention under test is on the database entry,
    // not on the object itself.)
    let mut open = Vec::new();
    for r in 0..readers {
        let reader = sys.client(n(3 + r as u32));
        let action = reader.begin_action();
        let _group = reader
            .activate_read_only(action, uid, 1)
            .expect("reader activates");
        open.push((reader, action));
    }
    // The writer mutates; one store crashes; commit needs Exclude.
    let writer = sys.client(n(12));
    let counter = writer.open::<Counter>(uid);
    let action = writer.begin_action();
    counter.activate(action, 1).expect("writer activates");
    counter
        .invoke(action, CounterOp::Add(1))
        .expect("writer writes");
    sys.sim().crash(n(2));
    let committed = writer.commit(action).is_ok();
    for (reader, action) in open {
        let _ = reader.commit(action);
    }
    committed
}

// ---------------------------------------------------------------------------
// E10 — §2.3(3): Exclude prevents stale bindings
// ---------------------------------------------------------------------------

fn e10() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E10: stale-binding prevention (150 seeded trials per variant)",
        &[
            "variant",
            "fresh reads",
            "stale reads",
            "correctly unavailable",
        ],
    );
    for ablate in [false, true] {
        let trials = 150;
        let mut fresh = 0;
        let mut stale = 0;
        let mut unavailable = 0;
        for t in 0..trials {
            match e10_trial(5_000 + t, ablate) {
                E10Outcome::Fresh => fresh += 1,
                E10Outcome::Stale => stale += 1,
                E10Outcome::Unavailable => unavailable += 1,
            }
        }
        table.row(vec![
            if ablate {
                "exclude DISABLED (ablation)"
            } else {
                "exclude enabled (paper)"
            }
            .into(),
            fresh.to_string(),
            stale.to_string(),
            unavailable.to_string(),
        ]);
    }
    vec![table]
}

enum E10Outcome {
    Fresh,
    Stale,
    Unavailable,
}

/// One E10 trial: a commit happens while store n2 is down; n2 later comes
/// back *without* running the Include protocol while n1 is down. A reader
/// then tries to use the object.
fn e10_trial(seed: u64, ablate: bool) -> E10Outcome {
    let mut builder = System::builder(seed)
        .nodes(5)
        .policy(ReplicationPolicy::Active);
    if ablate {
        builder = builder.ablate_disable_exclude();
    }
    let sys = builder.build();
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(3), n(4)], &[n(1), n(2)])
        .expect("create");
    // Writer commits value 7 while n2 (a store) is down.
    sys.sim().crash(n(2));
    let writer = sys.client(n(3));
    let counter = writer.open::<Counter>(uid);
    let action = writer.begin_action();
    counter.activate(action, 1).expect("activate");
    counter.invoke(action, CounterOp::Add(7)).expect("write");
    if writer.commit(action).is_err() {
        return E10Outcome::Unavailable;
    }
    // Passivate so the reader must reload from a store.
    assert!(sys.try_passivate(uid));
    // The stale store returns (no recovery protocol!), the fresh one dies.
    sys.sim().recover(n(2));
    sys.sim().crash(n(1));
    // A new client binds and reads.
    let reader = sys.client(n(4));
    let observer = reader.open::<Counter>(uid);
    let action = reader.begin_action();
    match observer.activate_read_only(action, 1) {
        Ok(_) => match observer.invoke(action, CounterOp::Get) {
            Ok(value) => {
                let _ = reader.commit(action);
                if value == 7 {
                    E10Outcome::Fresh
                } else {
                    E10Outcome::Stale
                }
            }
            Err(_) => {
                reader.abort(action);
                E10Outcome::Unavailable
            }
        },
        Err(_) => {
            reader.abort(action);
            E10Outcome::Unavailable
        }
    }
}

// ---------------------------------------------------------------------------
// E11 — recovery re-inclusion latency under load
// ---------------------------------------------------------------------------

fn e11() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E11: attempts until a recovered store is re-Included, under reader load",
        &[
            "concurrent readers",
            "recovery attempts",
            "virtual ms to inclusion",
        ],
    );
    for load in [0usize, 2, 4, 6] {
        let (attempts, ms) = e11_trial(6_000 + load as u64, load);
        table.row(vec![load.to_string(), attempts.to_string(), fmt_f64(ms)]);
    }
    vec![table]
}

/// Crash a store, commit past it (excluding it), then measure how many
/// recovery attempts its re-`Include` takes while `load` readers come and go
/// (each holds the St read lock while its action is open).
fn e11_trial(seed: u64, load: usize) -> (u64, f64) {
    let sys = System::builder(seed)
        .nodes(12)
        .policy(ReplicationPolicy::Active)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    sys.sim().crash(n(3));
    let writer = sys.client(n(10));
    let counter = writer.open::<Counter>(uid);
    let action = writer.begin_action();
    counter.activate(action, 2).expect("activate");
    counter.invoke(action, CounterOp::Add(1)).expect("write");
    writer.commit(action).expect("commit excludes n3");
    assert_eq!(sys.naming().state_db.entry(uid).unwrap().len(), 2);

    // Reader churn: each reader keeps an action open across iterations,
    // closing and reopening with 50% probability per step.
    let readers: Vec<_> = (0..load).map(|r| sys.client(n(4 + r as u32))).collect();
    let mut open: Vec<Option<groupview_actions::ActionId>> = vec![None; load];

    sys.sim().recover(n(3));
    let start = sys.sim().now();
    let mut attempts = 0u64;
    loop {
        // Churn the readers first.
        for (i, reader) in readers.iter().enumerate() {
            if let Some(a) = open[i] {
                if sys.sim().chance(0.5) {
                    let _ = reader.commit(a);
                    open[i] = None;
                }
            } else if sys.sim().chance(0.8) {
                let a = reader.begin_action();
                if reader.activate_read_only(a, uid, 1).is_ok() {
                    open[i] = Some(a);
                } else {
                    reader.abort(a);
                }
            }
        }
        attempts += 1;
        let report = sys.recovery().recover_store(n(3));
        if report.fully_recovered() {
            break;
        }
        if attempts > 500 {
            break; // safety net
        }
    }
    for (i, reader) in readers.iter().enumerate() {
        if let Some(a) = open[i] {
            let _ = reader.commit(a);
        }
    }
    let elapsed = sys.sim().now().since(start);
    (attempts, elapsed.as_micros() as f64 / 1_000.0)
}

// ---------------------------------------------------------------------------
// E12 — the three replication policies under a server crash
// ---------------------------------------------------------------------------

fn e12() -> Vec<TextTable> {
    let mut table = TextTable::new(
        "E12: replication policies — one of three servers crashes mid-run, later recovers",
        &[
            "policy",
            "attempts",
            "availability",
            "invoke aborts",
            "mean msgs/action",
            "mean latency us",
            "p95 latency us",
        ],
    );
    for policy in ReplicationPolicy::ALL {
        let (sys, uids) = build_world(
            7_000 + policy as u64,
            8,
            policy,
            BindingScheme::Standard,
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
            8,
        );
        let script = FaultPlan::new()
            .at_step(12, PlanAction::CrashNode(n(1)))
            .at_step(60, PlanAction::RecoverNode(n(1)));
        let spec = WorkloadSpec::new(uids, vec![n(4), n(5), n(6)])
            .clients(4)
            .actions_per_client(30)
            .ops_per_action(2)
            .replicas(3);
        let m = run_script(&sys, &spec, script);
        table.row(vec![
            policy.to_string(),
            m.attempts.to_string(),
            fmt_pct(m.availability()),
            m.abort_invoke.to_string(),
            fmt_f64(m.action_messages.mean()),
            fmt_f64(m.action_latency_us.mean()),
            m.action_latency_us.p95().to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// E13 — §5: the non-atomic name server extension
// ---------------------------------------------------------------------------

fn e13() -> Vec<TextTable> {
    // E13a: an administrator changes the degree of replication while
    // clients keep long-running actions open. Under the standard scheme the
    // clients' read locks on the server entry refuse the admin's writes;
    // the non-atomic cache accepts every update instantly.
    let mut admin = TextTable::new(
        "E13a: replication-degree changes racing long client actions (60 rounds)",
        &[
            "scheme",
            "admin attempts",
            "admin successes",
            "success rate",
        ],
    );
    for scheme in [BindingScheme::Standard, BindingScheme::CachedNameServer] {
        let (attempts, successes) = e13_admin_trial(8_000, scheme);
        admin.row(vec![
            scheme.to_string(),
            attempts.to_string(),
            successes.to_string(),
            fmt_pct(successes as f64 / attempts as f64),
        ]);
    }

    // E13b: the safety half of the conjecture — rerun E10's stale-binding
    // scenario under the cached scheme (with the transactional state
    // database intact): still zero stale reads.
    let mut safety = TextTable::new(
        "E13b: E10's stale-binding scenario under the cached scheme (150 trials)",
        &[
            "scheme",
            "fresh reads",
            "stale reads",
            "correctly unavailable",
        ],
    );
    for scheme in [BindingScheme::Standard, BindingScheme::CachedNameServer] {
        let trials = 150;
        let (mut fresh, mut stale, mut unavailable) = (0, 0, 0);
        for t in 0..trials {
            match e13_safety_trial(8_500 + t, scheme) {
                E10Outcome::Fresh => fresh += 1,
                E10Outcome::Stale => stale += 1,
                E10Outcome::Unavailable => unavailable += 1,
            }
        }
        safety.row(vec![
            scheme.to_string(),
            fresh.to_string(),
            stale.to_string(),
            unavailable.to_string(),
        ]);
    }
    vec![admin, safety]
}

/// Clients hold actions open on the object while an administrator tries to
/// extend `Sv` each round. Returns `(admin attempts, admin successes)`.
fn e13_admin_trial(seed: u64, scheme: BindingScheme) -> (u64, u64) {
    let sys = System::builder(seed)
        .nodes(10)
        .policy(ReplicationPolicy::Active)
        .scheme(scheme)
        .build();
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(1), n(2)], &[n(1), n(2)])
        .expect("create");
    let clients: Vec<_> = (0..3).map(|i| sys.client(n(4 + i))).collect();
    let mut open: Vec<Option<groupview_actions::ActionId>> = vec![None; clients.len()];
    let mut attempts = 0u64;
    let mut successes = 0u64;
    let spare = n(3); // the node the admin adds/removes as a server site
    let mut listed = false;
    for _round in 0..60 {
        // Client churn: most of the time at least one action is open,
        // holding (under the standard scheme) a read lock on the entry.
        for (i, client) in clients.iter().enumerate() {
            if let Some(a) = open[i] {
                if sys.sim().chance(0.3) {
                    let _ = client.commit(a);
                    open[i] = None;
                }
            } else if sys.sim().chance(0.8) {
                let a = client.begin_action();
                if client.activate(a, uid, 2).is_ok() {
                    open[i] = Some(a);
                } else {
                    client.abort(a);
                }
            }
        }
        // The administrator toggles the spare server's membership.
        attempts += 1;
        if scheme.uses_server_cache() {
            let cache = sys.server_cache().expect("cache present").local();
            if listed {
                cache.record_failure(uid, spare);
            } else {
                cache.record_server(uid, spare);
            }
            listed = !listed;
            successes += 1; // non-atomic updates cannot be refused
        } else {
            let action = sys.tx().begin_top(n(0));
            let result = if listed {
                sys.naming()
                    .server_db
                    .remove(action, uid, spare)
                    .map(|_| ())
            } else {
                sys.naming()
                    .server_db
                    .insert(action, uid, spare)
                    .map(|_| ())
            };
            match result {
                Ok(()) if sys.tx().commit(action).is_ok() => {
                    listed = !listed;
                    successes += 1;
                }
                _ => sys.tx().abort(action),
            }
        }
    }
    for (i, client) in clients.iter().enumerate() {
        if let Some(a) = open[i] {
            let _ = client.commit(a);
        }
    }
    (attempts, successes)
}

/// The E10 scenario parameterised by scheme (exclude enabled).
fn e13_safety_trial(seed: u64, scheme: BindingScheme) -> E10Outcome {
    let sys = System::builder(seed)
        .nodes(5)
        .policy(ReplicationPolicy::Active)
        .scheme(scheme)
        .build();
    let uid = sys
        .create_object(Box::new(Counter::new(0)), &[n(3), n(4)], &[n(1), n(2)])
        .expect("create");
    sys.sim().crash(n(2));
    let writer = sys.client(n(3));
    let counter = writer.open::<Counter>(uid);
    let action = writer.begin_action();
    if counter.activate(action, 1).is_err() {
        writer.abort(action);
        return E10Outcome::Unavailable;
    }
    if counter.invoke(action, CounterOp::Add(7)).is_err() || writer.commit(action).is_err() {
        return E10Outcome::Unavailable;
    }
    assert!(sys.try_passivate(uid));
    sys.sim().recover(n(2));
    sys.sim().crash(n(1));
    let reader = sys.client(n(4));
    let observer = reader.open::<Counter>(uid);
    let action = reader.begin_action();
    match observer.activate_read_only(action, 1) {
        Ok(_) => match observer.invoke(action, CounterOp::Get) {
            Ok(value) => {
                let _ = reader.commit(action);
                if value == 7 {
                    E10Outcome::Fresh
                } else {
                    E10Outcome::Stale
                }
            }
            Err(_) => {
                reader.abort(action);
                E10Outcome::Unavailable
            }
        },
        Err(_) => {
            reader.abort(action);
            E10Outcome::Unavailable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_index_is_complete() {
        let all = all_experiments();
        assert_eq!(all.len(), 13);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", i + 1));
            assert!(!e.figure.is_empty());
            assert!(!e.claim.is_empty());
        }
    }

    #[test]
    fn e1_divergence_shape() {
        let tables = e1();
        let text = tables[0].to_string();
        // Unreliable mode diverges every time; reliable never.
        assert!(
            text.contains("unreliable") && text.contains("100.0%"),
            "{text}"
        );
        assert!(
            text.contains("reliable-ordered") && text.contains("0.0%"),
            "{text}"
        );
    }

    #[test]
    fn e9_crossover_shape() {
        let tables = e9();
        let text = tables[0].to_string();
        let cells_of = |prefix: &str| -> Vec<String> {
            text.lines()
                .find(|l| l.trim_start_matches('|').trim_start().starts_with(prefix))
                .unwrap_or_else(|| panic!("row {prefix} missing in {text}"))
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        };
        // With zero readers both policies commit everything...
        let zero = cells_of("0 ");
        assert_eq!(&zero[2], "20/20", "{text}");
        assert_eq!(&zero[3], "20/20", "{text}");
        // ...with readers present, promote-to-write always aborts while
        // exclude-write always commits.
        let eight = cells_of("8 ");
        assert_eq!(&eight[2], "0/20", "{text}");
        assert_eq!(&eight[3], "20/20", "{text}");
    }

    #[test]
    fn e10_exclusion_prevents_staleness() {
        let tables = e10();
        let text = tables[0].to_string();
        let lines: Vec<&str> = text.lines().collect();
        let enabled = lines.iter().find(|l| l.contains("enabled")).unwrap();
        let disabled = lines.iter().find(|l| l.contains("DISABLED")).unwrap();
        // Paper protocol: zero stale reads.
        let enabled_cells: Vec<&str> = enabled.split('|').map(str::trim).collect();
        assert_eq!(
            enabled_cells[3], "0",
            "stale reads with exclude on: {enabled}"
        );
        // Ablation: staleness appears.
        let disabled_cells: Vec<&str> = disabled.split('|').map(str::trim).collect();
        let stale: u32 = disabled_cells[3].parse().unwrap();
        assert!(stale > 100, "ablation must show stale reads: {disabled}");
    }
}
