//! The eight workloads. Each builds a fresh world, drives a **fixed
//! count** of actions through the public API of the crates (closed loop:
//! the world is a synchronous single-threaded simulation, so the next
//! action starts when the previous one returns), and checks the outputs
//! against the harness's own model.
//!
//! Counts are fixed, never durations, so counters repeat exactly for a
//! seed and a cost that grows with history is paid equally by every run.

use crate::alloc;
use crate::gen::{InputHash, SplitMix64};
use crate::procfs;
use crate::span::{self, Tracer};
use crate::stats::{median, percentile_sorted};
use groupview_membership::{Membership, Rebalancer};
use groupview_obs::{Counter as ObsCounter, MetricsSnapshot};
use groupview_replication::{
    Account, AccountOp, Client, Counter, CounterOp, Handle, ReplicaObject, ReplicationPolicy,
    System, TypedUid,
};
use groupview_scenario::{
    check_counter_states, check_final_states, rolling_crashes, run_plan_typed, EventKind,
    ModelKind, ObjectModel, Oracle, PlanAction,
};
use groupview_sim::wire::{self, WireStats};
use groupview_sim::{Bytes, NetCounters, NodeId, SimDuration, WireEncoder};
use groupview_store::Uid;
use groupview_workload::WorkloadSpec;
use std::time::Instant;

/// Workload names, in catalogue order.
pub const NAMES: [&str; 8] = [
    "short_warm",
    "wide_active",
    "invoke_stream",
    "invoke_batched",
    "read_mostly",
    "transfers",
    "crash_churn",
    "elastic_drain",
];

/// Whether a run uses the catalogue sizes or the seconds-long test sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Server (= store) nodes of the client workloads; node 0 names, the last
/// node runs the client.
const SERVERS: usize = 5;
/// Replicas (Sv = St members) per object.
const REPLICAS: usize = 3;
/// Starting balance of every account in `transfers`: large enough that no
/// withdrawal is ever refused, so every generated transfer must commit.
const OPENING_BALANCE: u64 = 1_000_000;
/// Errors kept per pass (the first few say what went wrong; a broken run
/// would otherwise produce one per action).
const MAX_ERRORS: usize = 8;

/// Everything one pass over one workload measured, before reduction to
/// named metrics.
pub struct Pass {
    pub workload: &'static str,
    /// Object count, warm-up actions, measured actions, ops per action —
    /// recorded as provenance.
    pub sizes: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub commits: u64,
    /// Wall-clock of the measured window.
    pub measured_s: f64,
    pub latency: Latency,
    pub net: NetCounters,
    pub wire: WireStats,
    /// Lock requests the lock manager refused inside the window.
    pub lock_refusals: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rss_start: u64,
    pub rss_end: u64,
    pub peak_rss: u64,
    pub input_hash: u64,
    /// Registry snapshot, counters and phases over the measured window only
    /// (traced passes only).
    pub obs: Option<MetricsSnapshot>,
    /// Workload-specific layer measurements `(metric, value)`.
    pub extra: Vec<(&'static str, f64)>,
    /// What the correctness gate found wrong (empty = correct).
    pub errors: Vec<String>,
    pub tracer: Tracer,
}

/// Segments a pass's measured window is cut into. A run's wall-clock
/// metrics are assembled segment by segment from the quietest repetition
/// of each (see `run::compose`), which strips the bursts of interference a
/// shared two-core box adds to any single pass.
pub const SEGMENTS: usize = 20;

/// One segment of a pass: its wall-clock and the nearest-rank percentiles
/// of the begin→commit wall-clock of the actions committed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub elapsed_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Per-commit latency of a pass: wall-clock begin→commit in µs and the
/// simulated latency of the same actions in ms, nearest-rank over every
/// committed action of the pass, plus the same wall-clock by segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub wall_p50_us: f64,
    pub wall_p99_us: f64,
    pub virt_p50_ms: f64,
    pub virt_p99_ms: f64,
    pub segments: Vec<Segment>,
}

impl Latency {
    /// From per-action samples (wall ns, virtual µs) and the window-relative
    /// time at which each segment ended.
    fn from_samples(mut wall_ns: Vec<u64>, mut virt_us: Vec<u64>, ends_ns: &[u64]) -> Latency {
        if wall_ns.is_empty() || virt_us.is_empty() {
            return Latency::uniform(0, 0, f64::NAN);
        }
        let n = wall_ns.len();
        let count = ends_ns.len();
        let mut scratch = Vec::new();
        let segments = (0..count)
            .map(|c| {
                scratch.clear();
                scratch.extend_from_slice(&wall_ns[c * n / count..(c + 1) * n / count]);
                scratch.sort_unstable();
                Segment {
                    elapsed_ns: ends_ns[c] - if c == 0 { 0 } else { ends_ns[c - 1] },
                    p50_ns: percentile_sorted(&scratch, 50.0),
                    p99_ns: percentile_sorted(&scratch, 99.0),
                }
            })
            .collect();
        wall_ns.sort_unstable();
        virt_us.sort_unstable();
        Latency {
            wall_p50_us: percentile_sorted(&wall_ns, 50.0) as f64 / 1e3,
            wall_p99_us: percentile_sorted(&wall_ns, 99.0) as f64 / 1e3,
            virt_p50_ms: percentile_sorted(&virt_us, 50.0) as f64 / 1e3,
            virt_p99_ms: percentile_sorted(&virt_us, 99.0) as f64 / 1e3,
            segments,
        }
    }

    /// Where the public call is one whole pass there are no per-action
    /// samples: the pass is one segment, and its time ÷ commits stands in
    /// for both percentiles.
    fn uniform(elapsed_ns: u64, commits: u64, virt_ms: f64) -> Latency {
        let per_commit_ns = elapsed_ns / commits.max(1);
        Latency {
            wall_p50_us: per_commit_ns as f64 / 1e3,
            wall_p99_us: per_commit_ns as f64 / 1e3,
            virt_p50_ms: virt_ms,
            virt_p99_ms: virt_ms,
            segments: vec![Segment {
                elapsed_ns,
                p50_ns: per_commit_ns,
                p99_ns: per_commit_ns,
            }],
        }
    }
}

/// Notes when each segment of a window of `total` actions ends.
struct SegmentClock {
    total: usize,
    count: usize,
    ends_ns: Vec<u64>,
}

impl SegmentClock {
    fn new(total: usize) -> Self {
        let count = SEGMENTS.min(total).max(1);
        SegmentClock {
            total,
            count,
            ends_ns: Vec::with_capacity(count),
        }
    }

    /// Call after action `i` (0-based) of the window finished.
    #[inline]
    fn tick(&mut self, i: usize, window: &Window) {
        if i + 1 == (self.ends_ns.len() + 1) * self.total / self.count {
            self.ends_ns.push(window.at.elapsed().as_nanos() as u64);
        }
    }
}

/// The measured window of a pass: counter readings taken at its first
/// action, diffed when it closes.
struct Window {
    at: Instant,
    virt_us: u64,
    net: NetCounters,
    wire: WireStats,
    lock_refusals: u64,
    allocs: u64,
    alloc_bytes: u64,
    rss: u64,
    /// The registry's counters (all zero in an unobserved world).
    counters: [u64; ObsCounter::COUNT],
}

fn net_since(now: NetCounters, then: NetCounters) -> NetCounters {
    NetCounters {
        delivered: now.delivered - then.delivered,
        dropped: now.dropped - then.dropped,
        to_down_node: now.to_down_node - then.to_down_node,
        partitioned: now.partitioned - then.partitioned,
        timeouts: now.timeouts - then.timeouts,
        crashes: now.crashes - then.crashes,
        recoveries: now.recoveries - then.recoveries,
        bytes_delivered: now.bytes_delivered - then.bytes_delivered,
    }
}

/// What a workload's drive loop counted, handed to [`Window::close`].
struct Tally {
    sizes: Vec<(&'static str, u64)>,
    attempted: u64,
    commits: u64,
    /// `None` where the public call is one whole pass.
    latency: Option<Latency>,
    input_hash: u64,
}

impl Window {
    fn open(sys: &System) -> Window {
        // Drop the spans set-up and warm-up recorded, so the registry's
        // phase statistics describe the measured window only.
        sys.obs().take_spans();
        Window {
            rss: procfs::rss_bytes(),
            virt_us: sys.sim().now().as_micros(),
            net: sys.sim().counters(),
            wire: wire::stats(),
            lock_refusals: sys.tx().stats().lock_refusals,
            allocs: alloc::calls(),
            alloc_bytes: alloc::bytes(),
            counters: ObsCounter::ALL.map(|c| sys.obs().get(c)),
            at: Instant::now(),
        }
    }

    /// Closes the window and assembles the pass. Call before the
    /// correctness gate runs so its reads are not measured.
    fn close(self, workload: &'static str, sys: &System, tally: Tally, tracer: Tracer) -> Pass {
        let Tally {
            sizes,
            attempted,
            commits,
            latency,
            input_hash,
        } = tally;
        let measured_s = self.at.elapsed().as_secs_f64();
        let allocs = alloc::calls() - self.allocs;
        let alloc_bytes = alloc::bytes() - self.alloc_bytes;
        let rss_end = procfs::rss_bytes();
        let obs = sys.obs().is_enabled().then(|| {
            let mut snapshot = sys.metrics_snapshot();
            for (now, then) in snapshot.counters.iter_mut().zip(self.counters) {
                *now -= then;
            }
            snapshot
        });
        let virt_window_us = sys.sim().now().as_micros() - self.virt_us;
        let latency = latency.unwrap_or_else(|| {
            Latency::uniform(
                (measured_s * 1e9) as u64,
                commits,
                virt_window_us as f64 / 1e3 / commits.max(1) as f64,
            )
        });
        Pass {
            workload,
            sizes,
            attempted,
            commits,
            measured_s,
            latency,
            net: net_since(sys.sim().counters(), self.net),
            wire: wire::stats().since(self.wire),
            lock_refusals: sys.tx().stats().lock_refusals - self.lock_refusals,
            allocs,
            alloc_bytes,
            rss_start: self.rss,
            rss_end,
            peak_rss: 0, // read after the gate, when the process is at its largest
            input_hash,
            obs,
            extra: Vec::new(),
            errors: Vec::new(),
            tracer,
        }
    }
}

fn node(i: usize) -> NodeId {
    NodeId::new(u32::try_from(i).expect("node index fits u32"))
}

fn note(errors: &mut Vec<String>, message: impl FnOnce() -> String) {
    if errors.len() < MAX_ERRORS {
        errors.push(message());
    }
}

fn builder(seed: u64, nodes: usize, policy: ReplicationPolicy, traced: bool) -> System {
    let b = System::builder(seed).nodes(nodes).policy(policy);
    if traced { b.observe() } else { b }.build()
}

/// The `REPLICAS` servers of object `i`, staggered over the server set so
/// every server hosts the same share.
fn placement(i: usize, servers: &[NodeId]) -> Vec<NodeId> {
    (0..REPLICAS)
        .map(|j| servers[(i + j) % servers.len()])
        .collect()
}

// ---------------------------------------------------------------------------
// Counter workloads: short_warm, wide_active, invoke_stream, invoke_batched,
// read_mostly
// ---------------------------------------------------------------------------

/// Shape of one counter workload.
#[derive(Debug, Clone, Copy)]
pub struct CounterShape {
    pub policy: ReplicationPolicy,
    pub objects: usize,
    pub warmup: usize,
    pub actions: usize,
    /// Operations per action.
    pub ops: usize,
    /// Operations per `invoke_batch` call; 1 uses plain `invoke`.
    pub batch: usize,
    /// Uniformly random object per action (else round-robin).
    pub uniform: bool,
    /// Percent of actions that are read-only (`activate_read_only` + `Get`).
    pub read_percent: u64,
}

pub fn counter_shape(name: &str, scale: Scale) -> Option<CounterShape> {
    let full = scale == Scale::Full;
    let pick = |f: usize, s: usize| if full { f } else { s };
    let base = CounterShape {
        policy: ReplicationPolicy::Active,
        objects: pick(2_000, 50),
        warmup: pick(4_000, 100),
        actions: 0,
        ops: 1,
        batch: 1,
        uniform: false,
        read_percent: 0,
    };
    Some(match name {
        "short_warm" => CounterShape {
            actions: pick(60_000, 400),
            ..base
        },
        "wide_active" => CounterShape {
            objects: pick(50_000, 400),
            warmup: pick(2_000, 100),
            actions: pick(16_000, 400),
            uniform: true,
            ..base
        },
        "invoke_stream" => CounterShape {
            warmup: pick(2_000, 50),
            actions: pick(10_000, 60),
            ops: 64,
            ..base
        },
        "invoke_batched" => CounterShape {
            warmup: pick(2_000, 50),
            actions: pick(20_000, 60),
            ops: 64,
            batch: 16,
            ..base
        },
        "read_mostly" => CounterShape {
            policy: ReplicationPolicy::CoordinatorCohort,
            actions: pick(60_000, 400),
            ops: 4,
            uniform: true,
            read_percent: 90,
            ..base
        },
        _ => return None,
    })
}

struct CounterRun<'a> {
    shape: CounterShape,
    client: &'a Client,
    handles: &'a [Handle<Counter>],
    model: Vec<i64>,
    errors: Vec<String>,
    tracer: Tracer,
    batch_ops: Vec<CounterOp>,
}

impl CounterRun<'_> {
    /// One action: begin, activate, `ops` operations, commit. Every reply
    /// is checked against the model. Returns whether it committed.
    fn action(&mut self, k: usize, read: bool, number: u32) -> bool {
        let t = &mut self.tracer;
        let handle = &self.handles[k];
        t.enter(span::BEGIN, number);
        let action = self.client.begin_action();
        t.exit();

        t.enter(span::ACTIVATE, number);
        let bound = if read {
            handle.activate_read_only(action, REPLICAS)
        } else {
            handle.activate(action, REPLICAS)
        };
        t.exit();
        if let Err(e) = bound {
            self.client.abort(action);
            note(&mut self.errors, || format!("activate failed: {e}"));
            return false;
        }

        let op = if read {
            CounterOp::Get
        } else {
            CounterOp::Add(1)
        };
        let step = i64::from(!read);
        let before = self.model[k];
        let mut value = before;
        let mut left = self.shape.ops;
        while left > 0 {
            let n = self.shape.batch.min(left);
            left -= n;
            t.enter(span::INVOKE, number);
            let ok = if self.shape.batch == 1 {
                match handle.invoke(action, op) {
                    Ok(reply) => {
                        value += step;
                        reply == value
                    }
                    Err(e) => {
                        note(&mut self.errors, || format!("invoke failed: {e}"));
                        false
                    }
                }
            } else {
                self.batch_ops.clear();
                self.batch_ops.resize(n, op);
                match handle.invoke_batch(action, &self.batch_ops) {
                    Ok(replies) => {
                        replies.len() == n
                            && replies.iter().all(|&reply| {
                                value += step;
                                reply == value
                            })
                    }
                    Err(e) => {
                        note(&mut self.errors, || format!("invoke_batch failed: {e}"));
                        false
                    }
                }
            };
            t.exit();
            if !ok {
                self.client.abort(action);
                note(&mut self.errors, || {
                    format!("object {k}: a reply disagrees with the model value {value}")
                });
                return false;
            }
        }

        t.enter(span::COMMIT, number);
        let committed = self.client.commit(action);
        t.exit();
        match committed {
            Ok(()) => {
                self.model[k] = value;
                true
            }
            Err(e) => {
                note(&mut self.errors, || format!("commit failed: {e}"));
                false
            }
        }
    }
}

/// Runs one counter workload pass.
pub fn run_counters(name: &'static str, shape: CounterShape, seed: u64, traced: bool) -> Pass {
    let sys = builder(seed, SERVERS + 2, shape.policy, traced);
    let servers: Vec<NodeId> = (1..=SERVERS).map(node).collect();
    let uids: Vec<TypedUid<Counter>> = (0..shape.objects)
        .map(|i| {
            let at = placement(i, &servers);
            sys.create_typed(Counter::new(0), &at, &at)
                .expect("create counter")
        })
        .collect();
    let client = sys.client(node(SERVERS + 1));
    let handles: Vec<Handle<Counter>> = uids.iter().map(|u| u.open(&client)).collect();

    let mut gen = SplitMix64::new(seed ^ 0x6F70_5F70_6963_6B73);
    let mut hash = InputHash::default();
    let mut run = CounterRun {
        shape,
        client: &client,
        handles: &handles,
        model: vec![0; shape.objects],
        errors: Vec::new(),
        tracer: Tracer::new(false),
        batch_ops: Vec::with_capacity(shape.batch),
    };
    let mut next_pick = |i: usize| {
        let k = if shape.uniform {
            gen.below(shape.objects as u64) as usize
        } else {
            i % shape.objects
        };
        let read = shape.read_percent > 0 && gen.percent(shape.read_percent);
        hash.fold(k as u64);
        hash.fold(u64::from(read));
        (k, read)
    };

    for i in 0..shape.warmup {
        let (k, read) = next_pick(i);
        run.action(k, read, 0);
    }

    let invokes = shape.ops.div_ceil(shape.batch);
    run.tracer.start(traced, shape.actions * (4 + invokes));
    let mut wall_ns = Vec::with_capacity(shape.actions);
    let mut virt_us = Vec::with_capacity(shape.actions);
    let mut commits = 0u64;
    let window = Window::open(&sys);
    let mut clock = SegmentClock::new(shape.actions);
    for i in 0..shape.actions {
        let (k, read) = next_pick(shape.warmup + i);
        let number = i as u32;
        let v0 = sys.sim().now();
        let t0 = Instant::now();
        run.tracer.enter(span::ACTION, number);
        let committed = run.action(k, read, number);
        run.tracer.exit();
        if committed {
            wall_ns.push(t0.elapsed().as_nanos() as u64);
            virt_us.push(sys.sim().now().since(v0).as_micros());
            commits += 1;
        }
        clock.tick(i, &window);
    }
    let CounterRun {
        model,
        errors,
        tracer,
        ..
    } = run;
    let mut pass = window.close(
        name,
        &sys,
        Tally {
            sizes: vec![
                ("objects", shape.objects as u64),
                ("warmup_actions", shape.warmup as u64),
                ("actions", shape.actions as u64),
                ("ops_per_action", shape.ops as u64),
                ("ops_per_invoke", shape.batch as u64),
                ("read_only_percent", shape.read_percent),
            ],
            attempted: shape.actions as u64,
            commits,
            latency: Some(Latency::from_samples(wall_ns, virt_us, &clock.ends_ns)),
            input_hash: hash.value(),
        },
        tracer,
    );

    // Gate: every store of every object holds exactly the model's value.
    pass.errors = errors;
    let expected: Vec<(Uid, i64)> = uids.iter().map(|u| u.uid()).zip(model).collect();
    let mut violations = check_counter_states(&sys, &expected);
    violations.truncate(MAX_ERRORS);
    pass.errors.extend(violations);
    pass.peak_rss = procfs::peak_rss_bytes();
    pass
}

// ---------------------------------------------------------------------------
// transfers
// ---------------------------------------------------------------------------

/// `(accounts, warm-up transfers, measured transfers)`.
pub fn transfer_sizes(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (2_000, 2_000, 30_000),
        Scale::Smoke => (50, 50, 300),
    }
}

/// Two-object `Tx` transfers between single-copy passive accounts.
pub fn run_transfers(scale: Scale, seed: u64, traced: bool) -> Pass {
    let (accounts, warmup, transfers) = transfer_sizes(scale);
    let sys = builder(
        seed,
        SERVERS + 2,
        ReplicationPolicy::SingleCopyPassive,
        traced,
    );
    let servers: Vec<NodeId> = (1..=SERVERS).map(node).collect();
    let uids: Vec<TypedUid<Account>> = (0..accounts)
        .map(|i| {
            let at = placement(i, &servers);
            sys.create_typed(Account::new(OPENING_BALANCE), &at, &at)
                .expect("create account")
        })
        .collect();
    let client = sys.client(node(SERVERS + 1));
    let handles: Vec<Handle<Account>> = uids.iter().map(|u| u.open(&client)).collect();

    let mut gen = SplitMix64::new(seed ^ 0x7472_616E_7366_6572);
    let mut hash = InputHash::default();
    let mut model = vec![OPENING_BALANCE; accounts];
    let mut errors = Vec::new();
    let mut tracer = Tracer::new(false);

    let mut wall_ns = Vec::with_capacity(transfers);
    let mut virt_us = Vec::with_capacity(transfers);
    let mut commits = 0u64;
    let mut window = None;
    let mut clock = SegmentClock::new(transfers);
    for i in 0..warmup + transfers {
        if i == warmup {
            tracer.start(traced, transfers * 5);
            window = Some(Window::open(&sys));
        }
        let from = gen.below(accounts as u64) as usize;
        // A distinct second account: shift by 1..accounts.
        let to = (from + 1 + gen.below(accounts as u64 - 1) as usize) % accounts;
        let amount = 1 + gen.below(5);
        hash.fold(from as u64);
        hash.fold(to as u64);
        hash.fold(amount);

        let number = i.saturating_sub(warmup) as u32;
        let v0 = sys.sim().now();
        let t0 = Instant::now();
        tracer.enter(span::ACTION, number);
        tracer.enter(span::BEGIN, number);
        let mut tx = client.begin();
        tracer.exit();
        tracer.enter(span::TX_INVOKE, number);
        let withdrawn = tx.invoke(&handles[from], AccountOp::Withdraw(amount));
        tracer.exit();
        tracer.enter(span::TX_INVOKE, number);
        let deposited = tx.invoke(&handles[to], AccountOp::Deposit(amount));
        tracer.exit();
        let legs_ok = match (withdrawn, deposited) {
            (Ok(w), Ok(d)) => w == model[from] - amount && d == model[to] + amount,
            (w, d) => {
                note(&mut errors, || {
                    format!("transfer {i}: invoke failed: {:?} / {:?}", w.err(), d.err())
                });
                false
            }
        };
        let committed = if legs_ok {
            tracer.enter(span::TX_COMMIT, number);
            let result = tx.commit();
            tracer.exit();
            if let Err(e) = &result {
                note(&mut errors, || format!("transfer {i}: commit failed: {e}"));
            }
            result.is_ok()
        } else {
            note(&mut errors, || {
                format!("transfer {i}: a reply disagrees with the model")
            });
            tx.abort();
            false
        };
        tracer.exit();
        if committed {
            model[from] -= amount;
            model[to] += amount;
            if i >= warmup {
                wall_ns.push(t0.elapsed().as_nanos() as u64);
                virt_us.push(sys.sim().now().since(v0).as_micros());
                commits += 1;
            }
        }
        if let Some(w) = window.as_ref() {
            clock.tick(i - warmup, w);
        }
    }
    let mut pass = window.expect("measured window opened").close(
        "transfers",
        &sys,
        Tally {
            sizes: vec![
                ("objects", accounts as u64),
                ("warmup_actions", warmup as u64),
                ("actions", transfers as u64),
                ("ops_per_action", 2),
            ],
            attempted: transfers as u64,
            commits,
            latency: Some(Latency::from_samples(wall_ns, virt_us, &clock.ends_ns)),
            input_hash: hash.value(),
        },
        tracer,
    );

    // Gate: store states equal the model's balances, and money is conserved.
    pass.errors = errors;
    let enc = WireEncoder::new();
    let expected: Vec<(Uid, Bytes)> = uids
        .iter()
        .zip(&model)
        .map(|(u, &b)| (u.uid(), Account::new(b).snapshot(&enc)))
        .collect();
    let mut violations = check_final_states(&sys, &expected);
    violations.truncate(MAX_ERRORS);
    pass.errors.extend(violations);
    let total: u64 = model.iter().sum();
    if total != OPENING_BALANCE * accounts as u64 {
        pass.errors
            .push(format!("money not conserved: total {total}"));
    }
    pass.peak_rss = procfs::peak_rss_bytes();
    pass
}

// ---------------------------------------------------------------------------
// crash_churn
// ---------------------------------------------------------------------------

/// `(counters, clients, actions per client, crash rounds)`.
pub fn churn_sizes(scale: Scale) -> (usize, usize, usize, usize) {
    match scale {
        Scale::Full => (64, 12, 250, 30),
        Scale::Smoke => (8, 3, 30, 2),
    }
}

/// Heals, recovers and sweeps the world to the fixpoint the oracle's
/// invariants are stated over (the steps the scenario crate's own
/// verification cycle takes between a run and its verdict).
fn quiesce(sys: &System) {
    let sim = sys.sim();
    sim.set_drop_probability(0.0);
    sim.heal_all();
    for n in sim.nodes() {
        sys.stores().disarm_crash_after_prepare(n);
        if sim.is_up(n) {
            sim.recover(n);
        } else {
            sys.recovery().recover_node(n);
        }
    }
    for _ in 0..50 {
        let mut settled = true;
        for n in sim.nodes() {
            if sim.is_up(n) {
                let mut report = sys.recovery().recover_store(n);
                report.merge(sys.recovery().recover_server(n));
                settled &= report.fully_recovered();
            }
        }
        if settled {
            break;
        }
    }
    for _ in 0..3 {
        if sys.cleanup().sweep(|_| false).deferred.is_empty() {
            break;
        }
    }
}

/// The scenario runner under rolling server crashes, judged by the oracle.
pub fn run_crash_churn(scale: Scale, seed: u64, traced: bool) -> Pass {
    let (counters, clients, per_client, rounds) = churn_sizes(scale);
    let sys = builder(seed, 7, ReplicationPolicy::Active, traced);
    let servers = [node(1), node(2), node(3)];
    let uids: Vec<Uid> = (0..counters)
        .map(|_| {
            sys.create_typed(Counter::new(0), &servers, &servers)
                .expect("create counter")
                .uid()
        })
        .collect();
    let kinds = vec![ModelKind::COUNTER; counters];
    let spec = WorkloadSpec::new(uids.clone(), vec![node(4), node(5), node(6)])
        .clients(clients)
        .actions_per_client(per_client)
        .ops_per_action(2)
        .replicas(2);
    // One server down 800 virtual ms in every 2 s, in rotation.
    let plan = rolling_crashes(
        seed,
        &servers,
        SimDuration::from_millis(200),
        SimDuration::from_millis(2_000),
        SimDuration::from_millis(800),
        rounds,
    );
    let mut hash = InputHash::default();
    for (_, offset) in plan.timed_events() {
        hash.fold(offset.as_micros());
    }

    let mut tracer = Tracer::new(traced);
    let window = Window::open(&sys);
    let run_start_us = sys.sim().now().as_micros();
    tracer.enter(span::RUN_PLAN, 0);
    let outcome = run_plan_typed(&sys, &spec, &plan, &kinds);
    tracer.exit();
    let metrics = &outcome.metrics;
    let mut pass = window.close(
        "crash_churn",
        &sys,
        Tally {
            sizes: vec![
                ("objects", counters as u64),
                ("clients", clients as u64),
                ("actions", (clients * per_client) as u64),
                ("ops_per_action", 2),
                ("crash_rounds", rounds as u64),
            ],
            attempted: metrics.attempts,
            commits: metrics.commits,
            latency: None,
            input_hash: hash.value(),
        },
        tracer,
    );
    // The runner keeps one virtual latency per attempted action.
    pass.latency.virt_p50_ms = metrics.action_latency_us.percentile(50.0) as f64 / 1e3;
    pass.latency.virt_p99_ms = metrics.action_latency_us.percentile(99.0) as f64 / 1e3;

    // Recovery gap: per crash, virtual time from the crash to the first
    // commit at or after it.
    let commit_times: Vec<u64> = outcome
        .history
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Committed))
        .map(|e| e.at.as_micros())
        .collect();
    let mut gaps: Vec<f64> = plan
        .events()
        .iter()
        .zip(plan.timed_events())
        .filter(|(e, _)| matches!(e.action, PlanAction::CrashNode(_)))
        .filter_map(|(_, (_, offset))| {
            let crash = run_start_us + offset.as_micros();
            let i = commit_times.partition_point(|&t| t < crash);
            commit_times.get(i).map(|&t| (t - crash) as f64 / 1_000.0)
        })
        .collect();
    gaps.sort_by(f64::total_cmp);

    // Gate: the oracle replays the history and checks the invariants on
    // the quiesced world.
    quiesce(&sys);
    let oracle = Oracle::new(
        uids.iter()
            .map(|&uid| ObjectModel {
                uid,
                kind: ModelKind::COUNTER,
                full_strength: servers.len(),
            })
            .collect(),
    );
    let verify_start = Instant::now();
    let verdict = oracle.verify(&sys, &outcome.history);
    let verify_ms = verify_start.elapsed().as_secs_f64() * 1_000.0;
    pass.errors
        .extend(verdict.violations.iter().take(MAX_ERRORS).cloned());
    if verdict.committed_actions != metrics.commits {
        pass.errors.push(format!(
            "oracle replayed {} commits, the runner counted {}",
            verdict.committed_actions, metrics.commits
        ));
    }
    if gaps.is_empty() {
        pass.errors.push("no crash was followed by a commit".into());
    }

    pass.extra = vec![
        ("recovery_gap_virt_ms", median(&gaps)),
        ("scenario.run_plan_s", pass.measured_s),
        (
            "scenario.steps_per_s",
            metrics.steps as f64 / pass.measured_s,
        ),
        ("scenario.oracle_verify_ms", verify_ms),
        ("scenario.history_events", outcome.history.len() as f64),
    ];
    pass.peak_rss = procfs::peak_rss_bytes();
    pass
}

// ---------------------------------------------------------------------------
// elastic_drain
// ---------------------------------------------------------------------------

/// Counters in the drained world (each on 3 of 5 servers).
pub fn drain_objects(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2_000,
        Scale::Smoke => 60,
    }
}

/// Drains one of five servers onto two added nodes, then rebalances.
pub fn run_elastic_drain(scale: Scale, seed: u64, traced: bool) -> Pass {
    let objects = drain_objects(scale);
    let sys = builder(seed, SERVERS + 1, ReplicationPolicy::Active, traced);
    let servers: Vec<NodeId> = (1..=SERVERS).map(node).collect();
    let membership = Membership::new(&sys);
    let added = [membership.add_node(), membership.add_node()];
    // Distinct values, so reading an object back proves it is the right one.
    let uids: Vec<TypedUid<Counter>> = (0..objects)
        .map(|i| {
            let at = placement(i, &servers);
            sys.create_typed(Counter::new(i as i64 + 1), &at, &at)
                .expect("create counter")
        })
        .collect();
    let victim = servers[0];
    let mut hash = InputHash::default();
    hash.fold(objects as u64);
    hash.fold(u64::from(victim.raw()));

    let mut tracer = Tracer::new(traced);
    let window = Window::open(&sys);
    let (mut moved, mut busy, mut failed) = (0u64, 0u64, 0u64);
    let mut step_ms = Vec::new();
    membership.begin_drain(victim);
    let drain_start = Instant::now();
    // A quiescent world drains in a few passes; the bound only stops a
    // drain that makes no progress from spinning.
    for pass_no in 0..32 {
        let t0 = Instant::now();
        tracer.enter(span::DRAIN_STEP, pass_no);
        let report = membership.drain_step(victim);
        tracer.exit();
        step_ms.push(t0.elapsed().as_secs_f64() * 1_000.0);
        moved += report.moved.len() as u64;
        busy += report.busy.len() as u64;
        failed += report.failed.len() as u64;
        if report.complete || report.moved.is_empty() {
            break;
        }
    }
    let drain_s = drain_start.elapsed().as_secs_f64();
    let drained = moved;

    let rebalancer = Rebalancer::default();
    let t0 = Instant::now();
    tracer.enter(span::PLAN, 0);
    let plan = rebalancer.plan(&membership);
    tracer.exit();
    let plan_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    tracer.enter(span::EXECUTE, 0);
    let report = rebalancer.execute(&membership, &plan);
    tracer.exit();
    moved += report.moved.len() as u64;
    busy += report.busy.len() as u64;
    failed += report.failed.len() as u64;

    let mut pass = window.close(
        "elastic_drain",
        &sys,
        Tally {
            sizes: vec![
                ("objects", objects as u64),
                (
                    "replicas_on_drained_node",
                    (objects * REPLICAS / SERVERS) as u64,
                ),
                ("added_nodes", added.len() as u64),
            ],
            attempted: moved + busy + failed,
            commits: moved,
            latency: None,
            input_hash: hash.value(),
        },
        tracer,
    );
    pass.extra = vec![
        ("membership.drain_step_ms", median(&step_ms)),
        (
            "membership.migrate_us",
            drain_s * 1e6 / drained.max(1) as f64,
        ),
        ("membership.plan_ms", plan_ms),
        ("membership.moves", moved as f64),
    ];

    // Gate: the drained node hosts nothing, every object still has three
    // Sv and three St members, and reads back its value through a client.
    if !membership.hosted(victim).is_empty() {
        pass.errors
            .push(format!("{victim} still hosts replicas after the drain"));
    }
    let client = sys.client(node(SERVERS));
    for (i, uid) in uids.iter().enumerate() {
        let sv = sys.naming().server_db.entry(uid.uid());
        let st = sys.naming().state_db.entry(uid.uid());
        let strength = (sv.map_or(0, |e| e.servers.len()), st.map_or(0, |e| e.len()));
        if strength != (REPLICAS, REPLICAS) {
            note(&mut pass.errors, || {
                format!("object {i}: |Sv|, |St| = {strength:?}, expected 3, 3")
            });
        }
        let handle = uid.open(&client);
        let action = client.begin_action();
        let read = handle
            .activate_read_only(action, 1)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                handle
                    .invoke(action, CounterOp::Get)
                    .map_err(|e| e.to_string())
            });
        match read {
            Ok(v) if v == i as i64 + 1 => {
                if let Err(e) = client.commit(action) {
                    note(&mut pass.errors, || format!("object {i}: read commit: {e}"));
                }
            }
            other => {
                client.abort(action);
                note(&mut pass.errors, || {
                    format!("object {i}: read back {other:?}, expected {}", i + 1)
                });
            }
        }
    }
    let expected: Vec<(Uid, i64)> = uids
        .iter()
        .enumerate()
        .map(|(i, u)| (u.uid(), i as i64 + 1))
        .collect();
    let mut violations = check_counter_states(&sys, &expected);
    violations.truncate(MAX_ERRORS);
    pass.errors.extend(violations);
    pass.peak_rss = procfs::peak_rss_bytes();
    pass
}

/// Runs one pass of the named workload.
///
/// # Errors
///
/// The name is not in [`NAMES`].
pub fn run(name: &str, scale: Scale, seed: u64, traced: bool) -> Result<Pass, String> {
    let name: &'static str = NAMES
        .iter()
        .copied()
        .find(|&n| n == name)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", NAMES.join(", ")))?;
    Ok(match name {
        "transfers" => run_transfers(scale, seed, traced),
        "crash_churn" => run_crash_churn(scale, seed, traced),
        "elastic_drain" => run_elastic_drain(scale, seed, traced),
        _ => {
            let shape = counter_shape(name, scale).expect("counter workload");
            run_counters(name, shape, seed, traced)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;

    fn smoke(name: &str, seed: u64, traced: bool) -> Pass {
        run(name, Scale::Smoke, seed, traced).expect("known workload")
    }

    /// Every workload passes its correctness gate at `--smoke` size, plain
    /// and traced, and yields every metric of the catalogue as a number.
    #[test]
    fn every_workload_passes_its_gate_at_smoke_size() {
        for name in NAMES {
            for traced in [false, true] {
                let pass = smoke(name, 1993, traced);
                assert!(pass.errors.is_empty(), "{name}: {:?}", pass.errors);
                assert!(pass.commits > 0 && pass.commits <= pass.attempted, "{name}");
                for (metric, value) in reduce::end_to_end(&pass) {
                    assert!(
                        value.is_finite() && value > 0.0,
                        "{name}: {metric} = {value}"
                    );
                }
                if traced {
                    span::validate(pass.tracer.spans()).expect("well-formed trace");
                    assert!(!pass.tracer.spans().is_empty(), "{name}: no spans");
                    let layer = reduce::traced(&pass);
                    assert_eq!(layer.len(), crate::catalogue::TRACED.len());
                    for ((metric, value), (listed, _)) in layer.iter().zip(crate::catalogue::TRACED)
                    {
                        assert_eq!(*metric, listed);
                        assert!(value.is_finite(), "{name}: {metric} = {value}");
                    }
                } else {
                    assert!(pass.tracer.spans().is_empty());
                }
            }
        }
    }

    #[test]
    fn fault_free_workloads_commit_everything() {
        for name in NAMES.iter().filter(|&&n| n != "crash_churn") {
            let pass = smoke(name, 7, false);
            assert_eq!(pass.commits, pass.attempted, "{name}");
        }
    }

    /// The generated inputs are a pure function of the seed.
    #[test]
    fn inputs_depend_on_the_seed_and_nothing_else() {
        for name in ["wide_active", "read_mostly", "transfers", "crash_churn"] {
            let a = smoke(name, 11, false);
            let b = smoke(name, 11, false);
            let c = smoke(name, 12, false);
            assert_eq!(a.input_hash, b.input_hash, "{name}");
            assert_ne!(a.input_hash, c.input_hash, "{name}");
            // Same seed, same world: the simulated outcome repeats exactly.
            assert_eq!(a.net, b.net, "{name}");
            assert_eq!(a.commits, b.commits, "{name}");
            assert_eq!(a.latency.virt_p99_ms, b.latency.virt_p99_ms, "{name}");
        }
    }

    #[test]
    fn tracing_does_not_change_what_the_world_does() {
        for name in ["short_warm", "transfers", "elastic_drain"] {
            let plain = smoke(name, 5, false);
            let traced = smoke(name, 5, true);
            assert_eq!(plain.net, traced.net, "{name}");
            assert_eq!(
                plain.latency.virt_p50_ms, traced.latency.virt_p50_ms,
                "{name}"
            );
            assert!(traced.obs.is_some() && plain.obs.is_none());
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run("nope", Scale::Smoke, 1, false).is_err());
    }
}
