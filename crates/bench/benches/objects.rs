//! Object-boundary allocation cost: heap allocations per invocation, per
//! batch and per transaction, by replication policy, measured with a
//! counting global allocator (every heap allocation is visible, not just
//! wire buffers).
//!
//! This is the ROADMAP's "hot-path allocation" scoreboard for the
//! `ReplicaObject` boundary. The encoder-aware object trait writes replica
//! replies and undo snapshots through the pooled `WireEncoder` instead of
//! returning fresh `Vec<u8>`s, and the typed `Handle` encodes the operation
//! into a pooled frame instead of a caller-side vector — so the steady-state
//! budgets below are **asserted**, not just printed. CI fails if the object
//! boundary regresses into allocating again.
//!
//! Budgets (3 replicas, steady state):
//!
//! * **Per invoke: 1/1/1** (active / coordinator-cohort / single-copy).
//!   Frames recycle whole — shared header and vector — through a
//!   per-thread pool, a multicast reuses its member and reply lists, and
//!   the cohort invoke reuses its cohort list, so a steady-state invoke
//!   allocates nothing: measured 0.005 under every policy (the remainder
//!   is the action's undo arena doubling inside the window).
//! * **Per 16-op batch: 14/10/10**, measured + 1 (measured 13.005 / 9.005
//!   / 9.005: the batched path's own vectors, ROADMAP item 5(a), including
//!   the returned reply vector).
//! * **Per two-object transaction: 7/7/7**, measured + 1. The window
//!   measures a whole two-account transfer through the typed `Tx` surface
//!   — begin, two auto-activating invokes, and a commit driving one store
//!   2PC over the union of both objects. Measured 6.0 under every policy:
//!   two `Rc<Activation>`s and the commit's four bookkeeping vectors
//!   (its activations, the dirty ones, their new states, the staged
//!   participants). Node lists are inline, participants live by value in
//!   the recycled action record, and each store reuses the write-set of
//!   its last committed intent.
//! * **Per single-object action: 6/6/6**, measured + 1. One warm action
//!   — begin, activate (joining the live activation), one `Add`, commit —
//!   the shape of a `short_warm` commit. Measured 5.0 under every policy:
//!   one `Rc<Activation>` and the same four commit vectors.
//!
//! Every scoreboard carries the same exact-equality gate: a window run
//! with observability switched off after warmup allocates exactly what a
//! never-observed window does.

use criterion::{criterion_group, criterion_main, Criterion};
use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, Handle, ReplicationPolicy, System,
};
use groupview_sim::NodeId;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

const POLICIES: [ReplicationPolicy; 3] = [
    ReplicationPolicy::Active,
    ReplicationPolicy::CoordinatorCohort,
    ReplicationPolicy::SingleCopyPassive,
];

/// Allocations per 16-op batch, by policy: measured + 1.
const BATCH_BUDGETS: [f64; 3] = [14.0, 10.0, 10.0];

/// Allocations per whole single-object action, every policy: measured + 1.
const ACTION_BUDGET: f64 = 6.0;

/// Builds a 3-replica world and an activated typed handle, mid-action.
fn activated(policy: ReplicationPolicy) -> (System, Handle<Counter>, groupview_actions::ActionId) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(n).collect();
    let uid = sys
        .create_typed(Counter::new(0), &servers, &servers)
        .expect("create");
    let client = sys.client(n(7));
    let handle = uid.open(&client);
    let action = client.begin_action();
    handle.activate(action, 3).expect("activate");
    (sys, handle, action)
}

/// One unit of work on an activated counter: a single invoke, or a batch.
type Unit = fn(&Handle<Counter>, groupview_actions::ActionId);

/// Ops per unit of the batch scoreboard.
const BATCH: usize = 16;

fn one_invoke(handle: &Handle<Counter>, action: groupview_actions::ActionId) {
    black_box(handle.invoke(action, CounterOp::Add(1)).expect("invoke"));
}

fn one_batch(handle: &Handle<Counter>, action: groupview_actions::ActionId) {
    let ops = [CounterOp::Add(1); BATCH];
    black_box(handle.invoke_batch(action, &ops).expect("batch"));
}

/// One measured window: total heap allocations across `units` units.
fn measure_window(
    handle: &Handle<Counter>,
    action: groupview_actions::ActionId,
    unit: Unit,
    units: u64,
) -> u64 {
    let before = allocs();
    for _ in 0..units {
        unit(handle, action);
    }
    allocs() - before
}

/// Measures steady-state heap allocations per unit (one typed write
/// invocation, or one batch) in three windows — observability disabled
/// (A), enabled (B), enabled through warmup then disabled for the window
/// (C) — asserting the policy's budget on A and **exact** equality of C
/// and A: the disabled observer must add zero allocations per unit, not
/// just stay under budget.
///
/// Each window runs in its own fresh world over the *same op range*:
/// allocation counts are deterministic but op-offset-dependent (the
/// action's undo stack doubles at power-of-2 op counts), so windows at
/// different offsets in one world would differ for reasons that have
/// nothing to do with observability.
fn report_policy(scoreboard: &str, per: &str, unit: Unit, policy: ReplicationPolicy, budget: f64) {
    const UNITS: u64 = 1_000;
    const WARM: u64 = 64;
    // Warm up: fill the frame pool, the dedup ring, and the undo stack's
    // growth so the measured window is steady state.
    let warm = |handle: &Handle<Counter>, action| {
        measure_window(handle, action, unit, WARM);
    };

    // Window A: observability off for the world's whole life.
    let (_sys, handle, action) = activated(policy);
    warm(&handle, action);
    let window_a = measure_window(&handle, action, unit, UNITS);
    let per_unit = window_a as f64 / UNITS as f64;

    // Window B: observability ON — reported for context, not gated (span
    // recording legitimately grows the span vec).
    let (sys, handle, action) = activated(policy);
    sys.obs().set_enabled(true);
    warm(&handle, action);
    let window_b = measure_window(&handle, action, unit, UNITS);
    let spans_recorded = sys.obs().span_count();

    // Window C: enabled through warmup (so the registry has live state),
    // then disabled for the measured window — bit-identical to A or the
    // "zero-cost when off" contract is broken.
    let (sys, handle, action) = activated(policy);
    sys.obs().set_enabled(true);
    warm(&handle, action);
    sys.obs().set_enabled(false);
    let window_c = measure_window(&handle, action, unit, UNITS);

    let name = format!("objects/{scoreboard}/{policy}");
    println!(
        "{name:<52} {per_unit:>8.3} allocs/{per} (budget {budget}) \
         | observed {:.3} | re-disabled {:.3}",
        window_b as f64 / UNITS as f64,
        window_c as f64 / UNITS as f64,
    );
    if std::env::var_os("OBJECTS_BENCH_NO_ASSERT").is_none() {
        assert!(
            per_unit <= budget,
            "{name}: object-boundary allocations regressed: \
             {per_unit:.3} allocs/{per} exceeds the budget of {budget}"
        );
        assert!(
            spans_recorded > 0,
            "{name}: the observed window recorded no spans — window B measured nothing"
        );
        assert_eq!(
            window_c, window_a,
            "{name}: disabled observability must add zero allocations \
             (window A={window_a}, window C={window_c} over {UNITS} units)"
        );
    }
}

/// The asserted scoreboard: the encoder-aware object boundary must keep
/// per-invoke heap allocations at or under the post-redesign budgets.
fn bench_invoke_heap_allocs(_c: &mut Criterion) {
    for policy in POLICIES {
        report_policy("invoke_heap_allocs", "op", one_invoke, policy, 1.0);
    }
}

/// The batch scoreboard: one `invoke_batch` of [`BATCH`] writes per unit,
/// which also pays for the returned reply vector.
fn bench_invoke_batch_heap_allocs(_c: &mut Criterion) {
    for (policy, budget) in POLICIES.into_iter().zip(BATCH_BUDGETS) {
        report_policy(
            "invoke_batch_heap_allocs",
            "batch",
            one_batch,
            policy,
            budget,
        );
    }
}

/// Builds a 3-replica world with two accounts opened on one client,
/// ready for typed transactions.
fn tx_world(policy: ReplicationPolicy) -> (System, (Handle<Account>, Handle<Account>)) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(n).collect();
    let a = sys
        .create_typed(Account::new(0), &servers, &servers)
        .expect("create");
    let b = sys
        .create_typed(Account::new(0), &servers, &servers)
        .expect("create");
    let client = sys.client(n(7));
    let accounts = (a.open(&client), b.open(&client));
    (sys, accounts)
}

/// One measured window: total heap allocations across `txs` complete
/// two-object transactions (begin → two invokes → commit).
fn measure_tx_window((ha, hb): &(Handle<Account>, Handle<Account>), txs: u64) -> u64 {
    let before = allocs();
    for _ in 0..txs {
        let mut tx = ha.client().begin().with_replicas(3);
        black_box(tx.invoke(ha, AccountOp::Deposit(1)).expect("first leg"));
        black_box(tx.invoke(hb, AccountOp::Deposit(1)).expect("second leg"));
        tx.commit().expect("commit");
    }
    allocs() - before
}

/// Builds a 3-replica world with one counter opened on one client, ready
/// for whole actions.
fn action_world(policy: ReplicationPolicy) -> (System, Handle<Counter>) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(n).collect();
    let uid = sys
        .create_typed(Counter::new(0), &servers, &servers)
        .expect("create");
    let client = sys.client(n(7));
    let handle = uid.open(&client);
    (sys, handle)
}

/// One measured window: total heap allocations across `actions` complete
/// single-object actions (begin → activate → `Add` → commit), the shape of
/// one `short_warm` commit.
fn measure_action_window(handle: &Handle<Counter>, actions: u64) -> u64 {
    let before = allocs();
    for _ in 0..actions {
        let client = handle.client();
        let action = client.begin_action();
        handle.activate(action, 3).expect("activate");
        black_box(handle.invoke(action, CounterOp::Add(1)).expect("add"));
        client.commit(action).expect("commit");
    }
    allocs() - before
}

/// Steady-state heap allocations per whole action, with the same A/B/C
/// window structure as the per-invoke scoreboard: budget asserted on the
/// observer-off window A, window B (observer on) reported for context,
/// window C (re-disabled) gated to **exact** equality with A. Each window
/// runs `UNITS` whole actions in a fresh world built by `world`.
fn report_action_policy<W>(
    scoreboard: &str,
    per: &str,
    policy: ReplicationPolicy,
    budget: f64,
    world: fn(ReplicationPolicy) -> (System, W),
    window: fn(&W, u64) -> u64,
) {
    const UNITS: u64 = 200;
    const WARM: u64 = 32;

    let (_sys, w) = world(policy);
    window(&w, WARM);
    let window_a = window(&w, UNITS);
    let per_unit = window_a as f64 / UNITS as f64;

    let (sys, w) = world(policy);
    sys.obs().set_enabled(true);
    window(&w, WARM);
    let window_b = window(&w, UNITS);
    let spans_recorded = sys.obs().span_count();

    let (sys, w) = world(policy);
    sys.obs().set_enabled(true);
    window(&w, WARM);
    sys.obs().set_enabled(false);
    let window_c = window(&w, UNITS);

    let name = format!("objects/{scoreboard}/{policy}");
    println!(
        "{name:<52} {per_unit:>8.3} allocs/{per} (budget {budget}) \
         | observed {:.3} | re-disabled {:.3}",
        window_b as f64 / UNITS as f64,
        window_c as f64 / UNITS as f64,
    );
    if std::env::var_os("OBJECTS_BENCH_NO_ASSERT").is_none() {
        assert!(
            per_unit <= budget,
            "{name}: whole-action allocations regressed: \
             {per_unit:.3} allocs/{per} exceeds the budget of {budget}"
        );
        assert!(
            spans_recorded > 0,
            "{name}: the observed window recorded no spans"
        );
        assert_eq!(
            window_c, window_a,
            "{name}: disabled observability must add zero allocations \
             (window A={window_a}, window C={window_c} over {UNITS} {per}s)"
        );
    }
}

/// The transaction scoreboard: one whole two-object transfer per unit —
/// begin, two auto-activating invokes, commit (one 2PC over both objects).
fn bench_tx_heap_allocs(_c: &mut Criterion) {
    for policy in POLICIES {
        report_action_policy(
            "tx_heap_allocs",
            "tx",
            policy,
            7.0,
            tx_world,
            measure_tx_window,
        );
    }
}

/// The action scoreboard: one whole single-object action per unit —
/// begin, activate (joining the warm activation), one `Add`, commit.
fn bench_action_heap_allocs(_c: &mut Criterion) {
    for policy in POLICIES {
        report_action_policy(
            "action_heap_allocs",
            "action",
            policy,
            ACTION_BUDGET,
            action_world,
            measure_action_window,
        );
    }
}

/// Read path for contrast (no undo snapshot, no dirty marking).
fn bench_read_heap_allocs(_c: &mut Criterion) {
    const OPS: u64 = 1_000;
    let (_sys, handle, action) = activated(ReplicationPolicy::Active);
    for _ in 0..64 {
        black_box(handle.invoke(action, CounterOp::Get).expect("read"));
    }
    let before = allocs();
    for _ in 0..OPS {
        black_box(handle.invoke(action, CounterOp::Get).expect("read"));
    }
    let per_op = (allocs() - before) as f64 / OPS as f64;
    println!("objects/read_heap_allocs/active                  {per_op:>8.3} allocs/op");
}

criterion_group!(
    benches,
    bench_invoke_heap_allocs,
    bench_invoke_batch_heap_allocs,
    bench_tx_heap_allocs,
    bench_action_heap_allocs,
    bench_read_heap_allocs
);
criterion_main!(benches);
