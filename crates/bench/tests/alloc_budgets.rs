//! Exact heap-allocation counts of the hot paths, under one counting
//! global allocator (every heap allocation and reallocation is visible,
//! not just wire buffers), and the live heap a warm world keeps per object
//! (the allocator counts the bytes it hands out and takes back).
//!
//! A plain `harness = false` test: it runs on the main thread, in a fixed
//! order, so `cargo test` enforces every pin below. The counts are
//! deterministic and equal in the debug and release profiles, so each
//! window is pinned to the count it measures — a change that lowers one
//! updates its pin in the same diff, and a change that raises one fails.
//!
//! Every object-boundary window (3 replicas, steady state) runs three
//! times, each in a fresh world over the same op range (the action's
//! undo arena doubles at power-of-two op counts, so windows at different
//! offsets of one world would differ for reasons unrelated to what is
//! measured): observability never enabled (A, the pinned count), enabled
//! (B, which must record spans), and enabled through warm-up then
//! disabled (C, which must equal A exactly — the disabled observer adds
//! zero allocations).

use groupview_actions::ActionId;
use groupview_group::comms::DeliveryMode;
use groupview_group::member::GroupMember;
use groupview_group::GroupComms;
use groupview_membership::Membership;
use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, Handle, ObjectType, ReplicationPolicy, System,
};
use groupview_scenario::History;
use groupview_sim::{Bytes, NodeId, Sim, SimConfig, SimTime};
use groupview_store::Uid;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out (a reallocation counts its new size) and taken back
/// (a reallocation gives back its old size): their difference is the live
/// heap.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract is the system
// allocator's; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `SystemAlloc`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `SystemAlloc` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` performs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Bytes live on the heap now.
fn live_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed) - FREED.load(Ordering::Relaxed)
}

const POLICIES: [ReplicationPolicy; 3] = [
    ReplicationPolicy::Active,
    ReplicationPolicy::CoordinatorCohort,
    ReplicationPolicy::SingleCopyPassive,
];

/// Pinned counts per window, by policy (active, coordinator-cohort,
/// single-copy). A steady-state invoke allocates nothing; the 5 are the
/// undo arena doubling inside the window.
const ADD_INVOKES: [u64; 3] = [5, 5, 5];
/// One per batch: the returned reply vector (plus the arena's 5).
const BATCHES: [u64; 3] = [1_005; 3];
/// 2 per transfer: its two `Rc<Activation>`s. The commit allocates
/// nothing: each staged state waits in its activation, each prepared
/// store in the action record's recycled participant vector.
const TRANSFERS: [u64; 3] = [400; 3];
/// 1 per action: its `Rc<Activation>`.
const ACTIONS: [u64; 3] = [200; 3];
/// 1 per aborted action (activate, one `Add`, abort): its
/// `Rc<Activation>`. The undo replay's op-id list is the action
/// service's, kept between aborts.
const ABORTS: [u64; 3] = [200; 3];
/// 1 per read-only action (`activate_read_only`, one `Get`, commit): its
/// `Rc<Activation>`; a clean commit copies no state.
const READ_ACTIONS: [u64; 3] = [200; 3];
/// The read path: no undo snapshot, no dirty marking.
const GET_INVOKES: [u64; 3] = [0; 3];
/// Whole actions on never-activated counters (the `wide_active` shape):
/// the warm action's 1 each, plus what a first activation builds (the
/// replicas and their object boxes, and under active replication the
/// multicast group and its members), plus tables doubling. No reply
/// frame stays out of the pool once its action ends.
const COLD_ACTIONS: [u64; 3] = [2_442, 1_636, 836];

/// Counters in the retained-heap window, and warm actions run on each.
const RETAINED: (usize, u64) = (200, 8);
/// Live heap bytes a warm 3-replica counter keeps, by policy: its
/// replicas, their activation bookkeeping and (active) its multicast
/// group. No reply frame: a replica remembers at most the op a retry can
/// reach, and only coordinator-cohort fills that slot.
const RETAINED_PER_OBJECT: [u64; 3] = [1_049, 577, 288];

/// 1,000 transfers over `LEDGER` cold-started single-copy accounts: 2 per
/// transfer as in `TRANSFERS`, and nothing that the wider world adds.
/// None is a fresh frame: a commit retires 8-byte account states into the
/// frame pool, and the next invocation frame (17 bytes) reuses one, which
/// without the frame floor would reallocate.
const LEDGER_TRANSFERS: u64 = 2_000;

/// Accounts in the ledger window: the benchmark's `transfers` shape (five
/// servers, three-replica placement staggered over them, single-copy).
const LEDGER: usize = 2_000;

/// Objects in the drain windows: the benchmark's `elastic_drain` shape
/// (five servers, three-replica placement staggered over them, server 1
/// drained onto two added nodes) at two sizes.
const DRAINED: [usize; 2] = [300, 600];
/// One whole drain pass at each size (180 and 360 moves): 6 per
/// migration, plus 39 and 44 for the pass's own lists, which grow by
/// doubling with the world. A per-pick recount of the target loads
/// would allocate in every pick, more of them the larger the world, and
/// a trace note formatted while tracing is off would add one per move.
const DRAIN_PASSES: [u64; 2] = [1_119, 2_204];
/// Allocations per migration (whole part), equal at both sizes.
const DRAIN_PER_MOVE: u64 = 6;

/// Warm-up then measured units of the invoke and batch windows.
const OPS: (u64, u64) = (64, 1_000);
/// Warm-up then measured units of the whole-action windows.
const ACTS: (u64, u64) = (32, 200);

/// Collects every mismatch, so one run reports all moved pins.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, name: String, measured: u64, pinned: u64) {
        self.check_in("allocs", name, measured, pinned);
    }

    fn check_in(&mut self, unit: &str, name: String, measured: u64, pinned: u64) {
        println!("{name:<44} {measured:>7} {unit} (pinned {pinned})");
        if measured != pinned {
            self.0
                .push(format!("{name}: {measured} {unit}, pinned {pinned}"));
        }
    }

    /// Runs `warm` then `units` units of `run` in windows A, B and C (see
    /// the module docs), checks that B recorded spans and that C == A,
    /// and pins A.
    fn observed<W>(
        &mut self,
        name: String,
        pinned: u64,
        (warm, units): (u64, u64),
        world: impl Fn() -> (System, W),
        run: impl Fn(&W, u64),
    ) {
        let (_sys, w) = world();
        run(&w, warm);
        let a = allocs_in(|| run(&w, units));

        let (sys, w) = world();
        sys.obs().set_enabled(true);
        run(&w, warm);
        run(&w, units);
        if sys.obs().span_count() == 0 {
            self.0
                .push(format!("{name}: the observed window recorded no spans"));
        }

        let (sys, w) = world();
        sys.obs().set_enabled(true);
        run(&w, warm);
        sys.obs().set_enabled(false);
        let c = allocs_in(|| run(&w, units));
        if c != a {
            self.0.push(format!(
                "{name}: disabled observability must add zero allocations \
                 (never enabled {a}, re-disabled {c})"
            ));
        }
        self.check(name, a, pinned);
    }
}

/// A 3-replica world of `K` objects on servers 1..=3, opened by client 7.
fn world<O: ObjectType, const K: usize>(
    policy: ReplicationPolicy,
    init: fn() -> O,
) -> (System, [Handle<O>; K]) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(NodeId::new).collect();
    let uids: [_; K] = std::array::from_fn(|_| {
        sys.create_typed(init(), &servers, &servers)
            .expect("create")
    });
    let client = sys.client(NodeId::new(7));
    (sys, uids.map(|uid| uid.open(&client)))
}

/// A counter activated on 3 replicas inside one open action.
fn activated(policy: ReplicationPolicy) -> (System, (Handle<Counter>, ActionId)) {
    let (sys, [handle]) = world(policy, || Counter::new(0));
    let action = handle.client().begin_action();
    handle.activate(action, 3).expect("activate");
    (sys, (handle, action))
}

fn invokes(op: CounterOp) -> impl Fn(&(Handle<Counter>, ActionId), u64) {
    move |(handle, action), n| {
        for _ in 0..n {
            black_box(handle.invoke(*action, op).expect("invoke"));
        }
    }
}

fn batches((handle, action): &(Handle<Counter>, ActionId), n: u64) {
    for _ in 0..n {
        let ops = [CounterOp::Add(1); 16];
        black_box(handle.invoke_batch(*action, &ops).expect("batch"));
    }
}

/// Whole two-account transfers: begin, two auto-activating invokes, and
/// one store 2PC over both objects.
fn transfers([a, b]: &[Handle<Account>; 2], n: u64) {
    for _ in 0..n {
        let mut tx = a.client().begin().with_replicas(3);
        black_box(tx.invoke(a, AccountOp::Deposit(1)).expect("first leg"));
        black_box(tx.invoke(b, AccountOp::Deposit(1)).expect("second leg"));
        tx.commit().expect("commit");
    }
}

/// `LEDGER` accounts of 1,000,000 on servers 1..=5, opened by client 6.
fn ledger() -> (System, Vec<Handle<Account>>) {
    let sys = System::builder(1993)
        .nodes(7)
        .policy(ReplicationPolicy::SingleCopyPassive)
        .build();
    let client = sys.client(NodeId::new(6));
    let handles = (0..LEDGER)
        .map(|i| {
            let at: Vec<NodeId> = (0..3)
                .map(|j| NodeId::new(1 + ((i + j) % 5) as u32))
                .collect();
            let uid = sys.create_typed(Account::new(1_000_000), &at, &at);
            uid.expect("create").open(&client)
        })
        .collect();
    (sys, handles)
}

/// Transfers between accounts spread over the whole ledger, the `n`
/// after the `done` already made (a Weyl sequence picks the pairs).
fn ledger_transfers(accounts: &[Handle<Account>], done: u64, n: u64) {
    let len = accounts.len() as u64;
    for i in done..done + n {
        let from = (i * 7_919) % len;
        let to = (from + 1 + (i * 104_729) % (len - 1)) % len;
        let mut tx = accounts[0].client().begin();
        let amount = 1 + i % 5;
        let (a, b) = (&accounts[from as usize], &accounts[to as usize]);
        black_box(tx.invoke(a, AccountOp::Withdraw(amount)).expect("withdraw"));
        black_box(tx.invoke(b, AccountOp::Deposit(amount)).expect("deposit"));
        tx.commit().expect("commit");
    }
}

/// One whole single-object action: begin, activate, one `Add`, commit.
fn add_action(handle: &Handle<Counter>) {
    let client = handle.client();
    let action = client.begin_action();
    handle.activate(action, 3).expect("activate");
    black_box(handle.invoke(action, CounterOp::Add(1)).expect("add"));
    client.commit(action).expect("commit");
}

/// Whole warm single-object actions (the activation joins the live one):
/// the shape of a `short_warm` commit.
fn actions([handle]: &[Handle<Counter>; 1], n: u64) {
    for _ in 0..n {
        add_action(handle);
    }
}

/// Whole warm actions that abort after one `Add`, which the abort undoes.
fn aborts([handle]: &[Handle<Counter>; 1], n: u64) {
    let client = handle.client();
    for _ in 0..n {
        let action = client.begin_action();
        handle.activate(action, 3).expect("activate");
        black_box(handle.invoke(action, CounterOp::Add(1)).expect("add"));
        client.abort(action);
    }
}

/// Whole warm read-only actions: the `read_mostly` reader's shape.
fn read_actions([handle]: &[Handle<Counter>; 1], n: u64) {
    let client = handle.client();
    for _ in 0..n {
        let action = client.begin_action();
        handle.activate_read_only(action, 3).expect("activate");
        black_box(handle.invoke(action, CounterOp::Get).expect("get"));
        client.commit(action).expect("commit");
    }
}

/// Counters in the cold windows: one per warm-up and measured action.
const COLD: usize = (ACTS.0 + ACTS.1) as usize;

/// Counters, and how many of them an action has touched.
type Cold = ([Handle<Counter>; COLD], Cell<usize>);

/// `COLD` never-activated counters, none touched yet.
fn cold_world(policy: ReplicationPolicy) -> (System, Cold) {
    let (sys, handles) = world(policy, || Counter::new(0));
    (sys, (handles, Cell::new(0)))
}

/// Whole actions, each on the next never-activated counter: the shape of
/// a `wide_active` commit.
fn cold_actions((handles, used): &Cold, n: u64) {
    for _ in 0..n {
        add_action(&handles[used.get()]);
        used.set(used.get() + 1);
    }
}

/// Fresh wire buffers the measured cold actions create, after warm-up:
/// none, since a finished action keeps no frame out of the pool.
fn cold_frames(policy: ReplicationPolicy) -> u64 {
    let (warm, units) = ACTS;
    let (_sys, w) = cold_world(policy);
    cold_actions(&w, warm);
    let before = groupview_sim::wire::stats();
    cold_actions(&w, units);
    groupview_sim::wire::stats().since(before).buffer_allocs
}

/// Live heap bytes per counter that `RETAINED.1` warm actions on each of
/// `RETAINED.0` counters leave behind.
fn retained_per_object(policy: ReplicationPolicy) -> u64 {
    let (objects, rounds) = RETAINED;
    let (_sys, handles) = world::<Counter, { RETAINED.0 }>(policy, || Counter::new(0));
    let before = live_bytes();
    for handle in &handles {
        for _ in 0..rounds {
            add_action(handle);
        }
    }
    (live_bytes() - before) / objects as u64
}

/// Replies with a static ack, isolating the protocol's allocations from
/// the member implementation's.
struct StaticAckMember;

impl GroupMember for StaticAckMember {
    fn deliver(&mut self, _seq: u64, msg: &Bytes) -> Bytes {
        black_box(msg.len());
        Bytes::from_static(b"ack")
    }
}

/// Heap allocations of 1,000 reliable-ordered multicasts to `members`
/// static-ack members, after 8 warm-up multicasts: the fan-out shares one
/// message buffer with every member.
fn multicasts(members: u32) -> u64 {
    let sim = Sim::new(SimConfig::new(5).with_nodes(members as usize + 1));
    let comms = GroupComms::new(&sim);
    let group = comms.create_group(DeliveryMode::ReliableOrdered);
    for m in 1..=members {
        let member = Rc::new(RefCell::new(StaticAckMember));
        comms.join(group, NodeId::new(m), member).expect("join");
    }
    let msg = Bytes::from_static(b"operation");
    let send = |n| {
        for _ in 0..n {
            black_box(
                comms
                    .multicast(group, NodeId::new(0), &msg)
                    .expect("multicast"),
            );
        }
    };
    send(8);
    allocs_in(|| send(1_000))
}

/// Heap allocations of recording 10,000 committed ops (one `Invoked` and
/// one `Committed` event each, sharing refcounted op and reply buffers).
fn recorded(mut history: History) -> u64 {
    let uid = Uid::from_raw(1);
    let op = Bytes::from(vec![1u8, 1, 0, 0, 0, 0, 0, 0, 0]);
    let reply = Bytes::from(7i64.to_le_bytes().to_vec());
    let count = allocs_in(|| {
        for i in 0..10_000 {
            let at = SimTime::from_micros(i);
            history.invoked(at, 0, i, uid, op.clone(), reply.clone(), true);
            history.committed(at, 0, i, uid);
        }
    });
    black_box(history.len());
    count
}

/// Allocations and migrations of one pass draining server 1 of a world of
/// `objects` counters onto two added nodes.
fn drain_pass(objects: usize) -> (u64, u64) {
    let sys = System::builder(1993).nodes(6).build();
    let membership = Membership::new(&sys);
    membership.add_node();
    membership.add_node();
    for i in 0..objects {
        let at: Vec<NodeId> = (0..3)
            .map(|j| NodeId::new(1 + ((i + j) % 5) as u32))
            .collect();
        sys.create_typed(Counter::new(0), &at, &at).expect("create");
    }
    let victim = NodeId::new(1);
    membership.begin_drain(victim);
    let mut report = None;
    let count = allocs_in(|| report = Some(membership.drain_step(victim)));
    let report = report.expect("the pass ran");
    assert!(report.complete, "a quiescent world drains in one pass");
    (count, report.moved.len() as u64)
}

fn main() {
    let mut pins = Pins::default();
    for (i, p) in POLICIES.into_iter().enumerate() {
        let n = |window: &str| format!("{window}/{p}");
        let (counter, add) = (|| activated(p), invokes(CounterOp::Add(1)));
        pins.observed(n("invoke Add ×1000"), ADD_INVOKES[i], OPS, counter, add);
        pins.observed(n("batch of 16 ×1000"), BATCHES[i], OPS, counter, batches);
        let accounts = || world(p, || Account::new(0));
        pins.observed(n("Tx ×200"), TRANSFERS[i], ACTS, accounts, transfers);
        let warm = || world(p, || Counter::new(0));
        pins.observed(n("warm action ×200"), ACTIONS[i], ACTS, warm, actions);
        pins.observed(n("aborted Add action ×200"), ABORTS[i], ACTS, warm, aborts);
        let reads = READ_ACTIONS[i];
        pins.observed(n("read-only action ×200"), reads, ACTS, warm, read_actions);
        let get = invokes(CounterOp::Get);
        pins.observed(n("invoke Get ×1000"), GET_INVOKES[i], OPS, counter, get);
        let cold = || cold_world(p);
        pins.observed(
            n("cold action ×200"),
            COLD_ACTIONS[i],
            ACTS,
            cold,
            cold_actions,
        );
        let frames = cold_frames(p);
        pins.check_in("frames", n("cold action ×200, fresh"), frames, 0);
        let retained = retained_per_object(p);
        let name = n("warm counter, retained");
        pins.check_in("bytes", name, retained, RETAINED_PER_OBJECT[i]);
    }
    let (_sys, accounts) = ledger();
    ledger_transfers(&accounts, 0, LEDGER as u64);
    let count = allocs_in(|| ledger_transfers(&accounts, LEDGER as u64, 1_000));
    let name = format!("Tx ×1000/{LEDGER} single-copy accounts");
    pins.check(name, count, LEDGER_TRANSFERS);
    for members in [1, 3, 5, 9] {
        let name = format!("multicast ×1000/{members} members");
        pins.check(name, multicasts(members), 0);
    }
    for (objects, pinned) in DRAINED.into_iter().zip(DRAIN_PASSES) {
        let (count, moves) = drain_pass(objects);
        let name = format!("drain pass/{objects} objects, {moves} moves");
        pins.check(name, count, pinned);
        let name = format!("drain pass/{objects} objects, per move");
        pins.check(name, count / moves, DRAIN_PER_MOVE);
    }
    let (presized, growing) = (History::with_capacity(20_000), History::new());
    pins.check("history ×10000 ops/presized".into(), recorded(presized), 0);
    pins.check("history ×10000 ops/growing".into(), recorded(growing), 14);

    if !pins.0.is_empty() {
        eprintln!("\nallocation pins moved:\n  {}", pins.0.join("\n  "));
        std::process::exit(1);
    }
}
