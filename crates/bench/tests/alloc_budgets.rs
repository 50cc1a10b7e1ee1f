//! Exact heap-allocation counts of the hot paths, under one counting
//! global allocator (every heap allocation and reallocation is visible,
//! not just wire buffers).
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
use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, Handle, ObjectType, ReplicationPolicy, System,
};
use groupview_scenario::History;
use groupview_sim::{Bytes, NodeId, Sim, SimConfig, SimTime};
use groupview_store::Uid;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract is the system
// allocator's; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `SystemAlloc`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

const POLICIES: [ReplicationPolicy; 3] = [
    ReplicationPolicy::Active,
    ReplicationPolicy::CoordinatorCohort,
    ReplicationPolicy::SingleCopyPassive,
];

/// Pinned counts per window, by policy (active, coordinator-cohort,
/// single-copy). A steady-state invoke allocates nothing; the 5 are the
/// undo arena doubling inside the window.
const ADD_INVOKES: [u64; 3] = [5, 5, 5];
/// The batched path's own vectors, including the returned reply vector.
const BATCHES: [u64; 3] = [13_005, 9_005, 9_005];
/// 6 per transfer: two `Rc<Activation>`s and the commit's four
/// bookkeeping vectors (its activations, the dirty ones, their new
/// states, the staged participants).
const TRANSFERS: [u64; 3] = [1_200; 3];
/// 5 per action: one `Rc<Activation>` and the same four commit vectors.
const ACTIONS: [u64; 3] = [1_000; 3];
/// The read path: no undo snapshot, no dirty marking.
const GET_INVOKES: [u64; 3] = [0; 3];

/// Warm-up then measured units of the invoke and batch windows.
const OPS: (u64, u64) = (64, 1_000);
/// Warm-up then measured units of the whole-action windows.
const ACTS: (u64, u64) = (32, 200);

/// Collects every mismatch, so one run reports all moved pins.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, name: String, measured: u64, pinned: u64) {
        println!("{name:<44} {measured:>7} allocs (pinned {pinned})");
        if measured != pinned {
            self.0
                .push(format!("{name}: {measured} allocations, pinned {pinned}"));
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

/// Whole warm single-object actions (begin, activate joining the live
/// activation, one `Add`, commit): the shape of a `short_warm` commit.
fn actions([handle]: &[Handle<Counter>; 1], n: u64) {
    for _ in 0..n {
        let client = handle.client();
        let action = client.begin_action();
        handle.activate(action, 3).expect("activate");
        black_box(handle.invoke(action, CounterOp::Add(1)).expect("add"));
        client.commit(action).expect("commit");
    }
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
        let get = invokes(CounterOp::Get);
        pins.observed(n("invoke Get ×1000"), GET_INVOKES[i], OPS, counter, get);
    }
    for members in [1, 3, 5, 9] {
        let name = format!("multicast ×1000/{members} members");
        pins.check(name, multicasts(members), 0);
    }
    let (presized, growing) = (History::with_capacity(20_000), History::new());
    pins.check("history ×10000 ops/presized".into(), recorded(presized), 0);
    pins.check("history ×10000 ops/growing".into(), recorded(growing), 14);

    if !pins.0.is_empty() {
        eprintln!("\nallocation pins moved:\n  {}", pins.0.join("\n  "));
        std::process::exit(1);
    }
}
