//! Probes: each crate's public functions driven alone, outside the
//! assembled store. Fixed iteration counts; a probe's value is the median
//! over [`BATCHES`] batches of the mean cost of one call.
//!
//! Probes give the unit costs the estimated attribution multiplies by the
//! per-commit counts of a traced run; they are also the isolated half of
//! "every mechanism timed in isolation and inside the assembled store".

use crate::stats::median;
use groupview_actions::lock::{LockManager, MapAncestry};
use groupview_actions::{
    ActionId, LockKey, LockMode, StoreWriteParticipant, TxSystem, UndoApplier, UndoArena,
};
use groupview_core::{BindRequest, BindingScheme, ExcludePolicy, NamingService};
use groupview_group::{DeliveryMode, GroupComms, GroupId, GroupMember};
use groupview_replication::{
    Counter, CounterOp, Handle, ReplicaObject, ReplicationPolicy, System, TypedUid,
};
use groupview_sim::{
    Bytes, ClientId, NodeId, ScheduledEvent, Sim, SimConfig, SimDuration, WireEncoder,
};
use groupview_store::{ObjectState, Stores, TxToken, Uid};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// Probe names and units, in catalogue order.
pub const CATALOGUE: [(&str, &str); 37] = [
    ("sim.deliver_ns", "ns"),
    ("sim.rpc_ns", "ns"),
    ("sim.schedule_run_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.slice_clone_ns", "ns"),
    ("store.write_local_ns", "ns"),
    ("store.read_remote_ns", "ns"),
    ("store.prepare_commit_ns", "ns"),
    ("actions.lock_grant_release_ns", "ns"),
    ("actions.lock_refusal_ns", "ns"),
    ("actions.begin_commit_empty_ns", "ns"),
    ("actions.nested_begin_commit_ns", "ns"),
    ("actions.undo_log_replay_ns", "ns"),
    ("actions.commit_2pc_3stores_us", "us"),
    ("group.multicast_3_ns", "ns"),
    ("group.multicast_8_ns", "ns"),
    ("group.refresh_view_ns", "ns"),
    ("core.get_server_ns", "ns"),
    ("core.get_view_ns", "ns"),
    ("core.get_server_1m_ns", "ns"),
    ("core.increment_decrement_ns", "ns"),
    ("core.exclude_include_ns", "ns"),
    ("core.bind_standard_us", "us"),
    ("core.bind_independent_us", "us"),
    ("core.bind_nested_us", "us"),
    ("core.bind_cached_us", "us"),
    ("core.register_object_us", "us"),
    ("core.recover_node_ms", "ms"),
    ("replication.invoke_active_ns", "ns"),
    ("replication.invoke_cohort_ns", "ns"),
    ("replication.invoke_single_ns", "ns"),
    ("replication.invoke_read_ns", "ns"),
    ("replication.invoke_batch16_ns_per_op", "ns"),
    ("replication.activate_warm_us", "us"),
    ("replication.activate_cold_us", "us"),
    ("replication.passivate_us", "us"),
    ("replication.action_1replica_us", "us"),
];

/// Median over batches of the mean nanoseconds one call of `f` takes.
fn per_call_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Like [`per_call_ns`], for calls that time their own interesting part
/// (the rest of the closure is set-up or tear-down between calls).
fn per_timed_call_ns(iters: u32, mut f: impl FnMut() -> Duration) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let total: Duration = (0..iters).map(|_| f()).sum();
            total.as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

// ----- sim, wire, store ------------------------------------------------------

fn sim_probes(out: &mut Vec<(&'static str, f64)>) {
    let sim = Sim::new(SimConfig::new(1).with_nodes(3));
    out.push((
        "sim.deliver_ns",
        per_call_ns(200_000, || {
            black_box(sim.deliver(n(0), n(1), 64).expect("deliver"));
        }),
    ));
    out.push((
        "sim.rpc_ns",
        per_call_ns(100_000, || {
            black_box(
                sim.rpc(n(0), n(1), 64, 16, || black_box(1u64))
                    .expect("rpc"),
            );
        }),
    ));
    out.push((
        "sim.schedule_run_ns",
        per_call_ns(100_000, || {
            sim.schedule_in(SimDuration::from_micros(1), ScheduledEvent::Custom(1));
            sim.advance(SimDuration::from_micros(2));
            black_box(sim.run_due_events());
        }),
    ));
}

fn wire_probes(out: &mut Vec<(&'static str, f64)>) {
    let enc = WireEncoder::new();
    let payload = [7u8; 16];
    out.push((
        "wire.encode_ns",
        per_call_ns(200_000, || {
            black_box(enc.encode_with(|b| b.extend_from_slice(&payload)));
        }),
    ));
    let frame = enc.encode_with(|b| b.extend_from_slice(&[1u8; 64]));
    out.push((
        "wire.slice_clone_ns",
        per_call_ns(200_000, || {
            let part = frame.slice(8..24);
            black_box(part.clone());
        }),
    ));
}

fn counter_state(value: i64) -> ObjectState {
    let enc = WireEncoder::new();
    ObjectState::initial(Counter::TYPE_TAG, Counter::new(value).snapshot(&enc))
}

fn store_probes(out: &mut Vec<(&'static str, f64)>) {
    let sim = Sim::new(SimConfig::new(2).with_nodes(3));
    let stores = Stores::new(&sim);
    stores.add_store(n(1));
    let uid = Uid::from_raw(1);
    let state = counter_state(5);
    stores.write_local(n(1), uid, state.clone()).expect("seed");
    out.push((
        "store.write_local_ns",
        per_call_ns(100_000, || {
            stores.write_local(n(1), uid, state.clone()).expect("write");
        }),
    ));
    out.push((
        "store.read_remote_ns",
        per_call_ns(100_000, || {
            black_box(stores.read_remote(n(0), n(1), uid).expect("read"));
        }),
    ));
    let mut token = 0u64;
    out.push((
        "store.prepare_commit_ns",
        per_call_ns(100_000, || {
            token += 1;
            let tx = TxToken::new(token);
            stores
                .prepare_local(n(1), tx, vec![(uid, state.clone())])
                .expect("prepare");
            stores.commit_local(n(1), tx).expect("commit");
        }),
    ));
}

// ----- actions ---------------------------------------------------------------

struct DiscardingApplier;

impl UndoApplier for DiscardingApplier {
    fn undo(&self, key: u64, _tag: u32, servers: &[(u32, u64)], op_ids: &[u64], snapshot: &[u8]) {
        black_box((key, servers.len(), op_ids.len(), snapshot.len()));
    }
}

fn actions_probes(out: &mut Vec<(&'static str, f64)>) {
    let anc = MapAncestry::default();
    let a = ActionId::from_raw;
    let mut locks = LockManager::new();
    let key = LockKey::new(1, 42);
    out.push((
        "actions.lock_grant_release_ns",
        per_call_ns(50_000, || {
            locks
                .acquire(&anc, a(1), key, LockMode::Write)
                .expect("grant");
            locks.release_all(a(1));
        }),
    ));
    locks
        .acquire(&anc, a(1), key, LockMode::Write)
        .expect("hold");
    out.push((
        "actions.lock_refusal_ns",
        per_call_ns(200_000, || {
            black_box(locks.acquire(&anc, a(2), key, LockMode::Read).is_err());
        }),
    ));

    let sim = Sim::new(SimConfig::new(3).with_nodes(5));
    let stores = Stores::new(&sim);
    let tx = TxSystem::new(&sim, &stores);
    out.push((
        "actions.begin_commit_empty_ns",
        per_call_ns(10_000, || {
            let action = tx.begin_top(n(0));
            tx.commit(action).expect("commit");
        }),
    ));
    let parent = tx.begin_top(n(0));
    out.push((
        "actions.nested_begin_commit_ns",
        per_call_ns(10_000, || {
            let child = tx.begin_nested(parent);
            tx.commit(child).expect("nested commit");
        }),
    ));
    tx.commit(parent).expect("commit parent");

    // One first-write snapshot plus four applied ops, replayed: the undo
    // work an aborting one-object action does.
    let mut arena = UndoArena::new();
    let mut scratch = Vec::new();
    let snapshot = [0u8; 8];
    out.push((
        "actions.undo_log_replay_ns",
        per_call_ns(200_000, || {
            arena.push_entry(9, 1, [(1, 1), (2, 1), (3, 1)], &snapshot);
            for op in 0..4 {
                arena.push_op(9, op);
            }
            arena.replay(&DiscardingApplier, &mut scratch);
            arena.clear();
        }),
    ));

    for s in 1..=3 {
        stores.add_store(n(s));
    }
    let uid = Uid::from_raw(77);
    let state = counter_state(1);
    out.push((
        "actions.commit_2pc_3stores_us",
        per_call_ns(5_000, || {
            let action = tx.begin_top(n(0));
            for s in 1..=3 {
                let p = StoreWriteParticipant::new(
                    &sim,
                    &stores,
                    n(0),
                    n(s),
                    TxSystem::token(action),
                    vec![(uid, state.clone())],
                );
                tx.add_participant(action, Box::new(p)).expect("enlist");
            }
            tx.commit(action).expect("2pc");
        }) / 1e3,
    ));
}

// ----- group -------------------------------------------------------------------

struct AckMember;

impl GroupMember for AckMember {
    fn deliver(&mut self, _seq: u64, msg: &Bytes) -> Bytes {
        black_box(msg.len());
        Bytes::from_static(b"ack")
    }
}

fn group_of(members: u32) -> (Sim, GroupComms, GroupId) {
    let sim = Sim::new(SimConfig::new(5).with_nodes(members as usize + 1));
    let comms = GroupComms::new(&sim);
    let group = comms.create_group(DeliveryMode::ReliableOrdered);
    for m in 1..=members {
        comms
            .join(group, n(m), Rc::new(RefCell::new(AckMember)))
            .expect("join");
    }
    (sim, comms, group)
}

fn group_probes(out: &mut Vec<(&'static str, f64)>) {
    let msg = Bytes::from_static(b"operation");
    for (name, members) in [("group.multicast_3_ns", 3), ("group.multicast_8_ns", 8)] {
        let (_sim, comms, group) = group_of(members);
        out.push((
            name,
            per_call_ns(20_000, || {
                black_box(comms.multicast(group, n(0), &msg).expect("multicast").seq);
            }),
        ));
    }
    let (_sim, comms, group) = group_of(8);
    out.push((
        "group.refresh_view_ns",
        per_call_ns(100_000, || {
            black_box(comms.refresh_view(group).expect("view").id);
        }),
    ));
}

// ----- core ------------------------------------------------------------------------

struct Naming {
    _sim: Sim,
    tx: TxSystem,
    ns: NamingService,
    uids: Vec<Uid>,
}

/// A naming service holding `objects` entries (Sv = {1,2}, St = {2,3}).
fn naming_world(objects: u64) -> Naming {
    let sim = Sim::new(SimConfig::new(1).with_nodes(4));
    let stores = Stores::new(&sim);
    let tx = TxSystem::new(&sim, &stores);
    let ns = NamingService::new(&sim, &tx, n(0));
    let uids: Vec<Uid> = (1..=objects).map(Uid::from_raw).collect();
    // Registered in chunks: one action over a million entries would hold
    // two million locks and undo records for nothing.
    for chunk in uids.chunks(1_000) {
        let action = tx.begin_top(n(0));
        for &uid in chunk {
            ns.register_object(action, uid, vec![n(1), n(2)], vec![n(2), n(3)])
                .expect("register");
        }
        tx.commit(action).expect("commit");
    }
    Naming {
        _sim: sim,
        tx,
        ns,
        uids,
    }
}

/// Times `iters` database operations inside one enclosing action per
/// batch, so the probe sees the database work and its lock traffic but not
/// an action begin/commit per call (`actions.*` probes carry those).
fn db_probe(w: &Naming, iters: u32, mut op: impl FnMut(ActionId, Uid)) -> f64 {
    let mut i = 0usize;
    let batches: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let action = w.tx.begin_top(n(1));
            let t0 = Instant::now();
            for _ in 0..iters {
                // A stride coprime to the table size spreads lookups over
                // the whole table instead of walking neighbours.
                i = (i + 7_919) % w.uids.len();
                op(action, w.uids[i]);
            }
            let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
            w.tx.commit(action).expect("commit");
            ns
        })
        .skip(1) // the first batch warms up
        .collect();
    median(&batches)
}

fn core_db_probes(out: &mut Vec<(&'static str, f64)>) {
    let w = naming_world(128);
    out.push((
        "core.get_server_ns",
        db_probe(&w, 50_000, |a, uid| {
            black_box(w.ns.server_db.get_server(a, uid).expect("get_server"));
        }),
    ));
    out.push((
        "core.get_view_ns",
        db_probe(&w, 50_000, |a, uid| {
            black_box(w.ns.state_db.get_view(a, uid).expect("get_view"));
        }),
    ));
    let client = ClientId::new(7);
    let hosts = [n(1), n(2)];
    out.push((
        "core.increment_decrement_ns",
        db_probe(&w, 10_000, |a, uid| {
            w.ns.server_db
                .increment(a, client, uid, &hosts)
                .expect("increment");
            w.ns.server_db
                .decrement(a, client, uid, &hosts)
                .expect("decrement");
        }),
    ));
    out.push((
        "core.exclude_include_ns",
        db_probe(&w, 10_000, |a, uid| {
            w.ns.state_db
                .exclude(a, &[(uid, vec![n(3)])], ExcludePolicy::ExcludeWriteLock)
                .expect("exclude");
            w.ns.state_db.include(a, uid, n(3)).expect("include");
        }),
    ));
    let mut next = 1_000_000u64;
    out.push((
        "core.register_object_us",
        per_call_ns(5_000, || {
            next += 1;
            let action = w.tx.begin_top(n(0));
            w.ns.register_object(
                action,
                Uid::from_raw(next),
                vec![n(1), n(2)],
                vec![n(2), n(3)],
            )
            .expect("register");
            w.tx.commit(action).expect("commit");
        }) / 1e3,
    ));
    drop(w);

    // The same lookup against a million entries: what the sorted-map
    // databases cost once the table outgrows every cache.
    let big = naming_world(1_000_000);
    out.push((
        "core.get_server_1m_ns",
        db_probe(&big, 10_000, |a, uid| {
            black_box(big.ns.server_db.get_server(a, uid).expect("get_server"));
        }),
    ));
}

fn one_object_system(
    seed: u64,
    policy: ReplicationPolicy,
    scheme: BindingScheme,
    replicas: u32,
) -> (System, TypedUid<Counter>) {
    let sys = System::builder(seed)
        .nodes(7)
        .policy(policy)
        .scheme(scheme)
        .build();
    let servers: Vec<NodeId> = (1..=replicas).map(n).collect();
    let uid = sys
        .create_typed(Counter::new(0), &servers, &servers)
        .expect("create");
    (sys, uid)
}

fn core_bind_probes(out: &mut Vec<(&'static str, f64)>) {
    for (name, scheme) in [
        ("core.bind_standard_us", BindingScheme::Standard),
        (
            "core.bind_independent_us",
            BindingScheme::IndependentTopLevel,
        ),
        ("core.bind_nested_us", BindingScheme::NestedTopLevel),
        ("core.bind_cached_us", BindingScheme::CachedNameServer),
    ] {
        let (sys, uid) = one_object_system(9, ReplicationPolicy::Active, scheme, 3);
        let req = BindRequest::new(ClientId::new(1), n(5), uid.uid()).with_replicas(2);
        let binder = sys.binder();
        let tx = sys.tx();
        out.push((
            name,
            per_call_ns(3_000, || {
                // One client action around one bind, with the scheme's own
                // completion step: Figures 6, 7, 8 and the §5 variant.
                let action = tx.begin_top(n(5));
                let binding = binder.bind(action, &req).expect("bind");
                if scheme == BindingScheme::NestedTopLevel {
                    binder
                        .complete(Some(action), &req, &binding)
                        .expect("complete");
                }
                tx.commit(action).expect("commit");
                if scheme != BindingScheme::NestedTopLevel {
                    binder.complete(None, &req, &binding).expect("complete");
                }
                black_box(binding.servers.len());
            }) / 1e3,
        ));
    }

    // §4 recovery of one node hosting a server and a store of 200 objects.
    let sys = System::builder(17).nodes(5).build();
    let servers = [n(1), n(2), n(3)];
    for _ in 0..200 {
        sys.create_typed(Counter::new(0), &servers, &servers)
            .expect("create");
    }
    out.push((
        "core.recover_node_ms",
        per_timed_call_ns(12, || {
            sys.sim().crash(n(1));
            let t0 = Instant::now();
            black_box(sys.recovery().recover_node(n(1)));
            t0.elapsed()
        }) / 1e6,
    ));
}

// ----- replication ---------------------------------------------------------------------

fn activated(policy: ReplicationPolicy) -> (System, Handle<Counter>, ActionId) {
    let (sys, uid) = one_object_system(13, policy, BindingScheme::Standard, 3);
    let client = sys.client(n(5));
    let handle = uid.open(&client);
    let action = client.begin_action();
    handle.activate(action, 3).expect("activate");
    (sys, handle, action)
}

fn replication_probes(out: &mut Vec<(&'static str, f64)>) {
    for (name, policy) in [
        ("replication.invoke_active_ns", ReplicationPolicy::Active),
        (
            "replication.invoke_cohort_ns",
            ReplicationPolicy::CoordinatorCohort,
        ),
        (
            "replication.invoke_single_ns",
            ReplicationPolicy::SingleCopyPassive,
        ),
    ] {
        let (_sys, handle, action) = activated(policy);
        out.push((
            name,
            per_call_ns(10_000, || {
                black_box(handle.invoke(action, CounterOp::Add(1)).expect("invoke"));
            }),
        ));
    }
    let (_sys, handle, action) = activated(ReplicationPolicy::Active);
    out.push((
        "replication.invoke_read_ns",
        per_call_ns(10_000, || {
            black_box(handle.invoke(action, CounterOp::Get).expect("read"));
        }),
    ));
    let ops = [CounterOp::Add(1); 16];
    out.push((
        "replication.invoke_batch16_ns_per_op",
        per_call_ns(3_000, || {
            black_box(handle.invoke_batch(action, &ops).expect("batch"));
        }) / 16.0,
    ));

    let (sys, uid) = one_object_system(21, ReplicationPolicy::Active, BindingScheme::Standard, 3);
    let client = sys.client(n(5));
    let handle = uid.open(&client);
    let activate = |passivate_after: bool, time_passivate: bool| {
        let action = client.begin_action();
        let t0 = Instant::now();
        handle.activate(action, 3).expect("activate");
        let activation = t0.elapsed();
        client.commit(action).expect("commit");
        handle.forget(action);
        if !passivate_after {
            return activation;
        }
        let t0 = Instant::now();
        assert!(sys.try_passivate(uid.uid()), "quiescent object passivates");
        if time_passivate {
            t0.elapsed()
        } else {
            activation
        }
    };
    out.push((
        "replication.activate_warm_us",
        per_timed_call_ns(3_000, || activate(false, false)) / 1e3,
    ));
    out.push((
        "replication.activate_cold_us",
        per_timed_call_ns(3_000, || activate(true, false)) / 1e3,
    ));
    out.push((
        "replication.passivate_us",
        per_timed_call_ns(3_000, || activate(true, true)) / 1e3,
    ));

    // The single-node baseline: one server, one store, a whole action.
    let (sys, uid) = one_object_system(23, ReplicationPolicy::Active, BindingScheme::Standard, 1);
    let client = sys.client(n(5));
    let handle = uid.open(&client);
    out.push((
        "replication.action_1replica_us",
        per_call_ns(3_000, || {
            let action = client.begin_action();
            handle.activate(action, 1).expect("activate");
            black_box(handle.invoke(action, CounterOp::Add(1)).expect("invoke"));
            client.commit(action).expect("commit");
            handle.forget(action);
        }) / 1e3,
    ));
}

/// Runs every probe; one `(name, value)` per [`CATALOGUE`] entry.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::with_capacity(CATALOGUE.len());
    sim_probes(&mut out);
    wire_probes(&mut out);
    store_probes(&mut out);
    actions_probes(&mut out);
    group_probes(&mut out);
    core_db_probes(&mut out);
    core_bind_probes(&mut out);
    replication_probes(&mut out);
    out
}
