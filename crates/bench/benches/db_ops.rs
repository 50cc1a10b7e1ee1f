//! Throughput of the Object Server and Object State database operations
//! (§4.1/§4.2): the metadata hot path every binding and commit touches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use groupview_actions::TxSystem;
use groupview_core::{Cost, ExcludePolicy, NamingService};
use groupview_sim::{ClientId, NodeId, Sim, SimConfig};
use groupview_store::{Stores, Uid};
use std::hint::black_box;

fn world(objects: u64) -> (Sim, TxSystem, NamingService, Vec<Uid>) {
    let sim = Sim::new(SimConfig::new(1).with_nodes(4));
    let stores = Stores::new(&sim);
    let tx = TxSystem::new(&sim, &stores);
    let ns = NamingService::new(&sim, &tx, NodeId::new(0));
    let uids: Vec<Uid> = (1..=objects).map(Uid::from_raw).collect();
    let action = tx.begin_top(NodeId::new(0));
    for &uid in &uids {
        ns.register_object(
            action,
            uid,
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(2), NodeId::new(3)],
        )
        .expect("register");
    }
    tx.commit(action).expect("commit");
    (sim, tx, ns, uids)
}

fn bench_get_server(c: &mut Criterion) {
    let (_sim, tx, ns, uids) = world(128);
    let mut i = 0usize;
    c.bench_function("server_db/get_server", |b| {
        b.iter(|| {
            let uid = uids[i % uids.len()];
            i += 1;
            let a = tx.begin_top(NodeId::new(1));
            let entry = ns.server_db.get_server(a, uid).expect("get");
            tx.commit(a).expect("commit");
            black_box(entry)
        })
    });
}

fn bench_get_view(c: &mut Criterion) {
    let (_sim, tx, ns, uids) = world(128);
    let mut i = 0usize;
    c.bench_function("state_db/get_view", |b| {
        b.iter(|| {
            let uid = uids[i % uids.len()];
            i += 1;
            let a = tx.begin_top(NodeId::new(1));
            let entry = ns.state_db.get_view(a, uid).expect("get");
            tx.commit(a).expect("commit");
            black_box(entry)
        })
    });
}

fn bench_insert_remove(c: &mut Criterion) {
    let (_sim, tx, ns, uids) = world(128);
    let mut i = 0usize;
    c.bench_function("server_db/insert+remove", |b| {
        b.iter(|| {
            let uid = uids[i % uids.len()];
            i += 1;
            let a = tx.begin_top(NodeId::new(1));
            ns.server_db.insert(a, uid, NodeId::new(3)).expect("insert");
            ns.server_db.remove(a, uid, NodeId::new(3)).expect("remove");
            tx.commit(a).expect("commit");
        })
    });
}

fn bench_increment_decrement(c: &mut Criterion) {
    let (_sim, tx, ns, uids) = world(128);
    let client = ClientId::new(7);
    let hosts = [NodeId::new(1), NodeId::new(2)];
    let mut i = 0usize;
    c.bench_function("server_db/increment+decrement", |b| {
        b.iter(|| {
            let uid = uids[i % uids.len()];
            i += 1;
            let a = tx.begin_top(NodeId::new(1));
            ns.server_db.increment(a, client, uid, &hosts).expect("inc");
            ns.server_db.decrement(a, client, uid, &hosts).expect("dec");
            tx.commit(a).expect("commit");
        })
    });
}

fn bench_exclude_include(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_db/exclude+include");
    for policy in [
        ExcludePolicy::PromoteToWrite,
        ExcludePolicy::ExcludeWriteLock,
    ] {
        let (_sim, tx, ns, uids) = world(128);
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(format!("{policy:?}")), |b| {
            b.iter(|| {
                let uid = uids[i % uids.len()];
                i += 1;
                let a = tx.begin_top(NodeId::new(1));
                ns.state_db
                    .exclude(a, &[(uid, vec![NodeId::new(3)])], policy)
                    .expect("exclude");
                ns.state_db
                    .include(a, uid, NodeId::new(3))
                    .expect("include");
                tx.commit(a).expect("commit");
            })
        });
    }
    group.finish();
}

fn bench_exclude_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_db/exclude_batch");
    for batch in [1usize, 8, 32] {
        let (_sim, tx, ns, uids) = world(64);
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter(|| {
                let a = tx.begin_top(NodeId::new(1));
                let items: Vec<(Uid, Vec<NodeId>)> = uids
                    .iter()
                    .take(batch)
                    .map(|&u| (u, vec![NodeId::new(3)]))
                    .collect();
                ns.state_db
                    .exclude(a, &items, ExcludePolicy::ExcludeWriteLock)
                    .expect("exclude");
                // Put the nodes back so the next iteration excludes again.
                for &u in uids.iter().take(batch) {
                    ns.state_db.include(a, u, NodeId::new(3)).expect("include");
                }
                tx.commit(a).expect("commit");
            })
        });
    }
    group.finish();
}

fn bench_remote_get_server(c: &mut Criterion) {
    let (_sim, tx, ns, uids) = world(128);
    let mut i = 0usize;
    c.bench_function("naming/get_server_rpc", |b| {
        b.iter(|| {
            let uid = uids[i % uids.len()];
            i += 1;
            let a = tx.begin_top(NodeId::new(1));
            let entry = ns
                .remote(NodeId::new(1), Cost::READ, |ns| {
                    ns.server_db.get_server(a, uid)
                })
                .expect("rpc");
            tx.commit(a).expect("commit");
            black_box(entry)
        })
    });
}

criterion_group!(
    benches,
    bench_get_server,
    bench_get_view,
    bench_insert_remove,
    bench_increment_decrement,
    bench_exclude_include,
    bench_exclude_batch,
    bench_remote_get_server,
);
criterion_main!(benches);
