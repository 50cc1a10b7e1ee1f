//! An elastic cluster, narrated: the world grows two fresh nodes under
//! committed traffic, drains an original server — every replica it hosts
//! moves in a transactional migration that repoints the directory and
//! copies the state atomically — and a stats-driven rebalancer then
//! spreads placement by measured per-object load. The naming service's
//! promise holds at every step: clients never bind to a stale or
//! half-moved replica.
//!
//! ```text
//! cargo run --example elastic_cluster
//! ```

use groupview::{
    Counter, CounterOp, Membership, NodeId, NodeList, Phase, Rebalancer, ReplicationPolicy, System,
    Uid,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn st_of(sys: &System, uid: Uid) -> NodeList {
    sys.naming()
        .state_db
        .entry(uid)
        .map(|e| e.stores)
        .unwrap_or_default()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observed world, so the rebalancer's inputs (and the migration spans)
    // show up in the metrics snapshot at the end.
    let sys = System::builder(17)
        .nodes(7)
        .policy(ReplicationPolicy::Active)
        .observe()
        .build();
    let trio = [n(1), n(2), n(3)];

    // Six counters on the original trio, driven with skewed traffic so
    // object 0 is hot and object 5 is nearly cold — the load signal the
    // rebalancer will plan from.
    let uids: Vec<_> = (0..6)
        .map(|_| sys.create_typed(Counter::new(0), &trio, &trio))
        .collect::<Result<_, _>>()?;
    let client = sys.client(n(4));
    for round in 0..12usize {
        for (i, uid) in uids.iter().enumerate() {
            if i != 0 && !round.is_multiple_of(i + 1) {
                continue; // skew: lower-numbered objects run hotter
            }
            let counter = uid.open(&client);
            let action = client.begin_action();
            counter.activate(action, 2)?;
            counter.invoke(action, CounterOp::Add(1))?;
            client.commit(action)?;
            sys.try_passivate(uid.uid());
        }
    }
    println!("world: 7 nodes, servers {{1,2,3}}, 6 objects, skewed traffic");
    println!("object 0: St = {:?}", st_of(&sys, uids[0].uid()));

    // 1. Grow: two fresh nodes join and immediately become store targets.
    let membership = Membership::new(&sys);
    let a = membership.add_node();
    let b = membership.add_node();
    println!(
        "\nadded {a} ({}) and {b} ({})",
        membership.status(a),
        membership.status(b)
    );

    // 2. Drain: server 2 evacuates — each replica migrated to the least
    //    loaded eligible target under one transaction, then the node is
    //    decommissioned.
    let report = membership.drain_node(n(2), 4);
    println!("drain n2: {report}");
    println!("object 0: St = {:?}", st_of(&sys, uids[0].uid()));

    // 3. Rebalance: plan from measured per-object load (directory use
    //    counts × committed state bytes), then execute with bounded
    //    concurrency.
    let rebalancer = Rebalancer;
    let plan = rebalancer.plan(&membership);
    println!("\n{plan}");
    let report = rebalancer.execute(&membership, &plan);
    println!("{report}");

    // Every object still serves its committed state from the new layout.
    for (i, uid) in uids.iter().enumerate() {
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate_read_only(action, 1)?;
        let value = counter.invoke(action, CounterOp::Get)?;
        client.commit(action)?;
        assert!(value > 0, "object {i} lost history");
    }
    println!("\nall 6 objects serve their committed state from the new layout");

    // What the observability layer saw: per-node load attribution and the
    // migration span latencies.
    let snap = sys.metrics_snapshot();
    println!("\nper-node load:\n{}", snap.node_load_breakdown());
    let m = snap.phase(Phase::Migrate);
    println!(
        "migrations observed: {} (p50 {}µs, p95 {}µs)",
        m.count(),
        m.p50(),
        m.p95()
    );
    Ok(())
}
