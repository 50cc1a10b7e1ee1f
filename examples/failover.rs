//! Failure and recovery, narrated: watch the naming service keep its
//! promise — clients never bind to a stale replica — through a full
//! crash/exclude/recover/include cycle (paper §2.3(3), §4.2).
//!
//! ```text
//! cargo run --example failover
//! ```

use groupview::{Counter, CounterOp, NodeId, NodeList, ReplicationPolicy, System};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn st_of(sys: &System, uid: groupview::Uid) -> NodeList {
    sys.naming()
        .state_db
        .entry(uid)
        .map(|e| e.stores)
        .unwrap_or_default()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = System::builder(3)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build();
    let trio = [n(1), n(2), n(3)];

    let uid = sys.create_typed(Counter::new(100), &trio, &trio)?;
    println!("object {uid}: St = {:?}", st_of(&sys, uid.uid()));

    // 1. A commit happens while n3 is down: the write-back cannot reach its
    //    store, so commit processing EXCLUDES it from St.
    sys.sim().crash(n(3));
    println!("\nn3 crashes.");
    let client = sys.client(n(4));
    let counter = uid.open(&client);
    let action = client.begin_action();
    counter.activate(action, 2)?;
    counter.invoke(action, CounterOp::Add(23))?;
    client.commit(action)?;
    println!(
        "committed Add(23) while n3 was down -> St = {:?}",
        st_of(&sys, uid.uid())
    );
    assert_eq!(st_of(&sys, uid.uid()), vec![n(1), n(2)]);

    // 2. n3's stable store survived the crash — but it holds version 0.
    //    Because it is no longer in St, no client can be misdirected to it.
    println!("n3's disk still holds the OLD state, but St no longer lists n3.");

    // 3. n3 recovers: the recovery protocol refreshes its state from a
    //    current St member, then runs Include to rejoin.
    let report = sys.recovery().recover_node(n(3));
    println!(
        "\nn3 recovers: refreshed {:?}, re-included {:?}, server Insert ok for {:?}",
        report.refreshed, report.included, report.inserted
    );
    println!("St = {:?}", st_of(&sys, uid.uid()));
    assert_eq!(st_of(&sys, uid.uid()), vec![n(1), n(2), n(3)]);

    // 4. Proof: take the OTHER two stores down; a reader served only by n3
    //    still sees the latest committed state.
    sys.sim().crash(n(1));
    sys.sim().crash(n(2));
    sys.try_passivate(uid.uid()); // force the next client to reload from a store
    println!("\nn1 and n2 crash; only n3 is left.");
    let reader = sys.client(n(5));
    let counter = uid.open(&reader);
    let action = reader.begin_action();
    let group = counter.activate_read_only(action, 1)?;
    let value = counter.invoke(action, CounterOp::Get)?;
    println!("reader bound to {:?}, Get -> {value}", group.servers);
    assert_eq!(value, 123, "n3 must serve the refreshed state");
    reader.commit(action)?;

    println!("\nno stale state was ever observable — exactly the paper's guarantee.");
    Ok(())
}
