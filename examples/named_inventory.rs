//! Named persistent objects: the full §2.2 lookup chain — a user-given
//! name resolves through the directory to a UID, the UID binds to replicas,
//! and everything (naming included) is transactional.
//!
//! Models a small warehouse: replicated KvMap shelves registered under
//! human-readable names, plus an account for the till. Creation-with-naming
//! is atomic, and renames roll back with their action.
//!
//! ```text
//! cargo run --example named_inventory
//! ```

use groupview::{Account, AccountOp, KvMap, KvOp, NodeId, ReplicationPolicy, System};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = System::builder(5)
        .nodes(7)
        .policy(ReplicationPolicy::Active)
        .build();
    let shelf_nodes = [n(1), n(2), n(3)];

    // Create named objects; name + databases + initial states commit as one
    // atomic action each.
    for name in ["shelves/tools", "shelves/paint"] {
        sys.create_typed_named(name, KvMap::new(), &shelf_nodes, &shelf_nodes)?;
        println!("created {name}");
    }
    sys.create_typed_named("till", Account::new(0), &shelf_nodes, &shelf_nodes)?;
    println!("created till");

    // A name collision aborts atomically — nothing is half-created.
    let err = sys
        .create_typed_named("till", Account::new(9), &shelf_nodes, &shelf_nodes)
        .unwrap_err();
    println!("duplicate 'till' refused: {err}");

    // Stock the shelves and take payment in one atomic action, all via
    // names (each lookup is a nested action of the sale). `open_by_name`
    // resolves, activates, and hands back a typed handle in one step.
    let clerk = sys.client(n(5));
    let sale = clerk.begin_action();
    let tools = clerk.open_by_name::<KvMap>(sale, "shelves/tools", 2)?;
    let till = clerk.open_by_name::<Account>(sale, "till", 2)?;
    tools.invoke(sale, KvOp::Put("hammer".into(), "3 in stock".into()))?;
    till.invoke(sale, AccountOp::Deposit(25))?;
    clerk.commit(sale)?;
    println!("sale committed: stocked hammers, took 25 into the till");

    // A crash between actions does not disturb names or state.
    sys.sim().crash(n(1));
    println!("n1 crashed");

    let audit = clerk.begin_action();
    let tools = clerk.open_by_name::<KvMap>(audit, "shelves/tools", 1)?;
    let till = clerk.open_by_name::<Account>(audit, "till", 1)?;
    let stock = tools.invoke(audit, KvOp::Get("hammer".into()))?;
    let balance = till.invoke(audit, AccountOp::Balance)?;
    clerk.commit(audit)?;
    println!(
        "after the crash: hammer -> {:?}, till -> {balance}",
        stock.value().unwrap_or("")
    );

    // Renames are transactional too: abort undoes them.
    let tx = sys.tx();
    let rename = tx.begin_top(n(0));
    let dir = &sys.naming().directory;
    let uid = dir.lookup(rename, "shelves/paint")?;
    dir.unbind_name(rename, "shelves/paint")?;
    dir.bind_name(rename, "shelves/decorating", uid)?;
    tx.abort(rename);
    println!("rename aborted; directory still has: {:?}", dir.names());
    assert!(dir.names().contains(&"shelves/paint".to_string()));
    Ok(())
}
