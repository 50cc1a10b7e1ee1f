//! Group views wider than a `NodeList` holds inline. With |Sv| = |St| = 8
//! every view, binding and exclusion below works on a spilled (heap) list,
//! under every replication policy: activation and a join pinned to the
//! whole activation set, invocation, a commit that `Exclude`s a crashed
//! store, §4.2 recovery with its `Include`, and a drain whose migration
//! runs `Insert`, `Remove`, `Include` and `Exclude` on spilled entries.

use groupview::{
    Counter, CounterOp, Membership, NodeId, NodeList, ObjectType, ReplicationPolicy, System,
};

const WIDE: u32 = 8;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// `first..=last`, in order.
fn nodes(first: u32, last: u32) -> Vec<NodeId> {
    (first..=last).map(n).collect()
}

#[test]
fn eight_wide_groups_work_on_spilled_lists_under_every_policy() {
    assert!(NodeList::CAPACITY < WIDE as usize, "the lists must spill");
    for policy in ReplicationPolicy::ALL {
        // n0 naming, n1..=n8 servers and stores, n9 and n10 clients.
        let sys = System::builder(29).nodes(11).policy(policy).build();
        let wide = nodes(1, WIDE);
        let uid = sys
            .create_object(Box::new(Counter::new(0)), &wide, &wide)
            .expect("create");
        let st = || sys.naming().state_db.entry(uid).expect("St").stores;
        let sv = || sys.naming().server_db.entry(uid).expect("Sv").servers;

        let client = sys.client(n(9));
        let action = client.begin_action();
        let group = client.activate(action, uid, 8).expect("activate 8");
        let bound = match policy {
            ReplicationPolicy::SingleCopyPassive => 1,
            _ => 8,
        };
        assert_eq!(group.servers.len(), bound, "{policy}");
        assert_eq!(group.st_nodes, wide, "{policy}");
        // A second client joins the activation: its bind is pinned to the
        // whole activation set.
        let other = sys.client(n(10));
        let joined = other.begin_action();
        let group2 = other.activate(joined, uid, 1).expect("join");
        assert_eq!(group2.servers, group.servers, "{policy}");
        other.commit(joined).expect("nothing to write");

        client
            .invoke(action, &group, &[Counter::op_vec(&CounterOp::Add(5))])
            .expect("invoke");
        // A store dies before commit: the commit excludes it from the
        // spilled St.
        sys.sim().crash(n(WIDE));
        client.commit(action).expect("commit without n8");
        assert_eq!(st(), nodes(1, WIDE - 1), "{policy}");

        // Recovery refreshes n8's copy and includes it back.
        let report = sys.recovery().recover_node(n(WIDE));
        assert_eq!(report.included, vec![uid], "{policy}");
        assert_eq!(st(), wide, "{policy}");

        // Drain n1 onto a new node: Insert + Remove on Sv, Include +
        // Exclude on St, all past the inline capacity.
        let m = Membership::new(&sys);
        let fresh = m.add_node();
        let drained = m.drain_node(n(1), 3);
        assert!(drained.complete, "{policy}: {drained:?}");
        let mut moved = nodes(2, WIDE);
        moved.push(fresh);
        assert_eq!(sv(), moved, "{policy}");
        assert_eq!(st(), moved, "{policy}");
        let copy = sys.stores().read_local(fresh, uid).expect("moved copy");
        assert_eq!(Counter::decode_state(&copy.data).value(), 5, "{policy}");

        let reader = sys.client(n(9));
        let read = reader.begin_action();
        let group = reader.activate_read_only(read, uid, 1).expect("activate");
        let replies = reader
            .invoke_read(read, &group, &[Counter::op_vec(&CounterOp::Get)])
            .expect("read");
        let reply = replies.iter().next().expect("one reply");
        reader.commit(read).expect("commit read");
        assert_eq!(
            Counter::decode_reply(&CounterOp::Get, reply),
            Some(5),
            "{policy}"
        );
        assert!(sys.tx().locks_empty(), "{policy}");
    }
}
