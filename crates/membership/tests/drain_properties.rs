//! Pins `drain_step`'s target rule to its definition, stated through the
//! public API: for every replica on the draining node, the chosen target
//! is `min_by_key((replica_count(t), t))` over `targets(node)` minus the
//! object's own hosts, with `targets` and `replica_count` recomputed from
//! the databases at every pick. An implementation that keeps running
//! target loads instead of recomputing them must still satisfy this.
//!
//! Two worlds are built from the same seed and placement; one runs
//! `drain_step`, the other the definition below. A node armed to crash
//! after a few sends dies in the middle of the pass in both (same picks ⇒
//! same message sequence ⇒ same crash point), so any divergence in a pick
//! shows up as a different placement or report. A second property runs
//! two passes with the databases changing between them, so loads carried
//! over from an earlier pass show up the same way.

use groupview_membership::{DrainReport, Membership, MigrateError};
use groupview_replication::{Counter, System};
use groupview_sim::NodeId;
use groupview_store::Uid;
use proptest::prelude::*;

/// `k` consecutive store nodes (1-based, wrapping) starting at `start`.
fn ring(start: u64, k: usize, stores: usize) -> Vec<NodeId> {
    (0..k)
        .map(|i| NodeId::new(1 + ((start as usize + i) % stores) as u32))
        .collect()
}

/// Naming at node 0, store nodes `1..=stores`, one spare client node.
fn world(seed: u64, stores: usize, placement: &[u64]) -> (System, Membership, Vec<Uid>) {
    let sys = System::builder(seed).nodes(stores + 2).build();
    let m = Membership::new(&sys);
    for i in 1..=stores {
        m.activate_node(NodeId::new(i as u32));
    }
    let uids = placement
        .iter()
        .map(|&bits| {
            let k = 2 + (bits >> 16) as usize % 2;
            let sv = ring(bits, k, stores);
            let st = ring(bits >> 8, k, stores);
            sys.create_typed(Counter::new(bits as i64), &sv, &st)
                .expect("placement is valid")
                .uid()
        })
        .collect();
    (sys, m, uids)
}

/// The definition: everything recomputed from the databases per replica.
fn drain_step_by_definition(m: &Membership, node: NodeId) -> DrainReport {
    let naming = m.system().naming();
    let mut report = DrainReport::default();
    for uid in m.hosted(node) {
        let sv = naming.server_db.entry(uid);
        let st = naming.state_db.entry(uid);
        let target = m
            .targets(node)
            .into_iter()
            .filter(|t| {
                !sv.as_ref().is_some_and(|e| e.servers.contains(t))
                    && !st.as_ref().is_some_and(|e| e.contains(*t))
            })
            .min_by_key(|&t| (m.replica_count(t), t));
        let Some(target) = target else {
            report.failed.push(uid);
            continue;
        };
        match m.migrate(uid, node, target) {
            Ok(()) => report.moved.push(uid),
            Err(MigrateError::Busy(_)) => report.busy.push(uid),
            Err(_) => report.failed.push(uid),
        }
    }
    report.remaining = m.hosted(node).len();
    report.complete = report.remaining == 0;
    report
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn drain_step_picks_the_defined_target(
        seed in any::<u64>(),
        stores in 4usize..=7,
        placement in prop::collection::vec(any::<u64>(), 3..14),
        drained in 0usize..7,
        victim in 0usize..7,
        crash_after in 0u32..14,
    ) {
        let node = NodeId::new(1 + (drained % stores) as u32);
        let victim = NodeId::new(1 + (victim % stores) as u32);
        let (sys_a, a, uids) = world(seed, stores, &placement);
        let (sys_b, b, _) = world(seed, stores, &placement);
        for (sys, m) in [(&sys_a, &a), (&sys_b, &b)] {
            m.begin_drain(node);
            // Budget 0 leaves the world fault-free; otherwise the victim
            // dies once it has sent that many messages, mid-pass.
            if crash_after > 0 {
                sys.sim().crash_after_sends(victim, crash_after);
            }
        }
        let got = a.drain_step(node);
        let want = drain_step_by_definition(&b, node);
        prop_assert_eq!(&got, &want);
        for &uid in &uids {
            prop_assert_eq!(
                sys_a.naming().server_db.entry(uid),
                sys_b.naming().server_db.entry(uid)
            );
            prop_assert_eq!(
                sys_a.naming().state_db.entry(uid),
                sys_b.naming().state_db.entry(uid)
            );
        }
        prop_assert_eq!(sys_a.sim().now(), sys_b.sim().now());
    }
}

/// Report, every object's `Sv` and `St` entries and virtual time agree
/// between the two worlds.
fn assert_same_outcome(
    (sys_a, got): (&System, &DrainReport),
    (sys_b, want): (&System, &DrainReport),
) {
    assert_eq!(got, want);
    let (a, b) = (sys_a.naming(), sys_b.naming());
    assert_eq!(a.server_db.uids(), b.server_db.uids());
    for uid in a.server_db.uids() {
        assert_eq!(a.server_db.entry(uid), b.server_db.entry(uid));
        assert_eq!(a.state_db.entry(uid), b.state_db.entry(uid));
    }
    assert_eq!(sys_a.sim().now(), sys_b.sim().now());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Loads belong to one pass. Pass 1 leaves an object that a client
    /// holds active behind as busy; between the passes fresh objects land
    /// on two of the targets and the client commits; pass 2 must pick
    /// against the loads as they are then.
    #[test]
    fn each_pass_counts_the_loads_afresh(
        seed in any::<u64>(),
        stores in 7usize..=8,
        placement in prop::collection::vec(any::<u64>(), 3..14),
        held in 0usize..14,
        drained in 0usize..3,
        fresh in 1usize..6,
        first in 0usize..7,
    ) {
        let held = held % placement.len();
        let (sys_a, a, uids) = world(seed, stores, &placement);
        let (sys_b, b, _) = world(seed, stores, &placement);
        let held = uids[held];
        let st = sys_a.naming().state_db.entry(held).expect("created");
        let node = st.stores[drained % st.len()];
        let client = NodeId::new(stores as u32 + 1);
        let mut actions = Vec::new();
        for (sys, m) in [(&sys_a, &a), (&sys_b, &b)] {
            m.begin_drain(node);
            let client = sys.client(client);
            let action = client.begin_action();
            client
                .open::<Counter>(held)
                .activate(action, 1)
                .expect("nothing else runs");
            actions.push((client, action));
        }

        let got = a.drain_step(node);
        let want = drain_step_by_definition(&b, node);
        assert_same_outcome((&sys_a, &got), (&sys_b, &want));
        prop_assert!(got.busy.contains(&held));

        let targets = a.targets(node);
        let pair = [
            targets[first % targets.len()],
            targets[(first + 1) % targets.len()],
        ];
        for (sys, (client, action)) in [&sys_a, &sys_b].into_iter().zip(&actions) {
            for i in 0..fresh {
                sys.create_typed(Counter::new(i as i64), &pair, &pair)
                    .expect("placement is valid");
            }
            client.commit(*action).expect("nothing else runs");
        }

        let got = a.drain_step(node);
        let want = drain_step_by_definition(&b, node);
        assert_same_outcome((&sys_a, &got), (&sys_b, &want));
        prop_assert!(got.moved.contains(&held));
    }
}
