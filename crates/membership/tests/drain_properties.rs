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
//! shows up as a different placement or report.

use groupview_membership::{DrainReport, Membership};
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
            Err(e) if e.is_busy() => report.busy.push(uid),
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
