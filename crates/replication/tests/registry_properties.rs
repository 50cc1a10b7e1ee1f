//! Pins the per-object replica registry to the brute-force definition it
//! replaced: over any sequence of `get_or_create` / `remove_at` /
//! `remove_object`, what `replicas_of(uid, ..)` appends to a (reused)
//! buffer equals "filter every `(uid, node)` entry by uid, sort by node",
//! and `get` equals a point lookup in that flat model — same nodes, same
//! handles.

use groupview_replication::{ReplicaRegistry, ServerReplica};
use groupview_sim::{NodeId, Sim, SimConfig};
use groupview_store::Uid;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

type ReplicaHandle = Rc<RefCell<ServerReplica>>;

const NODES: u32 = 6;

fn same(a: &[(NodeId, ReplicaHandle)], b: &[(NodeId, ReplicaHandle)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && Rc::ptr_eq(&x.1, &y.1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn replicas_of_equals_filter_and_sort_over_all_entries(
        ops in prop::collection::vec((0u8..4, 0u64..5, 0u32..NODES), 0..80),
    ) {
        let sim = Sim::new(SimConfig::new(1).with_nodes(NODES as usize));
        let registry = ReplicaRegistry::new();
        // The flat model: every `(uid, node)` entry in insertion order.
        let mut model: Vec<((Uid, NodeId), ReplicaHandle)> = Vec::new();
        let mut found = Vec::new();
        for &(kind, u, n) in &ops {
            let (uid, node) = (Uid::from_raw(u), NodeId::new(n));
            match kind {
                0 | 1 => {
                    let handle = registry.get_or_create(&sim, uid, node);
                    match model.iter().find(|(k, _)| *k == (uid, node)) {
                        Some((_, known)) => prop_assert!(Rc::ptr_eq(known, &handle)),
                        None => model.push(((uid, node), handle)),
                    }
                }
                2 => {
                    let before = model.len();
                    model.retain(|(k, _)| *k != (uid, node));
                    prop_assert_eq!(registry.remove_at(uid, node), model.len() < before);
                }
                _ => {
                    let before = model.len();
                    model.retain(|((u, _), _)| *u != uid);
                    prop_assert_eq!(registry.remove_object(uid), before - model.len());
                }
            }
            for u in 0..5 {
                let uid = Uid::from_raw(u);
                let mut expected: Vec<(NodeId, ReplicaHandle)> = model
                    .iter()
                    .filter(|((mu, _), _)| *mu == uid)
                    .map(|((_, n), h)| (*n, h.clone()))
                    .collect();
                expected.sort_by_key(|(n, _)| *n);
                found.clear();
                registry.replicas_of(uid, &mut found);
                prop_assert!(same(&found, &expected));
                for n in 0..NODES {
                    let node = NodeId::new(n);
                    let want = expected.iter().find(|(en, _)| *en == node);
                    match (registry.get(uid, node), want) {
                        (Some(got), Some((_, h))) => prop_assert!(Rc::ptr_eq(&got, h)),
                        (None, None) => {}
                        _ => prop_assert!(false, "get({uid}, {node}) disagrees with the model"),
                    }
                }
            }
        }
    }
}
