//! Property test for the inline node list: over random sequences of
//! `push`, `remove`, `retain`, `clear` and rebuilds from an iterator, a
//! `Vec`, or a slice, with lengths from 0 to 20 — so lists cross the inline
//! capacity in both directions, and spill — a `NodeList` behaves exactly
//! like the `Vec<NodeId>` model it replaced.
//!
//! After every step the list must hold the model's items in the model's
//! order, report its length, compare equal to it from either side, print
//! the same `Debug` text, and survive `clone` and every conversion
//! unchanged.

use groupview_sim::{NodeId, NodeList};
use proptest::prelude::*;

/// Lists never grow past this many nodes.
const MAX_LEN: usize = 20;

#[derive(Debug, Clone)]
enum Step {
    Push(u32),
    /// Remove the item at this index (modulo the length).
    Remove(usize),
    /// Keep the items whose id is not `k` modulo 3.
    Retain(u32),
    Clear,
    /// Replace the list with these nodes, collected from an iterator.
    FromIter(Vec<u32>),
    /// The same, through `From<Vec<NodeId>>`.
    FromVec(Vec<u32>),
    /// The same, through `From<&[NodeId]>`.
    FromSlice(Vec<u32>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0u32..64).prop_map(Step::Push),
        3 => any::<usize>().prop_map(Step::Remove),
        2 => (0u32..3).prop_map(Step::Retain),
        1 => Just(Step::Clear),
        1 => prop::collection::vec(0u32..64, 0..=MAX_LEN).prop_map(Step::FromIter),
        1 => prop::collection::vec(0u32..64, 0..=MAX_LEN).prop_map(Step::FromVec),
        1 => prop::collection::vec(0u32..64, 0..=MAX_LEN).prop_map(Step::FromSlice),
    ]
}

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().copied().map(NodeId::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_node_list_behaves_like_a_vec(steps in prop::collection::vec(step_strategy(), 0..80)) {
        let mut list = NodeList::new();
        let mut model: Vec<NodeId> = Vec::new();
        for step in &steps {
            match step {
                Step::Push(id) => {
                    if model.len() < MAX_LEN {
                        list.push(NodeId::new(*id));
                        model.push(NodeId::new(*id));
                    }
                }
                Step::Remove(i) => {
                    if !model.is_empty() {
                        let i = i % model.len();
                        prop_assert_eq!(list.remove(i), model.remove(i));
                    }
                }
                Step::Retain(k) => {
                    let keep = |n: &NodeId| n.raw() % 3 != *k;
                    list.retain(keep);
                    model.retain(keep);
                }
                Step::Clear => {
                    list.clear();
                    model.clear();
                }
                Step::FromIter(ids) => {
                    model = nodes(ids);
                    list = model.iter().copied().collect();
                }
                Step::FromVec(ids) => {
                    model = nodes(ids);
                    list = NodeList::from(model.clone());
                }
                Step::FromSlice(ids) => {
                    model = nodes(ids);
                    list = NodeList::from(model.as_slice());
                }
            }
            prop_assert_eq!(list.as_slice(), model.as_slice());
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            prop_assert!(list == model);
            prop_assert!(model == list);
            prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            prop_assert!((&list).into_iter().eq(model.iter()));
            prop_assert!(list.clone() == model);
            prop_assert!(NodeList::from(model.as_slice()) == list);
            // A list that differs from the model in one more item is not
            // equal to it, whichever side spilled.
            let mut longer = model.clone();
            longer.push(NodeId::new(99));
            prop_assert!(list != longer);
            prop_assert!(longer != list);
        }
    }
}

/// The spill boundary itself, step by step: pushing one past the inline
/// capacity, then removing back below it, keeps every item in order.
#[test]
fn a_list_crosses_its_capacity_both_ways() {
    let mut list = NodeList::new();
    let mut model = Vec::new();
    for i in 0..(NodeList::CAPACITY as u32 + 3) {
        list.push(NodeId::new(i));
        model.push(NodeId::new(i));
        assert_eq!(list, model);
    }
    while !model.is_empty() {
        assert_eq!(list.remove(0), model.remove(0));
        assert_eq!(list, model);
    }
    assert_eq!(format!("{list:?}"), "[]");
}
