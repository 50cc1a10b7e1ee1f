//! Property tests for the lock manager: under arbitrary acquire/release
//! sequences, the table never grants incompatible locks to unrelated
//! actions, and bookkeeping never leaks.

use groupview_actions::lock::{LockManager, MapAncestry};
use groupview_actions::{ActionId, LockKey, LockMode};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Acquire { action: u64, key: u64, mode: u8 },
    ReleaseAll { action: u64 },
    Transfer { child: u64, parent: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..6, 0u64..4, 0u8..3).prop_map(|(action, key, mode)| Op::Acquire {
            action,
            key,
            mode
        }),
        2 => (0u64..6).prop_map(|action| Op::ReleaseAll { action }),
        1 => (0u64..6, 0u64..6).prop_map(|(child, parent)| Op::Transfer { child, parent }),
    ]
}

fn mode_of(byte: u8) -> LockMode {
    match byte {
        0 => LockMode::Read,
        1 => LockMode::ExcludeWrite,
        _ => LockMode::Write,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// No ancestry: the compatibility matrix must hold between every pair
    /// of holders of every key, at every step.
    #[test]
    fn granted_locks_are_pairwise_compatible(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let anc = MapAncestry::default();
        let mut lm = LockManager::new();
        for op in &ops {
            match *op {
                Op::Acquire { action, key, mode } => {
                    let _ = lm.acquire(
                        &anc,
                        ActionId::from_raw(action),
                        LockKey::new(1, key),
                        mode_of(mode),
                    );
                }
                Op::ReleaseAll { action } => lm.release_all(ActionId::from_raw(action)),
                Op::Transfer { child, parent } => {
                    if child != parent {
                        lm.transfer(ActionId::from_raw(child), ActionId::from_raw(parent));
                    }
                }
            }
            // Invariant: all holders of every key are pairwise compatible.
            for key in 0u64..4 {
                let holders = lm.holders(LockKey::new(1, key));
                for (i, &(ha, hm)) in holders.iter().enumerate() {
                    for &(hb, gm) in holders.iter().skip(i + 1) {
                        prop_assert!(
                            hm.compatible(gm),
                            "incompatible holders {ha}:{hm} and {hb}:{gm} on key {key}"
                        );
                    }
                }
                // And each action appears at most once per key.
                let mut seen = HashMap::new();
                for &(hid, _) in &holders {
                    prop_assert!(
                        seen.insert(hid, ()).is_none(),
                        "duplicate holder entry {hid} on key {key}"
                    );
                }
            }
            // The per-action key lists agree with the holder lists exactly
            // (recycled vectors carry no stale or duplicate key).
            for a in 0u64..6 {
                let action = ActionId::from_raw(a);
                let held: Vec<LockKey> = (0u64..4)
                    .map(|key| LockKey::new(1, key))
                    .filter(|&k| lm.holders(k).iter().any(|&(hid, _)| hid == action))
                    .collect();
                prop_assert_eq!(lm.keys_of(action), held, "keys_of({}) after {:?}", action, op);
            }
        }
        // Releasing everything empties the table completely.
        for a in 0u64..6 {
            lm.release_all(ActionId::from_raw(a));
        }
        prop_assert!(lm.is_empty(), "lock table leaked entries");
    }

    /// With a linear ancestry chain, descendants may share with ancestors,
    /// but unrelated actions still never violate the matrix.
    #[test]
    fn ancestry_never_leaks_to_unrelated_actions(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        // Chain: 1 -> 0, 2 -> 1 (nested under each other); 3, 4, 5 unrelated.
        let mut anc = MapAncestry::default();
        anc.0.insert(ActionId::from_raw(1), ActionId::from_raw(0));
        anc.0.insert(ActionId::from_raw(2), ActionId::from_raw(1));
        let chain = [0u64, 1, 2];
        let mut lm = LockManager::new();
        for op in &ops {
            if let Op::Acquire { action, key, mode } = *op {
                let _ = lm.acquire(
                    &anc,
                    ActionId::from_raw(action),
                    LockKey::new(1, key),
                    mode_of(mode),
                );
            }
            for key in 0u64..4 {
                let holders = lm.holders(LockKey::new(1, key));
                for (i, &(ha, hm)) in holders.iter().enumerate() {
                    for &(hb, gm) in holders.iter().skip(i + 1) {
                        let related = chain.contains(&ha.raw()) && chain.contains(&hb.raw());
                        prop_assert!(
                            hm.compatible(gm) || related,
                            "unrelated incompatible holders {ha}:{hm} / {hb}:{gm}"
                        );
                    }
                }
            }
        }
    }

    /// Refusals never mutate the table: a refused request leaves every
    /// holder exactly as it was.
    #[test]
    fn refusal_leaves_table_unchanged(key in 0u64..4, mode in 0u8..3) {
        let anc = MapAncestry::default();
        let mut lm = LockManager::new();
        let k = LockKey::new(1, key);
        lm.acquire(&anc, ActionId::from_raw(1), k, LockMode::Write).unwrap();
        let before = lm.holders(k);
        let result = lm.acquire(&anc, ActionId::from_raw(2), k, mode_of(mode));
        prop_assert!(result.is_err(), "write lock must refuse everything");
        prop_assert_eq!(before, lm.holders(k));
        prop_assert_eq!(lm.keys_of(ActionId::from_raw(2)), Vec::<LockKey>::new());
    }
}
