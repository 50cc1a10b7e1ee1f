//! Property tests for the paper's core invariants:
//!
//! * **I1** — every store listed in `St(A)` holds a byte-identical copy of
//!   `A`'s latest committed state;
//! * **I2** — committed effects are never lost while at least one store in
//!   `St(A)` survives;
//! * **I3** — a client can never read stale state through a binding;
//! * **I4** — use lists are quiescent once all clients finished;
//! * **I5** — the lock table is empty after all actions terminate.
//!
//! A random schedule of writes, reads, crashes, recoveries, and cleanup
//! sweeps is run against a model (the expected committed value of each
//! counter); the invariants are checked after every step and at the end.

use groupview::scenario::{
    check_counter_states, check_quiescent_invariants, ModelKind, ObjectModel,
};
use groupview::{Counter, CounterOp, NodeId, ObjectType, ReplicationPolicy, System, Uid};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Run a client action adding 1 to the object (may abort).
    Write(usize),
    /// Run a read-only client action and check the value against the model.
    Read(usize),
    /// Crash one of the server/store nodes.
    Crash(usize),
    /// Recover one of the server/store nodes (full recovery protocol).
    Recover(usize),
    /// Try to passivate the object.
    Passivate(usize),
    /// Partition the client node away from one server/store node.
    Partition(usize),
    /// Heal all partitions and run store recovery everywhere.
    HealAll,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0usize..2).prop_map(Step::Write),
        3 => (0usize..2).prop_map(Step::Read),
        2 => (0usize..3).prop_map(Step::Crash),
        2 => (0usize..3).prop_map(Step::Recover),
        1 => (0usize..2).prop_map(Step::Passivate),
        2 => (0usize..3).prop_map(Step::Partition),
        2 => Just(Step::HealAll),
    ]
}

struct World {
    sys: System,
    objects: Vec<Uid>,
    /// Model: expected committed value per object.
    model: Vec<i64>,
    trio: [NodeId; 3],
    client_node: NodeId,
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build(seed: u64, policy: ReplicationPolicy) -> World {
    let sys = System::builder(seed).nodes(6).policy(policy).build();
    let trio = [n(1), n(2), n(3)];
    let objects = (0..2)
        .map(|_| {
            sys.create_object(Box::new(Counter::new(0)), &trio, &trio)
                .expect("create")
        })
        .collect();
    World {
        sys,
        objects,
        model: vec![0, 0],
        trio,
        client_node: n(4),
    }
}

impl World {
    fn apply(&mut self, step: &Step) {
        match *step {
            Step::Write(o) => {
                let uid = self.objects[o];
                let client = self.sys.client(self.client_node);
                let counter = client.open::<Counter>(uid);
                let action = client.begin_action();
                let committed = (|| {
                    counter.activate(action, 2).ok()?;
                    counter.invoke(action, CounterOp::Add(1)).ok()?;
                    client.commit(action).ok()
                })();
                match committed {
                    Some(()) => self.model[o] += 1,
                    None => client.abort(action),
                }
            }
            Step::Read(o) => {
                let uid = self.objects[o];
                let client = self.sys.client(self.client_node);
                let counter = client.open::<Counter>(uid);
                let action = client.begin_action();
                let observed = (|| {
                    counter.activate_read_only(action, 1).ok()?;
                    let value = counter.invoke(action, CounterOp::Get).ok()?;
                    client.commit(action).ok()?;
                    Some(value)
                })();
                if let Some(value) = observed {
                    // I3: a successful read can never be stale.
                    assert_eq!(
                        value, self.model[o],
                        "stale read through a valid binding (object {o})"
                    );
                } else {
                    client.abort(action);
                }
            }
            Step::Crash(i) => self.sys.sim().crash(self.trio[i]),
            Step::Recover(i) => {
                self.sys.recovery().recover_node(self.trio[i]);
            }
            Step::Passivate(o) => {
                let _ = self.sys.try_passivate(self.objects[o]);
            }
            Step::Partition(i) => {
                self.sys.sim().partition(self.client_node, self.trio[i]);
            }
            Step::HealAll => {
                self.sys.sim().heal_all();
                for i in 0..3 {
                    if self.sys.sim().is_up(self.trio[i]) {
                        self.sys.recovery().recover_store(self.trio[i]);
                    }
                }
            }
        }
    }

    /// I1 among *listed and reachable* stores, checked continuously.
    fn check_consistency(&self) {
        for (o, &uid) in self.objects.iter().enumerate() {
            let Some(entry) = self.sys.naming().state_db.entry(uid) else {
                continue;
            };
            let mut states = Vec::new();
            for &node in &entry.stores {
                if self.sys.sim().is_up(node) {
                    if let Ok(state) = self.sys.stores().read_local(node, uid) {
                        states.push((node, state));
                    }
                }
            }
            for window in states.windows(2) {
                assert_eq!(
                    window[0].1, window[1].1,
                    "I1 violated for object {o}: stores {} and {} disagree",
                    window[0].0, window[1].0
                );
            }
            // The committed value in the stores matches the model.
            if let Some((_, state)) = states.first() {
                assert_eq!(
                    Counter::decode_state(&state.data).value(),
                    self.model[o],
                    "I2 violated for object {o}: committed value lost"
                );
            }
        }
    }

    fn finish(&mut self) {
        // Bring everything back, then let recovery reach a joint fixpoint
        // (one node's refresh may need another node to be up first).
        self.sys.sim().heal_all();
        for i in 0..3 {
            self.sys.sim().recover(self.trio[i]);
        }
        let mut guard = 0;
        loop {
            let mut all_done = true;
            for i in 0..3 {
                let mut report = self.sys.recovery().recover_store(self.trio[i]);
                report.merge(self.sys.recovery().recover_server(self.trio[i]));
                if !report.fully_recovered() {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            guard += 1;
            assert!(guard < 50, "recovery never reached a fixpoint");
        }
        // I5 (no leaked locks), I4 (quiescent use lists), St restored to
        // full strength, and I1 (byte-identical stores): the scenario
        // oracle's quiescent-invariant check, which generalizes what this
        // test used to hard-code.
        let objects: Vec<ObjectModel> = self
            .objects
            .iter()
            .map(|&uid| ObjectModel {
                uid,
                kind: ModelKind::COUNTER,
                full_strength: 3,
            })
            .collect();
        let violations = check_quiescent_invariants(&self.sys, &objects);
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
        // I2 after recovery: every store holds the model's committed value.
        let expected: Vec<(Uid, i64)> = self
            .objects
            .iter()
            .zip(&self.model)
            .map(|(&uid, &v)| (uid, v))
            .collect();
        let violations = check_counter_states(&self.sys, &expected);
        assert!(violations.is_empty(), "I2 violated: {violations:?}");
        // Final read-back through the public API (I3 again).
        for (o, &uid) in self.objects.iter().enumerate() {
            let client = self.sys.client(n(5));
            let counter = client.open::<Counter>(uid);
            let action = client.begin_action();
            counter
                .activate_read_only(action, 1)
                .expect("activate after full recovery");
            let value = counter
                .invoke(action, CounterOp::Get)
                .expect("read after full recovery");
            client.commit(action).expect("commit");
            assert_eq!(value, self.model[o], "object {o}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn invariants_hold_under_random_schedules_active(
        seed in 0u64..10_000,
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let mut world = build(seed, ReplicationPolicy::Active);
        for step in &steps {
            world.apply(step);
            world.check_consistency();
        }
        world.finish();
    }

    #[test]
    fn invariants_hold_under_random_schedules_single_copy(
        seed in 0u64..10_000,
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let mut world = build(seed, ReplicationPolicy::SingleCopyPassive);
        for step in &steps {
            world.apply(step);
            world.check_consistency();
        }
        world.finish();
    }

    #[test]
    fn invariants_hold_under_random_schedules_cohort(
        seed in 0u64..10_000,
        steps in prop::collection::vec(step_strategy(), 1..30),
    ) {
        let mut world = build(seed, ReplicationPolicy::CoordinatorCohort);
        for step in &steps {
            world.apply(step);
            world.check_consistency();
        }
        world.finish();
    }
}
