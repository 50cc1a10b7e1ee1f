//! The typed transaction surface end to end.
//!
//! Two contracts of `Tx` that the unit tests can't pin alone:
//!
//! * **Deadlock-by-refusal**: two transactions locking `{A, B}` in opposite
//!   orders resolve by abort — strict two-phase locking refuses the second
//!   lock instead of waiting, so the classic deadlock cannot hang, and the
//!   refusal is classified as contention, never as a failure.
//! * **Parity**: a one-object `Tx` is bit-for-bit identical to the manual
//!   `begin_action`/`activate`/`invoke`/`commit` path — same typed reply,
//!   same simulated clock, same committed store bytes — under every
//!   replication policy (property-tested over amounts and seeds).

use groupview_replication::{Account, AccountOp, ReplicationPolicy, System, TypedUid};
use groupview_sim::{Cause, NodeId};
use proptest::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

const POLICIES: [ReplicationPolicy; 3] = [
    ReplicationPolicy::Active,
    ReplicationPolicy::CoordinatorCohort,
    ReplicationPolicy::SingleCopyPassive,
];

/// Two transactions take `{A, B}` in opposite orders: each holds its first
/// lock, each is *refused* the other's (contention, not failure), both
/// abort cleanly, and a retry then commits. The test terminating at all is
/// the no-hang guarantee — refusal-not-waiting means there is no blocked
/// state to deadlock in.
#[test]
fn opposite_order_lock_transactions_resolve_by_abort_not_deadlock() {
    for policy in POLICIES {
        let sys = System::builder(7).nodes(6).policy(policy).build();
        let trio = [n(1), n(2), n(3)];
        let a = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
        let b = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
        let client1 = sys.client(n(4));
        let client2 = sys.client(n(5));

        let mut tx1 = client1.begin().with_replicas(2);
        let mut tx2 = client2.begin().with_replicas(2);
        let (a1, b1) = (a.open(&client1), b.open(&client1));
        let (a2, b2) = (a.open(&client2), b.open(&client2));

        // tx1 write-locks A; tx2 write-locks B.
        tx1.invoke(&a1, AccountOp::Withdraw(10))
            .expect("tx1 locks A");
        tx2.invoke(&b2, AccountOp::Withdraw(10))
            .expect("tx2 locks B");

        // Each now wants the other's object: both are refused immediately.
        let e1 = tx1.invoke(&b1, AccountOp::Deposit(10)).unwrap_err();
        let e2 = tx2.invoke(&a2, AccountOp::Deposit(10)).unwrap_err();
        for e in [&e1, &e2] {
            assert_eq!(
                e.cause(),
                Cause::Contention,
                "{policy:?}: lock-order conflict must classify as contention, got {e}"
            );
        }
        tx1.abort();
        tx2.abort();

        // The aborts released both locks and undid both withdrawals: a
        // retry commits the full transfer against intact balances.
        let mut tx = client1.begin().with_replicas(2);
        assert_eq!(tx.invoke(&a1, AccountOp::Withdraw(10)).unwrap(), 90);
        assert_eq!(tx.invoke(&b1, AccountOp::Deposit(10)).unwrap(), 110);
        tx.commit().expect("retry commits");
    }
}

/// Everything observable about a committed one-object run: the typed
/// reply, the simulated clock (identical message schedules tick
/// identically), and the committed bytes on every store node.
fn run_fingerprint(sys: &System, reply: u64, uid: TypedUid<Account>) -> String {
    let states: Vec<_> = [n(1), n(2), n(3)]
        .iter()
        .map(|&node| format!("{:?}", sys.stores().read_local(node, uid.uid())))
        .collect();
    format!("reply={reply} now={:?} stores={states:?}", sys.sim().now())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A one-object `Tx` is the manual action path, bit for bit: same
    /// reply, same clock, same store bytes — including refused overdrafts
    /// (which skip the commit-time copy on both paths).
    #[test]
    fn one_object_tx_matches_manual_action_path_bit_for_bit(
        seed in 1u64..1_000,
        amount in 0u64..200, // initial balance is 100: covers REFUSED too
    ) {
        for policy in POLICIES {
            let build = || {
                let sys = System::builder(seed).nodes(6).policy(policy).build();
                let trio = [n(1), n(2), n(3)];
                let uid = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
                (sys, uid)
            };

            // Manual: explicit action id threaded through the raw surface.
            let (sys_m, uid_m) = build();
            let client = sys_m.client(n(4));
            let handle = uid_m.open(&client);
            let action = client.begin_action();
            handle.activate(action, 2).expect("activate");
            let reply_m = handle.invoke(action, AccountOp::Withdraw(amount)).expect("invoke");
            client.commit(action).expect("commit");
            let manual = run_fingerprint(&sys_m, reply_m, uid_m);

            // Typed: the same operation through the Tx builder.
            let (sys_t, uid_t) = build();
            let client = sys_t.client(n(4));
            let handle = uid_t.open(&client);
            let mut tx = client.begin().with_replicas(2);
            let reply_t = tx.invoke(&handle, AccountOp::Withdraw(amount)).expect("tx invoke");
            tx.commit().expect("tx commit");
            let typed = run_fingerprint(&sys_t, reply_t, uid_t);

            prop_assert_eq!(
                manual, typed,
                "Tx diverged from the manual path under {:?}", policy
            );
        }
    }
}

/// Dropping an unfinished `Tx` aborts it: both legs of a transfer are
/// undone and the locks released.
#[test]
fn dropping_a_tx_aborts_and_restores_both_objects() {
    let sys = System::builder(3).nodes(6).build();
    let trio = [n(1), n(2), n(3)];
    let a = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
    let b = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
    let client = sys.client(n(4));
    let (ha, hb) = (a.open(&client), b.open(&client));

    let mut tx = client.begin().with_replicas(2);
    assert_eq!(tx.invoke(&ha, AccountOp::Withdraw(40)).unwrap(), 60);
    assert_eq!(tx.invoke(&hb, AccountOp::Deposit(40)).unwrap(), 140);
    drop(tx); // early return / panic path: the drop aborts

    let mut audit = client.begin().with_replicas(2);
    assert_eq!(audit.invoke(&ha, AccountOp::Balance).unwrap(), 100);
    assert_eq!(audit.invoke(&hb, AccountOp::Balance).unwrap(), 100);
    audit.commit().expect("audit commit");
}
