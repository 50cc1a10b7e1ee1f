//! The consistency oracle: sequential-replay equivalence plus the paper's
//! post-recovery invariants.
//!
//! Two families of checks:
//!
//! 1. **History replay** ([`Oracle::verify`], part one): committed actions
//!    are replayed in commit order against a sequential model of each
//!    object. Strict two-phase locking with refusal makes commit order a
//!    serialization order, so every recorded reply must match the model's,
//!    and after quiesce every store in `St(A)` must hold the model's final
//!    snapshot (invariant I2). The model **is** a fresh instance of the
//!    real object class ([`ModelKind`] builds a [`Counter`], [`KvMap`], or
//!    [`Account`]) executed without any replication machinery — so every
//!    operation type the class supports is checked per reply, not just
//!    counter adds (Crichlow & Hartley validate replicated objects per
//!    operation type; Shapiro & Preguiça's history-checking is what catches
//!    ordering bugs a final-state check misses).
//! 2. **Paper invariants after quiesce + recovery** (part two,
//!    [`check_quiescent_invariants`]): no leaked locks (I5), use lists
//!    quiescent (I4), `St` restored to full strength, and all listed
//!    stores byte-identical (I1). This generalizes what the repo-level
//!    `tests/invariants.rs` used to hard-code.

use crate::history::{EventKind, History};
use groupview_replication::{Account, Counter, KvMap, ObjectType, ReplicaObject, System};
use groupview_sim::{Bytes, IdMap, WireEncoder};
use groupview_store::Uid;
use std::fmt;

/// Dispatches once from a runtime [`ModelKind`] to its compile-time class,
/// so every per-class behaviour below is written exactly once, generically
/// over [`ObjectType`] — no parallel match arms per operation.
macro_rules! with_class {
    ($kind:expr, $C:ident => $body:expr) => {
        match $kind {
            ModelKind::Counter { .. } => {
                type $C = Counter;
                $body
            }
            ModelKind::KvMap => {
                type $C = KvMap;
                $body
            }
            ModelKind::Account { .. } => {
                type $C = Account;
                $body
            }
        }
    };
}
pub(crate) use with_class;

/// Which object class an oracle model replays, plus its initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// A [`Counter`] starting at the given value.
    Counter {
        /// The counter's initial committed value.
        initial: i64,
    },
    /// An empty [`KvMap`].
    KvMap,
    /// An [`Account`] opened with the given balance.
    Account {
        /// The account's initial committed balance.
        initial: u64,
    },
}

impl ModelKind {
    /// A zero-valued counter model (the historical default).
    pub const COUNTER: ModelKind = ModelKind::Counter { initial: 0 };

    /// Builds a fresh live instance of the class — both the object the
    /// scenario runner registers with the system and the sequential model
    /// the oracle replays.
    pub fn fresh(&self) -> Box<dyn ReplicaObject> {
        match *self {
            ModelKind::Counter { initial } => Box::new(Counter::new(initial)),
            ModelKind::KvMap => Box::new(KvMap::new()),
            ModelKind::Account { initial } => Box::new(Account::new(initial)),
        }
    }

    /// Whether `op` decodes as an operation of this class (undecodable ops
    /// in a history are recorder bugs and flagged as violations).
    fn decodes(&self, op: &[u8]) -> bool {
        with_class!(self, C => C::decode_op(op).is_some())
    }

    /// Human-readable decode of `op` for violation messages.
    fn describe_op(&self, op: &[u8]) -> String {
        with_class!(self, C => C::describe_op(op))
    }

    /// Human-readable decode of a reply *in the context of its op* for
    /// violation messages (a `Len` reply is a count, a `Get` reply a
    /// value — only the class codec knows).
    fn describe_reply(&self, op: &[u8], reply: &[u8]) -> String {
        with_class!(self, C => match C::decode_op(op) {
            Some(decoded) => format!("{:?}", C::decode_reply(&decoded, reply)),
            None => format!("{reply:?}"),
        })
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::Counter { .. } => write!(f, "counter"),
            ModelKind::KvMap => write!(f, "kv-map"),
            ModelKind::Account { .. } => write!(f, "account"),
        }
    }
}

/// What the oracle knows about one object under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectModel {
    /// The object.
    pub uid: Uid,
    /// The object's class and initial state.
    pub kind: ModelKind,
    /// `|St|` at creation — the strength recovery must restore.
    pub full_strength: usize,
}

/// The oracle's verdict over one run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Committed actions replayed.
    pub committed_actions: u64,
    /// Operations replayed inside those actions.
    pub replayed_ops: u64,
    /// The model's final snapshot per object — what every surviving store
    /// must hold after quiesce (I2).
    pub final_states: Vec<(Uid, Bytes)>,
    /// Everything that did not check out (empty means the run verified).
    pub violations: Vec<String>,
}

impl OracleReport {
    /// Whether every check passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(
                f,
                "ok ({} commits, {} ops replayed)",
                self.committed_actions, self.replayed_ops
            )
        } else {
            write!(
                f,
                "{} violation(s); first: {}",
                self.violations.len(),
                self.violations[0]
            )
        }
    }
}

/// Replays histories and checks invariants for a set of modeled objects.
///
/// The models are trivially sequential instances of the real classes, so
/// the *system's* behaviour — replication, locking, recovery — is the only
/// unknown under test.
#[derive(Debug, Clone)]
pub struct Oracle {
    objects: Vec<ObjectModel>,
    /// Check cross-object conservation: after every committed action's
    /// atomic replay, the sum of all account balances must equal the sum of
    /// their initial balances. Only meaningful for workloads whose account
    /// operations are balanced transfers (a deposit-only mix legitimately
    /// grows the total).
    conservation: bool,
}

impl Oracle {
    /// An oracle for the given objects.
    pub fn new(objects: Vec<ObjectModel>) -> Self {
        Oracle {
            objects,
            conservation: false,
        }
    }

    /// Enables the cross-object conservation check: the total across all
    /// account models must be invariant at every commit point. This is the
    /// atomicity oracle for transfers — a transaction that commits only one
    /// leg (a withdrawal without its deposit, or vice versa) shifts the
    /// total and is flagged at the exact action that broke it.
    pub(crate) fn with_conservation(mut self) -> Self {
        self.conservation = true;
        self
    }

    /// Runs the full verdict: history replay, final-state equivalence, and
    /// the paper's quiescence invariants. The caller must have quiesced the
    /// system first (healed partitions, recovered nodes, swept dead
    /// clients, no in-flight actions).
    pub fn verify(&self, sys: &System, history: &History) -> OracleReport {
        let mut report = self.replay(history);
        report
            .violations
            .extend(check_final_states(sys, &report.final_states));
        report
            .violations
            .extend(check_quiescent_invariants(sys, &self.objects));
        report
    }

    /// Part one only: replays the committed prefix of `history` against the
    /// sequential models and checks every recorded reply.
    pub fn replay(&self, history: &History) -> OracleReport {
        let mut report = OracleReport::default();
        // Models snapshot through a pooled encoder and reply into one
        // scratch buffer, cleared per op, so replay allocates only on its
        // cold start.
        let enc = WireEncoder::new();
        let mut expected = Vec::new();
        let mut model: IdMap<Uid, (ModelKind, Box<dyn ReplicaObject>)> = self
            .objects
            .iter()
            .map(|o| (o.uid, (o.kind, o.kind.fresh())))
            .collect();
        // Ops buffered per in-flight action, replayed at its commit event
        // (commit order == serialization order under strict 2PL).
        type PendingOp = (Uid, groupview_sim::Bytes, groupview_sim::Bytes);
        let mut pending: IdMap<u64, Vec<PendingOp>> = IdMap::default();
        let initial_total: u64 = self
            .objects
            .iter()
            .filter_map(|o| match o.kind {
                ModelKind::Account { initial } => Some(initial),
                _ => None,
            })
            .sum();
        for ev in history.events() {
            match &ev.kind {
                EventKind::Invoked { op, reply, .. } => {
                    // Undecodable op bytes are a recorder bug no matter how
                    // the action later ends — flag them here, where even an
                    // aborted or crashed action's events are still seen.
                    if let Some((kind, _)) = model.get(&ev.uid) {
                        if !kind.decodes(op) {
                            report
                                .violations
                                .push(format!("action {}: undecodable {kind} op", ev.action));
                            continue;
                        }
                    }
                    pending
                        .entry(ev.action)
                        .or_default()
                        .push((ev.uid, op.clone(), reply.clone()));
                }
                EventKind::Committed => {
                    report.committed_actions += 1;
                    for (uid, op, observed) in pending.remove(&ev.action).unwrap_or_default() {
                        let Some((kind, object)) = model.get_mut(&uid) else {
                            report
                                .violations
                                .push(format!("action {}: unknown object {uid}", ev.action));
                            continue;
                        };
                        report.replayed_ops += 1;
                        expected.clear();
                        object.invoke(&op, &mut expected);
                        if observed.as_slice() != expected.as_slice() {
                            report.violations.push(format!(
                                "action {} on {uid} ({kind}): {} replied {}, \
                                 sequential replay expects {}",
                                ev.action,
                                kind.describe_op(&op),
                                kind.describe_reply(&op, &observed),
                                kind.describe_reply(&op, &expected),
                            ));
                        }
                    }
                    // The commit point is where atomicity is observable:
                    // both legs of a transfer (or neither) are now in the
                    // models, so the account total must be back at par.
                    if self.conservation {
                        let total = account_total(&model, &enc);
                        if total != initial_total {
                            report.violations.push(format!(
                                "conservation violated after action {}: accounts total \
                                 {total}, expected {initial_total}",
                                ev.action
                            ));
                        }
                    }
                }
                // Aborted and crashed actions must leave no trace; their
                // buffered ops are simply dropped from the model.
                EventKind::Aborted { .. } | EventKind::CrashedMidAction => {
                    pending.remove(&ev.action);
                }
            }
        }
        report.final_states = self
            .objects
            .iter()
            .map(|o| (o.uid, model[&o.uid].1.snapshot(&enc)))
            .collect();
        report
    }
}

/// Sums the balances of every account model (an [`Account`] snapshot is its
/// balance, little-endian).
fn account_total(
    model: &IdMap<Uid, (ModelKind, Box<dyn ReplicaObject>)>,
    enc: &WireEncoder,
) -> u64 {
    model
        .values()
        .filter(|(kind, _)| matches!(kind, ModelKind::Account { .. }))
        .map(|(_, object)| {
            let snap = object.snapshot(enc);
            u64::from_le_bytes(snap.as_slice()[..8].try_into().expect("account snapshot"))
        })
        .sum()
}

/// Checks that every store listed in each object's `St` holds state bytes
/// equal to the model's `expected` snapshot (invariant I2 after quiesce:
/// committed effects survive).
pub fn check_final_states(sys: &System, expected: &[(Uid, Bytes)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (uid, want) in expected {
        let Some(entry) = sys.naming().state_db.entry(*uid) else {
            violations.push(format!("{uid}: no state-db entry"));
            continue;
        };
        for &node in &entry.stores {
            match sys.stores().read_local(node, *uid) {
                Ok(state) => {
                    if state.data.as_slice() != want.as_slice() {
                        violations.push(format!(
                            "{uid} at {node}: committed state {:?} differs from the \
                             model's {:?} (I2)",
                            state.data.as_slice(),
                            want.as_slice(),
                        ));
                    }
                }
                Err(e) => {
                    violations.push(format!("{uid} at {node}: unreadable after quiesce: {e}"))
                }
            }
        }
    }
    violations
}

/// Counter-specific convenience over [`check_final_states`]: checks that
/// every store holds a counter state equal to `expected`.
pub fn check_counter_states(sys: &System, expected: &[(Uid, i64)]) -> Vec<String> {
    let enc = WireEncoder::new();
    let snapshots: Vec<(Uid, Bytes)> = expected
        .iter()
        .map(|&(uid, v)| (uid, Counter::new(v).snapshot(&enc)))
        .collect();
    check_final_states(sys, &snapshots)
}

/// Checks the paper's invariants on a quiesced, fully recovered system:
/// empty lock table (I5) and action table, quiescent use lists (I4), `St`
/// back to full strength, byte-identical states across each `St` (I1), and
/// no stale coordinator record — a commit record is held only for an
/// intent some store still has in doubt.
pub fn check_quiescent_invariants(sys: &System, objects: &[ObjectModel]) -> Vec<String> {
    let mut violations = Vec::new();
    if !sys.tx().locks_empty() {
        violations.push("I5 violated: locks left behind after quiesce".to_string());
    }
    let live = sys.tx().live_actions();
    if live > 0 {
        violations.push(format!("{live} action record(s) left at quiescence"));
    }
    for (token, nodes) in sys.tx().decisions() {
        // A down node's intent log is durable but unreadable: its claim
        // stands until it recovers.
        let matched = nodes.iter().any(|&node| {
            !sys.sim().is_up(node)
                || sys
                    .stores()
                    .with(node, |s| s.indoubt().contains(&token))
                    .unwrap_or(false)
        });
        if !matched {
            violations.push(format!(
                "commit record for {token:?} kept with no in-doubt intent at {nodes:?}"
            ));
        }
    }
    for obj in objects {
        let uid = obj.uid;
        match sys.naming().server_db.entry(uid) {
            Some(entry) if !entry.is_quiescent() => {
                violations.push(format!(
                    "I4 violated: {uid} use list not quiescent: {entry}"
                ));
            }
            None => violations.push(format!("{uid}: no server-db entry")),
            _ => {}
        }
        let Some(entry) = sys.naming().state_db.entry(uid) else {
            violations.push(format!("{uid}: no state-db entry"));
            continue;
        };
        if entry.len() != obj.full_strength {
            violations.push(format!(
                "{uid}: St has {} stores after recovery, expected {}",
                entry.len(),
                obj.full_strength
            ));
        }
        let mut states = Vec::new();
        for &node in &entry.stores {
            match sys.stores().read_local(node, uid) {
                Ok(state) => states.push((node, state)),
                Err(e) => violations.push(format!("{uid} at {node}: unreadable: {e}")),
            }
        }
        for pair in states.windows(2) {
            if pair[0].1 != pair[1].1 {
                violations.push(format!(
                    "I1 violated: {uid} stores {} and {} disagree",
                    pair[0].0, pair[1].0
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_replication::{AccountOp, CounterOp, KvOp, KvReply};
    use groupview_sim::{Bytes, SimTime};

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    fn oracle_for(kind: ModelKind) -> Oracle {
        Oracle::new(vec![ObjectModel {
            uid: uid(),
            kind,
            full_strength: 3,
        }])
    }

    fn oracle() -> Oracle {
        oracle_for(ModelKind::COUNTER)
    }

    fn op(o: CounterOp) -> Bytes {
        Bytes::from(Counter::op_vec(&o))
    }

    fn reply(v: i64) -> Bytes {
        Bytes::from(Counter::reply_vec(&v))
    }

    #[test]
    fn replay_accepts_a_consistent_history() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), op(CounterOp::Add(2)), reply(2), true);
        h.committed(t, 0, 1, uid());
        // An aborted action's ops must not move the model.
        h.invoked(t, 1, 2, uid(), op(CounterOp::Add(50)), reply(52), true);
        h.aborted(t, 1, 2, uid(), false);
        h.invoked(t, 0, 3, uid(), op(CounterOp::Get), reply(2), false);
        h.committed(t, 0, 3, uid());
        let report = oracle().replay(&h);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.committed_actions, 2);
        assert_eq!(report.replayed_ops, 2);
        assert_eq!(report.final_states.len(), 1);
        assert_eq!(report.final_states[0].0, uid());
        assert_eq!(report.final_states[0].1, Counter::reply_vec(&2));
        assert!(report.to_string().contains("ok"));
    }

    #[test]
    fn replay_flags_a_lost_update() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), op(CounterOp::Add(1)), reply(1), true);
        h.committed(t, 0, 1, uid());
        // A second committed Add(1) whose reply shows the first was lost.
        h.invoked(t, 1, 2, uid(), op(CounterOp::Add(1)), reply(1), true);
        h.committed(t, 1, 2, uid());
        let report = oracle().replay(&h);
        assert!(!report.is_ok());
        assert!(report.violations[0].contains("expects"), "{report}");
    }

    #[test]
    fn replay_flags_a_stale_read() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), op(CounterOp::Add(3)), reply(3), true);
        h.committed(t, 0, 1, uid());
        h.invoked(t, 1, 2, uid(), op(CounterOp::Get), reply(0), false);
        h.committed(t, 1, 2, uid());
        let report = oracle().replay(&h);
        assert!(!report.is_ok());
        assert!(report.to_string().contains("violation"));
    }

    #[test]
    fn replay_drops_crashed_actions() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), op(CounterOp::Add(7)), reply(7), true);
        h.crashed(t, 0, 1, uid());
        let report = oracle().replay(&h);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.final_states[0].1, Counter::reply_vec(&0));
    }

    #[test]
    fn replay_flags_undecodable_ops_and_unknown_objects() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), Bytes::from_static(b"\xff"), reply(0), true);
        h.invoked(
            t,
            0,
            1,
            Uid::from_raw(99),
            op(CounterOp::Add(1)),
            reply(1),
            true,
        );
        h.committed(t, 0, 1, uid());
        let report = oracle().replay(&h);
        assert_eq!(report.violations.len(), 2, "{report}");
    }

    /// Undecodable op bytes are a recorder bug even when the action never
    /// commits: the check runs at the `Invoked` event, so an aborted
    /// action's garbage is still flagged.
    #[test]
    fn replay_flags_undecodable_ops_of_aborted_actions() {
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), Bytes::from_static(b"\xff"), reply(0), true);
        h.aborted(t, 0, 1, uid(), false);
        let report = oracle().replay(&h);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(report.violations[0].contains("undecodable"));
    }

    #[test]
    fn kv_replay_checks_previous_value_replies() {
        let kv = |o: KvOp| Bytes::from(KvMap::op_vec(&o));
        let kvr = |r: &str| Bytes::from(KvMap::reply_vec(&KvReply::Value(r.into())));
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(
            t,
            0,
            1,
            uid(),
            kv(KvOp::Put("k".into(), "v1".into())),
            kvr(""),
            true,
        );
        h.committed(t, 0, 1, uid());
        // The second Put must reply with the first value.
        h.invoked(
            t,
            1,
            2,
            uid(),
            kv(KvOp::Put("k".into(), "v2".into())),
            kvr("v1"),
            true,
        );
        h.invoked(t, 1, 2, uid(), kv(KvOp::Get("k".into())), kvr("v2"), false);
        h.committed(t, 1, 2, uid());
        let report = oracle_for(ModelKind::KvMap).replay(&h);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.replayed_ops, 3);
        // The final snapshot is the real KvMap encoding.
        let enc = WireEncoder::new();
        let mut model = KvMap::new();
        model.apply(KvOp::Put("k".into(), "v2".into()));
        assert_eq!(report.final_states[0].1, model.snapshot(&enc));

        // A lost first Put shows up in the second Put's reply.
        let mut h = History::new();
        h.invoked(
            t,
            0,
            1,
            uid(),
            kv(KvOp::Put("k".into(), "v1".into())),
            kvr(""),
            true,
        );
        h.committed(t, 0, 1, uid());
        h.invoked(
            t,
            1,
            2,
            uid(),
            kv(KvOp::Put("k".into(), "v2".into())),
            kvr(""),
            true,
        );
        h.committed(t, 1, 2, uid());
        let report = oracle_for(ModelKind::KvMap).replay(&h);
        assert!(!report.is_ok(), "lost update must be flagged");
        assert!(report.violations[0].contains("Put"), "{report}");
    }

    #[test]
    fn account_replay_checks_refused_withdrawals() {
        let acct = |o: AccountOp| Bytes::from(Account::op_vec(&o));
        let r = |v: u64| Bytes::from(Account::reply_vec(&v));
        let mut h = History::new();
        let t = SimTime::ZERO;
        h.invoked(t, 0, 1, uid(), acct(AccountOp::Deposit(50)), r(60), true);
        h.invoked(
            t,
            0,
            1,
            uid(),
            acct(AccountOp::Withdraw(100)),
            r(AccountOp::REFUSED),
            true,
        );
        h.invoked(t, 0, 1, uid(), acct(AccountOp::Balance), r(60), false);
        h.committed(t, 0, 1, uid());
        let oracle = oracle_for(ModelKind::Account { initial: 10 });
        let report = oracle.replay(&h);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(report.final_states[0].1, Account::reply_vec(&60));

        // A refused withdrawal that "succeeded" in the history is flagged.
        let mut h = History::new();
        h.invoked(t, 0, 1, uid(), acct(AccountOp::Withdraw(100)), r(0), true);
        h.committed(t, 0, 1, uid());
        let report = oracle_for(ModelKind::Account { initial: 10 }).replay(&h);
        assert!(!report.is_ok(), "overdraft must be flagged");
        assert!(report.violations[0].contains("Withdraw"), "{report}");
    }

    /// The cross-object atomicity oracle: balanced transfers conserve the
    /// account total at every commit point; a commit that applied only one
    /// leg is flagged at exactly that action.
    #[test]
    fn conservation_accepts_transfers_and_flags_a_lost_leg() {
        let a = Uid::from_raw(1);
        let b = Uid::from_raw(2);
        let model = |uid| ObjectModel {
            uid,
            kind: ModelKind::Account { initial: 100 },
            full_strength: 3,
        };
        let oracle = Oracle::new(vec![model(a), model(b)]).with_conservation();
        let acct = |o: AccountOp| Bytes::from(Account::op_vec(&o));
        let r = |v: u64| Bytes::from(Account::reply_vec(&v));
        let t = SimTime::ZERO;

        // A balanced two-leg transfer conserves.
        let mut h = History::new();
        h.invoked(t, 0, 1, a, acct(AccountOp::Withdraw(10)), r(90), true);
        h.invoked(t, 0, 1, b, acct(AccountOp::Deposit(10)), r(110), true);
        h.committed(t, 0, 1, a);
        let report = oracle.replay(&h);
        assert!(report.is_ok(), "{report}");

        // A refused withdrawal whose deposit leg was skipped also conserves.
        let mut h = History::new();
        h.invoked(
            t,
            0,
            1,
            a,
            acct(AccountOp::Withdraw(1000)),
            r(AccountOp::REFUSED),
            true,
        );
        h.committed(t, 0, 1, a);
        assert!(oracle.replay(&h).is_ok());

        // A committed withdrawal without its deposit shifts the total.
        let mut h = History::new();
        h.invoked(t, 0, 1, a, acct(AccountOp::Withdraw(10)), r(90), true);
        h.committed(t, 0, 1, a);
        let report = oracle.replay(&h);
        assert!(!report.is_ok(), "one-legged transfer must be flagged");
        assert!(report.violations[0].contains("conservation"), "{report}");
        assert!(report.violations[0].contains("90"), "{report}");

        // Without the flag the same history passes (deposit-only workloads
        // legitimately change the total).
        let plain = Oracle::new(vec![model(a), model(b)]);
        assert!(plain.replay(&h).is_ok());
    }

    #[test]
    fn model_kinds_build_their_classes() {
        let enc = WireEncoder::new();
        assert_eq!(ModelKind::COUNTER.to_string(), "counter");
        assert_eq!(ModelKind::KvMap.to_string(), "kv-map");
        assert_eq!(ModelKind::Account { initial: 5 }.to_string(), "account");
        let mut c = ModelKind::Counter { initial: 3 }.fresh();
        let mut reply = Vec::new();
        assert!(!c.invoke(&Counter::op_vec(&CounterOp::Get), &mut reply));
        assert_eq!(Counter::decode_reply(&CounterOp::Get, &reply), Some(3));
        let a = ModelKind::Account { initial: 9 }.fresh();
        assert_eq!(a.snapshot(&enc), Account::reply_vec(&9));
        assert!(ModelKind::KvMap.fresh().snapshot(&enc).starts_with(&[0]));
    }

    #[test]
    fn per_class_dispatch_routes_through_the_trait() {
        for (kind, good, bad) in [
            (
                ModelKind::COUNTER,
                Counter::op_vec(&CounterOp::Get),
                vec![9u8],
            ),
            (ModelKind::KvMap, KvMap::op_vec(&KvOp::Len), vec![77u8]),
            (
                ModelKind::Account { initial: 0 },
                Account::op_vec(&AccountOp::Balance),
                vec![9u8],
            ),
        ] {
            assert!(kind.decodes(&good), "{kind}");
            assert!(!kind.decodes(&bad), "{kind}");
            assert!(!kind.describe_op(&good).contains("None"), "{kind}");
        }
        // Reply description decodes in op context: the same 8 bytes read as
        // a count for Len and as (non-utf8-checked) text for Get.
        let len_reply = KvMap::reply_vec(&KvReply::Len(3));
        assert!(ModelKind::KvMap
            .describe_reply(&KvMap::op_vec(&KvOp::Len), &len_reply)
            .contains("Len(3)"));
    }
}
