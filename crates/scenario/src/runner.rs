//! The scenario runner: `Scenario = WorkloadSpec × FaultPlan × checks`.
//!
//! [`run_plan_typed`] is the **single workload execution engine** of the
//! workspace: it interleaves client state machines one step at a time
//! (bind, invoke, or commit per step, in a seeded-random order), executes a
//! time-keyed [`FaultPlan`] through the simulator's event queue, and
//! records a [`History`] for the oracle. It subsumed the legacy
//! `workload::Driver`, whose recorded runs `tests/parity.rs` still pins.
//!
//! `run_scenario` adds the full verification cycle: build the world, run
//! the plan, quiesce (heal + recover + sweep), and hand the history to the
//! [`Oracle`]. [`run_matrix`] fans a scenario list across a seed list.

use crate::history::History;
use crate::oracle::{with_class, ModelKind, ObjectModel, Oracle, OracleReport};
use crate::plan::{FaultPlan, PlanAction};
use groupview_actions::ActionId;
use groupview_core::{BindingScheme, Deferred};
use groupview_membership::{Membership, Rebalancer};
use groupview_obs::MetricsSnapshot;
use groupview_replication::{
    Account, AccountOp, Client, CommitError, Counter, CounterOp, Handle, KvMap, KvOp, ObjectGroup,
    ObjectType, ReplicationPolicy, System, Tx, TxOpError, TypedUid,
};
use groupview_sim::{Bytes, Cause, ClientId, IdSet, NodeId, ScheduledEvent, Sim, SimDuration};
use groupview_store::Uid;
use groupview_workload::{RunMetrics, WorkloadSpec};
use std::fmt;

/// Everything [`run_plan_typed`] produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The workload metrics (same accounting as the legacy driver).
    pub metrics: RunMetrics,
    /// The recorded per-client event history.
    pub history: History,
}

enum Phase {
    Idle,
    Running {
        action: ActionId,
        group: ObjectGroup,
        /// Index of the acted-on object in `spec.objects` (also indexes
        /// the run's `ModelKind`s).
        object_index: usize,
        ops_left: usize,
        read_only: bool,
    },
    /// A two-object transfer built through the typed [`Tx`] surface, both
    /// legs applied; the next step commits (so fault plans can land in the
    /// invoke→commit window, including `store_commit_crashes` traps).
    Transfer {
        tx: Tx,
        /// The withdraw-side object: the history representative for the
        /// commit/abort event.
        uid: Uid,
    },
}

impl Phase {
    /// Takes the in-flight action, if any, leaving the phase idle: its id
    /// and the object its history events name. A transfer's [`Tx`] is
    /// released unfinished; the caller ends the action.
    fn take(&mut self) -> Option<(ActionId, Uid)> {
        match std::mem::replace(self, Phase::Idle) {
            Phase::Idle => None,
            Phase::Running { action, group, .. } => Some((action, group.uid)),
            Phase::Transfer { tx, uid } => Some((tx.leak(), uid)),
        }
    }
}

struct Machine {
    idx: usize,
    client: Client,
    actions_left: usize,
    phase: Phase,
    dead: bool,
    /// What the in-flight action's finished steps cost this client:
    /// virtual µs and charged messages (see [`meter`]).
    spent: (u64, u64),
}

impl Machine {
    fn is_finished(&self) -> bool {
        self.dead || (self.actions_left == 0 && matches!(self.phase, Phase::Idle))
    }
}

/// Where an aborted action stopped.
#[derive(Clone, Copy)]
enum Stage {
    Bind,
    Invoke,
    Commit,
}

/// How an action ended.
#[derive(Clone, Copy)]
enum Ended {
    Committed,
    /// Aborted at a stage, for a cause: [`Cause::Failure`] books a failure,
    /// any other cause a contention abort.
    Aborted(Stage, Cause),
    /// Its client crashed mid-action, leaving locks and bindings behind.
    Crashed,
    /// Still in flight at the step bound, and aborted there.
    Abandoned,
}

impl Ended {
    fn of_commit(result: Result<(), CommitError>) -> Ended {
        match result {
            Ok(()) => Ended::Committed,
            Err(e) => Ended::Aborted(Stage::Commit, e.cause()),
        }
    }
}

/// Per-class workload operation generation, layered on [`ObjectType`]: the
/// class owns its op mix, and the runner reaches it through the same trait
/// the typed client surface and the oracle use — no parallel match arms.
///
/// Determinism contract: generators must draw from the seeded simulator RNG
/// in a fixed order (or not at all), and the counter generator draws
/// nothing, so the parity-pinned counter workloads consume **no extra RNG
/// draws**.
trait WorkloadOps: ObjectType {
    /// Draws a mutating operation. `seq` is a per-run monotone counter the
    /// class may bump to make successive writes distinct.
    fn gen_write(sim: &Sim, seq: &mut u64) -> Self::Op;

    /// Draws a read-only operation.
    fn gen_read(sim: &Sim) -> Self::Op;
}

/// KvMap workloads contend on this many distinct keys.
const KV_KEYS: u64 = 3;

impl WorkloadOps for Counter {
    fn gen_write(_sim: &Sim, _seq: &mut u64) -> CounterOp {
        CounterOp::Add(1)
    }

    fn gen_read(_sim: &Sim) -> CounterOp {
        CounterOp::Get
    }
}

impl WorkloadOps for KvMap {
    fn gen_write(sim: &Sim, seq: &mut u64) -> KvOp {
        let key = format!("k{}", sim.random_below(KV_KEYS));
        *seq += 1;
        if sim.chance(0.2) {
            KvOp::Delete(key)
        } else {
            // A distinct value per write, so the oracle's previous-value
            // checks bite.
            KvOp::Put(key, format!("v{seq}"))
        }
    }

    fn gen_read(sim: &Sim) -> KvOp {
        if sim.chance(0.25) {
            KvOp::Len
        } else {
            KvOp::Get(format!("k{}", sim.random_below(KV_KEYS)))
        }
    }
}

impl WorkloadOps for Account {
    fn gen_write(sim: &Sim, _seq: &mut u64) -> AccountOp {
        let amount = 1 + sim.random_below(5);
        if sim.chance(0.5) {
            AccountOp::Deposit(amount)
        } else {
            // Withdrawals overdraw sometimes: the REFUSED reply is part of
            // the per-operation-type contract under test.
            AccountOp::Withdraw(amount)
        }
    }

    fn gen_read(_sim: &Sim) -> AccountOp {
        AccountOp::Balance
    }
}

/// The runner's operation source: dispatches each object's [`ModelKind`] to
/// its class generator and encodes through the trait codec.
///
/// Counter operations are pre-encoded once and shared by every invocation
/// and history record (cloning [`Bytes`] is a refcount bump, so the counter
/// path — the parity-pinned one — stays allocation-free).
struct OpGen {
    counter_write: Bytes,
    counter_read: Bytes,
    /// Monotone sequence handed to [`WorkloadOps::gen_write`].
    write_seq: u64,
    /// Scratch kind-per-object lookup, parallel to `spec.objects`.
    kinds: Vec<ModelKind>,
}

impl OpGen {
    fn new(kinds: Vec<ModelKind>) -> Self {
        OpGen {
            counter_write: Bytes::from(Counter::op_vec(&CounterOp::Add(1))),
            counter_read: Bytes::from(Counter::op_vec(&CounterOp::Get)),
            write_seq: 0,
            kinds,
        }
    }

    fn kind_of(&self, object_index: usize) -> ModelKind {
        self.kinds[object_index]
    }

    fn write_op(&mut self, sim: &Sim, kind: ModelKind) -> Bytes {
        if matches!(kind, ModelKind::Counter { .. }) {
            // The cached frame is the same bytes `C::gen_write` + `op_vec`
            // would produce; sharing it keeps the hot path allocation-free.
            return self.counter_write.clone();
        }
        let seq = &mut self.write_seq;
        with_class!(kind, C => Bytes::from(C::op_vec(&C::gen_write(sim, seq))))
    }

    fn read_op(&mut self, sim: &Sim, kind: ModelKind) -> Bytes {
        if matches!(kind, ModelKind::Counter { .. }) {
            return self.counter_read.clone();
        }
        with_class!(kind, C => Bytes::from(C::op_vec(&C::gen_read(sim))))
    }
}

/// Runs `spec` against `sys` under `plan`, recording history.
///
/// `kinds[i]` names the class of `spec.objects[i]` and selects the
/// operation mix driven against it: counters invoke `Add(1)`/`Get`, kv
/// maps `Put`/`Delete`/`Get`/`Len` over a small contended key set, and
/// accounts `Deposit`/`Withdraw` (sometimes overdrawing)/`Balance`.
///
/// Plan entries are installed into the simulator's event queue as
/// [`ScheduledEvent::Custom`] markers before the first step, and each fires
/// at the top of the first step whose clock has reached its offset.
///
/// A client pays for its own steps only: the simulator's clock and
/// message counters are read around each one, so plan actions, §4
/// recovery retries and drain passes between steps are charged to no
/// client.
///
/// # Panics
///
/// Panics if the spec has no objects or no client nodes, or if `kinds` is
/// not parallel to `spec.objects`.
pub fn run_plan_typed(
    sys: &System,
    spec: &WorkloadSpec,
    plan: &FaultPlan,
    kinds: &[ModelKind],
) -> RunOutcome {
    assert!(!spec.objects.is_empty(), "workload needs objects");
    assert!(!spec.client_nodes.is_empty(), "workload needs client nodes");
    assert_eq!(
        kinds.len(),
        spec.objects.len(),
        "one ModelKind per workload object"
    );
    let sim = sys.sim();
    let mut run = Run {
        sys,
        spec,
        ops: OpGen::new(kinds.to_vec()),
        metrics: RunMetrics::default(),
        history: History::with_capacity(
            spec.total_actions() * (spec.ops_per_action + 1) + plan.len(),
        ),
        recovering: Vec::new(),
        membership: Membership::new(sys),
        draining: Vec::new(),
        step_start: meter(sim),
    };
    let mut machines: Vec<Machine> = (0..spec.clients)
        .map(|i| {
            let node = spec.client_nodes[i % spec.client_nodes.len()];
            Machine {
                idx: i,
                client: sys.client_with_id(ClientId::new(i as u32), node),
                actions_left: spec.actions_per_client,
                phase: Phase::Idle,
                dead: false,
                spent: (0, 0),
            }
        })
        .collect();

    // Plan entries are offsets from *now* (the start of the run), so plans
    // are independent of how much virtual time setup consumed.
    for (idx, offset) in plan.timed_events() {
        sim.schedule_in(offset, ScheduledEvent::Custom(idx as u64));
    }

    // Generous upper bound: every action takes ops+2 steps plus retries.
    let max_steps = (spec.total_actions() as u64) * (spec.ops_per_action as u64 + 3) * 4 + 1000;

    let mut step = 0u64;
    while step < max_steps {
        step += 1;
        // The plan entries installed above that are now due.
        for ScheduledEvent::Custom(idx) in sim.run_due_events() {
            if let Some(entry) = plan.events().get(idx as usize) {
                run.apply(&entry.action, &mut machines);
            }
        }
        // A recovering node retries the work its recovery deferred, and
        // only that, every step; one that crashed again drops out until
        // the plan recovers it anew, from the full set.
        if !run.recovering.is_empty() {
            run.metrics.recovery_steps += 1;
            run.recovering
                .retain_mut(|work| sim.is_up(work.node) && !retry(sys, work));
        }
        run.retry_drains();
        sim.advance(SimDuration::from_micros(50));

        let mut order: Vec<usize> = machines
            .iter()
            .filter(|m| !m.is_finished())
            .map(|m| m.idx)
            .collect();
        if order.is_empty() && run.recovering.is_empty() {
            break;
        }
        sim.shuffle(&mut order);
        for idx in order {
            let m = &mut machines[idx];
            run.step_start = meter(sim);
            run.step(m);
            m.spent = run.spent(m);
        }
    }
    // Abort anything still in flight (only reachable at the step bound) so
    // the quiesce phase sees no held locks.
    for m in machines.iter_mut().filter(|m| !m.dead) {
        if let Some((action, uid)) = m.phase.take() {
            m.client.abort(action);
            run.book(m, action, uid, Ended::Abandoned);
        }
    }
    // With every workload action finished nothing holds locks any more, so
    // unfinished drains either complete now or are blocked on a down node
    // (quiesce recovers those; the oracle flags anything still stranded).
    for _ in 0..4 {
        if run.draining.is_empty() {
            break;
        }
        run.retry_drains();
    }
    let mut metrics = run.metrics;
    metrics.steps = step;
    metrics.tx = sys.tx().stats();
    metrics.net = sim.counters();
    RunOutcome {
        metrics,
        history: run.history,
    }
}

/// The simulator's clock (µs) and charged messages (deliveries plus RPC
/// timeouts). Inside a client step every clock advance is a charge, so
/// the difference of two readings around the step is exactly its cost.
fn meter(sim: &Sim) -> (u64, u64) {
    let net = sim.counters();
    (sim.now().as_micros(), net.delivered + net.timeouts)
}

/// Retries `work` once, narrowing it to what is still deferred, and
/// reports whether the node has fully recovered.
fn retry(sys: &System, work: &mut Deferred) -> bool {
    *work = sys.recovery().retry(work).deferred(work.node);
    work.is_done()
}

/// One drain pass over `node`, its moves counted into `metrics`,
/// reporting whether the drain is complete.
fn drain_pass(membership: &Membership, node: NodeId, metrics: &mut RunMetrics) -> bool {
    let report = membership.drain_step(node);
    metrics.migrations += report.moved.len() as u64;
    metrics.migrations_deferred += (report.busy.len() + report.failed.len()) as u64;
    report.complete
}

/// The state one run shares between client steps, plan actions and the
/// retry passes between steps.
struct Run<'a> {
    sys: &'a System,
    spec: &'a WorkloadSpec,
    ops: OpGen,
    metrics: RunMetrics,
    history: History,
    /// The §4 work each recovering node still has deferred.
    recovering: Vec<Deferred>,
    /// The membership coordinator the plan's `AddNode`, `DrainNode` and
    /// `Rebalance` actions drive; idle in a plan without them.
    membership: Membership,
    /// Nodes whose drain still has busy or failed replicas.
    draining: Vec<NodeId>,
    /// [`meter`] at the start of the current client step.
    step_start: (u64, u64),
}

impl Run<'_> {
    /// What `m`'s in-flight action has cost it so far, the current step
    /// included.
    fn spent(&self, m: &Machine) -> (u64, u64) {
        let (now, start) = (meter(self.sys.sim()), self.step_start);
        (m.spent.0 + now.0 - start.0, m.spent.1 + now.1 - start.1)
    }

    /// Retries every unfinished drain once: busy replicas free up as their
    /// clients commit or abort.
    fn retry_drains(&mut self) {
        let (membership, metrics) = (&self.membership, &mut self.metrics);
        self.draining
            .retain(|&node| !drain_pass(membership, node, metrics));
    }

    /// Executes one due plan entry.
    fn apply(&mut self, entry: &PlanAction, machines: &mut [Machine]) {
        let (sys, sim) = (self.sys, self.sys.sim());
        match entry {
            PlanAction::CrashNode(node) => sim.crash(*node),
            PlanAction::CrashAfterSends(node, budget) => sim.crash_after_sends(*node, *budget),
            PlanAction::RecoverNode(node) => {
                // A recover also disarms an unfired store-commit trap,
                // mirroring how `Sim::recover` disarms an unfired send budget.
                sys.stores().disarm_crash_after_prepare(*node);
                self.recovering.retain(|work| work.node != *node);
                let work = sys.recovery().recover_node(*node).deferred(*node);
                if !work.is_done() {
                    self.recovering.push(work);
                }
            }
            PlanAction::CrashClient(i) => {
                let Some(m) = machines.get_mut(*i).filter(|m| !m.dead) else {
                    return;
                };
                m.dead = true;
                if let Some((action, uid)) = m.phase.take() {
                    self.metrics.leaked_bindings += m.client.crash_without_cleanup(action) as u64;
                    self.book(m, action, uid, Ended::Crashed);
                }
            }
            PlanAction::CleanupSweep => {
                let dead: IdSet<ClientId> = machines
                    .iter()
                    .filter(|m| m.dead)
                    .map(|m| m.client.id())
                    .collect();
                let report = sys.cleanup().sweep(|c| !dead.contains(&c));
                self.metrics.cleanup_reclaimed += report.reclaimed() as u64;
            }
            PlanAction::PartitionLink(a, b) => sim.partition(*a, *b),
            PlanAction::HealLink(a, b) => sim.heal(*a, *b),
            PlanAction::PartitionGroups(side_a, side_b) => sim.partition_groups(side_a, side_b),
            PlanAction::HealAll => sim.heal_all(),
            PlanAction::SetDropProbability(p) => sim.set_drop_probability(*p),
            PlanAction::CrashStoreInCommit(node) => sys.stores().arm_crash_after_prepare(*node),
            PlanAction::AddNode => {
                self.membership.add_node();
            }
            PlanAction::DrainNode(node) => {
                self.membership.begin_drain(*node);
                if !drain_pass(&self.membership, *node, &mut self.metrics)
                    && !self.draining.contains(node)
                {
                    self.draining.push(*node);
                }
            }
            PlanAction::Rebalance => {
                let report = Rebalancer.rebalance(&self.membership);
                self.metrics.migrations += report.moved.len() as u64;
                self.metrics.migrations_deferred +=
                    (report.busy.len() + report.failed.len()) as u64;
            }
        }
    }

    /// One step of one client: begin and bind, invoke one batch, or commit.
    fn step(&mut self, m: &mut Machine) {
        let (sys, spec) = (self.sys, self.spec);
        let sim = sys.sim();
        match std::mem::replace(&mut m.phase, Phase::Idle) {
            Phase::Idle => {
                if m.actions_left == 0 {
                    return;
                }
                m.actions_left -= 1;
                self.metrics.attempts += 1;
                m.spent = (0, 0);
                let read_only = sim.chance(spec.read_fraction);
                if spec.transfers && !read_only && spec.objects.len() >= 2 {
                    self.start_transfer(m);
                    return;
                }
                let object_index = sim.random_below(spec.objects.len() as u64) as usize;
                let uid = spec.objects[object_index];
                let action = m.client.begin_action();
                let outcome = if read_only {
                    m.client.activate_read_only(action, uid, spec.replicas)
                } else {
                    m.client.activate(action, uid, spec.replicas)
                };
                match outcome {
                    Ok(group) => {
                        let b = group.binding();
                        self.metrics.probe_failures += b.dead.len() as u64;
                        self.metrics.bind_retries += u64::from(b.retries);
                        self.metrics.servers_removed += b.removed.len() as u64;
                        m.phase = Phase::Running {
                            action,
                            group,
                            object_index,
                            ops_left: spec.ops_per_action,
                            read_only,
                        };
                    }
                    Err(e) => {
                        m.client.abort(action);
                        let ended = Ended::Aborted(Stage::Bind, e.cause());
                        self.book(m, action, uid, ended);
                    }
                }
            }
            Phase::Running {
                action,
                group,
                ops_left: 0,
                ..
            } => {
                let ended = Ended::of_commit(m.client.commit(action));
                self.book(m, action, group.uid, ended);
            }
            Phase::Running {
                action,
                group,
                object_index,
                ops_left,
                read_only,
            } => {
                let kind = self.ops.kind_of(object_index);
                // Each step sends up to `ops_per_batch` ops as one
                // replicated unit (one op, the default, is a batch of one).
                let k = spec.ops_per_batch.min(ops_left);
                let batch: Vec<Bytes> = (0..k)
                    .map(|_| {
                        if read_only {
                            self.ops.read_op(sim, kind)
                        } else {
                            self.ops.write_op(sim, kind)
                        }
                    })
                    .collect();
                let result = if read_only {
                    m.client.invoke_read(action, &group, &batch)
                } else {
                    m.client.invoke(action, &group, &batch)
                };
                match result {
                    Ok(replies) => {
                        // A batch commits as N ordered ops: the oracle
                        // replays each (op, reply) pair individually, so
                        // I1–I5 and the per-class models verify batched
                        // histories unchanged.
                        for (op, reply) in batch.into_iter().zip(replies.slices()) {
                            self.history.invoked(
                                sim.now(),
                                m.idx,
                                action.raw(),
                                group.uid,
                                op,
                                reply,
                                !read_only,
                            );
                        }
                        m.phase = Phase::Running {
                            action,
                            group,
                            object_index,
                            ops_left: ops_left - k,
                            read_only,
                        };
                    }
                    Err(e) => {
                        m.client.abort(action);
                        let ended = Ended::Aborted(Stage::Invoke, e.cause());
                        self.book(m, action, group.uid, ended);
                    }
                }
            }
            Phase::Transfer { tx, uid } => {
                let action = tx.action();
                let ended = Ended::of_commit(tx.commit());
                self.book(m, action, uid, ended);
            }
        }
    }

    /// Starts one balanced two-account transfer through the typed [`Tx`]
    /// surface: withdraw from one seeded-random account, deposit the same
    /// amount into another (skipped when the withdrawal is refused — the
    /// total is conserved either way). Both legs run under one action; the
    /// commit happens on the machine's *next* step, so scripted faults can
    /// land in the invoke→commit window.
    fn start_transfer(&mut self, m: &mut Machine) {
        let sim = self.sys.sim();
        let objects = &self.spec.objects;
        let n = objects.len() as u64;
        let i = sim.random_below(n) as usize;
        // Draw the deposit side from the remaining objects (never i itself).
        let mut j = sim.random_below(n - 1) as usize;
        if j >= i {
            j += 1;
        }
        let (from_uid, to_uid) = (objects[i], objects[j]);
        let from = TypedUid::<Account>::assume(from_uid).open(&m.client);
        let to = TypedUid::<Account>::assume(to_uid).open(&m.client);
        let amount = 1 + sim.random_below(5);
        let mut tx = m.client.begin().with_replicas(self.spec.replicas);
        let action = tx.action();
        let history = &mut self.history;
        let mut leg = |tx: &mut Tx, handle: &Handle<Account>, uid: Uid, op: AccountOp| {
            let reply = tx.invoke(handle, op)?;
            history.invoked(
                sim.now(),
                m.idx,
                action.raw(),
                uid,
                Bytes::from(Account::op_vec(&op)),
                Bytes::from(Account::reply_vec(&reply)),
                true,
            );
            Ok::<_, TxOpError>(reply)
        };
        let legs = leg(&mut tx, &from, from_uid, AccountOp::Withdraw(amount)).and_then(|reply| {
            if reply != AccountOp::REFUSED {
                leg(&mut tx, &to, to_uid, AccountOp::Deposit(amount))?;
            }
            Ok(())
        });
        match legs {
            Ok(()) => m.phase = Phase::Transfer { tx, uid: from_uid },
            Err(e) => {
                tx.abort();
                let stage = match e {
                    TxOpError::Activate(_) => Stage::Bind,
                    TxOpError::Invoke(_) => Stage::Invoke,
                };
                let ended = Ended::Aborted(stage, e.cause());
                self.book(m, action, from_uid, ended);
            }
        }
    }

    /// Books an ended action — the one place a `RunMetrics` commit or
    /// abort counter moves. It counts the outcome and records its history
    /// event; an action its client stepped to the end also yields that
    /// client's cost sample, and a commit attempt then passivates the
    /// object if the spec asks for it.
    fn book(&mut self, m: &Machine, action: ActionId, uid: Uid, ended: Ended) {
        let (metrics, history) = (&mut self.metrics, &mut self.history);
        let (now, raw) = (self.sys.sim().now(), action.raw());
        if matches!(ended, Ended::Committed) {
            metrics.commits += 1;
        } else {
            metrics.aborts += 1;
        }
        match ended {
            Ended::Committed => history.committed(now, m.idx, raw, uid),
            Ended::Aborted(stage, cause) => {
                let failure = cause == Cause::Failure;
                match (stage, failure) {
                    (Stage::Bind, false) => metrics.abort_bind_contention += 1,
                    (Stage::Bind, true) => metrics.abort_bind_failure += 1,
                    (Stage::Invoke, false) => metrics.abort_contention += 1,
                    (Stage::Invoke, true) => metrics.abort_failure += 1,
                    (Stage::Commit, false) => metrics.abort_commit_contention += 1,
                    (Stage::Commit, true) => metrics.abort_commit_failure += 1,
                }
                history.aborted(now, m.idx, raw, uid, failure);
            }
            // Taken from the machine between its steps: no cost sample.
            Ended::Crashed => return history.crashed(now, m.idx, raw, uid),
            Ended::Abandoned => return history.aborted(now, m.idx, raw, uid, false),
        }
        let (latency_us, messages) = self.spent(m);
        self.metrics.action_latency_us.add(latency_us);
        self.metrics.action_messages.add(messages);
        let committing = matches!(ended, Ended::Committed | Ended::Aborted(Stage::Commit, _));
        if committing && self.spec.passivate_between_actions {
            let _ = self.sys.try_passivate(uid);
        }
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Produces the concrete [`FaultPlan`] for a given seed (nemesis closure).
pub type PlanGenerator = Box<dyn Fn(u64) -> FaultPlan>;

/// Which verdicts a scenario demands beyond the oracle's, which every
/// scenario gets ([`Oracle::verify`]: history replay, final store states
/// and the paper's quiescence invariants).
#[derive(Debug, Clone, Copy)]
pub struct Checks {
    /// Require at least one committed action.
    pub expect_commits: bool,
    /// Require every crash to be masked: no failure-caused bind, invoke,
    /// or commit aborts anywhere in the run.
    pub expect_crash_masked: bool,
    /// Enable the oracle's cross-object conservation check: the sum of all
    /// account balances must be invariant at every commit point (only
    /// sound for balanced-transfer workloads; see
    /// [`groupview_workload::WorkloadSpec::transfers`]).
    pub conservation: bool,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            expect_commits: true,
            expect_crash_masked: false,
            conservation: false,
        }
    }
}

/// A reusable chaos scenario: world shape × workload × seeded fault plan ×
/// demanded checks.
pub struct Scenario {
    /// Scenario name (report label).
    pub name: &'static str,
    /// Replication policy under test.
    pub policy: ReplicationPolicy,
    /// Database binding scheme under test.
    pub scheme: BindingScheme,
    /// World size (node 0 hosts the naming service).
    pub nodes: usize,
    /// Nodes serving *and* storing every object (`Sv = St`).
    pub server_nodes: Vec<NodeId>,
    /// The objects to create: one per entry, of the given class. Mixed
    /// classes are fine — each gets its own sequential oracle model.
    pub objects: Vec<ModelKind>,
    /// The workload shape; `objects` is filled in per run.
    pub workload: WorkloadSpec,
    /// Seed → concrete fault schedule.
    pub plan: PlanGenerator,
    /// The verdicts this scenario demands.
    pub checks: Checks,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("scheme", &self.scheme)
            .finish_non_exhaustive()
    }
}

/// The verdict of one `scenario × seed` run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The seed this run used.
    pub seed: u64,
    /// Workload metrics (commit/abort taxonomy).
    pub metrics: RunMetrics,
    /// The oracle's verdict.
    pub oracle: OracleReport,
    /// Failed expectations (empty means the scenario passed).
    pub failures: Vec<String>,
    /// Observability snapshot (per-phase latencies, protocol counters,
    /// wire stats). `None` unless the run was observed
    /// (`run_scenario_observed` or a world built with
    /// `SystemBuilder::observe`) — so default runs render exactly as
    /// before.
    pub obs: Option<MetricsSnapshot>,
}

impl ScenarioReport {
    /// Whether every demanded check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Node crashes injected (from the network counters).
    pub fn crashes(&self) -> u64 {
        self.metrics.net.crashes
    }

    /// Whether every crash was masked: no failure-caused bind, invoke, or
    /// commit aborts.
    pub fn masked(&self) -> bool {
        let m = &self.metrics;
        m.abort_bind_failure == 0 && m.abort_failure == 0 && m.abort_commit_failure == 0
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:<28} seed={}] {} | tx multi committed={} aborted={} | crashes={} masked={} \
             | oracle: {} | {}",
            self.name,
            self.seed,
            self.metrics,
            self.metrics.tx.multi_committed,
            self.metrics.tx.multi_aborted,
            self.crashes(),
            self.masked(),
            self.oracle,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL: {}", self.failures.join("; "))
            }
        )?;
        if let Some(snap) = &self.obs {
            write!(f, "\n{}", snap.phase_breakdown().trim_end_matches('\n'))?;
            let loads = snap.node_load_breakdown();
            if !loads.is_empty() {
                write!(f, "\nper-node load:\n{}", loads.trim_end_matches('\n'))?;
            }
        }
        Ok(())
    }
}

/// Runs one scenario under one seed: build the world, create the objects,
/// drive the plan, quiesce, and collect verdicts.
pub(crate) fn run_scenario(scenario: &Scenario, seed: u64) -> ScenarioReport {
    run_scenario_built(scenario, seed, false, false)
}

/// [`run_scenario`] with the observability registry enabled: the returned
/// report carries a [`MetricsSnapshot`] (and its `Display` appends the
/// per-phase latency breakdown). The run itself is bit-for-bit identical
/// to the unobserved one — `tests/obs_parity.rs` pins this.
pub(crate) fn run_scenario_observed(scenario: &Scenario, seed: u64) -> ScenarioReport {
    run_scenario_built(scenario, seed, true, false)
}

/// `run_scenario_observed` with sim event tracing on as well; returns the
/// drained trace events and causal spans alongside the report, ready to
/// render with [`crate::export::TracedRun::chrome_json`].
pub fn run_scenario_traced(scenario: &Scenario, seed: u64) -> crate::export::TracedRun {
    let sys = build_scenario_system(scenario, seed, true, true);
    let objects = create_scenario_objects(scenario, &sys);
    let report = run_scenario_in(scenario, seed, &sys, &objects);
    let spans = sys.obs().take_spans();
    let events = sys.sim().take_trace().unwrap_or_default();
    crate::export::TracedRun {
        nodes: scenario.nodes,
        report,
        spans,
        events,
    }
}

fn run_scenario_built(
    scenario: &Scenario,
    seed: u64,
    observe: bool,
    trace: bool,
) -> ScenarioReport {
    let sys = build_scenario_system(scenario, seed, observe, trace);
    let objects = create_scenario_objects(scenario, &sys);
    run_scenario_in(scenario, seed, &sys, &objects)
}

/// Builds the world a scenario runs in (shared with the traced runner).
fn build_scenario_system(scenario: &Scenario, seed: u64, observe: bool, trace: bool) -> System {
    let mut builder = System::builder(seed)
        .nodes(scenario.nodes)
        .policy(scenario.policy)
        .scheme(scenario.scheme);
    if observe {
        builder = builder.observe();
    }
    if trace {
        builder = builder.trace();
    }
    builder.build()
}

fn create_scenario_objects(scenario: &Scenario, sys: &System) -> Vec<(Uid, ModelKind)> {
    let objects: Vec<(Uid, ModelKind)> = scenario
        .objects
        .iter()
        .map(|kind| {
            let uid = sys
                .create_object(kind.fresh(), &scenario.server_nodes, &scenario.server_nodes)
                .expect("object creation on a healthy world");
            (uid, *kind)
        })
        .collect();
    objects
}

/// Runs a scenario's plan/quiesce/verify cycle inside an **existing**
/// world whose objects are already created — the second half of
/// `run_scenario`, public so a caller can build the world itself and
/// read it after the run.
///
/// `objects` pairs each created uid with its [`ModelKind`]; the
/// scenario's workload spec is re-targeted at exactly these objects.
pub fn run_scenario_in(
    scenario: &Scenario,
    seed: u64,
    sys: &System,
    objects: &[(Uid, ModelKind)],
) -> ScenarioReport {
    let uids: Vec<Uid> = objects.iter().map(|&(uid, _)| uid).collect();
    let kinds: Vec<ModelKind> = objects.iter().map(|&(_, kind)| kind).collect();
    let mut spec = scenario.workload.clone();
    spec.objects = uids.clone();

    let plan = (scenario.plan)(seed);
    let mut report = ScenarioReport {
        name: scenario.name,
        seed,
        metrics: RunMetrics::default(),
        oracle: OracleReport::default(),
        failures: Vec::new(),
        obs: None,
    };
    if let Err(e) = plan.validate() {
        // A malformed plan must never execute (the simulator would panic on
        // e.g. an out-of-range drop probability): return the diagnostic
        // report instead.
        report.failures.push(format!("malformed plan: {e}"));
        return report;
    }
    let outcome = run_plan_typed(sys, &spec, &plan, &kinds);
    quiesce(sys);
    // Snapshot at quiesce, after the last message of the run.
    report.obs = sys.obs().is_enabled().then(|| sys.metrics_snapshot());

    let mut oracle = Oracle::new(
        uids.iter()
            .zip(&kinds)
            .map(|(&uid, &kind)| ObjectModel {
                uid,
                kind,
                full_strength: scenario.server_nodes.len(),
            })
            .collect(),
    );
    if scenario.checks.conservation {
        oracle = oracle.with_conservation();
    }
    report.oracle = oracle.verify(sys, &outcome.history);
    report.metrics = outcome.metrics;
    let masked = report.masked();
    let (m, failures) = (&report.metrics, &mut report.failures);
    if !report.oracle.is_ok() {
        failures.push(format!("oracle: {}", report.oracle));
    }
    if scenario.checks.expect_commits && m.commits == 0 {
        failures.push("expected commits, saw none".to_string());
    }
    if scenario.checks.expect_crash_masked && !masked {
        failures.push(format!(
            "expected masked crashes, saw {} failure-caused bind, {} invoke, and \
             {} commit aborts",
            m.abort_bind_failure, m.abort_failure, m.abort_commit_failure
        ));
    }
    report
}

/// Runs every scenario under every seed.
pub fn run_matrix(scenarios: &[Scenario], seeds: &[u64]) -> Vec<ScenarioReport> {
    let mut reports = Vec::with_capacity(scenarios.len() * seeds.len());
    for scenario in scenarios {
        for &seed in seeds {
            reports.push(run_scenario(scenario, seed));
        }
    }
    reports
}

/// Brings a post-run world to the paper's quiescent state: zero loss, no
/// partitions, every node recovered (joint fixpoint over the §4 protocols),
/// and leaked use-list entries swept. Every client has terminated once the
/// workload ends, so the sweep's liveness predicate is uniformly false —
/// exactly the cleanup the paper's daemon performs for exited clients
/// (including live clients whose contended decrements were "left to the
/// cleanup daemon" under the nested-top-level scheme).
fn quiesce(sys: &System) {
    let sim = sys.sim();
    sim.set_drop_probability(0.0);
    sim.heal_all();
    // Every node, up or down, runs the full §4 recovery once: a node a
    // commit excluded while it was up is refreshed here too.
    let mut pending = Vec::new();
    for node in sim.nodes() {
        // Disarm scripted fault points that never fired (a pending
        // `CrashAfterSends` budget or store-commit trap must not crash a
        // node mid-quiesce).
        sys.stores().disarm_crash_after_prepare(node);
        pending.push(sys.recovery().recover_node(node).deferred(node));
    }
    // One node's refresh may need another node up first: retry the
    // deferred work to a fixpoint (bounded; the oracle flags anything left
    // unrestored).
    for _ in 0..50 {
        pending.retain_mut(|work| !retry(sys, work));
        if pending.is_empty() {
            break;
        }
    }
    // Sweeps can defer on residual lock contention; retry a few times.
    for _ in 0..3 {
        let report = sys.cleanup().sweep(|_| false);
        if report.deferred.is_empty() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemesis;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn scenario(name: &'static str, plan: PlanGenerator) -> Scenario {
        Scenario {
            name,
            policy: ReplicationPolicy::Active,
            scheme: BindingScheme::Standard,
            nodes: 7,
            server_nodes: vec![n(1), n(2), n(3)],
            objects: vec![ModelKind::COUNTER; 2],
            workload: WorkloadSpec::new(vec![], vec![n(4), n(5), n(6)])
                .clients(3)
                .actions_per_client(4)
                .ops_per_action(2),
            plan,
            checks: Checks::default(),
        }
    }

    #[test]
    fn fault_free_scenario_passes_with_full_history() {
        let sc = scenario("fault_free", Box::new(|_| FaultPlan::new()));
        let report = run_scenario(&sc, 9);
        assert!(report.passed(), "{report}");
        assert_eq!(report.metrics.attempts, 12);
        assert_eq!(report.oracle.committed_actions, report.metrics.commits);
        assert!(report.oracle.replayed_ops > 0);
        assert!(report.to_string().contains("PASS"));
    }

    #[test]
    fn masked_crash_scenario_verifies() {
        let mut sc = scenario(
            "masked_crash",
            Box::new(|_| {
                FaultPlan::new()
                    .at(SimDuration::from_millis(3), PlanAction::CrashNode(n(2)))
                    .at(SimDuration::from_millis(40), PlanAction::RecoverNode(n(2)))
            }),
        );
        sc.checks.expect_crash_masked = true;
        let report = run_scenario(&sc, 13);
        assert!(report.passed(), "{report}");
        assert!(report.crashes() >= 1, "the plan crash fired");
    }

    #[test]
    fn malformed_plan_reports_instead_of_executing() {
        // RecoverNode without a crash (and an out-of-range probability that
        // would panic the simulator if it ever executed).
        let sc = scenario(
            "malformed",
            Box::new(|_| {
                FaultPlan::new()
                    .at(SimDuration::from_millis(1), PlanAction::RecoverNode(n(2)))
                    .at(
                        SimDuration::from_millis(2),
                        PlanAction::SetDropProbability(1.5),
                    )
            }),
        );
        let report = run_scenario(&sc, 5);
        assert!(!report.passed());
        assert!(report.failures[0].contains("malformed plan"), "{report}");
        assert_eq!(report.metrics.attempts, 0, "the plan must not execute");
    }

    #[test]
    fn same_seed_same_report() {
        let sc = scenario(
            "determinism",
            Box::new(|seed| {
                crate::nemesis::rolling_crashes(
                    seed,
                    &[n(1), n(2), n(3)],
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(25),
                    SimDuration::from_millis(10),
                    2,
                )
            }),
        );
        let a = run_scenario(&sc, 42);
        let b = run_scenario(&sc, 42);
        assert_eq!(a.metrics.commits, b.metrics.commits);
        assert_eq!(a.metrics.aborts, b.metrics.aborts);
        assert_eq!(a.metrics.net.delivered, b.metrics.net.delivered);
        assert_eq!(a.oracle.replayed_ops, b.oracle.replayed_ops);
    }

    #[test]
    fn matrix_runs_every_cell() {
        let scs = vec![
            scenario("a", Box::new(|_| FaultPlan::new())),
            scenario("b", Box::new(|_| FaultPlan::new())),
        ];
        let reports = run_matrix(&scs, &[1, 2, 3]);
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.passed()));
    }

    #[test]
    fn kv_and_account_workloads_verify_fault_free() {
        let mut sc = scenario("typed/fault_free", Box::new(|_| FaultPlan::new()));
        sc.objects = vec![ModelKind::KvMap, ModelKind::Account { initial: 10 }];
        let report = run_scenario(&sc, 7);
        assert!(report.passed(), "{report}");
        assert!(report.oracle.replayed_ops > 0);
    }

    #[test]
    fn kv_and_account_workloads_verify_under_crashes() {
        let mut sc = scenario(
            "typed/rolling",
            Box::new(|seed| {
                nemesis::rolling_crashes(
                    seed,
                    &[n(2), n(3)],
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(25),
                    SimDuration::from_millis(10),
                    2,
                )
            }),
        );
        sc.objects = vec![
            ModelKind::KvMap,
            ModelKind::Account { initial: 5 },
            ModelKind::COUNTER,
        ];
        for seed in [1, 2, 3] {
            let report = run_scenario(&sc, seed);
            assert!(report.passed(), "{report}");
        }
    }

    /// Transfer mode drives balanced two-account transactions through the
    /// typed `Tx` surface; the conservation oracle holds fault-free and the
    /// multi-object commit counter moves.
    #[test]
    fn transfer_workload_conserves_across_accounts() {
        let mut sc = scenario("transfer/fault_free", Box::new(|_| FaultPlan::new()));
        sc.objects = vec![ModelKind::Account { initial: 50 }; 3];
        sc.workload = sc.workload.clone().transfers();
        sc.checks.conservation = true;
        let report = run_scenario(&sc, 11);
        assert!(report.passed(), "{report}");
        assert!(
            report.metrics.tx.multi_committed > 0,
            "transfers commit multi-object transactions: {report}"
        );
        assert!(report.to_string().contains("tx multi"));
    }

    #[test]
    fn crash_after_sends_plan_action_fires_mid_exchange() {
        // Arm the scripted Figure-1 fault point on a server early in the
        // run: the node must actually crash (after its k-th send attempt),
        // recover later, and the run must still verify.
        let mut sc = scenario(
            "figure1/window",
            Box::new(|_| {
                FaultPlan::new()
                    .at(
                        SimDuration::from_millis(2),
                        PlanAction::CrashAfterSends(n(2), 3),
                    )
                    .at(SimDuration::from_millis(40), PlanAction::RecoverNode(n(2)))
            }),
        );
        sc.checks.expect_commits = true;
        let report = run_scenario(&sc, 13);
        assert!(report.passed(), "{report}");
        assert!(
            report.crashes() >= 1,
            "the armed send-window crash fired: {report}"
        );
    }
}
