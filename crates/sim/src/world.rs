//! The simulation world: nodes, network, virtual clock, fault injection.

use crate::config::SimConfig;
use crate::error::NetError;
use crate::ids::{IdSet, NodeId};
use crate::metrics::NetCounters;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

/// An event scheduled at a virtual time, returned by
/// [`Sim::run_due_events`] once it is due.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScheduledEvent {
    /// An opaque marker returned to the driver (the scenario runner's
    /// plan-entry index).
    Custom(u64),
}

#[derive(Debug)]
struct NodeState {
    up: bool,
    /// Incremented on every crash; volatile state tagged with an older epoch
    /// is considered lost (see `groupview-store`'s `Volatile`).
    epoch: u64,
    /// Scripted fault point: crash this node after it completes this many
    /// more successful sends.
    crash_after_sends: Option<u32>,
    /// Bytes delivered *to* this node over the lifetime of the world.
    /// Always-on observer counters (never read by protocol code), surfaced
    /// per node through [`Sim::node_traffic`] for load attribution.
    bytes_in: u64,
    /// Bytes this node sent that were actually delivered.
    bytes_out: u64,
}

impl NodeState {
    fn fresh() -> NodeState {
        NodeState {
            up: true,
            epoch: 0,
            crash_after_sends: None,
            bytes_in: 0,
            bytes_out: 0,
        }
    }
}

#[derive(Debug)]
struct SimCore {
    cfg: SimConfig,
    clock: SimTime,
    rng: Rng,
    /// Values drawn from `rng` since the world was created. Observability
    /// parity tests compare this across runs: tracing and span recording
    /// must never consume a draw.
    rng_draws: u64,
    nodes: Vec<NodeState>,
    /// Symmetric blocked pairs, stored with the smaller id first.
    blocked: IdSet<(NodeId, NodeId)>,
    counters: NetCounters,
    /// Raw id of the atomic action currently driving protocol work, stamped
    /// onto message trace events for causal attribution.
    active_action: Option<u64>,
    schedule: BinaryHeap<Reverse<(SimTime, u64, ScheduledEvent)>>,
    schedule_seq: u64,
    trace: Option<TraceRing>,
}

/// Trace events a traced world retains: enough for every event of any
/// scenario or example run in this workspace, few enough that a traced
/// soak stays bounded (~64k events ≈ a few MiB).
const TRACE_CAPACITY: usize = 65_536;

/// The bounded trace buffer: a ring that discards the oldest event once
/// it holds `TRACE_CAPACITY`, counting what it drops, so long traced
/// runs stay within a fixed memory budget.
#[derive(Debug, Default)]
struct TraceRing {
    buf: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() >= TRACE_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Drains the retained events in arrival order; the dropped count
    /// survives the drain.
    fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

/// A fan-out in progress on the virtual clock, opened by [`Sim::fork`]:
/// the time every branch starts at and the latest branch end seen so far.
#[derive(Debug, Clone, Copy)]
#[must_use = "a fork's branches are charged only when it is joined"]
pub struct Fork {
    start: SimTime,
    end: SimTime,
}

/// Handle to a simulation world.
///
/// `Sim` is a cheap, cloneable handle (`Rc`-based — the simulator is
/// deliberately single-threaded for determinism). All protocol layers keep a
/// clone and interact with the world through it.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<SimCore>>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.inner.borrow();
        f.debug_struct("Sim")
            .field("clock", &core.clock)
            .field("nodes", &core.nodes.len())
            .field("counters", &core.counters)
            .finish()
    }
}

impl Sim {
    /// Creates a new world from a configuration.
    pub fn new(cfg: SimConfig) -> Sim {
        let nodes = (0..cfg.nodes).map(|_| NodeState::fresh()).collect();
        Sim {
            inner: Rc::new(RefCell::new(SimCore {
                rng: Rng::new(cfg.seed),
                rng_draws: 0,
                clock: SimTime::ZERO,
                nodes,
                blocked: IdSet::default(),
                counters: NetCounters::default(),
                active_action: None,
                schedule: BinaryHeap::new(),
                schedule_seq: 0,
                trace: cfg.trace.then(TraceRing::default),
                cfg,
            })),
        }
    }

    /// Adds a node to the world, returning its id. Membership changes are
    /// recorded in the trace ring (when tracing is on) so exported traces
    /// show when the world grew.
    pub fn add_node(&self) -> NodeId {
        let mut core = self.inner.borrow_mut();
        let id = NodeId::new(core.nodes.len() as u32);
        core.nodes.push(NodeState::fresh());
        core.note(format_args!("membership: node {id} joined the world"));
        id
    }

    /// Lifetime delivered traffic of one node as `(bytes_in, bytes_out)`.
    /// Counts only messages that were actually delivered (drops, partition
    /// losses and sends to down nodes are excluded), matching the global
    /// `bytes_delivered` counter.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this world.
    pub fn node_traffic(&self, n: NodeId) -> (u64, u64) {
        let core = self.inner.borrow();
        let state = &core.nodes[n.index()];
        (state.bytes_in, state.bytes_out)
    }

    /// Number of nodes in the world.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// All node ids, in creation order.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as u32).map(NodeId::new).collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().clock
    }

    /// Advances the clock between client steps (driver idle time). Every
    /// other clock advance is a charge: a delivery, a timeout or local
    /// work.
    pub fn advance(&self, d: SimDuration) {
        self.inner.borrow_mut().clock += d;
    }

    // ----- fan-out ----------------------------------------------------------

    /// Opens a fan-out at the current time: requests a sender issues without
    /// waiting for one reply before the next overlap, so the fan-out costs
    /// its slowest branch, not the sum of all of them.
    ///
    /// Call [`Sim::branch`] before each branch's work and [`Sim::join`]
    /// after the last one. Sends keep their program order — every message,
    /// RNG draw and fault point is the same as if the branches ran one
    /// after another; only the timestamps differ.
    ///
    /// ```rust
    /// use groupview_sim::{Sim, SimConfig, SimDuration};
    ///
    /// let sim = Sim::new(SimConfig::new(1));
    /// let start = sim.now();
    /// let mut fork = sim.fork();
    /// for ms in [1, 3, 2] {
    ///     sim.branch(&mut fork);
    ///     sim.advance(SimDuration::from_millis(ms));
    /// }
    /// sim.join(fork);
    /// assert_eq!(sim.now(), start + SimDuration::from_millis(3));
    /// ```
    #[inline]
    pub fn fork(&self) -> Fork {
        let now = self.inner.borrow().clock;
        Fork {
            start: now,
            end: now,
        }
    }

    /// Starts the next branch of `fork`: notes where the previous branch
    /// ended and sets the clock back to the fork time.
    #[inline]
    pub fn branch(&self, fork: &mut Fork) {
        let mut core = self.inner.borrow_mut();
        fork.end = fork.end.max(core.clock);
        core.clock = fork.start;
    }

    /// Closes `fork`: the clock moves to the latest end of any branch.
    #[inline]
    pub fn join(&self, fork: Fork) {
        let mut core = self.inner.borrow_mut();
        core.clock = core.clock.max(fork.end);
    }

    // ----- node lifecycle ---------------------------------------------------

    /// Whether the node is currently functioning.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this world.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.inner.borrow().nodes[n.index()].up
    }

    /// The node's crash epoch: incremented on every crash. Volatile state
    /// tagged with an older epoch must be treated as lost.
    pub fn epoch(&self, n: NodeId) -> u64 {
        self.inner.borrow().nodes[n.index()].epoch
    }

    /// Crashes a node (fail-silent). Idempotent.
    pub fn crash(&self, n: NodeId) {
        let mut core = self.inner.borrow_mut();
        core.crash_node(n);
    }

    /// Recovers a crashed node. The node's volatile state stays lost (its
    /// epoch was bumped at crash time); stable storage is unaffected.
    /// Idempotent. Also disarms a pending [`Sim::crash_after_sends`] fault
    /// point that never fired — "recover" returns the node to a healthy
    /// state, scripted faults included.
    pub fn recover(&self, n: NodeId) {
        let mut core = self.inner.borrow_mut();
        core.nodes[n.index()].crash_after_sends = None;
        if !core.nodes[n.index()].up {
            core.nodes[n.index()].up = true;
            core.counters.recoveries += 1;
            let at = core.clock;
            core.trace(TraceEvent::Recover { at, node: n });
        }
    }

    /// Scripted fault point: node `n` crashes immediately after completing
    /// its next `k` send *attempts*.
    ///
    /// Every attempt the node actually makes counts — delivered, randomly
    /// dropped, partitioned, or addressed to a crashed receiver — because in
    /// all of those cases the sender did hand the message to the network
    /// before the budget ticks down. (Attempts refused because the sender
    /// itself is already down are not sends at all.)
    ///
    /// This reproduces the paper's Figure 1 scenario ("B fails during
    /// delivery of the reply to GA" such that A1 receives the reply but A2
    /// does not): set `k = 1` before `B` sprays its replies. Counting
    /// attempts rather than deliveries keeps the crash at the scripted spot
    /// even when a lossy network swallows some of the sends.
    pub fn crash_after_sends(&self, n: NodeId, k: u32) {
        self.inner.borrow_mut().nodes[n.index()].crash_after_sends = Some(k);
    }

    // ----- partitions -------------------------------------------------------

    /// Blocks all traffic between `a` and `b` (symmetric).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.inner.borrow_mut().block_pair(a, b);
    }

    /// Restores traffic between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.inner.borrow_mut().unblock_pair(a, b);
    }

    /// Partitions the world into two sides: every cross-side pair is blocked.
    pub fn partition_groups(&self, side_a: &[NodeId], side_b: &[NodeId]) {
        let mut core = self.inner.borrow_mut();
        for &a in side_a {
            for &b in side_b {
                core.block_pair(a, b);
            }
        }
    }

    /// Removes all partitions.
    pub fn heal_all(&self) {
        let mut core = self.inner.borrow_mut();
        let mut pairs: Vec<(NodeId, NodeId)> = core.blocked.iter().copied().collect();
        pairs.sort_unstable();
        for (a, b) in pairs {
            core.unblock_pair(a, b);
        }
    }

    // ----- network quality --------------------------------------------------

    /// Changes the per-message loss probability mid-run (fault plans ramp
    /// this up and back down to model lossy windows).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_drop_probability(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.inner.borrow_mut().cfg.net.drop_probability = p;
    }

    // ----- randomness -------------------------------------------------------

    /// Uniform `f64` in `[0, 1)` from the seeded generator.
    pub(crate) fn random_f64(&self) -> f64 {
        let mut core = self.inner.borrow_mut();
        core.rng_draws += 1;
        core.rng.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random_below(&self, n: u64) -> u64 {
        assert!(n > 0, "random_below(0)");
        let mut core = self.inner.borrow_mut();
        core.rng_draws += 1;
        core.rng.range(0..n)
    }

    /// Number of values drawn from the seeded generator since the world was
    /// created. Two runs that agree on this (and the seed) consumed an
    /// identical random stream — the parity tests' proof that observability
    /// never perturbs the simulation.
    pub fn rng_draws(&self) -> u64 {
        self.inner.borrow().rng_draws
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.random_f64() < p
        }
    }

    /// Fisher–Yates shuffle using the seeded generator.
    pub fn shuffle<T>(&self, items: &mut [T]) {
        let mut core = self.inner.borrow_mut();
        for i in (1..items.len()).rev() {
            core.rng_draws += 1;
            let j = core.rng.range_inclusive(0..=i as u64) as usize;
            items.swap(i, j);
        }
    }

    // ----- attribution and charges ------------------------------------------

    /// Runs `f` with `action` as the atomic action subsequent message trace
    /// events are attributed to (the causal `action=` tag on
    /// `Deliver`/`Lost`), restoring the previous attribution afterwards
    /// (so nested protocol phases compose).
    ///
    /// The replication layer wraps each protocol phase it runs on behalf of
    /// an action in this; attribution costs nothing when tracing is off.
    pub fn with_active_action<T>(&self, action: u64, f: impl FnOnce() -> T) -> T {
        let prev = self.inner.borrow_mut().active_action.replace(action);
        let out = f();
        self.inner.borrow_mut().active_action = prev;
        out
    }

    /// Charges local (non-network) work to the clock, e.g. a stable-storage
    /// force.
    pub(crate) fn charge_local(&self, d: SimDuration) {
        self.inner.borrow_mut().clock += d;
    }

    /// Charges the configured stable-storage write cost.
    pub fn charge_stable_write(&self) {
        let d = self.inner.borrow().cfg.net.stable_write;
        self.charge_local(d);
    }

    // ----- messaging --------------------------------------------------------

    /// Attempts to deliver one message from `from` to `to`.
    ///
    /// On success the clock advances by the sampled latency, which is
    /// returned, and the delivered counter ticks. Inside a
    /// [`Sim::branch`] the latency counts from the branch's start, and
    /// the fan-out pays only its slowest branch. On failure the clock
    /// does **not** advance here — [`Sim::rpc`] charges the timeout,
    /// because only the caller knows whether it waits.
    ///
    /// Scripted `crash_after_sends` fault points fire after the send
    /// attempt completes, delivered or not (the sender sent either way; see
    /// [`Sim::crash_after_sends`]).
    ///
    /// Loss attribution: the receiver's liveness is checked **before** the
    /// random drop roll, so a message to a crashed receiver always counts
    /// as `to_down_node` — a lossy network must never randomly reclassify
    /// it as `dropped` (the scenario oracle's abort taxonomy relies on
    /// these causes). This also means down-receiver traffic consumes no
    /// RNG draw.
    ///
    /// # Errors
    ///
    /// [`NetError::NodeDown`] if either endpoint is crashed,
    /// [`NetError::Partitioned`] if the pair is partitioned, and
    /// [`NetError::Dropped`] on a random loss.
    pub fn deliver(&self, from: NodeId, to: NodeId, bytes: usize) -> Result<SimDuration, NetError> {
        let mut core = self.inner.borrow_mut();
        let at = core.clock;
        if !core.nodes[from.index()].up {
            core.counters.to_down_node += 1;
            let action = core.active_action;
            core.trace(TraceEvent::Lost {
                at,
                from,
                to,
                cause: "sender down",
                action,
            });
            return Err(NetError::NodeDown(from));
        }
        // The sender is up: from here on the message has left the sender,
        // so whatever the outcome, the attempt consumes one unit of the
        // scripted crash-after-sends budget before returning.
        let result = core.attempt_delivery(from, to, bytes);
        core.consume_send_budget(from);
        result
    }

    /// Charges one RPC timeout to the clock and the timeout counter.
    pub(crate) fn charge_timeout(&self) {
        let core = &mut *self.inner.borrow_mut();
        core.clock += core.cfg.net.rpc_timeout;
        core.counters.timeouts += 1;
    }

    // ----- schedule ---------------------------------------------------------

    /// Schedules an event `after` from now; events due at the same time
    /// fire in scheduling order.
    pub fn schedule_in(&self, after: SimDuration, ev: ScheduledEvent) {
        let mut core = self.inner.borrow_mut();
        let (at, seq) = (core.clock + after, core.schedule_seq);
        core.schedule_seq += 1;
        core.schedule.push(Reverse((at, seq, ev)));
    }

    /// Removes and returns every event due at or before the current time,
    /// in time order (ties in scheduling order), for the driver to act on.
    pub fn run_due_events(&self) -> Vec<ScheduledEvent> {
        let core = &mut *self.inner.borrow_mut();
        let mut fired = Vec::new();
        while core
            .schedule
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= core.clock)
        {
            let Reverse((_, _, ev)) = core.schedule.pop().expect("peeked");
            fired.push(ev);
        }
        fired
    }

    // ----- instrumentation --------------------------------------------------

    /// Snapshot of the global network counters.
    pub fn counters(&self) -> NetCounters {
        self.inner.borrow().counters
    }

    /// Appends a free-form note to the trace. The text is formatted only
    /// when tracing is on, so a note costs nothing otherwise.
    pub fn note(&self, text: fmt::Arguments<'_>) {
        self.inner.borrow_mut().note(text);
    }

    /// Takes the recorded trace, leaving an empty one. Returns `None` when
    /// tracing was not enabled. When the ring overflowed, the returned
    /// events are the **most recent** 65,536; see
    /// [`Sim::trace_dropped`] for how many older events were discarded.
    pub fn take_trace(&self) -> Option<Vec<TraceEvent>> {
        self.inner.borrow_mut().trace.as_mut().map(TraceRing::take)
    }

    /// Number of trace events discarded because the ring was full (0 when
    /// tracing is off or the ring never overflowed).
    pub fn trace_dropped(&self) -> u64 {
        self.inner.borrow().trace.as_ref().map_or(0, |t| t.dropped)
    }
}

impl SimCore {
    /// One network attempt from an **up** sender: partition check, receiver
    /// liveness, drop roll (in that order — attribution before randomness),
    /// then latency and accounting on success.
    fn attempt_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> Result<SimDuration, NetError> {
        let at = self.clock;
        let action = self.active_action;
        if self.blocked.contains(&norm_pair(from, to)) {
            self.counters.partitioned += 1;
            self.trace(TraceEvent::Lost {
                at,
                from,
                to,
                cause: "partitioned",
                action,
            });
            return Err(NetError::Partitioned { from, to });
        }
        if !self.nodes[to.index()].up {
            self.counters.to_down_node += 1;
            self.trace(TraceEvent::Lost {
                at,
                from,
                to,
                cause: "receiver down",
                action,
            });
            return Err(NetError::NodeDown(to));
        }
        let p = self.cfg.net.drop_probability;
        if p > 0.0 {
            self.rng_draws += 1;
            if self.rng.next_f64() < p {
                self.counters.dropped += 1;
                self.trace(TraceEvent::Lost {
                    at,
                    from,
                    to,
                    cause: "dropped",
                    action,
                });
                return Err(NetError::Dropped);
            }
        }
        let jitter = self.cfg.net.jitter.as_micros();
        let extra = if jitter == 0 {
            0
        } else {
            self.rng_draws += 1;
            self.rng.range_inclusive(0..=jitter)
        };
        let latency = self.cfg.net.base_latency + SimDuration::from_micros(extra);
        self.clock += latency;
        self.counters.delivered += 1;
        self.counters.bytes_delivered += bytes as u64;
        self.nodes[from.index()].bytes_out += bytes as u64;
        self.nodes[to.index()].bytes_in += bytes as u64;
        let at = self.clock;
        self.trace(TraceEvent::Deliver {
            at,
            from,
            to,
            bytes,
            action,
        });
        Ok(latency)
    }

    /// Ticks down `from`'s scripted crash-after-sends budget by one attempt
    /// and crashes the node when it reaches zero.
    fn consume_send_budget(&mut self, from: NodeId) {
        if let Some(k) = self.nodes[from.index()].crash_after_sends {
            if k <= 1 {
                self.crash_node(from);
            } else {
                self.nodes[from.index()].crash_after_sends = Some(k - 1);
            }
        }
    }

    fn block_pair(&mut self, a: NodeId, b: NodeId) {
        let (a, b) = norm_pair(a, b);
        if self.blocked.insert((a, b)) {
            let at = self.clock;
            self.trace(TraceEvent::Partition { at, a, b });
        }
    }

    fn unblock_pair(&mut self, a: NodeId, b: NodeId) {
        let (a, b) = norm_pair(a, b);
        if self.blocked.remove(&(a, b)) {
            let at = self.clock;
            self.trace(TraceEvent::Heal { at, a, b });
        }
    }

    fn crash_node(&mut self, n: NodeId) {
        if self.nodes[n.index()].up {
            self.nodes[n.index()].up = false;
            self.nodes[n.index()].epoch += 1;
            self.nodes[n.index()].crash_after_sends = None;
            self.counters.crashes += 1;
            let at = self.clock;
            self.trace(TraceEvent::Crash { at, node: n });
        }
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(ring) = self.trace.as_mut() {
            ring.push(ev);
        }
    }

    fn note(&mut self, text: fmt::Arguments<'_>) {
        if let Some(ring) = self.trace.as_mut() {
            let at = self.clock;
            ring.push(TraceEvent::Note {
                at,
                text: text.to_string(),
            });
        }
    }
}

fn norm_pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    fn sim3() -> Sim {
        Sim::new(SimConfig::new(1).with_nodes(3))
    }

    #[test]
    fn deliver_advances_clock_and_counts() {
        let sim = sim3();
        let before = sim.now();
        let lat = sim
            .deliver(NodeId::new(0), NodeId::new(1), 100)
            .expect("delivery");
        assert!(lat >= NetConfig::default().base_latency);
        assert_eq!(sim.now(), before + lat);
        let c = sim.counters();
        assert_eq!(c.delivered, 1);
        assert_eq!(c.bytes_delivered, 100);
    }

    #[test]
    fn node_traffic_attributes_delivered_bytes_only() {
        let sim = sim3();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        sim.deliver(a, b, 100).expect("delivery");
        sim.deliver(b, a, 30).expect("delivery");
        // A failed attempt counts for no one.
        sim.crash(c);
        assert!(sim.deliver(a, c, 999).is_err());
        assert_eq!(sim.node_traffic(a), (30, 100));
        assert_eq!(sim.node_traffic(b), (100, 30));
        assert_eq!(sim.node_traffic(c), (0, 0));
        // Traffic history survives a crash/recover cycle (observer data,
        // not volatile node state).
        sim.crash(b);
        sim.recover(b);
        assert_eq!(sim.node_traffic(b), (100, 30));
        // Nodes added later start at zero.
        let d = sim.add_node();
        assert_eq!(sim.node_traffic(d), (0, 0));
    }

    #[test]
    fn deliver_to_crashed_node_fails() {
        let sim = sim3();
        sim.crash(NodeId::new(1));
        assert_eq!(
            sim.deliver(NodeId::new(0), NodeId::new(1), 1),
            Err(NetError::NodeDown(NodeId::new(1)))
        );
        assert_eq!(sim.counters().to_down_node, 1);
    }

    #[test]
    fn deliver_from_crashed_node_fails() {
        let sim = sim3();
        sim.crash(NodeId::new(0));
        assert_eq!(
            sim.deliver(NodeId::new(0), NodeId::new(1), 1),
            Err(NetError::NodeDown(NodeId::new(0)))
        );
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let sim = sim3();
        let (a, b) = (NodeId::new(0), NodeId::new(2));
        sim.partition(a, b);
        assert!(matches!(
            sim.deliver(a, b, 1),
            Err(NetError::Partitioned { .. })
        ));
        assert!(matches!(
            sim.deliver(b, a, 1),
            Err(NetError::Partitioned { .. })
        ));
        // unrelated pair unaffected
        assert!(sim.deliver(a, NodeId::new(1), 1).is_ok());
        sim.heal(a, b);
        assert!(sim.deliver(a, b, 1).is_ok());
    }

    #[test]
    fn partition_groups_blocks_cross_traffic() {
        let sim = Sim::new(SimConfig::new(1).with_nodes(4));
        let ns = sim.nodes();
        sim.partition_groups(&ns[..2], &ns[2..]);
        assert!(sim.deliver(ns[0], ns[1], 1).is_ok());
        assert!(sim.deliver(ns[2], ns[3], 1).is_ok());
        assert!(sim.deliver(ns[0], ns[2], 1).is_err());
        sim.heal_all();
        assert!(sim.deliver(ns[0], ns[2], 1).is_ok());
    }

    #[test]
    fn drops_follow_probability() {
        let sim = Sim::new(
            SimConfig::new(7)
                .with_nodes(2)
                .with_net(NetConfig::default().with_drop_probability(0.5)),
        );
        let mut dropped = 0;
        for _ in 0..200 {
            if sim.deliver(NodeId::new(0), NodeId::new(1), 1) == Err(NetError::Dropped) {
                dropped += 1;
            }
        }
        // 200 Bernoulli(0.5) trials: overwhelmingly within [60, 140].
        assert!((60..=140).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn crash_bumps_epoch_and_recover_does_not() {
        let sim = sim3();
        let n = NodeId::new(1);
        assert_eq!(sim.epoch(n), 0);
        sim.crash(n);
        sim.crash(n); // idempotent
        assert_eq!(sim.epoch(n), 1);
        assert!(!sim.is_up(n));
        sim.recover(n);
        sim.recover(n); // idempotent
        assert!(sim.is_up(n));
        assert_eq!(sim.epoch(n), 1);
        assert_eq!(sim.counters().crashes, 1);
        assert_eq!(sim.counters().recoveries, 1);
    }

    #[test]
    fn crash_after_sends_fires_at_exact_count() {
        let sim = sim3();
        let b = NodeId::new(1);
        sim.crash_after_sends(b, 2);
        assert!(sim.deliver(b, NodeId::new(0), 1).is_ok());
        assert!(sim.is_up(b));
        assert!(sim.deliver(b, NodeId::new(2), 1).is_ok());
        assert!(!sim.is_up(b), "b must crash after its second send");
        assert!(sim.deliver(b, NodeId::new(0), 1).is_err());
    }

    /// A message to a crashed receiver must always be attributed to
    /// `to_down_node` — even with `drop_probability = 1.0`, when every
    /// message that reaches the drop roll is lost. The receiver check comes
    /// first precisely so the oracle's loss taxonomy stays causal.
    #[test]
    fn crashed_receiver_wins_attribution_over_certain_drop() {
        let sim = Sim::new(
            SimConfig::new(5)
                .with_nodes(3)
                .with_net(NetConfig::default().with_drop_probability(1.0))
                .with_trace(),
        );
        sim.crash(NodeId::new(1));
        assert_eq!(
            sim.deliver(NodeId::new(0), NodeId::new(1), 1),
            Err(NetError::NodeDown(NodeId::new(1)))
        );
        let c = sim.counters();
        assert_eq!(c.to_down_node, 1, "attributed to the crashed receiver");
        assert_eq!(c.dropped, 0, "never randomly reclassified as dropped");
        // An up receiver still sees the certain drop.
        assert_eq!(
            sim.deliver(NodeId::new(0), NodeId::new(2), 1),
            Err(NetError::Dropped)
        );
        assert_eq!(sim.counters().dropped, 1);
        let trace = sim.take_trace().expect("tracing enabled");
        let causes: Vec<&str> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Lost { cause, .. } => Some(*cause),
                _ => None,
            })
            .collect();
        assert_eq!(causes, vec!["receiver down", "dropped"]);
    }

    /// Messages to a down receiver consume no RNG draw: the run's random
    /// stream is identical whether or not down-receiver traffic happened.
    #[test]
    fn down_receiver_traffic_consumes_no_rng_draw() {
        let run = |send_to_down: bool| {
            let sim = Sim::new(
                SimConfig::new(21)
                    .with_nodes(3)
                    .with_net(NetConfig::default().with_drop_probability(0.5)),
            );
            sim.crash(NodeId::new(2));
            if send_to_down {
                for _ in 0..10 {
                    assert_eq!(
                        sim.deliver(NodeId::new(0), NodeId::new(2), 1),
                        Err(NetError::NodeDown(NodeId::new(2)))
                    );
                }
            }
            (0..50)
                .map(|_| sim.deliver(NodeId::new(0), NodeId::new(1), 1).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    /// The scripted "crash after k sends" fires at the k-th send *attempt*:
    /// a lossy network (here `drop_probability = 1.0`, so no send ever
    /// succeeds) must not postpone the scripted crash.
    #[test]
    fn crash_after_sends_counts_failed_attempts() {
        let sim = Sim::new(
            SimConfig::new(7)
                .with_nodes(3)
                .with_net(NetConfig::default().with_drop_probability(1.0)),
        );
        let b = NodeId::new(1);
        sim.crash_after_sends(b, 2);
        assert_eq!(sim.deliver(b, NodeId::new(0), 1), Err(NetError::Dropped));
        assert!(sim.is_up(b), "one attempt left in the budget");
        assert_eq!(sim.deliver(b, NodeId::new(2), 1), Err(NetError::Dropped));
        assert!(!sim.is_up(b), "b crashes at its second send attempt");
    }

    #[test]
    fn crash_after_sends_counts_partitioned_and_down_receiver_attempts() {
        let sim = sim3();
        let b = NodeId::new(1);
        sim.partition(b, NodeId::new(0));
        sim.crash(NodeId::new(2));
        sim.crash_after_sends(b, 3);
        assert!(matches!(
            sim.deliver(b, NodeId::new(0), 1),
            Err(NetError::Partitioned { .. })
        ));
        assert!(sim.is_up(b));
        assert_eq!(
            sim.deliver(b, NodeId::new(2), 1),
            Err(NetError::NodeDown(NodeId::new(2)))
        );
        assert!(sim.is_up(b));
        sim.heal(b, NodeId::new(0));
        assert!(sim.deliver(b, NodeId::new(0), 1).is_ok());
        assert!(!sim.is_up(b), "third attempt exhausts the budget");
    }

    /// Attempts refused because the *sender* is down are not sends: they
    /// must not tick an armed budget (the node is already crashed anyway,
    /// but the recovered node must come back disarmed).
    #[test]
    fn recover_disarms_a_pending_send_budget() {
        let sim = sim3();
        let b = NodeId::new(1);
        sim.crash_after_sends(b, 5);
        sim.recover(b); // up + armed → disarm
        for i in 0..10 {
            assert!(sim.deliver(b, NodeId::new(i % 2 * 2), 1).is_ok());
        }
        assert!(sim.is_up(b), "recover cancelled the scripted fault point");
    }

    #[test]
    fn charge_timeout_advances_clock_and_counts() {
        let sim = sim3();
        let before = sim.now();
        sim.charge_timeout();
        assert_eq!(sim.now(), before + NetConfig::default().rpc_timeout);
        assert_eq!(sim.counters().timeouts, 1);
    }

    #[test]
    fn branches_of_1_and_3_ms_join_at_the_slowest() {
        let sim = sim3();
        sim.advance(SimDuration::from_millis(5));
        let start = sim.now();
        let mut fork = sim.fork();
        for ms in [1, 3] {
            sim.branch(&mut fork);
            assert_eq!(sim.now(), start, "each branch starts at the fork time");
            sim.advance(SimDuration::from_millis(ms));
        }
        sim.join(fork);
        assert_eq!(sim.now(), start + SimDuration::from_millis(3));
        // The slowest branch may come first: the join still finds it.
        let mut fork = sim.fork();
        for ms in [4, 2] {
            sim.branch(&mut fork);
            sim.advance(SimDuration::from_millis(ms));
        }
        sim.join(fork);
        assert_eq!(sim.now(), start + SimDuration::from_millis(7));
        // A fork without branches costs nothing.
        let fork = sim.fork();
        sim.join(fork);
        assert_eq!(sim.now(), start + SimDuration::from_millis(7));
    }

    #[test]
    fn nested_forks_compose() {
        let sim = sim3();
        let ms = SimDuration::from_millis;
        let mut outer = sim.fork();
        // Branch 1: 1 ms, then an inner fan-out of 2 ms and 5 ms → 6 ms.
        sim.branch(&mut outer);
        sim.advance(ms(1));
        let mut inner = sim.fork();
        for d in [2, 5] {
            sim.branch(&mut inner);
            sim.advance(ms(d));
        }
        sim.join(inner);
        assert_eq!(sim.now(), SimTime::ZERO + ms(6));
        // Branch 2: 4 ms.
        sim.branch(&mut outer);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.advance(ms(4));
        sim.join(outer);
        assert_eq!(sim.now(), SimTime::ZERO + ms(6));
    }

    #[test]
    fn branches_keep_send_order_and_outcomes() {
        // The same sends with and without a fork: the same draws and
        // counters, only the clock differs.
        let run = |forked: bool| {
            let sim = Sim::new(SimConfig::new(9).with_nodes(4));
            sim.set_drop_probability(0.3);
            let mut fork = sim.fork();
            let outcomes: Vec<bool> = (1..4)
                .map(|i| {
                    if forked {
                        sim.branch(&mut fork);
                    }
                    sim.deliver(NodeId::new(0), NodeId::new(i), 10).is_ok()
                })
                .collect();
            sim.join(fork);
            (outcomes, sim.rng_draws(), sim.counters(), sim.now())
        };
        let (seq, forked) = (run(false), run(true));
        assert_eq!((&seq.0, seq.1, seq.2), (&forked.0, forked.1, forked.2));
        assert!(forked.3 <= seq.3);
    }

    #[test]
    fn a_fork_allocates_nothing() {
        // No drop glue means no owned heap memory: a fork is two times on
        // the stack.
        assert!(!std::mem::needs_drop::<Fork>());
        assert_eq!(
            std::mem::size_of::<Fork>(),
            2 * std::mem::size_of::<SimTime>()
        );
    }

    #[test]
    fn schedule_fires_in_time_order() {
        let sim = sim3();
        let at = |us| SimDuration::from_micros(us);
        sim.schedule_in(at(100), ScheduledEvent::Custom(8));
        sim.schedule_in(at(50), ScheduledEvent::Custom(7));
        sim.schedule_in(at(100), ScheduledEvent::Custom(9));
        assert!(sim.run_due_events().is_empty(), "nothing due at t=0");
        sim.advance(at(60));
        assert_eq!(sim.run_due_events(), vec![ScheduledEvent::Custom(7)]);
        sim.advance(at(60));
        assert_eq!(
            sim.run_due_events(),
            vec![ScheduledEvent::Custom(8), ScheduledEvent::Custom(9)],
            "equal times fire in scheduling order"
        );
        sim.advance(at(1_000));
        assert!(sim.run_due_events().is_empty(), "each event fires once");
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let sim = sim3();
        sim.advance(SimDuration::from_micros(500));
        sim.schedule_in(SimDuration::from_micros(10), ScheduledEvent::Custom(1));
        sim.advance(SimDuration::from_micros(9));
        assert!(sim.run_due_events().is_empty(), "due at 510, not 10");
        sim.advance(SimDuration::from_micros(1));
        assert_eq!(sim.run_due_events(), vec![ScheduledEvent::Custom(1)]);
    }

    #[test]
    fn trace_records_when_enabled() {
        let sim = Sim::new(SimConfig::new(1).with_nodes(2).with_trace());
        sim.deliver(NodeId::new(0), NodeId::new(1), 5).unwrap();
        sim.crash(NodeId::new(1));
        sim.note(format_args!("checkpoint"));
        let trace = sim.take_trace().expect("tracing enabled");
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace[0], TraceEvent::Deliver { .. }));
        assert!(matches!(trace[1], TraceEvent::Crash { .. }));
        assert!(matches!(trace[2], TraceEvent::Note { .. }));
        // take_trace drains
        assert_eq!(sim.take_trace().expect("still enabled").len(), 0);
    }

    #[test]
    fn trace_disabled_returns_none() {
        let sim = sim3();
        assert!(sim.take_trace().is_none());
        assert_eq!(sim.trace_dropped(), 0);
    }

    #[test]
    fn trace_ring_caps_retained_events_and_counts_drops() {
        let sim = Sim::new(SimConfig::new(1).with_nodes(2).with_trace());
        for i in 0..TRACE_CAPACITY + 4 {
            sim.note(format_args!("n{i}"));
        }
        assert_eq!(sim.trace_dropped(), 4);
        let trace = sim.take_trace().expect("tracing enabled");
        assert_eq!(trace.len(), TRACE_CAPACITY, "ring keeps the newest events");
        // The survivors are the most recent events, in arrival order.
        let texts: Vec<&str> = trace
            .iter()
            .map(|e| match e {
                TraceEvent::Note { text, .. } => text.as_str(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(texts[0], "n4");
        assert_eq!(
            texts[TRACE_CAPACITY - 1],
            format!("n{}", TRACE_CAPACITY + 3)
        );
        // The dropped count survives the drain; the drained ring refills.
        assert_eq!(sim.trace_dropped(), 4);
        sim.note(format_args!("later"));
        assert_eq!(sim.take_trace().expect("still enabled").len(), 1);
    }

    #[test]
    fn message_trace_events_carry_the_active_action() {
        let sim = Sim::new(SimConfig::new(1).with_nodes(3).with_trace());
        sim.with_active_action(42, || {
            sim.deliver(NodeId::new(0), NodeId::new(1), 5).unwrap();
            sim.crash(NodeId::new(2));
            let _ = sim.deliver(NodeId::new(0), NodeId::new(2), 5);
        });
        sim.deliver(NodeId::new(0), NodeId::new(1), 5).unwrap();
        let trace = sim.take_trace().expect("tracing enabled");
        let actions: Vec<Option<u64>> = trace.iter().map(TraceEvent::action).collect();
        // Deliver(42), Crash(None), Lost(42), Deliver(None).
        assert_eq!(actions, vec![Some(42), None, Some(42), None]);
    }

    /// The draw counter advances with every consumed random value — and
    /// only then (a lossless, jitter-free delivery draws once, for the
    /// jitter-less path nothing; tracing draws nothing).
    #[test]
    fn rng_draws_count_consumed_values() {
        let sim = sim3();
        assert_eq!(sim.rng_draws(), 0);
        let _ = sim.random_f64();
        let _ = sim.random_below(10);
        assert_eq!(sim.rng_draws(), 2);
        let mut v: Vec<u32> = (0..5).collect();
        sim.shuffle(&mut v);
        assert_eq!(sim.rng_draws(), 6, "Fisher–Yates draws n-1 times");
        // Default net has jitter: one draw per successful delivery, none
        // for the drop roll while drop_probability is 0.
        sim.deliver(NodeId::new(0), NodeId::new(1), 1).unwrap();
        assert_eq!(sim.rng_draws(), 7);
    }

    #[test]
    fn partition_and_heal_are_traced_once_per_pair() {
        let sim = Sim::new(SimConfig::new(1).with_nodes(4).with_trace());
        let ns = sim.nodes();
        sim.partition(ns[3], ns[0]); // stored with the smaller id first
        sim.partition(ns[0], ns[3]); // already blocked: no second event
        sim.partition_groups(&ns[..2], &ns[2..]);
        sim.heal(ns[0], ns[2]);
        sim.heal(ns[0], ns[2]); // already healed: no second event
        sim.heal_all();
        let trace = sim.take_trace().expect("tracing enabled");
        let partitions: Vec<_> = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Partition { .. }))
            .collect();
        let heals: Vec<_> = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Heal { .. }))
            .collect();
        // 0-3 once, then the three *new* cross pairs (0-2, 1-2, 1-3).
        assert_eq!(partitions.len(), 4);
        // Every blocked pair healed exactly once.
        assert_eq!(heals.len(), 4);
        assert!(matches!(
            partitions[0],
            TraceEvent::Partition { a, b, .. } if *a == ns[0] && *b == ns[3]
        ));
    }

    /// Every `Lost { cause: "partitioned" }` trace entry must be preceded by
    /// a `Partition` event for that pair with no intervening `Heal` — i.e.
    /// the trace explains every [`NetError::Partitioned`] loss.
    #[test]
    fn partitioned_losses_line_up_with_partition_trace_events() {
        let sim = Sim::new(SimConfig::new(3).with_nodes(3).with_trace());
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        sim.partition(a, b);
        assert_eq!(
            sim.deliver(a, b, 1),
            Err(NetError::Partitioned { from: a, to: b })
        );
        sim.heal(a, b);
        sim.deliver(a, b, 1).expect("healed");
        sim.partition(b, c);
        assert_eq!(
            sim.deliver(c, b, 1),
            Err(NetError::Partitioned { from: c, to: b })
        );
        let trace = sim.take_trace().expect("tracing enabled");
        let mut blocked: IdSet<(NodeId, NodeId)> = IdSet::default();
        let mut partitioned_losses = 0;
        for ev in &trace {
            match *ev {
                TraceEvent::Partition { a, b, .. } => {
                    blocked.insert(norm_pair(a, b));
                }
                TraceEvent::Heal { a, b, .. } => {
                    blocked.remove(&norm_pair(a, b));
                }
                TraceEvent::Lost {
                    from,
                    to,
                    cause: "partitioned",
                    ..
                } => {
                    partitioned_losses += 1;
                    assert!(
                        blocked.contains(&norm_pair(from, to)),
                        "loss on {from}->{to} not explained by a Partition event"
                    );
                }
                TraceEvent::Deliver { from, to, .. } => {
                    assert!(
                        !blocked.contains(&norm_pair(from, to)),
                        "delivery on a partitioned pair {from}->{to}"
                    );
                }
                _ => {}
            }
        }
        assert_eq!(partitioned_losses, 2, "both losses appear in the trace");
    }

    #[test]
    fn drop_probability_can_be_ramped_mid_run() {
        let sim = Sim::new(SimConfig::new(7).with_nodes(2));
        for _ in 0..50 {
            assert!(sim.deliver(NodeId::new(0), NodeId::new(1), 1).is_ok());
        }
        sim.set_drop_probability(1.0);
        assert_eq!(
            sim.deliver(NodeId::new(0), NodeId::new(1), 1),
            Err(NetError::Dropped)
        );
        sim.set_drop_probability(0.0);
        assert!(sim.deliver(NodeId::new(0), NodeId::new(1), 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn set_drop_probability_validates_range() {
        sim3().set_drop_probability(1.5);
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let sim = Sim::new(
                SimConfig::new(seed)
                    .with_nodes(2)
                    .with_net(NetConfig::default().with_drop_probability(0.3)),
            );
            let mut outcomes = Vec::new();
            for _ in 0..50 {
                outcomes.push(sim.deliver(NodeId::new(0), NodeId::new(1), 1).is_ok());
            }
            (outcomes, sim.now())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn add_node_extends_world() {
        let sim = sim3();
        let n = sim.add_node();
        assert_eq!(n, NodeId::new(3));
        assert_eq!(sim.num_nodes(), 4);
        assert!(sim.is_up(n));
        assert_eq!(sim.nodes().len(), 4);
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let sim = Sim::new(SimConfig::new(5).with_nodes(1));
        let mut v: Vec<u32> = (0..10).collect();
        sim.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let sim = sim3();
        assert!(!sim.chance(0.0));
        assert!(sim.chance(1.0));
    }
}
