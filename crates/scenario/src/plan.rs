//! Time-driven fault plans.
//!
//! A [`FaultPlan`] is a deterministic list of [`PlanAction`]s, each keyed by
//! a **virtual-time offset** from the start of the run (so plans compose
//! with any amount of setup cost). The runner installs every entry as a
//! [`groupview_sim::ScheduledEvent`] in the world's event queue before the
//! workload starts, and applies it at the top of the first driver step
//! whose clock has reached its offset — between whole bind, invoke and
//! commit calls. Only the armed fault points ([`PlanAction::CrashAfterSends`]
//! and [`PlanAction::CrashStoreInCommit`]) land inside a message exchange.

use groupview_sim::{IdSet, NodeId, SimDuration};
use std::fmt;

/// One fault-injection primitive a plan can schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanAction {
    /// Crash a node (fail-silent).
    CrashNode(NodeId),
    /// Arm the paper's Figure 1 fault point: the node crashes immediately
    /// after completing its next `k` send *attempts* (delivered, dropped,
    /// partitioned, or to a dead receiver — see
    /// [`groupview_sim::Sim::crash_after_sends`]). Unlike [`CrashNode`],
    /// the crash lands *inside* whatever message exchange the node is in
    /// the middle of — mid-multicast, mid-reply — which is exactly the
    /// window where replicas can diverge. A later [`RecoverNode`] recovers
    /// the node if the budget fired, and disarms the fault point if it
    /// never did.
    ///
    /// [`CrashNode`]: PlanAction::CrashNode
    /// [`RecoverNode`]: PlanAction::RecoverNode
    CrashAfterSends(NodeId, u32),
    /// Recover a node and run the full §4 recovery protocol.
    RecoverNode(NodeId),
    /// Crash a client (by machine index): its in-flight action is abandoned
    /// and — under the updating schemes — its use-list entries leak until a
    /// cleanup sweep.
    CrashClient(usize),
    /// Run one cleanup-daemon sweep (crashed clients count as dead).
    CleanupSweep,
    /// Block all traffic between two nodes (symmetric).
    PartitionLink(NodeId, NodeId),
    /// Restore traffic between two nodes.
    HealLink(NodeId, NodeId),
    /// Split the world: block every cross-side pair.
    PartitionGroups(Vec<NodeId>, Vec<NodeId>),
    /// Remove every partition.
    HealAll,
    /// Set the network's per-message loss probability (ramped up and back
    /// down by the `lossy_window` nemesis).
    SetDropProbability(f64),
    /// Arm the §4 two-phase-commit window on a **store** node: its next
    /// successful prepare crashes it immediately after the prepare
    /// acknowledgement is sent — between prepare and commit — so the
    /// coordinator's decision stands while the store is left with an
    /// in-doubt transaction that only the recovery protocol can resolve.
    /// A later [`RecoverNode`] recovers the node if the trap fired, and
    /// disarms it if no prepare ever reached the store.
    ///
    /// [`RecoverNode`]: PlanAction::RecoverNode
    CrashStoreInCommit(NodeId),
    /// Grow the world: add a brand-new node with an empty object store,
    /// immediately eligible as a migration target. Node ids are
    /// sequential, so a deterministic plan can name the node in advance
    /// (the first `AddNode` of a 7-node scenario creates node 7).
    AddNode,
    /// Drain a node: it stops accepting new replicas, its existing
    /// replicas migrate to the least-loaded eligible nodes, and it is
    /// decommissioned once empty. Replicas busy with in-flight client
    /// actions are retried at the end of the run.
    DrainNode(NodeId),
    /// Run the stats-driven rebalancer once: plan a bounded batch of
    /// migrations over the current load spread and execute it.
    Rebalance,
}

impl fmt::Display for PlanAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanAction::CrashNode(n) => write!(f, "crash {n}"),
            PlanAction::CrashAfterSends(n, k) => {
                write!(f, "crash {n} after {k} send attempts")
            }
            PlanAction::RecoverNode(n) => write!(f, "recover {n}"),
            PlanAction::CrashClient(i) => write!(f, "crash client {i}"),
            PlanAction::CleanupSweep => write!(f, "cleanup sweep"),
            PlanAction::PartitionLink(a, b) => write!(f, "partition {a} -/- {b}"),
            PlanAction::HealLink(a, b) => write!(f, "heal {a} --- {b}"),
            PlanAction::PartitionGroups(a, b) => {
                write!(f, "partition {} nodes -/- {} nodes", a.len(), b.len())
            }
            PlanAction::HealAll => write!(f, "heal all"),
            PlanAction::SetDropProbability(p) => write!(f, "set drop probability {p}"),
            PlanAction::CrashStoreInCommit(n) => {
                write!(f, "crash store {n} between prepare and commit")
            }
            PlanAction::AddNode => write!(f, "add a fresh node"),
            PlanAction::DrainNode(n) => write!(f, "drain {n} and migrate its replicas"),
            PlanAction::Rebalance => write!(f, "rebalance replica placement"),
        }
    }
}

/// One scheduled entry of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEvent {
    /// When the action fires: a virtual-time offset from the start of the
    /// run.
    pub at: SimDuration,
    /// What happens.
    pub action: PlanAction,
}

/// A deterministic, time-keyed schedule of fault injections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<PlanEvent>,
}

/// A well-formedness violation found by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A node is recovered without a preceding crash (or crashed twice
    /// without an intervening recover).
    UnbalancedNodeFault {
        /// Index of the offending event.
        index: usize,
    },
    /// A link is healed without a preceding partition.
    HealWithoutPartition {
        /// Index of the offending event.
        index: usize,
    },
    /// A drop probability outside `[0, 1]`.
    BadProbability {
        /// Index of the offending event.
        index: usize,
    },
    /// A `CrashAfterSends` with a zero send budget (the simulator treats
    /// `k = 0` like `k = 1`; a plan must say what it means).
    BadSendBudget {
        /// Index of the offending event.
        index: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnbalancedNodeFault { index } => {
                write!(f, "event {index} crashes/recovers a node out of order")
            }
            PlanError::HealWithoutPartition { index } => {
                write!(f, "event {index} heals a link that was never partitioned")
            }
            PlanError::BadProbability { index } => {
                write!(f, "event {index} sets a drop probability outside [0,1]")
            }
            PlanError::BadSendBudget { index } => {
                write!(
                    f,
                    "event {index} arms a crash-after-sends with a zero budget"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an action at a virtual-time offset from the start of the run.
    #[must_use]
    pub fn at(mut self, offset: SimDuration, action: PlanAction) -> Self {
        self.events.push(PlanEvent { at: offset, action });
        self
    }

    /// Adds an action `micros` microseconds after the start of the run.
    #[must_use]
    pub(crate) fn at_micros(self, micros: u64, action: PlanAction) -> Self {
        self.at(SimDuration::from_micros(micros), action)
    }

    /// Appends all of `other`'s events (compose nemeses).
    #[must_use]
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[PlanEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `(index, offset)` of every event — what the runner schedules into
    /// the simulator as `ScheduledEvent::Custom(index)`.
    pub fn timed_events(&self) -> impl Iterator<Item = (usize, SimDuration)> + '_ {
        self.events.iter().enumerate().map(|(i, e)| (i, e.at))
    }

    /// Whether the events appear in non-decreasing offset order (a
    /// property every single nemesis guarantees; a [`FaultPlan::merge`] of
    /// two nemeses usually does not, which is fine — scheduling is
    /// independent of vector order).
    pub fn is_time_sorted(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at <= w[1].at)
    }

    /// Checks the plan's well-formedness **in firing order**: node
    /// crash/recover balanced, links healed only after being partitioned,
    /// probabilities in range. Events are evaluated sorted by offset
    /// (stable, so equal offsets keep insertion order — `merge`d nemeses
    /// validate like the schedule that actually runs).
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] found (indices refer to [`FaultPlan::events`]
    /// order).
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].at);
        let mut down: IdSet<NodeId> = IdSet::default();
        // Nodes with an armed crash-after-sends budget: whether and when
        // the crash fires depends on the run, so such a node may validly be
        // crashed again (the budget never fired) or recovered (it did — or
        // the recover just disarms it).
        let mut armed: IdSet<NodeId> = IdSet::default();
        let mut blocked: IdSet<(NodeId, NodeId)> = IdSet::default();
        for index in order {
            match &self.events[index].action {
                PlanAction::CrashNode(n) => {
                    armed.remove(n);
                    if !down.insert(*n) {
                        return Err(PlanError::UnbalancedNodeFault { index });
                    }
                }
                PlanAction::CrashAfterSends(n, k) => {
                    if *k == 0 {
                        return Err(PlanError::BadSendBudget { index });
                    }
                    // Arming a node that is statically known to be down is
                    // a plan bug: the budget cannot tick while it is down,
                    // and its eventual recover would just disarm it.
                    if down.contains(n) {
                        return Err(PlanError::UnbalancedNodeFault { index });
                    }
                    armed.insert(*n);
                }
                PlanAction::CrashStoreInCommit(n) => {
                    // Same arming discipline as CrashAfterSends: whether and
                    // when the trap fires depends on the run, so the node is
                    // "armed" until a recover balances it.
                    if down.contains(n) {
                        return Err(PlanError::UnbalancedNodeFault { index });
                    }
                    armed.insert(*n);
                }
                PlanAction::RecoverNode(n) => {
                    if !down.remove(n) && !armed.remove(n) {
                        return Err(PlanError::UnbalancedNodeFault { index });
                    }
                }
                PlanAction::PartitionLink(a, b) => {
                    blocked.insert(norm(*a, *b));
                }
                PlanAction::HealLink(a, b) => {
                    if !blocked.remove(&norm(*a, *b)) {
                        return Err(PlanError::HealWithoutPartition { index });
                    }
                }
                PlanAction::PartitionGroups(side_a, side_b) => {
                    for &a in side_a {
                        for &b in side_b {
                            blocked.insert(norm(a, b));
                        }
                    }
                }
                PlanAction::HealAll => blocked.clear(),
                PlanAction::SetDropProbability(p) => {
                    if !(0.0..=1.0).contains(p) {
                        return Err(PlanError::BadProbability { index });
                    }
                }
                // Membership actions have no static balance constraints: a
                // drained node may later be crashed/recovered like any
                // other, and AddNode/Rebalance are always applicable.
                PlanAction::CrashClient(_)
                | PlanAction::CleanupSweep
                | PlanAction::AddNode
                | PlanAction::DrainNode(_)
                | PlanAction::Rebalance => {}
            }
        }
        Ok(())
    }
}

fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn builders_and_accessors() {
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashNode(n(1)))
            .at_micros(300, PlanAction::RecoverNode(n(1)))
            .at(SimDuration::from_millis(4), PlanAction::CleanupSweep);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.timed_events().collect::<Vec<_>>(),
            vec![
                (0, SimDuration::from_micros(100)),
                (1, SimDuration::from_micros(300)),
                (2, SimDuration::from_millis(4)),
            ]
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn merge_concatenates() {
        let a = FaultPlan::new().at_micros(10, PlanAction::HealAll);
        let b = FaultPlan::new().at_micros(20, PlanAction::CleanupSweep);
        assert_eq!(a.merge(b).len(), 2);
    }

    #[test]
    fn validate_checks_firing_order_not_insertion_order() {
        // Inserted out of time order: at runtime the recover (100µs) would
        // fire before the crash (200µs) — firing-order validation rejects
        // it at the event that actually fires out of balance.
        let plan = FaultPlan::new()
            .at_micros(200, PlanAction::CrashNode(n(1)))
            .at_micros(100, PlanAction::RecoverNode(n(1)));
        assert_eq!(
            plan.validate(),
            Err(PlanError::UnbalancedNodeFault { index: 1 })
        );
        assert!(!plan.is_time_sorted());
    }

    #[test]
    fn merged_nemeses_with_overlapping_windows_validate() {
        // Each half is internally sorted; the concatenation is not — but
        // the merged schedule is perfectly executable and must validate.
        let crashes = FaultPlan::new()
            .at_micros(2_000, PlanAction::CrashNode(n(1)))
            .at_micros(9_000, PlanAction::RecoverNode(n(1)));
        let loss = FaultPlan::new()
            .at_micros(1_000, PlanAction::SetDropProbability(0.2))
            .at_micros(8_000, PlanAction::SetDropProbability(0.0));
        let merged = crashes.merge(loss);
        assert!(!merged.is_time_sorted());
        assert!(merged.validate().is_ok());
    }

    #[test]
    fn validate_rejects_recover_without_crash() {
        let plan = FaultPlan::new().at_micros(100, PlanAction::RecoverNode(n(1)));
        assert_eq!(
            plan.validate(),
            Err(PlanError::UnbalancedNodeFault { index: 0 })
        );
    }

    #[test]
    fn validate_rejects_double_crash() {
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashNode(n(1)))
            .at_micros(200, PlanAction::CrashNode(n(1)));
        assert_eq!(
            plan.validate(),
            Err(PlanError::UnbalancedNodeFault { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_heal_without_partition() {
        let plan = FaultPlan::new().at_micros(100, PlanAction::HealLink(n(1), n(2)));
        assert_eq!(
            plan.validate(),
            Err(PlanError::HealWithoutPartition { index: 0 })
        );
    }

    #[test]
    fn validate_accepts_group_partition_then_link_heal() {
        let plan = FaultPlan::new()
            .at_micros(
                100,
                PlanAction::PartitionGroups(vec![n(1)], vec![n(2), n(3)]),
            )
            .at_micros(200, PlanAction::HealLink(n(2), n(1)))
            .at_micros(300, PlanAction::HealAll);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let plan = FaultPlan::new().at_micros(10, PlanAction::SetDropProbability(1.5));
        assert_eq!(plan.validate(), Err(PlanError::BadProbability { index: 0 }));
    }

    #[test]
    fn crash_after_sends_validates_like_a_deferred_crash() {
        // Arm → recover is balanced whether or not the budget fired.
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashAfterSends(n(1), 2))
            .at_micros(500, PlanAction::RecoverNode(n(1)));
        assert!(plan.validate().is_ok());
        // Arm → explicit crash is also fine (the budget never fired).
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashAfterSends(n(1), 2))
            .at_micros(500, PlanAction::CrashNode(n(1)))
            .at_micros(900, PlanAction::RecoverNode(n(1)));
        assert!(plan.validate().is_ok());
        // Re-arming overwrites; still balanced by one recover.
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashAfterSends(n(1), 2))
            .at_micros(200, PlanAction::CrashAfterSends(n(1), 5))
            .at_micros(500, PlanAction::RecoverNode(n(1)));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn crash_store_in_commit_validates_like_an_armed_crash() {
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashStoreInCommit(n(1)))
            .at_micros(500, PlanAction::RecoverNode(n(1)));
        assert!(plan.validate().is_ok());
        // Arming a statically-down store is a plan bug.
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashNode(n(1)))
            .at_micros(200, PlanAction::CrashStoreInCommit(n(1)));
        assert_eq!(
            plan.validate(),
            Err(PlanError::UnbalancedNodeFault { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_zero_send_budget() {
        let plan = FaultPlan::new().at_micros(100, PlanAction::CrashAfterSends(n(1), 0));
        assert_eq!(plan.validate(), Err(PlanError::BadSendBudget { index: 0 }));
    }

    #[test]
    fn validate_rejects_arming_a_down_node() {
        let plan = FaultPlan::new()
            .at_micros(100, PlanAction::CrashNode(n(1)))
            .at_micros(200, PlanAction::CrashAfterSends(n(1), 1));
        assert_eq!(
            plan.validate(),
            Err(PlanError::UnbalancedNodeFault { index: 1 })
        );
    }

    #[test]
    fn displays_are_informative() {
        for (action, needle) in [
            (PlanAction::CrashNode(n(1)), "crash"),
            (PlanAction::CrashAfterSends(n(1), 2), "send attempts"),
            (PlanAction::RecoverNode(n(1)), "recover"),
            (PlanAction::CrashClient(2), "client"),
            (PlanAction::CleanupSweep, "sweep"),
            (PlanAction::PartitionLink(n(1), n(2)), "partition"),
            (PlanAction::HealLink(n(1), n(2)), "heal"),
            (
                PlanAction::PartitionGroups(vec![n(1)], vec![n(2)]),
                "partition",
            ),
            (PlanAction::HealAll, "heal"),
            (PlanAction::SetDropProbability(0.5), "drop"),
            (
                PlanAction::CrashStoreInCommit(n(2)),
                "between prepare and commit",
            ),
            (PlanAction::AddNode, "add"),
            (PlanAction::DrainNode(n(2)), "drain"),
            (PlanAction::Rebalance, "rebalance"),
        ] {
            assert!(action.to_string().contains(needle), "{action}");
        }
        let err = FaultPlan::new()
            .at(
                SimDuration::from_micros(5),
                PlanAction::HealLink(n(1), n(2)),
            )
            .validate()
            .unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
