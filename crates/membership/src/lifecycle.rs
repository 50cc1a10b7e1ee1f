//! Node lifecycle: join, drain, decommission.
//!
//! A node's membership status is control-plane metadata kept *next to* the
//! group-view databases, not inside them: `Sv`/`St` keep describing where
//! replicas **are**, while the status map describes where replicas **may
//! go**. A `Draining` node is excluded from target selection immediately
//! (it stops accepting new replicas), but its existing replicas remain
//! fully serviceable until each one has been migrated away.

use crate::migrate::MigrateError;
use groupview_core::StateEntry;
use groupview_obs::Phase;
use groupview_replication::System;
use groupview_sim::NodeId;
use groupview_store::Uid;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Where a node stands in the elastic-membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Full member: hosts replicas and accepts new ones.
    Active,
    /// Stops accepting new replicas; existing ones are being migrated off.
    Draining,
    /// Drained empty and decommissioned. Re-adding requires a fresh
    /// [`Membership::activate_node`].
    Removed,
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeStatus::Active => write!(f, "active"),
            NodeStatus::Draining => write!(f, "draining"),
            NodeStatus::Removed => write!(f, "removed"),
        }
    }
}

/// What one drain pass over a node accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Replicas successfully migrated off the draining node.
    pub moved: Vec<Uid>,
    /// Replicas that refused the move because the object was in use or
    /// locked — retry once the clients finish.
    pub busy: Vec<Uid>,
    /// Replicas whose migration failed outright this pass (e.g. no
    /// reachable state source) — retry after recovery.
    pub failed: Vec<Uid>,
    /// Replicas still on the node after the pass.
    pub remaining: usize,
    /// Whether the node finished the pass empty (and, if draining, was
    /// decommissioned).
    pub complete: bool,
}

impl DrainReport {
    /// Folds a later pass's results into this one.
    pub fn merge(&mut self, other: DrainReport) {
        self.moved.extend(other.moved);
        self.busy = other.busy;
        self.failed = other.failed;
        self.remaining = other.remaining;
        self.complete = other.complete;
    }
}

impl fmt::Display for DrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drain: moved={} busy={} failed={} remaining={}{}",
            self.moved.len(),
            self.busy.len(),
            self.failed.len(),
            self.remaining,
            if self.complete { " (complete)" } else { "" }
        )
    }
}

/// Elastic-membership coordinator for one [`System`].
///
/// Runs colocated with the naming service (all database calls are local),
/// so lifecycle operations pay messages only for the state-copy legs of
/// migrations — exactly the data-plane cost.
#[derive(Clone)]
pub struct Membership {
    pub(crate) sys: System,
    status: Rc<RefCell<BTreeMap<NodeId, NodeStatus>>>,
}

impl fmt::Debug for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Membership")
            .field("tracked", &self.status.borrow().len())
            .finish()
    }
}

impl Membership {
    /// Creates a membership coordinator over the system.
    pub fn new(sys: &System) -> Self {
        Membership {
            sys: sys.clone(),
            status: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Adds a brand-new node to the world: a fresh sim node with an empty
    /// object store attached, immediately [`NodeStatus::Active`] and
    /// eligible as a migration target. Returns its id (sequential, so
    /// deterministic plans can name future nodes).
    pub fn add_node(&self) -> NodeId {
        let node = self.sys.sim().add_node();
        self.activate_node(node);
        node
    }

    /// Marks an *existing* node active and attaches an object store if it
    /// lacks one — used to re-admit a previously drained node, or to
    /// promote a client-only node into a replica host.
    pub fn activate_node(&self, node: NodeId) {
        self.sys.stores().add_store(node);
        self.status.borrow_mut().insert(node, NodeStatus::Active);
        self.sys
            .sim()
            .note(format_args!("membership: {node} active (store attached)"));
    }

    /// The node's lifecycle status. Nodes never touched by this
    /// coordinator are implicitly active.
    pub fn status(&self, node: NodeId) -> NodeStatus {
        self.status
            .borrow()
            .get(&node)
            .copied()
            .unwrap_or(NodeStatus::Active)
    }

    /// Whether `node` may receive new replicas right now: active, has a
    /// store, and is up (a down node cannot acknowledge the state copy).
    pub(crate) fn is_eligible(&self, node: NodeId) -> bool {
        self.status(node) == NodeStatus::Active
            && self.sys.stores().has_store(node)
            && self.sys.sim().is_up(node)
    }

    /// Store nodes currently eligible as migration targets, sorted,
    /// excluding `not` (the source of the move under consideration).
    pub fn targets(&self, not: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .sys
            .stores()
            .store_nodes()
            .into_iter()
            .filter(|&n| n != not && self.is_eligible(n))
            .collect();
        v.sort_unstable();
        v
    }

    /// UIDs with a replica on `node`: the union of the server database's
    /// hosting index and the state entries naming the node, sorted.
    pub fn hosted(&self, node: NodeId) -> Vec<Uid> {
        let naming = self.sys.naming();
        let mut uids = naming.server_db.uids_hosting(node);
        uids.extend(naming.state_db.uids_hosting(node));
        uids.sort_unstable();
        uids.dedup();
        uids
    }

    /// Number of objects whose `St` entry names `node`: the load that
    /// [`Membership::drain_step`] balances, counted by one scan of `St`.
    pub fn replica_count(&self, node: NodeId) -> usize {
        self.sys.naming().state_db.uids_hosting(node).len()
    }

    /// Marks `node` as draining: it stops accepting new replicas at once.
    /// Existing replicas keep serving until migrated. Draining a *down*
    /// node is allowed — that is how a dead node is decommissioned (state
    /// copies come from the surviving `St` members).
    pub fn begin_drain(&self, node: NodeId) {
        self.status.borrow_mut().insert(node, NodeStatus::Draining);
        self.sys
            .sim()
            .note(format_args!("membership: {node} draining"));
    }

    /// One drain pass: migrates every replica on `node` to the
    /// least-loaded eligible target that does not already host the object
    /// (an `Sv` or `St` member cannot take a second copy). Objects in use
    /// come back as `busy` (retry after their clients finish); objects with
    /// no reachable state source or no admissible target as `failed` (retry
    /// after recovery). When the pass leaves the node empty, a draining
    /// node is decommissioned.
    ///
    /// The loads are [`Membership::replica_count`]s, counted once per pass
    /// and kept current by diffing the moved object's own `St` entry
    /// around each migration, which is exact whether it committed, aborted
    /// or was cut short by a crash. Liveness is rechecked at every pick.
    pub fn drain_step(&self, node: NodeId) -> DrainReport {
        let start = self.sys.sim().now().as_micros();
        let naming = self.sys.naming();
        let mut report = DrainReport::default();
        let hosted = self.hosted(node);
        let mut loads = if hosted.is_empty() {
            Vec::new()
        } else {
            self.target_loads(node)
        };
        for uid in hosted {
            let sv = naming.server_db.entry(uid);
            let st = naming.state_db.entry(uid);
            let hosts = |t: NodeId| {
                sv.as_ref().is_some_and(|e| e.servers.contains(&t))
                    || st.as_ref().is_some_and(|e| e.contains(t))
            };
            // A host sorts after every non-host, so the minimum is a host
            // only when no admissible target is left.
            let target = match loads
                .iter()
                .filter(|&&(t, _)| self.sys.sim().is_up(t))
                .min_by_key(|&&(t, load)| (hosts(t), load, t))
            {
                Some(&(t, _)) if !hosts(t) => t,
                _ => {
                    report.failed.push(uid);
                    continue;
                }
            };
            let result = self.migrate(uid, node, target);
            let after = naming.state_db.entry(uid);
            let listed =
                |e: &Option<StateEntry>, t| usize::from(e.as_ref().is_some_and(|e| e.contains(t)));
            for (t, load) in &mut loads {
                *load = *load + listed(&after, *t) - listed(&st, *t);
            }
            match result {
                Ok(()) => report.moved.push(uid),
                Err(MigrateError::Busy(_)) => report.busy.push(uid),
                Err(_) => report.failed.push(uid),
            }
        }
        report.remaining = self.hosted(node).len();
        report.complete = report.remaining == 0;
        if report.complete && self.status(node) == NodeStatus::Draining {
            // A binder may have pruned the node from an `Sv` while it was
            // down; its recovery must not `Insert` it back.
            naming.server_db.retire_host(node);
            self.status.borrow_mut().insert(node, NodeStatus::Removed);
            self.sys
                .sim()
                .note(format_args!("membership: {node} drained and removed"));
        }
        self.sys
            .obs()
            .span(0, Phase::Drain, start, self.sys.sim().now().as_micros());
        report
    }

    /// The targets of a pass over `not`, each with its `St` replica count
    /// from one scan of the state database. Status and store attachment
    /// cannot change inside a pass and a down node cannot come back, so
    /// only a crash can shrink the list: the picks check liveness.
    fn target_loads(&self, not: NodeId) -> Vec<(NodeId, usize)> {
        let mut loads: Vec<(NodeId, usize)> =
            self.targets(not).into_iter().map(|n| (n, 0)).collect();
        let state_db = &self.sys.naming().state_db;
        for entry in state_db
            .uids()
            .into_iter()
            .filter_map(|uid| state_db.entry(uid))
        {
            for (t, load) in &mut loads {
                *load += usize::from(entry.contains(*t));
            }
        }
        loads
    }

    /// Drains `node` to empty: marks it draining, then runs up to
    /// `max_rounds` passes (busy objects are retried each round). Returns
    /// the cumulative report; `complete` tells whether the node was
    /// decommissioned or still holds stragglers the caller should retry
    /// later (e.g. after in-flight actions finish or crashed stores
    /// recover).
    pub fn drain_node(&self, node: NodeId, max_rounds: usize) -> DrainReport {
        self.begin_drain(node);
        let mut report = self.drain_step(node);
        for _ in 1..max_rounds {
            if report.complete || (report.busy.is_empty() && report.failed.is_empty()) {
                break;
            }
            report.merge(self.drain_step(node));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_replication::{Counter, CounterOp};

    /// 6 nodes: naming at 0, servers+stores 1..=3, clients 4..=5.
    fn world() -> (System, Membership) {
        let sys = System::builder(7).nodes(6).build();
        let m = Membership::new(&sys);
        (sys, m)
    }

    fn nodes(sys: &System) -> Vec<NodeId> {
        sys.sim().nodes()
    }

    #[test]
    fn added_node_gets_store_and_is_eligible() {
        let (sys, m) = world();
        let fresh = m.add_node();
        assert_eq!(fresh.raw(), 6, "sequential node ids");
        assert!(sys.stores().has_store(fresh));
        assert_eq!(m.status(fresh), NodeStatus::Active);
        assert!(m.is_eligible(fresh));
        assert_eq!(m.replica_count(fresh), 0);
    }

    #[test]
    fn draining_node_stops_accepting_targets() {
        let (sys, m) = world();
        let n = nodes(&sys);
        let uid = sys
            .create_typed(Counter::new(0), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();
        m.begin_drain(fresh);
        assert_eq!(m.status(fresh), NodeStatus::Draining);
        assert!(!m.is_eligible(fresh));
        assert!(!m.targets(n[1]).contains(&fresh));
        // A drained-empty node is decommissioned on its first pass.
        let report = m.drain_step(fresh);
        assert!(report.complete);
        assert_eq!(m.status(fresh), NodeStatus::Removed);
        // And can come back.
        m.activate_node(fresh);
        assert!(m.is_eligible(fresh));
        let _ = uid;
    }

    #[test]
    fn drain_moves_all_replicas_and_decommissions() {
        let (sys, m) = world();
        let n = nodes(&sys);
        let a = sys
            .create_typed(Counter::new(1), &n[1..3], &n[1..3])
            .unwrap();
        let b = sys
            .create_typed(Counter::new(2), &[n[1], n[3]], &[n[1], n[3]])
            .unwrap();
        let fresh = m.add_node();
        assert_eq!(m.hosted(n[1]), vec![a.uid(), b.uid()]);

        let report = m.drain_node(n[1], 3);
        assert!(report.complete, "drain finished: {report}");
        assert_eq!(report.moved, vec![a.uid(), b.uid()]);
        assert_eq!(m.status(n[1]), NodeStatus::Removed);
        assert!(m.hosted(n[1]).is_empty());
        // Both objects keep full strength; the new host picked up slack.
        for uid in [a.uid(), b.uid()] {
            let entry = sys.naming().state_db.entry(uid).unwrap();
            assert_eq!(entry.len(), 2);
            assert!(!entry.contains(n[1]));
        }
        assert!(m.replica_count(fresh) >= 1, "new node absorbed a replica");

        // The moved objects still serve invocations.
        let client = sys.client(n[4]);
        let counter = a.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).unwrap();
        assert_eq!(counter.invoke(action, CounterOp::Get).unwrap(), 1);
        client.commit(action).unwrap();
    }

    #[test]
    fn busy_object_defers_drain_until_clients_finish() {
        let (sys, m) = world();
        let n = nodes(&sys);
        let uid = sys
            .create_typed(Counter::new(0), &n[1..3], &n[1..3])
            .unwrap();
        let _fresh = m.add_node();

        // A client holds the object active across the drain attempt.
        let client = sys.client(n[4]);
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).unwrap();
        counter.invoke(action, CounterOp::Add(5)).unwrap();

        let report = m.drain_node(n[1], 2);
        assert!(!report.complete);
        assert_eq!(report.busy, vec![uid.uid()], "in-use object refused");
        assert_eq!(m.status(n[1]), NodeStatus::Draining, "not decommissioned");

        // Client finishes on the pinned incarnation; a retry then drains.
        client.commit(action).unwrap();
        assert!(sys.try_passivate(uid.uid()));
        let retry = m.drain_step(n[1]);
        assert!(retry.complete, "{retry}");
        assert_eq!(retry.moved, vec![uid.uid()]);
        assert_eq!(m.status(n[1]), NodeStatus::Removed);
    }

    /// The emptiest eligible node already hosts the object. Picking it
    /// anyway refused with `AlreadyHosted` on every pass, forever.
    #[test]
    fn drain_skips_targets_that_already_host_the_object() {
        let sys = System::builder(7).nodes(7).build();
        let m = Membership::new(&sys);
        let n = nodes(&sys);
        let a = sys
            .create_typed(Counter::new(1), &n[1..4], &n[1..4])
            .unwrap();
        let trio = [n[2], n[4], n[5]];
        let others: Vec<_> = (0..2)
            .map(|_| sys.create_typed(Counter::new(2), &trio, &trio).unwrap())
            .collect();
        // Loads: n1=1 n2=3 n3=1 n4=2 n5=2. Draining n1, the emptiest
        // target is n3 — a member of A's Sv and St.
        assert_eq!(m.replica_count(n[3]), 1);
        let report = m.drain_node(n[1], 1);
        assert!(report.complete, "{report}");
        assert_eq!(report.moved, vec![a.uid()]);
        let sv = sys.naming().server_db.entry(a.uid()).unwrap().servers;
        let st = sys.naming().state_db.entry(a.uid()).unwrap().stores;
        assert_eq!(sv, vec![n[2], n[3], n[4]], "least-loaded non-member");
        assert_eq!(st, sv);
        for other in &others {
            let entry = sys.naming().state_db.entry(other.uid()).unwrap();
            assert_eq!(entry.stores, trio.to_vec(), "bystanders untouched");
        }
    }

    #[test]
    fn dead_node_can_be_decommissioned() {
        let (sys, m) = world();
        let n = nodes(&sys);
        let uid = sys
            .create_typed(Counter::new(9), &n[1..3], &n[1..3])
            .unwrap();
        let _fresh = m.add_node();
        sys.sim().crash(n[1]);

        let report = m.drain_node(n[1], 2);
        assert!(report.complete, "{report}");
        assert_eq!(report.moved, vec![uid.uid()]);
        let entry = sys.naming().state_db.entry(uid.uid()).unwrap();
        assert!(!entry.contains(n[1]));
        assert_eq!(entry.len(), 2, "full strength from surviving member");
        // The dead node is tombstoned so recovery will not resurrect it.
        assert!(sys.stores().is_retired(n[1], uid.uid()));
    }

    /// A binder prunes a down server from `Sv`, and the server keeps its
    /// claim so that its recovery `Insert`s it again. Decommissioning the
    /// node ends the claim: a removed node does not rejoin `Sv`.
    #[test]
    fn a_decommissioned_node_does_not_rejoin_sv_on_recovery() {
        let sys = System::builder(7)
            .nodes(6)
            .scheme(groupview_core::BindingScheme::IndependentTopLevel)
            .build();
        let m = Membership::new(&sys);
        let n = nodes(&sys);
        // n1 serves the object but stores no copy of it.
        let uid = sys
            .create_typed(Counter::new(0), &n[1..4], &n[2..4])
            .unwrap()
            .uid();
        sys.sim().crash(n[1]);
        let client = sys.client(n[4]);
        let a = client.begin_action();
        client.activate(a, uid, 2).expect("bind prunes n1");
        client.commit(a).expect("commit");
        assert!(!sys
            .naming()
            .server_db
            .entry(uid)
            .unwrap()
            .servers
            .contains(&n[1]));
        assert!(m.drain_node(n[1], 1).complete);
        let report = sys.recovery().recover_node(n[1]);
        assert!(report.inserted.is_empty(), "{report:?}");
        assert_eq!(
            sys.naming().server_db.entry(uid).unwrap().servers,
            vec![n[2], n[3]]
        );
    }
}
