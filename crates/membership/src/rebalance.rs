//! Stats-driven rebalancing: greedy two-dimensional bin-packing.
//!
//! The rebalancer reads two load dimensions per object — cumulative use
//! count (a QPS proxy from the server database's monotone lifetime
//! counters) and committed state size — attributes them to the nodes
//! hosting each replica, and greedily moves the heaviest movable replica
//! from the most-loaded node to the least-loaded eligible node until the
//! spread falls inside the tolerance or the move budget runs out.
//!
//! A node's scalar load is the **maximum** of its two normalized
//! dimension fractions, the classic max-dimension heuristic for 2-D
//! vector packing: a node saturated on bytes is "full" even if its use
//! share is low. When the world has seen no traffic and holds no bytes,
//! every replica weighs one unit, so the packer degrades to replica-count
//! balancing — exactly right for a freshly stretched world.
//!
//! Inputs are deliberately replay-stable (database counters and committed
//! state, never observability snapshots or wall clocks), so planning is
//! deterministic: the same world state always yields the same
//! [`MigrationPlan`].

use crate::lifecycle::Membership;
use crate::migrate::MigrateError;
use groupview_sim::NodeId;
use groupview_store::Uid;
use std::collections::BTreeMap;
use std::fmt;

/// Per-object load statistics the planner works from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectStat {
    /// The object.
    pub uid: Uid,
    /// Cumulative `Increment` count — the deterministic QPS proxy.
    pub uses: u64,
    /// Committed state size in wire bytes.
    pub bytes: u64,
    /// Nodes holding a state replica, sorted.
    pub hosts: Vec<NodeId>,
}

/// One node's aggregated load across hosted replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoadStat {
    /// Total use count attributed to replicas on the node.
    pub uses: u64,
    /// Total state bytes on the node.
    pub bytes: u64,
    /// Number of replicas hosted.
    pub objects: usize,
}

/// One planned replica move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The object to move.
    pub uid: Uid,
    /// Current host.
    pub from: NodeId,
    /// Destination host.
    pub to: NodeId,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -> {}", self.uid, self.from, self.to)
    }
}

/// A batch of planned moves, heaviest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The moves, in execution order.
    pub moves: Vec<Move>,
}

impl MigrationPlan {
    /// Whether the plan contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of planned moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }
}

impl fmt::Display for MigrationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.moves.is_empty() {
            return write!(f, "migration plan: balanced, no moves");
        }
        writeln!(f, "migration plan ({} moves):", self.moves.len())?;
        for mv in &self.moves {
            writeln!(f, "  {mv}")?;
        }
        Ok(())
    }
}

/// What executing a [`MigrationPlan`] accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Moves in the plan.
    pub planned: usize,
    /// Moves that committed.
    pub moved: Vec<Move>,
    /// Moves refused because the object was in use, still pending after
    /// the retry rounds — rerun the rebalancer later.
    pub busy: Vec<Move>,
    /// Moves that failed outright (e.g. unreachable state source).
    pub failed: Vec<Move>,
}

impl fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rebalance: planned={} moved={} busy={} failed={}",
            self.planned,
            self.moved.len(),
            self.busy.len(),
            self.failed.len()
        )
    }
}

/// Maximum moves per plan (bounds disruption per round).
const MAX_MOVES: usize = 8;
/// Busy-retry sweeps over the remaining moves during execution.
const RETRY_ROUNDS: usize = 3;
/// Planning stops once the most- and least-loaded nodes' scalar loads are
/// within this fraction of each other.
const TOLERANCE: f64 = 0.10;

/// The stats-driven rebalancer: [`Rebalancer::rebalance`] plans and
/// executes one bounded batch of moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rebalancer;

impl Rebalancer {
    /// Collects per-object load statistics, sorted by UID. Only objects
    /// known to both databases appear; state bytes come from the first
    /// reachable replica host.
    pub(crate) fn object_stats(&self, m: &Membership) -> Vec<ObjectStat> {
        let sys = m.system();
        let naming = sys.naming();
        let mut stats = Vec::new();
        for uid in naming.server_db.uids() {
            let Some(entry) = naming.state_db.entry(uid) else {
                continue;
            };
            let mut hosts = entry.stores.to_vec();
            hosts.sort_unstable();
            let bytes = hosts
                .iter()
                .find_map(|&h| {
                    sys.stores()
                        .with(h, |s| s.read(uid).map(|st| st.wire_size() as u64).ok())
                        .ok()
                        .flatten()
                })
                .unwrap_or(0);
            stats.push(ObjectStat {
                uid,
                uses: naming.server_db.lifetime_uses(uid),
                bytes,
                hosts,
            });
        }
        stats
    }

    /// Aggregates object stats into per-node loads over `nodes` (replicas
    /// on other nodes are ignored — they are not movable this round).
    pub(crate) fn node_loads(
        &self,
        objects: &[ObjectStat],
        nodes: &[NodeId],
    ) -> BTreeMap<NodeId, NodeLoadStat> {
        let mut loads: BTreeMap<NodeId, NodeLoadStat> = nodes
            .iter()
            .map(|&n| (n, NodeLoadStat::default()))
            .collect();
        for obj in objects {
            for host in &obj.hosts {
                if let Some(load) = loads.get_mut(host) {
                    load.uses += obj.uses;
                    load.bytes += obj.bytes;
                    load.objects += 1;
                }
            }
        }
        loads
    }

    /// Plans a bounded batch of moves across the currently eligible nodes
    /// plus those still draining out (sources only). Deterministic: same
    /// world state, same plan.
    pub fn plan(&self, m: &Membership) -> MigrationPlan {
        let mut objects = self.object_stats(m);
        // Participating nodes: every eligible target. Sources are the same
        // set — a draining node is handled by `drain_node`, not here.
        let sys = m.system();
        let mut nodes: Vec<NodeId> = sys
            .stores()
            .store_nodes()
            .into_iter()
            .filter(|&n| m.is_eligible(n))
            .collect();
        nodes.sort_unstable();
        if nodes.len() < 2 {
            return MigrationPlan::default();
        }
        let mut loads = self.node_loads(&objects, &nodes);

        // Normalizing totals. A world with no recorded uses (or bytes)
        // weighs every replica equally in that dimension.
        let total_uses: u64 = objects.iter().map(|o| o.uses.max(1)).sum::<u64>();
        let total_bytes: u64 = objects.iter().map(|o| o.bytes.max(1)).sum::<u64>();
        let frac = |load: &NodeLoadStat, objs: usize| -> f64 {
            let u = load.uses.max(objs as u64) as f64 / total_uses.max(1) as f64;
            let b = load.bytes.max(objs as u64) as f64 / total_bytes.max(1) as f64;
            u.max(b)
        };
        let obj_frac = |o: &ObjectStat| -> f64 {
            let u = o.uses.max(1) as f64 / total_uses.max(1) as f64;
            let b = o.bytes.max(1) as f64 / total_bytes.max(1) as f64;
            u.max(b)
        };

        let mut plan = MigrationPlan::default();
        for _ in 0..MAX_MOVES {
            // Most- and least-loaded nodes; node-id tie-breaks keep the
            // scan deterministic under equal loads.
            let scalar: BTreeMap<NodeId, f64> = loads
                .iter()
                .map(|(&n, l)| (n, frac(l, l.objects)))
                .collect();
            let Some((&most, &hi)) = scalar
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            else {
                break;
            };
            let Some((&least, &lo)) = scalar
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
            else {
                break;
            };
            if hi - lo <= TOLERANCE {
                break;
            }
            // Heaviest replica on `most` that `least` does not already
            // host and whose weight fits inside the gap (avoids
            // ping-ponging one huge object); fall back to the lightest
            // movable one.
            let gap = hi - lo;
            let mut movable: Vec<(usize, f64)> = objects
                .iter()
                .enumerate()
                .filter(|(_, o)| o.hosts.contains(&most) && !o.hosts.contains(&least))
                .map(|(i, o)| (i, obj_frac(o)))
                .collect();
            movable.sort_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then(objects[a.0].uid.cmp(&objects[b.0].uid))
            });
            let Some((idx, _)) = movable
                .iter()
                .find(|&&(_, w)| w <= gap)
                .or(movable.last())
                .copied()
            else {
                break;
            };
            let obj = &mut objects[idx];
            plan.moves.push(Move {
                uid: obj.uid,
                from: most,
                to: least,
            });
            // Update the simulated placement so the next iteration plans
            // against the post-move world.
            obj.hosts.retain(|&h| h != most);
            obj.hosts.push(least);
            obj.hosts.sort_unstable();
            let (uses, bytes) = (obj.uses, obj.bytes);
            if let Some(l) = loads.get_mut(&most) {
                l.uses -= uses;
                l.bytes -= bytes;
                l.objects -= 1;
            }
            if let Some(l) = loads.get_mut(&least) {
                l.uses += uses;
                l.bytes += bytes;
                l.objects += 1;
            }
        }
        plan
    }

    /// Executes a plan's moves in order, retrying busy moves for a bounded
    /// number of sweeps.
    pub fn execute(&self, m: &Membership, plan: &MigrationPlan) -> RebalanceReport {
        let mut report = RebalanceReport {
            planned: plan.moves.len(),
            ..RebalanceReport::default()
        };
        let mut pending: Vec<Move> = plan.moves.clone();
        for _ in 0..RETRY_ROUNDS {
            if pending.is_empty() {
                break;
            }
            let mut still_busy = Vec::new();
            for mv in pending {
                match m.migrate(mv.uid, mv.from, mv.to) {
                    Ok(()) => report.moved.push(mv),
                    Err(MigrateError::Busy(_)) => still_busy.push(mv),
                    Err(MigrateError::AlreadyHosted { .. }) => {
                        // A concurrent drain round already moved it — the
                        // goal state holds, count it as done.
                        report.moved.push(mv);
                    }
                    Err(_) => report.failed.push(mv),
                }
            }
            pending = still_busy;
        }
        report.busy = pending;
        report
    }

    /// Plans and executes in one call.
    pub fn rebalance(&self, m: &Membership) -> RebalanceReport {
        let plan = self.plan(m);
        self.execute(m, &plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Membership;
    use groupview_replication::{Counter, CounterOp, System};

    fn world(seed: u64) -> (System, Membership, Vec<NodeId>) {
        let sys = System::builder(seed).nodes(6).build();
        let m = Membership::new(&sys);
        let n = sys.sim().nodes();
        (sys, m, n)
    }

    #[test]
    fn empty_world_plans_nothing() {
        let (_sys, m, _n) = world(21);
        let plan = Rebalancer.plan(&m);
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "migration plan: balanced, no moves");
    }

    #[test]
    fn skewed_world_spreads_onto_fresh_node() {
        let (sys, m, n) = world(22);
        // Six single-replica objects all crammed onto n1 (+ n2 spares).
        let mut uids = Vec::new();
        for i in 0..6i64 {
            let uid = sys.create_typed(Counter::new(i), &[n[1]], &[n[1]]).unwrap();
            uids.push(uid);
        }
        let fresh = m.add_node();
        let reb = Rebalancer;
        let plan = reb.plan(&m);
        assert!(!plan.is_empty(), "skew must produce moves");
        assert!(plan.moves.iter().all(|mv| mv.from == n[1]));
        assert!(plan.moves.iter().any(|mv| mv.to == fresh));

        let report = reb.execute(&m, &plan);
        assert_eq!(report.moved.len(), report.planned, "{report}");
        assert!(report.busy.is_empty() && report.failed.is_empty());
        assert!(
            m.replica_count(fresh) >= 2,
            "fresh node absorbed replicas: {}",
            m.replica_count(fresh)
        );
        // Everything still serves.
        let client = sys.client(n[4]);
        for (i, uid) in uids.iter().enumerate() {
            let counter = uid.open(&client);
            let action = client.begin_action();
            counter.activate(action, 1).unwrap();
            assert_eq!(
                counter.invoke(action, CounterOp::Get).unwrap(),
                i as i64,
                "object {i} kept its committed state"
            );
            client.commit(action).unwrap();
        }
    }

    #[test]
    fn hot_object_weighs_more_than_cold_ones() {
        let (sys, m, n) = world(23);
        let hot = sys.create_typed(Counter::new(0), &[n[1]], &[n[1]]).unwrap();
        let cold = sys.create_typed(Counter::new(0), &[n[1]], &[n[1]]).unwrap();
        // Drive traffic at the hot object only.
        let client = sys.client(n[4]);
        let counter = hot.open(&client);
        for _ in 0..5 {
            let action = client.begin_action();
            counter.activate(action, 1).unwrap();
            counter.invoke(action, CounterOp::Add(1)).unwrap();
            client.commit(action).unwrap();
        }
        let reb = Rebalancer;
        let stats = reb.object_stats(&m);
        let hot_stat = stats.iter().find(|s| s.uid == hot.uid()).unwrap();
        let cold_stat = stats.iter().find(|s| s.uid == cold.uid()).unwrap();
        assert!(
            hot_stat.uses > cold_stat.uses,
            "lifetime uses separate hot ({}) from cold ({})",
            hot_stat.uses,
            cold_stat.uses
        );
        assert!(hot_stat.bytes > 0, "state bytes measured");
    }

    #[test]
    fn planning_is_deterministic() {
        let build = || {
            let (sys, m, n) = world(24);
            for i in 0..5 {
                sys.create_typed(Counter::new(i), &[n[1]], &[n[1]]).unwrap();
            }
            m.add_node();
            Rebalancer.plan(&m)
        };
        assert_eq!(build(), build(), "same world, same plan");
    }

    #[test]
    fn balanced_world_stays_put() {
        let (sys, m, n) = world(25);
        for (i, &host) in [n[1], n[2], n[3]].iter().enumerate() {
            sys.create_typed(Counter::new(i as i64), &[host], &[host])
                .unwrap();
        }
        let plan = Rebalancer.plan(&m);
        assert!(plan.is_empty(), "{plan}");
    }
}
