//! The sharded scenario runner: one [`Scenario`] fanned across N world
//! shards, each verified by its own oracle.
//!
//! A [`ShardedSystem`] owns one complete world per shard; this module
//! slices a scenario's objects round-robin across the shards (each object
//! created UID-aligned with the router, so routing and residence agree),
//! then runs the scenario's full workload/plan/quiesce/verify cycle
//! **inside every shard world concurrently** via
//! [`ShardedSystem::exec_all`]. Faults, clients, and checks are per-world:
//! a shard is an independent failure domain, exactly the paper's model of
//! unrelated object populations.
//!
//! With `shards = 1` the single shard holds every object, skips no UIDs,
//! and executes exactly [`run_scenario`](crate::runner::run_scenario)'s
//! cycle on an identically built world — the run is **bit-for-bit** the
//! single-world run (`tests/sharded_parity.rs` pins metrics and oracle verdicts across
//! seeds). See `docs/SHARDING.md`.

use crate::oracle::ModelKind;
use crate::runner::{run_scenario_in, Scenario, ScenarioReport};
use groupview_obs::MetricsSnapshot;
use groupview_replication::{HashRouter, ShardRouter, ShardedSystem, System};
use groupview_store::Uid;
use std::fmt;
use std::sync::Arc;

/// The verdicts of one `scenario × seed` run across every shard world.
#[derive(Debug)]
pub struct ShardedScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The seed every shard world used.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// One report per shard that held at least one object, in shard
    /// order. Shards left empty by the slice (more shards than objects)
    /// are skipped.
    pub per_shard: Vec<ScenarioReport>,
}

impl ShardedScenarioReport {
    /// Whether every shard's demanded checks passed.
    pub fn passed(&self) -> bool {
        !self.per_shard.is_empty() && self.per_shard.iter().all(ScenarioReport::passed)
    }

    /// Committed actions across all shards.
    pub fn total_commits(&self) -> u64 {
        self.per_shard.iter().map(|r| r.metrics.commits).sum()
    }

    /// Aborted actions across all shards.
    pub fn total_aborts(&self) -> u64 {
        self.per_shard.iter().map(|r| r.metrics.aborts).sum()
    }

    /// The merged metrics snapshot across every shard world, or `None` for
    /// an unobserved run.
    ///
    /// Each shard's snapshot is taken **on its own OS thread** at quiesce
    /// (inside [`run_scenario_in`]), which is the only place the shard's
    /// thread-local wire counters are visible — so the merge here reports
    /// true whole-system wire totals (buffer allocs, pool reuses, bytes
    /// copied), not just shard 0's.
    pub fn merged_obs(&self) -> Option<MetricsSnapshot> {
        self.per_shard
            .iter()
            .filter_map(|r| r.obs.clone())
            .reduce(|mut a, b| {
                a.merge(&b);
                a
            })
    }
}

impl fmt::Display for ShardedScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} seed={} shards={}] commits={} aborts={} {}",
            self.name,
            self.seed,
            self.shards,
            self.total_commits(),
            self.total_aborts(),
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        for r in &self.per_shard {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Runs one scenario under one seed across `shards` world shards (hash
/// routing) and collects every shard's verdict.
///
/// The scenario rides an [`Arc`] because each shard thread needs it for
/// the whole run ([`PlanGenerator`](crate::PlanGenerator) is `Send +
/// Sync`, so a [`Scenario`] ships whole).
///
/// # Panics
///
/// Panics if `shards` is 0 or a shard world fails object creation.
pub fn run_scenario_sharded(
    scenario: Arc<Scenario>,
    seed: u64,
    shards: usize,
) -> ShardedScenarioReport {
    run_scenario_sharded_built(scenario, seed, shards, false)
}

/// [`run_scenario_sharded`] with per-shard observability enabled: every
/// shard world records counters and causal spans, and each shard's wire
/// stats are snapshotted on its own thread so
/// [`ShardedScenarioReport::merged_obs`] reports true aggregates.
pub fn run_scenario_sharded_observed(
    scenario: Arc<Scenario>,
    seed: u64,
    shards: usize,
) -> ShardedScenarioReport {
    run_scenario_sharded_built(scenario, seed, shards, true)
}

fn run_scenario_sharded_built(
    scenario: Arc<Scenario>,
    seed: u64,
    shards: usize,
    observe: bool,
) -> ShardedScenarioReport {
    let name = scenario.name;
    let router: Arc<dyn ShardRouter> = Arc::new(HashRouter::new(shards));
    let mut builder = System::builder(seed)
        .nodes(scenario.nodes)
        .policy(scenario.policy)
        .scheme(scenario.scheme);
    if observe {
        builder = builder.observe();
    }
    let sys = ShardedSystem::launch(builder, Arc::clone(&router));
    let per_shard = sys
        .exec_all(move |world| {
            let shard = world.index();
            // Round-robin object slice: object i lives on shard i % N. The
            // shard skips every UID the router owns elsewhere before each
            // creation, so the object's UID routes home by construction.
            let kinds: Vec<ModelKind> = scenario
                .objects
                .iter()
                .enumerate()
                .filter(|(i, _)| i % shards == shard)
                .map(|(_, &kind)| kind)
                .collect();
            if kinds.is_empty() {
                return None;
            }
            let objects: Vec<(Uid, ModelKind)> = kinds
                .iter()
                .map(|kind| {
                    world
                        .sys()
                        .skip_foreign_uids(|uid| router.route(uid) == shard);
                    let uid = world
                        .sys()
                        .create_object(kind.fresh(), &scenario.server_nodes, &scenario.server_nodes)
                        .expect("object creation on a healthy shard world");
                    (uid, *kind)
                })
                .collect();
            Some(run_scenario_in(&scenario, seed, world.sys(), &objects))
        })
        .into_iter()
        .flatten()
        .collect();
    ShardedScenarioReport {
        name,
        seed,
        shards,
        per_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::runner::Checks;
    use groupview_core::BindingScheme;
    use groupview_replication::ReplicationPolicy;
    use groupview_sim::NodeId;
    use groupview_workload::WorkloadSpec;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn scenario(objects: usize) -> Scenario {
        Scenario {
            name: "sharded/fault_free",
            policy: ReplicationPolicy::Active,
            scheme: BindingScheme::Standard,
            nodes: 7,
            server_nodes: vec![n(1), n(2), n(3)],
            objects: vec![ModelKind::COUNTER; objects],
            workload: WorkloadSpec::new(vec![], vec![n(4), n(5), n(6)])
                .clients(3)
                .actions_per_client(4)
                .ops_per_action(2),
            plan: Box::new(|_| FaultPlan::new()),
            checks: Checks::default(),
        }
    }

    #[test]
    fn every_shard_world_verifies_independently() {
        let report = run_scenario_sharded(Arc::new(scenario(6)), 11, 3);
        assert_eq!(report.per_shard.len(), 3);
        assert!(report.passed(), "{report}");
        assert!(report.total_commits() > 0);
    }

    #[test]
    fn observed_sharded_run_merges_true_wire_aggregates() {
        let observed = run_scenario_sharded_observed(Arc::new(scenario(6)), 11, 3);
        assert!(observed.passed(), "{observed}");
        let merged = observed.merged_obs().expect("observed run carries obs");
        assert_eq!(merged.worlds, 3, "one snapshot per shard world merged");
        // Every shard world moved protocol bytes; the merge must therefore
        // strictly exceed any single shard's thread-local view.
        assert!(merged.wire_bytes_copied > 0);
        for r in &observed.per_shard {
            let solo = r.obs.as_ref().expect("per-shard snapshot");
            assert!(solo.wire_bytes_copied > 0, "shard saw its own wire stats");
            assert!(merged.wire_bytes_copied > solo.wire_bytes_copied);
        }
        assert!(merged.span_count() > 0, "spans recorded across shards");

        // The unobserved runner stays obs-free (parity path untouched).
        let plain = run_scenario_sharded(Arc::new(scenario(6)), 11, 3);
        assert!(plain.merged_obs().is_none());
        assert_eq!(plain.total_commits(), observed.total_commits());
    }

    #[test]
    fn more_shards_than_objects_skips_empty_worlds() {
        let report = run_scenario_sharded(Arc::new(scenario(2)), 11, 4);
        assert_eq!(report.per_shard.len(), 2, "two shards held objects");
        assert!(report.passed(), "{report}");
    }
}
