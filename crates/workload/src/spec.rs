//! Workload descriptions.

use groupview_sim::NodeId;
use groupview_store::Uid;

/// Describes a population of client applications for the scenario
/// runner (`groupview-scenario`'s `run_plan_typed`, the workspace's single
/// workload execution engine).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of logical clients.
    pub clients: usize,
    /// Nodes clients run on, assigned round-robin.
    pub client_nodes: Vec<NodeId>,
    /// Objects the workload touches; each action picks one (seeded) at
    /// random.
    pub objects: Vec<Uid>,
    /// Actions each client runs before stopping.
    pub actions_per_client: usize,
    /// Operations invoked inside each action.
    pub ops_per_action: usize,
    /// Operations grouped into one invocation: up to this many ops share
    /// one wire frame (`1`, the default, invokes each op on its own). The
    /// last batch of an action may be short when `ops_per_action` is not a
    /// multiple.
    pub ops_per_batch: usize,
    /// Fraction of actions that are read-only (uses the read-optimised
    /// binding and skips commit-time state copies).
    pub read_fraction: f64,
    /// Desired server replicas per binding (`|Sv'|`).
    pub replicas: usize,
    /// Whether to passivate each object after an action on it finishes (the
    /// paper's normal mode: "objects not in use normally remain in a
    /// passive state"). Off by default so replicas stay warm.
    pub passivate_between_actions: bool,
    /// Transfer mode: every mutating action is a two-object balanced
    /// transfer (withdraw from one account, deposit the same amount into
    /// another) driven through the typed `Tx` surface. Requires at least
    /// two (account) objects; read-only actions stay single-object balance
    /// reads. The account total is conserved at every commit, which the
    /// oracle's conservation check exploits.
    pub transfers: bool,
}

impl WorkloadSpec {
    /// A small default workload over the given objects and client nodes.
    pub fn new(objects: Vec<Uid>, client_nodes: Vec<NodeId>) -> Self {
        WorkloadSpec {
            clients: 4,
            client_nodes,
            objects,
            actions_per_client: 10,
            ops_per_action: 3,
            ops_per_batch: 1,
            read_fraction: 0.0,
            replicas: 2,
            passivate_between_actions: false,
            transfers: false,
        }
    }

    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Sets actions per client.
    pub fn actions_per_client(mut self, n: usize) -> Self {
        self.actions_per_client = n;
        self
    }

    /// Sets operations per action.
    pub fn ops_per_action(mut self, n: usize) -> Self {
        self.ops_per_action = n;
        self
    }

    /// Sets operations per batched invocation (`1` disables batching).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn ops_per_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "ops per batch must be at least 1");
        self.ops_per_batch = n;
        self
    }

    /// Sets the read-only action fraction.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "read fraction must be in [0,1]");
        self.read_fraction = f;
        self
    }

    /// Sets the desired replica count per binding.
    pub fn replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Passivates objects whenever an action on them finishes.
    pub fn passivate_between_actions(mut self) -> Self {
        self.passivate_between_actions = true;
        self
    }

    /// Makes every mutating action a two-object balanced transfer (see
    /// [`WorkloadSpec::transfers`]).
    pub fn transfers(mut self) -> Self {
        self.transfers = true;
        self
    }

    /// Total actions the workload will attempt.
    pub fn total_actions(&self) -> usize {
        self.clients * self.actions_per_client
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let spec = WorkloadSpec::new(vec![Uid::from_raw(1)], vec![NodeId::new(0)])
            .clients(8)
            .actions_per_client(5)
            .ops_per_action(2)
            .ops_per_batch(4)
            .read_fraction(0.5)
            .replicas(3);
        assert_eq!(spec.clients, 8);
        assert_eq!(spec.total_actions(), 40);
        assert_eq!(spec.replicas, 3);
        assert_eq!(spec.read_fraction, 0.5);
        assert_eq!(spec.ops_per_batch, 4);
    }

    #[test]
    #[should_panic(expected = "ops per batch")]
    fn ops_per_batch_validated() {
        let _ = WorkloadSpec::new(vec![], vec![]).ops_per_batch(0);
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn read_fraction_validated() {
        let _ = WorkloadSpec::new(vec![], vec![]).read_fraction(2.0);
    }
}
