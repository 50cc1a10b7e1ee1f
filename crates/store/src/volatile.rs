//! Epoch-guarded volatile state.

use groupview_sim::{NodeId, Sim};

/// A cell of volatile (non-stable) per-node state.
///
/// The paper's failure model (§2.1) says all volatile storage is lost when a
/// node crashes. Rather than requiring every subsystem to register crash
/// callbacks, a `Volatile<T>` records the owning node's *crash epoch* at the
/// last write; any access after a newer crash finds the cell stale and
/// resets it to `T::default()`. This makes "forgot to clear volatile state
/// on crash" bugs impossible by construction.
///
/// ```rust
/// use groupview_sim::{Sim, SimConfig, NodeId};
/// use groupview_store::Volatile;
///
/// let sim = Sim::new(SimConfig::new(0).with_nodes(1));
/// let n = NodeId::new(0);
/// let mut cell: Volatile<Vec<u32>> = Volatile::new(&sim, n);
/// cell.get_mut(&sim).push(7);
/// assert_eq!(cell.get(&sim), &[7]);
/// sim.crash(n);
/// sim.recover(n);
/// assert!(cell.get(&sim).is_empty(), "volatile contents lost in crash");
/// ```
#[derive(Debug, Clone)]
pub struct Volatile<T> {
    node: NodeId,
    epoch: u64,
    value: T,
}

impl<T: Default> Volatile<T> {
    /// Creates an empty cell owned by `node`, fresh as of now.
    pub fn new(sim: &Sim, node: NodeId) -> Self {
        Volatile {
            node,
            epoch: sim.epoch(node),
            value: T::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn refresh(&mut self, sim: &Sim) {
        let current = sim.epoch(self.node);
        if self.epoch != current {
            self.epoch = current;
            self.value = T::default();
        }
    }

    /// Reads the value, resetting it first if a crash intervened.
    pub fn get(&mut self, sim: &Sim) -> &T {
        self.refresh(sim);
        &self.value
    }

    /// Mutably accesses the value, resetting it first if a crash intervened.
    pub fn get_mut(&mut self, sim: &Sim) -> &mut T {
        self.refresh(sim);
        &mut self.value
    }

    /// Replaces the value, marking the cell fresh as of now.
    pub fn set(&mut self, sim: &Sim, value: T) {
        self.epoch = sim.epoch(self.node);
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::SimConfig;

    fn world() -> (Sim, NodeId) {
        let sim = Sim::new(SimConfig::new(0).with_nodes(2));
        (sim, NodeId::new(0))
    }

    #[test]
    fn survives_while_node_stays_up() {
        let (sim, n) = world();
        let mut c: Volatile<u32> = Volatile::new(&sim, n);
        *c.get_mut(&sim) = 5;
        assert_eq!(*c.get(&sim), 5);
        assert_eq!(c.epoch, sim.epoch(n));
        assert_eq!(c.node(), n);
    }

    #[test]
    fn lost_on_crash_even_before_recovery_observed() {
        let (sim, n) = world();
        let mut c: Volatile<u32> = Volatile::new(&sim, n);
        *c.get_mut(&sim) = 5;
        sim.crash(n);
        assert_ne!(c.epoch, sim.epoch(n));
        sim.recover(n);
        assert_eq!(*c.get(&sim), 0);
        assert_eq!(c.epoch, sim.epoch(n), "access re-freshens the cell");
    }

    #[test]
    fn crash_of_other_node_is_irrelevant() {
        let (sim, n) = world();
        let mut c: Volatile<u32> = Volatile::new(&sim, n);
        *c.get_mut(&sim) = 5;
        sim.crash(NodeId::new(1));
        assert_eq!(*c.get(&sim), 5);
    }

    #[test]
    fn set_and_take_respect_epochs() {
        let (sim, n) = world();
        let mut c: Volatile<String> = Volatile::new(&sim, n);
        c.set(&sim, "alive".into());
        assert_eq!(c.get(&sim), "alive");
        c.set(&sim, "doomed".into());
        sim.crash(n);
        sim.recover(n);
        assert_eq!(c.get(&sim), "", "value written before crash is gone");
    }

    #[test]
    fn repeated_crashes_each_invalidate() {
        let (sim, n) = world();
        let mut c: Volatile<u32> = Volatile::new(&sim, n);
        for round in 1..4u32 {
            *c.get_mut(&sim) = round;
            sim.crash(n);
            sim.recover(n);
            assert_eq!(*c.get(&sim), 0, "round {round}");
        }
    }
}
