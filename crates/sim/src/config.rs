//! Simulation configuration.

use crate::time::SimDuration;

/// Parameters of the simulated network.
///
/// Defaults model a lightly loaded early-90s LAN in spirit: sub-millisecond
/// point-to-point latency, no drops. Experiments override the pieces they
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Minimum one-way message latency.
    pub base_latency: SimDuration,
    /// Uniform jitter added on top of `base_latency` (`0..=jitter`).
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that any individual message is lost.
    pub drop_probability: f64,
    /// How long an RPC caller waits before concluding the call failed.
    pub rpc_timeout: SimDuration,
    /// Cost charged for local stable-storage writes (disk forces).
    pub stable_write: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_latency: SimDuration::from_micros(500),
            jitter: SimDuration::from_micros(200),
            drop_probability: 0.0,
            rpc_timeout: SimDuration::from_millis(20),
            stable_write: SimDuration::from_micros(800),
        }
    }
}

impl NetConfig {
    /// A lossy network dropping each message with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_probability = p;
        self
    }
}

/// Full configuration of a simulation run.
///
/// A run is a pure function of this value: same config (notably the `seed`)
/// ⇒ same trace, same metrics, same outcome.
///
/// ```rust
/// use groupview_sim::{Sim, SimConfig};
/// let cfg = SimConfig::new(7).with_nodes(4).with_trace();
/// let sim = Sim::new(cfg);
/// assert_eq!(sim.num_nodes(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed for the simulation's random number generator.
    pub seed: u64,
    /// Number of nodes created up front (more can be added later).
    pub nodes: usize,
    /// Network model parameters.
    pub net: NetConfig,
    /// Whether to record an event trace. The trace is a ring of the most
    /// recent 65,536 events: once full, the oldest event is discarded for
    /// each new one and the drop is counted (see `Sim::trace_dropped`), so
    /// tracing a soak run cannot exhaust memory.
    pub trace: bool,
}

impl SimConfig {
    /// Creates a configuration with the given RNG seed and defaults.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 0,
            net: NetConfig::default(),
            trace: false,
        }
    }

    /// Sets the number of nodes created at startup.
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Replaces the network model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enables event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let net = NetConfig::default();
        assert!(net.base_latency > SimDuration::ZERO);
        assert_eq!(net.drop_probability, 0.0);
        assert!(net.rpc_timeout > net.base_latency + net.jitter);
    }

    #[test]
    fn builders_compose() {
        let cfg = SimConfig::new(9)
            .with_nodes(5)
            .with_net(NetConfig {
                base_latency: SimDuration::from_micros(100),
                ..NetConfig::default().with_drop_probability(0.25)
            })
            .with_trace();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.nodes, 5);
        assert_eq!(cfg.net.drop_probability, 0.25);
        assert_eq!(cfg.net.base_latency.as_micros(), 100);
        assert!(cfg.trace);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn drop_probability_is_validated() {
        let _ = NetConfig::default().with_drop_probability(1.5);
    }
}
