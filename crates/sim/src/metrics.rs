//! Cost accounting and network counters.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Accumulated cost of some activity: virtual latency plus message count.
///
/// Costs are attributed to *accounts* (see [`crate::Sim::with_account`])
/// so that when a workload driver interleaves many logical clients, each
/// client's operation latency reflects only the messages *that client* sent
/// or waited for, not the global serialized clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cost {
    /// Total virtual latency charged.
    pub latency: SimDuration,
    /// Number of messages charged (delivered or timed out).
    pub messages: u64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        latency: SimDuration::ZERO,
        messages: 0,
    };

    /// Adds another cost into this one.
    pub fn absorb(&mut self, other: Cost) {
        self.latency += other.latency;
        self.messages += other.messages;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {} msgs", self.latency, self.messages)
    }
}

/// Global network statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetCounters {
    /// Messages successfully delivered.
    pub delivered: u64,
    /// Messages lost to random drops.
    pub dropped: u64,
    /// Messages refused because the destination was down.
    pub to_down_node: u64,
    /// Messages refused because of a partition.
    pub partitioned: u64,
    /// RPC timeouts charged to callers.
    pub timeouts: u64,
    /// Node crashes (both scheduled and scripted).
    pub crashes: u64,
    /// Node recoveries.
    pub recoveries: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
}

impl NetCounters {
    /// Total send attempts, successful or not.
    pub fn attempts(&self) -> u64 {
        self.delivered + self.dropped + self.to_down_node + self.partitioned
    }
}

impl fmt::Display for NetCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivered={} dropped={} to_down={} partitioned={} timeouts={} crashes={} recoveries={}",
            self.delivered,
            self.dropped,
            self.to_down_node,
            self.partitioned,
            self.timeouts,
            self.crashes,
            self.recoveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_absorb_adds_both_fields() {
        let mut a = Cost {
            latency: SimDuration::from_micros(10),
            messages: 2,
        };
        a.absorb(Cost {
            latency: SimDuration::from_micros(5),
            messages: 1,
        });
        assert_eq!(a.latency.as_micros(), 15);
        assert_eq!(a.messages, 3);
    }

    #[test]
    fn counters_attempts_sums_all_outcomes() {
        let c = NetCounters {
            delivered: 5,
            dropped: 2,
            to_down_node: 1,
            partitioned: 1,
            ..Default::default()
        };
        assert_eq!(c.attempts(), 9);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!Cost::ZERO.to_string().is_empty());
        assert!(!NetCounters::default().to_string().is_empty());
    }
}
