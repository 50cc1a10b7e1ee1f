//! Network counters.

use serde::{Deserialize, Serialize};
use std::fmt;

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
        assert!(!NetCounters::default().to_string().is_empty());
    }
}
