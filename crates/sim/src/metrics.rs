//! Network counters.

use std::fmt;

/// Global network statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    fn displays_are_nonempty() {
        assert!(!NetCounters::default().to_string().is_empty());
    }
}
