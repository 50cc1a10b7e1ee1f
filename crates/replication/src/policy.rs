//! The paper's three object replication policies (§2.3(2)).

use std::fmt;

/// How activated replicas of an object process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationPolicy {
    /// §2.3(2)(i): "more than one copy of a passive object is activated on
    /// distinct nodes and all activated copies perform processing." Requires
    /// reliable ordered group communication; masks up to `k−1` replica
    /// failures.
    Active,
    /// §2.3(2)(ii): "only one replica, the coordinator, carries out
    /// processing. The coordinator regularly checkpoints its state to the
    /// remaining replicas, the cohorts." On coordinator failure a cohort is
    /// elected to continue.
    CoordinatorCohort,
    /// §2.3(2)(iii): "only a single copy is activated; the activated copy
    /// regularly checkpoints its state to the object stores ... as a part of
    /// the commit processing, so if the activated copy fails, then the
    /// application must abort the affected atomic action."
    SingleCopyPassive,
}

impl ReplicationPolicy {
    /// All policies, for parameter sweeps.
    pub const ALL: [ReplicationPolicy; 3] = [
        ReplicationPolicy::Active,
        ReplicationPolicy::CoordinatorCohort,
        ReplicationPolicy::SingleCopyPassive,
    ];
}

impl fmt::Display for ReplicationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationPolicy::Active => write!(f, "active"),
            ReplicationPolicy::CoordinatorCohort => write!(f, "coordinator-cohort"),
            ReplicationPolicy::SingleCopyPassive => write!(f, "single-copy-passive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_properties() {
        assert_eq!(ReplicationPolicy::ALL.len(), 3);
        assert_eq!(ReplicationPolicy::Active.to_string(), "active");
    }
}
