//! The phase taxonomy: where an atomic action spends its time.

use std::fmt;

/// A protocol phase an action passes through. Spans are keyed by
/// `(action, phase)`; the taxonomy mirrors the paper's action lifecycle —
/// bind/probe at activation, lock acquisition and operation invocation
/// (with its multicast leg under active replication), then the two-phase
/// commit (prepare + commit) or the undo walk of an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Activation: selecting/joining servers and binding through the
    /// naming-and-binding service.
    Bind,
    /// The `GetView` state-entry fetch nested inside activation.
    Probe,
    /// Acquiring an object or database lock.
    LockAcquire,
    /// A whole operation invocation against the activated group.
    Invoke,
    /// The replicated leg of an invocation: the ordered multicast (active
    /// replication) or the coordinator's checkpoint fan-out.
    Multicast,
    /// Two-phase commit, phase 1: preparing every participant.
    Prepare,
    /// Two-phase commit, phase 2: forcing the decision and committing.
    Commit,
    /// Abort: running the undo stack.
    Undo,
    /// Typed multi-object transaction: the `Client::begin()` builder
    /// opening its top-level action.
    TxBegin,
    /// Typed multi-object transaction: one `tx.invoke` (auto-activate +
    /// lock + apply under the shared action).
    TxInvoke,
    /// Typed multi-object transaction: `tx.commit()` driving the store 2PC
    /// over the union of touched objects.
    TxCommit,
    /// A whole replica migration: the membership manager's transactional
    /// move of one replica between nodes (directory repoint + staged copy).
    Migrate,
    /// The state-copy leg nested inside a migration: reading the committed
    /// state from a current `St` member and staging it on the target.
    MigrateCopy,
    /// One drain pass over a draining node: migrating every replica it
    /// still hosts somewhere else.
    Drain,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 14] = [
        Phase::Bind,
        Phase::Probe,
        Phase::LockAcquire,
        Phase::Invoke,
        Phase::Multicast,
        Phase::Prepare,
        Phase::Commit,
        Phase::Undo,
        Phase::TxBegin,
        Phase::TxInvoke,
        Phase::TxCommit,
        Phase::Migrate,
        Phase::MigrateCopy,
        Phase::Drain,
    ];

    /// Number of phases (array dimensions in the registry).
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable lowercase name (JSONL/Chrome-trace event names).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Bind => "bind",
            Phase::Probe => "probe",
            Phase::LockAcquire => "lock_acquire",
            Phase::Invoke => "invoke",
            Phase::Multicast => "multicast",
            Phase::Prepare => "prepare",
            Phase::Commit => "commit",
            Phase::Undo => "undo",
            Phase::TxBegin => "tx_begin",
            Phase::TxInvoke => "tx_invoke",
            Phase::TxCommit => "tx_commit",
            Phase::Migrate => "migrate",
            Phase::MigrateCopy => "migrate_copy",
            Phase::Drain => "drain",
        }
    }

    /// Position in [`Phase::ALL`] (the registry's array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::COUNT, 14);
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for n in names {
            assert_eq!(n, n.to_lowercase());
            assert_eq!(
                Phase::ALL
                    .iter()
                    .find(|p| p.name() == n)
                    .unwrap()
                    .to_string(),
                n
            );
        }
    }
}
