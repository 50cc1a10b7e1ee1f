//! Transaction-layer errors.

use crate::action::ActionId;
use crate::lock::{LockKey, LockMode};
use groupview_sim::{Cause, NetError, NodeId};
use std::error::Error;
use std::fmt;

/// Failures of atomic-action operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// A lock request conflicted with a lock held by an unrelated action.
    ///
    /// The paper's schemes respond to refusal by aborting the requesting
    /// action ("if the lock promotion succeeds, the exclude operation can be
    /// performed, else the client action must abort") — there is no waiting,
    /// hence no deadlock.
    LockRefused {
        /// The contested resource.
        key: LockKey,
        /// The mode that was requested.
        requested: LockMode,
        /// The mode already held by a conflicting action.
        held: LockMode,
    },
    /// The action is not active (already committed/aborted, or unknown).
    NotActive(ActionId),
    /// Two-phase commit failed in the prepare phase; the action aborted.
    PrepareFailed {
        /// The participant node that could not prepare.
        node: NodeId,
    },
    /// The action's coordinator node is down, so it cannot commit.
    CoordinatorDown(NodeId),
    /// A network failure surfaced directly (e.g. the client could not reach
    /// a database node at all).
    Net(NetError),
}

impl TxError {
    /// A refused lock is contention; the rest are failures (an action stops
    /// being active under its client only when a crash or timeout ends it).
    pub fn cause(&self) -> Cause {
        match self {
            TxError::LockRefused { .. } => Cause::Contention,
            TxError::Net(e) => e.cause(),
            TxError::NotActive(_) | TxError::PrepareFailed { .. } | TxError::CoordinatorDown(_) => {
                Cause::Failure
            }
        }
    }
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::LockRefused {
                key,
                requested,
                held,
            } => write!(
                f,
                "lock {requested} on {key} refused (conflicting {held} lock held)"
            ),
            TxError::NotActive(a) => write!(f, "action {a} is not active"),
            TxError::PrepareFailed { node } => {
                write!(
                    f,
                    "two-phase commit: participant on {node} failed to prepare"
                )
            }
            TxError::CoordinatorDown(n) => write!(f, "coordinator node {n} is down"),
            TxError::Net(e) => write!(f, "network failure: {e}"),
        }
    }
}

impl Error for TxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for TxError {
    fn from(e: NetError) -> Self {
        TxError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TxError::LockRefused {
            key: LockKey::new(1, 2),
            requested: LockMode::Write,
            held: LockMode::Read,
        };
        assert!(e.to_string().contains("refused"));
        assert!(TxError::NotActive(ActionId::from_raw(3))
            .to_string()
            .contains("a3"));
        assert!(TxError::PrepareFailed {
            node: NodeId::new(1)
        }
        .to_string()
        .contains("prepare"));
        assert!(TxError::CoordinatorDown(NodeId::new(2))
            .to_string()
            .contains("n2"));
    }

    #[test]
    fn net_conversion() {
        let e: TxError = NetError::Timeout.into();
        assert_eq!(e, TxError::Net(NetError::Timeout));
        assert!(Error::source(&e).is_some());
    }
}
