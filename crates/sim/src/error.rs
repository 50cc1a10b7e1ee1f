//! Network-level failures observable by protocol code, and the [`Cause`]
//! every error of the workspace reports.

use crate::ids::NodeId;
use std::error::Error;
use std::fmt;

/// Why a message or RPC failed.
///
/// Protocol code built on the simulator should treat every variant as "the
/// remote operation may or may not have happened" — exactly the uncertainty a
/// real distributed system faces. The variants exist so that *tests* and
/// *metrics* can distinguish causes; correct protocols must not branch on
/// information a real node could not observe (e.g. `Dropped` vs a crash of
/// the peer after processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetError {
    /// The destination (or source) node is crashed.
    NodeDown(NodeId),
    /// The message was lost by the network.
    Dropped,
    /// Source and destination are in different partitions.
    Partitioned { from: NodeId, to: NodeId },
    /// An RPC did not receive a reply within the configured timeout.
    ///
    /// This is the only failure a real client can observe for a remote call;
    /// the other variants are exposed for instrumentation.
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeDown(n) => write!(f, "node {n} is down"),
            NetError::Dropped => write!(f, "message dropped by the network"),
            NetError::Partitioned { from, to } => {
                write!(f, "network partition between {from} and {to}")
            }
            NetError::Timeout => write!(f, "rpc timed out"),
        }
    }
}

impl Error for NetError {}

impl NetError {
    /// Always [`Cause::Failure`]: the network is what replication masks.
    pub fn cause(&self) -> Cause {
        Cause::Failure
    }
}

/// Why an operation was refused, in the terms the paper's protocols react
/// to. Each error type's `cause()` names the cause of its own variants and
/// passes a wrapped error's cause through unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A live action's lock or use of the object refused the request: the
    /// requester aborts without waiting (§2.3, §4.2.1); a new action may retry.
    Contention,
    /// A crashed or unreachable node, a lost message or a timeout: what
    /// replication masks.
    Failure,
    /// The request itself is wrong: an unknown uid, name or type, a bad
    /// node list, a write a store refused, a broken client contract.
    Invalid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            NetError::NodeDown(NodeId::new(2)).to_string(),
            "node n2 is down"
        );
        assert_eq!(NetError::Timeout.to_string(), "rpc timed out");
        assert!(NetError::Partitioned {
            from: NodeId::new(0),
            to: NodeId::new(1)
        }
        .to_string()
        .contains("partition"));
        assert!(NetError::Dropped.to_string().contains("dropped"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NetError>();
    }
}
