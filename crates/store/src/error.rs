//! Storage errors.

use crate::stable::TxToken;
use crate::uid::Uid;
use groupview_sim::{Cause, NetError, NodeId};
use std::error::Error;
use std::fmt;

/// Failures of object-store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The node has no object store configured.
    NoStore(NodeId),
    /// The node (and therefore its store) is currently crashed.
    NodeDown(NodeId),
    /// No state for the UID is present in the store.
    NotFound(Uid),
    /// A remote store access failed at the network level.
    Net(NetError),
    /// The transaction token is unknown to the intent log.
    TxUnknown(TxToken),
}

impl StoreError {
    /// A crashed or unreachable store is a failure; the rest are requests
    /// the store cannot serve.
    pub fn cause(&self) -> Cause {
        match self {
            StoreError::NodeDown(_) => Cause::Failure,
            StoreError::Net(e) => e.cause(),
            StoreError::NoStore(_) | StoreError::NotFound(_) | StoreError::TxUnknown(_) => {
                Cause::Invalid
            }
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoStore(n) => write!(f, "node {n} has no object store"),
            StoreError::NodeDown(n) => write!(f, "object store on {n} is unavailable (node down)"),
            StoreError::NotFound(uid) => write!(f, "no state for {uid} in this store"),
            StoreError::Net(e) => write!(f, "remote store access failed: {e}"),
            StoreError::TxUnknown(t) => write!(f, "unknown prepared transaction {t}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for StoreError {
    fn from(e: NetError) -> Self {
        StoreError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_subject() {
        assert!(StoreError::NoStore(NodeId::new(1))
            .to_string()
            .contains("n1"));
        assert!(StoreError::NodeDown(NodeId::new(2))
            .to_string()
            .contains("down"));
        assert!(StoreError::Net(NetError::Timeout)
            .to_string()
            .contains("timed out"));
        assert!(StoreError::TxUnknown(TxToken::new(9))
            .to_string()
            .contains("tx:9"));
    }

    #[test]
    fn net_errors_convert_and_expose_source() {
        let e: StoreError = NetError::Dropped.into();
        assert_eq!(e, StoreError::Net(NetError::Dropped));
        assert!(Error::source(&e).is_some());
    }
}
