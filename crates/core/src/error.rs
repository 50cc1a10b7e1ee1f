//! Errors of the naming-and-binding service.

use groupview_actions::TxError;
use groupview_sim::{NetError, NodeId};
use groupview_store::Uid;
use std::error::Error;
use std::fmt;

/// Failures of database operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbError {
    /// No entry exists for the object.
    NotFound(Uid),
    /// An entry already exists for the object (creation collision).
    AlreadyExists(Uid),
    /// `Insert` was refused because the object is not quiescent: some
    /// client's use-list counter is non-zero (§4.1.2 — "will only succeed
    /// when there are no clients using A").
    NotQuiescent(Uid),
    /// An object's server or store list is empty (`repeated: None`) or
    /// names a node twice: a group view is a set of at least one node.
    InvalidNodeList {
        /// The node listed twice, if that was the fault.
        repeated: Option<NodeId>,
    },
    /// A transaction-layer failure (most commonly a refused lock).
    Tx(TxError),
    /// The database node could not be reached.
    Net(NetError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NotFound(uid) => write!(f, "no database entry for {uid}"),
            DbError::AlreadyExists(uid) => write!(f, "database entry for {uid} already exists"),
            DbError::NotQuiescent(uid) => write!(f, "object {uid} is not quiescent"),
            DbError::InvalidNodeList { repeated: None } => write!(f, "empty node list"),
            DbError::InvalidNodeList {
                repeated: Some(node),
            } => write!(f, "node list names {node} twice"),
            DbError::Tx(e) => write!(f, "database action failed: {e}"),
            DbError::Net(e) => write!(f, "database unreachable: {e}"),
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Tx(e) => Some(e),
            DbError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TxError> for DbError {
    fn from(e: TxError) -> Self {
        DbError::Tx(e)
    }
}

impl From<NetError> for DbError {
    fn from(e: NetError) -> Self {
        DbError::Net(e)
    }
}

impl DbError {
    /// Whether the failure was a lock conflict (retryable by a new action).
    pub fn is_lock_refused(&self) -> bool {
        matches!(self, DbError::Tx(TxError::LockRefused { .. }))
    }
}

/// Failures of the binding process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The naming service failed (entry missing, unreachable, ...).
    Db(DbError),
    /// No functioning server could be bound.
    NoServers {
        /// How many candidates were probed and found dead.
        probed: u32,
    },
    /// Persistent lock contention on the database entry: the binding action
    /// was refused its locks after retries.
    Contention,
    /// A transaction-layer failure outside the database.
    Tx(TxError),
    /// The binder was built for `BindingScheme::CachedNameServer` but was
    /// never given the cache that scheme reads (`Binder::with_cache`).
    NoServerCache,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Db(e) => write!(f, "binding failed in the naming service: {e}"),
            BindError::NoServers { probed } => {
                write!(
                    f,
                    "no functioning server found ({probed} candidates probed)"
                )
            }
            BindError::Contention => write!(f, "binding gave up after repeated lock refusals"),
            BindError::Tx(e) => write!(f, "binding action failed: {e}"),
            BindError::NoServerCache => {
                write!(
                    f,
                    "the cached-name-server scheme has no server cache attached"
                )
            }
        }
    }
}

impl Error for BindError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BindError::Db(e) => Some(e),
            BindError::Tx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for BindError {
    fn from(e: DbError) -> Self {
        BindError::Db(e)
    }
}

impl From<TxError> for BindError {
    fn from(e: TxError) -> Self {
        BindError::Tx(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_actions::{LockKey, LockMode};

    #[test]
    fn displays_and_sources() {
        let uid = Uid::from_raw(3);
        assert!(DbError::NotFound(uid).to_string().contains("uid:0.3"));
        assert!(DbError::NotQuiescent(uid).to_string().contains("quiescent"));
        let empty = DbError::InvalidNodeList { repeated: None };
        assert!(empty.to_string().contains("empty"));
        let twice = DbError::InvalidNodeList {
            repeated: Some(NodeId::new(4)),
        };
        assert!(twice.to_string().contains("twice"));
        let tx = DbError::from(TxError::LockRefused {
            key: LockKey::new(1, 3),
            requested: LockMode::Write,
            held: LockMode::Read,
        });
        assert!(tx.is_lock_refused());
        assert!(Error::source(&tx).is_some());
        assert!(!DbError::AlreadyExists(uid).is_lock_refused());
        let b: BindError = tx.into();
        assert!(b.to_string().contains("naming service"));
        assert!(BindError::NoServers { probed: 2 }.to_string().contains("2"));
        assert!(BindError::Contention.to_string().contains("lock"));
        assert!(BindError::NoServerCache.to_string().contains("cache"));
    }

    #[test]
    fn net_conversion() {
        let e: DbError = NetError::Timeout.into();
        assert_eq!(e, DbError::Net(NetError::Timeout));
    }
}
