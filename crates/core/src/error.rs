//! Errors of the naming-and-binding service.

use groupview_actions::TxError;
use groupview_sim::{Cause, NodeId};
use groupview_store::{StoreError, Uid};
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
    /// An `Exclude` would leave the object with no store: every store of
    /// its `St` missed the copy (§2.3(3)).
    LastStore(Uid),
    /// A transaction-layer failure: a refused lock, a dead action, or the
    /// database node out of reach.
    Tx(TxError),
    /// An object-store access the database operation depends on failed
    /// (a §4.2 refresh writing the fetched state locally).
    Store(StoreError),
}

impl DbError {
    /// A refused lock and a busy use list are contention; an exclusion that
    /// would empty `St` is a failure; the rest are invalid requests.
    pub fn cause(&self) -> Cause {
        match self {
            DbError::NotQuiescent(_) => Cause::Contention,
            DbError::LastStore(_) => Cause::Failure,
            DbError::Tx(e) => e.cause(),
            DbError::Store(e) => e.cause(),
            DbError::NotFound(_) | DbError::AlreadyExists(_) | DbError::InvalidNodeList { .. } => {
                Cause::Invalid
            }
        }
    }
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
            DbError::LastStore(uid) => write!(f, "excluding would leave {uid} with no store"),
            DbError::Tx(e) => write!(f, "database action failed: {e}"),
            DbError::Store(e) => write!(f, "object store access failed: {e}"),
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Tx(e) => Some(e),
            DbError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl<E: Into<TxError>> From<E> for DbError {
    fn from(e: E) -> Self {
        DbError::Tx(e.into())
    }
}

/// Failures of the binding process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The naming service failed (entry missing, a refused lock, a dead
    /// action, unreachable, ...).
    Db(DbError),
    /// No functioning server could be bound.
    NoServers {
        /// How many candidates were probed and found dead.
        probed: u32,
    },
    /// Persistent lock contention on the database entry: the binding action
    /// was refused its locks after retries.
    Contention,
    /// The binder was built for `BindingScheme::CachedNameServer` but was
    /// never given the cache that scheme reads (`Binder::with_cache`).
    NoServerCache,
}

impl BindError {
    /// No live server is a failure and exhausted retries are contention; a
    /// missing cache is an invalid setup.
    pub fn cause(&self) -> Cause {
        match self {
            BindError::Db(e) => e.cause(),
            BindError::NoServers { .. } => Cause::Failure,
            BindError::Contention => Cause::Contention,
            BindError::NoServerCache => Cause::Invalid,
        }
    }
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
            _ => None,
        }
    }
}

impl<E: Into<DbError>> From<E> for BindError {
    fn from(e: E) -> Self {
        BindError::Db(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_actions::{LockKey, LockMode};
    use groupview_sim::NetError;

    #[test]
    fn displays_and_sources() {
        let uid = Uid::from_raw(3);
        assert!(DbError::NotFound(uid).to_string().contains("uid:0.3"));
        assert!(DbError::NotQuiescent(uid).to_string().contains("quiescent"));
        assert!(DbError::LastStore(uid).to_string().contains("no store"));
        let empty = DbError::InvalidNodeList { repeated: None };
        assert!(empty.to_string().contains("empty"));
        let twice = DbError::InvalidNodeList {
            repeated: Some(NodeId::new(4)),
        };
        assert!(twice.to_string().contains("twice"));
        let store = DbError::Store(StoreError::NodeDown(NodeId::new(2)));
        assert!(store.to_string().contains("object store"));
        assert!(Error::source(&store).is_some());
        let tx = DbError::from(TxError::LockRefused {
            key: LockKey::new(1, 3),
            requested: LockMode::Write,
            held: LockMode::Read,
        });
        assert!(Error::source(&tx).is_some());
        let b: BindError = tx.into();
        assert!(b.to_string().contains("naming service"));
        assert!(Error::source(&b).is_some());
        assert!(BindError::NoServers { probed: 2 }.to_string().contains("2"));
        assert!(BindError::Contention.to_string().contains("lock"));
        assert!(BindError::NoServerCache.to_string().contains("cache"));
    }

    #[test]
    fn net_conversion() {
        let e: DbError = NetError::Timeout.into();
        assert_eq!(e, DbError::Tx(TxError::Net(NetError::Timeout)));
        let b: BindError = NetError::Timeout.into();
        assert_eq!(
            b,
            BindError::Db(e),
            "one way for a NetError into a BindError"
        );
    }
}
