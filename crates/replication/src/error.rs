//! Errors of the replication layer.

use groupview_actions::{PrepareFault, TxError};
use groupview_core::{BindError, DbError};
use groupview_group::GroupError;
use groupview_sim::NetError;
use groupview_store::Uid;
use std::error::Error;
use std::fmt;

/// Failures of object activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivateError {
    /// Binding to servers failed.
    Bind(BindError),
    /// No store in `St` could supply the object's state.
    NoState(Uid),
    /// The stored state's class is not registered at the server node.
    UnknownType(Uid),
    /// A naming-database failure.
    Db(DbError),
}

impl ActivateError {
    /// Whether this failure was caused by node/network failures, as opposed
    /// to ordinary lock contention between live clients (the activation
    /// counterpart of [`InvokeError::is_failure_caused`]).
    pub fn is_failure_caused(&self) -> bool {
        match self {
            ActivateError::Bind(BindError::Contention | BindError::NoServerCache) => false,
            ActivateError::Bind(BindError::Db(db)) | ActivateError::Db(db) => !db.is_lock_refused(),
            ActivateError::Bind(BindError::Tx(tx)) => !matches!(tx, TxError::LockRefused { .. }),
            ActivateError::Bind(BindError::NoServers { .. })
            | ActivateError::NoState(_)
            | ActivateError::UnknownType(_) => true,
        }
    }
}

impl fmt::Display for ActivateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivateError::Bind(e) => write!(f, "activation failed to bind: {e}"),
            ActivateError::NoState(uid) => {
                write!(f, "no store could supply the state of {uid}")
            }
            ActivateError::UnknownType(uid) => {
                write!(f, "no registered class for the stored state of {uid}")
            }
            ActivateError::Db(e) => write!(f, "activation database failure: {e}"),
        }
    }
}

impl Error for ActivateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ActivateError::Bind(e) => Some(e),
            ActivateError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BindError> for ActivateError {
    fn from(e: BindError) -> Self {
        ActivateError::Bind(e)
    }
}

impl From<DbError> for ActivateError {
    fn from(e: DbError) -> Self {
        ActivateError::Db(e)
    }
}

impl From<TxError> for ActivateError {
    fn from(e: TxError) -> Self {
        ActivateError::Db(DbError::Tx(e))
    }
}

/// Failures of operation invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeError {
    /// The object-level lock was refused or the action is dead.
    Tx(TxError),
    /// The group-communication layer refused the multicast, carrying the
    /// concrete failure (unknown group, sender down, no live members) for
    /// diagnostics instead of collapsing everything into
    /// [`InvokeError::AllReplicasFailed`].
    Group(GroupError),
    /// Every bound replica has failed (retry/election genuinely
    /// exhausted); the action must abort.
    AllReplicasFailed(Uid),
    /// The single activated copy failed (single-copy passive policy);
    /// per §2.3(2)(iii) the action must abort.
    ServerFailed(Uid),
    /// A replica exists but holds no loaded state (activation raced a
    /// crash); the action should abort and retry.
    NotLoaded(Uid),
    /// An invoke through no activation the client made for this action: a
    /// typed `Handle` before activating, or a raw invoke through another
    /// action's or client's group (client programming error, not a system
    /// failure).
    NotActivated(Uid),
    /// A typed `Handle` received reply bytes that do not decode as the
    /// class's reply type — a violation of the `ObjectType` codec contract.
    MalformedReply(Uid),
}

impl InvokeError {
    /// Whether this failure was caused by node/replica failures (as opposed
    /// to ordinary lock contention between live clients). Workload metrics
    /// use this to tell "a crash made the action abort" apart from "two
    /// writers raced". Typed-surface contract violations
    /// ([`InvokeError::NotActivated`], [`InvokeError::MalformedReply`]) are
    /// client bugs, not crashes, and count as neither.
    pub fn is_failure_caused(&self) -> bool {
        !matches!(
            self,
            InvokeError::Tx(TxError::LockRefused { .. })
                | InvokeError::NotActivated(_)
                | InvokeError::MalformedReply(_)
        )
    }
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::Tx(e) => write!(f, "invocation failed: {e}"),
            InvokeError::Group(e) => write!(f, "invocation multicast failed: {e}"),
            InvokeError::AllReplicasFailed(uid) => {
                write!(f, "all replicas of {uid} have failed")
            }
            InvokeError::ServerFailed(uid) => write!(f, "the server for {uid} has failed"),
            InvokeError::NotLoaded(uid) => write!(f, "replica of {uid} lost its state"),
            InvokeError::NotActivated(uid) => {
                write!(f, "{uid} was not activated for this action")
            }
            InvokeError::MalformedReply(uid) => {
                write!(
                    f,
                    "reply from {uid} does not decode as its class's reply type"
                )
            }
        }
    }
}

impl Error for InvokeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InvokeError::Tx(e) => Some(e),
            InvokeError::Group(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TxError> for InvokeError {
    fn from(e: TxError) -> Self {
        InvokeError::Tx(e)
    }
}

impl From<GroupError> for InvokeError {
    fn from(e: GroupError) -> Self {
        InvokeError::Group(e)
    }
}

/// Failures of client-action commit (including commit-time write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitError {
    /// Every store in `St` failed the commit-time state copy; nothing can
    /// persist. Carries the source of the *last* store-write failure so
    /// metrics and oracles can attribute the abort (all-stores-down vs a
    /// refused write).
    AllStoresFailed {
        /// The object whose state could not be copied anywhere.
        uid: Uid,
        /// Why the last attempted store failed its prepare.
        last: PrepareFault,
    },
    /// The commit-time `Exclude` could not obtain its lock — per §4.2.1 the
    /// client action must abort.
    Exclude(DbError),
    /// The underlying two-phase commit failed.
    Tx(TxError),
    /// A surviving replica could not supply the final state.
    NoFinalState(Uid),
}

impl CommitError {
    /// Whether this failure was caused by node/store failures, as opposed to
    /// ordinary lock contention between live clients (the commit-time
    /// counterpart of [`InvokeError::is_failure_caused`]). Workload metrics
    /// and the scenario oracle use this to tell "a crash made the commit
    /// fail" apart from "the exclude lock was refused by a concurrent
    /// reader".
    pub fn is_failure_caused(&self) -> bool {
        match self {
            // Every store unreachable is always failure-caused; a refused
            // write with no network failure anywhere is a store-side
            // rejection, not a crash.
            CommitError::AllStoresFailed { last, .. } => last.is_failure_caused(),
            CommitError::NoFinalState(_) => true,
            CommitError::Exclude(e) => !e.is_lock_refused(),
            CommitError::Tx(e) => !matches!(e, TxError::LockRefused { .. }),
        }
    }
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::AllStoresFailed { uid, last } => {
                write!(f, "no store in St({uid}) accepted the new state ({last})")
            }
            CommitError::Exclude(e) => write!(f, "commit-time exclude failed: {e}"),
            CommitError::Tx(e) => write!(f, "commit failed: {e}"),
            CommitError::NoFinalState(uid) => {
                write!(
                    f,
                    "no surviving replica could supply the final state of {uid}"
                )
            }
        }
    }
}

impl Error for CommitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CommitError::Exclude(e) => Some(e),
            CommitError::Tx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TxError> for CommitError {
    fn from(e: TxError) -> Self {
        CommitError::Tx(e)
    }
}

impl From<NetError> for InvokeError {
    fn from(e: NetError) -> Self {
        InvokeError::Tx(TxError::Net(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let uid = Uid::from_raw(4);
        assert!(ActivateError::NoState(uid).to_string().contains("state"));
        assert!(ActivateError::UnknownType(uid)
            .to_string()
            .contains("class"));
        assert!(InvokeError::AllReplicasFailed(uid)
            .to_string()
            .contains("replicas"));
        assert!(InvokeError::ServerFailed(uid)
            .to_string()
            .contains("server"));
        assert!(InvokeError::NotLoaded(uid).to_string().contains("state"));
        assert!(InvokeError::NotActivated(uid)
            .to_string()
            .contains("activated"));
        assert!(InvokeError::MalformedReply(uid)
            .to_string()
            .contains("decode"));
        assert!(!InvokeError::NotActivated(uid).is_failure_caused());
        assert!(!InvokeError::MalformedReply(uid).is_failure_caused());
        assert!(CommitError::AllStoresFailed {
            uid,
            last: PrepareFault::Net(NetError::Timeout)
        }
        .to_string()
        .contains("store"));
        assert!(CommitError::NoFinalState(uid).to_string().contains("final"));
    }

    #[test]
    fn activate_error_failure_taxonomy() {
        let uid = Uid::from_raw(4);
        assert!(ActivateError::Bind(BindError::NoServers { probed: 2 }).is_failure_caused());
        assert!(ActivateError::NoState(uid).is_failure_caused());
        assert!(ActivateError::Db(DbError::Net(NetError::Timeout)).is_failure_caused());
        assert!(!ActivateError::Bind(BindError::Contention).is_failure_caused());
        let refused = TxError::LockRefused {
            key: groupview_actions::LockKey::new(1, 1),
            requested: groupview_actions::LockMode::Write,
            held: groupview_actions::LockMode::Read,
        };
        assert!(!ActivateError::Bind(BindError::Tx(refused)).is_failure_caused());
        assert!(!ActivateError::Db(DbError::Tx(refused)).is_failure_caused());
    }

    #[test]
    fn commit_error_failure_taxonomy() {
        let uid = Uid::from_raw(4);
        // Crash-caused: stores unreachable, lost final state, net failures.
        assert!(CommitError::AllStoresFailed {
            uid,
            last: PrepareFault::Net(NetError::NodeDown(groupview_sim::NodeId::new(1)))
        }
        .is_failure_caused());
        assert!(CommitError::NoFinalState(uid).is_failure_caused());
        assert!(CommitError::Tx(TxError::PrepareFailed {
            node: groupview_sim::NodeId::new(2)
        })
        .is_failure_caused());
        assert!(CommitError::Exclude(DbError::Net(NetError::Timeout)).is_failure_caused());
        // Contention: refused locks anywhere in the chain.
        let refused = TxError::LockRefused {
            key: groupview_actions::LockKey::new(3, 1),
            requested: groupview_actions::LockMode::Write,
            held: groupview_actions::LockMode::Read,
        };
        assert!(!CommitError::Tx(refused).is_failure_caused());
        assert!(!CommitError::Exclude(DbError::Tx(refused)).is_failure_caused());
        // A locally refused write with no crash is not failure-caused.
        assert!(!CommitError::AllStoresFailed {
            uid,
            last: PrepareFault::Refused(groupview_sim::NodeId::new(3))
        }
        .is_failure_caused());
    }

    #[test]
    fn conversions() {
        let e: ActivateError = BindError::Contention.into();
        assert_eq!(e, ActivateError::Bind(BindError::Contention));
        let e: ActivateError = DbError::NotFound(Uid::from_raw(1)).into();
        assert!(matches!(e, ActivateError::Db(_)));
        let e: InvokeError = NetError::Timeout.into();
        assert!(matches!(e, InvokeError::Tx(TxError::Net(_))));
        let g: InvokeError =
            GroupError::NoLiveMembers(groupview_group::GroupId::from_raw(2)).into();
        assert!(matches!(g, InvokeError::Group(_)));
        assert!(g.is_failure_caused());
        assert!(g.to_string().contains("multicast"));
        assert!(Error::source(&g).is_some(), "source chain preserved");
        assert!(
            InvokeError::Tx(TxError::Net(NetError::Timeout)).is_failure_caused(),
            "a lost database RPC is a failure, not contention"
        );
        let refused = InvokeError::Tx(TxError::LockRefused {
            key: groupview_actions::LockKey::new(3, 1),
            requested: groupview_actions::LockMode::Write,
            held: groupview_actions::LockMode::Read,
        });
        assert!(!refused.is_failure_caused(), "contention is not a failure");
        let e: CommitError = TxError::NotActive(groupview_actions::ActionId::from_raw(1)).into();
        assert!(matches!(e, CommitError::Tx(_)));
    }
}
