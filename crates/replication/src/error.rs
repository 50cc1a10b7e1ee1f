//! Errors of the replication layer.

use groupview_actions::{PrepareFault, TxError};
use groupview_core::{BindError, DbError};
use groupview_group::GroupError;
use groupview_sim::Cause;
use groupview_store::Uid;
use std::error::Error;
use std::fmt;

/// Failures of object activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivateError {
    /// Binding to servers failed, or the naming service did (`GetView`, a
    /// name lookup).
    Bind(BindError),
    /// No store in `St` could supply the object's state.
    NoState(Uid),
    /// The stored state's class is not registered at the server node.
    UnknownType(Uid),
}

impl ActivateError {
    /// No reachable state is a failure; an unknown class is invalid.
    pub fn cause(&self) -> Cause {
        match self {
            ActivateError::Bind(e) => e.cause(),
            ActivateError::NoState(_) => Cause::Failure,
            ActivateError::UnknownType(_) => Cause::Invalid,
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
        }
    }
}

impl Error for ActivateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ActivateError::Bind(e) => Some(e),
            _ => None,
        }
    }
}

impl<E: Into<BindError>> From<E> for ActivateError {
    fn from(e: E) -> Self {
        ActivateError::Bind(e.into())
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
    /// Lost replicas are failures; the typed surface's contract violations
    /// ([`InvokeError::NotActivated`], [`InvokeError::MalformedReply`]) are
    /// client bugs, [`Cause::Invalid`].
    pub fn cause(&self) -> Cause {
        match self {
            InvokeError::Tx(e) => e.cause(),
            InvokeError::Group(e) => e.cause(),
            InvokeError::AllReplicasFailed(_)
            | InvokeError::ServerFailed(_)
            | InvokeError::NotLoaded(_) => Cause::Failure,
            InvokeError::NotActivated(_) | InvokeError::MalformedReply(_) => Cause::Invalid,
        }
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

impl<E: Into<TxError>> From<E> for InvokeError {
    fn from(e: E) -> Self {
        InvokeError::Tx(e.into())
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
    /// The cause of the last store's fault, of the exclusion or of the
    /// two-phase commit; no surviving replica is a failure.
    pub fn cause(&self) -> Cause {
        match self {
            CommitError::AllStoresFailed { last, .. } => last.cause(),
            CommitError::Exclude(e) => e.cause(),
            CommitError::Tx(e) => e.cause(),
            CommitError::NoFinalState(_) => Cause::Failure,
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

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::NetError;

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
        let db_down = DbError::Tx(TxError::Net(NetError::Timeout));
        assert_eq!(
            ActivateError::Bind(BindError::NoServers { probed: 2 }).cause(),
            Cause::Failure
        );
        assert_eq!(ActivateError::NoState(uid).cause(), Cause::Failure);
        assert_eq!(
            ActivateError::Bind(BindError::Db(db_down)).cause(),
            Cause::Failure
        );
        assert_eq!(
            ActivateError::Bind(BindError::Contention).cause(),
            Cause::Contention
        );
        let refused = TxError::LockRefused {
            key: groupview_actions::LockKey::new(1, 1),
            requested: groupview_actions::LockMode::Write,
            held: groupview_actions::LockMode::Read,
        };
        assert_eq!(ActivateError::from(refused).cause(), Cause::Contention);
        assert_eq!(
            ActivateError::Bind(BindError::Db(DbError::Tx(refused))).cause(),
            Cause::Contention
        );
    }

    #[test]
    fn commit_error_failure_taxonomy() {
        let uid = Uid::from_raw(4);
        // Crash-caused: stores unreachable, lost final state, net failures.
        assert_eq!(
            CommitError::AllStoresFailed {
                uid,
                last: PrepareFault::Net(NetError::NodeDown(groupview_sim::NodeId::new(1)))
            }
            .cause(),
            Cause::Failure
        );
        assert_eq!(CommitError::NoFinalState(uid).cause(), Cause::Failure);
        assert_eq!(
            CommitError::Tx(TxError::PrepareFailed {
                node: groupview_sim::NodeId::new(2)
            })
            .cause(),
            Cause::Failure
        );
        assert_eq!(
            CommitError::Exclude(DbError::Tx(TxError::Net(NetError::Timeout))).cause(),
            Cause::Failure
        );
        // Contention: refused locks anywhere in the chain.
        let refused = TxError::LockRefused {
            key: groupview_actions::LockKey::new(3, 1),
            requested: groupview_actions::LockMode::Write,
            held: groupview_actions::LockMode::Read,
        };
        assert_eq!(CommitError::Tx(refused).cause(), Cause::Contention);
        assert_eq!(
            CommitError::Exclude(DbError::Tx(refused)).cause(),
            Cause::Contention
        );
        // A locally refused write with no crash is not failure-caused.
        assert_eq!(
            CommitError::AllStoresFailed {
                uid,
                last: PrepareFault::Refused(groupview_sim::NodeId::new(3))
            }
            .cause(),
            Cause::Invalid
        );
    }

    #[test]
    fn conversions() {
        let e: ActivateError = BindError::Contention.into();
        assert_eq!(e, ActivateError::Bind(BindError::Contention));
        let e: ActivateError = DbError::NotFound(Uid::from_raw(1)).into();
        assert!(matches!(e, ActivateError::Bind(BindError::Db(_))));
        let not_active = TxError::NotActive(groupview_actions::ActionId::from_raw(1));
        let e: ActivateError = not_active.into();
        assert_eq!(
            e,
            ActivateError::Bind(BindError::Db(DbError::Tx(not_active))),
            "one way for a TxError into an ActivateError"
        );
        assert!(e.to_string().contains("not active"));
        assert!(Error::source(&e).is_some(), "source chain preserved");
        let e: InvokeError = NetError::Timeout.into();
        assert!(matches!(e, InvokeError::Tx(TxError::Net(_))));
        let g = InvokeError::Group(GroupError::NoLiveMembers(
            groupview_group::GroupId::from_raw(2),
        ));
        assert!(g.to_string().contains("multicast"));
        assert!(Error::source(&g).is_some(), "source chain preserved");
    }
}
