//! Group-communication errors.
//!
//! Every error type in the workspace has a `Display` naming the failing
//! subject, a `source()` for the error it wraps, and a `cause()`: the
//! [`Cause`] of each of its own variants, decided where the variant is
//! raised, with a wrapped error's cause passed through unchanged. So no
//! caller walks a chain of wrappers to find out whether contention, a
//! failure or an invalid request refused an operation.

use crate::view::GroupId;
use groupview_sim::{Cause, NodeId};
use std::error::Error;
use std::fmt;

/// Failures of group operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// The group id is not registered.
    UnknownGroup(GroupId),
    /// The group currently has no live members to deliver to.
    NoLiveMembers(GroupId),
    /// The sending node is down (driver bug).
    SenderDown(NodeId),
}

impl GroupError {
    /// Always [`Cause::Failure`]: under a client, a group loses its members,
    /// its sender, or itself (a fresh activation replaced the dead one).
    pub fn cause(&self) -> Cause {
        Cause::Failure
    }
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            GroupError::NoLiveMembers(g) => write!(f, "group {g} has no live members"),
            GroupError::SenderDown(n) => write!(f, "sending node {n} is down"),
        }
    }
}

impl Error for GroupError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_subject() {
        assert!(GroupError::UnknownGroup(GroupId::from_raw(3))
            .to_string()
            .contains("g3"));
        assert!(GroupError::NoLiveMembers(GroupId::from_raw(1))
            .to_string()
            .contains("live"));
        assert!(GroupError::SenderDown(NodeId::new(2))
            .to_string()
            .contains("n2"));
    }
}
