//! Group identities and membership views.

use groupview_sim::NodeId;
use std::fmt;

/// Identity of a process group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(u64);

impl GroupId {
    /// Reconstructs a group id from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        GroupId(raw)
    }

    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A numbered membership view of a group.
///
/// Views change when members join, leave, or are detected crashed; the view
/// number increases monotonically. Members are kept in joining order, which
/// also serves as the deterministic delivery order for the total-order
/// multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number.
    pub id: u64,
    /// Current members, in joining order.
    pub members: Vec<NodeId>,
}

impl View {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `node` is in the view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_id_roundtrip() {
        assert_eq!(GroupId::from_raw(4).raw(), 4);
        assert_eq!(GroupId::from_raw(4).to_string(), "g4");
    }

    #[test]
    fn view_membership_queries() {
        let v = View {
            id: 1,
            members: vec![NodeId::new(2), NodeId::new(0)],
        };
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert!(v.contains(NodeId::new(0)));
        assert!(!v.contains(NodeId::new(1)));
        assert_eq!(v.to_string(), "view#1{n2,n0}");
        let empty = View {
            id: 0,
            members: Vec::new(),
        };
        assert!(empty.is_empty());
    }
}
