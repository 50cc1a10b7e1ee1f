//! Unique identifiers for persistent objects.

use groupview_sim::NodeId;
use std::fmt;

/// A system-wide unique identifier for a persistent object.
///
/// The Object Storage service "assigns unique identifiers (UIDs)" to objects
/// (paper §2.2); the naming service maps user-level string names to UIDs and
/// UIDs to location information. We encode the creating node in the high
/// bits and a per-node counter in the low bits, so generation needs no
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uid(u64);

impl Uid {
    const NODE_SHIFT: u32 = 40;

    /// Reconstructs a UID from its raw representation.
    pub const fn from_raw(raw: u64) -> Self {
        Uid(raw)
    }

    /// The raw representation.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The node that created this UID.
    pub const fn creator(self) -> NodeId {
        NodeId::new((self.0 >> Self::NODE_SHIFT) as u32)
    }

    /// The per-creator sequence number.
    pub(crate) const fn sequence(self) -> u64 {
        self.0 & ((1 << Self::NODE_SHIFT) - 1)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}.{}", self.creator().raw(), self.sequence())
    }
}

/// Generator of [`Uid`]s for one node.
///
/// ```rust
/// use groupview_sim::NodeId;
/// use groupview_store::UidGen;
/// let mut g = UidGen::new(NodeId::new(2));
/// let a = g.next_uid();
/// let b = g.next_uid();
/// assert_ne!(a, b);
/// assert_eq!(a.creator(), NodeId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct UidGen {
    node: NodeId,
    next: u64,
}

impl UidGen {
    /// Creates a generator for `node`.
    pub fn new(node: NodeId) -> Self {
        UidGen { node, next: 1 }
    }

    /// Returns a fresh UID.
    pub fn next_uid(&mut self) -> Uid {
        let seq = self.next;
        self.next += 1;
        Uid(((self.node.raw() as u64) << Uid::NODE_SHIFT) | seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uids_encode_creator_and_sequence() {
        let mut g = UidGen::new(NodeId::new(7));
        let u = g.next_uid();
        assert_eq!(u.creator(), NodeId::new(7));
        assert_eq!(u.sequence(), 1);
        assert_eq!(g.next_uid().sequence(), 2);
        assert_eq!(u.to_string(), "uid:7.1");
    }

    #[test]
    fn uids_from_different_nodes_never_collide() {
        let mut a = UidGen::new(NodeId::new(0));
        let mut b = UidGen::new(NodeId::new(1));
        let mut seen = groupview_sim::IdSet::default();
        for _ in 0..100 {
            assert!(seen.insert(a.next_uid()));
            assert!(seen.insert(b.next_uid()));
        }
    }

    #[test]
    fn raw_roundtrip() {
        let mut g = UidGen::new(NodeId::new(3));
        let u = g.next_uid();
        assert_eq!(Uid::from_raw(u.raw()), u);
    }
}
