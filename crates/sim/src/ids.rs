//! Identifiers for the entities participating in a simulation.

use std::collections::{hash_map, hash_set};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher behind every id-keyed table in the workspace: a fixed-seed
/// multiply-rotate (Fx-style) hash, one multiply per integer field.
///
/// Every table keyed through it holds integers the program mints itself
/// (action, object, node, group and transaction ids, lock keys), so
/// SipHash's resistance to crafted collisions buys nothing — and its
/// per-map random keys made iteration order differ between processes.
/// With a fixed seed, two tables built by the same inserts iterate in the
/// same order. **Keys must be program-minted**: never key an [`IdMap`] by
/// bytes that arrive from outside the program.
///
/// The low bits of a product depend only on the low bits of its operands,
/// so [`Hasher::finish`] rotates the well-mixed high bits down to where
/// the table takes its bucket index; the control byte then comes from the
/// middle of the word. The test vectors below pin the function — changing
/// it changes every table's iteration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// The 64-bit Fx multiplier (an odd constant derived from π).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A hash map keyed by program-minted ids (see [`IdHasher`]).
pub type IdMap<K, V> = hash_map::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of program-minted ids (see [`IdHasher`]).
pub type IdSet<K> = hash_set::HashSet<K, BuildHasherDefault<IdHasher>>;

/// Identity of a simulated node (a "workstation" in the paper's model).
///
/// Node ids are dense indices assigned by [`crate::Sim`] in creation order,
/// so they can be used to index per-node tables. The default, `n0`, only
/// fills the unused slots of a [`crate::NodeList`].
///
/// ```rust
/// use groupview_sim::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node, usable for table lookup.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw numeric id.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identity of a logical client application.
///
/// A client is an *application program* in the paper's terminology: it runs
/// atomic actions against persistent objects from some node. Clients are
/// tracked separately from nodes because several clients may run on one node
/// and the Object Server database's *use lists* count clients, not nodes.
///
/// ```rust
/// use groupview_sim::ClientId;
/// assert_eq!(ClientId::new(7).to_string(), "c7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client id.
    pub const fn new(id: u32) -> Self {
        ClientId(id)
    }

    /// The raw numeric id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The dense index of this client, usable for table lookup.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        ClientId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn node_id_roundtrip_and_display() {
        let n = NodeId::new(12);
        assert_eq!(n.index(), 12);
        assert_eq!(n.raw(), 12);
        assert_eq!(format!("{n}"), "n12");
        assert_eq!(NodeId::from(12u32), n);
    }

    #[test]
    fn client_id_roundtrip_and_display() {
        let c = ClientId::new(3);
        assert_eq!(c.raw(), 3);
        assert_eq!(c.index(), 3);
        assert_eq!(format!("{c}"), "c3");
        assert_eq!(ClientId::from(3u32), c);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(ClientId::new(1) < ClientId::new(2));
        let set: IdSet<NodeId> = [NodeId::new(1), NodeId::new(1), NodeId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }

    // The key shapes the workspace hashes, rebuilt here because their
    // crates sit above this one: an action id or a `node << 40 | seq` uid
    // is one `u64`; a lock key is a `u16` namespace and a `u64` entry; a
    // dirty mark is an `(action, uid)` pair.
    #[derive(Hash)]
    struct Id(u64);

    #[derive(Hash)]
    struct LockKey {
        space: u16,
        key: u64,
    }

    fn id_hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The function is a contract: table iteration order (and so any
    /// fingerprint that ever comes to depend on it) is a function of these
    /// values. A change here must be a deliberate, visible diff.
    #[test]
    fn id_hasher_test_vectors() {
        assert_eq!(IdHasher::default().finish(), 0);
        assert_eq!(id_hash(Id(1)), 0xdc9c_882a_5545_f306);
        assert_eq!(id_hash(Id(2)), 0xb939_1054_aa8b_e60d);
        assert_eq!(id_hash(Id(1 << 40 | 1)), 0xdc9c_882a_55ce_1d5a);
        assert_eq!(id_hash(NodeId::new(5)), 0x4f0e_a8d3_a65d_bf22);
        assert_eq!(id_hash(LockKey { space: 3, key: 7 }), 0xdc4f_4437_b641_81d4);
        assert_eq!(id_hash((1u64, 2u64)), 0xffe6_3eaf_21a9_2f99);
        // The byte path: one whole word, then the zero-padded tail.
        let mut h = IdHasher::default();
        h.write(b"groupview!");
        assert_eq!(h.finish(), 0x17ef_b27e_a345_45f4);
        // Narrow integers hash as their value, whatever their width.
        assert_eq!(id_hash(5u8), id_hash(5u64));
        assert_eq!(id_hash(5u16), id_hash(5usize));
    }

    /// No bucket (low 10 bits: where a table of ≥1024 slots takes its
    /// index) and no control-byte class (top 7 bits) holds more than twice
    /// its share of `keys`.
    fn assert_spread(shape: &str, keys: impl Iterator<Item = u64>) {
        let mut buckets = [0u32; 1024];
        let mut classes = [0u32; 128];
        let mut n = 0u32;
        for h in keys {
            buckets[(h & 1023) as usize] += 1;
            classes[(h >> 57) as usize] += 1;
            n += 1;
        }
        let fullest_bucket = *buckets.iter().max().expect("non-empty");
        let fullest_class = *classes.iter().max().expect("non-empty");
        assert!(
            fullest_bucket <= 2 * n / 1024,
            "{shape}: a 1/1024 bucket holds {fullest_bucket} of {n} keys"
        );
        assert!(
            fullest_class <= 2 * n / 128,
            "{shape}: a top-7-bit class holds {fullest_class} of {n} keys"
        );
    }

    #[test]
    fn id_hasher_spreads_the_key_shapes_in_use() {
        const N: u64 = 1_000_000;
        assert_spread("sequential action ids", (1..=N).map(|i| id_hash(Id(i))));
        assert_spread(
            "uids minted by two nodes",
            [0u64, 1]
                .into_iter()
                .flat_map(|node| (1..=N / 2).map(move |seq| id_hash(Id(node << 40 | seq)))),
        );
        assert_spread(
            "lock keys of three namespaces",
            (1..=3u16)
                .flat_map(|space| (1..=N / 3).map(move |key| id_hash(LockKey { space, key }))),
        );
        assert_spread(
            "(action, uid) pairs",
            (1..=N).map(|action| id_hash((action, 3u64 << 40 | (action % 2000 + 1)))),
        );
    }

    /// What `RandomState` could not promise: the same inserts give the same
    /// iteration order, in this process and in the next.
    #[test]
    fn id_maps_built_by_the_same_inserts_iterate_alike() {
        let build = || {
            let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            let mut map: IdMap<u64, u64> = IdMap::default();
            for i in 0..5_000 {
                map.insert(key(i), i);
                if i % 3 == 0 {
                    map.remove(&key(i / 2));
                }
            }
            map
        };
        let (a, b) = (build(), build());
        assert!(a.len() > 1_000);
        assert!(
            a.iter().eq(b.iter()),
            "iteration order is a function of the inserts"
        );
        let set_order = |keys: &[u32]| -> Vec<NodeId> {
            let set: IdSet<NodeId> = keys.iter().map(|&k| NodeId::new(k)).collect();
            set.into_iter().collect()
        };
        assert_eq!(set_order(&[9, 4, 7, 1, 8]), set_order(&[9, 4, 7, 1, 8]));
    }
}
