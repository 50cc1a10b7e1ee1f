//! Versioned, type-tagged object state snapshots.

use groupview_sim::wire::{Bytes, Codec, FRAME_OVERHEAD_BYTES};
use std::fmt;

/// Commit version of an object state.
///
/// Every successful top-level commit that modified the object bumps its
/// version. Versions let recovery code and tests decide which of two stored
/// states is "the latest committed state" the paper's §3.1 talks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(u64);

impl Version {
    /// The version of a freshly created object.
    pub const INITIAL: Version = Version(0);

    /// Constructs a specific version (mostly for tests).
    pub const fn new(v: u64) -> Self {
        Version(v)
    }

    /// The raw counter.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The version after one more commit.
    #[must_use]
    pub const fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifies the concrete Rust type an object's bytes decode to.
///
/// Object stores hold opaque bytes; the replication layer keeps a registry
/// from `TypeTag` to a decode function (the analogue of Arjuna's C++ class
/// code being available at server nodes, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeTag(u32);

impl TypeTag {
    /// Creates a tag. Applications should use small, stable constants.
    pub const fn new(tag: u32) -> Self {
        TypeTag(tag)
    }

    /// The raw tag.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

/// A snapshot of a persistent object: its encoded state plus metadata.
///
/// This is what object stores keep on stable storage, what activation loads
/// into a server, and what commit processing copies back to the stores in
/// `St(A)`.
///
/// The payload is a reference-counted [`Bytes`]: cloning an `ObjectState`
/// (per cohort checkpoint, per store write-back participant) shares the
/// encoded state instead of copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectState {
    /// Which registered type the bytes decode to.
    pub type_tag: TypeTag,
    /// Commit version of this snapshot.
    pub version: Version,
    /// Encoded object state (shared, immutable).
    pub data: Bytes,
}

impl ObjectState {
    /// The state of a newly created object (version [`Version::INITIAL`]).
    pub fn initial(type_tag: TypeTag, data: impl Into<Bytes>) -> Self {
        ObjectState {
            type_tag,
            version: Version::INITIAL,
            data: data.into(),
        }
    }

    /// Approximate wire size in bytes, used for network cost accounting.
    pub fn wire_size(&self) -> usize {
        self.data.len() + FRAME_OVERHEAD_BYTES
    }
}

/// Wire codec for snapshot frames: `[type_tag: u32 LE][version: u64 LE]`
/// followed by the state bytes. Used by coordinator-cohort checkpointing to
/// push one encoded frame to every cohort; decoding slices the payload out
/// of the incoming frame without copying.
pub struct SnapshotCodec;

/// Size of the snapshot frame header ([`TypeTag`] + [`Version`]).
pub const SNAPSHOT_HEADER_BYTES: usize = 12;

impl Codec for SnapshotCodec {
    type Item = ObjectState;

    fn encode_into(item: &ObjectState, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&item.type_tag.raw().to_le_bytes());
        buf.extend_from_slice(&item.version.raw().to_le_bytes());
        buf.extend_from_slice(&item.data);
    }

    fn decode(bytes: &Bytes) -> Option<ObjectState> {
        let tag = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
        let version = u64::from_le_bytes(bytes.get(4..12)?.try_into().ok()?);
        Some(ObjectState {
            type_tag: TypeTag::new(tag),
            version: Version::new(version),
            data: bytes.slice(SNAPSHOT_HEADER_BYTES..),
        })
    }
}

impl fmt::Display for ObjectState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({} bytes)",
            self.type_tag,
            self.version,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_next() {
        assert!(Version::INITIAL < Version::INITIAL.next());
        assert_eq!(Version::new(4).next().raw(), 5);
        assert_eq!(Version::new(2).to_string(), "v2");
    }

    #[test]
    fn wire_size_tracks_payload() {
        let s = ObjectState::initial(TypeTag::new(1), vec![0; 100]);
        assert!(s.wire_size() >= 100);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn snapshot_codec_roundtrips_and_decodes_zero_copy() {
        use groupview_sim::wire::{self, WireEncoder};
        let enc = WireEncoder::new();
        let state = ObjectState {
            type_tag: TypeTag::new(7),
            version: Version::new(41),
            data: Bytes::from(vec![9u8, 8, 7, 6]),
        };
        let frame = SnapshotCodec::encode(&enc, &state);
        let before = wire::stats();
        let decoded = SnapshotCodec::decode(&frame).expect("well-formed");
        assert_eq!(wire::stats(), before, "decode must not allocate or copy");
        assert_eq!(decoded, state);
        assert_eq!(
            decoded.data.as_slice().as_ptr(),
            frame.as_slice()[SNAPSHOT_HEADER_BYTES..].as_ptr(),
            "payload is a slice of the frame"
        );
        // Truncated frames are rejected.
        assert!(SnapshotCodec::decode(&frame.slice(..11)).is_none());
        // An empty payload is legal.
        let empty = ObjectState::initial(TypeTag::new(1), Vec::new());
        let frame = SnapshotCodec::encode(&enc, &empty);
        assert_eq!(SnapshotCodec::decode(&frame).unwrap().data.len(), 0);
    }
}
