//! The per-transaction undo-log arena.
//!
//! Before this arena existed, every write invocation registered its undo as
//! a boxed closure capturing a replica-handle vector and a pinned snapshot —
//! three heap allocations per write op (the ROADMAP's last allocation-debt
//! item). The arena replaces all of that with **one growable buffer per
//! transaction**: the *first* write to an object appends a snapshot entry
//! `(key, tag, pinned servers, snapshot bytes)`, and every subsequent write
//! appends only a `(key, op_id)` pair — amortised zero allocations per op.
//!
//! Ownership rules:
//!
//! * The arena belongs to exactly one transaction record. A nested action's
//!   arena is [absorbed](UndoArena::absorb) into its parent's on nested
//!   commit (parent entries stay *older*, so a later abort restores the
//!   parent's snapshot last and wins).
//! * On abort the arena is replayed **in reverse entry order** through the
//!   world's [`UndoApplier`]; each entry restores the object to its
//!   first-write snapshot and forgets every op id the transaction applied
//!   to it. Restoration is idempotent, so replay order only matters across
//!   entries of the *same* object (reverse order guarantees the oldest
//!   snapshot is installed last).
//! * On top-level commit the arena is simply cleared — nothing to undo.
//!   Clearing keeps the buffers' capacity: the record, arena included, is
//!   recycled for a later action.
//!
//! The arena stores no replica handles: the applier (the replication layer)
//! re-resolves each `(node, pinned incarnation)` pair at abort time and
//! skips replicas whose incarnation moved on, preserving the lineage rules
//! the boxed closures enforced by capturing pinned handles.

/// One first-write snapshot entry (ranges index the arena's flat buffers).
#[derive(Debug, Clone, Copy)]
struct UndoEntry {
    /// Object identity (uid raw).
    key: u64,
    /// Object class (type tag raw) the snapshot decodes as.
    tag: u32,
    /// Range into [`UndoArena::servers`].
    servers: (u32, u32),
    /// Range into [`UndoArena::buf`].
    snap: (u32, u32),
}

/// A transaction's undo log: one snapshot per touched object plus the op
/// ids applied since, all in flat per-transaction buffers.
#[derive(Debug, Default)]
pub struct UndoArena {
    /// Snapshot bytes, all entries concatenated.
    buf: Vec<u8>,
    /// Pinned `(node raw, incarnation)` pairs, all entries concatenated.
    servers: Vec<(u32, u64)>,
    /// `(key, op_id)` pairs for every applied write (batch frames log the
    /// batch id once); replay forgets them from the replicas' dedup slots.
    ops: Vec<(u64, u64)>,
    entries: Vec<UndoEntry>,
}

impl UndoArena {
    /// An empty arena.
    pub fn new() -> Self {
        UndoArena::default()
    }

    /// Whether a snapshot entry for `key` is already logged (the invoke
    /// path snapshots only the first write per object per transaction).
    pub(crate) fn has_entry(&self, key: u64) -> bool {
        // Transactions touch a handful of objects; a scan beats a map and
        // allocates nothing.
        self.entries.iter().any(|e| e.key == key)
    }

    /// Appends a first-write snapshot entry for `key`.
    pub fn push_entry(
        &mut self,
        key: u64,
        tag: u32,
        servers: impl IntoIterator<Item = (u32, u64)>,
        snapshot: &[u8],
    ) {
        let s0 = self.servers.len() as u32;
        self.servers.extend(servers);
        let s1 = self.servers.len() as u32;
        let b0 = self.buf.len() as u32;
        self.buf.extend_from_slice(snapshot);
        let b1 = self.buf.len() as u32;
        self.entries.push(UndoEntry {
            key,
            tag,
            servers: (s0, s1),
            snap: (b0, b1),
        });
    }

    /// Records one applied (possibly batch) operation id against `key`.
    pub fn push_op(&mut self, key: u64, op_id: u64) {
        self.ops.push((key, op_id));
    }

    /// Number of distinct objects with a snapshot entry.
    pub fn object_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of logged applied-op records.
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is logged at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.ops.is_empty()
    }

    /// Discards everything (top-level commit).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.servers.clear();
        self.ops.clear();
        self.entries.clear();
    }

    /// Merges `child` into `self` (nested commit): child entries append
    /// *after* the parent's, so reverse replay restores the parent's older
    /// snapshots last.
    pub fn absorb(&mut self, child: &UndoArena) {
        let sbase = self.servers.len() as u32;
        let bbase = self.buf.len() as u32;
        self.servers.extend_from_slice(&child.servers);
        self.buf.extend_from_slice(&child.buf);
        self.ops.extend_from_slice(&child.ops);
        for e in &child.entries {
            self.entries.push(UndoEntry {
                key: e.key,
                tag: e.tag,
                servers: (e.servers.0 + sbase, e.servers.1 + sbase),
                snap: (e.snap.0 + bbase, e.snap.1 + bbase),
            });
        }
    }

    /// Replays every entry in reverse order through `applier`, handing each
    /// its pinned servers, the op ids applied to that object, and the
    /// snapshot bytes. `scratch` collects per-entry op ids (reused across
    /// entries so replay allocates at most once).
    pub fn replay(&self, applier: &dyn UndoApplier, scratch: &mut Vec<u64>) {
        for e in self.entries.iter().rev() {
            scratch.clear();
            scratch.extend(
                self.ops
                    .iter()
                    .filter(|&&(k, _)| k == e.key)
                    .map(|&(_, op)| op),
            );
            let servers = &self.servers[e.servers.0 as usize..e.servers.1 as usize];
            let snap = &self.buf[e.snap.0 as usize..e.snap.1 as usize];
            applier.undo(e.key, e.tag, servers, scratch, snap);
        }
    }
}

/// Restores one object from an undo-log entry. Implemented by the
/// replication layer (which owns the replica registry); the actions crate
/// stays ignorant of object representation.
pub trait UndoApplier {
    /// Restore object `key` (class `tag`) to `snapshot` on every listed
    /// `(node, pinned incarnation)` replica still on that incarnation,
    /// forgetting `op_ids` from the replicas' dedup state.
    fn undo(&self, key: u64, tag: u32, servers: &[(u32, u64)], op_ids: &[u64], snapshot: &[u8]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    type UndoRecord = (u64, u32, Vec<(u32, u64)>, Vec<u64>, Vec<u8>);

    #[derive(Default)]
    struct LogApplier {
        log: RefCell<Vec<UndoRecord>>,
    }

    impl UndoApplier for LogApplier {
        fn undo(&self, key: u64, tag: u32, servers: &[(u32, u64)], op_ids: &[u64], snap: &[u8]) {
            self.log.borrow_mut().push((
                key,
                tag,
                servers.to_vec(),
                op_ids.to_vec(),
                snap.to_vec(),
            ));
        }
    }

    #[test]
    fn entries_replay_in_reverse_with_their_ops() {
        let mut arena = UndoArena::new();
        assert!(arena.is_empty());
        arena.push_entry(1, 3, [(10, 1), (11, 2)], b"aaa");
        arena.push_op(1, 100);
        arena.push_entry(2, 3, [(10, 1)], b"bb");
        arena.push_op(2, 101);
        arena.push_op(1, 102);
        assert_eq!(arena.object_count(), 2);
        assert_eq!(arena.op_count(), 3);
        assert!(arena.has_entry(1) && arena.has_entry(2) && !arena.has_entry(3));

        let applier = LogApplier::default();
        let mut scratch = Vec::new();
        arena.replay(&applier, &mut scratch);
        let log = applier.log.borrow();
        assert_eq!(log.len(), 2);
        // Reverse order: object 2 first, then object 1.
        assert_eq!(log[0].0, 2);
        assert_eq!(log[0].3, vec![101]);
        assert_eq!(log[0].4, b"bb");
        assert_eq!(log[1].0, 1);
        assert_eq!(log[1].2, vec![(10, 1), (11, 2)]);
        assert_eq!(log[1].3, vec![100, 102]);
        assert_eq!(log[1].4, b"aaa");
    }

    #[test]
    fn absorb_appends_child_after_parent() {
        let mut parent = UndoArena::new();
        parent.push_entry(1, 1, [(1, 1)], b"parent");
        parent.push_op(1, 1);
        let mut child = UndoArena::new();
        child.push_entry(1, 1, [(1, 1)], b"child");
        child.push_entry(2, 1, [(2, 7)], b"other");
        child.push_op(1, 2);
        parent.absorb(&child);
        assert_eq!(parent.object_count(), 3);

        let applier = LogApplier::default();
        parent.replay(&applier, &mut Vec::new());
        let log = applier.log.borrow();
        // Child entries replay first; the parent's older snapshot of object
        // 1 replays last and wins.
        assert_eq!(log[0].0, 2);
        assert_eq!(log[1].4, b"child");
        assert_eq!(log[2].4, b"parent");
        // Both ops on object 1 are forgotten by each of its entries.
        assert_eq!(log[1].3, vec![1, 2]);
        assert_eq!(log[2].3, vec![1, 2]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut arena = UndoArena::new();
        arena.push_entry(1, 1, [(1, 1)], b"x");
        arena.push_op(1, 9);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.object_count(), 0);
        assert_eq!(arena.op_count(), 0);
    }
}
