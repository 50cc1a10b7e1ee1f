//! Strict two-phase locking with the paper's type-specific lock modes.
//!
//! Database entries (one per object) are "concurrency controlled
//! independently using locks" (§4.1). Three modes exist:
//!
//! * `Read` — shared; taken by `GetServer`/`GetView`.
//! * `Write` — exclusive; taken by `Insert`/`Remove`/`Increment`/`Decrement`
//!   and by `Include`.
//! * `ExcludeWrite` — the paper's §4.2.1 extension: compatible with `Read`
//!   (but not with `Write` or another `ExcludeWrite`), so that a committing
//!   client can `Exclude` crashed stores from `St(A)` while other clients
//!   still hold read locks on the same entry.
//!
//! Conflicts are handled by **refusal**, not waiting: the requester learns
//! the lock was refused and (per the paper) aborts or retries. With no
//! waiting there is no deadlock.

use crate::action::ActionId;
use groupview_sim::IdMap;
use std::fmt;

/// A lockable resource name.
///
/// `space` partitions key namespaces between subsystems (e.g. server-entry
/// vs state-entry tables); `key` identifies the entry, typically a UID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    space: u16,
    key: u64,
}

impl LockKey {
    /// Creates a key in the given namespace.
    pub const fn new(space: u16, key: u64) -> Self {
        LockKey { space, key }
    }

    /// The namespace of this key.
    pub const fn space(self) -> u16 {
        self.space
    }

    /// The entry identifier within the namespace.
    pub const fn key(self) -> u64 {
        self.key
    }
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock({}:{})", self.space, self.key)
    }
}

/// Lock modes, ordered by strength: `Read < ExcludeWrite < Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared read access.
    Read,
    /// The paper's type-specific mode: may coexist with readers, excludes
    /// writers and other excluders. Used for `Exclude` at commit time.
    ExcludeWrite,
    /// Exclusive access.
    Write,
}

impl LockMode {
    /// Whether a holder in mode `self` permits a *different* action to
    /// acquire mode `other` on the same key.
    ///
    /// The matrix is symmetric:
    ///
    /// | held \ requested | Read | ExcludeWrite | Write |
    /// |---|---|---|---|
    /// | **Read**         | yes  | yes | no |
    /// | **ExcludeWrite** | yes  | no  | no |
    /// | **Write**        | no   | no  | no |
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (Read, Read) | (Read, ExcludeWrite) | (ExcludeWrite, Read)
        )
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Read => write!(f, "read"),
            LockMode::ExcludeWrite => write!(f, "exclude-write"),
            LockMode::Write => write!(f, "write"),
        }
    }
}

/// Provider of the *lock ancestry* of actions.
///
/// A nested action may acquire a lock that conflicts only with locks held by
/// its ancestors (Moss's rules): the ancestor is suspended while the child
/// runs, so no isolation is violated. Nested **top-level** actions have no
/// lock ancestry — they are independent.
pub trait Ancestry {
    /// The lock-parent of `a`: its parent for a nested action, `None` for
    /// top-level and nested-top-level actions.
    fn lock_parent(&self, a: ActionId) -> Option<ActionId>;

    /// Whether `anc` is a (transitive) lock-ancestor of `a`.
    fn is_lock_ancestor(&self, anc: ActionId, a: ActionId) -> bool {
        let mut cur = self.lock_parent(a);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.lock_parent(p);
        }
        false
    }
}

/// A flat ancestry map, convenient for tests and simple callers.
#[derive(Debug, Clone, Default)]
pub struct MapAncestry(pub IdMap<ActionId, ActionId>);

impl Ancestry for MapAncestry {
    fn lock_parent(&self, a: ActionId) -> Option<ActionId> {
        self.0.get(&a).copied()
    }
}

/// The lock table: strict 2PL with refusal on conflict.
///
/// Locks are held until explicitly released ([`LockManager::release_all`])
/// or transferred to a parent action ([`LockManager::transfer`]) — the
/// action manager does this at abort / commit, implementing strictness.
///
/// In steady state the table allocates nothing: a holder list or key list
/// that empties is kept on a spare stack, and the next key or action to
/// need one takes it from there.
#[derive(Debug, Default)]
pub struct LockManager {
    table: IdMap<LockKey, Vec<(ActionId, LockMode)>>,
    /// The keys each action holds. A key is pushed only when the action
    /// becomes a new holder of it, so the holder lists keep it duplicate-free.
    by_action: IdMap<ActionId, Vec<LockKey>>,
    spare_holders: Vec<Vec<(ActionId, LockMode)>>,
    spare_keys: Vec<Vec<LockKey>>,
    refusals: u64,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Attempts to acquire (or upgrade to) `mode` on `key` for `action`.
    ///
    /// Conflicts with locks held by lock-ancestors of `action` are permitted
    /// (lock inheritance); a conflict with any other action refuses the
    /// request and leaves the table unchanged.
    ///
    /// # Errors
    ///
    /// Returns the strongest conflicting mode held by a non-ancestor.
    pub fn acquire(
        &mut self,
        ancestry: &dyn Ancestry,
        action: ActionId,
        key: LockKey,
        mode: LockMode,
    ) -> Result<(), LockMode> {
        let holders = self
            .table
            .entry(key)
            .or_insert_with(|| self.spare_holders.pop().unwrap_or_default());
        let mut own: Option<LockMode> = None;
        let mut conflict: Option<LockMode> = None;
        for &(hid, hmode) in holders.iter() {
            if hid == action {
                own = Some(hmode);
                continue;
            }
            if hmode.compatible(mode) {
                continue;
            }
            if ancestry.is_lock_ancestor(hid, action) {
                continue;
            }
            conflict = Some(conflict.map_or(hmode, |c: LockMode| c.max(hmode)));
        }
        if let Some(held) = conflict {
            self.refusals += 1;
            return Err(held);
        }
        match own {
            Some(existing) if existing >= mode => { /* already strong enough */ }
            Some(_) => {
                for h in holders.iter_mut() {
                    if h.0 == action {
                        h.1 = mode;
                    }
                }
            }
            None => {
                holders.push((action, mode));
                self.keys_mut(action).push(key);
            }
        }
        Ok(())
    }

    /// `action`'s key list, opened from the spare stack if it has none.
    fn keys_mut(&mut self, action: ActionId) -> &mut Vec<LockKey> {
        self.by_action
            .entry(action)
            .or_insert_with(|| self.spare_keys.pop().unwrap_or_default())
    }

    /// Releases every lock held by `action`.
    pub fn release_all(&mut self, action: ActionId) {
        let Some(mut keys) = self.by_action.remove(&action) else {
            return;
        };
        for key in keys.drain(..) {
            if let Some(holders) = self.table.get_mut(&key) {
                holders.retain(|&(hid, _)| hid != action);
                if holders.is_empty() {
                    if let Some(empty) = self.table.remove(&key) {
                        self.spare_holders.push(empty);
                    }
                }
            }
        }
        self.spare_keys.push(keys);
    }

    /// Transfers all of `child`'s locks to `parent` (nested-action commit).
    ///
    /// If the parent already holds a lock on the same key, it keeps the
    /// stronger of the two modes.
    pub fn transfer(&mut self, child: ActionId, parent: ActionId) {
        let Some(mut keys) = self.by_action.remove(&child) else {
            return;
        };
        for key in keys.drain(..) {
            let Some(holders) = self.table.get_mut(&key) else {
                continue;
            };
            let child_mode = holders
                .iter()
                .find(|&&(hid, _)| hid == child)
                .map(|&(_, m)| m);
            let Some(child_mode) = child_mode else {
                continue;
            };
            holders.retain(|&(hid, _)| hid != child);
            if let Some(entry) = holders.iter_mut().find(|(hid, _)| *hid == parent) {
                entry.1 = entry.1.max(child_mode);
            } else {
                holders.push((parent, child_mode));
                self.keys_mut(parent).push(key);
            }
        }
        self.spare_keys.push(keys);
    }

    /// Current holders of `key`, in grant order.
    pub fn holders(&self, key: LockKey) -> Vec<(ActionId, LockMode)> {
        self.table.get(&key).cloned().unwrap_or_default()
    }

    /// Keys currently locked by `action`.
    pub fn keys_of(&self, action: ActionId) -> Vec<LockKey> {
        let mut v = self.by_action.get(&action).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Whether no locks are held at all (invariant I5 after quiescence).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of locked keys.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Total refused requests.
    pub(crate) fn refusals(&self) -> u64 {
        self.refusals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }

    /// The mode `action` holds on `key`, if any.
    fn mode_of(lm: &LockManager, action: ActionId, key: LockKey) -> Option<LockMode> {
        lm.holders(key)
            .into_iter()
            .find(|&(hid, _)| hid == action)
            .map(|(_, m)| m)
    }

    const K: LockKey = LockKey::new(1, 7);
    fn none() -> MapAncestry {
        MapAncestry::default()
    }

    #[test]
    fn compatibility_matrix_matches_the_paper() {
        use LockMode::*;
        assert!(Read.compatible(Read));
        assert!(Read.compatible(ExcludeWrite));
        assert!(ExcludeWrite.compatible(Read));
        assert!(!ExcludeWrite.compatible(ExcludeWrite));
        assert!(!Read.compatible(Write));
        assert!(!Write.compatible(Read));
        assert!(!Write.compatible(Write));
        assert!(!Write.compatible(ExcludeWrite));
        assert!(!ExcludeWrite.compatible(Write));
    }

    #[test]
    fn mode_strength_ordering() {
        assert!(LockMode::Read < LockMode::ExcludeWrite);
        assert!(LockMode::ExcludeWrite < LockMode::Write);
    }

    #[test]
    fn shared_readers_then_writer_refused() {
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(2), K, LockMode::Read).unwrap();
        assert_eq!(
            lm.acquire(&none(), a(3), K, LockMode::Write),
            Err(LockMode::Read)
        );
        assert_eq!(lm.holders(K).len(), 2);
        assert_eq!(lm.refusals(), 1);
    }

    #[test]
    fn exclude_write_coexists_with_readers_only() {
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(2), K, LockMode::ExcludeWrite)
            .unwrap();
        // another reader still fine
        lm.acquire(&none(), a(3), K, LockMode::Read).unwrap();
        // but a second excluder is refused
        assert_eq!(
            lm.acquire(&none(), a(4), K, LockMode::ExcludeWrite),
            Err(LockMode::ExcludeWrite)
        );
        // and a writer is refused
        assert!(lm.acquire(&none(), a(5), K, LockMode::Write).is_err());
    }

    #[test]
    fn read_to_write_promotion_requires_sole_holder() {
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(2), K, LockMode::Read).unwrap();
        // a1 cannot promote while a2 reads...
        assert_eq!(
            lm.acquire(&none(), a(1), K, LockMode::Write),
            Err(LockMode::Read)
        );
        lm.release_all(a(2));
        // ...but can once alone.
        lm.acquire(&none(), a(1), K, LockMode::Write).unwrap();
        assert_eq!(mode_of(&lm, a(1), K), Some(LockMode::Write));
    }

    #[test]
    fn read_to_exclude_write_promotion_coexists_with_readers() {
        // The §4.2.1 scenario: several readers share the entry; one of them
        // needs to Exclude at commit. With the exclude-write type the
        // promotion succeeds.
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(2), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(1), K, LockMode::ExcludeWrite)
            .unwrap();
        assert_eq!(mode_of(&lm, a(1), K), Some(LockMode::ExcludeWrite));
        assert_eq!(mode_of(&lm, a(2), K), Some(LockMode::Read));
    }

    #[test]
    fn downgrade_requests_are_no_ops() {
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Write).unwrap();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        assert_eq!(mode_of(&lm, a(1), K), Some(LockMode::Write));
    }

    #[test]
    fn child_may_acquire_lock_held_by_ancestor() {
        let mut anc = MapAncestry::default();
        anc.0.insert(a(2), a(1)); // a2 nested in a1
        anc.0.insert(a(3), a(2)); // a3 nested in a2
        let mut lm = LockManager::new();
        lm.acquire(&anc, a(1), K, LockMode::Write).unwrap();
        // direct child and grandchild both allowed
        lm.acquire(&anc, a(2), K, LockMode::Write).unwrap();
        lm.acquire(&anc, a(3), K, LockMode::Read).unwrap();
        // unrelated action still refused
        assert!(lm.acquire(&anc, a(9), K, LockMode::Read).is_err());
    }

    #[test]
    fn sibling_is_not_an_ancestor() {
        let mut anc = MapAncestry::default();
        anc.0.insert(a(2), a(1));
        anc.0.insert(a(3), a(1));
        let mut lm = LockManager::new();
        lm.acquire(&anc, a(2), K, LockMode::Write).unwrap();
        assert!(lm.acquire(&anc, a(3), K, LockMode::Write).is_err());
    }

    #[test]
    fn transfer_moves_locks_to_parent_keeping_strongest() {
        let mut lm = LockManager::new();
        let k2 = LockKey::new(1, 8);
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(2), K, LockMode::Read).unwrap(); // shared with parent-to-be
        lm.acquire(&none(), a(2), k2, LockMode::Write).unwrap();
        lm.transfer(a(2), a(1));
        assert_eq!(mode_of(&lm, a(1), K), Some(LockMode::Read));
        assert_eq!(mode_of(&lm, a(1), k2), Some(LockMode::Write));
        assert_eq!(mode_of(&lm, a(2), K), None);
        assert_eq!(lm.keys_of(a(2)), vec![]);
        let mut keys = lm.keys_of(a(1));
        keys.sort_unstable();
        assert_eq!(keys, vec![K, k2]);
    }

    #[test]
    fn transfer_upgrades_parent_mode() {
        // Parent reads; nested child (allowed via ancestry) writes. On the
        // child's commit the parent must end up holding the Write lock.
        let mut anc = MapAncestry::default();
        anc.0.insert(a(2), a(1));
        let mut lm = LockManager::new();
        lm.acquire(&anc, a(1), K, LockMode::Read).unwrap();
        lm.acquire(&anc, a(2), K, LockMode::Write).unwrap();
        lm.transfer(a(2), a(1));
        assert_eq!(mode_of(&lm, a(1), K), Some(LockMode::Write));
        assert_eq!(lm.holders(K).len(), 1);
    }

    #[test]
    fn release_all_empties_table() {
        let mut lm = LockManager::new();
        lm.acquire(&none(), a(1), K, LockMode::Read).unwrap();
        lm.acquire(&none(), a(1), LockKey::new(2, 9), LockMode::Write)
            .unwrap();
        assert_eq!(lm.len(), 2);
        lm.release_all(a(1));
        assert!(lm.is_empty());
    }

    #[test]
    fn lock_key_accessors_and_display() {
        let k = LockKey::new(3, 12);
        assert_eq!(k.space(), 3);
        assert_eq!(k.key(), 12);
        assert_eq!(k.to_string(), "lock(3:12)");
        assert!(LockMode::ExcludeWrite.to_string().contains("exclude"));
    }
}
