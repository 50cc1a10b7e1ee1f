//! The one lock-controlled, undo-logged map behind every naming-service
//! table: the Object Server database, the Object State database and the
//! name directory.
//!
//! Entries are "concurrency controlled independently using locks" (§4.1):
//! every operation locks its entry's key through the action service before
//! it looks at the entry. A write lends its operation a [`Slot`]; the first
//! mutation through the slot takes the entry's **before-image**, and a
//! write that changed the entry registers **one** undo record restoring
//! it. An abort of the surrounding action therefore puts every entry back
//! exactly, with no operation writing its own inverse. Table-wide state
//! derived from the entries (the Sv use index) is kept in step by
//! [`Entry::reindex`], forward and on undo alike.

use crate::error::DbError;
use groupview_actions::{ActionId, LockKey, LockMode, TxSystem};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// What a [`Table`] stores: one entry type with its key, lock namespace
/// and table-wide side state.
pub(crate) trait Entry: Clone + 'static {
    /// The owned key an entry is stored under.
    type Key: Ord + Clone + std::borrow::Borrow<Self::Query> + 'static;
    /// The borrowed form an entry is looked up by (`str` for names, so a
    /// lookup allocates nothing).
    type Query: Ord + ToOwned<Owned = Self::Key> + ?Sized;
    /// State kept beside the entries: operation counters and indexes.
    type Side: Default;

    /// The lock protecting `key`'s entry.
    fn lock_key(key: &Self::Query) -> LockKey;

    /// Brings `side` in step after `key`'s entry went from `before` to
    /// `after` (`None`: no entry). Runs for every change, including the
    /// undo of one.
    fn reindex(
        _side: &mut Self::Side,
        _key: &Self::Query,
        _before: Option<&Self>,
        _after: Option<&Self>,
    ) {
    }
}

struct Inner<E: Entry> {
    /// Sorted by key: point lookups stay O(log n) at 10⁵+ entries and key
    /// listings come out sorted without a sort pass.
    entries: BTreeMap<E::Key, E>,
    side: E::Side,
}

/// A map of independently locked entries whose writes are undone by
/// restoring a before-image.
pub(crate) struct Table<E: Entry> {
    tx: TxSystem,
    inner: Rc<RefCell<Inner<E>>>,
}

impl<E: Entry> Clone for Table<E> {
    fn clone(&self) -> Self {
        Table {
            tx: self.tx.clone(),
            inner: Rc::clone(&self.inner),
        }
    }
}

/// A write's view of one entry. Reading is free; the first mutation
/// clones the entry's before-image (or, for [`Slot::set`], keeps the value
/// it replaces).
pub(crate) struct Slot<'a, E: Entry> {
    entries: &'a mut BTreeMap<E::Key, E>,
    key: &'a E::Query,
    /// `Some` once the entry changed: its value before the write.
    before: Option<Option<E>>,
}

impl<E: Entry> Slot<'_, E> {
    /// The entry as it stands.
    pub(crate) fn get(&self) -> Option<&E> {
        self.entries.get(self.key)
    }

    /// The entry for mutation, or `None` (and no change) if there is none.
    pub(crate) fn get_mut(&mut self) -> Option<&mut E> {
        let entry = self.entries.get_mut(self.key)?;
        if self.before.is_none() {
            self.before = Some(Some(entry.clone()));
        }
        Some(entry)
    }

    /// Creates, replaces (`Some`) or deletes (`None`) the entry.
    pub(crate) fn set(&mut self, value: Option<E>) {
        let old = match value {
            Some(e) => self.entries.insert(self.key.to_owned(), e),
            None => self.entries.remove(self.key),
        };
        if self.before.is_none() {
            self.before = Some(old);
        }
    }
}

impl<E: Entry> Table<E> {
    /// An empty table whose locks and undo records belong to `tx`.
    pub(crate) fn new(tx: &TxSystem) -> Self {
        Table {
            tx: tx.clone(),
            inner: Rc::new(RefCell::new(Inner {
                entries: BTreeMap::new(),
                side: E::Side::default(),
            })),
        }
    }

    /// Locks `key`'s entry in `mode` for `action`.
    pub(crate) fn lock(
        &self,
        action: ActionId,
        key: &E::Query,
        mode: LockMode,
    ) -> Result<(), DbError> {
        Ok(self.tx.lock(action, E::lock_key(key), mode)?)
    }

    /// Locks `key` in `mode`, then lends `f` the entry (if any) and the
    /// side state.
    pub(crate) fn read<R>(
        &self,
        action: ActionId,
        key: &E::Query,
        mode: LockMode,
        f: impl FnOnce(Option<&E>, &mut E::Side) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        self.lock(action, key, mode)?;
        let mut inner = self.inner.borrow_mut();
        let Inner { entries, side } = &mut *inner;
        f(entries.get(key), side)
    }

    /// Locks `key` in `mode`, then [`Table::update`]s its entry.
    pub(crate) fn write<R>(
        &self,
        action: ActionId,
        key: &E::Query,
        mode: LockMode,
        f: impl FnOnce(&mut Slot<'_, E>, &mut E::Side) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        self.lock(action, key, mode)?;
        self.update(action, key, f)
    }

    /// Lends `f` a [`Slot`] on `key`'s entry, whose lock `action` already
    /// holds. If `f` changed the entry, the side state is reindexed and one
    /// undo record restoring the before-image is registered with `action`.
    pub(crate) fn update<R>(
        &self,
        action: ActionId,
        key: &E::Query,
        f: impl FnOnce(&mut Slot<'_, E>, &mut E::Side) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let (result, before) = {
            let mut inner = self.inner.borrow_mut();
            let Inner { entries, side } = &mut *inner;
            let mut slot = Slot {
                entries,
                key,
                before: None,
            };
            let result = f(&mut slot, side);
            let Some(before) = slot.before else {
                return result;
            };
            E::reindex(side, key, before.as_ref(), entries.get(key));
            (result, before)
        };
        let table = Rc::clone(&self.inner);
        let owned = key.to_owned();
        self.tx.push_undo(action, move || {
            let key: &E::Query = std::borrow::Borrow::borrow(&owned);
            let mut inner = table.borrow_mut();
            let Inner { entries, side } = &mut *inner;
            let undone = match before {
                Some(e) => entries.insert(owned.clone(), e),
                None => entries.remove(key),
            };
            E::reindex(side, key, undone.as_ref(), entries.get(key));
        })?;
        result
    }

    // ----- unlocked introspection (tests, metrics, daemons) -------------

    /// A copy of `key`'s entry, without locking.
    pub(crate) fn get(&self, key: &E::Query) -> Option<E> {
        self.inner.borrow().entries.get(key).cloned()
    }

    /// Every key, sorted.
    pub(crate) fn keys(&self) -> Vec<E::Key> {
        self.inner.borrow().entries.keys().cloned().collect()
    }

    /// The keys whose entry satisfies `pred`, sorted.
    pub(crate) fn keys_where(&self, pred: impl Fn(&E) -> bool) -> Vec<E::Key> {
        self.inner
            .borrow()
            .entries
            .iter()
            .filter(|(_, e)| pred(e))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// Runs `f` on the side state, without locking.
    pub(crate) fn with_side<R>(&self, f: impl FnOnce(&mut E::Side) -> R) -> R {
        f(&mut self.inner.borrow_mut().side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::{NodeId, Sim, SimConfig};
    use groupview_store::Stores;
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<u32> = const { Cell::new(0) };
    }

    /// An entry that counts its clones, with a side log of every reindex.
    #[derive(Debug, PartialEq)]
    struct Probe(u32);

    impl Clone for Probe {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Probe(self.0)
        }
    }

    impl Entry for Probe {
        type Key = u64;
        type Query = u64;
        type Side = Vec<(Option<u32>, Option<u32>)>;

        fn lock_key(key: &u64) -> LockKey {
            LockKey::new(99, *key)
        }

        fn reindex(side: &mut Self::Side, _: &u64, before: Option<&Self>, after: Option<&Self>) {
            side.push((before.map(|p| p.0), after.map(|p| p.0)));
        }
    }

    fn world() -> (Sim, TxSystem, Table<Probe>) {
        let sim = Sim::new(SimConfig::new(5).with_nodes(2));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let table = Table::new(&tx);
        (sim, tx, table)
    }

    fn clones() -> u32 {
        CLONES.with(Cell::get)
    }

    fn bump(slot: &mut Slot<'_, Probe>) {
        if let Some(p) = slot.get_mut() {
            p.0 += 1;
        }
    }

    #[test]
    fn the_before_image_is_taken_on_the_first_mutation_only() {
        let (_, tx, table) = world();
        let a = tx.begin_top(NodeId::new(0));
        table
            .write(a, &1, LockMode::Write, |slot, _| {
                slot.set(Some(Probe(10)));
                Ok(())
            })
            .unwrap();
        tx.commit(a).unwrap();
        let base = clones();

        // A write that only reads clones nothing and reindexes nothing.
        let b = tx.begin_top(NodeId::new(0));
        let seen = table
            .write(b, &1, LockMode::Write, |slot, _| {
                Ok(slot.get().map(|p| p.0))
            })
            .unwrap();
        assert_eq!(seen, Some(10));
        assert_eq!(clones(), base);
        assert_eq!(table.with_side(|s| s.len()), 1);

        // Two mutations in one write: one before-image, one reindex.
        table
            .write(b, &1, LockMode::Write, |slot, _| {
                bump(slot);
                bump(slot);
                Ok(())
            })
            .unwrap();
        assert_eq!(clones(), base + 1);
        assert_eq!(table.with_side(|s| s[1]), (Some(10), Some(12)));

        // Abort restores the before-image and reindexes back.
        tx.abort(b);
        assert_eq!(table.get(&1), Some(Probe(10)));
        assert_eq!(table.with_side(|s| s[2]), (Some(12), Some(10)));
    }

    #[test]
    fn set_creates_and_deletes_and_nested_aborts_restore_each_step() {
        let (_, tx, table) = world();
        let a = tx.begin_top(NodeId::new(0));
        table
            .write(a, &7, LockMode::Write, |slot, _| {
                slot.set(Some(Probe(1)));
                Ok(())
            })
            .unwrap();
        let child = tx.begin_nested(a);
        table
            .write(child, &7, LockMode::Write, |slot, _| {
                slot.set(None);
                Ok(())
            })
            .unwrap();
        table
            .write(child, &8, LockMode::Write, |slot, _| {
                slot.set(Some(Probe(2)));
                Ok(())
            })
            .unwrap();
        assert_eq!(table.keys(), vec![8]);
        tx.abort(child);
        assert_eq!(table.keys(), vec![7], "the child's writes are undone");
        assert_eq!(table.keys_where(|p| p.0 == 1), vec![7]);
        tx.abort(a);
        assert_eq!(table.len(), 0, "the parent's create is undone");
        assert!(tx.locks_empty());
    }
}
