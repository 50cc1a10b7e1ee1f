//! The paper's §5 proposal: a *non-atomic* server name cache.
//!
//! "A useful extension would be based on investigating possible ways of
//! reducing dependence on the need for atomic action support for the naming
//! and binding services. … one way would be to keep available server
//! related data in a 'traditional (non-atomic)' name server, and retain the
//! services of a modified object state server database with atomic action
//! support. It would then become the responsibility of the Object State
//! database to guarantee consistent binding of clients to servers."
//!
//! [`ServerCache`] is that traditional name server: a plain map from UID to
//! candidate server nodes, read and updated **without locks, actions, or
//! undo** — updates apply immediately and survive aborts. Stale or wrong
//! entries cost only probe failures at bind time; *safety* is preserved
//! because the Object State database (still fully transactional) alone
//! decides which stores hold current state. Experiment E13 validates both
//! halves of the conjecture.

use groupview_sim::{IdMap, NetError, NodeId, NodeList, Sim};
use groupview_store::Uid;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

#[derive(Default)]
struct Inner {
    entries: IdMap<Uid, NodeList>,
    reads: u64,
    updates: u64,
}

/// A traditional (non-transactional) name server for `UID → servers` data.
///
/// All operations are immediate and unsynchronised with any atomic action:
/// there is nothing to lock, nothing to undo, and no quiescence check. The
/// cache is best-effort by design.
#[derive(Clone, Default)]
pub struct ServerCache {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for ServerCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerCache")
            .field("entries", &self.inner.borrow().entries.len())
            .finish()
    }
}

impl ServerCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ServerCache::default()
    }

    /// Reads the candidate servers for `uid` (empty if unknown).
    pub fn read(&self, uid: Uid) -> NodeList {
        let mut inner = self.inner.borrow_mut();
        inner.reads += 1;
        inner.entries.get(&uid).cloned().unwrap_or_default()
    }

    /// Replaces the entry for `uid` (seeding at object creation).
    pub fn seed(&self, uid: Uid, servers: impl Into<NodeList>) {
        let mut inner = self.inner.borrow_mut();
        inner.updates += 1;
        inner.entries.insert(uid, servers.into());
    }

    /// Records that `node` failed to answer for `uid`: removed immediately,
    /// no lock, no undo. Returns whether it was listed.
    pub fn record_failure(&self, uid: Uid, node: NodeId) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.updates += 1;
        match inner.entries.get_mut(&uid) {
            Some(list) => {
                let before = list.len();
                list.retain(|&s| s != node);
                before != list.len()
            }
            None => false,
        }
    }

    /// Records that `node` can (again) serve `uid` — e.g. after recovery.
    /// Returns whether it was newly added.
    pub fn record_server(&self, uid: Uid, node: NodeId) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.updates += 1;
        let list = inner.entries.entry(uid).or_default();
        if list.contains(&node) {
            false
        } else {
            list.push(node);
            true
        }
    }

    /// `(reads, updates)` served so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.reads, inner.updates)
    }
}

/// RPC access to a [`ServerCache`] hosted at a node.
///
/// Lookups are a single request/response; updates are **one-way,
/// fire-and-forget** messages — a traditional name server offers no
/// transactional handshake, and a lost update only means a stale cache.
#[derive(Clone, Debug)]
pub struct RemoteServerCache {
    sim: Sim,
    node: NodeId,
    cache: ServerCache,
}

impl RemoteServerCache {
    /// Wraps a cache hosted at `node`.
    pub fn new(sim: &Sim, node: NodeId, cache: ServerCache) -> Self {
        RemoteServerCache {
            sim: sim.clone(),
            node,
            cache,
        }
    }

    /// The hosting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The local handle (co-located callers, seeding, tests).
    pub fn local(&self) -> &ServerCache {
        &self.cache
    }

    /// Remote lookup from `caller`.
    ///
    /// # Errors
    ///
    /// The [`NetError`] that kept the request or its reply from arriving
    /// (the caller may fall back or abort).
    pub(crate) fn read_from(&self, caller: NodeId, uid: Uid) -> Result<NodeList, NetError> {
        let cache = self.cache.clone();
        self.sim
            .rpc(caller, self.node, 32, 96, move || cache.read(uid))
    }

    /// One-way failure report from `caller` (best effort).
    pub(crate) fn report_failure_from(&self, caller: NodeId, uid: Uid, node: NodeId) {
        let cache = self.cache.clone();
        let _ = self.sim.send_oneway(caller, self.node, 40, move || {
            cache.record_failure(uid, node);
        });
    }

    /// One-way availability report from `caller` (best effort).
    pub(crate) fn report_server_from(&self, caller: NodeId, uid: Uid, node: NodeId) {
        let cache = self.cache.clone();
        let _ = self.sim.send_oneway(caller, self.node, 40, move || {
            cache.record_server(uid, node);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::SimConfig;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    #[test]
    fn seed_read_update_cycle() {
        let c = ServerCache::new();
        assert!(c.read(uid()).is_empty());
        c.seed(uid(), vec![n(1), n(2)]);
        assert_eq!(c.read(uid()), vec![n(1), n(2)]);
        assert!(c.record_failure(uid(), n(1)));
        assert!(!c.record_failure(uid(), n(1)));
        assert!(!c.record_failure(Uid::from_raw(9), n(1)));
        assert_eq!(c.read(uid()), vec![n(2)]);
        assert!(c.record_server(uid(), n(3)));
        assert!(!c.record_server(uid(), n(3)));
        assert_eq!(c.read(uid()), vec![n(2), n(3)]);
        let (reads, updates) = c.stats();
        assert_eq!(reads, 4);
        assert_eq!(updates, 6);
    }

    #[test]
    fn updates_are_immediate_and_unprotected() {
        // No locks, no actions: two "concurrent" updaters interleave freely
        // and the last write wins — exactly the non-atomic semantics.
        let c = ServerCache::new();
        c.seed(uid(), vec![n(1)]);
        c.record_server(uid(), n(2));
        c.seed(uid(), vec![n(9)]); // clobbers everything, no conflict
        assert_eq!(c.read(uid()), vec![n(9)]);
    }

    #[test]
    fn remote_lookup_and_oneway_reports() {
        let sim = Sim::new(SimConfig::new(8).with_nodes(3));
        let cache = ServerCache::new();
        cache.seed(uid(), vec![n(1), n(2)]);
        let remote = RemoteServerCache::new(&sim, n(0), cache);
        assert_eq!(remote.node(), n(0));
        assert_eq!(remote.read_from(n(1), uid()), Ok(vec![n(1), n(2)].into()));
        remote.report_failure_from(n(1), uid(), n(1));
        assert_eq!(remote.local().read(uid()), vec![n(2)]);
        remote.report_server_from(n(1), uid(), n(1));
        assert_eq!(remote.local().read(uid()), vec![n(2), n(1)]);
    }

    #[test]
    fn unreachable_cache_reports_the_net_error_and_drops_reports() {
        let sim = Sim::new(SimConfig::new(8).with_nodes(3));
        let cache = ServerCache::new();
        cache.seed(uid(), vec![n(1)]);
        let remote = RemoteServerCache::new(&sim, n(0), cache);
        sim.crash(n(0));
        assert_eq!(remote.read_from(n(1), uid()), Err(NetError::Timeout));
        remote.report_failure_from(n(1), uid(), n(1)); // silently lost
        sim.recover(n(0));
        assert_eq!(remote.local().read(uid()), vec![n(1)], "report was lost");
        // A dead caller learns why: its own node is down.
        sim.crash(n(2));
        assert_eq!(remote.read_from(n(2), uid()), Err(NetError::NodeDown(n(2))));
    }
}
