//! The combined naming-and-binding service ("group view database").
//!
//! The paper's Arjuna implementation realises the Object Server and Object
//! State databases "as a single Arjuna object, referred to as the group view
//! database" (§5). [`NamingService`] is that object: it hosts both databases
//! at a designated node and exposes the remote operations clients and
//! servers invoke over RPC.
//!
//! The paper assumes the service itself is always available (§3.1 — it
//! could be replicated with the very mechanisms it manages). Experiments may
//! still crash its node to observe behaviour; every remote operation then
//! fails with a network error.

use crate::error::DbError;
use crate::server_db::{ObjectServerDb, ServerEntry};
use crate::state_db::{ExcludePolicy, ObjectStateDb, StateEntry};
use groupview_actions::{ActionId, LockMode, TxSystem};
use groupview_sim::{ClientId, NodeId, Sim};
use groupview_store::Uid;
use std::fmt;

/// The naming-and-binding service of the world.
///
/// Cloneable handle. The local databases are public for in-process use by
/// tests and daemons; protocol code running on other nodes must use the
/// `*_from` RPC wrappers, which charge message costs and honour crashes and
/// partitions.
#[derive(Clone)]
pub struct NamingService {
    sim: Sim,
    tx: TxSystem,
    node: NodeId,
    /// The Object Server database (local handle).
    pub server_db: ObjectServerDb,
    /// The Object State database (local handle).
    pub state_db: ObjectStateDb,
}

impl fmt::Debug for NamingService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamingService")
            .field("node", &self.node)
            .field("server_db", &self.server_db)
            .field("state_db", &self.state_db)
            .finish()
    }
}

/// Approximate wire sizes for cost accounting.
const REQ: usize = 48;
const RESP_SMALL: usize = 24;
const RESP_ENTRY: usize = 160;

impl NamingService {
    /// Creates the service hosted at `node`.
    pub fn new(sim: &Sim, tx: &TxSystem, node: NodeId) -> Self {
        NamingService {
            sim: sim.clone(),
            tx: tx.clone(),
            node,
            server_db: ObjectServerDb::new(tx),
            state_db: ObjectStateDb::new(tx),
        }
    }

    /// The node hosting the databases.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The action service backing the databases.
    pub fn tx(&self) -> &TxSystem {
        &self.tx
    }

    /// Registers a new object in both databases (within `action`): server
    /// set `sv` and store set `st`.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidNodeList`] (before touching either database) if
    /// `sv` or `st` is empty or names a node twice. Otherwise propagates
    /// database errors; on error the caller should abort `action`, which
    /// undoes any partial registration.
    pub fn register_object(
        &self,
        action: ActionId,
        uid: Uid,
        sv: Vec<NodeId>,
        st: Vec<NodeId>,
    ) -> Result<(), DbError> {
        check_node_list(&sv)?;
        check_node_list(&st)?;
        self.server_db.create_entry(action, uid, sv)?;
        self.state_db.create_entry(action, uid, st)?;
        Ok(())
    }

    // ----- remote Object Server database operations ----------------------

    /// Remote `GetServer` from `caller` under the given lock mode.
    ///
    /// # Errors
    ///
    /// Database errors, or [`DbError::Net`] if the service is unreachable.
    pub fn get_server_from(
        &self,
        caller: NodeId,
        action: ActionId,
        uid: Uid,
        mode: LockMode,
    ) -> Result<ServerEntry, DbError> {
        let db = self.server_db.clone();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_ENTRY, move || {
                db.get_server_locked(action, uid, mode)
            })
    }

    /// Remote `Insert` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors (including [`DbError::NotQuiescent`]) or
    /// [`DbError::Net`].
    pub fn insert_from(
        &self,
        caller: NodeId,
        action: ActionId,
        uid: Uid,
        host: NodeId,
    ) -> Result<bool, DbError> {
        let db = self.server_db.clone();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_SMALL, move || {
                db.insert(action, uid, host)
            })
    }

    /// Remote `Remove` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors or [`DbError::Net`].
    pub fn remove_from(
        &self,
        caller: NodeId,
        action: ActionId,
        uid: Uid,
        host: NodeId,
    ) -> Result<bool, DbError> {
        let db = self.server_db.clone();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_SMALL, move || {
                db.remove(action, uid, host)
            })
    }

    /// Remote `Increment` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors or [`DbError::Net`].
    pub fn increment_from(
        &self,
        caller: NodeId,
        action: ActionId,
        client: ClientId,
        uid: Uid,
        hosts: &[NodeId],
    ) -> Result<(), DbError> {
        let db = self.server_db.clone();
        let hosts = hosts.to_vec();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_SMALL, move || {
                db.increment(action, client, uid, &hosts)
            })
    }

    /// Remote `Decrement` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors or [`DbError::Net`].
    pub fn decrement_from(
        &self,
        caller: NodeId,
        action: ActionId,
        client: ClientId,
        uid: Uid,
        hosts: &[NodeId],
    ) -> Result<(), DbError> {
        let db = self.server_db.clone();
        let hosts = hosts.to_vec();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_SMALL, move || {
                db.decrement(action, client, uid, &hosts)
            })
    }

    // ----- remote Object State database operations ------------------------

    /// Remote `GetView` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors or [`DbError::Net`].
    pub fn get_view_from(
        &self,
        caller: NodeId,
        action: ActionId,
        uid: Uid,
    ) -> Result<StateEntry, DbError> {
        let db = self.state_db.clone();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_ENTRY, move || {
                db.get_view(action, uid)
            })
    }

    /// Remote `Include` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors or [`DbError::Net`].
    pub fn include_from(
        &self,
        caller: NodeId,
        action: ActionId,
        uid: Uid,
        host: NodeId,
    ) -> Result<bool, DbError> {
        let db = self.state_db.clone();
        self.sim
            .rpc_flat(caller, self.node, REQ, RESP_SMALL, move || {
                db.include(action, uid, host)
            })
    }

    /// Remote `Exclude` from `caller`.
    ///
    /// # Errors
    ///
    /// Database errors (notably lock refusal under
    /// [`ExcludePolicy::PromoteToWrite`]) or [`DbError::Net`].
    pub fn exclude_from(
        &self,
        caller: NodeId,
        action: ActionId,
        batch: &[(Uid, Vec<NodeId>)],
        policy: ExcludePolicy,
    ) -> Result<usize, DbError> {
        let db = self.state_db.clone();
        let batch = batch.to_vec();
        self.sim
            .rpc_flat(caller, self.node, REQ + 32, RESP_SMALL, move || {
                db.exclude(action, &batch, policy)
            })
    }
}

/// Refuses an empty node list or one that names a node twice.
fn check_node_list(nodes: &[NodeId]) -> Result<(), DbError> {
    if nodes.is_empty() {
        return Err(DbError::InvalidNodeList { repeated: None });
    }
    match (1..nodes.len()).find(|&i| nodes[..i].contains(&nodes[i])) {
        Some(i) => Err(DbError::InvalidNodeList {
            repeated: Some(nodes[i]),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::SimConfig;
    use groupview_store::Stores;

    fn world() -> (Sim, TxSystem, NamingService) {
        let sim = Sim::new(SimConfig::new(30).with_nodes(4));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let ns = NamingService::new(&sim, &tx, NodeId::new(0));
        (sim, tx, ns)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn register_and_query_remotely() {
        let (sim, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid, vec![n(1), n(2)], vec![n(2), n(3)])
            .unwrap();
        tx.commit(a).unwrap();

        let before = sim.counters().delivered;
        let b = tx.begin_top(n(1));
        let sv = ns.get_server_from(n(1), b, uid, LockMode::Read).unwrap();
        let st = ns.get_view_from(n(1), b, uid).unwrap();
        tx.commit(b).unwrap();
        assert_eq!(sv.servers, vec![n(1), n(2)]);
        assert_eq!(st.stores, vec![n(2), n(3)]);
        assert_eq!(sim.counters().delivered - before, 4, "2 RPCs over the wire");
        assert_eq!(ns.node(), n(0));
    }

    #[test]
    fn register_is_atomic_under_abort() {
        let (_, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid, vec![n(1)], vec![n(2)]).unwrap();
        tx.abort(a);
        assert!(ns.server_db.entry(uid).is_none());
        assert!(ns.state_db.entry(uid).is_none());
    }

    #[test]
    fn register_refuses_empty_or_repeated_node_lists() {
        let (_, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(n(0));
        let cases = [
            (vec![], vec![n(1)], None),
            (vec![n(1)], vec![], None),
            (vec![n(1), n(2), n(1)], vec![n(1)], Some(n(1))),
            (vec![n(1), n(2)], vec![n(2), n(2)], Some(n(2))),
        ];
        for (sv, st, repeated) in cases {
            assert_eq!(
                ns.register_object(a, uid, sv, st),
                Err(DbError::InvalidNodeList { repeated })
            );
        }
        assert!(ns.server_db.entry(uid).is_none() && ns.state_db.entry(uid).is_none());
        tx.commit(a).unwrap();
        assert!(tx.locks_empty(), "refused before any entry was locked");
    }

    #[test]
    fn colocated_caller_pays_no_messages() {
        let (sim, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid, vec![n(1)], vec![n(1)]).unwrap();
        tx.commit(a).unwrap();
        let before = sim.counters().delivered;
        let b = tx.begin_top(n(0));
        ns.get_server_from(n(0), b, uid, LockMode::Read).unwrap();
        tx.commit(b).unwrap();
        assert_eq!(sim.counters().delivered, before);
    }

    #[test]
    fn unreachable_service_reports_net_error() {
        let (sim, tx, ns) = world();
        sim.crash(n(0));
        let b = tx.begin_top(n(1));
        let err = ns
            .get_server_from(n(1), b, Uid::from_raw(1), LockMode::Read)
            .unwrap_err();
        assert!(matches!(err, DbError::Net(_)));
        tx.abort(b);
    }

    #[test]
    fn remote_updates_roundtrip() {
        let (_, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid, vec![n(1)], vec![n(1), n(2)])
            .unwrap();
        tx.commit(a).unwrap();

        let b = tx.begin_top(n(1));
        ns.insert_from(n(1), b, uid, n(3)).unwrap();
        ns.increment_from(n(1), b, ClientId::new(5), uid, &[n(1)])
            .unwrap();
        tx.commit(b).unwrap();
        let e = ns.server_db.entry(uid).unwrap();
        assert_eq!(e.servers, vec![n(1), n(3)]);
        assert_eq!(e.total_uses(), 1);

        let c = tx.begin_top(n(1));
        ns.decrement_from(n(1), c, ClientId::new(5), uid, &[n(1)])
            .unwrap();
        ns.remove_from(n(1), c, uid, n(3)).unwrap();
        ns.exclude_from(
            n(1),
            c,
            &[(uid, vec![n(2)])],
            ExcludePolicy::ExcludeWriteLock,
        )
        .unwrap();
        ns.include_from(n(1), c, uid, n(2)).unwrap();
        tx.commit(c).unwrap();
        assert_eq!(ns.server_db.entry(uid).unwrap().servers, vec![n(1)]);
        assert_eq!(ns.state_db.entry(uid).unwrap().stores, vec![n(1), n(2)]);
    }
}
