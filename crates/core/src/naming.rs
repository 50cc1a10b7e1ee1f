//! The combined naming-and-binding service ("group view database").
//!
//! The paper's Arjuna implementation realises the Object Server and Object
//! State databases "as a single Arjuna object, referred to as the group view
//! database" (§5). [`NamingService`] is that object: it hosts both databases
//! and the name directory (§2.2) at a designated node. All three are
//! instances of one lock-controlled table whose writes log a before-image
//! (`table.rs`), so every operation — `GetServer`, `Insert`, `Remove`,
//! `Increment`, `Decrement`, `GetView`, `Include`, `Exclude`, bind, lookup
//! and unbind — is a few lines over one read or write primitive.
//!
//! Callers on other nodes reach the service through one entry point,
//! [`NamingService::remote`]: it runs any operation at the service node as
//! one RPC whose request and reply sizes a [`Cost`] names.
//!
//! The paper assumes the service itself is always available (§3.1 — it
//! could be replicated with the very mechanisms it manages). Experiments may
//! still crash its node to observe behaviour; every remote operation then
//! fails with a network error.

use crate::directory::Directory;
use crate::error::DbError;
use crate::server_db::ObjectServerDb;
use crate::state_db::ObjectStateDb;
use groupview_actions::{ActionId, TxSystem};
use groupview_sim::{NodeId, NodeList, Sim};
use groupview_store::Uid;
use std::fmt;

/// The naming-and-binding service of the world.
///
/// Cloneable handle. The local tables are public for in-process use by
/// tests and daemons; protocol code running on other nodes goes through
/// [`NamingService::remote`], which charges message costs and honours
/// crashes and partitions.
#[derive(Clone)]
pub struct NamingService {
    sim: Sim,
    tx: TxSystem,
    node: NodeId,
    /// The Object Server database (local handle).
    pub server_db: ObjectServerDb,
    /// The Object State database (local handle).
    pub state_db: ObjectStateDb,
    /// The name directory: user-given names → UIDs (local handle).
    pub directory: Directory,
}

impl fmt::Debug for NamingService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamingService")
            .field("node", &self.node)
            .field("server_db", &self.server_db)
            .field("state_db", &self.state_db)
            .field("directory", &self.directory)
            .finish()
    }
}

/// Approximate wire sizes of one remote call, for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Request bytes.
    pub request: usize,
    /// Reply bytes.
    pub reply: usize,
}

impl Cost {
    /// A query answered with a whole entry (`GetServer`, `GetView`).
    pub const READ: Cost = Cost {
        request: 48,
        reply: 160,
    };
    /// An update answered with a small result (`Insert`, `Remove`,
    /// `Increment`, `Decrement`, `Include`).
    pub const UPDATE: Cost = Cost {
        request: 48,
        reply: 24,
    };
    /// A commit-time `Exclude` batch.
    pub const EXCLUDE: Cost = Cost {
        request: 80,
        reply: 24,
    };

    /// A directory lookup of `name`: the request carries the name.
    pub fn lookup(name: &str) -> Cost {
        Cost {
            request: 48 + name.len(),
            reply: 24,
        }
    }
}

impl NamingService {
    /// Creates the service hosted at `node`.
    pub fn new(sim: &Sim, tx: &TxSystem, node: NodeId) -> Self {
        NamingService {
            sim: sim.clone(),
            tx: tx.clone(),
            node,
            server_db: ObjectServerDb::new(tx),
            state_db: ObjectStateDb::new(tx),
            directory: Directory::new(tx),
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

    /// Runs `op` at the service node on behalf of `caller`, as one RPC of
    /// the given `cost` (free when `caller` is the service node).
    ///
    /// # Errors
    ///
    /// `op`'s own errors, or [`DbError::Tx`] with a
    /// [`TxError::Net`](groupview_actions::TxError::Net) if the service is
    /// unreachable.
    pub fn remote<T>(
        &self,
        caller: NodeId,
        cost: Cost,
        op: impl FnOnce(&NamingService) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        self.sim
            .rpc_flat(caller, self.node, cost.request, cost.reply, || op(self))
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
        sv: impl Into<NodeList>,
        st: impl Into<NodeList>,
    ) -> Result<(), DbError> {
        let (sv, st) = (sv.into(), st.into());
        check_node_lists(&sv, &st)?;
        self.server_db.create_entry(action, uid, sv)?;
        self.state_db.create_entry(action, uid, st)?;
        Ok(())
    }
}

/// The node-list rule of [`NamingService::register_object`]: the server
/// set `sv` and the store set `st` are each non-empty and name no node
/// twice.
///
/// # Errors
///
/// [`DbError::InvalidNodeList`] for the first list that breaks the rule.
pub fn check_node_lists(sv: &[NodeId], st: &[NodeId]) -> Result<(), DbError> {
    for nodes in [sv, st] {
        if nodes.is_empty() {
            return Err(DbError::InvalidNodeList { repeated: None });
        }
        if let Some(i) = (1..nodes.len()).find(|&i| nodes[..i].contains(&nodes[i])) {
            return Err(DbError::InvalidNodeList {
                repeated: Some(nodes[i]),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_db::ExcludePolicy;
    use groupview_actions::TxError;
    use groupview_sim::{ClientId, SimConfig};
    use groupview_store::Stores;
    use std::cell::Cell;

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
        let sv = ns
            .remote(n(1), Cost::READ, |ns| ns.server_db.get_server(b, uid))
            .unwrap();
        let st = ns
            .remote(n(1), Cost::READ, |ns| ns.state_db.get_view(b, uid))
            .unwrap();
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
        ns.remote(n(0), Cost::READ, |ns| ns.server_db.get_server(b, uid))
            .unwrap();
        tx.commit(b).unwrap();
        assert_eq!(sim.counters().delivered, before);
    }

    #[test]
    fn unreachable_service_reports_net_error() {
        let (sim, tx, ns) = world();
        sim.crash(n(0));
        let b = tx.begin_top(n(1));
        let err = ns
            .remote(n(1), Cost::READ, |ns| {
                ns.server_db.get_server(b, Uid::from_raw(1))
            })
            .unwrap_err();
        assert!(matches!(err, DbError::Tx(TxError::Net(_))));
        tx.abort(b);
    }

    #[test]
    fn remote_updates_roundtrip() {
        let (_, tx, ns) = world();
        let uid = Uid::from_raw(1);
        let client = ClientId::new(5);
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid, vec![n(1)], vec![n(1), n(2)])
            .unwrap();
        tx.commit(a).unwrap();

        let b = tx.begin_top(n(1));
        ns.remote(n(1), Cost::UPDATE, |ns| ns.server_db.insert(b, uid, n(3)))
            .unwrap();
        ns.remote(n(1), Cost::UPDATE, |ns| {
            ns.server_db.increment(b, client, uid, &[n(1)])
        })
        .unwrap();
        tx.commit(b).unwrap();
        let e = ns.server_db.entry(uid).unwrap();
        assert_eq!(e.servers, vec![n(1), n(3)]);
        assert_eq!(e.total_uses(), 1);

        let c = tx.begin_top(n(1));
        ns.remote(n(1), Cost::UPDATE, |ns| {
            ns.server_db.decrement(c, client, uid, &[n(1)])
        })
        .unwrap();
        ns.remote(n(1), Cost::UPDATE, |ns| ns.server_db.remove(c, uid, n(3)))
            .unwrap();
        let batch = [(uid, vec![n(2)])];
        ns.remote(n(1), Cost::EXCLUDE, |ns| {
            ns.state_db
                .exclude(c, &batch, ExcludePolicy::ExcludeWriteLock)
        })
        .unwrap();
        ns.remote(n(1), Cost::UPDATE, |ns| ns.state_db.include(c, uid, n(2)))
            .unwrap();
        tx.commit(c).unwrap();
        assert_eq!(ns.server_db.entry(uid).unwrap().servers, vec![n(1)]);
        assert_eq!(ns.state_db.entry(uid).unwrap().stores, vec![n(1), n(2)]);
    }

    #[test]
    fn remote_lookup_charges_its_name_and_fails_while_the_service_is_down() {
        let (sim, tx, ns) = world();
        let a = tx.begin_top(n(0));
        ns.directory
            .bind_name(a, "remote", Uid::from_raw(5))
            .unwrap();
        tx.commit(a).unwrap();

        let (in_before, out_before) = sim.node_traffic(n(0));
        let b = tx.begin_top(n(1));
        let handled = Cell::new(0);
        let lookup = |action| {
            ns.remote(n(1), Cost::lookup("remote"), |ns| {
                handled.set(handled.get() + 1);
                ns.directory.lookup(action, "remote")
            })
        };
        assert_eq!(lookup(b), Ok(Uid::from_raw(5)));
        tx.commit(b).unwrap();
        let (bytes_in, bytes_out) = sim.node_traffic(n(0));
        assert_eq!(
            (bytes_in - in_before, bytes_out - out_before),
            (48 + "remote".len() as u64, 24)
        );

        sim.crash(n(0));
        let c = tx.begin_top(n(1));
        assert!(matches!(lookup(c), Err(DbError::Tx(TxError::Net(_)))));
        tx.abort(c);
        sim.recover(n(0));
        assert_eq!(handled.get(), 1, "the lost request never ran");
    }
}
