//! The client-crash cleanup daemon (§4.1.3).
//!
//! Under the updating schemes "a crash of a client does not automatically
//! undo changes made to the database. So, failure detection and cleanup
//! protocols will be required. For example, the Object Server database could
//! periodically check if its clients are functioning, and if necessary
//! update use lists if crashes are detected."
//!
//! [`CleanupDaemon::sweep`] is that periodic check: given a liveness
//! predicate, it purges every use-list entry belonging to a dead client in
//! one atomic action per client.

use crate::naming::NamingService;
use groupview_actions::TxSystem;
use groupview_sim::{ClientId, NodeId, Sim};
use groupview_store::Uid;
use std::fmt;

/// Result of one cleanup sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleanupReport {
    /// `(client, object, server-host)` use-list entries reclaimed.
    pub purged: Vec<(ClientId, Uid, NodeId)>,
    /// Dead clients whose purge was skipped due to lock contention —
    /// they will be retried on the next sweep.
    pub deferred: Vec<ClientId>,
}

impl CleanupReport {
    /// Number of entries reclaimed.
    pub fn reclaimed(&self) -> usize {
        self.purged.len()
    }
}

/// Periodic reclaimer of use-list entries leaked by crashed clients.
#[derive(Clone)]
pub struct CleanupDaemon {
    sim: Sim,
    tx: TxSystem,
    naming: NamingService,
}

impl fmt::Debug for CleanupDaemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CleanupDaemon").finish_non_exhaustive()
    }
}

impl CleanupDaemon {
    /// Creates a daemon running at the naming service's node.
    pub fn new(sim: &Sim, naming: &NamingService) -> Self {
        CleanupDaemon {
            sim: sim.clone(),
            tx: naming.tx().clone(),
            naming: naming.clone(),
        }
    }

    /// Sweeps all use lists, purging entries of clients for which
    /// `is_alive` returns `false`. One atomic action per dead client, so a
    /// lock conflict on one object defers only that client's cleanup.
    pub fn sweep(&self, is_alive: impl Fn(ClientId) -> bool) -> CleanupReport {
        let mut report = CleanupReport::default();
        let node = self.naming.node();
        if !self.sim.is_up(node) {
            return report;
        }
        for client in self.naming.server_db.clients_in_use() {
            if is_alive(client) {
                continue;
            }
            let action = self.tx.begin_top(node);
            match self.naming.server_db.purge_client(action, client) {
                Ok(purged) => {
                    if self.tx.commit(action).is_ok() {
                        report
                            .purged
                            .extend(purged.into_iter().map(|(uid, host)| (client, uid, host)));
                    } else {
                        report.deferred.push(client);
                    }
                }
                Err(_) => {
                    self.tx.abort(action);
                    report.deferred.push(client);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_actions::LockMode;
    use groupview_sim::SimConfig;
    use groupview_store::Stores;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    fn uid() -> Uid {
        Uid::from_raw(1)
    }

    fn world() -> (Sim, TxSystem, NamingService, CleanupDaemon) {
        let sim = Sim::new(SimConfig::new(55).with_nodes(4));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let ns = NamingService::new(&sim, &tx, n(0));
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid(), vec![n(1), n(2)], vec![n(1)])
            .unwrap();
        tx.commit(a).unwrap();
        let daemon = CleanupDaemon::new(&sim, &ns);
        (sim, tx, ns, daemon)
    }

    fn use_object(tx: &TxSystem, ns: &NamingService, client: ClientId, hosts: &[NodeId]) {
        let a = tx.begin_top(n(0));
        ns.server_db
            .get_server_locked(a, uid(), LockMode::Write)
            .unwrap();
        ns.server_db.increment(a, client, uid(), hosts).unwrap();
        tx.commit(a).unwrap();
    }

    #[test]
    fn sweep_reclaims_only_dead_clients() {
        let (_, tx, ns, daemon) = world();
        use_object(&tx, &ns, c(1), &[n(1), n(2)]);
        use_object(&tx, &ns, c(2), &[n(1)]);
        let alive: groupview_sim::IdSet<ClientId> = [c(2)].into_iter().collect();
        let report = daemon.sweep(|cl| alive.contains(&cl));
        assert_eq!(report.reclaimed(), 2, "c1's two entries reclaimed");
        assert!(report.deferred.is_empty());
        let e = ns.server_db.entry(uid()).unwrap();
        assert_eq!(e.total_uses(), 1);
        assert_eq!(e.use_lists[&n(1)].keys().collect::<Vec<_>>(), [&c(2)]);
        // Sweep is idempotent.
        let again = daemon.sweep(|cl| alive.contains(&cl));
        assert_eq!(again.reclaimed(), 0);
    }

    #[test]
    fn sweep_defers_on_lock_contention() {
        let (_, tx, ns, daemon) = world();
        use_object(&tx, &ns, c(1), &[n(1)]);
        // Someone holds a read lock on the entry — purge needs write.
        let blocker = tx.begin_top(n(3));
        ns.server_db.get_server(blocker, uid()).unwrap();
        let report = daemon.sweep(|_| false);
        assert_eq!(report.deferred, vec![c(1)]);
        assert_eq!(report.reclaimed(), 0);
        tx.commit(blocker).unwrap();
        // Next sweep succeeds.
        let retry = daemon.sweep(|_| false);
        assert_eq!(retry.reclaimed(), 1);
        assert!(ns.server_db.entry(uid()).unwrap().is_quiescent());
    }

    #[test]
    fn sweep_noop_when_naming_node_down() {
        let (sim, tx, ns, daemon) = world();
        use_object(&tx, &ns, c(1), &[n(1)]);
        sim.crash(n(0));
        let report = daemon.sweep(|_| false);
        assert_eq!(report, CleanupReport::default());
    }

    #[test]
    fn sweep_with_all_alive_is_noop() {
        let (_, tx, ns, daemon) = world();
        use_object(&tx, &ns, c(1), &[n(1)]);
        let report = daemon.sweep(|_| true);
        assert_eq!(report.reclaimed(), 0);
        assert_eq!(ns.server_db.entry(uid()).unwrap().total_uses(), 1);
    }
}
