//! Client-side binding: the three database access schemes of §4.1.
//!
//! A client that wants to use object `A` must turn `UIDA` into bindings to
//! functioning servers. How the Object Server database is consulted — and
//! whether the client may *update* it — distinguishes the schemes:
//!
//! * [`BindingScheme::Standard`] (Figure 6): `GetServer` runs as a nested
//!   action of the client action; its read lock is inherited and held to the
//!   client's commit. `Sv` is static — "at binding time each and every
//!   client determines 'the hard way' that a server is unavailable" (probe
//!   failures are counted so experiments can quantify that cost). Read-only
//!   clients may exploit the §4.1.2 optimisation and bind to any convenient
//!   server.
//! * [`BindingScheme::IndependentTopLevel`] (Figure 7): a separate top-level
//!   action performs `GetServer` + `Increment` (use lists) + `Remove`
//!   (pruning failed servers); a final top-level action `Decrement`s after
//!   the client action terminates. The database stays "a relatively
//!   up-to-date list of functioning server nodes".
//! * [`BindingScheme::NestedTopLevel`] (Figure 8): identical updates, but
//!   the actions are *nested top-level* actions running within the client
//!   action.
//!
//! Implementation note: the updating schemes take the entry's **write lock
//! up front** (via `get_server_locked`) instead of promoting a read lock;
//! two concurrent binders that both read first and then promote would
//! refuse each other forever. Write-lock refusals are retried a bounded
//! number of times before reporting [`BindError::Contention`].

use crate::error::BindError;
use crate::naming::{Cost, NamingService};
use crate::nonatomic::RemoteServerCache;
use groupview_actions::{ActionId, LockMode, TxError, TxSystem};
use groupview_sim::{Cause, ClientId, NodeId, NodeList, Sim};
use groupview_store::Uid;
use std::fmt;

/// Which of the paper's §4.1 schemes a [`Binder`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingScheme {
    /// Figure 6: nested-action `GetServer`, static `Sv`, no use lists.
    Standard,
    /// Figure 7: independent top-level actions around the client action.
    IndependentTopLevel,
    /// Figure 8: nested top-level actions inside the client action.
    NestedTopLevel,
    /// The paper's §5 extension: server data lives in a *traditional
    /// (non-atomic)* name server — no locks, no actions, instant
    /// best-effort updates — while the Object State database alone (still
    /// transactional) guarantees binding consistency.
    CachedNameServer,
}

impl BindingScheme {
    /// All schemes, for parameter sweeps.
    pub const ALL: [BindingScheme; 4] = [
        BindingScheme::Standard,
        BindingScheme::IndependentTopLevel,
        BindingScheme::NestedTopLevel,
        BindingScheme::CachedNameServer,
    ];

    /// Whether this scheme maintains use lists in the server database.
    pub fn maintains_use_lists(self) -> bool {
        matches!(
            self,
            BindingScheme::IndependentTopLevel | BindingScheme::NestedTopLevel
        )
    }

    /// Whether this scheme consults the non-atomic server cache instead of
    /// the transactional Object Server database.
    pub fn uses_server_cache(self) -> bool {
        matches!(self, BindingScheme::CachedNameServer)
    }
}

impl fmt::Display for BindingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingScheme::Standard => write!(f, "standard"),
            BindingScheme::IndependentTopLevel => write!(f, "independent-top-level"),
            BindingScheme::NestedTopLevel => write!(f, "nested-top-level"),
            BindingScheme::CachedNameServer => write!(f, "cached-name-server"),
        }
    }
}

/// What a client asks the binder for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindRequest {
    /// The requesting client.
    pub client: ClientId,
    /// The node the client (and its action) runs on.
    pub client_node: NodeId,
    /// The object to bind to.
    pub uid: Uid,
    /// Desired number of server replicas (`|Sv'|`).
    pub replicas: usize,
    /// Whether the client will only read the object — enables the §4.1.2
    /// optimisation in the standard scheme (bind to any convenient server).
    pub read_only: bool,
    /// When the object is already activated, the set `SvA'` the client MUST
    /// bind to (§3.2: "the client must be bound to all of the functioning
    /// servers ∈ SvA'"). Overrides free selection and the read-only
    /// optimisation.
    pub required: Option<NodeList>,
}

impl BindRequest {
    /// A write-mode request for one replica.
    pub fn new(client: ClientId, client_node: NodeId, uid: Uid) -> Self {
        BindRequest {
            client,
            client_node,
            uid,
            replicas: 1,
            read_only: false,
            required: None,
        }
    }

    /// Sets the desired replica count.
    pub fn with_replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Marks the request read-only.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Requires binding to exactly this activated server set.
    pub fn with_required(mut self, servers: impl Into<NodeList>) -> Self {
        let servers = servers.into();
        self.replicas = servers.len();
        self.required = Some(servers);
        self
    }
}

/// A successful binding: the subset `Sv'` the client is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The bound object.
    pub uid: Uid,
    /// Functioning servers the client bound to (`Sv'`).
    pub servers: NodeList,
    /// Whether use lists were incremented (schemes 2 and 3) — if so, the
    /// caller must call [`Binder::complete`] when the client action ends.
    pub registered: bool,
    /// Servers probed and found dead ("the hard way" discoveries), in
    /// probe order. The activation keeps them as suspects, so the action
    /// does not wait on them again.
    pub dead: NodeList,
    /// Servers this binding removed from `Sv` (schemes 2 and 3).
    pub removed: NodeList,
    /// Binding attempts that were retried due to lock contention.
    pub retries: u32,
}

/// Retries of a binding (or its completion) refused by lock contention,
/// after the first attempt.
const MAX_RETRIES: u32 = 3;

/// The client-side binding engine.
///
/// One binder per world and scheme; clients call [`Binder::bind`] at the
/// start of their action and — for the updating schemes —
/// [`Binder::complete`] after the action terminates.
#[derive(Clone)]
pub struct Binder {
    sim: Sim,
    tx: TxSystem,
    naming: NamingService,
    scheme: BindingScheme,
    cache: Option<RemoteServerCache>,
}

impl fmt::Debug for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binder")
            .field("scheme", &self.scheme)
            .finish()
    }
}

impl Binder {
    /// Creates a binder using `scheme` against `naming`.
    pub fn new(sim: &Sim, naming: &NamingService, scheme: BindingScheme) -> Self {
        Binder {
            sim: sim.clone(),
            tx: naming.tx().clone(),
            naming: naming.clone(),
            scheme,
            cache: None,
        }
    }

    /// Attaches the non-atomic server cache (required for
    /// [`BindingScheme::CachedNameServer`]).
    pub fn with_cache(mut self, cache: RemoteServerCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The scheme in use.
    pub fn scheme(&self) -> BindingScheme {
        self.scheme
    }

    /// Binds `req.client` to servers of `req.uid` on behalf of the client
    /// action `action`, according to the binder's scheme.
    ///
    /// # Errors
    ///
    /// [`BindError::NoServers`] when no functioning server exists (per the
    /// paper the client action must then abort), [`BindError::Db`] for
    /// naming-service failures, [`BindError::Contention`] when the updating
    /// schemes exhaust their lock retries, [`BindError::NoServerCache`] when
    /// the cached scheme's binder was never given its cache,
    /// [`BindError::Db`] with [`TxError::NotActive`] when `action` has
    /// already committed or aborted.
    pub fn bind(&self, action: ActionId, req: &BindRequest) -> Result<Binding, BindError> {
        if !self.tx.is_active(action) {
            return Err(TxError::NotActive(action).into());
        }
        match self.scheme {
            BindingScheme::Standard => self.bind_standard(action, req),
            BindingScheme::IndependentTopLevel => self.bind_updating(action, req, false),
            BindingScheme::NestedTopLevel => self.bind_updating(action, req, true),
            BindingScheme::CachedNameServer => self.bind_cached(req),
        }
    }

    /// Releases a registered binding: runs the `Decrement` action of
    /// Figures 7/8. Must be called after the client action terminated
    /// (independent scheme) or just before it terminates (nested-top-level
    /// scheme, passing the still-active client action as `enclosing`).
    /// No-op for unregistered bindings.
    ///
    /// # Errors
    ///
    /// [`BindError::Contention`] if the database entry stays locked through
    /// all retries, [`BindError::Db`] for other failures. Callers that
    /// cannot retry may leave the cleanup daemon to reclaim the counts (the
    /// paper's client-crash story).
    pub fn complete(
        &self,
        enclosing: Option<ActionId>,
        req: &BindRequest,
        binding: &Binding,
    ) -> Result<(), BindError> {
        if !binding.registered {
            return Ok(());
        }
        for _ in 0..=MAX_RETRIES {
            let t2 = match (self.scheme, enclosing) {
                (BindingScheme::NestedTopLevel, Some(encl)) if self.tx.is_active(encl) => {
                    self.tx.begin_nested_top(encl)
                }
                // Fall back to an independent action (e.g. the client action
                // already terminated).
                _ => self.tx.begin_top(req.client_node),
            };
            match self.naming.remote(req.client_node, Cost::UPDATE, |ns| {
                ns.server_db
                    .decrement(t2, req.client, req.uid, &binding.servers)
            }) {
                Ok(()) => {
                    self.tx.commit(t2)?;
                    return Ok(());
                }
                Err(e) if e.cause() == Cause::Contention => {
                    self.tx.abort(t2);
                    continue;
                }
                Err(e) => {
                    self.tx.abort(t2);
                    return Err(e.into());
                }
            }
        }
        Err(BindError::Contention)
    }

    // ----- scheme implementations ----------------------------------------

    /// The §5 extension: one plain lookup against the non-atomic name
    /// server — no action, no locks — then probe. Dead servers are reported
    /// back with one-way messages that take effect immediately (and are
    /// never rolled back). Binding consistency is entirely the Object State
    /// database's job (activation still runs the transactional `GetView`).
    fn bind_cached(&self, req: &BindRequest) -> Result<Binding, BindError> {
        let cache = self.cache.as_ref().ok_or(BindError::NoServerCache)?;
        let listed;
        let candidates = match &req.required {
            Some(required) => required,
            None => {
                listed = cache.read_from(req.client_node, req.uid)?;
                &listed
            }
        };
        let (servers, dead) = self.probe_candidates(req, candidates);
        for &host in &dead {
            cache.report_failure_from(req.client_node, req.uid, host);
        }
        if servers.is_empty() {
            return Err(BindError::NoServers {
                probed: dead.len() as u32,
            });
        }
        Ok(Binding {
            uid: req.uid,
            servers,
            registered: false,
            removed: dead.clone(),
            dead,
            retries: 0,
        })
    }

    fn bind_standard(&self, action: ActionId, req: &BindRequest) -> Result<Binding, BindError> {
        // GetServer as a nested action of the client action (Figure 6).
        let nested = self.tx.begin_nested(action);
        let entry = match self.naming.remote(req.client_node, Cost::READ, |ns| {
            ns.server_db.get_server(nested, req.uid)
        }) {
            Ok(e) => e,
            Err(e) => {
                self.tx.abort(nested);
                return Err(e.into());
            }
        };
        self.tx.commit(nested)?;

        // An already-activated object pins the selection to SvA' (§3.2).
        // Otherwise: fixed selection algorithm; read-only clients start at a
        // client-dependent offset so concurrent readers spread across
        // (possibly disjoint) servers — the §4.1.2 optimisation.
        let rotated;
        let candidates = if let Some(required) = &req.required {
            required
        } else if req.read_only && !entry.servers.is_empty() {
            let start = req.client.raw() as usize % entry.servers.len();
            rotated = entry.servers[start..]
                .iter()
                .chain(&entry.servers[..start])
                .copied()
                .collect::<NodeList>();
            &rotated
        } else {
            &entry.servers
        };
        let (servers, dead) = self.probe_candidates(req, candidates);
        if servers.is_empty() {
            return Err(BindError::NoServers {
                probed: dead.len() as u32,
            });
        }
        Ok(Binding {
            uid: req.uid,
            servers,
            registered: false,
            dead,
            removed: NodeList::new(),
            retries: 0,
        })
    }

    fn bind_updating(
        &self,
        action: ActionId,
        req: &BindRequest,
        nested_top: bool,
    ) -> Result<Binding, BindError> {
        let mut retries = 0;
        for attempt in 0..=MAX_RETRIES {
            let t1 = if nested_top {
                self.tx.begin_nested_top(action)
            } else {
                self.tx.begin_top(req.client_node)
            };
            match self.try_bind_update(t1, req) {
                Ok(mut binding) => {
                    binding.retries = retries;
                    return Ok(binding);
                }
                Err(e) if e.cause() == Cause::Contention => {
                    if attempt == MAX_RETRIES {
                        return Err(BindError::Contention);
                    }
                    retries += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(BindError::Contention)
    }

    /// One attempt of the Figure 7/8 binding action; aborts `t1` on failure.
    fn try_bind_update(&self, t1: ActionId, req: &BindRequest) -> Result<Binding, BindError> {
        let entry = match self.naming.remote(req.client_node, Cost::READ, |ns| {
            ns.server_db.get_server_locked(t1, req.uid, LockMode::Write)
        }) {
            Ok(e) => e,
            Err(e) => {
                self.tx.abort(t1);
                return Err(e.into());
            }
        };
        // An already-activated object pins the selection to SvA' (§3.2);
        // otherwise "if the use list returned is non-empty, then the client
        // tries to bind to only those servers with non-zero counters."
        let active;
        let candidates = if let Some(required) = &req.required {
            required
        } else {
            active = entry.active_servers();
            if active.is_empty() {
                &entry.servers
            } else {
                &active
            }
        };
        let (servers, dead) = self.probe_candidates(req, candidates);
        if servers.is_empty() {
            self.tx.abort(t1);
            return Err(BindError::NoServers {
                probed: dead.len() as u32,
            });
        }
        // Remove the servers whose probe failed from Sv — and only those:
        // candidates that were never probed (the desired replica count was
        // already reached) must stay listed. The write lock is already
        // held, so only genuine database errors can surface here.
        let mut removed = NodeList::new();
        for &host in &dead {
            match self.naming.remote(req.client_node, Cost::UPDATE, |ns| {
                ns.server_db.prune(t1, req.uid, host)
            }) {
                Ok(true) => removed.push(host),
                Ok(false) => {}
                Err(e) => {
                    self.tx.abort(t1);
                    return Err(e.into());
                }
            }
        }
        if let Err(e) = self.naming.remote(req.client_node, Cost::UPDATE, |ns| {
            ns.server_db.increment(t1, req.client, req.uid, &servers)
        }) {
            self.tx.abort(t1);
            return Err(e.into());
        }
        self.tx.commit(t1)?;
        Ok(Binding {
            uid: req.uid,
            servers,
            registered: true,
            dead,
            removed,
            retries: 0,
        })
    }

    /// Probes candidates in order until `replicas` servers answered;
    /// returns `(bound, probed_and_dead)`. Candidates beyond the desired
    /// replica count are never probed and appear in neither list.
    ///
    /// The probes go out in rounds: each round probes, concurrently, as
    /// many untried candidates as servers are still missing, so it costs
    /// its slowest probe (one timeout if any candidate is dead), and the
    /// hosts probed are the same, in the same order, as one at a time.
    fn probe_candidates(&self, req: &BindRequest, candidates: &[NodeId]) -> (NodeList, NodeList) {
        let mut bound = NodeList::new();
        let mut dead = NodeList::new();
        let mut untried = candidates;
        let wanted = req.replicas.max(1);
        while bound.len() < wanted && !untried.is_empty() {
            let (round, rest) = untried.split_at((wanted - bound.len()).min(untried.len()));
            untried = rest;
            let mut fork = self.sim.fork();
            for &host in round {
                self.sim.branch(&mut fork);
                if self.probe(req.client_node, host) {
                    bound.push(host);
                } else {
                    dead.push(host);
                }
            }
            self.sim.join(fork);
        }
        (bound, dead)
    }

    /// A bind attempt to a server node: a small RPC that fails iff the node
    /// is unreachable. This is the paper's "the binding will succeed for all
    /// the nodes ∈ SvA' that are functioning".
    fn probe(&self, from: NodeId, host: NodeId) -> bool {
        self.sim.rpc(from, host, 8, 8, || ()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::{NetConfig, SimConfig, SimDuration};
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

    /// World: naming at n0; servers n1..n3; client node n4.
    fn world(scheme: BindingScheme) -> (Sim, TxSystem, NamingService, Binder) {
        let sim = Sim::new(SimConfig::new(33).with_nodes(5));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let ns = NamingService::new(&sim, &tx, n(0));
        let a = tx.begin_top(n(0));
        ns.register_object(a, uid(), vec![n(1), n(2), n(3)], vec![n(1)])
            .unwrap();
        tx.commit(a).unwrap();
        let binder = Binder::new(&sim, &ns, scheme);
        (sim, tx, ns, binder)
    }

    fn req() -> BindRequest {
        BindRequest::new(c(1), n(4), uid()).with_replicas(2)
    }

    #[test]
    fn a_probe_round_with_one_dead_candidate_costs_one_timeout_and_one_replacement_round() {
        let net = NetConfig {
            jitter: SimDuration::ZERO,
            ..NetConfig::default()
        };
        let sim = Sim::new(SimConfig::new(33).with_nodes(5).with_net(net));
        let stores = Stores::new(&sim);
        let tx = TxSystem::new(&sim, &stores);
        let ns = NamingService::new(&sim, &tx, n(0));
        let binder = Binder::new(&sim, &ns, BindingScheme::Standard);
        sim.crash(n(1));
        let before = sim.now();
        let (bound, dead) = binder.probe_candidates(&req(), &[n(1), n(2), n(3)]);
        assert_eq!(bound.as_slice(), [n(2), n(3)]);
        assert_eq!(dead.as_slice(), [n(1)]);
        // Round 1 probes n1 and n2 together and waits out n1's timeout;
        // round 2 probes n3, the replacement, for one round trip.
        let rtt = 2 * net.base_latency.as_micros();
        assert_eq!(
            sim.now().since(before).as_micros(),
            net.rpc_timeout.as_micros() + rtt
        );
        assert_eq!(sim.counters().timeouts, 1);
    }

    #[test]
    fn standard_binds_first_k_functioning() {
        let (_, tx, ns, binder) = world(BindingScheme::Standard);
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        assert_eq!(b.servers, vec![n(1), n(2)]);
        assert_eq!(b.dead.len(), 0);
        assert!(!b.registered);
        // Read lock inherited by the client action until it ends:
        assert!(!tx.locks_empty());
        tx.commit(a).unwrap();
        assert!(tx.locks_empty());
        // Sv untouched, no use lists (scheme property).
        let e = ns.server_db.entry(uid()).unwrap();
        assert_eq!(e.servers, vec![n(1), n(2), n(3)]);
        assert!(e.is_quiescent());
    }

    #[test]
    fn standard_discovers_crashes_the_hard_way() {
        let (sim, tx, ns, binder) = world(BindingScheme::Standard);
        sim.crash(n(1));
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        assert_eq!(b.servers, vec![n(2), n(3)]);
        assert_eq!(b.dead.len(), 1, "n1 probed dead");
        tx.commit(a).unwrap();
        // Static Sv: the dead server stays listed for the next client.
        assert_eq!(ns.server_db.entry(uid()).unwrap().servers.len(), 3);
        let a2 = tx.begin_top(n(4));
        let b2 = binder.bind(a2, &req()).unwrap();
        assert_eq!(b2.dead.len(), 1, "every client pays the probe");
        tx.commit(a2).unwrap();
    }

    #[test]
    fn standard_no_servers_fails() {
        let (sim, tx, _, binder) = world(BindingScheme::Standard);
        for i in 1..=3 {
            sim.crash(n(i));
        }
        let a = tx.begin_top(n(4));
        assert_eq!(
            binder.bind(a, &req()),
            Err(BindError::NoServers { probed: 3 })
        );
        tx.abort(a);
    }

    #[test]
    fn standard_read_only_spreads_clients() {
        let (_, tx, _, binder) = world(BindingScheme::Standard);
        let a = tx.begin_top(n(4));
        let r0 = BindRequest::new(c(0), n(4), uid()).read_only();
        let r1 = BindRequest::new(c(1), n(4), uid()).read_only();
        let b0 = binder.bind(a, &r0).unwrap();
        let b1 = binder.bind(a, &r1).unwrap();
        assert_eq!(b0.servers, vec![n(1)]);
        assert_eq!(b1.servers, vec![n(2)], "different reader, different server");
        tx.commit(a).unwrap();
    }

    #[test]
    fn unknown_object_is_db_error() {
        let (_, tx, _, binder) = world(BindingScheme::Standard);
        let a = tx.begin_top(n(4));
        let bad = BindRequest::new(c(1), n(4), Uid::from_raw(99));
        assert!(matches!(
            binder.bind(a, &bad),
            Err(BindError::Db(crate::error::DbError::NotFound(_)))
        ));
        tx.abort(a);
    }

    #[test]
    fn independent_registers_and_prunes() {
        let (sim, tx, ns, binder) = world(BindingScheme::IndependentTopLevel);
        sim.crash(n(2));
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        assert_eq!(b.servers, vec![n(1), n(3)]);
        assert!(b.registered);
        assert_eq!(b.removed, vec![n(2)], "failed server pruned from Sv");
        // The binding action already committed: entry is unlocked, use
        // lists updated, Sv pruned.
        let e = ns.server_db.entry(uid()).unwrap();
        assert_eq!(e.servers, vec![n(1), n(3)]);
        assert_eq!(e.active_servers(), vec![n(1), n(3)]);
        tx.commit(a).unwrap();
        // Decrement after the client action:
        binder.complete(None, &req(), &b).unwrap();
        assert!(ns.server_db.entry(uid()).unwrap().is_quiescent());
        assert!(tx.locks_empty());
    }

    #[test]
    fn independent_second_client_joins_active_servers() {
        let (_, tx, _, binder) = world(BindingScheme::IndependentTopLevel);
        let a1 = tx.begin_top(n(4));
        let r1 = BindRequest::new(c(1), n(4), uid()).with_replicas(2);
        let b1 = binder.bind(a1, &r1).unwrap();
        assert_eq!(b1.servers, vec![n(1), n(2)]);
        // Client 2 asks for 3 replicas but must join the active set {1,2}.
        let a2 = tx.begin_top(n(4));
        let r2 = BindRequest::new(c(2), n(4), uid()).with_replicas(3);
        let b2 = binder.bind(a2, &r2).unwrap();
        assert_eq!(b2.servers, vec![n(1), n(2)], "bound to active servers only");
        tx.commit(a1).unwrap();
        tx.commit(a2).unwrap();
        binder.complete(None, &r1, &b1).unwrap();
        binder.complete(None, &r2, &b2).unwrap();
    }

    #[test]
    fn updating_scheme_retries_then_reports_contention() {
        let (_, tx, ns, binder) = world(BindingScheme::IndependentTopLevel);
        // An unrelated action camps on the entry's write lock.
        let blocker = tx.begin_top(n(0));
        ns.server_db
            .get_server_locked(blocker, uid(), LockMode::Write)
            .unwrap();
        let a = tx.begin_top(n(4));
        assert_eq!(binder.bind(a, &req()), Err(BindError::Contention));
        tx.abort(a);
        tx.abort(blocker);
        // After the blocker goes away binding succeeds again.
        let a2 = tx.begin_top(n(4));
        let b = binder.bind(a2, &req()).unwrap();
        assert!(b.registered);
        tx.commit(a2).unwrap();
        binder.complete(None, &req(), &b).unwrap();
    }

    #[test]
    fn nested_top_level_scheme_full_cycle() {
        let (_, tx, ns, binder) = world(BindingScheme::NestedTopLevel);
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        assert!(b.registered);
        assert_eq!(ns.server_db.entry(uid()).unwrap().total_uses(), 2);
        // Decrement runs as a nested top-level action inside the client
        // action, before it commits.
        binder.complete(Some(a), &req(), &b).unwrap();
        assert!(ns.server_db.entry(uid()).unwrap().is_quiescent());
        tx.commit(a).unwrap();
        assert!(tx.locks_empty());
    }

    #[test]
    fn ntl_increment_survives_client_abort() {
        // If the client aborts after binding but before complete(), the
        // use-list increment survives (it committed independently) — the
        // documented leak the cleanup daemon reclaims.
        let (_, tx, ns, binder) = world(BindingScheme::NestedTopLevel);
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        tx.abort(a);
        assert_eq!(
            ns.server_db.entry(uid()).unwrap().total_uses(),
            2,
            "leak: counters survive the enclosing abort"
        );
        // complete() falls back to an independent action:
        binder.complete(Some(a), &req(), &b).unwrap();
        assert!(ns.server_db.entry(uid()).unwrap().is_quiescent());
    }

    #[test]
    fn scheme_metadata() {
        assert!(!BindingScheme::Standard.maintains_use_lists());
        assert!(BindingScheme::IndependentTopLevel.maintains_use_lists());
        assert!(BindingScheme::NestedTopLevel.maintains_use_lists());
        assert!(!BindingScheme::CachedNameServer.maintains_use_lists());
        assert!(BindingScheme::CachedNameServer.uses_server_cache());
        assert!(!BindingScheme::Standard.uses_server_cache());
        assert_eq!(BindingScheme::ALL.len(), 4);
        assert_eq!(BindingScheme::Standard.to_string(), "standard");
        assert_eq!(
            BindingScheme::CachedNameServer.to_string(),
            "cached-name-server"
        );
    }

    #[test]
    fn cached_scheme_binds_and_prunes_without_locks() {
        let (sim, tx, ns, _binder) = world(BindingScheme::Standard);
        let cache = crate::nonatomic::ServerCache::new();
        cache.seed(uid(), vec![n(1), n(2), n(3)]);
        let remote = crate::nonatomic::RemoteServerCache::new(&sim, n(0), cache);
        let binder =
            Binder::new(&sim, &ns, BindingScheme::CachedNameServer).with_cache(remote.clone());
        sim.crash(n(1));
        let a = tx.begin_top(n(4));
        let b = binder.bind(a, &req()).unwrap();
        assert_eq!(b.servers, vec![n(2), n(3)]);
        assert_eq!(b.dead.len(), 1);
        assert!(!b.registered);
        // The dead server was pruned from the cache instantly, without any
        // lock — even while the client action is still running.
        assert_eq!(remote.local().read(uid()), vec![n(2), n(3)]);
        // And no lock is held on the server entry at all:
        assert!(tx
            .lock_holders(crate::keys::server_entry_key(uid()))
            .is_empty());
        tx.commit(a).unwrap();
        // The transactional Object Server database was never touched.
        assert_eq!(ns.server_db.entry(uid()).unwrap().servers.len(), 3);
    }

    #[test]
    fn cached_scheme_without_a_cache_is_a_typed_error() {
        // `Binder::new` accepts any scheme; forgetting `with_cache` must
        // fail the bind, not panic the caller.
        let (_, tx, _, binder) = world(BindingScheme::CachedNameServer);
        let a = tx.begin_top(n(4));
        assert_eq!(binder.bind(a, &req()), Err(BindError::NoServerCache));
        assert_eq!(
            binder.bind(a, &req().with_required(vec![n(1)])),
            Err(BindError::NoServerCache)
        );
        tx.abort(a);
        assert!(tx.locks_empty());
    }

    #[test]
    fn binder_accessors() {
        let (_, _, _, binder) = world(BindingScheme::NestedTopLevel);
        assert_eq!(binder.scheme(), BindingScheme::NestedTopLevel);
    }
}
