//! Object activation (paper §3.2, Figures 2–5).
//!
//! "Activating `A` will consist of creating a server at the node ∈ SvA and
//! loading the state from any node ∈ StA" — generalised here to every
//! `|Sv| × |St|` configuration:
//!
//! 1. **Join or select.** If the object is already activated (live, loaded
//!    replicas exist), the client "must be bound to all of the functioning
//!    servers ∈ SvA'" — it joins the *existing* activation set, which is
//!    what keeps all activated copies mutually consistent across client
//!    actions. Only a passive object gets a fresh server selection.
//! 2. Bind through the configured scheme ([`groupview_core::Binder`]),
//!    which also maintains use lists / prunes dead servers per Figures 6–8.
//! 3. Fetch `St(A)` via `GetView`, run as a nested action so the read lock
//!    on the state entry is held by the client action (needed later for the
//!    commit-time `Exclude`).
//! 4. For a fresh activation, load every bound replica from any reachable
//!    store in `St` — stores hold only committed states, so a fresh
//!    activation can never observe uncommitted or stale data. The nodes the
//!    binding probed dead, and every store whose state read failed, are
//!    the activation's *suspects*: a later load asks the unsuspected stores
//!    first, and the commit excludes a suspected store without preparing
//!    it (see `writeback.rs`), so one dead node costs the action one
//!    timeout. An action that has seen no failure has no suspects and
//!    reads the stores in `St` order.
//! 5. For active replication, make the object's reliable ordered multicast
//!    group hold exactly the bound replicas: evict the rest, and enrol
//!    those it does not already hold (a joined activation finds them all
//!    enrolled by the activation it joins).

use crate::error::ActivateError;
use crate::invoke::{Activation, ObjectGroup, ReplicaMember};
use crate::policy::ReplicationPolicy;
use crate::replica::ReplicaHandle;
use crate::system::System;
use groupview_actions::ActionId;
use groupview_core::{BindRequest, Cost};
use groupview_group::{DeliveryMode, GroupId};
use groupview_obs::Phase;
use groupview_sim::{ClientId, NodeId, NodeList};
use groupview_store::{StoreError, Uid};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

impl System {
    /// Activates `uid` for a client action; see the module docs. Trace
    /// events caused by activation messages are attributed to `action`.
    pub(crate) fn do_activate(
        &self,
        action: ActionId,
        client: ClientId,
        client_node: NodeId,
        uid: Uid,
        replicas: usize,
        read_only: bool,
    ) -> Result<ObjectGroup, ActivateError> {
        // Single-copy passive activates exactly one copy (§2.3(2)(iii)).
        let k = match self.inner.policy {
            ReplicationPolicy::SingleCopyPassive => 1,
            _ => replicas.max(1),
        };
        let mut req = BindRequest::new(client, client_node, uid).with_replicas(k);
        if read_only {
            req = req.read_only();
        }
        self.inner.sim.with_active_action(action.raw(), || {
            let mut activated = self.inner.activation_scratch.take();
            let group = self.do_activate_inner(action, req, &mut activated);
            activated.clear();
            self.inner.activation_scratch.replace(activated);
            group
        })
    }

    /// The activation proper, with `activated` an empty buffer for the
    /// object's activation set.
    fn do_activate_inner(
        &self,
        action: ActionId,
        mut req: BindRequest,
        activated: &mut Vec<(NodeId, ReplicaHandle)>,
    ) -> Result<ObjectGroup, ActivateError> {
        let inner = &self.inner;
        let (uid, client_node) = (req.uid, req.client_node);
        // The one registry lookup of this activation: the object's current
        // activation set — its live, loaded replicas, in node order. Empty
        // for a passive object. Everything below reaches a replica through
        // these handles (nothing else touches the registry while an
        // activation runs).
        inner.registry.replicas_of(uid, activated);
        activated.retain(|(node, replica)| {
            inner.sim.is_up(*node) && replica.borrow_mut().is_loaded(&inner.sim)
        });
        // Join the existing activation, if any (§3.2: bind to all of SvA').
        let fresh = activated.is_empty();
        if !fresh {
            req = req.with_required(
                activated
                    .iter()
                    .map(|(node, _)| *node)
                    .collect::<NodeList>(),
            );
        }
        let bind_start = inner.sim.now().as_micros();
        let binding = inner.binder.bind(action, &req)?;
        inner.obs.span(
            action.raw(),
            Phase::Bind,
            bind_start,
            inner.sim.now().as_micros(),
        );

        // Any member of the previous activation that this binding could NOT
        // reach (crashed or partitioned) will miss the coming operations:
        // expel it — unload its replica so it can never re-enter the
        // activation set with stale state. Its next activation reloads the
        // committed state from the object stores.
        activated.retain(|(node, replica)| {
            let bound = binding.servers.contains(node);
            if !bound {
                replica.borrow_mut().unload(&inner.sim);
            }
            bound
        });

        // GetView as a nested action of the client action (which `bind` has
        // just vouched is active): the read lock on the St entry is
        // inherited and held to the client's end.
        let viewer = binding.servers.first().copied().unwrap_or(client_node);
        let probe_start = inner.sim.now().as_micros();
        let nested = inner.tx.begin_nested(action);
        let st_entry = match inner
            .naming
            .remote(viewer, Cost::READ, |ns| ns.state_db.get_view(nested, uid))
        {
            Ok(e) => {
                inner.tx.commit(nested)?;
                inner.obs.span(
                    action.raw(),
                    Phase::Probe,
                    probe_start,
                    inner.sim.now().as_micros(),
                );
                e
            }
            Err(e) => {
                inner.tx.abort(nested);
                return Err(e.into());
            }
        };

        // Fresh activation: load every bound replica from the object stores.
        // (A joined activation binds only loaded replicas by construction,
        // so `activated` already is the bound set.)
        let mut suspects = binding.dead.clone();
        if fresh {
            for &server in &binding.servers {
                let replica = inner.registry.get_or_create(&inner.sim, uid, server);
                if !replica.borrow_mut().is_loaded(&inner.sim) {
                    self.load_from_stores(uid, server, &replica, &st_entry.stores, &mut suspects)?;
                }
                activated.push((server, replica));
            }
        }
        debug_assert!(
            activated.iter().map(|(node, _)| node).eq(&binding.servers),
            "a binding is a subsequence of its candidates"
        );

        // Pin the state lineage of every bound replica: a later reload (a
        // reborn copy after a crash) bumps the incarnation, and this
        // action's invoke/commit paths refuse the mismatch instead of
        // silently losing the action's uncommitted updates.
        let incarnations = activated
            .iter()
            .map(|(server, replica)| (*server, replica.borrow().incarnation()))
            .collect();

        let comms_group =
            (inner.policy == ReplicationPolicy::Active).then(|| self.enrol(uid, fresh, activated));

        Ok(ObjectGroup(Rc::new(Activation {
            uid,
            policy: inner.policy,
            servers: binding.servers.clone(),
            st_nodes: st_entry.stores,
            comms_group,
            req,
            binding,
            suspects,
            incarnations,
            dirty: Cell::new(false),
        })))
    }

    /// Loads `replica` (at `server`) from the first store in `stores` that
    /// answers — unsuspected stores first, in `St` order, then the
    /// `suspects` (one may have recovered). A store whose read fails at the
    /// network level joins the suspects. Stores hold only committed states.
    fn load_from_stores(
        &self,
        uid: Uid,
        server: NodeId,
        replica: &ReplicaHandle,
        stores: &[NodeId],
        suspects: &mut NodeList,
    ) -> Result<(), ActivateError> {
        let inner = &self.inner;
        let suspected = suspects.clone();
        // With no suspects this is `stores` in order, scanned once.
        let retried = if suspected.is_empty() {
            &[][..]
        } else {
            stores
        };
        let unsuspected = stores.iter().filter(|src| !suspected.contains(src));
        for &src in unsuspected.chain(retried.iter().filter(|src| suspected.contains(src))) {
            match inner.stores.read_remote(server, src, uid) {
                Ok(state) => {
                    if !replica.borrow_mut().load(&inner.sim, &state, &inner.types) {
                        return Err(ActivateError::UnknownType(uid));
                    }
                    return Ok(());
                }
                Err(StoreError::Net(_)) if !suspects.contains(&src) => suspects.push(src),
                Err(_) => {}
            }
        }
        Err(ActivateError::NoState(uid))
    }

    /// Active replication: makes the object's multicast group hold exactly
    /// the bound replicas, each enrolled for its current (just pinned)
    /// incarnation, and returns the group.
    ///
    /// The group's member list is the only record of who is enrolled as
    /// what ([`groupview_group::GroupComms::holds`]), so whatever removes a
    /// member — a crash sweep, a missed delivery, passivation — also
    /// forgets its enrolment. A joined activation therefore finds its
    /// members already enrolled and builds nothing; only a member the
    /// group lost (or never had) is built and joined.
    fn enrol(&self, uid: Uid, fresh: bool, bound: &[(NodeId, ReplicaHandle)]) -> GroupId {
        let inner = &self.inner;
        let mut groups = inner.active_groups.borrow_mut();
        if fresh {
            // A fresh activation starts a new lineage, so it also gets a
            // fresh multicast group. Destroying the previous group makes
            // any action still bound to the dead activation fail its next
            // multicast outright — it must abort anyway, and this keeps its
            // operations from ever executing on the reborn replicas.
            if let Some(old) = groups.remove(&uid) {
                inner.comms.destroy_group(old);
            }
        }
        let gid = *groups
            .entry(uid)
            .or_insert_with(|| inner.comms.create_group(DeliveryMode::ReliableOrdered));
        drop(groups);
        // Evict members that are no longer part of the activation (e.g. a
        // node that crashed and recovered: it is up again, but its replica
        // lost its volatile state and must not receive operations until a
        // fresh activation reloads it).
        let _ = inner
            .comms
            .retain_members(gid, |member| bound.iter().any(|(node, _)| *node == member));
        for (server, replica) in bound {
            let incarnation = replica.borrow().incarnation();
            let enrolment = ReplicaMember::enrolment_for(replica, incarnation);
            if !inner.comms.holds(gid, *server, enrolment) {
                let member =
                    ReplicaMember::new(&inner.sim, &inner.wire, replica.clone(), incarnation);
                let _ = inner
                    .comms
                    .join(gid, *server, Rc::new(RefCell::new(member)));
            }
        }
        gid
    }
}
