//! Multicast machinery: the group table and the two delivery protocols.

use crate::error::GroupError;
use crate::member::{Enrolment, GroupMember};
use crate::view::{GroupId, View};
use groupview_sim::{Bytes, IdMap, NodeId, Sim};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Which multicast protocol a group uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Total order + survivor atomicity (relay on sender crash). What the
    /// paper requires for replica groups.
    ReliableOrdered,
    /// Independent best-effort sends; partial delivery on failure. Exists to
    /// reproduce the paper's Figure 1 divergence (experiment E1).
    Unreliable,
}

/// Statistics for one group's multicast traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MulticastStats {
    /// Multicasts attempted.
    pub multicasts: u64,
    /// Multicasts for which at least one live member did not receive the
    /// message (possible only in [`DeliveryMode::Unreliable`], or when a
    /// member crashed concurrently).
    pub partial_deliveries: u64,
    /// Relay rounds performed by the reliable protocol.
    pub relays: u64,
    /// View changes (joins, leaves, crash evictions).
    pub view_changes: u64,
}

/// Result of one multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastOutcome {
    /// The total-order sequence number assigned to the message.
    pub seq: u64,
    /// Members that delivered the message, with their reply buffers
    /// (cloning an entry is a refcount bump, not a copy).
    pub replies: Vec<(NodeId, Bytes)>,
    /// Live members that did *not* deliver (divergence candidates).
    pub missed: Vec<NodeId>,
    /// Whether a relay round was needed (reliable mode only).
    pub relayed: bool,
}

/// Emptied reply lists kept per thread for the next multicast.
const MAX_SPARE_REPLY_LISTS: usize = 8;

thread_local! {
    /// Reply lists handed back by dropped outcomes, empty but with their
    /// capacity, so a steady multicast stream allocates no list. The same
    /// pattern as the wire layer's frame pool.
    static SPARE_REPLY_LISTS: RefCell<Vec<Vec<(NodeId, Bytes)>>> =
        const { RefCell::new(Vec::new()) };
}

/// Hands the reply list back to this thread's spares; the reply buffers
/// themselves are released (and recycled by the wire layer).
impl Drop for MulticastOutcome {
    fn drop(&mut self) {
        let mut replies = std::mem::take(&mut self.replies);
        if replies.capacity() == 0 {
            return;
        }
        replies.clear();
        let _ = SPARE_REPLY_LISTS.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() < MAX_SPARE_REPLY_LISTS {
                spares.push(replies);
            }
        });
    }
}

type MemberHandle = Rc<RefCell<dyn GroupMember>>;

/// One enrolled member: the node it runs at, what it stands for (read
/// from [`GroupMember::enrolment`] when it joined), and its handle.
struct Member {
    node: NodeId,
    enrolment: Option<Enrolment>,
    handle: MemberHandle,
}

struct GroupState {
    /// The view number; the view's members are `members`' nodes.
    view_id: u64,
    mode: DeliveryMode,
    /// The enrolled members in joining order — the view, the delivery
    /// order of the total-order multicast, and the only record of who
    /// handles a node's deliveries.
    members: Vec<Member>,
    next_seq: u64,
    stats: MulticastStats,
}

struct CommsInner {
    groups: IdMap<GroupId, GroupState>,
    next_group: u64,
    /// The member-handle snapshot a multicast delivers to, kept between
    /// calls for its capacity. A multicast takes it and puts it back
    /// empty; a nested multicast finds it taken and builds its own.
    targets: Vec<(NodeId, MemberHandle)>,
}

/// The group-communication service.
///
/// Cloneable handle, one per world. Groups are created with a
/// [`DeliveryMode`]; members join with a [`GroupMember`] handle; senders
/// multicast by group id.
#[derive(Clone)]
pub struct GroupComms {
    sim: Sim,
    inner: Rc<RefCell<CommsInner>>,
}

impl fmt::Debug for GroupComms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupComms")
            .field("groups", &self.inner.borrow().groups.len())
            .finish()
    }
}

impl GroupComms {
    /// Creates the service for a world.
    pub fn new(sim: &Sim) -> GroupComms {
        GroupComms {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(CommsInner {
                groups: IdMap::default(),
                next_group: 1,
                targets: Vec::new(),
            })),
        }
    }

    /// Creates an empty group with the given delivery mode.
    pub fn create_group(&self, mode: DeliveryMode) -> GroupId {
        let mut inner = self.inner.borrow_mut();
        let id = GroupId::from_raw(inner.next_group);
        inner.next_group += 1;
        inner.groups.insert(
            id,
            GroupState {
                view_id: 0,
                mode,
                members: Vec::new(),
                next_seq: 1,
                stats: MulticastStats::default(),
            },
        );
        id
    }

    /// Destroys a group entirely (object passivation).
    pub fn destroy_group(&self, group: GroupId) {
        self.inner.borrow_mut().groups.remove(&group);
    }

    /// Runs `f` on the group's state.
    fn with_group<R>(
        &self,
        group: GroupId,
        f: impl FnOnce(&mut GroupState) -> R,
    ) -> Result<R, GroupError> {
        self.inner
            .borrow_mut()
            .groups
            .get_mut(&group)
            .map(f)
            .ok_or(GroupError::UnknownGroup(group))
    }

    /// Adds `node` to the group, handling its deliveries with `member`.
    /// Re-joining replaces the previous handle without a view change.
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn join(
        &self,
        group: GroupId,
        node: NodeId,
        member: MemberHandle,
    ) -> Result<(), GroupError> {
        let enrolment = member.borrow().enrolment();
        self.with_group(group, |g| {
            let joining = Member {
                node,
                enrolment,
                handle: member,
            };
            match g.members.iter_mut().find(|m| m.node == node) {
                Some(held) => *held = joining,
                None => {
                    g.members.push(joining);
                    g.view_id += 1;
                    g.stats.view_changes += 1;
                }
            }
        })
    }

    /// Whether the group's member at `node` joined standing for
    /// `enrolment` — an equivalent member need not be built and joined
    /// again. `false` for unknown groups and for nodes not in the view.
    pub fn holds(&self, group: GroupId, node: NodeId, enrolment: Enrolment) -> bool {
        self.inner.borrow().groups.get(&group).is_some_and(|g| {
            g.members
                .iter()
                .any(|m| m.node == node && m.enrolment == Some(enrolment))
        })
    }

    /// Removes `node` from the group.
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn leave(&self, group: GroupId, node: NodeId) -> Result<(), GroupError> {
        self.retain_members(group, |m| m != node)
    }

    /// Evicts every member `keep` rejects, one view change per eviction.
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn retain_members(
        &self,
        group: GroupId,
        keep: impl Fn(NodeId) -> bool,
    ) -> Result<(), GroupError> {
        self.with_group(group, |g| {
            let before = g.members.len();
            g.members.retain(|m| keep(m.node));
            let evicted = (before - g.members.len()) as u64;
            g.view_id += evicted;
            g.stats.view_changes += evicted;
        })
    }

    /// The group's current view (tests and introspection; protocol paths
    /// never need the copy).
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn view(&self, group: GroupId) -> Result<View, GroupError> {
        self.with_group(group, |g| View {
            id: g.view_id,
            members: g.members.iter().map(|m| m.node).collect(),
        })
    }

    /// Evicts crashed members from the view (failure-detector sweep),
    /// returning the possibly updated view.
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn refresh_view(&self, group: GroupId) -> Result<View, GroupError> {
        self.prune_dead_members(group)?;
        self.view(group)
    }

    /// The eviction half of [`GroupComms::refresh_view`], for callers that
    /// do not need the view: the per-invocation fast path allocates
    /// nothing. However many members died, the sweep is one view change.
    ///
    /// # Errors
    ///
    /// [`GroupError::UnknownGroup`] if the group does not exist.
    pub fn prune_dead_members(&self, group: GroupId) -> Result<(), GroupError> {
        self.with_group(group, |g| {
            let before = g.members.len();
            g.members.retain(|m| self.sim.is_up(m.node));
            if g.members.len() != before {
                g.view_id += 1;
                g.stats.view_changes += 1;
            }
        })
    }

    /// Statistics for a group (zeroes for unknown groups).
    pub fn stats(&self, group: GroupId) -> MulticastStats {
        self.inner
            .borrow()
            .groups
            .get(&group)
            .map(|g| g.stats)
            .unwrap_or_default()
    }

    /// Multicasts `msg` from `from` to every member of `group`, according
    /// to the group's delivery mode. `from` need not be a member.
    ///
    /// The fan-out is zero-copy: every member's `deliver` receives a
    /// reference to the *same* shared buffer, however large the group. On
    /// the virtual clock the members' deliveries overlap (one
    /// [`Sim::fork`] branch each, relay included): the call costs the
    /// slowest member's round trip, while every member's messages are
    /// still sent and counted.
    ///
    /// In reliable-ordered mode the call guarantees that every member that
    /// is still up when the call returns has delivered the message (relaying
    /// through a receiving member if `from` crashed mid-spray), all with the
    /// same sequence number. In unreliable mode each member is tried once.
    ///
    /// # Errors
    ///
    /// [`GroupError::SenderDown`] if `from` is down at call time,
    /// [`GroupError::UnknownGroup`], or [`GroupError::NoLiveMembers`] if no
    /// member is reachable.
    pub fn multicast(
        &self,
        group: GroupId,
        from: NodeId,
        msg: &Bytes,
    ) -> Result<MulticastOutcome, GroupError> {
        if !self.sim.is_up(from) {
            return Err(GroupError::SenderDown(from));
        }
        // Snapshot what we need, then release the borrow: member handlers
        // must be free to use the simulator.
        let (mode, seq, mut targets) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let g = inner
                .groups
                .get_mut(&group)
                .ok_or(GroupError::UnknownGroup(group))?;
            let seq = g.next_seq;
            g.next_seq += 1;
            g.stats.multicasts += 1;
            let mut targets = std::mem::take(&mut inner.targets);
            targets.extend(g.members.iter().map(|m| (m.node, m.handle.clone())));
            (g.mode, seq, targets)
        };

        let mut replies = SPARE_REPLY_LISTS
            .with(|spares| spares.borrow_mut().pop())
            .unwrap_or_default();
        let mut missed = Vec::new();
        let mut relayed = false;

        // One multicast: every member's delivery, relay and ack overlap, so
        // the spray costs its slowest member.
        let mut fork = self.sim.fork();
        for (node, handle) in &targets {
            self.sim.branch(&mut fork);
            let delivered = match self.sim.deliver(from, *node, msg.wire_size()) {
                Ok(_) => true,
                Err(_) if mode == DeliveryMode::ReliableOrdered => {
                    // Sender may have crashed mid-spray, or the link failed.
                    // Relay through any member that already has the message.
                    if let Some(&(relay, _)) = replies
                        .iter()
                        .map(|(n, _): &(NodeId, Bytes)| n)
                        .find(|&&r| self.sim.is_up(r))
                        .map(|n| targets.iter().find(|(tn, _)| tn == n).expect("is a target"))
                    {
                        match self.sim.deliver(relay, *node, msg.wire_size()) {
                            Ok(_) => {
                                relayed = true;
                                true
                            }
                            Err(_) => false,
                        }
                    } else {
                        false
                    }
                }
                Err(_) => false,
            };
            if delivered {
                // Every member sees the same shared buffer — no per-member
                // payload clone, regardless of cohort size.
                let reply = handle.borrow_mut().deliver(seq, msg);
                // Reply/ack back to the sender; losing it does not undo the
                // delivery (that asymmetry is the whole point of Figure 1).
                let _ = self.sim.deliver(*node, from, reply.wire_size());
                replies.push((*node, reply));
            } else if self.sim.is_up(*node) {
                missed.push(*node);
            }
        }
        self.sim.join(fork);

        {
            let mut inner = self.inner.borrow_mut();
            targets.clear();
            inner.targets = targets;
            if let Some(g) = inner.groups.get_mut(&group) {
                if !missed.is_empty() {
                    g.stats.partial_deliveries += 1;
                }
                if relayed {
                    g.stats.relays += 1;
                }
            }
        }

        let outcome = MulticastOutcome {
            seq,
            replies,
            missed,
            relayed,
        };
        if outcome.replies.is_empty() {
            return Err(GroupError::NoLiveMembers(group));
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::RecordingMember;
    use groupview_sim::{NetConfig, SimConfig, SimDuration};

    fn world() -> (Sim, GroupComms) {
        let sim = Sim::new(SimConfig::new(11).with_nodes(5));
        let comms = GroupComms::new(&sim);
        (sim, comms)
    }

    fn join_recording(
        comms: &GroupComms,
        g: GroupId,
        node: NodeId,
    ) -> Rc<RefCell<RecordingMember>> {
        let m = Rc::new(RefCell::new(RecordingMember::default()));
        comms.join(g, node, m.clone()).unwrap();
        m
    }

    #[test]
    fn a_multicast_costs_the_slowest_round_trip_not_the_sum() {
        let rtt = |jitter: u64| {
            let net = NetConfig {
                jitter: SimDuration::from_micros(jitter),
                ..NetConfig::default()
            };
            let sim = Sim::new(SimConfig::new(11).with_nodes(4).with_net(net));
            let comms = GroupComms::new(&sim);
            let g = comms.create_group(DeliveryMode::ReliableOrdered);
            for i in 1..4 {
                join_recording(&comms, g, NodeId::new(i));
            }
            let before = (sim.now(), sim.counters().delivered);
            let out = comms
                .multicast(g, NodeId::new(0), &Bytes::from_static(b"op"))
                .unwrap();
            assert_eq!(out.replies.len(), 3);
            assert_eq!(sim.counters().delivered - before.1, 6, "every message sent");
            sim.now().since(before.0).as_micros()
        };
        let base = NetConfig::default().base_latency.as_micros();
        assert_eq!(rtt(0), 2 * base, "one round trip, not three");
        // With jitter, the slowest member's round trip: above one fixed
        // round trip, at most one jittered round trip.
        let jitter = NetConfig::default().jitter.as_micros();
        let charged = rtt(jitter);
        assert!((2 * base..=2 * (base + jitter)).contains(&charged));
    }

    #[test]
    fn reliable_multicast_reaches_all_members_in_order() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        let m1 = join_recording(&comms, g, NodeId::new(1));
        let m2 = join_recording(&comms, g, NodeId::new(2));
        let out1 = comms
            .multicast(g, NodeId::new(0), &Bytes::from_static(b"op1"))
            .unwrap();
        let out2 = comms
            .multicast(g, NodeId::new(0), &Bytes::from_static(b"op2"))
            .unwrap();
        assert_eq!(out1.seq, 1);
        assert_eq!(out2.seq, 2);
        assert_eq!(out1.replies.len(), 2);
        assert!(out1.missed.is_empty());
        assert_eq!(
            m1.borrow().log,
            m2.borrow().log,
            "identical order everywhere"
        );
        assert_eq!(m1.borrow().log.len(), 2);
    }

    #[test]
    fn figure1_unreliable_sender_crash_diverges() {
        // GA = {A1, A2}; B replies and crashes after reaching only A1.
        let (sim, comms) = world();
        let ga = comms.create_group(DeliveryMode::Unreliable);
        let a1 = join_recording(&comms, ga, NodeId::new(1));
        let a2 = join_recording(&comms, ga, NodeId::new(2));
        let b = NodeId::new(3);
        sim.crash_after_sends(b, 1);
        let out = comms
            .multicast(ga, b, &Bytes::from_static(b"reply"))
            .unwrap();
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.missed, vec![NodeId::new(2)]);
        assert_eq!(a1.borrow().log.len(), 1);
        assert_eq!(a2.borrow().log.len(), 0, "A2 diverged from A1");
        assert_eq!(comms.stats(ga).partial_deliveries, 1);
    }

    #[test]
    fn figure1_reliable_sender_crash_relays() {
        // Same scenario with the reliable protocol: A1 relays to A2.
        let (sim, comms) = world();
        let ga = comms.create_group(DeliveryMode::ReliableOrdered);
        let a1 = join_recording(&comms, ga, NodeId::new(1));
        let a2 = join_recording(&comms, ga, NodeId::new(2));
        let b = NodeId::new(3);
        sim.crash_after_sends(b, 1);
        let out = comms
            .multicast(ga, b, &Bytes::from_static(b"reply"))
            .unwrap();
        assert!(out.relayed);
        assert!(out.missed.is_empty());
        assert_eq!(a1.borrow().log, a2.borrow().log, "no divergence");
        assert_eq!(comms.stats(ga).relays, 1);
        assert_eq!(comms.stats(ga).partial_deliveries, 0);
    }

    #[test]
    fn crashed_member_is_skipped_then_evicted() {
        let (sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        let m1 = join_recording(&comms, g, NodeId::new(1));
        let _m2 = join_recording(&comms, g, NodeId::new(2));
        sim.crash(NodeId::new(2));
        let out = comms
            .multicast(g, NodeId::new(0), &Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(out.replies.len(), 1);
        assert!(out.missed.is_empty(), "a dead member is not 'missed'");
        assert_eq!(m1.borrow().log.len(), 1);
        let v = comms.refresh_view(g).unwrap();
        assert_eq!(v.members, vec![NodeId::new(1)]);
        assert_eq!(comms.stats(g).view_changes, 3, "2 joins + 1 eviction");
    }

    #[test]
    fn no_live_members_is_an_error() {
        let (sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        let _m = join_recording(&comms, g, NodeId::new(1));
        sim.crash(NodeId::new(1));
        assert_eq!(
            comms.multicast(g, NodeId::new(0), &Bytes::from_static(b"x")),
            Err(GroupError::NoLiveMembers(g))
        );
        // Empty group too:
        let g2 = comms.create_group(DeliveryMode::ReliableOrdered);
        assert_eq!(
            comms.multicast(g2, NodeId::new(0), &Bytes::from_static(b"x")),
            Err(GroupError::NoLiveMembers(g2))
        );
    }

    #[test]
    fn sender_down_and_unknown_group_errors() {
        let (sim, comms) = world();
        let g = comms.create_group(DeliveryMode::Unreliable);
        sim.crash(NodeId::new(0));
        assert_eq!(
            comms.multicast(g, NodeId::new(0), &Bytes::from_static(b"x")),
            Err(GroupError::SenderDown(NodeId::new(0)))
        );
        assert_eq!(
            comms.multicast(
                GroupId::from_raw(99),
                NodeId::new(1),
                &Bytes::from_static(b"x")
            ),
            Err(GroupError::UnknownGroup(GroupId::from_raw(99)))
        );
        assert!(comms.view(GroupId::from_raw(99)).is_err());
    }

    #[test]
    fn leave_and_destroy() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        join_recording(&comms, g, NodeId::new(1));
        join_recording(&comms, g, NodeId::new(2));
        comms.leave(g, NodeId::new(1)).unwrap();
        assert_eq!(comms.view(g).unwrap().members, vec![NodeId::new(2)]);
        comms.destroy_group(g);
        assert!(comms.view(g).is_err());
    }

    #[test]
    fn membership_changes_on_an_unknown_group_are_typed_errors() {
        let (_sim, comms) = world();
        let ghost = GroupId::from_raw(99);
        let member = Rc::new(RefCell::new(RecordingMember::default()));
        assert_eq!(
            comms.join(ghost, NodeId::new(1), member),
            Err(GroupError::UnknownGroup(ghost))
        );
        assert_eq!(
            comms.leave(ghost, NodeId::new(1)),
            Err(GroupError::UnknownGroup(ghost))
        );
        assert_eq!(
            comms.retain_members(ghost, |_| true),
            Err(GroupError::UnknownGroup(ghost))
        );
        assert_eq!(
            comms.prune_dead_members(ghost),
            Err(GroupError::UnknownGroup(ghost))
        );
    }

    /// A member that stands for something, so `holds` can find it.
    struct Standing(Enrolment);

    impl GroupMember for Standing {
        fn deliver(&mut self, _seq: u64, _msg: &Bytes) -> Bytes {
            Bytes::from_static(b"ok")
        }

        fn enrolment(&self) -> Option<Enrolment> {
            Some(self.0)
        }
    }

    #[test]
    fn holds_answers_from_the_member_list_alone() {
        let (sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        let first = Enrolment {
            target: 7,
            incarnation: 1,
        };
        let reborn = Enrolment {
            target: 7,
            incarnation: 2,
        };
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        assert!(!comms.holds(g, n1, first), "empty group holds nothing");
        comms
            .join(g, n1, Rc::new(RefCell::new(Standing(first))))
            .unwrap();
        join_recording(&comms, g, n2);
        assert!(comms.holds(g, n1, first));
        assert!(!comms.holds(g, n1, reborn), "another incarnation");
        assert!(!comms.holds(g, n2, first), "another node");
        // Re-joining replaces the record along with the handle.
        comms
            .join(g, n1, Rc::new(RefCell::new(Standing(reborn))))
            .unwrap();
        assert!(comms.holds(g, n1, reborn) && !comms.holds(g, n1, first));
        // Every way out of the group forgets the record with the member.
        comms.leave(g, n1).unwrap();
        assert!(!comms.holds(g, n1, reborn));
        comms
            .join(g, n1, Rc::new(RefCell::new(Standing(first))))
            .unwrap();
        sim.crash(n1);
        comms.prune_dead_members(g).unwrap();
        assert!(!comms.holds(g, n1, first), "pruned with the dead member");
        comms
            .join(g, n2, Rc::new(RefCell::new(Standing(first))))
            .unwrap();
        comms.retain_members(g, |n| n != n2).unwrap();
        assert!(!comms.holds(g, n2, first));
        comms.destroy_group(g);
        assert!(!comms.holds(g, n2, first));
    }

    #[test]
    fn retain_members_counts_one_view_change_per_eviction() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        for i in 1..=4 {
            join_recording(&comms, g, NodeId::new(i));
        }
        comms.retain_members(g, |n| n.raw() % 2 == 0).unwrap();
        let v = comms.view(g).unwrap();
        assert_eq!(v.members, vec![NodeId::new(2), NodeId::new(4)]);
        assert_eq!(v.id, 6, "4 joins + 2 evictions, as two leaves would count");
        assert_eq!(comms.stats(g).view_changes, 6);
        comms.retain_members(g, |_| true).unwrap();
        assert_eq!(comms.view(g).unwrap().id, 6, "nothing evicted, no change");
    }

    #[test]
    fn rejoining_member_does_not_bump_view() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        join_recording(&comms, g, NodeId::new(1));
        let v1 = comms.view(g).unwrap();
        join_recording(&comms, g, NodeId::new(1));
        let v2 = comms.view(g).unwrap();
        assert_eq!(v1.id, v2.id);
        assert_eq!(v2.members.len(), 1);
    }

    #[test]
    fn a_dropped_outcome_hands_its_reply_list_to_the_next_multicast() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        for i in 1..=3 {
            join_recording(&comms, g, NodeId::new(i));
        }
        let msg = Bytes::from_static(b"m");
        let first = comms.multicast(g, NodeId::new(0), &msg).unwrap();
        let list = first.replies.as_ptr();
        let capacity = first.replies.capacity();
        drop(first);
        // Had the list been freed, the allocator would hand its memory to
        // the next request of the same size.
        let decoy: Vec<(NodeId, Bytes)> = Vec::with_capacity(capacity);
        let second = comms.multicast(g, NodeId::new(0), &msg).unwrap();
        assert_ne!(decoy.as_ptr(), list, "the list was kept, not freed");
        assert_eq!(second.replies.as_ptr(), list, "the same list, reused");
        assert_eq!(second.replies.len(), 3);
        assert_eq!(second.seq, 2);
    }

    /// Multicasts to another group from inside its own delivery.
    struct Forwarder {
        comms: GroupComms,
        onward: GroupId,
    }

    impl GroupMember for Forwarder {
        fn deliver(&mut self, _seq: u64, msg: &Bytes) -> Bytes {
            let out = self
                .comms
                .multicast(self.onward, NodeId::new(1), msg)
                .expect("nested multicast");
            out.replies[0].1.clone()
        }
    }

    #[test]
    fn a_nested_multicast_delivers_with_its_own_lists() {
        let (_sim, comms) = world();
        let outer = comms.create_group(DeliveryMode::ReliableOrdered);
        let inner = comms.create_group(DeliveryMode::ReliableOrdered);
        let far: Vec<_> = (2..=3)
            .map(|i| join_recording(&comms, inner, NodeId::new(i)))
            .collect();
        let forwarder = Forwarder {
            comms: comms.clone(),
            onward: inner,
        };
        comms
            .join(outer, NodeId::new(1), Rc::new(RefCell::new(forwarder)))
            .unwrap();
        let near = join_recording(&comms, outer, NodeId::new(4));
        for round in 1..=2u64 {
            let out = comms
                .multicast(outer, NodeId::new(0), &Bytes::from_static(b"op"))
                .unwrap();
            let replies: Vec<NodeId> = out.replies.iter().map(|(n, _)| *n).collect();
            assert_eq!(replies, vec![NodeId::new(1), NodeId::new(4)]);
            let forwarded = format!("ack{round}").into_bytes();
            assert_eq!(out.replies[0].1, forwarded, "the inner group's reply");
            assert_eq!(near.borrow().log.len() as u64, round);
            for m in &far {
                assert_eq!(m.borrow().log.len() as u64, round, "inner group reached");
            }
        }
    }

    #[test]
    fn fanout_shares_one_buffer_across_all_members() {
        let (_sim, comms) = world();
        let g = comms.create_group(DeliveryMode::ReliableOrdered);
        let members: Vec<_> = (1..=4u32)
            .map(|i| join_recording(&comms, g, NodeId::new(i)))
            .collect();
        let msg = Bytes::from(b"one-shared-frame".to_vec());
        let msg_ptr = msg.as_slice().as_ptr();
        let before = groupview_sim::wire::stats();
        let out = comms.multicast(g, NodeId::new(0), &msg).unwrap();
        let delta = groupview_sim::wire::stats().since(before);
        assert_eq!(out.replies.len(), 4);
        assert_eq!(
            delta.bytes_copied, 0,
            "zero payload copies on the fan-out path"
        );
        for m in &members {
            assert_eq!(
                m.borrow().log[0].1.as_slice().as_ptr(),
                msg_ptr,
                "every member aliases the sender's buffer"
            );
        }
    }
}
