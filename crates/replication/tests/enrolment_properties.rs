//! Pins the reuse-what-is-enrolled activation to the enrolment it
//! replaced. The old activation rebuilt the object's multicast group every
//! time: read the view, `leave` every member that was not bound, then
//! build a new member for every bound replica and `join` it. Over random
//! activate / invoke / crash / recover / passivate / migrate sequences, the
//! real group — which now only evicts and only enrols what it lacks — must
//! hold the same members, in the same order, standing for the same
//! `(node, replica handle, incarnation)` triples as a shadow group that is
//! driven by exactly that old procedure.

use groupview_group::{DeliveryMode, Enrolment, GroupComms, GroupId, GroupMember};
use groupview_membership::Membership;
use groupview_replication::{
    Client, Counter, CounterOp, ObjectGroup, ObjectType, ReplicationPolicy, ServerReplica, System,
};
use groupview_sim::{Bytes, NodeId};
use groupview_store::Uid;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

type ReplicaHandle = Rc<RefCell<ServerReplica>>;

/// The shadow group's member: stands for one replica at one incarnation
/// (and, like the real member, owns the replica it names by address).
struct Standing {
    replica: ReplicaHandle,
    incarnation: u64,
}

fn stands_for(replica: &ReplicaHandle, incarnation: u64) -> Enrolment {
    Enrolment {
        target: Rc::as_ptr(replica) as *const () as usize,
        incarnation,
    }
}

impl GroupMember for Standing {
    fn deliver(&mut self, _seq: u64, _msg: &Bytes) -> Bytes {
        Bytes::from_static(b"")
    }

    fn enrolment(&self) -> Option<Enrolment> {
        Some(stands_for(&self.replica, self.incarnation))
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// naming at 0; every object starts on servers/stores 1..=3; 4 and 5 are
/// spare hosts for migration; the client runs at 6.
const NODES: usize = 7;
const HOSTS: u32 = 5;

/// How an activation arrived at its group.
#[derive(Debug, PartialEq)]
enum Activated {
    /// A passive object: new lineage, new group.
    Fresh,
    /// Joined the existing activation and its group.
    Joined,
    /// Binding failed; the action was aborted.
    Refused,
}

struct World {
    sys: System,
    membership: Membership,
    client: Client,
    uids: Vec<Uid>,
    shadow: GroupComms,
    /// Per object: the real group being mirrored, and its shadow.
    shadows: Vec<Option<(GroupId, GroupId)>>,
}

impl World {
    fn new(seed: u64) -> World {
        let sys = System::builder(seed)
            .nodes(NODES)
            .policy(ReplicationPolicy::Active)
            .build();
        let homes = [n(1), n(2), n(3)];
        let uids = (0..2)
            .map(|i| {
                sys.create_typed(Counter::new(i), &homes, &homes)
                    .expect("create")
                    .uid()
            })
            .collect();
        World {
            membership: Membership::new(&sys),
            client: sys.client(n(6)),
            shadow: GroupComms::new(sys.sim()),
            shadows: vec![None, None],
            uids,
            sys,
        }
    }

    /// The old enrolment, verbatim, against the shadow group.
    fn rebuild(&self, gid: GroupId, bound: &ObjectGroup) {
        for member in self.shadow.view(gid).expect("shadow group").members {
            if !bound.servers.contains(&member) {
                self.shadow.leave(gid, member).expect("shadow group");
            }
        }
        for &server in &bound.servers {
            let replica = self.sys.registry().get(bound.uid, server).expect("bound");
            let incarnation = replica.borrow().incarnation();
            let member = Standing {
                replica,
                incarnation,
            };
            self.shadow
                .join(gid, server, Rc::new(RefCell::new(member)))
                .expect("shadow group");
        }
    }

    /// One client action on object `obj`: activate, compare the real group
    /// with the rebuilt shadow, invoke, then commit or abort.
    fn action(&mut self, obj: usize, commit: bool) -> Result<Activated, String> {
        let uid = self.uids[obj];
        let action = self.client.begin_action();
        let Ok(bound) = self.client.activate(action, uid, 3) else {
            self.client.abort(action);
            return Ok(Activated::Refused);
        };
        let real = bound.multicast_group().expect("active policy");
        // A new real group is a fresh activation; the old procedure
        // destroyed and recreated its group then, too.
        let arrived = match self.shadows[obj] {
            Some((mirrored, _)) if mirrored == real => Activated::Joined,
            stale => {
                if let Some((_, group)) = stale {
                    self.shadow.destroy_group(group);
                }
                let group = self.shadow.create_group(DeliveryMode::ReliableOrdered);
                self.shadows[obj] = Some((real, group));
                Activated::Fresh
            }
        };
        let (_, group) = self.shadows[obj].expect("just set");
        self.rebuild(group, &bound);

        let expected = self.shadow.view(group).expect("shadow group").members;
        let held = self.sys.comms().view(real).expect("real group").members;
        if held != expected || held != bound.servers {
            return Err(format!(
                "{arrived:?}: group holds {held:?}, rebuilding yields {expected:?}, bound {:?}",
                bound.servers
            ));
        }
        for &server in &held {
            let replica = self.sys.registry().get(uid, server).expect("bound");
            let triple = stands_for(&replica, replica.borrow().incarnation());
            assert!(
                self.shadow.holds(group, server, triple),
                "shadow is rebuilt"
            );
            if !self.sys.comms().holds(real, server, triple) {
                return Err(format!(
                    "{arrived:?}: {server} is enrolled for another replica or incarnation"
                ));
            }
        }

        // The invocation sweeps dead members out of the real group (the
        // old code did too): mirror the sweep.
        let invoked = self
            .client
            .invoke(action, &bound, &[Counter::op_vec(&CounterOp::Add(1))]);
        let _ = self.shadow.prune_dead_members(group);
        if invoked.is_ok() && commit {
            let _ = self.client.commit(action);
        } else {
            self.client.abort(action);
        }
        Ok(arrived)
    }
}

/// The cases the property must reach, scripted so that none is left to
/// chance: a joined activation that reuses every member, one that evicts a
/// crashed-and-recovered server, a fresh group after passivation, and a
/// joined activation around a migrated-away replica.
#[test]
fn scripted_lifecycle_reaches_every_enrolment_case() {
    let mut w = World::new(1993);
    assert_eq!(w.action(0, true), Ok(Activated::Fresh));
    assert_eq!(w.action(0, true), Ok(Activated::Joined));
    assert_eq!(w.action(0, false), Ok(Activated::Joined), "abort path");

    // A server dies and comes back without its volatile state: the next
    // activation joins the two survivors and keeps the reborn node out.
    w.sys.sim().crash(n(2));
    assert_eq!(w.action(0, true), Ok(Activated::Joined));
    w.sys.recovery().recover_node(n(2));
    assert_eq!(w.action(0, true), Ok(Activated::Joined));
    let (real, _) = w.shadows[0].expect("mirrored");
    assert_eq!(w.sys.comms().view(real).unwrap().members, vec![n(1), n(3)]);

    // Passivation destroys the group; the next activation is a new lineage.
    assert!(w.sys.try_passivate(w.uids[0]));
    assert_eq!(w.action(0, true), Ok(Activated::Fresh));
    assert_eq!(w.action(0, true), Ok(Activated::Joined));

    // A quiescent replica migrates away under a live activation.
    w.membership
        .migrate(w.uids[0], n(1), n(4))
        .expect("migrate");
    assert_eq!(w.action(0, true), Ok(Activated::Joined));
    let (real, _) = w.shadows[0].expect("mirrored");
    assert_eq!(w.sys.comms().view(real).unwrap().members, vec![n(2), n(3)]);
    assert!(w.sys.try_passivate(w.uids[0]));
    assert_eq!(w.action(0, true), Ok(Activated::Fresh));
    let (real, _) = w.shadows[0].expect("mirrored");
    assert_eq!(
        w.sys.comms().view(real).unwrap().members,
        vec![n(2), n(3), n(4)]
    );

    // The other object never moved.
    assert_eq!(w.action(1, true), Ok(Activated::Fresh));
    assert_eq!(w.action(1, true), Ok(Activated::Joined));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn the_group_holds_what_rebuilding_it_every_time_would(
        steps in prop::collection::vec((0u8..10, 0usize..2, 1u32..=HOSTS, 1u32..=HOSTS), 1..60),
        seed in 0u64..1_000,
    ) {
        let mut w = World::new(seed);
        for &(kind, obj, a, b) in &steps {
            match kind {
                0..=4 => {
                    let checked = w.action(obj, kind != 4);
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
                5 | 6 => w.sys.sim().crash(n(a)),
                7 => {
                    w.sys.recovery().recover_node(n(a));
                }
                8 => {
                    w.sys.try_passivate(w.uids[obj]);
                }
                _ => {
                    let _ = w.membership.migrate(w.uids[obj], n(a), n(b));
                }
            }
        }
    }
}
