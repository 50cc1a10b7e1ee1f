//! Two-phase-commit participants.

use groupview_sim::{Cause, NetError, NodeId, Sim};
use groupview_store::{ObjectState, Stores, TxToken, Uid};
use std::fmt;

/// Why a participant's prepare phase failed — the *source* of a store-write
/// failure, so a commit error can tell a crashed/unreachable store from a
/// store that refused the write locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareFault {
    /// The store node could not be reached (down, partitioned, or the
    /// message was lost).
    Net(NetError),
    /// The store was reachable but refused to stage the write.
    Refused(NodeId),
}

impl PrepareFault {
    /// An unreachable store is a failure; a write the store refused is
    /// [`Cause::Invalid`].
    pub fn cause(&self) -> Cause {
        match self {
            PrepareFault::Net(e) => e.cause(),
            PrepareFault::Refused(_) => Cause::Invalid,
        }
    }
}

impl fmt::Display for PrepareFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareFault::Net(e) => write!(f, "store unreachable: {e}"),
            PrepareFault::Refused(n) => write!(f, "store on {n} refused the write"),
        }
    }
}

/// A two-phase-commit participant: installs new object states into one
/// node's stable store.
///
/// The action manager drives participants through
/// [`StoreWriteParticipant::try_prepare`] (phase 1, durable) and then
/// [`StoreWriteParticipant::commit`] or [`StoreWriteParticipant::abort`]
/// (phase 2), holding them by value in the action's record. A participant
/// whose node crashes between the phases is left *in doubt*; its recovery
/// consults the coordinator's decision record
/// ([`crate::TxSystem::decision`]).
///
/// Commit processing in the paper copies the state of a modified object "to
/// the object stores of all the nodes ∈ StA" (§3.2 case 2); the replication
/// layer creates one `StoreWriteParticipant` per store node. Prepare writes
/// the store's intent log; commit installs; both go over the simulated
/// network unless the store is on the coordinator's own node.
///
/// A participant prepares **at most once**: the first prepare moves the
/// write-set into the store's intent log, and any later prepare repeats
/// the first outcome without a message or a stable write. So a caller may
/// stage the writes early (the replication layer's commit-time copy does)
/// and still register the participant with the action's two-phase commit.
#[derive(Debug)]
pub struct StoreWriteParticipant {
    sim: Sim,
    stores: Stores,
    coordinator: NodeId,
    target: NodeId,
    token: TxToken,
    /// The write-set, until the prepare hands it to the store.
    writes: Vec<(Uid, ObjectState)>,
    /// The outcome of the one prepare, once it has run.
    prepared: Option<Result<(), PrepareFault>>,
}

impl StoreWriteParticipant {
    /// Creates a participant installing `writes` on `target`'s store, with
    /// two-phase-commit messages sent from `coordinator`.
    pub fn new(
        sim: &Sim,
        stores: &Stores,
        coordinator: NodeId,
        target: NodeId,
        token: TxToken,
        writes: Vec<(Uid, ObjectState)>,
    ) -> Self {
        StoreWriteParticipant {
            sim: sim.clone(),
            stores: stores.clone(),
            coordinator,
            target,
            token,
            writes,
            prepared: None,
        }
    }

    fn wire_size(&self) -> usize {
        self.writes
            .iter()
            .map(|(_, s)| s.wire_size())
            .sum::<usize>()
            + 24
    }

    fn is_local(&self) -> bool {
        self.coordinator == self.target
    }

    /// Phase 1: durably stages the writes, reporting *why* a failure
    /// happened, so the caller can distinguish an unreachable store from a
    /// refused write (any failure vetoes the commit). Only the first call
    /// stages anything; later calls return its outcome.
    ///
    /// # Errors
    ///
    /// [`PrepareFault::Net`] when the store node could not be reached,
    /// [`PrepareFault::Refused`] when it rejected the staged write.
    pub fn try_prepare(&mut self) -> Result<(), PrepareFault> {
        if let Some(outcome) = self.prepared {
            return outcome;
        }
        let outcome = self.stage();
        self.prepared = Some(outcome);
        outcome
    }

    /// Hands the write-set to the target store's intent log.
    fn stage(&mut self) -> Result<(), PrepareFault> {
        let bytes = self.wire_size();
        let writes = std::mem::take(&mut self.writes);
        let target = self.target;
        if self.is_local() {
            return self
                .stores
                .prepare_local(target, self.token, writes)
                .map_err(|_| PrepareFault::Refused(target));
        }
        let stores = self.stores.clone();
        let token = self.token;
        match self
            .sim
            .rpc(self.coordinator, self.target, bytes, 16, move || {
                stores.prepare_local(target, token, writes).is_ok()
            }) {
            Ok(true) => Ok(()),
            Ok(false) => Err(PrepareFault::Refused(target)),
            Err(e) => Err(PrepareFault::Net(e)),
        }
    }

    /// The node this participant's durable state lives on.
    pub fn node(&self) -> NodeId {
        self.target
    }

    /// Phase 2: makes the staged writes permanent. Returns `false` when the
    /// store was unreachable — the decision stands and recovery will finish
    /// the job.
    pub fn commit(&mut self) -> bool {
        if self.is_local() {
            return self.stores.commit_local(self.target, self.token).is_ok();
        }
        let stores = self.stores.clone();
        let target = self.target;
        let token = self.token;
        self.sim
            .rpc(self.coordinator, self.target, 24, 16, move || {
                stores.commit_local(target, token).is_ok()
            })
            .unwrap_or(false)
    }

    /// Phase 2 alternative: discards the staged writes (best effort;
    /// presumed abort makes lost messages harmless).
    pub fn abort(&mut self) {
        if self.is_local() {
            let _ = self.stores.abort_local(self.target, self.token);
            return;
        }
        let stores = self.stores.clone();
        let target = self.target;
        let token = self.token;
        let _ = self
            .sim
            .rpc(self.coordinator, self.target, 24, 16, move || {
                let _ = stores.abort_local(target, token);
            });
    }
}

/// Unboxes a participant. The action record holds participants by value;
/// this conversion exists only so that callers which enlist
/// `Box::new(participant)` — the benchmark harness's 2PC probe in
/// `benchmark/src/probes.rs` does — keep compiling.
impl From<Box<StoreWriteParticipant>> for StoreWriteParticipant {
    fn from(boxed: Box<StoreWriteParticipant>) -> Self {
        *boxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_sim::SimConfig;
    use groupview_store::{StoreError, TypeTag};

    fn world() -> (Sim, Stores) {
        let sim = Sim::new(SimConfig::new(4).with_nodes(3));
        let stores = Stores::new(&sim);
        stores.add_store(NodeId::new(0));
        stores.add_store(NodeId::new(1));
        (sim, stores)
    }

    fn state(b: &[u8]) -> ObjectState {
        ObjectState::initial(TypeTag::new(1), b.to_vec())
    }

    #[test]
    fn remote_prepare_commit_installs() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(1);
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(1),
            TxToken::new(5),
            vec![(uid, state(b"x"))],
        );
        assert_eq!(p.try_prepare(), Ok(()));
        assert_eq!(
            stores.read_local(NodeId::new(1), uid),
            Err(StoreError::NotFound(uid)),
            "prepared but not installed"
        );
        assert!(p.commit());
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"x");
        assert_eq!(p.node(), NodeId::new(1));
    }

    #[test]
    fn local_participant_skips_the_network() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(2);
        let before = sim.counters().delivered;
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(0),
            TxToken::new(6),
            vec![(uid, state(b"y"))],
        );
        assert_eq!(p.try_prepare(), Ok(()));
        assert!(p.commit());
        assert_eq!(
            sim.counters().delivered,
            before,
            "no messages for local store"
        );
        assert_eq!(stores.read_local(NodeId::new(0), uid).unwrap().data, b"y");
    }

    #[test]
    fn prepare_fails_when_target_down() {
        let (sim, stores) = world();
        sim.crash(NodeId::new(1));
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(1),
            TxToken::new(7),
            vec![(Uid::from_raw(3), state(b"z"))],
        );
        let fault = p.try_prepare().expect_err("target is down");
        assert!(matches!(fault, PrepareFault::Net(_)), "{fault}");
    }

    #[test]
    fn try_prepare_reports_refusal_distinctly() {
        let (sim, stores) = world();
        // Node 2 has no store: the prepare is delivered but refused locally.
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(2),
            TxToken::new(11),
            vec![(Uid::from_raw(4), state(b"q"))],
        );
        let fault = p.try_prepare().expect_err("no store at node 2");
        assert_eq!(fault, PrepareFault::Refused(NodeId::new(2)));
        assert!(fault.to_string().contains("refused"));
    }

    #[test]
    fn a_second_prepare_stages_nothing_and_keeps_the_first() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(6);
        let target = NodeId::new(1);
        let token = TxToken::new(10);
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            target,
            token,
            vec![(uid, state(b"once"))],
        );
        assert_eq!(p.try_prepare(), Ok(()));
        let (delivered, now) = (sim.counters().delivered, sim.now());
        assert_eq!(p.try_prepare(), Ok(()));
        assert_eq!(p.try_prepare(), Ok(()));
        assert_eq!(sim.counters().delivered, delivered, "no message sent");
        assert_eq!(sim.now(), now, "no stable write charged");
        // The staged write-set is still the first one, and commits whole.
        assert_eq!(stores.with(target, |s| s.indoubt()).unwrap(), vec![token]);
        assert!(p.commit());
        assert_eq!(stores.read_local(target, uid).unwrap().data, b"once");
    }

    #[test]
    fn abort_discards_prepared_writes() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(4);
        stores
            .write_local(NodeId::new(1), uid, state(b"old"))
            .unwrap();
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(1),
            TxToken::new(8),
            vec![(uid, state(b"new"))],
        );
        assert_eq!(p.try_prepare(), Ok(()));
        p.abort();
        assert_eq!(stores.read_local(NodeId::new(1), uid).unwrap().data, b"old");
        assert!(stores
            .with(NodeId::new(1), |s| s.indoubt())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn crash_between_phases_leaves_indoubt() {
        let (sim, stores) = world();
        let uid = Uid::from_raw(5);
        let mut p = StoreWriteParticipant::new(
            &sim,
            &stores,
            NodeId::new(0),
            NodeId::new(1),
            TxToken::new(9),
            vec![(uid, state(b"w"))],
        );
        assert_eq!(p.try_prepare(), Ok(()));
        sim.crash(NodeId::new(1));
        assert!(!p.commit(), "commit attempt fails, decision stands");
        sim.recover(NodeId::new(1));
        assert_eq!(
            stores.with(NodeId::new(1), |s| s.indoubt()).unwrap(),
            vec![TxToken::new(9)]
        );
    }
}
