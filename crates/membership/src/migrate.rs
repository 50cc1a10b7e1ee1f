//! Transactional replica migration.
//!
//! A migration is **one** top-level atomic action at the naming node that
//! retargets every piece of book-keeping the group-view databases hold
//! about a replica, plus the state copy itself, under two-phase commit:
//!
//! | step | table | op |
//! |---|---|---|
//! | 1 | `Sv` | `Insert(uid, to)` — carries the §4.1.2 quiescence check |
//! | 2 | `Sv` | `Remove(uid, from)` |
//! | 3 | `St` | `Include(uid, to)` |
//! | 4 | `St` | `Exclude(uid, from)` under the exclude-write lock |
//! | 5 | store | stage the latest committed state on `to` (2PC participant) |
//!
//! Because all five run under one action, a directory lookup before the
//! commit sees the old placement, after it the new one, and *never* a
//! half-moved object. An object that is in use fails step 1 with
//! `NotQuiescent` — the move aborts cleanly and the in-flight clients
//! finish on the pinned incarnation; a concurrent binder's lock makes
//! steps refuse the same way. Both surface as [`MigrateError::Busy`]:
//! retry later.
//!
//! After the commit, the old host is cleaned up *outside* the action (the
//! action's effects must be exactly its undo-logged ones): the replica
//! leaves the [`ReplicaRegistry`](groupview_replication::ReplicaRegistry),
//! the store copy is deleted, and a tombstone (`Stores::retire`) is left
//! so §4.2 recovery purges instead of resurrects if the old host was down
//! during the move (or its intent log holds an in-doubt write). Recovery
//! clears the tombstone once it has purged the copy; a live, settled
//! source gets none.

use crate::lifecycle::Membership;
use groupview_actions::{StoreWriteParticipant, TxError, TxSystem};
use groupview_core::{DbError, ExcludePolicy};
use groupview_obs::Phase;
use groupview_sim::{Cause, NodeId};
use groupview_store::{StoreError, Uid};
use std::error::Error;
use std::fmt;

/// Why a migration did not happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The source node hosts neither a server entry nor a state replica.
    NotHosted {
        /// The object.
        uid: Uid,
        /// The claimed source node.
        node: NodeId,
    },
    /// The destination already hosts the object in both `Sv` and `St`.
    AlreadyHosted {
        /// The object.
        uid: Uid,
        /// The destination node.
        node: NodeId,
    },
    /// The object is in use or its entries are locked (a database error
    /// of [`Cause::Contention`]) — the move aborted cleanly; retry once the
    /// clients finish.
    Busy(Uid),
    /// No current `St` member could supply the committed state, or the
    /// destination is down.
    Unreachable(Uid),
    /// A database error other than contention.
    Db(DbError),
    /// The surrounding action failed to commit (e.g. the destination
    /// crashed during two-phase commit's prepare).
    Commit(TxError),
}

impl MigrateError {
    /// [`Cause::Contention`] exactly for [`MigrateError::Busy`], which a
    /// later drain round or rebalance sweep retries.
    pub fn cause(&self) -> Cause {
        match self {
            MigrateError::NotHosted { .. } | MigrateError::AlreadyHosted { .. } => Cause::Invalid,
            MigrateError::Busy(_) => Cause::Contention,
            MigrateError::Unreachable(_) => Cause::Failure,
            MigrateError::Db(e) => e.cause(),
            MigrateError::Commit(e) => e.cause(),
        }
    }
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::NotHosted { uid, node } => {
                write!(f, "{uid} has no replica on {node}")
            }
            MigrateError::AlreadyHosted { uid, node } => {
                write!(f, "{uid} already fully hosted on {node}")
            }
            MigrateError::Busy(uid) => write!(f, "{uid} is in use; migration refused"),
            MigrateError::Unreachable(uid) => {
                write!(f, "no reachable state source or destination for {uid}")
            }
            MigrateError::Db(e) => write!(f, "migration database error: {e}"),
            MigrateError::Commit(e) => write!(f, "migration commit failed: {e}"),
        }
    }
}

impl Error for MigrateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MigrateError::Db(e) => Some(e),
            MigrateError::Commit(e) => Some(e),
            _ => None,
        }
    }
}

impl Membership {
    /// Moves the replica of `uid` from `from` to `to` in one atomic
    /// action, preserving the object's replication strength. See the
    /// module comment at the top of `migrate.rs` for the step-by-step protocol.
    ///
    /// # Errors
    ///
    /// [`MigrateError::Busy`] when the object is in use (retry later);
    /// [`MigrateError::Unreachable`] when no state source is reachable;
    /// the other variants for precondition and commit failures. Every
    /// error path aborts the action — the databases are untouched.
    pub fn migrate(&self, uid: Uid, from: NodeId, to: NodeId) -> Result<(), MigrateError> {
        let sys = &self.sys;
        let naming = sys.naming();
        let coord = naming.node();
        let sv = naming
            .server_db
            .entry(uid)
            .ok_or(MigrateError::Db(DbError::NotFound(uid)))?;
        let st = naming
            .state_db
            .entry(uid)
            .ok_or(MigrateError::Db(DbError::NotFound(uid)))?;
        let in_sv = sv.servers.contains(&from);
        let in_st = st.contains(from);
        if !in_sv && !in_st {
            return Err(MigrateError::NotHosted { uid, node: from });
        }
        if sv.servers.contains(&to) && st.contains(to) {
            return Err(MigrateError::AlreadyHosted { uid, node: to });
        }
        if !sys.sim().is_up(to) {
            return Err(MigrateError::Unreachable(uid));
        }

        let start = sys.sim().now().as_micros();
        let tx = sys.tx();
        let action = tx.begin_top(coord);
        let db = |e: DbError| match e.cause() {
            Cause::Contention => MigrateError::Busy(uid),
            _ => MigrateError::Db(e),
        };
        let staged = (|| {
            // (1)+(2) repoint Sv. Insert's quiescence check is the
            // correctness linchpin: it refuses while any client uses the
            // object, so no activation ever straddles the move.
            naming.server_db.insert(action, uid, to).map_err(db)?;
            if in_sv {
                naming.server_db.remove(action, uid, from).map_err(db)?;
            }
            // (3)+(4) repoint St under the exclude-write lock, so the
            // cardinality of St is preserved within the same action.
            naming.state_db.include(action, uid, to).map_err(db)?;
            if in_st {
                naming
                    .state_db
                    .exclude(
                        action,
                        &[(uid, vec![from])],
                        ExcludePolicy::ExcludeWriteLock,
                    )
                    .map_err(db)?;
            }
            // (5) copy the latest committed state from any current St
            // member (the source itself qualifies if it is up) onto the
            // destination, as a prepared write that commits with the
            // action.
            let copy_start = sys.sim().now().as_micros();
            let mut state = None;
            for &src in &st.stores {
                if let Ok(s) = sys.stores().read_remote(coord, src, uid) {
                    state = Some(s);
                    break;
                }
            }
            let Some(state) = state else {
                return Err(MigrateError::Unreachable(uid));
            };
            sys.stores().add_store(to);
            sys.stores().unretire(to, uid);
            tx.add_participant(
                action,
                StoreWriteParticipant::new(
                    sys.sim(),
                    sys.stores(),
                    coord,
                    to,
                    TxSystem::token(action),
                    vec![(uid, state)],
                ),
            )
            .map_err(MigrateError::Commit)?;
            sys.obs().span(
                action.raw(),
                Phase::MigrateCopy,
                copy_start,
                sys.sim().now().as_micros(),
            );
            Ok(())
        })();
        if let Err(e) = staged {
            tx.abort(action);
            return Err(e);
        }
        tx.commit(action).map_err(MigrateError::Commit)?;

        // Post-commit cleanup of the old host. Not part of the action:
        // the committed group-view entries no longer reference `from`, so
        // these are pure garbage collection. A tombstone makes it
        // crash-proof (recovery purges instead of resurrects), and is left
        // only while a copy could still come back: the source is down with
        // its copy, or its intent log holds an in-doubt write. The source
        // no longer serves the object either, so its recovery does not
        // re-`Insert` it.
        sys.registry().remove_at(uid, from);
        naming.server_db.retire_server(uid, from);
        let settled = sys.stores().with(from, |s| {
            s.remove(uid);
            s.indoubt().is_empty()
        });
        if matches!(settled, Ok(false) | Err(StoreError::NodeDown(_))) {
            sys.stores().retire(from, uid);
        }
        sys.obs().span(
            action.raw(),
            Phase::Migrate,
            start,
            sys.sim().now().as_micros(),
        );
        sys.sim()
            .note(format_args!("membership: {uid} migrated {from} -> {to}"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupview_replication::{Counter, CounterOp, System};

    /// naming at 0; servers+stores 1..=3; clients 4..=5.
    fn world() -> (System, Membership, Vec<NodeId>) {
        let sys = System::builder(11).nodes(6).build();
        let m = Membership::new(&sys);
        let n = sys.sim().nodes();
        (sys, m, n)
    }

    #[test]
    fn migrate_repoints_both_databases_and_moves_state() {
        let (sys, m, n) = world();
        let uid = sys
            .create_typed(Counter::new(3), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();

        m.migrate(uid.uid(), n[1], fresh).unwrap();

        let sv = sys.naming().server_db.entry(uid.uid()).unwrap();
        assert!(!sv.servers.contains(&n[1]));
        assert!(sv.servers.contains(&fresh));
        assert_eq!(sv.servers.len(), 2, "Sv strength preserved");
        let st = sys.naming().state_db.entry(uid.uid()).unwrap();
        assert!(!st.contains(n[1]));
        assert!(st.contains(fresh));
        assert_eq!(st.len(), 2, "St strength preserved");
        assert_eq!(
            sys.stores().read_local(fresh, uid.uid()).unwrap().data,
            sys.stores().read_local(n[2], uid.uid()).unwrap().data,
            "byte-identical committed state on the new host"
        );
        assert!(
            sys.stores().read_local(n[1], uid.uid()).is_err(),
            "old copy deleted"
        );
        assert!(
            !sys.stores().is_retired(n[1], uid.uid()),
            "no tombstone on a live source"
        );
    }

    #[test]
    fn busy_object_aborts_cleanly_and_leaves_no_trace() {
        let (sys, m, n) = world();
        let uid = sys
            .create_typed(Counter::new(0), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();
        let client = sys.client(n[4]);
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).unwrap();
        counter.invoke(action, CounterOp::Add(1)).unwrap();

        let before_sv = sys.naming().server_db.entry(uid.uid()).unwrap();
        let before_st = sys.naming().state_db.entry(uid.uid()).unwrap();
        let err = m.migrate(uid.uid(), n[1], fresh).unwrap_err();
        assert!(matches!(err, MigrateError::Busy(_)), "{err}");
        assert_eq!(sys.naming().server_db.entry(uid.uid()).unwrap(), before_sv);
        assert_eq!(sys.naming().state_db.entry(uid.uid()).unwrap(), before_st);
        assert!(sys.tx().locks_empty() || sys.tx().is_active(action));
        assert!(!sys.stores().is_retired(n[1], uid.uid()));

        // The pinned incarnation finishes untouched.
        assert_eq!(counter.invoke(action, CounterOp::Get).unwrap(), 1);
        client.commit(action).unwrap();
    }

    #[test]
    fn migrate_rejects_bad_endpoints() {
        let (sys, m, n) = world();
        let uid = sys
            .create_typed(Counter::new(0), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();
        assert_eq!(
            m.migrate(uid.uid(), n[3], fresh),
            Err(MigrateError::NotHosted {
                uid: uid.uid(),
                node: n[3]
            })
        );
        assert_eq!(
            m.migrate(uid.uid(), n[1], n[2]),
            Err(MigrateError::AlreadyHosted {
                uid: uid.uid(),
                node: n[2]
            })
        );
        sys.sim().crash(fresh);
        assert_eq!(
            m.migrate(uid.uid(), n[1], fresh),
            Err(MigrateError::Unreachable(uid.uid()))
        );
    }

    #[test]
    fn migrated_object_survives_source_recovery() {
        let (sys, m, n) = world();
        let uid = sys
            .create_typed(Counter::new(5), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();
        // Source crashes; the move still commits (state comes from n2).
        sys.sim().crash(n[1]);
        m.migrate(uid.uid(), n[1], fresh).unwrap();

        // §4.2 recovery of the old host purges the stale copy instead of
        // re-including it — the tombstone at work.
        let report = sys.recovery().recover_node(n[1]);
        assert_eq!(report.purged, vec![uid.uid()]);
        assert!(report.included.is_empty());
        let st = sys.naming().state_db.entry(uid.uid()).unwrap();
        assert!(!st.contains(n[1]), "no resurrection");
        assert_eq!(st.len(), 2);
        assert!(
            !sys.stores().is_retired(n[1], uid.uid()),
            "the purge clears the tombstone"
        );

        // And the object still answers with the committed value.
        let client = sys.client(n[4]);
        let counter = uid.open(&client);
        let action = client.begin_action();
        counter.activate(action, 2).unwrap();
        assert_eq!(counter.invoke(action, CounterOp::Get).unwrap(), 5);
        client.commit(action).unwrap();
    }

    #[test]
    fn migration_records_spans_when_observed() {
        let (sys, m, n) = {
            let sys = System::builder(13).nodes(6).observe().build();
            let m = Membership::new(&sys);
            let n = sys.sim().nodes();
            (sys, m, n)
        };
        let uid = sys
            .create_typed(Counter::new(0), &n[1..3], &n[1..3])
            .unwrap();
        let fresh = m.add_node();
        m.migrate(uid.uid(), n[1], fresh).unwrap();
        let snap = sys.metrics_snapshot();
        assert_eq!(snap.phase(Phase::Migrate).count(), 1);
        assert_eq!(snap.phase(Phase::MigrateCopy).count(), 1);
        assert!(snap.phase_breakdown().contains("migrate"));
    }

    #[test]
    fn wrapped_errors_keep_their_source_chain() {
        let commit = MigrateError::Commit(TxError::CoordinatorDown(NodeId::new(0)));
        assert!(Error::source(&commit).is_some());
        let db = MigrateError::Db(DbError::NotFound(Uid::from_raw(1)));
        assert!(Error::source(&db).is_some());
        assert!(Error::source(&MigrateError::Busy(Uid::from_raw(1))).is_none());
    }
}
