//! Cross-scheme equivalence: all four database access schemes must agree on
//! the *outcome* of the same logical workload — they differ only in how the
//! binding metadata is maintained.

use groupview::{BindingScheme, Cause, Counter, CounterOp, NodeId, ReplicationPolicy, System, Uid};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build(scheme: BindingScheme, policy: ReplicationPolicy) -> (System, Uid) {
    let sys = System::builder(101)
        .nodes(7)
        .scheme(scheme)
        .policy(policy)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    (sys, uid)
}

/// Why a workload round failed: the [`Cause`] of its activation, invocation
/// or commit error.
struct RoundError(Cause);

/// Runs the same deterministic sequence of actions (with a crash and a
/// recovery in the middle) and returns the final committed value.
///
/// Causal assertion instead of a seed-sensitive commit floor: this workload
/// has **one** client, so lock contention is impossible — any abort must be
/// attributed to the injected crash by the error taxonomy.
fn run_workload(sys: &System, uid: Uid) -> i64 {
    let client = sys.client(n(5));
    let counter = client.open::<Counter>(uid);
    let mut expected = 0i64;
    for round in 0..12 {
        if round == 4 {
            sys.sim().crash(n(2));
        }
        if round == 8 {
            sys.recovery().recover_node(n(2));
        }
        let action = client.begin_action();
        let worked = (|| -> Result<(), RoundError> {
            counter
                .activate(action, 2)
                .map_err(|e| RoundError(e.cause()))?;
            counter
                .invoke(action, CounterOp::Add(round))
                .map_err(|e| RoundError(e.cause()))?;
            client.commit(action).map_err(|e| RoundError(e.cause()))
        })();
        match worked {
            Ok(()) => expected += round,
            Err(RoundError(cause)) => {
                assert_eq!(
                    cause,
                    Cause::Failure,
                    "round {round}: a single-client abort must be failure-caused, \
                     not contention"
                );
                client.abort(action);
            }
        }
    }
    // Read back through a fresh client on another node.
    let reader = sys.client(n(6));
    let counter = reader.open::<Counter>(uid);
    let action = reader.begin_action();
    counter
        .activate_read_only(action, 1)
        .expect("read activate");
    let value = counter.invoke(action, CounterOp::Get).expect("read");
    reader.commit(action).expect("read commit");
    assert_eq!(value, expected, "committed value must match the model");
    value
}

#[test]
fn all_schemes_agree_on_outcomes_active() {
    let mut results = Vec::new();
    for scheme in BindingScheme::ALL {
        let (sys, uid) = build(scheme, ReplicationPolicy::Active);
        let value = run_workload(&sys, uid);
        assert!(sys.tx().locks_empty(), "{scheme}: locks left behind");
        // Causal, not seed-dependent: active replication with a surviving
        // replica must mask the crash, so *every* round commits.
        assert_eq!(
            value,
            (0..12).sum::<i64>(),
            "{scheme}: the crash was not masked"
        );
        results.push((scheme, value));
    }
    // Every scheme commits exactly the same sequence (the workload is
    // deterministic and failures identical), so values match across
    // schemes too.
    let first = results[0].1;
    for (scheme, value) in &results {
        assert_eq!(*value, first, "{scheme} diverged");
    }
}

#[test]
fn all_schemes_agree_on_outcomes_single_copy() {
    for scheme in BindingScheme::ALL {
        let (sys, uid) = build(scheme, ReplicationPolicy::SingleCopyPassive);
        run_workload(&sys, uid);
        assert!(sys.tx().locks_empty(), "{scheme}: locks left behind");
    }
}

#[test]
fn updating_schemes_leave_quiescent_use_lists() {
    for scheme in [
        BindingScheme::IndependentTopLevel,
        BindingScheme::NestedTopLevel,
    ] {
        let (sys, uid) = build(scheme, ReplicationPolicy::Active);
        run_workload(&sys, uid);
        let entry = sys.naming().server_db.entry(uid).expect("entry");
        assert!(entry.is_quiescent(), "{scheme}: {entry}");
    }
}

#[test]
fn cached_scheme_never_touches_server_db_locks() {
    let (sys, uid) = build(BindingScheme::CachedNameServer, ReplicationPolicy::Active);
    let stats_before = sys.naming().server_db.ops();
    run_workload(&sys, uid);
    let stats_after = sys.naming().server_db.ops();
    assert_eq!(
        stats_before.get_server, stats_after.get_server,
        "cached scheme must not consult the transactional server db"
    );
    // The cache itself served the lookups.
    let (reads, _updates) = sys.server_cache().expect("cache").local().stats();
    assert!(reads > 0);
}

#[test]
fn scheme_metadata_is_consistent() {
    for scheme in BindingScheme::ALL {
        // Use lists and the cache are mutually exclusive mechanisms.
        assert!(
            !(scheme.maintains_use_lists() && scheme.uses_server_cache()),
            "{scheme}"
        );
    }
}
