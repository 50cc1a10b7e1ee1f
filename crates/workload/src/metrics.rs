//! Run-level metrics: the [`RunMetrics`] record every workload run
//! produces (the scenario runner fills one in; the legacy `Driver` used
//! to).

use groupview_actions::TxStats;
use groupview_obs::Histogram;
use groupview_sim::NetCounters;
use std::fmt;

/// Everything a workload run measured.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Actions started (including ones that later aborted).
    pub attempts: u64,
    /// Actions that committed.
    pub commits: u64,
    /// Actions that aborted (any phase).
    pub aborts: u64,
    /// Bind aborts whose error's cause is not
    /// [`Cause::Failure`](groupview_sim::Cause::Failure): lock contention,
    /// or an invalid request (see
    /// [`groupview_replication::ActivateError::cause`]).
    pub abort_bind_contention: u64,
    /// Bind aborts of `Cause::Failure` (no live servers, unreachable
    /// databases, lost state).
    pub abort_bind_failure: u64,
    /// Invocation aborts whose cause is not `Cause::Failure`: mostly
    /// lock contention between live clients
    /// ([`groupview_replication::InvokeError::Tx`] with a refused lock).
    /// Always possible under refusal-based locking; says nothing about
    /// crashes.
    pub abort_contention: u64,
    /// Invocation aborts of `Cause::Failure` (multicast failures via
    /// `InvokeError::Group`, exhausted replicas, lost state). Zero means
    /// every crash in the run was masked by replication.
    pub abort_failure: u64,
    /// Commit aborts whose cause is not `Cause::Failure`: a refused
    /// exclude or database lock (see
    /// [`groupview_replication::CommitError::cause`]).
    pub abort_commit_contention: u64,
    /// Commit aborts of `Cause::Failure` (all stores unreachable, lost
    /// final state, failed two-phase commit). Zero means every crash in the
    /// run was masked at commit time.
    pub abort_commit_failure: u64,
    /// Dead servers discovered "the hard way" at bind time.
    pub probe_failures: u64,
    /// Binding attempts retried due to lock contention.
    pub bind_retries: u64,
    /// Failed servers pruned from `Sv` by the updating schemes.
    pub servers_removed: u64,
    /// Registered bindings abandoned by crashed clients.
    pub leaked_bindings: u64,
    /// Use-list entries reclaimed by cleanup sweeps.
    pub cleanup_reclaimed: u64,
    /// Replica migrations committed by elastic-membership plan actions
    /// (`AddNode` activation moves, `DrainNode` evacuations, `Rebalance`
    /// moves). Zero for every plan without membership actions.
    pub migrations: u64,
    /// Migration attempts deferred because the object was bound or locked
    /// at the time (the §4.1.2 quiescence check refused the repoint);
    /// retried by later drain rounds and rebalance sweeps.
    pub migrations_deferred: u64,
    /// Per-action virtual latency (µs), successful and failed alike.
    pub action_latency_us: Histogram,
    /// Per-action message counts.
    pub action_messages: Histogram,
    /// Driver steps executed.
    pub steps: u64,
    /// Steps that began with some recovered node's §4 work still
    /// deferred (each retried it once). A recovery that converges while
    /// clients run keeps this small; zero for a plan without recoveries.
    pub recovery_steps: u64,
    /// Final transaction-layer statistics.
    pub tx: TxStats,
    /// Final network counters.
    pub net: NetCounters,
}

impl RunMetrics {
    /// Aborts during binding/activation.
    pub fn abort_bind(&self) -> u64 {
        self.abort_bind_contention + self.abort_bind_failure
    }

    /// Aborts during operation invocation.
    pub fn abort_invoke(&self) -> u64 {
        self.abort_contention + self.abort_failure
    }

    /// Aborts during commit (write-back, exclude, or two-phase commit).
    pub fn abort_commit(&self) -> u64 {
        self.abort_commit_contention + self.abort_commit_failure
    }

    /// Fraction of attempted actions that committed.
    pub fn availability(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.commits as f64 / self.attempts as f64
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempts={} commits={} aborts={} (bind={} [contention={} failure={}] \
             invoke={} [contention={} failure={}] \
             commit={} [contention={} failure={}]) availability={:.1}%",
            self.attempts,
            self.commits,
            self.aborts,
            self.abort_bind(),
            self.abort_bind_contention,
            self.abort_bind_failure,
            self.abort_invoke(),
            self.abort_contention,
            self.abort_failure,
            self.abort_commit(),
            self.abort_commit_contention,
            self.abort_commit_failure,
            self.availability() * 100.0
        )?;
        // Only elastic plans migrate; keep the classic line untouched for
        // everything else (recorded-output tests pin it).
        if self.migrations != 0 || self.migrations_deferred != 0 {
            write!(
                f,
                " migrations={} [deferred={}]",
                self.migrations, self.migrations_deferred
            )?;
        }
        Ok(())
    }
}
