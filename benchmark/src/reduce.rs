//! Reduces what a pass measured to the named metrics of the catalogue.

use crate::span::{self, NameTotals};
use crate::workloads::Pass;
use groupview_obs::{Counter, Phase};

/// `(name, value)` pairs; order follows the catalogue.
pub type Metrics = Vec<(&'static str, f64)>;

/// Looks a metric up by name.
pub fn get(metrics: &[(&'static str, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The end-to-end metrics of one pass, bar `setup_s`, which only the
/// parent process can see (it is the pass's wall-clock outside its window).
pub fn end_to_end(pass: &Pass) -> Metrics {
    let commits = pass.commits.max(1) as f64;
    vec![
        ("commits_per_s", pass.commits as f64 / pass.measured_s),
        ("commit_us_p50", pass.latency.wall_p50_us),
        ("commit_us_p99", pass.latency.wall_p99_us),
        ("virt_commit_ms_p50", pass.latency.virt_p50_ms),
        ("virt_commit_ms_p99", pass.latency.virt_p99_ms),
        ("msgs_per_commit", pass.net.delivered as f64 / commits),
        ("allocs_per_commit", pass.allocs as f64 / commits),
        ("peak_rss_mb", pass.peak_rss as f64 / 1e6),
    ]
}

/// The layer metrics of one traced pass: harness spans, counts per commit
/// from the crates' own counters, and the registry's virtual-time phases.
/// `obs.traced_overhead_ratio` needs the untraced pass too and is filled
/// in by the caller.
pub fn traced(pass: &Pass) -> Metrics {
    let commits = pass.commits.max(1) as f64;
    let spans = pass.tracer.spans();
    let totals = span::totals(spans);
    let t = |name: u8| -> NameTotals { totals[name as usize] };
    let us_per_commit = |name: u8| t(name).total_ns as f64 / 1e3 / commits;
    let allocs_per_commit = |name: u8| t(name).allocs as f64 / commits;
    let extra = |name: &str| get(&pass.extra, name).unwrap_or(0.0);

    let snapshot = pass.obs.as_ref();
    let counter = |c: Counter| snapshot.map_or(0.0, |s| s.counter(c) as f64) / commits;
    let phase_p50 = |p: Phase| snapshot.map_or(0.0, |s| s.phase(p).p50() as f64);
    let encodes = (pass.wire.buffer_allocs + pass.wire.pool_reuses).max(1) as f64;

    vec![
        ("replication.begin_us", us_per_commit(span::BEGIN)),
        ("replication.activate_us", us_per_commit(span::ACTIVATE)),
        ("replication.invoke_us", us_per_commit(span::INVOKE)),
        ("replication.commit_us", us_per_commit(span::COMMIT)),
        ("replication.tx_invoke_us", us_per_commit(span::TX_INVOKE)),
        ("replication.tx_commit_us", us_per_commit(span::TX_COMMIT)),
        (
            "driver.self_us",
            t(span::ACTION).self_ns as f64 / 1e3 / commits,
        ),
        (
            "driver.longest_commit_ms",
            t(span::ACTION).max_ns as f64 / 1e6,
        ),
        ("alloc.begin", allocs_per_commit(span::BEGIN)),
        ("alloc.activate", allocs_per_commit(span::ACTIVATE)),
        (
            "alloc.invoke",
            allocs_per_commit(span::INVOKE) + allocs_per_commit(span::TX_INVOKE),
        ),
        (
            "alloc.commit",
            allocs_per_commit(span::COMMIT) + allocs_per_commit(span::TX_COMMIT),
        ),
        ("alloc.bytes_per_commit", pass.alloc_bytes as f64 / commits),
        (
            "membership.drain_step_ms",
            extra("membership.drain_step_ms"),
        ),
        ("membership.migrate_us", extra("membership.migrate_us")),
        ("membership.plan_ms", extra("membership.plan_ms")),
        ("membership.moves", extra("membership.moves")),
        ("scenario.run_plan_s", extra("scenario.run_plan_s")),
        ("scenario.steps_per_s", extra("scenario.steps_per_s")),
        (
            "scenario.oracle_verify_ms",
            extra("scenario.oracle_verify_ms"),
        ),
        ("scenario.history_events", extra("scenario.history_events")),
        ("obs.traced_overhead_ratio", 0.0),
        (
            "sim.bytes_per_commit",
            pass.net.bytes_delivered as f64 / commits,
        ),
        (
            "sim.timeouts_per_commit",
            pass.net.timeouts as f64 / commits,
        ),
        (
            "wire.buffer_allocs_per_commit",
            pass.wire.buffer_allocs as f64 / commits,
        ),
        (
            "wire.pool_reuses_per_commit",
            pass.wire.pool_reuses as f64 / commits,
        ),
        (
            "wire.pool_hit_ratio",
            pass.wire.pool_reuses as f64 / encodes,
        ),
        (
            "wire.bytes_copied_per_commit",
            pass.wire.bytes_copied as f64 / commits,
        ),
        (
            "actions.locks_acquired_per_commit",
            counter(Counter::LocksAcquired),
        ),
        (
            "actions.locks_refused_per_commit",
            pass.lock_refusals as f64 / commits,
        ),
        ("actions.prepares_per_commit", counter(Counter::Prepares)),
        ("actions.undo_ops_per_commit", counter(Counter::UndoOps)),
        ("group.multicasts_per_commit", counter(Counter::Multicasts)),
        ("replication.rpcs_per_commit", counter(Counter::Rpcs)),
        ("replication.invokes_per_commit", counter(Counter::Invokes)),
        ("obs.virt_bind_us_p50", phase_p50(Phase::Bind)),
        ("obs.virt_invoke_us_p50", phase_p50(Phase::Invoke)),
        ("obs.virt_prepare_us_p50", phase_p50(Phase::Prepare)),
        ("obs.virt_commit_us_p50", phase_p50(Phase::Commit)),
        (
            "rss_bytes_per_commit",
            (pass.rss_end as f64 - pass.rss_start as f64) / commits,
        ),
        (
            "failed_share",
            (pass.attempted - pass.commits) as f64 / pass.attempted.max(1) as f64,
        ),
        ("recovery_gap_virt_ms", extra("recovery_gap_virt_ms")),
    ]
}

/// Estimated attribution of one commit's wall-clock to the crates: probe
/// cost × count per commit. An estimate, labelled as one — the probes run
/// each mechanism alone and warm, so the sum can miss (or overshoot) what
/// the assembled store pays; `est.unattributed_us` is the remainder
/// against the measured mean commit time and can be negative.
///
/// * sim: every delivered message is one `Sim::deliver`.
/// * wire: every frame encoded (fresh or pooled) is one `encode_with`.
/// * actions: every lock granted is one grant+release; every commit one
///   empty top-level begin+commit.
/// * group: every multicast costs a 3-member multicast less the six
///   deliveries already counted under sim.
/// * core: every top-level commit looked its object up once in each
///   database (`GetServer` + `GetView`).
/// * store: every participant prepared is one prepare+commit on a store.
pub fn estimates(
    traced: &[(&'static str, f64)],
    probes: &[(&'static str, f64)],
    mean_commit_us: f64,
) -> Metrics {
    let count = |name: &str| get(traced, name).unwrap_or(0.0);
    let ns = |name: &str| get(probes, name).unwrap_or(0.0);
    let msgs = count("msgs_per_commit");
    let sim = msgs * ns("sim.deliver_ns");
    let wire = (count("wire.buffer_allocs_per_commit") + count("wire.pool_reuses_per_commit"))
        * ns("wire.encode_ns");
    let actions = count("actions.locks_acquired_per_commit") * ns("actions.lock_grant_release_ns")
        + ns("actions.begin_commit_empty_ns");
    let group = count("group.multicasts_per_commit")
        * (ns("group.multicast_3_ns") - 6.0 * ns("sim.deliver_ns")).max(0.0);
    let core = ns("core.get_server_ns") + ns("core.get_view_ns");
    let store = count("actions.prepares_per_commit") * ns("store.prepare_commit_ns");
    let parts = [sim, wire, actions, group, core, store].map(|v| v / 1e3);
    let attributed: f64 = parts.iter().sum();
    vec![
        ("est.sim_us", parts[0]),
        ("est.wire_us", parts[1]),
        ("est.actions_us", parts[2]),
        ("est.group_us", parts[3]),
        ("est.core_us", parts[4]),
        ("est.store_us", parts[5]),
        ("est.unattributed_us", mean_commit_us - attributed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_and_the_remainder_sum_to_the_mean_commit_time() {
        let traced = [
            ("msgs_per_commit", 28.0),
            ("wire.buffer_allocs_per_commit", 1.0),
            ("wire.pool_reuses_per_commit", 9.0),
            ("actions.locks_acquired_per_commit", 4.0),
            ("group.multicasts_per_commit", 1.0),
            ("actions.prepares_per_commit", 3.0),
        ];
        let probes = [
            ("sim.deliver_ns", 20.0),
            ("wire.encode_ns", 100.0),
            ("actions.lock_grant_release_ns", 200.0),
            ("actions.begin_commit_empty_ns", 2_000.0),
            ("group.multicast_3_ns", 240.0),
            ("core.get_server_ns", 120.0),
            ("core.get_view_ns", 120.0),
            ("store.prepare_commit_ns", 200.0),
        ];
        let est = estimates(&traced, &probes, 22.0);
        assert_eq!(get(&est, "est.sim_us"), Some(0.56));
        assert_eq!(get(&est, "est.group_us"), Some(0.12));
        let total: f64 = est.iter().map(|&(_, v)| v).sum();
        assert!((total - 22.0).abs() < 1e-9, "{total}");
    }
}
