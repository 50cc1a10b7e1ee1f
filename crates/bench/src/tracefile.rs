//! The `experiments trace` artifacts: runs a canned scenario
//! traced, validates the Chrome trace in-binary, and reports where to
//! write `BENCH_trace.json` (Perfetto / `chrome://tracing`) and
//! `BENCH_trace.jsonl` (one span or sim event per line).

use groupview_obs::TraceSummary;
use groupview_scenario::{canned_scenarios, run_scenario_traced};

/// The canned scenario the trace artifact captures: a crash the
/// replication layer must mask, so the trace shows bind/invoke/multicast
/// spans, a crash instant, lost messages attributed to the actions they
/// interrupted, and the recovery traffic.
pub const TRACE_SCENARIO: &str = "active/masked_server_crash";
/// The seed the trace artifact uses (any seed works; fixing one keeps the
/// committed artifact reproducible).
pub const TRACE_SEED: u64 = 7;

/// A captured, validated trace ready to write to disk.
pub struct TraceArtifacts {
    /// The Chrome trace-event JSON text.
    pub chrome_json: String,
    /// The JSONL dump text.
    pub jsonl: String,
    /// What the in-binary validator counted.
    pub summary: TraceSummary,
    /// Whether the scenario itself passed its checks.
    pub passed: bool,
}

/// Runs [`TRACE_SCENARIO`] traced and validates the rendered Chrome trace
/// in-binary. Returns an error if the scenario is missing or the trace
/// fails validation — CI treats either as a broken exporter.
pub fn capture() -> Result<TraceArtifacts, String> {
    let scenario = canned_scenarios()
        .into_iter()
        .find(|s| s.name == TRACE_SCENARIO)
        .ok_or_else(|| format!("canned scenario {TRACE_SCENARIO:?} not found"))?;
    let run = run_scenario_traced(&scenario, TRACE_SEED);
    let passed = run.report.passed();
    let chrome_json = run.chrome_json();
    let summary = groupview_obs::validate_chrome_trace(&chrome_json)
        .map_err(|e| format!("chrome trace failed in-binary validation: {e}"))?;
    Ok(TraceArtifacts {
        chrome_json,
        jsonl: run.jsonl(),
        summary,
        passed,
    })
}

/// Where the Chrome trace artifact lives: the repository root.
pub fn chrome_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trace.json")
}

/// Where the JSONL dump lives: the repository root.
pub fn jsonl_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trace.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_a_validated_trace_with_spans_and_events() {
        let artifacts = capture().expect("capture");
        assert!(artifacts.passed, "the canned scenario passes");
        assert!(artifacts.summary.spans > 0, "phase spans present");
        assert!(artifacts.summary.instants > 0, "sim events present");
        assert!(artifacts.summary.tracks > 1, "node + phase tracks");
        assert!(artifacts.chrome_json.contains("\"traceEvents\""));
        assert!(artifacts.jsonl.lines().count() > 0);
        // The crash the scenario masks must be visible in the trace.
        assert!(artifacts.chrome_json.contains("\"crash\""));
    }
}
