//! Trace exporters: turn a traced scenario run (sim [`TraceEvent`]s +
//! causal [`SpanRec`]s) into a Chrome trace-event JSON file (loads directly
//! in Perfetto or `chrome://tracing`) and a JSONL dump.
//!
//! Layout: one Perfetto "process" for the world; inside it one track per
//! simulated node carrying instant events (deliveries, losses, crashes,
//! partitions), one track per action phase carrying the causal spans, and
//! a `notes` track for free-form annotations. Message events carry the
//! raw id of the atomic action that caused them, so a lost message can be
//! attributed to the action it aborted.

use crate::runner::ScenarioReport;
use groupview_obs::{escape_json, span_jsonl, ChromeTrace, SpanRec, TraceSummary};
use groupview_sim::TraceEvent;

/// Track id for free-form [`TraceEvent::Note`] annotations (node tracks
/// use the node id; phase tracks start at
/// [`groupview_obs::PHASE_TID_BASE`]).
pub const NOTES_TID: u32 = 99;

/// The Perfetto process id of the one world a run has. The process keeps
/// the name `"shard 0"` and JSONL lines keep `"shard":0`, so trace files
/// stay byte-compatible with their readers.
const PID: u32 = 0;

/// One traced world's worth of observability output: the scenario verdict
/// plus the drained spans and simulation events that produced it.
#[derive(Debug)]
pub struct TracedRun {
    /// Node count of the world (names the node tracks).
    pub nodes: usize,
    /// The scenario verdict (carries the metrics snapshot).
    pub report: ScenarioReport,
    /// Causal action spans, drained from the registry.
    pub spans: Vec<SpanRec>,
    /// Simulation trace events, drained from the sim's ring.
    pub events: Vec<TraceEvent>,
}

impl TracedRun {
    /// Render the Chrome trace-event JSON file with what it holds, or name
    /// the first event that goes back in time on its track.
    pub fn chrome_json(&self) -> Result<(String, TraceSummary), String> {
        let mut trace = ChromeTrace::new();
        trace.process_name(PID, "shard 0");
        for node in 0..self.nodes as u32 {
            trace.thread_name(PID, node, &format!("node-{node}"));
        }
        trace.thread_name(PID, NOTES_TID, "notes");
        trace.phase_tracks(PID);
        // Ring order is send order, not time order: each branch of a
        // fan-out starts again at the fork time. A stable sort by time
        // keeps every node track monotone and ties in ring order.
        let mut events: Vec<&TraceEvent> = self.events.iter().collect();
        events.sort_by_key(|ev| ev.at());
        for ev in events {
            emit_event(&mut trace, ev);
        }
        // Spans are recorded at completion; re-sort by phase track and
        // start time so every track's `ts` is monotone.
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.phase.index(), s.start_us, s.end_us));
        for span in &spans {
            trace.phase_span(PID, span);
        }
        trace.render()
    }

    /// Render the JSONL dump: one line per span, then one per sim event,
    /// both in the order they were recorded.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span_jsonl(span));
            out.push('\n');
        }
        for ev in &self.events {
            out.push_str(&event_jsonl(ev));
            out.push('\n');
        }
        out
    }
}

/// Short stable kind name for a sim event.
fn event_kind(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::Deliver { .. } => "deliver",
        TraceEvent::Lost { .. } => "lost",
        TraceEvent::Crash { .. } => "crash",
        TraceEvent::Recover { .. } => "recover",
        TraceEvent::Partition { .. } => "partition",
        TraceEvent::Heal { .. } => "heal",
        TraceEvent::Note { .. } => "note",
    }
}

/// The track an event renders on: the node it concerns, or the notes track.
fn event_tid(ev: &TraceEvent) -> u32 {
    match ev {
        // Message events render on the *receiver's* track: that is where
        // the delivery (or the hole a loss leaves) is observable.
        TraceEvent::Deliver { to, .. } | TraceEvent::Lost { to, .. } => to.raw(),
        TraceEvent::Crash { node, .. } | TraceEvent::Recover { node, .. } => node.raw(),
        TraceEvent::Partition { a, .. } | TraceEvent::Heal { a, .. } => a.raw(),
        TraceEvent::Note { .. } => NOTES_TID,
    }
}

fn emit_event(trace: &mut ChromeTrace, ev: &TraceEvent) {
    let detail = ev.to_string();
    trace.instant(
        PID,
        event_tid(ev),
        event_kind(ev),
        ev.at().as_micros(),
        Some(&detail),
        ev.action(),
    );
}

fn event_jsonl(ev: &TraceEvent) -> String {
    let mut line = format!(
        "{{\"type\":\"event\",\"shard\":0,\"at_us\":{},\"kind\":\"{}\",\"text\":\"{}\"",
        ev.at().as_micros(),
        event_kind(ev),
        escape_json(&ev.to_string()),
    );
    if let Some(a) = ev.action() {
        line.push_str(&format!(",\"action\":{a}"));
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::canned_scenarios;

    fn traced(name: &str, seed: u64) -> TracedRun {
        let scenario = canned_scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .expect("canned scenario exists");
        crate::runner::run_scenario_traced(&scenario, seed)
    }

    #[test]
    fn traced_canned_scenario_exports_a_valid_chrome_trace() {
        let run = traced("active/masked_server_crash", 7);
        assert!(run.report.passed(), "{}", run.report);
        assert!(!run.spans.is_empty(), "spans recorded");
        assert!(!run.events.is_empty(), "sim events recorded");
        assert!(
            run.report.obs.is_some(),
            "traced run carries a metrics snapshot"
        );
        let (json, summary) = run.chrome_json().expect("every track is in time order");
        assert_eq!(summary.spans, run.spans.len());
        assert_eq!(summary.instants, run.events.len());
        assert!(summary.tracks > 1);
        // The crash the scenario masks is visible in the trace.
        assert!(json.contains("\"name\":\"crash\""));

        let jsonl = run.jsonl();
        assert_eq!(jsonl.lines().count(), run.spans.len() + run.events.len());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn lost_messages_are_attributed_to_their_action() {
        // A store crash mid-commit loses in-flight protocol messages; each
        // loss should carry the action whose exchange it interrupted.
        let run = traced("active/store_crash_in_commit", 1);
        let attributed = run
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Lost { .. }) && e.action().is_some());
        let any_lost = run
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Lost { .. }));
        assert!(any_lost, "lossy scenario loses messages");
        assert!(
            attributed,
            "losses during action phases carry the action id"
        );
    }
}
