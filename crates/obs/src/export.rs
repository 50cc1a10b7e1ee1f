//! Exporters: Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`)
//! and JSONL span lines.
//!
//! A Chrome trace is checked as it is built, not parsed back: each event
//! kind is written by one format string with its text escaped, so the
//! file's shape holds by construction (a unit test pins the exact bytes),
//! and [`ChromeTrace::render`] refuses a trace whose timestamps go back in
//! time on a track.
//!
//! The trace layout convention used throughout the workspace:
//!
//! * `pid`  = 0 (one "process": a run has one world),
//! * `tid < 100`  = one track per simulated node (instant events from the
//!   sim trace: deliveries, losses, crashes, …),
//! * `tid = 100 + phase index`  = one track per action phase, carrying
//!   complete (`"X"`) span events. Phases never overlap on their own track
//!   because the world executes serially in virtual time.

use crate::phase::Phase;
use crate::registry::SpanRec;
use std::fmt::{self, Write as _};

/// Track id offset for phase span tracks (`tid = PHASE_TID_BASE + index`).
pub const PHASE_TID_BASE: u32 = 100;

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One JSONL line for a span: `{"type":"span","action":..,"phase":..,...}`.
/// Its `"shard"` field is always 0, kept so trace files stay
/// byte-compatible with their readers.
pub fn span_jsonl(span: &SpanRec) -> String {
    format!(
        "{{\"type\":\"span\",\"shard\":0,\"action\":{},\"phase\":\"{}\",\"start_us\":{},\"end_us\":{},\"dur_us\":{}}}",
        span.action,
        span.phase.name(),
        span.start_us,
        span.end_us,
        span.duration_us(),
    )
}

/// What a rendered trace holds, counted as its events went in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in the file (including metadata).
    pub events: usize,
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Distinct `(pid, tid)` tracks carrying timed events.
    pub tracks: usize,
}

/// Incremental builder for a Chrome trace-event file.
///
/// Events are written as they are appended. The builder keeps the last
/// timestamp of every `(pid, tid)` track, so [`ChromeTrace::render`] can
/// refuse a trace Perfetto would draw out of order.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    /// The events written so far, separated by `",\n"`.
    body: String,
    summary: TraceSummary,
    /// The last timestamp of each track that carries a timed event.
    last_ts: Vec<((u32, u32), u64)>,
    /// The first event that went back in time on its track.
    backwards: Option<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name the process `pid` in the Perfetto UI.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.metadata(pid, 0, "process_name", name);
    }

    /// Name a track (`pid`,`tid`) in the Perfetto UI.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.metadata(pid, tid, "thread_name", name);
    }

    fn metadata(&mut self, pid: u32, tid: u32, kind: &str, name: &str) {
        self.push(format_args!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Append a complete (`"X"`) span event.
    fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        action: Option<u64>,
    ) {
        self.timed(pid, tid, ts_us);
        self.summary.spans += 1;
        self.push(format_args!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur_us},\"name\":\"{}\",\"args\":{}}}",
            escape_json(name),
            Args { detail: None, action },
        ));
    }

    /// Append a phase span on its conventional track
    /// (`tid = PHASE_TID_BASE + phase index`).
    pub fn phase_span(&mut self, pid: u32, span: &SpanRec) {
        self.complete(
            pid,
            PHASE_TID_BASE + span.phase.index() as u32,
            span.phase.name(),
            span.start_us,
            span.duration_us(),
            Some(span.action),
        );
    }

    /// Declare the named phase tracks for process `pid` (call once).
    pub fn phase_tracks(&mut self, pid: u32) {
        for p in Phase::ALL {
            self.thread_name(pid, PHASE_TID_BASE + p.index() as u32, p.name());
        }
    }

    /// Append an instant (`"i"`) event, optionally with a detail string and
    /// causal action id in `args`.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: u64,
        detail: Option<&str>,
        action: Option<u64>,
    ) {
        self.timed(pid, tid, ts_us);
        self.summary.instants += 1;
        self.push(format_args!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"name\":\"{}\",\"args\":{}}}",
            escape_json(name),
            Args { detail, action },
        ));
    }

    /// Write one event, after a separator unless it is the first.
    fn push(&mut self, event: fmt::Arguments<'_>) {
        if self.summary.events > 0 {
            self.body.push_str(",\n");
        }
        self.summary.events += 1;
        let _ = self.body.write_fmt(event);
    }

    /// Note the timestamp of the event about to be written on its track,
    /// keeping the first one that goes back in time.
    fn timed(&mut self, pid: u32, tid: u32, ts_us: u64) {
        let (idx, track) = (self.summary.events, (pid, tid));
        match self.last_ts.iter_mut().find(|(t, _)| *t == track) {
            Some((_, last)) if ts_us < *last => {
                let last = *last;
                self.backwards.get_or_insert_with(|| {
                    format!(
                        "event {idx}: ts {ts_us} goes backwards on track pid={pid} tid={tid} (last {last})"
                    )
                });
            }
            Some((_, last)) => *last = ts_us,
            None => self.last_ts.push((track, ts_us)),
        }
    }

    /// Render the complete trace file with what it holds, or name the
    /// first event that went back in time on its track.
    pub fn render(self) -> Result<(String, TraceSummary), String> {
        if let Some(err) = self.backwards {
            return Err(err);
        }
        let end = if self.body.is_empty() { "" } else { "\n" };
        let json = format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}{end}]}}\n",
            self.body
        );
        let summary = TraceSummary {
            tracks: self.last_ts.len(),
            ..self.summary
        };
        Ok((json, summary))
    }
}

/// An event's `args` object: an optional detail text, then an optional
/// causal action id.
struct Args<'a> {
    detail: Option<&'a str>,
    action: Option<u64>,
}

impl fmt::Display for Args<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        if let Some(d) = self.detail {
            write!(f, "\"detail\":\"{}\"", escape_json(d))?;
        }
        if let Some(a) = self.action {
            let sep = if self.detail.is_some() { "," } else { "" };
            write!(f, "{sep}\"action\":{a}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_writes_every_event_kind_exactly() {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "shard 0");
        trace.thread_name(0, 1, "node-1");
        trace.phase_span(
            0,
            &SpanRec {
                action: 7,
                phase: Phase::Invoke,
                start_us: 5,
                end_us: 40,
            },
        );
        trace.complete(0, 2, "gap", 6, 4, None);
        trace.instant(0, 1, "deliver", 10, Some("n0 -> n1 (24B)"), Some(7));
        trace.instant(0, 1, "crash", 10, None, None);
        // Detail text that looks like JSON fields, with quotes, braces and
        // a newline, stays inside its string.
        trace.instant(
            0,
            99,
            "note",
            12,
            Some("\"ts\": -9, \"pid\": 99} {x\ny"),
            None,
        );
        let (json, summary) = trace.render().expect("every track is in time order");
        assert_eq!(
            json,
            r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"shard 0"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"node-1"}},
{"ph":"X","pid":0,"tid":103,"ts":5,"dur":35,"name":"invoke","args":{"action":7}},
{"ph":"X","pid":0,"tid":2,"ts":6,"dur":4,"name":"gap","args":{}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":10,"name":"deliver","args":{"detail":"n0 -> n1 (24B)","action":7}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":10,"name":"crash","args":{}},
{"ph":"i","s":"t","pid":0,"tid":99,"ts":12,"name":"note","args":{"detail":"\"ts\": -9, \"pid\": 99} {x\ny"}}
]}
"#
        );
        let tracks = 4; // 103, 2, 1 and 99; metadata carries no time
        assert_eq!(
            summary,
            TraceSummary {
                events: 7,
                spans: 2,
                instants: 3,
                tracks
            }
        );
    }

    #[test]
    fn render_refuses_a_timestamp_going_back_on_its_track() {
        let mut trace = ChromeTrace::new();
        trace.thread_name(0, 1, "node-1");
        trace.instant(0, 1, "a", 100, None, None);
        trace.instant(0, 1, "b", 50, None, None);
        assert_eq!(
            trace.render().unwrap_err(),
            "event 2: ts 50 goes backwards on track pid=0 tid=1 (last 100)"
        );
        // The same timestamps on different tracks are independent.
        let mut ok = ChromeTrace::new();
        ok.instant(0, 1, "a", 100, None, None);
        ok.instant(0, 2, "b", 50, None, None);
        let (_, summary) = ok.render().expect("distinct tracks are independent");
        assert_eq!(summary.tracks, 2);
    }

    #[test]
    fn span_jsonl_shape() {
        let line = span_jsonl(&SpanRec {
            action: 41,
            phase: Phase::Prepare,
            start_us: 1000,
            end_us: 1450,
        });
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"shard\":0"));
        assert!(line.contains("\"action\":41"));
        assert!(line.contains("\"phase\":\"prepare\""));
        assert!(line.contains("\"dur_us\":450"));
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
