//! Exporters: Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`)
//! and JSONL span lines — plus an in-binary validator so CI can assert a
//! generated trace is well-formed without external tooling.
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
use std::fmt::Write as _;

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

/// Incremental builder for a Chrome trace-event file.
///
/// Events are appended pre-rendered; [`ChromeTrace::render`] wraps them in
/// the `{"traceEvents":[...]}` envelope Perfetto expects.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the process `pid` in the Perfetto UI.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Name a track (`pid`,`tid`) in the Perfetto UI.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// Append a complete (`"X"`) span event.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        action: Option<u64>,
    ) {
        let args = match action {
            Some(a) => format!("{{\"action\":{a}}}"),
            None => "{}".to_string(),
        };
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur_us},\"name\":\"{}\",\"args\":{args}}}",
            escape_json(name)
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
        let mut args = String::from("{");
        if let Some(d) = detail {
            let _ = write!(args, "\"detail\":\"{}\"", escape_json(d));
        }
        if let Some(a) = action {
            if args.len() > 1 {
                args.push(',');
            }
            let _ = write!(args, "\"action\":{a}");
        }
        args.push('}');
        self.events.push(format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"name\":\"{}\",\"args\":{args}}}",
            escape_json(name)
        ));
    }

    /// Render the complete trace file.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in the file (including metadata).
    pub events: usize,
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Instant (`"i"`/`"I"`) events.
    pub instants: usize,
    /// Distinct `(pid, tid)` tracks carrying timed events.
    pub tracks: usize,
}

/// Validate a Chrome trace-event JSON file without a JSON library:
/// the envelope must hold a `traceEvents` array of objects, every event
/// needs `ph`/`pid`/`tid`, timed events need a numeric non-negative `ts`,
/// and `ts` must be monotone non-decreasing per `(pid, tid)` track in file
/// order — the property Perfetto relies on for our serially generated
/// traces.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let array = extract_trace_events_array(json)?;
    let objects = split_top_level_objects(array)?;
    let mut tracks: Vec<((i64, i64), u64)> = Vec::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    for (idx, obj) in objects.iter().enumerate() {
        let fields = object_fields(obj).map_err(|e| format!("event {idx}: {e}"))?;
        let ph =
            find_string(&fields, "ph").ok_or_else(|| format!("event {idx}: missing \"ph\""))?;
        let pid = find_number(&fields, "pid")
            .ok_or_else(|| format!("event {idx}: missing numeric \"pid\""))?;
        let tid = find_number(&fields, "tid")
            .ok_or_else(|| format!("event {idx}: missing numeric \"tid\""))?;
        if find_string(&fields, "name").is_none() {
            return Err(format!("event {idx}: missing \"name\""));
        }
        let timed = matches!(ph.as_str(), "X" | "i" | "I" | "B" | "E");
        if ph == "M" {
            continue;
        }
        if !timed {
            return Err(format!("event {idx}: unsupported phase type {ph:?}"));
        }
        let ts = find_number(&fields, "ts")
            .ok_or_else(|| format!("event {idx}: timed event missing numeric \"ts\""))?;
        if ts < 0 {
            return Err(format!("event {idx}: negative ts {ts}"));
        }
        if ph == "X" {
            let dur = find_number(&fields, "dur")
                .ok_or_else(|| format!("event {idx}: \"X\" event missing \"dur\""))?;
            if dur < 0 {
                return Err(format!("event {idx}: negative dur {dur}"));
            }
            spans += 1;
        } else if ph == "i" || ph == "I" {
            instants += 1;
        }
        let key = (pid, tid);
        match tracks.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if (ts as u64) < *last {
                    return Err(format!(
                        "event {idx}: ts {ts} goes backwards on track pid={pid} tid={tid} (last {last})"
                    ));
                }
                *last = ts as u64;
            }
            None => tracks.push((key, ts as u64)),
        }
    }
    Ok(TraceSummary {
        events: objects.len(),
        spans,
        instants,
        tracks: tracks.len(),
    })
}

/// Slice out the contents of the top-level `"traceEvents": [ ... ]` array.
fn extract_trace_events_array(json: &str) -> Result<&str, String> {
    let key = "\"traceEvents\"";
    let key_at = json.find(key).ok_or("missing \"traceEvents\" key")?;
    let after = &json[key_at + key.len()..];
    let rel = after.find('[').ok_or("no array after \"traceEvents\"")?;
    let body = &after[rel..];
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(&body[1..i]);
                }
            }
            _ => {}
        }
    }
    Err("unterminated traceEvents array".into())
}

/// Split an array body into its top-level `{...}` object slices.
fn split_top_level_objects(array: &str) -> Result<Vec<&str>, String> {
    let mut objects = Vec::new();
    let mut depth = 0i32;
    let mut start = None;
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in array.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces in traceEvents".into());
                }
                if depth == 0 {
                    objects.push(&array[start.take().unwrap()..=i]);
                }
            }
            ',' | ' ' | '\n' | '\r' | '\t' => {}
            c if depth == 0 => return Err(format!("unexpected {c:?} between events")),
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unterminated event object".into());
    }
    Ok(objects)
}

/// Tokenize the top-level `key: value` pairs of one JSON object. Values are
/// returned as raw slices (strings keep their quotes); nested objects and
/// arrays are skipped as opaque values, so free-form text inside `args`
/// cannot be mistaken for a key.
fn object_fields(obj: &str) -> Result<Vec<(String, String)>, String> {
    let inner = obj
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("event is not an object")?;
    let bytes: Vec<char> = inner.chars().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    loop {
        while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == ',') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != '"' {
            return Err(format!("expected key string, found {:?}", bytes[i]));
        }
        let (key, next) = read_string(&bytes, i)?;
        i = next;
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != ':' {
            return Err(format!("missing ':' after key {key:?}"));
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return Err(format!("missing value for key {key:?}"));
        }
        let start = i;
        match bytes[i] {
            '"' => {
                let (_, next) = read_string(&bytes, i)?;
                i = next;
            }
            '{' | '[' => {
                let open = bytes[i];
                let close = if open == '{' { '}' } else { ']' };
                let mut depth = 0i32;
                let mut in_str = false;
                let mut esc = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    if in_str {
                        if esc {
                            esc = false;
                        } else if c == '\\' {
                            esc = true;
                        } else if c == '"' {
                            in_str = false;
                        }
                    } else if c == '"' {
                        in_str = true;
                    } else if c == open {
                        depth += 1;
                    } else if c == close {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
                if depth != 0 {
                    return Err(format!("unterminated nested value for key {key:?}"));
                }
            }
            _ => {
                while i < bytes.len() && bytes[i] != ',' {
                    i += 1;
                }
            }
        }
        let value: String = bytes[start..i].iter().collect();
        fields.push((key, value.trim().to_string()));
    }
    Ok(fields)
}

/// Read a quoted string starting at `bytes[at] == '"'`; returns the
/// unescaped content and the index just past the closing quote.
fn read_string(bytes: &[char], at: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut i = at + 1;
    while i < bytes.len() {
        match bytes[i] {
            '\\' => {
                i += 1;
                if i >= bytes.len() {
                    break;
                }
                match bytes[i] {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        // Keep \uXXXX opaque; validation never compares them.
                        out.push_str("\\u");
                    }
                    c => out.push(c),
                }
                i += 1;
            }
            '"' => return Ok((out, i + 1)),
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn find_string(fields: &[(String, String)], key: &str) -> Option<String> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| {
        v.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or(v)
            .to_string()
    })
}

fn find_number(fields: &[(String, String)], key: &str) -> Option<i64> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.split('.').next().unwrap_or(v).parse::<i64>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_through_validator() {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "shard 0");
        trace.thread_name(0, 1, "node-1");
        trace.phase_tracks(0);
        trace.instant(0, 1, "deliver", 10, Some("n0 -> n1 (24B)"), Some(7));
        trace.phase_span(
            0,
            &SpanRec {
                action: 7,
                phase: Phase::Invoke,
                start_us: 5,
                end_us: 40,
            },
        );
        trace.phase_span(
            0,
            &SpanRec {
                action: 8,
                phase: Phase::Invoke,
                start_us: 40,
                end_us: 55,
            },
        );
        let json = trace.render();
        let summary = validate_chrome_trace(&json).expect("generated trace must validate");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 2); // node-1 track + invoke phase track
        assert_eq!(summary.events, trace.len());
    }

    #[test]
    fn validator_rejects_backwards_ts_on_a_track() {
        let mut trace = ChromeTrace::new();
        trace.instant(0, 1, "a", 100, None, None);
        trace.instant(0, 1, "b", 50, None, None);
        let err = validate_chrome_trace(&trace.render()).unwrap_err();
        assert!(err.contains("goes backwards"), "unexpected error: {err}");
        // Same timestamps on *different* tracks are fine.
        let mut ok = ChromeTrace::new();
        ok.instant(0, 1, "a", 100, None, None);
        ok.instant(0, 2, "b", 50, None, None);
        validate_chrome_trace(&ok.render()).expect("distinct tracks are independent");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":1}]}")
                .is_err(),
            "X event without ts/dur/name must fail"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"q\",\"pid\":0,\"tid\":0,\"ts\":1,\"name\":\"x\"}]}"
            )
            .is_err(),
            "unknown phase type must fail"
        );
    }

    #[test]
    fn hostile_names_cannot_confuse_the_field_scanner() {
        let mut trace = ChromeTrace::new();
        // A note whose text looks like JSON fields and contains quotes.
        trace.instant(
            0,
            3,
            "note",
            12,
            Some("\"ts\": -9, \"pid\": 99} {injection"),
            None,
        );
        let json = trace.render();
        let summary = validate_chrome_trace(&json).expect("escaped content must stay opaque");
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 1);
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
