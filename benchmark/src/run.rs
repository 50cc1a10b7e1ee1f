//! Orchestration: a workload run is a sequence of passes, each in a fresh
//! child process (this binary re-executing itself) so resident memory,
//! allocator state and the wire pool start clean every time. The parent
//! reduces the passes to one value per metric and checks that the exact
//! metrics agree between them.

use crate::catalogue::{self, END_TO_END};
use crate::json::{self, obj, Value};
use crate::reduce::{self, Metrics};
use crate::span;
use crate::stats::{median, relative_spread};
use crate::workloads::{self, Pass, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Spans of this many leading actions go to the trace file.
const TRACE_FILE_ACTIONS: u32 = 200;

/// Where traced passes write `trace-<workload>.json`: `out/` beside this
/// package's manifest (git-ignored), wherever the binary is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Writes `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

// ----- the child side: one pass ------------------------------------------------

/// Runs one pass in this process and prints its numbers as one JSON line.
pub fn pass_main(workload: &str, scale: Scale, seed: u64, traced: bool) -> Result<(), String> {
    let pass = workloads::run(workload, scale, seed, traced)?;
    let mut errors = pass.errors.clone();
    let mut metrics = reduce::end_to_end(&pass);
    if traced {
        if let Err(e) = span::validate(pass.tracer.spans()) {
            errors.push(format!("trace: {e}"));
        }
        metrics.extend(reduce::traced(&pass));
        let trace = span::to_json(workload, pass.tracer.spans(), TRACE_FILE_ACTIONS);
        write_file(
            &out_dir().join(format!("trace-{workload}.json")),
            &trace.encode(),
        )?;
    }
    println!("{}", pass_json(&pass, &metrics, &errors).encode());
    Ok(())
}

fn pass_json(pass: &Pass, metrics: &Metrics, errors: &[String]) -> Value {
    obj([
        ("workload", Value::from(pass.workload)),
        ("attempted", Value::from(pass.attempted)),
        ("commits", Value::from(pass.commits)),
        (
            "input_hash",
            Value::from(format!("{:016x}", pass.input_hash)),
        ),
        ("measured_s", Value::from(pass.measured_s)),
        (
            "segments",
            Value::Arr(
                pass.latency
                    .segments
                    .iter()
                    .map(|s| {
                        Value::Arr(vec![
                            Value::from(s.elapsed_ns),
                            Value::from(s.p50_ns),
                            Value::from(s.p99_ns),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sizes",
            obj(pass.sizes.iter().map(|&(k, v)| (k, Value::from(v)))),
        ),
        (
            "errors",
            Value::Arr(errors.iter().map(|e| Value::from(e.as_str())).collect()),
        ),
        (
            "metrics",
            obj(metrics.iter().map(|&(k, v)| (k, Value::from(v)))),
        ),
    ])
}

// ----- the parent side ---------------------------------------------------------------

/// Runs this binary with `args`, waits for it, and returns the JSON on its
/// last output line with the wall-clock from spawn to exit.
fn child(args: &[String]) -> Result<(Value, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let spawned = Instant::now();
    // `output` waits for the child, so none outlives this call.
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start child {args:?}: {e}"))?;
    let wall_s = spawned.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    let value = json::parse(last).map_err(|e| format!("child {args:?}: {e}"))?;
    Ok((value, wall_s))
}

fn pass_args(workload: &str, scale: Scale, seed: u64, traced: bool) -> Vec<String> {
    let mut args = vec![
        "pass".to_string(),
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--trace".into(),
        u8::from(traced).to_string(),
    ];
    if scale == Scale::Smoke {
        args.push("--smoke".into());
    }
    args
}

/// One metric of a run: the value the run reports, and what each single
/// pass measured (kept so a reader can see the spread between repeats).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub passes: Vec<f64>,
}

impl Summary {
    pub fn min(&self) -> f64 {
        self.passes.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.passes
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The outcome of one `(workload, seed, trace)` run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub input_hash: String,
    pub sizes: Value,
    pub metrics: Vec<Summary>,
    pub wall_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The contract's result line: `correct`, `attempted`, `failed`, and
    /// each metric's median with its unit.
    pub fn contract_line(&self) -> Value {
        obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        obj([
                            ("value", Value::from(m.value)),
                            ("unit", Value::from(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The fuller record `bench all` stores per run.
    pub fn to_json(&self) -> Value {
        obj([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::from(self.seed)),
            ("trace", Value::from(self.traced)),
            ("passes", Value::from(self.passes as u64)),
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("input_hash", Value::from(self.input_hash.as_str())),
            ("sizes", self.sizes.clone()),
            ("wall_s", Value::from(self.wall_s)),
            (
                "errors",
                Value::Arr(
                    self.errors
                        .iter()
                        .map(|e| Value::from(e.as_str()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        obj([
                            ("unit", Value::from(m.unit)),
                            ("value", Value::from(m.value)),
                            ("min", Value::from(m.min())),
                            ("max", Value::from(m.max())),
                            ("spread", Value::from(relative_spread(&m.passes))),
                            (
                                "passes",
                                Value::Arr(m.passes.iter().map(|&v| Value::from(v)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Human-readable metric lines, one per metric.
    pub fn print(&self) {
        println!(
            "# {} seed={} trace={} passes={} attempted={} failed={} correct={} input={} ({:.1}s)",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.passes,
            self.attempted,
            self.failed,
            self.correct(),
            self.input_hash,
            self.wall_s,
        );
        for m in &self.metrics {
            if m.passes.len() > 1 {
                println!(
                    "{:<40} {:>16.4} {:<6} (passes: min {:.4}, max {:.4}, n={})",
                    m.name,
                    m.value,
                    m.unit,
                    m.min(),
                    m.max(),
                    m.passes.len()
                );
            } else {
                println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        for e in &self.errors {
            println!("! {e}");
        }
    }
}

struct PassRecord {
    /// Spawn → exit of the pass's process, as its parent saw it.
    wall_s: f64,
    measured_s: f64,
    /// `[elapsed_ns, p50_ns, p99_ns]` per segment of the window.
    segments: Vec<[f64; 3]>,
    attempted: u64,
    commits: u64,
    input_hash: String,
    sizes: Value,
    errors: Vec<String>,
    metrics: Vec<(String, f64)>,
}

fn read_pass((v, wall_s): &(Value, f64)) -> Result<PassRecord, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("pass record lacks {key}"))
    };
    let segments: Vec<[f64; 3]> = v
        .get("segments")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            let s = s.as_arr()?;
            Some([
                s.first()?.as_f64()?,
                s.get(1)?.as_f64()?,
                s.get(2)?.as_f64()?,
            ])
        })
        .collect();
    if segments.is_empty() {
        return Err("pass record lacks segments".into());
    }
    Ok(PassRecord {
        wall_s: *wall_s,
        measured_s: num("measured_s")?,
        segments,
        attempted: num("attempted")? as u64,
        commits: num("commits")? as u64,
        input_hash: v
            .get("input_hash")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        sizes: v.get("sizes").cloned().unwrap_or(Value::Null),
        errors: v
            .get("errors")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string))
            .collect(),
        metrics: v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("pass record lacks metrics")?
            .iter()
            // An undefined value (no commits at all) travels as null.
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
    })
}

fn metric_of(record: &PassRecord, name: &str) -> f64 {
    record
        .metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// What counts as failed: an action that did not commit on the fault-free
/// workloads. Under `crash_churn` an abort is a legal outcome of a crash
/// or a refused lock, each checked by the oracle, so only oracle
/// violations (in `errors`) fail the run there; the share of actions that
/// did not commit is the layer metric `failed_share`.
fn failed_actions(workload: &str, record: &PassRecord) -> u64 {
    if workload == "crash_churn" {
        0
    } else {
        record.attempted - record.commits
    }
}

/// The run's wall-clock metrics, assembled from the **quietest repetition
/// of each segment**: interference from the box's other tenants only ever
/// adds time, in bursts, so per segment the fastest of the passes is the
/// best estimate of what the code costs, while a stall the program causes
/// itself (a table doubling, say) recurs in the same segment of every pass
/// and stays in.
///
/// * `commits_per_s` = commits ÷ Σ over segments of the least elapsed time;
/// * `commit_us_p50` / `_p99` = median over segments of the least p50 / p99.
fn compose(records: &[PassRecord]) -> [(&'static str, f64); 3] {
    let count = records.iter().map(|r| r.segments.len()).min().unwrap_or(0);
    let least = |c: usize, field: usize| {
        records
            .iter()
            .map(|r| r.segments[c][field])
            .fold(f64::INFINITY, f64::min)
    };
    let over_segments = |field: usize| (0..count).map(|c| least(c, field)).collect::<Vec<_>>();
    let quiet_s: f64 = over_segments(0).iter().sum::<f64>() / 1e9;
    [
        ("commits_per_s", records[0].commits as f64 / quiet_s),
        ("commit_us_p50", median(&over_segments(1)) / 1e3),
        ("commit_us_p99", median(&over_segments(2)) / 1e3),
    ]
}

/// Runs `workload` untraced: passes in fresh processes until `seconds`
/// are used up (always at least one). Wall-clock metrics are composed from
/// the quietest segments ([`compose`]); every other metric is the median
/// over the passes.
pub fn run_end_to_end(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    loop {
        let t0 = Instant::now();
        records.push(read_pass(&child(&pass_args(
            workload, scale, seed, false,
        ))?)?);
        // Stop when one more pass like the last would overrun the budget.
        if started.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let first = &records[0];
    let mut errors: Vec<String> = records.iter().flat_map(|r| r.errors.clone()).collect();
    for m in END_TO_END.iter().filter(|m| m.exact) {
        let v0 = metric_of(first, m.name);
        if records
            .iter()
            .any(|r| metric_of(r, m.name).to_bits() != v0.to_bits())
        {
            errors.push(format!(
                "{} is exact for a seed but differs between passes",
                m.name
            ));
        }
    }
    if records.iter().any(|r| {
        (r.attempted, r.commits, &r.input_hash)
            != (first.attempted, first.commits, &first.input_hash)
    }) {
        errors.push("passes of one seed disagree on inputs or commit counts".into());
    }
    let composed = compose(&records);
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let passes: Vec<f64> = records
                .iter()
                .map(|r| match m.name {
                    // Everything a pass spends outside its measured window:
                    // process start, world build, object creation, warm-up,
                    // and the correctness gate and teardown after it.
                    "setup_s" => r.wall_s - r.measured_s,
                    name => metric_of(r, name),
                })
                .collect();
            Summary {
                name: m.name,
                unit: m.unit,
                value: reduce::get(&composed, m.name).unwrap_or_else(|| median(&passes)),
                passes,
            }
        })
        .collect();
    errors.truncate(16);
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        traced: false,
        passes: records.len(),
        attempted: first.attempted,
        failed: failed_actions(workload, first),
        errors,
        input_hash: first.input_hash.clone(),
        sizes: first.sizes.clone(),
        metrics,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs `workload` for its layer metrics: one untraced pass, one traced
/// pass (harness spans on, world observed), and the probes, each in its
/// own process; then the estimated attribution.
pub fn run_per_layer(workload: &str, scale: Scale, seed: u64) -> Result<RunResult, String> {
    let started = Instant::now();
    let plain = read_pass(&child(&pass_args(workload, scale, seed, false))?)?;
    let traced = read_pass(&child(&pass_args(workload, scale, seed, true))?)?;
    let (probes, _) = child(&["probes".to_string(), "--json".into()])?;

    let mut errors = plain.errors.clone();
    errors.extend(traced.errors.iter().cloned());
    // Observation only reads the virtual clock: a traced pass must drive
    // the same inputs to the same outcome as the plain one.
    if (plain.attempted, plain.commits, &plain.input_hash)
        != (traced.attempted, traced.commits, &traced.input_hash)
    {
        errors.push("the traced pass diverged from the untraced one".into());
    }

    let catalogue = catalogue::per_layer();
    let static_name = |name: &str| catalogue.iter().find(|&&(n, _)| n == name).map(|&(n, _)| n);
    let mut layer: Metrics = traced
        .metrics
        .iter()
        .filter_map(|(k, v)| static_name(k).map(|n| (n, *v)))
        .collect();
    let overhead = metric_of(&plain, "commits_per_s") / metric_of(&traced, "commits_per_s");
    if let Some(slot) = layer
        .iter_mut()
        .find(|(n, _)| *n == "obs.traced_overhead_ratio")
    {
        slot.1 = overhead;
    }
    let probe_values: Metrics = probes
        .as_obj()
        .ok_or("probes child printed no object")?
        .iter()
        .filter_map(|(k, v)| Some((static_name(k)?, v.as_f64()?)))
        .collect();
    let mut counts = layer.clone();
    counts.push(("msgs_per_commit", metric_of(&traced, "msgs_per_commit")));
    let mean_commit_us = 1e6 / metric_of(&plain, "commits_per_s");
    let estimates = reduce::estimates(&counts, &probe_values, mean_commit_us);

    let all: Metrics = layer
        .into_iter()
        .chain(probe_values)
        .chain(estimates)
        .collect();
    let metrics: Vec<Summary> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = reduce::get(&all, name).unwrap_or(f64::NAN);
            Summary {
                name,
                unit,
                value,
                passes: vec![value],
            }
        })
        .collect();
    if let Some(missing) = metrics.iter().find(|m| m.value.is_nan()) {
        errors.push(format!("layer metric {} was not measured", missing.name));
    }
    errors.truncate(16);
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        traced: true,
        passes: 2,
        attempted: traced.attempted,
        failed: failed_actions(workload, &traced),
        errors,
        input_hash: traced.input_hash.clone(),
        sizes: traced.sizes.clone(),
        metrics,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(commits: u64, segments: &[[f64; 3]]) -> PassRecord {
        PassRecord {
            wall_s: 1.0,
            measured_s: 0.5,
            segments: segments.to_vec(),
            attempted: commits,
            commits,
            input_hash: String::new(),
            sizes: Value::Null,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    #[test]
    fn compose_takes_the_quietest_repetition_of_each_segment() {
        // Pass a is disturbed in its second segment, pass b in its first.
        let a = record(
            300,
            &[[1e9, 10e3, 40e3], [9e9, 90e3, 900e3], [1e9, 12e3, 50e3]],
        );
        let b = record(
            300,
            &[[5e9, 70e3, 700e3], [2e9, 20e3, 60e3], [1e9, 14e3, 45e3]],
        );
        let composed = compose(&[a, b]);
        assert_eq!(reduce::get(&composed, "commits_per_s"), Some(300.0 / 4.0));
        assert_eq!(reduce::get(&composed, "commit_us_p50"), Some(12.0));
        assert_eq!(reduce::get(&composed, "commit_us_p99"), Some(45.0));
    }

    #[test]
    fn a_single_pass_composes_to_itself() {
        let composed = compose(&[record(10, &[[2e9, 5e3, 7e3]])]);
        assert_eq!(reduce::get(&composed, "commits_per_s"), Some(5.0));
        assert_eq!(reduce::get(&composed, "commit_us_p99"), Some(7.0));
    }

    #[test]
    fn only_crash_churn_may_abort_without_failing() {
        let mut r = record(90, &[[1e9, 1.0, 1.0]]);
        r.attempted = 100;
        assert_eq!(failed_actions("short_warm", &r), 10);
        assert_eq!(failed_actions("crash_churn", &r), 0);
    }
}
