//! `bench`: the repository's benchmark. Drives the public API of the
//! crates from outside, prints every metric by name and unit, and checks
//! that every workload's outputs are correct. See `benchmark/README.md`.

mod alloc;
mod catalogue;
mod compare;
mod gen;
mod json;
mod probes;
mod procfs;
mod reduce;
mod run;
mod span;
mod stats;
mod workloads;

use crate::json::{obj, Value};
use crate::workloads::Scale;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1993;

const USAGE: &str = "\
usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
        one run: end-to-end metrics (trace 0) or per-layer metrics (trace 1);
        the last line of output is the result as one JSON object
  bench all [--quick] [--seed <n>] [--seconds <s>] [--out <file>]
        every workload, untraced and traced, into a result file
  bench compare <a.json> <b.json>
  bench selfcheck [--quick] [--seed <n>] [--seconds <s>]
        `all` twice, then `compare`; also demands exact metrics be identical
  bench spread [--runs <n>] [--workload <name>] [--seed <n>] [--seconds <s>]
        n runs per workload, each with another seed: the distance between the
        quartiles of every end-to-end metric as a share of its median
  bench probes [--json]
  bench manifest
        print the content of BENCHMARK.json
workloads: short_warm wide_active invoke_stream invoke_batched read_mostly
           transfers crash_churn elastic_drain";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" | "--quick" | "--json" => args.switches.push(a.clone()),
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--runs" => {
                    let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                    args.flags.push((a.clone(), v.clone()));
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => args.words.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} {v:?} is not a number")),
        }
    }

    fn scale(&self) -> Scale {
        if self.has("--smoke") || self.has("--quick") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(seed: u64, seconds: f64, scale: Scale, wall_s: f64) -> Value {
    let net = groupview_sim::NetConfig::default();
    obj([
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("seed", Value::from(seed)),
        ("seconds_per_run", Value::from(seconds)),
        (
            "sizes",
            Value::from(if scale == Scale::Full {
                "full"
            } else {
                "smoke"
            }),
        ),
        (
            "net_config",
            obj([
                ("base_latency_us", Value::from(net.base_latency.as_micros())),
                ("jitter_us", Value::from(net.jitter.as_micros())),
                ("drop_probability", Value::from(net.drop_probability)),
                ("rpc_timeout_us", Value::from(net.rpc_timeout.as_micros())),
                ("stable_write_us", Value::from(net.stable_write.as_micros())),
            ]),
        ),
        ("wall_s", Value::from(wall_s)),
    ])
}

/// Runs every workload untraced and traced; returns the result file.
fn all(scale: Scale, seed: u64, seconds: f64) -> Result<(Value, bool), String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut correct = true;
    for name in workloads::NAMES {
        for traced in [false, true] {
            let result = if traced {
                run::run_per_layer(name, scale, seed)?
            } else {
                run::run_end_to_end(name, scale, seed, seconds)?
            };
            result.print();
            correct &= result.correct();
            runs.push(result.to_json());
        }
    }
    let file = obj([
        (
            "provenance",
            provenance(seed, seconds, scale, started.elapsed().as_secs_f64()),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    Ok((file, correct))
}

fn read_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw)?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", catalogue::RUN_SECONDS as f64)?;
    let traced = match args.flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    match args.words.first().map(String::as_str) {
        None => {
            let workload = args.flag("--workload").ok_or(USAGE)?;
            if !workloads::NAMES.contains(&workload) {
                return Err(format!("unknown workload {workload:?}\n{USAGE}"));
            }
            let result = if traced {
                run::run_per_layer(workload, args.scale(), seed)?
            } else {
                run::run_end_to_end(workload, args.scale(), seed, seconds)?
            };
            result.print();
            println!("{}", result.contract_line().encode());
            Ok(result.correct())
        }
        Some("pass") => {
            let workload = args.flag("--workload").ok_or(USAGE)?;
            run::pass_main(workload, args.scale(), seed, traced)?;
            Ok(true)
        }
        Some("probes") => {
            let values = probes::run_all();
            if args.has("--json") {
                println!(
                    "{}",
                    obj(values.iter().map(|&(k, v)| (k, Value::from(v)))).encode()
                );
            } else {
                for (name, unit) in probes::CATALOGUE {
                    let v = reduce::get(&values, name).unwrap_or(f64::NAN);
                    println!("{name:<40} {v:>16.4} {unit}");
                }
            }
            Ok(true)
        }
        Some("all") => {
            let (file, correct) = all(args.scale(), seed, seconds)?;
            let out = args
                .flag("--out")
                .map_or_else(|| run::out_dir().join("results.json"), Into::into);
            run::write_file(&out, &file.encode_pretty())?;
            println!("wrote {}", out.display());
            Ok(correct)
        }
        Some("compare") => {
            let [_, a, b] = args.words.as_slice() else {
                return Err(USAGE.into());
            };
            let rows = compare::compare(&read_file(a)?, &read_file(b)?)?;
            compare::print(&rows);
            Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
        }
        Some("selfcheck") => {
            let (a, correct_a) = all(args.scale(), seed, seconds)?;
            let (b, correct_b) = all(args.scale(), seed, seconds)?;
            run::write_file(&run::out_dir().join("selfcheck-a.json"), &a.encode_pretty())?;
            run::write_file(&run::out_dir().join("selfcheck-b.json"), &b.encode_pretty())?;
            let rows = compare::compare(&a, &b)?;
            compare::print(&rows);
            // Same code on both sides: neither may be worse than the other
            // by more than the bound. `unresolved` rows are shown, not failed
            // on — they say a single run could not tell, not that it differed.
            let mut agree = rows.iter().all(|r| {
                compare::worsening(r.metric, r.a.value, r.b.value).abs() <= r.metric.bound
            });
            for r in rows.iter().filter(|r| r.metric.exact) {
                if r.a.value.to_bits() != r.b.value.to_bits() {
                    println!(
                        "! {} {} is exact but differs between the two sets",
                        r.workload, r.metric.name
                    );
                    agree = false;
                }
            }
            Ok(correct_a && correct_b && agree)
        }
        Some("spread") => {
            let runs: u64 = args.number("--runs", 10)?;
            let mut steady = true;
            for name in workloads::NAMES {
                if args.flag("--workload").is_some_and(|w| w != name) {
                    continue;
                }
                let mut values = vec![Vec::new(); catalogue::END_TO_END.len()];
                for i in 0..runs {
                    let result = run::run_end_to_end(name, args.scale(), seed + i, seconds)?;
                    if !result.correct() {
                        result.print();
                        return Ok(false);
                    }
                    for (slot, m) in values.iter_mut().zip(&result.metrics) {
                        slot.push(m.value);
                    }
                }
                for (m, v) in catalogue::END_TO_END.iter().zip(&values) {
                    let spread = stats::relative_spread(v);
                    // `setup_s` is held to its bound on medians only.
                    let wide = spread > m.bound && m.name != "setup_s";
                    steady &= !wide;
                    println!(
                        "{name:<15} {:<20} median {:>14.4} {:<6} spread {spread:>7.4} bound {:>5.2}{}",
                        m.name,
                        stats::median(v),
                        m.unit,
                        m.bound,
                        if wide { "  WIDER THAN THE BOUND" } else { "" }
                    );
                }
            }
            Ok(steady)
        }
        Some("manifest") => {
            print!("{}", catalogue::manifest().encode_pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: a correctness gate or comparison failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
