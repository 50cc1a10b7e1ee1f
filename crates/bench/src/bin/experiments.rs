//! Regenerates the paper's figures as measured tables, and runs the
//! scenario-driven soak.
//!
//! ```text
//! cargo run -p groupview-bench --bin experiments --release          # all
//! cargo run -p groupview-bench --bin experiments --release e9 e10  # some
//! cargo run -p groupview-bench --bin experiments --release soak    # soak
//! cargo run -p groupview-bench --bin experiments --release soak 5 100
//! #                                        rounds ───┘     │
//! #                                        base seed ──────┘
//! cargo run -p groupview-bench --bin experiments --release trajectory
//! cargo run -p groupview-bench --bin experiments --release trajectory --smoke
//! cargo run -p groupview-bench --bin experiments --release trajectory --shards 1,2,4
//! cargo run -p groupview-bench --bin experiments --release trace
//! cargo run -p groupview-bench --bin experiments --release trend
//! ```

use groupview_bench::{all_experiments, tracefile, trajectory, trend, TrajectoryConfig};
use groupview_scenario::{run_soak, SoakConfig};
use std::time::Instant;

// The trajectory recorder measures allocs/op through this counting
// allocator; installing it in the binary (not the library) keeps the
// bench targets free to install their own (`benches/objects.rs`).
#[global_allocator]
static GLOBAL: trajectory::CountingAlloc = trajectory::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trajectory") {
        let mut cfg = if args.iter().any(|a| a == "--smoke") {
            TrajectoryConfig::smoke()
        } else {
            TrajectoryConfig::full()
        };
        // `--shards 1,2,4,8` overrides the mode's default shard axis
        // (`--shards 0` or an empty list skips it entirely).
        if let Some(pos) = args.iter().position(|a| a == "--shards") {
            let spec = args
                .get(pos + 1)
                .unwrap_or_else(|| panic!("--shards needs a comma-separated list, e.g. 1,2,4"));
            cfg.shard_counts = spec
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    s.trim()
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("bad shard count {s:?} in --shards {spec}"))
                })
                .filter(|&s| s > 0)
                .collect();
        }
        println!(
            "# trajectory — batched-invocation throughput + sharded scale-out, {} mode\n\
             #   batch axis: {} objects, {}-server group, {} ops/series\n\
             #   shard axis: {} objects across shards {:?}, {} cores available\n",
            cfg.mode,
            cfg.objects,
            cfg.servers,
            cfg.ops_per_series,
            cfg.sharded_objects,
            cfg.shard_counts,
            trajectory::available_cores()
        );
        let started = Instant::now();
        let report = trajectory::run(&cfg);
        let path = trajectory::artifact_path();
        let previous = std::fs::read_to_string(&path).ok();
        let json = report.to_json_with_history(
            previous.as_deref(),
            trajectory::current_pr(),
            &trajectory::today_utc(),
        );
        std::fs::write(&path, json).expect("write BENCH_trajectory.json");
        println!(
            "\nwrote {} ({} batch series, {} shard series) in {:.2?}",
            path.display(),
            report.series.len(),
            report.shard_series.len(),
            started.elapsed()
        );
        let mut failed = false;
        if let Err(msg) = report.check() {
            eprintln!("trajectory gate failed: {msg}");
            failed = true;
        }
        if let Err(msg) = report.check_scaling() {
            eprintln!("trajectory scaling gate failed: {msg}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "trajectory gates passed: batch=16 ≥2× batch=1 ops/sec, \
             batch=64 within 15% of batch=16, sharded scaling floors met on {} core(s)",
            report.cores
        );
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        // Capture the traced canned scenario, validate the Chrome trace
        // in-binary and write both artifacts. No timing is judged: the
        // files are a function of (code, seed), so two processes must
        // write identical bytes.
        let artifacts = tracefile::capture().unwrap_or_else(|e| {
            eprintln!("trace capture failed: {e}");
            std::process::exit(1);
        });
        std::fs::write(tracefile::chrome_path(), &artifacts.chrome_json)
            .expect("write BENCH_trace.json");
        std::fs::write(tracefile::jsonl_path(), &artifacts.jsonl).expect("write BENCH_trace.jsonl");
        println!(
            "wrote {} + {} — validated: {} events ({} spans, {} instants) on {} tracks \
             from {} seed {}",
            tracefile::chrome_path().display(),
            tracefile::jsonl_path().display(),
            artifacts.summary.events,
            artifacts.summary.spans,
            artifacts.summary.instants,
            artifacts.summary.tracks,
            tracefile::TRACE_SCENARIO,
            tracefile::TRACE_SEED,
        );
        return;
    }
    if args.first().map(String::as_str) == Some("trend") {
        let artifact = trajectory::artifact_path();
        let json = std::fs::read_to_string(&artifact).unwrap_or_else(|e| {
            eprintln!(
                "cannot read {} ({e}) — run `experiments trajectory` first",
                artifact.display()
            );
            std::process::exit(1);
        });
        let svg = trend::render_trend_svg(&json).unwrap_or_else(|e| {
            eprintln!("trend render failed: {e}");
            std::process::exit(1);
        });
        std::fs::write(trend::trend_path(), &svg).expect("write BENCH_trend.svg");
        println!(
            "wrote {} ({} bytes) from {} history entries",
            trend::trend_path().display(),
            svg.len(),
            trend::parse_history(&json).map(|h| h.len()).unwrap_or(0),
        );
        return;
    }
    if args.first().map(String::as_str) == Some("soak") {
        let rounds = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(3);
        let base_seed = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);
        let cfg = SoakConfig { base_seed, rounds };
        println!(
            "# soak — {} rounds × 3 policies from seed {} (chained nemeses, \
             counter+kv+account oracles)\n",
            cfg.rounds, cfg.base_seed
        );
        let started = Instant::now();
        let report = run_soak(&cfg);
        println!("{report}");
        println!("(soak finished in {:.2?})", started.elapsed());
        if !report.passed() {
            std::process::exit(1);
        }
        return;
    }
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all_experiments().iter().map(|e| e.id.to_string()).collect()
    } else {
        args
    };

    println!("# groupview experiments\n");
    println!(
        "Reproduction of Little, McCue, Shrivastava — \"Maintaining Information \
         about Persistent Replicated Objects in a Distributed System\" (ICDCS 1993).\n"
    );

    for experiment in all_experiments() {
        if !wanted.iter().any(|w| w == experiment.id) {
            continue;
        }
        let started = Instant::now();
        let tables = (experiment.run)();
        let elapsed = started.elapsed();
        println!("# {} — {}", experiment.id.to_uppercase(), experiment.figure);
        println!("Paper claim: {}\n", experiment.claim);
        for table in tables {
            println!("{table}");
        }
        println!("({} finished in {:.2?})\n", experiment.id, elapsed);
    }
}
