//! Regenerates the paper's figures as measured tables, runs the
//! scenario-driven soak, and captures the canned trace.
//!
//! ```text
//! cargo run -p groupview-bench --bin experiments --release          # all
//! cargo run -p groupview-bench --bin experiments --release e9 e10  # some
//! cargo run -p groupview-bench --bin experiments --release soak    # soak
//! cargo run -p groupview-bench --bin experiments --release soak 5 100
//! #                                        rounds ───┘     │
//! #                                        base seed ──────┘
//! cargo run -p groupview-bench --bin experiments --release trace
//! ```
//!
//! Anything else exits 2 with a usage line.

use groupview_bench::all_experiments;
use groupview_scenario::{canned_scenarios, run_scenario_traced, run_soak, SoakConfig};
use std::path::Path;
use std::time::Instant;

/// The canned scenario `trace` captures: a crash the replication layer
/// must mask, so the trace shows bind/invoke/multicast spans, a crash
/// instant, lost messages attributed to the actions they interrupted, and
/// the recovery traffic.
const TRACE_SCENARIO: &str = "active/masked_server_crash";
/// The seed `trace` uses (any seed works; fixing one keeps the artifact
/// reproducible).
const TRACE_SEED: u64 = 7;

/// What one invocation runs.
#[derive(Debug, PartialEq)]
enum Command {
    /// These experiment ids, run in index order.
    Experiments(Vec<String>),
    /// The chained-nemesis soak.
    Soak { rounds: u64, base_seed: u64 },
    /// The traced canned scenario, written to the repository root.
    Trace,
}

/// Parses the arguments against the experiment `ids`; the error is the
/// message to print above the usage line.
fn parse(args: &[String], ids: &[&str]) -> Result<Command, String> {
    let number = |i: usize, default: u64| match args.get(i) {
        None => Ok(default),
        Some(a) => a
            .parse()
            .map_err(|_| format!("soak takes numbers, got {a:?}")),
    };
    match args.first().map(String::as_str) {
        Some("soak") if args.len() <= 3 => Ok(Command::Soak {
            rounds: number(1, 3)?,
            base_seed: number(2, 1)?,
        }),
        Some("soak") => Err("soak takes at most two numbers".to_string()),
        Some("trace") if args.len() == 1 => Ok(Command::Trace),
        Some("trace") => Err("trace takes no arguments".to_string()),
        _ => match args
            .iter()
            .find(|a| *a != "all" && !ids.contains(&a.as_str()))
        {
            Some(unknown) => Err(format!("unknown experiment {unknown:?}")),
            None if args.is_empty() || args.iter().any(|a| a == "all") => Ok(Command::Experiments(
                ids.iter().map(|id| id.to_string()).collect(),
            )),
            None => Ok(Command::Experiments(args.to_vec())),
        },
    }
}

fn usage(ids: &[&str]) -> String {
    format!(
        "usage: experiments [all | {}]... | soak [rounds [base-seed]] | trace",
        ids.join(" | ")
    )
}

fn main() {
    let experiments = all_experiments();
    let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args, &ids).unwrap_or_else(|msg| {
        eprintln!("experiments: {msg}\n{}", usage(&ids));
        std::process::exit(2);
    });
    match command {
        Command::Trace => {
            // Run the canned scenario traced and write both artifacts to
            // the repository root. No timing is judged: the files are a
            // function of (code, seed), so two processes must write
            // identical bytes. A track out of time order or a failed
            // scenario exits 1.
            let scenario = canned_scenarios()
                .into_iter()
                .find(|s| s.name == TRACE_SCENARIO)
                .expect("the traced scenario is canned");
            let run = run_scenario_traced(&scenario, TRACE_SEED);
            let (chrome_json, summary) = run.chrome_json().unwrap_or_else(|e| {
                eprintln!("trace capture failed: {e}");
                std::process::exit(1);
            });
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let chrome_path = root.join("BENCH_trace.json");
            let jsonl_path = root.join("BENCH_trace.jsonl");
            std::fs::write(&chrome_path, chrome_json).expect("write BENCH_trace.json");
            std::fs::write(&jsonl_path, run.jsonl()).expect("write BENCH_trace.jsonl");
            println!(
                "wrote {} + {} — checked: {} events ({} spans, {} instants) on {} tracks \
                 from {TRACE_SCENARIO} seed {TRACE_SEED}",
                chrome_path.display(),
                jsonl_path.display(),
                summary.events,
                summary.spans,
                summary.instants,
                summary.tracks,
            );
            if !run.report.passed() {
                println!("{}", run.report);
                std::process::exit(1);
            }
        }
        Command::Soak { rounds, base_seed } => {
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
        }
        Command::Experiments(wanted) => {
            println!("# groupview experiments\n");
            println!(
                "Reproduction of Little, McCue, Shrivastava — \"Maintaining Information \
                 about Persistent Replicated Objects in a Distributed System\" (ICDCS 1993).\n"
            );
            for experiment in experiments {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDS: [&str; 3] = ["e1", "e2", "e3"];

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, &IDS)
    }

    fn ids(ids: &[&str]) -> Command {
        Command::Experiments(ids.iter().map(|id| id.to_string()).collect())
    }

    #[test]
    fn parse_accepts_what_it_can_run_and_refuses_the_rest() {
        assert_eq!(parse_strs(&["e3", "e1"]), Ok(ids(&["e3", "e1"])));
        assert_eq!(parse_strs(&["all"]), Ok(ids(&IDS)));
        assert_eq!(parse_strs(&[]), Ok(ids(&IDS)));
        assert_eq!(parse_strs(&["trace"]), Ok(Command::Trace));
        let soak = |rounds, base_seed| Ok(Command::Soak { rounds, base_seed });
        assert_eq!(parse_strs(&["soak"]), soak(3, 1));
        assert_eq!(parse_strs(&["soak", "5", "100"]), soak(5, 100));

        let err = parse_strs(&["e1", "bogus"]).unwrap_err();
        assert!(err.contains("\"bogus\""), "{err}");
        assert!(parse_strs(&["all", "e9"]).is_err());
        assert!(parse_strs(&["soak", "abc"]).is_err());
        assert!(parse_strs(&["soak", "5", "x"]).is_err());
        assert!(parse_strs(&["soak", "1", "2", "3"]).is_err());
        assert!(parse_strs(&["trace", "e1"]).is_err());
        assert!(usage(&IDS).contains("e1 | e2 | e3"));
    }
}
