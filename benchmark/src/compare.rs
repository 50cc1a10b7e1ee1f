//! `bench compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) with both medians, the ratio with its base, the bound and a
//! verdict. Reads the result files `bench all` writes.

use crate::catalogue::{Better, EndToEnd, END_TO_END};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The spread between repeats on either side is wider than the bound,
    /// so a difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the value a run reported for a metric, and
/// the spread between its repeats (distance between the quartiles of the
/// single passes as a share of their median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    if metric.exact {
        // A function of (code, seed): any difference is real, none is noise.
        return if worsening(metric, a.value, b.value) > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    if a.spread > metric.bound || b.spread > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, a.value, b.value) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn side(run: &Value, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread")?.as_f64()?,
    })
}

fn untraced_runs(file: &Value) -> Vec<&Value> {
    file.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .collect()
}

/// Rows for every (workload, end-to-end metric) present in both files.
///
/// # Errors
///
/// The files share no workload, or differ in seed (medians of different
/// inputs are not comparable).
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for run_a in untraced_runs(a) {
        let name = run_a.get("workload").and_then(Value::as_str).unwrap_or("");
        let Some(run_b) = untraced_runs(b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        if run_a.get("seed") != run_b.get("seed") || run_a.get("sizes") != run_b.get("sizes") {
            return Err(format!("{name}: the two files differ in seed or sizes"));
        }
        for metric in &END_TO_END {
            if let (Some(sa), Some(sb)) = (side(run_a, metric.name), side(run_b, metric.name)) {
                rows.push(Row {
                    workload: name.to_string(),
                    metric,
                    a: sa,
                    b: sb,
                    verdict: verdict(metric, sa, sb),
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<20} {:>14.4} {:>14.4} {:>9.4} (base {:>9.4}) {:>6.2}  {}",
            r.workload,
            r.metric.name,
            r.a.value,
            r.b.value,
            r.b.value / r.a.value,
            r.a.value,
            r.metric.bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            spread: 0.02,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let cps = metric("commits_per_s"); // higher is better, bound 0.25
        assert_eq!(verdict(cps, steady(100.0), steady(80.0)), Verdict::Ok);
        assert_eq!(verdict(cps, steady(100.0), steady(70.0)), Verdict::Worse);
        assert_eq!(verdict(cps, steady(100.0), steady(150.0)), Verdict::Ok);
        let p50 = metric("commit_us_p50"); // lower is better, bound 0.25
        assert_eq!(verdict(p50, steady(20.0), steady(24.0)), Verdict::Ok);
        assert_eq!(verdict(p50, steady(20.0), steady(26.0)), Verdict::Worse);
        let noisy = Side {
            value: 20.0,
            spread: 0.35,
        };
        assert_eq!(verdict(p50, steady(20.0), noisy), Verdict::Unresolved);
        assert_eq!(verdict(p50, noisy, steady(30.0)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_are_never_unresolved() {
        let msgs = metric("msgs_per_commit");
        let exact = |value| Side { value, spread: 0.0 };
        assert_eq!(verdict(msgs, exact(28.0), exact(28.0)), Verdict::Ok);
        assert_eq!(verdict(msgs, exact(28.0), exact(30.0)), Verdict::Worse);
        assert_eq!(verdict(msgs, exact(28.0), exact(20.0)), Verdict::Ok);
    }

    #[test]
    fn compare_pairs_runs_by_workload_and_refuses_mixed_seeds() {
        let file = |seed: u64, cps: f64| {
            crate::json::parse(&format!(
                r#"{{"runs":[{{"workload":"short_warm","trace":false,"seed":{seed},"sizes":{{}},
                "metrics":{{"commits_per_s":{{"value":{cps},"spread":0.01}}}}}},
                {{"workload":"short_warm","trace":true,"seed":{seed},"metrics":{{}}}}]}}"#
            ))
            .expect("json")
        };
        let rows = compare(&file(1, 100.0), &file(1, 70.0)).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(compare(&file(1, 100.0), &file(2, 100.0)).is_err());
    }
}
