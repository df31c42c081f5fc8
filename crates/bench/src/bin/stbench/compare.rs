//! `stbench --compare A.json B.json`: applies each end-to-end metric's
//! bound to every (workload, metric) pair of two result files — A the
//! baseline, B the candidate — and exits non-zero on any regression.
//! When both files were made from one seed, the metrics that depend on
//! the seed alone may not increase at all.

use crate::spec::{Better, EndToEnd, Kind, END_TO_END, WORKLOADS};
use serde::Value;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The repetition spread of either side exceeds the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

/// One side of a comparison: the reported value and the spread of the
/// repetitions behind it, as a share of the value.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Side {
    pub(crate) value: f64,
    pub(crate) spread: f64,
}

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when it is better). A zero baseline has no share: any move in the
/// worse direction is infinitely worse.
fn worse_by(better: Better, base: f64, cand: f64) -> f64 {
    let delta = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// The share of the baseline the metric may move before it counts: its
/// bound, or its absolute floor if that is larger at this baseline —
/// or nothing, for a seed-determined metric of two runs of one seed.
fn allowed(metric: &EndToEnd, base: f64, same_seed: bool) -> f64 {
    if metric.exact_per_seed && same_seed {
        0.0
    } else if base == 0.0 {
        metric.bound
    } else {
        metric.bound.max(metric.floor / base.abs())
    }
}

pub(crate) fn verdict(metric: &EndToEnd, base: Side, cand: Side, same_seed: bool) -> Verdict {
    let allowed = allowed(metric, base.value, same_seed);
    let worse = worse_by(metric.better, base.value, cand.value);
    if base.spread.max(cand.spread) > allowed {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regressed
    } else if worse < -allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: number(m.get("value"))?,
        spread: number(m.get("spread")).unwrap_or(0.0),
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a result file: {e}"))
}

/// Compares every (workload, metric) pair the workload defines; returns
/// the rows and whether any regressed. A pair missing from either file is
/// a regression: the candidate must report everything the baseline does.
pub(crate) fn compare(a: &Value, b: &Value) -> (Vec<String>, bool) {
    let seed = |results: &Value| number(results.get("seed"));
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            if m.sim_only && matches!(w.kind, Kind::Cluster(_)) {
                continue; // `rounds_per_s` restated; see `EndToEnd::sim_only`
            }
            let row = match (side(a, w.name, m.name), side(b, w.name, m.name)) {
                (Some(base), Some(cand)) => {
                    let v = verdict(m, base, cand, same_seed);
                    regressed |= v == Verdict::Regressed;
                    format!(
                        "{:<15} {:<26} {:>14.4} -> {:>14.4} {:<6} {:+8.2}% (bound {:.0}%)  {v:?}",
                        w.name,
                        m.name,
                        base.value,
                        cand.value,
                        m.unit,
                        -100.0 * worse_by(m.better, base.value, cand.value),
                        100.0 * allowed(m, base.value, same_seed),
                    )
                }
                _ => {
                    regressed = true;
                    format!("{:<15} {:<26} missing from a result file", w.name, m.name)
                }
            };
            rows.push(row);
        }
    }
    (rows, regressed)
}

pub(crate) fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("baseline {a_path}, candidate {b_path} (change shown as improvement-positive)");
    let (rows, regressed) = compare(&a, &b);
    for row in &rows {
        println!("{row}");
    }
    if regressed {
        println!("verdict: REGRESSED");
        ExitCode::FAILURE
    } else {
        println!("verdict: no regression");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            spread: 0.01,
        }
    }

    /// The verdict between result files of different seeds.
    fn verdict(metric: &EndToEnd, base: Side, cand: Side) -> Verdict {
        super::verdict(metric, base, cand, false)
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        let rps = metric("rounds_per_s"); // higher is better, 25 %
        assert_eq!(
            verdict(rps, steady(100.0), steady(80.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(rps, steady(100.0), steady(74.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rps, steady(100.0), steady(126.0)),
            Verdict::Improved
        );
        let rss = metric("peak_rss_mb"); // lower is better, 10 %
        assert_eq!(verdict(rss, steady(50.0), steady(54.9)), Verdict::Unchanged);
        assert_eq!(verdict(rss, steady(50.0), steady(55.1)), Verdict::Regressed);
        assert_eq!(verdict(rss, steady(50.0), steady(40.0)), Verdict::Improved);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let rps = metric("rounds_per_s");
        let noisy = Side {
            value: 100.0,
            spread: 0.3,
        };
        assert_eq!(verdict(rps, noisy, steady(50.0)), Verdict::Unresolved);
        assert_eq!(verdict(rps, steady(100.0), noisy), Verdict::Unresolved);
    }

    #[test]
    fn setup_floor_overrides_the_share_on_small_baselines() {
        let setup = metric("setup_s"); // 25 % or 50 ms, whichever is larger
                                       // 10 ms -> 40 ms is +300 % but only +30 ms: inside the floor.
        assert_eq!(
            verdict(setup, steady(0.010), steady(0.040)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(setup, steady(0.010), steady(0.070)),
            Verdict::Regressed
        );
        // At 1 s the share governs: +25 % allowed, +30 % not.
        assert_eq!(
            verdict(setup, steady(1.0), steady(1.24)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(setup, steady(1.0), steady(1.30)),
            Verdict::Regressed
        );
        assert!((allowed(setup, 0.1, true) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_zero_baseline_regresses_on_any_increase() {
        let failed = metric("ops_failed_share");
        assert_eq!(
            verdict(failed, steady(0.0), steady(0.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(failed, steady(0.0), steady(0.01)),
            Verdict::Regressed
        );
    }

    #[test]
    fn seed_determined_metrics_may_not_increase_on_one_seed() {
        let exact = |value| Side { value, spread: 0.0 };
        let failed = metric("ops_failed_share"); // 15 % across seeds
        let (base, cand) = (exact(0.008), exact(0.009));
        assert_eq!(
            super::verdict(failed, base, cand, false),
            Verdict::Unchanged
        );
        assert_eq!(super::verdict(failed, base, cand, true), Verdict::Regressed);
        assert_eq!(super::verdict(failed, cand, base, true), Verdict::Improved);
        assert_eq!(super::verdict(failed, base, base, true), Verdict::Unchanged);
        let p95 = metric("decide_latency_rounds_p95"); // 10 % across seeds
        let (base, cand) = (exact(100.0), exact(109.0));
        assert_eq!(super::verdict(p95, base, cand, false), Verdict::Unchanged);
        assert_eq!(super::verdict(p95, base, cand, true), Verdict::Regressed);
        // A measured metric keeps its bound whatever the seeds.
        let rss = metric("peak_rss_mb");
        assert_eq!(
            super::verdict(rss, steady(50.0), steady(54.9), true),
            Verdict::Unchanged
        );
    }

    /// A result file in which every metric is 1 except the two given.
    fn results(seed: u64, rounds_per_s: f64, ops_failed_share: f64) -> Value {
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "rounds_per_s" => rounds_per_s,
                    "ops_failed_share" => ops_failed_share,
                    _ => 1.0,
                };
                let entry = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("spread".to_string(), Value::F64(0.0)),
                ];
                (m.name.to_string(), Value::Map(entry))
            })
            .collect();
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let body = vec![("end_to_end".to_string(), Value::Map(Vec::clone(&e2e)))];
                (w.name.to_string(), Value::Map(body))
            })
            .collect();
        Value::Map(vec![
            ("seed".to_string(), Value::U64(seed)),
            ("workloads".to_string(), Value::Map(workloads)),
        ])
    }

    #[test]
    fn whole_files_compare_pair_by_pair() {
        let base = results(1, 100.0, 0.5);
        let (rows, regressed) = compare(&base, &base);
        // `round_ms_*` is not compared on the two cluster workloads.
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len() - 2 * 2);
        assert!(!regressed);
        let (rows, regressed) = compare(&base, &results(1, 70.0, 0.5));
        assert!(regressed);
        assert_eq!(
            rows.iter().filter(|r| r.contains("Regressed")).count(),
            WORKLOADS.len()
        );
        // +2 % of failed operations: a regression on the same seed, inside
        // the bound on another.
        let (_, regressed) = compare(&base, &results(1, 100.0, 0.51));
        assert!(regressed);
        let (_, regressed) = compare(&base, &results(2, 100.0, 0.51));
        assert!(!regressed);
        // A metric the candidate no longer reports is a regression too.
        let (_, regressed) = compare(&base, &Value::Map(Vec::new()));
        assert!(regressed);
    }
}
