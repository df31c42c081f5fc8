//! **stbench** — the repo's benchmark, for both runtimes.
//!
//! Five named workloads (three on `Simulation`, two on a `stob serve`
//! cluster of OS processes), eight end-to-end metrics measured untraced,
//! and a traced pass that times every layer from outside. See
//! `README.md` next to this file for the tables and how to read the
//! output.
//!
//! ```text
//! stbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass (the driver's form)
//! stbench [--seed <n>] [--seconds <s>]                               every workload, both passes
//! stbench --compare A.json B.json                                    apply the bounds to two result files
//! ```
//!
//! Each workload runs in its own process (the all-workloads form and the
//! cluster harness both re-exec this binary), so peak RSS is per
//! workload.

mod cluster_run;
mod compare;
mod layers;
mod outcome;
mod probe;
mod replay;
mod sim_run;
mod spec;
mod stats;
mod trace;

use outcome::{out_dir, Outcome};
use serde::Value;
use spec::{Kind, WorkloadDef, WORKLOADS};
use std::process::{Command, ExitCode};

/// `BENCHMARK.json`'s `run_seconds`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 10.0;
/// Never fewer timed repetitions than this, however short `--seconds`.
const MIN_REPS: usize = 3;

fn flag<'a>(argv: &'a [String], key: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == key)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("stbench: {problem}");
    eprintln!(
        "usage: stbench [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       stbench --compare A.json B.json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return cluster_run::child_serve(&argv[1..]);
    }
    if let Some(i) = argv.iter().position(|a| a == "--compare") {
        return match (argv.get(i + 1), argv.get(i + 2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => usage("--compare needs two result files"),
        };
    }
    let Ok(seed) = flag(&argv, "--seed").unwrap_or("1").parse::<u64>() else {
        return usage("--seed must be a whole number");
    };
    let seconds = match flag(&argv, "--seconds").map(str::parse::<f64>) {
        None => DEFAULT_SECONDS,
        Some(Ok(s)) if s.is_finite() && s >= 0.0 => s,
        Some(_) => return usage("--seconds must be a non-negative number"),
    };
    let traced = match flag(&argv, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    match flag(&argv, "--workload") {
        Some(name) => match spec::workload(name) {
            Some(def) => run_one(def, seed, seconds, traced),
            None => usage(&format!("unknown workload {name:?}")),
        },
        None => run_all(seed, seconds),
    }
}

/// Where one pass leaves its detailed result for the all-workloads form.
fn detail_path(workload: &str, traced: bool) -> std::path::PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", u8::from(traced)))
}

/// One pass of one workload: prints every metric by name with its unit
/// and sample count, then the one-line JSON result.
fn run_one(def: &WorkloadDef, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    println!(
        "stbench {} seed {seed} ({} pass, {seconds} s): {}",
        def.name,
        if traced { "traced" } else { "timed" },
        def.why
    );
    let out = match (def.kind, traced) {
        (Kind::Sim(spec), false) => sim_run::timed(&spec, seed, seconds, MIN_REPS),
        (Kind::Cluster(spec), false) => {
            cluster_run::timed(&spec, def.name, seed, seconds, MIN_REPS)
        }
        (_, true) => layers::traced(def, seed),
    };
    for m in &out.metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} n={:<6} min {:.6} max {:.6}{}",
            m.name,
            m.summary.value,
            m.summary.unit,
            m.summary.n,
            m.summary.min,
            m.summary.max,
            if m.over_reps && m.summary.spread() > stats::NOISY_SPREAD {
                "  NOISY"
            } else {
                ""
            }
        );
    }
    let correct = out.checks.failures.is_empty();
    for f in &out.checks.failures {
        eprintln!("stbench {}: FAILED: {f}", def.name);
    }
    if correct {
        // Nothing is written for a failed pass.
        let detail = Value::Map(
            out.metrics
                .iter()
                .map(|m| (m.name.to_string(), m.summary.to_value(m.over_reps)))
                .collect(),
        );
        let path = detail_path(def.name, traced);
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            std::fs::write(&path, serde_json::to_string(&detail).unwrap_or_default())
        });
        if let Err(e) = written {
            eprintln!("stbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last line of a pass: `correct`, `attempted`, `failed`, `metrics`.
/// An operation here is one output check (safety, resilience, mempool
/// accounting, report digest, node MATCH, probe cross-check); client
/// transactions that were never decided are the `ops_failed_share`
/// metric, not failures of the benchmark.
fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::F64(m.summary.value)),
                    ("unit".to_string(), Value::Str(m.summary.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        (
            "correct".to_string(),
            Value::Bool(out.checks.failures.is_empty()),
        ),
        (
            "attempted".to_string(),
            Value::U64(out.checks.attempted.max(1)),
        ),
        (
            "failed".to_string(),
            Value::U64(out.checks.failures.len() as u64),
        ),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Every workload, timed then traced, each pass in a child process;
/// assembles `results.json` (the input of `--compare`) from the passes'
/// detail files. Stops at the first failing pass and writes nothing.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("stbench: cannot find own path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load_before = loadavg();
    // One pass in a child process; its detail file, or why there is none.
    let pass = |def: &WorkloadDef, traced: bool| -> Result<Value, String> {
        let _ = std::fs::remove_file(detail_path(def.name, traced));
        let status = Command::new(&exe)
            .args(["--workload", def.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            return Err(format!("{} failed; no results written", def.name));
        }
        std::fs::read_to_string(detail_path(def.name, traced))
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .ok_or(format!("{} left no readable detail file", def.name))
    };
    let mut workloads = Vec::new();
    for def in &WORKLOADS {
        let passes = pass(def, false).and_then(|timed| Ok((timed, pass(def, true)?)));
        let (end_to_end, per_layer) = match passes {
            Ok(passes) => passes,
            Err(e) => {
                eprintln!("stbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        workloads.push((
            def.name.to_string(),
            Value::Map(vec![
                ("why".to_string(), Value::Str(def.why.to_string())),
                ("end_to_end".to_string(), end_to_end),
                ("per_layer".to_string(), per_layer),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let results = Value::Map(vec![
        ("seed".to_string(), Value::U64(seed)),
        ("seconds".to_string(), Value::F64(seconds)),
        ("nproc".to_string(), Value::U64(nproc)),
        (
            "rustc".to_string(),
            Value::Str(command_output("rustc", &["--version"])),
        ),
        (
            "git_commit".to_string(),
            Value::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_before".to_string(), Value::Str(load_before)),
        ("loadavg_after".to_string(), Value::Str(loadavg())),
        ("workloads".to_string(), Value::Map(workloads)),
        ("claim".to_string(), Value::Null),
    ]);
    let path = out_dir().join("results.json");
    let rendered = serde_json::to_string_pretty(&results).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, rendered) {
        eprintln!("stbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nresults: {}", path.display());
    println!("\"claim\": null");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.checks.check(true, || unreachable!());
        out.push("setup_s", Summary::once("s", 0.25), false);
        let v: Value = serde_json::from_str(&result_line(&out)).unwrap();
        let Value::Map(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::U64(1)));
        assert_eq!(v.get("failed"), Some(&Value::U64(0)));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value"), Some(&Value::F64(0.25)));
        assert_eq!(m.get("unit"), Some(&Value::Str("s".into())));
    }

    #[test]
    fn flags_are_read_by_name() {
        let argv: Vec<String> = ["--seed", "7", "--trace", "1"].map(String::from).to_vec();
        assert_eq!(flag(&argv, "--seed"), Some("7"));
        assert_eq!(flag(&argv, "--trace"), Some("1"));
        assert_eq!(flag(&argv, "--workload"), None);
    }
}
