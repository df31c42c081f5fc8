//! The `stob serve` cluster, driven through `st_node::run_cluster`: one
//! OS process per node (this binary re-executed as `stbench serve`),
//! every node byte-compared against the equivalent simulation.

use crate::outcome::{out_dir, status_field_kb, Checks, Outcome};
use crate::sim_run::{check_report, client_metrics, repeat_for, sim_rep, SimRep};
use crate::spec::ClusterSpec;
use crate::stats::Summary;
use st_core::DecisionEvent;
use st_node::{run_cluster, ClusterOptions, ClusterOutcome, ClusterPlan};
use st_sim::DecisionTap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How many set-up runs the set-up time is the median of.
const SETUP_SAMPLES: usize = 5;
/// Harness poll interval (it bounds how finely a run's wall is seen from
/// outside), and the poll count after which the harness gives up (60 s:
/// a healthy run takes a few seconds).
const POLL_MS: u64 = 1;
const TIMEOUT_POLLS: u64 = 60_000;
/// How often the node processes' peak RSS is sampled.
const RSS_SAMPLE: Duration = Duration::from_millis(50);

/// Runs one node to completion from `--plan <file> --id <i> --out <file>`.
fn serve_from_args(argv: &[String]) -> Result<(), String> {
    let get = |key: &str| crate::flag(argv, key).ok_or(format!("serve needs {key}"));
    let id = get("--id")?
        .parse::<u32>()
        .map_err(|_| "--id must be a node index".to_string())?;
    st_node::serve(get("--plan")?, id, get("--out")?)
}

/// The node child: `stbench serve --plan <file> --id <i> --out <file>`.
pub(crate) fn child_serve(argv: &[String]) -> ExitCode {
    match serve_from_args(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The argv prefix of a node process: this binary's `serve` subcommand.
#[cfg(not(test))]
pub(crate) fn node_exec(exe: String) -> Vec<String> {
    vec![exe, "serve".into()]
}

/// Under `cargo test` this executable's `main` belongs to libtest, so a
/// node is the test executable re-run on exactly the `node_child` test;
/// the harness's `--plan/--id/--out` land after `--` as filters that
/// match nothing and are read back from `std::env::args`.
#[cfg(test)]
pub(crate) fn node_exec(exe: String) -> Vec<String> {
    let child = "cluster_run::tests::node_child";
    vec![exe, child.into(), "--exact".into(), "--".into()]
}

/// What the nodes must reproduce: the equivalent simulation's decision
/// stream and decided tip per process, plus its report.
pub(crate) struct Oracle {
    pub(crate) decisions: Vec<Vec<DecisionEvent>>,
    pub(crate) rep: SimRep,
}

/// Runs the plan's equivalent simulation with a decision tap.
pub(crate) fn oracle(plan: &ClusterPlan, checks: &mut Checks) -> Oracle {
    let inputs = ClusterSpec::oracle_inputs(plan);
    let (tap, log) = DecisionTap::new(plan.n);
    let sim = inputs
        .builder()
        .observer(tap)
        .build()
        .expect("the plan's simulation is consistent");
    let rep = sim_rep(sim, None);
    check_report(&inputs, &rep.report, checks);
    let decisions = log.borrow().clone();
    Oracle { decisions, rep }
}

/// A directory of this process's own under the output directory; node
/// plans, outcomes and logs live here and are removed after each run.
pub(crate) fn work_dir(workload: &str, plan: &ClusterPlan) -> PathBuf {
    let (pid, port) = (std::process::id(), plan.base_port);
    out_dir().join(format!("cluster-{workload}-{pid}-{port}"))
}

/// One cluster run: the wall of the `run_cluster` call and the peak of
/// the node processes' summed `VmHWM` while it ran.
pub(crate) struct ClusterRep {
    pub(crate) wall: Duration,
    pub(crate) rss_mb: f64,
    pub(crate) outcome: ClusterOutcome,
}

/// Sum of `VmHWM` over the live children of this process, in MB. Found
/// by scanning `/proc` for `PPid` (no libc, no `unsafe`).
fn children_rss_mb() -> f64 {
    let me = std::process::id() as f64;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter_map(|pid| {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
            (status_field_kb(&status, "PPid:") == Some(me))
                .then(|| status_field_kb(&status, "VmHWM:"))
                .flatten()
        })
        .sum::<f64>()
        / 1024.0
}

pub(crate) fn cluster_rep(plan: &ClusterPlan, dir: &Path) -> Result<ClusterRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let opts = ClusterOptions {
        plan: plan.clone(),
        exec: node_exec(exe.display().to_string()),
        dir: dir.to_path_buf(),
        poll_ms: POLL_MS,
        timeout_polls: TIMEOUT_POLLS,
    };
    let done = AtomicBool::new(false);
    let (result, wall, rss_mb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(children_rss_mb());
                std::thread::sleep(RSS_SAMPLE);
            }
            peak
        });
        let start = Instant::now();
        let result = run_cluster(&opts);
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        (result, wall, sampler.join().unwrap_or(0.0))
    });
    let _ = std::fs::remove_dir_all(dir);
    Ok(ClusterRep {
        wall,
        rss_mb,
        outcome: result?,
    })
}

/// Every node must have finished, without a harness timeout, with the
/// oracle's decision stream and tip (equal events serialise to equal
/// bytes, which is what the repo's MATCH means).
pub(crate) fn check_match(outcome: &ClusterOutcome, oracle: &Oracle, checks: &mut Checks) {
    checks.check(!outcome.timed_out, || "cluster harness timed out".into());
    for run in &outcome.nodes {
        let i = run.node as usize;
        let matches = run.outcome.as_ref().is_some_and(|out| {
            out.decided_tip == oracle.rep.tips[i] && out.decisions == oracle.decisions[i]
        });
        checks.check(matches, || {
            format!(
                "node {i} DIVERGED from the simulation (exit {:?}, {} decisions, oracle {})",
                run.exit_code,
                run.outcome.as_ref().map_or(0, |o| o.decisions.len()),
                oracle.decisions[i].len()
            )
        });
    }
}

/// The timed pass: end-to-end metrics of one cluster workload.
pub(crate) fn timed(
    spec: &ClusterSpec,
    name: &str,
    seed: u64,
    seconds: f64,
    min_reps: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let plan = spec.plan(seed);
    let dir = work_dir(name, &plan);
    let oracle = oracle(&plan, &mut out.checks);
    let run = |plan: &ClusterPlan, checks: &mut Checks| match cluster_rep(plan, &dir) {
        Ok(rep) => Some(rep),
        Err(e) => {
            checks.check(false, || format!("cluster harness: {e}"));
            None
        }
    };

    let setup_plan = spec.setup_plan(seed);
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .filter_map(|_| run(&setup_plan, &mut out.checks))
        .map(|rep| rep.wall.as_secs_f64())
        .collect();

    if let Some(warm) = run(&plan, &mut out.checks) {
        check_match(&warm.outcome, &oracle, &mut out.checks);
    }
    let rounds = (plan.horizon + 1) as f64;
    let (mut rounds_per_s, mut round_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    if out.checks.failures.is_empty() {
        repeat_for(seconds, min_reps, |_| {
            let Some(rep) = run(&plan, &mut out.checks) else {
                return;
            };
            check_match(&rep.outcome, &oracle, &mut out.checks);
            rounds_per_s.push(rounds / rep.wall.as_secs_f64());
            round_ms.push(rep.wall.as_secs_f64() * 1e3 / rounds);
            rss.push(rep.rss_mb);
        });
    }

    out.push(
        "rounds_per_s",
        Summary::median_of("1/s", &rounds_per_s),
        true,
    );
    // Per-round times are not observable from outside a node: a sample
    // here is one repetition's wall ÷ rounds, so these two restate
    // `rounds_per_s` (`EndToEnd::sim_only`; `--compare` leaves them out).
    out.push(
        "round_ms_p50",
        Summary::percentile_of("ms", &round_ms, 50.0),
        true,
    );
    out.push(
        "round_ms_p95",
        Summary::percentile_of("ms", &round_ms, 95.0),
        true,
    );
    client_metrics(&oracle.rep.report, &mut out);
    out.push("peak_rss_mb", Summary::median_of("MB", &rss), true);
    out.push("setup_s", Summary::median_of("s", &setups), true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, END_TO_END, WORKLOADS};

    /// Not a test of its own: the node process of the tiny clusters (see
    /// the test form of `node_exec`). Does nothing in a normal test run.
    #[test]
    fn node_child() {
        let argv: Vec<String> = std::env::args().collect();
        if argv.iter().any(|a| a == "--plan") {
            serve_from_args(&argv).expect("node runs to completion");
        }
    }

    #[test]
    fn children_rss_counts_live_children() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        let seen = children_rss_mb();
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(seen > 0.0, "{seen}");
    }

    #[test]
    fn tiny_cluster_passes_report_every_end_to_end_metric() {
        for w in &WORKLOADS {
            let Kind::Cluster(spec) = w.kind else {
                continue;
            };
            let out = timed(&spec.tiny(), w.name, 5, 0.0, 2);
            assert_eq!(out.checks.failures, Vec::<String>::new(), "{}", w.name);
            for m in &END_TO_END {
                let v = out
                    .value(m.name)
                    .unwrap_or_else(|| panic!("{} {}", w.name, m.name));
                assert!(v.is_finite() && v >= 0.0, "{} {} = {v}", w.name, m.name);
            }
        }
    }

    #[test]
    fn a_diverged_node_fails_the_match() {
        let Kind::Cluster(spec) = WORKLOADS[3].kind else {
            unreachable!()
        };
        let mut tiny = spec.tiny();
        tiny.base_port += 20;
        let plan = tiny.plan(2);
        let mut checks = Checks::default();
        let oracle = oracle(&plan, &mut checks);
        let mut rep = cluster_rep(&plan, &work_dir("match-test", &plan)).unwrap();
        check_match(&rep.outcome, &oracle, &mut checks);
        assert_eq!(checks.failures, Vec::<String>::new());
        rep.outcome.nodes[1]
            .outcome
            .as_mut()
            .unwrap()
            .decisions
            .pop();
        check_match(&rep.outcome, &oracle, &mut checks);
        assert_eq!(checks.failures.len(), 1);
        assert!(checks.failures[0].contains("node 1 DIVERGED"));
    }
}
