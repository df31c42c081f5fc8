//! `stob` — command-line runner for the sleepy-tob simulator.
//!
//! ```text
//! stob run        [--n 16] [--eta 4] [--rounds 60] [--seed 1] [--churn 0.0]
//!                 [--byz 0] [--txs 4] [--async-at R --pi P] [--adversary NAME]
//!                 [--protocol sleepy|quorum] [--timeline]
//! stob curve      [--beta 0.3333] — print the Figure-1 β̃ curve
//! stob check      [--n 16] [--eta 4] [--gamma 0.1] [--sleep 0.02] — verify
//!                 Equations 1–3 for a random-churn schedule
//! stob scenario   [NAME|list] — run a named set-piece (the paper's attacks,
//!                 the Ethereum incident, …); exit 1 when the outcome
//!                 differs from the scenario's expected one
//! stob explore    [--pi 1] [--eta 4] — exhaustively enumerate every
//!                 delivery strategy at n = 4 (Theorem 2, verified)
//! stob serve      --plan plan.json --id 0 --out node_0.json — run one
//!                 socket node of a scripted cluster (see `stob cluster`)
//! stob cluster    [--smoke] [--n 5] [--rounds 60] [--seed 7] [--txs 3]
//!                 [--tick 10] [--base-port 39700] [--dir DIR] [--report FILE] —
//!                 spawn a real multi-process TCP cluster with scripted
//!                 kill/sleep/partition faults and byte-compare every
//!                 node's decided chain against the equivalent simulation
//! ```
//!
//! Adversaries: `silent`, `blackout`, `partition`, `reorg`, `equivocate`,
//! `junk`, `withhold`.
//!
//! Protocols (`run` only): `sleepy` (default — Algorithm 1 with
//! expiration η, grading support against perceived participation) and
//! `quorum` (the fixed-quorum BFT baseline: the same protocol grading
//! against all n processes). Every adversary, `--eta` and `--byz` apply
//! to both.

// A crate attribute in lib.rs does not reach this bin target.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use sleepy_tob::prelude::*;
use sleepy_tob::sim::adversary::{Adversary, JunkVoter, WithholdingLeader};
use sleepy_tob::sim::ChurnOptions;
use sleepy_tob::types::ParamsBuilder;
use std::collections::HashMap;
use std::process::ExitCode;

/// Minimal `--key value` argument parser (flags without values get "true").
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let has_value = i + 1 < argv.len() && !argv[i + 1].starts_with("--");
                if has_value {
                    values.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    values.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                eprintln!("warning: ignoring stray argument {:?}", argv[i]);
                i += 1;
            }
        }
        Args { values }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v:?}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }
}

fn make_adversary(name: &str) -> Option<Box<dyn Adversary>> {
    Some(match name {
        "silent" => Box::new(SilentAdversary),
        "blackout" => Box::new(BlackoutAdversary),
        "partition" => Box::new(PartitionAttacker::new()),
        "reorg" => Box::new(ReorgAttacker::new()),
        "equivocate" => Box::new(EquivocatingVoter::new()),
        "junk" => Box::new(JunkVoter::new()),
        "withhold" => Box::new(WithholdingLeader::new()),
        _ => return None,
    })
}

/// Validates a command's parameters by `Params`' own rule, saying what is
/// wrong when they break it.
fn build_params(builder: ParamsBuilder) -> Option<Params> {
    (builder.build())
        .map_err(|e| eprintln!("invalid parameters: {e}"))
        .ok()
}

fn cmd_run(args: &Args) -> ExitCode {
    let n: usize = args.get("n", 16);
    let eta: u64 = args.get("eta", 4);
    let rounds: u64 = args.get("rounds", 60);
    let seed: u64 = args.get("seed", 1);
    let churn: f64 = args.get("churn", 0.0);
    let byz: usize = args.get("byz", 0);
    let txs: u64 = args.get("txs", 4);
    if !(0.0..1.0).contains(&churn) {
        eprintln!("--churn must lie in [0, 1), got {churn}");
        return ExitCode::from(2);
    }
    let adversary_name = args.opt("adversary").unwrap_or("silent");
    let protocol = args.opt("protocol").unwrap_or("sleepy");
    let participation = match protocol {
        "sleepy" => Participation::Perceived,
        "quorum" => Participation::Fixed,
        _ => {
            eprintln!("unknown protocol {protocol:?} (expected sleepy|quorum)");
            return ExitCode::from(2);
        }
    };
    if byz >= n {
        eprintln!("--byz {byz} leaves no honest process among --n {n}");
        return ExitCode::from(2);
    }
    let builder = Params::builder(n)
        .expiration(eta)
        .churn_rate(churn.min(0.32))
        .participation(participation);
    let Some(params) = build_params(builder) else {
        return ExitCode::from(2);
    };

    let schedule = if churn > 0.0 {
        let sleep_prob = 1.0 - (1.0 - churn).powf(1.0 / eta.max(1) as f64);
        Schedule::random_churn(
            n,
            rounds,
            sleep_prob,
            seed,
            &ChurnOptions {
                min_awake_frac: 0.4,
                wake_prob: 0.3,
                ..Default::default()
            },
        )
    } else {
        Schedule::full(n, rounds)
    }
    .with_static_byzantine(byz);

    let mut config = SimConfig::new(params, seed).horizon(rounds);
    if args.flag("async-at") {
        let at: u64 = args.get("async-at", 0);
        let pi: u64 = args.get("pi", 1);
        if at == 0 {
            eprintln!("--async-at must be ≥ 1");
            return ExitCode::from(2);
        }
        if pi == 0 {
            eprintln!("--pi must be ≥ 1");
            return ExitCode::from(2);
        }
        config = config.timeline(Timeline::synchronous().asynchronous(Round::new(at), pi));
    } else if args.flag("pi") {
        eprintln!("--pi sets the length of the --async-at window; give --async-at too");
        return ExitCode::from(2);
    }

    let Some(adversary) = make_adversary(adversary_name) else {
        eprintln!("unknown adversary {adversary_name:?}");
        return ExitCode::from(2);
    };
    let report = with_txs(SimBuilder::from_config(config), txs)
        .schedule(schedule)
        .adversary_boxed(adversary)
        .run();
    println!("protocol             : {protocol}");
    println!("adversary            : {}", report.adversary);
    println!("rounds               : 0..={}", report.rounds_run);
    println!("decision events      : {}", report.decisions_total);
    println!("final chain height   : {}", report.final_decided_height);
    println!("messages sent        : {}", report.messages_sent);
    println!("agreement violations : {}", report.safety_violations.len());
    println!(
        "D_ra conflicts       : {}",
        report.resilience_violations.len()
    );
    if !report.recoveries.is_empty() {
        println!(
            "worst healing lag    : {}",
            report
                .max_recovery_rounds()
                .map_or("—".into(), |l| format!("{l} rounds")),
        );
    }
    println!(
        "tx inclusion         : {:.0}% (mean latency {})",
        report.tx_inclusion_rate() * 100.0,
        report
            .mean_tx_latency()
            .map_or("—".into(), |l| format!("{l:.1} rounds")),
    );
    if args.flag("timeline") {
        print!("{}", report.timeline.to_csv());
    }
    if report.is_safe() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_curve(args: &Args) -> ExitCode {
    let beta: f64 = args.get("beta", 1.0 / 3.0);
    if build_params(Params::builder(1).failure_ratio(beta)).is_none() {
        return ExitCode::from(2);
    }
    println!("γ      β̃(β = {beta:.4})");
    let mut g = 0.0;
    while g < beta + 0.07 {
        let v = adjusted_failure_ratio(beta, g).max(0.0);
        let bars = (v * 120.0) as usize;
        println!("{g:.2}   {v:.3}  {}", "█".repeat(bars));
        g += 0.02;
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &Args) -> ExitCode {
    let n: usize = args.get("n", 16);
    let eta: u64 = args.get("eta", 4);
    let gamma: f64 = args.get("gamma", 0.1);
    let sleep: f64 = args.get("sleep", 0.02);
    let seed: u64 = args.get("seed", 1);
    let Some(params) = build_params(Params::builder(n).churn_rate(gamma).expiration(eta)) else {
        return ExitCode::from(2);
    };
    if !(0.0..=1.0).contains(&sleep) {
        eprintln!("--sleep is a per-round probability and must lie in [0, 1], got {sleep}");
        return ExitCode::from(2);
    }
    let schedule = Schedule::random_churn(
        n,
        60,
        sleep,
        seed,
        &ChurnOptions {
            min_awake_frac: 0.4,
            wake_prob: 0.3,
            ..Default::default()
        },
    );
    let report = check_conditions(&schedule, params.failure_ratio(), gamma, eta, None);
    println!("schedule: n = {n}, 60 rounds, per-round sleep {sleep}, seed {seed}");
    println!(
        "Eq.1 (churn ≤ γ = {gamma}): {} violating rounds",
        report.churn_violations.len()
    );
    println!(
        "Eq.3 (η-sleepiness):      {} violating rounds",
        report.eta_sleepiness_violations.len()
    );
    println!(
        "verdict: synchronous-operation conditions {}",
        if report.synchronous_conditions_hold() {
            "HOLD"
        } else {
            "VIOLATED"
        },
    );
    if report.synchronous_conditions_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_scenario(argv: &[String]) -> ExitCode {
    use sleepy_tob::sim::scenario::Scenario;
    let name = argv.first().map(String::as_str).unwrap_or("list");
    if name == "list" {
        println!("available scenarios:");
        for s in Scenario::ALL {
            println!("  {:<22} {}", s.name(), s.describe());
        }
        return ExitCode::SUCCESS;
    }
    let Some(scenario) = Scenario::by_name(name) else {
        eprintln!("unknown scenario {name:?}; try `stob scenario list`");
        return ExitCode::from(2);
    };
    let report = scenario.run(7);
    let (expect_safe, expect_resilient) = scenario.expected();
    println!("{}: {}", scenario.name(), scenario.describe());
    println!(
        "  agreement violations : {}",
        report.safety_violations.len()
    );
    println!(
        "  D_ra conflicts       : {}",
        report.resilience_violations.len()
    );
    println!("  final chain height   : {}", report.final_decided_height);
    println!(
        "  outcome              : safe={} resilient={} (expected {}/{})",
        report.is_safe(),
        report.is_asynchrony_resilient(),
        expect_safe,
        expect_resilient,
    );
    if (report.is_safe(), report.is_asynchrony_resilient()) == (expect_safe, expect_resilient) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_explore(args: &Args) -> ExitCode {
    use sleepy_tob::sim::explore::exhaustive_check;
    let pi: u64 = args.get("pi", 1);
    let eta: u64 = args.get("eta", 4);
    if !(1..=2).contains(&pi) {
        eprintln!("per-receiver exploration is 4^(4·π) runs; use 1 ≤ π ≤ 2");
        return ExitCode::from(2);
    }
    let params = Params::builder(4).expiration(eta).build().expect("valid");
    let timeline = Timeline::synchronous().asynchronous(Round::new(10), pi);
    let report = exhaustive_check(params, &timeline, 14 + pi + 8);
    println!(
        "n = 4, η = {eta}, π = {pi}: {} strategies exhaustively executed",
        report.strategies_run
    );
    println!(
        "  post-window agreement violations : {}",
        report.violating.len()
    );
    println!(
        "  D_ra violations                  : {}",
        report.dra_violating.len()
    );
    println!(
        "  in-window orphaning strategies   : {}",
        report.orphaning_only.len()
    );
    if report.all_safe() {
        println!("  verdict: every strategy survived — Theorem 2, checked");
        ExitCode::SUCCESS
    } else {
        println!("  verdict: witnesses found (expected for η ≤ π)");
        ExitCode::FAILURE
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let (Some(plan), Some(id), Some(out)) = (args.opt("plan"), args.opt("id"), args.opt("out"))
    else {
        eprintln!("usage: stob serve --plan plan.json --id N --out node_N.json");
        return ExitCode::from(2);
    };
    let Ok(id) = id.parse::<u32>() else {
        eprintln!("--id must be a node index");
        return ExitCode::from(2);
    };
    match sleepy_tob::node::serve(plan, id, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the scripted cluster scenario. `--smoke` is the small CI
/// preset (3 nodes, one kill + one partition); the default is the
/// acceptance scenario (5 nodes, 60 rounds, kill + sleep + partition).
/// Fault windows that do not fit a shortened `--rounds` are dropped.
fn build_cluster_plan(args: &Args) -> sleepy_tob::node::ClusterPlan {
    use sleepy_tob::node::{ClusterPlan, KillWindow, PartitionWindow};
    let smoke = args.flag("smoke");
    let n: usize = args.get("n", if smoke { 3 } else { 5 });
    let rounds: u64 = args.get("rounds", if smoke { 24 } else { 60 });
    let mut plan = ClusterPlan::full(n, rounds);
    plan.seed = args.get("seed", 7);
    plan.txs_every = args.get("txs", 3);
    plan.tick_ms = args.get("tick", 10);
    plan.base_port = args.get("base-port", 39700);
    let kill = |plan: &mut ClusterPlan, node: u32, start: u64, end: u64| {
        if end <= rounds && (node as usize) < n {
            plan.sleep(node, start, end);
            plan.kills.push(KillWindow { node, start, end });
        }
    };
    let partition = |plan: &mut ClusterPlan, start: u64, end: u64, groups: Vec<Vec<u32>>| {
        if end <= rounds {
            plan.partitions.push(PartitionWindow { start, end, groups });
        }
    };
    if smoke {
        kill(&mut plan, 2, 6, 9);
        if 12 <= rounds {
            plan.sleep(1, 11, 12);
        }
        partition(&mut plan, 14, 16, vec![vec![0], vec![1, 2]]);
    } else {
        kill(&mut plan, n as u32 - 1, 12, 18);
        if 23 <= rounds && n > 1 {
            plan.sleep(1, 20, 23);
        }
        let left: Vec<u32> = (0..n as u32 / 2).collect();
        partition(&mut plan, 30, 34, vec![left]);
    }
    plan
}

/// Installs one transaction every `k` rounds — or, for `k = 0`, no
/// workload at all, as `ClusterPlan::tx_for_round` submits none.
fn with_txs(builder: SimBuilder, k: u64) -> SimBuilder {
    if k == 0 {
        builder
    } else {
        builder.workload_spec(WorkloadSpec::txs_every(k))
    }
}

/// Runs the byte-equivalent simulation of a cluster plan: same params,
/// same seed, `Schedule::custom` from the awake matrix, `Timeline`
/// partitions from the partition windows, same tx cadence. Returns the
/// per-process decision logs and final decided tips.
fn run_equivalent_sim(
    plan: &sleepy_tob::node::ClusterPlan,
) -> Result<(Vec<Vec<DecisionEvent>>, Vec<u64>), String> {
    let params = Params::builder(plan.n)
        .expiration(plan.eta)
        .build()
        .map_err(|e| format!("bad params: {e}"))?;
    let (tap, log) = sleepy_tob::sim::DecisionTap::new(plan.n);
    let mut timeline = Timeline::synchronous();
    for (start, len, groups) in plan.timeline_partitions() {
        timeline = timeline.partition(start, len, groups);
    }
    let config = SimConfig::new(params, plan.seed)
        .horizon(plan.horizon)
        .timeline(timeline);
    let mut sim = with_txs(SimBuilder::from_config(config), plan.txs_every)
        .schedule(Schedule::custom(plan.schedule_matrix()))
        .observer(tap)
        .build()
        .map_err(|e| format!("sim build: {e}"))?;
    while sim.step().is_some() {}
    let tips: Vec<u64> = sim
        .processes()
        .iter()
        .map(|p| p.decided_tip().as_u64())
        .collect();
    let decisions = log.borrow().clone();
    Ok((decisions, tips))
}

/// One node's cross-check verdict in the cluster report.
#[derive(serde::Serialize)]
struct NodeVerdict {
    node: u32,
    restarts: u64,
    exit_code: Option<i32>,
    decided_tip: Option<u64>,
    sim_decided_tip: u64,
    decisions: Option<usize>,
    sim_decisions: usize,
    matches: bool,
    error: Option<String>,
}

/// The cluster report written by `stob cluster --report`.
#[derive(serde::Serialize)]
struct ClusterReport {
    n: usize,
    rounds: u64,
    seed: u64,
    timed_out: bool,
    polls: u64,
    divergences: usize,
    nodes: Vec<NodeVerdict>,
}

fn cmd_cluster(args: &Args) -> ExitCode {
    let plan = build_cluster_plan(args);
    if let Err(e) = plan.validate() {
        eprintln!("invalid cluster plan: {e}");
        return ExitCode::from(2);
    }

    // The oracle first: the byte-equivalent lockstep simulation.
    let (sim_decisions, sim_tips) = match run_equivalent_sim(&plan) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("equivalent simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Then the real thing: one OS process per node, over TCP.
    let exe = match std::env::current_exe() {
        Ok(p) => p.display().to_string(),
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = args
        .opt("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("stob-cluster-{}", std::process::id()))
        });
    let poll_ms = 5;
    // Generous global budget: nominal run time plus slack for the kill
    // window hold, replay, and end-of-run linger.
    let timeout_polls = ((plan.horizon + 1) * plan.tick_ms.max(1) * 20 + 60_000) / poll_ms;
    let opts = sleepy_tob::node::ClusterOptions {
        plan: plan.clone(),
        exec: vec![exe, "serve".into()],
        dir: dir.clone(),
        poll_ms,
        timeout_polls,
    };
    println!(
        "cluster: n = {}, rounds = 0..={}, seed = {}, kills = {}, partitions = {} (dir {})",
        plan.n,
        plan.horizon,
        plan.seed,
        plan.kills.len(),
        plan.partitions.len(),
        dir.display(),
    );
    let outcome = match sleepy_tob::node::run_cluster(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cluster harness failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Compare each node's decided chain against the simulation.
    let mut divergences = 0usize;
    let mut verdicts = Vec::with_capacity(plan.n);
    for run in &outcome.nodes {
        let i = run.node as usize;
        let (matches, error, tip, count) = match &run.outcome {
            None => (
                false,
                Some("node produced no outcome file".to_string()),
                None,
                None,
            ),
            Some(out) => {
                let tip_ok = out.decided_tip == sim_tips[i];
                let log_ok = out.decisions == sim_decisions[i];
                let error = if !tip_ok {
                    Some(format!(
                        "decided tip {} != simulated {}",
                        out.decided_tip, sim_tips[i]
                    ))
                } else if !log_ok {
                    Some(format!(
                        "decision log diverges ({} events vs {} simulated)",
                        out.decisions.len(),
                        sim_decisions[i].len()
                    ))
                } else {
                    None
                };
                (
                    tip_ok && log_ok,
                    error,
                    Some(out.decided_tip),
                    Some(out.decisions.len()),
                )
            }
        };
        if !matches {
            divergences += 1;
        }
        println!(
            "  node {i}: {} (restarts {}, decisions {}/{}, tip {}/{})",
            if matches { "MATCH" } else { "DIVERGED" },
            run.restarts,
            count.map_or("—".into(), |c| c.to_string()),
            sim_decisions[i].len(),
            tip.map_or("—".into(), |t| t.to_string()),
            sim_tips[i],
        );
        if let Some(e) = &error {
            println!("          {e}");
        }
        verdicts.push(NodeVerdict {
            node: run.node,
            restarts: run.restarts,
            exit_code: run.exit_code,
            decided_tip: tip,
            sim_decided_tip: sim_tips[i],
            decisions: count,
            sim_decisions: sim_decisions[i].len(),
            matches,
            error,
        });
    }
    if outcome.timed_out {
        eprintln!("cluster harness timed out after {} polls", outcome.polls);
    }
    let report = ClusterReport {
        n: plan.n,
        rounds: plan.horizon,
        seed: plan.seed,
        timed_out: outcome.timed_out,
        polls: outcome.polls,
        divergences,
        nodes: verdicts,
    };
    if let Some(path) = args.opt("report") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write report {path}: {e}");
                }
            }
            Err(e) => eprintln!("cannot render report: {e:?}"),
        }
    }
    if divergences == 0 && !outcome.timed_out {
        println!(
            "verdict: all {} nodes byte-identical to the simulation",
            plan.n
        );
        ExitCode::SUCCESS
    } else {
        println!("verdict: {divergences} node(s) diverged from the simulation");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!(
            "usage: stob <run|curve|check|scenario|explore|serve|cluster> [--flags]\n\
             see the binary's source header for the full flag list"
        );
        return ExitCode::from(2);
    };
    // `scenario` takes a positional argument; the rest are flag-driven.
    if command == "scenario" {
        return cmd_scenario(&argv[1..]);
    }
    let args = Args::parse(&argv[1..]);
    match command {
        "run" => cmd_run(&args),
        "curve" => cmd_curve(&args),
        "check" => cmd_check(&args),
        "explore" => cmd_explore(&args),
        "serve" => cmd_serve(&args),
        "cluster" => cmd_cluster(&args),
        other => {
            eprintln!(
                "unknown command {other:?} \
                 (expected run|curve|check|scenario|explore|serve|cluster)"
            );
            ExitCode::from(2)
        }
    }
}
