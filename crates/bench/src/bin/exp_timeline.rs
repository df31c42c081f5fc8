//! **P3 — timeline scenarios**: multi-window asynchrony and partial
//! synchrony at scale.
//!
//! The paper's central claim is that the extended protocol recovers after
//! **every** asynchronous spell. This experiment drives the [`st_sim::Timeline`]
//! environment model across the two scenario families the claim is about,
//! at `n ∈ {64, 256}`:
//!
//! * **alternating** — `k = 3` asynchronous spells of `π = 4` rounds,
//!   separated by 12 synchronous rounds ([`st_sim::scenario::alternating`]),
//!   once under the partition attacker and once under a total blackout.
//!   With `η = 6 > π`, every spell must end with a recovery record whose
//!   `first_decision_after` is set and whose Definition-5 violation count
//!   is zero — per window, not just overall.
//! * **gst** — partial synchrony ([`st_sim::scenario::gst`]): bounded-delay
//!   delivery (`Δ ∈ {2, 4}`) until GST at mid-run, synchrony after. With
//!   `η > Δ` the run stays safe through the bounded period and heals
//!   after GST.
//!
//! Per cell the table reports wall-clock, decisions, safety/resilience,
//! the per-window recovery latencies (mean and worst) and whether every
//! window healed. Results are printed and merged into `BENCH_sim.json`
//! under the `"exp_timeline"` key (smoke runs write to the separate
//! `"exp_timeline_smoke"` section, so a `--smoke` pass can never
//! overwrite the committed full-grid numbers).
//!
//! Run with `cargo run --release -p st-bench --bin exp_timeline [--smoke]`.
//! `--smoke` restricts the sweep to `n = 64` for CI (same horizon — the
//! scenario shapes are horizon-anchored, only the n sweep shrinks).

use serde::Serialize;
use st_bench::{bench_section, emit, f3, opt, write_bench_section, Table};
use st_sim::adversary::{Adversary, BlackoutAdversary, PartitionAttacker, SilentAdversary};
use st_sim::scenario::{alternating, gst};
use st_sim::{Schedule, SimBuilder, SimConfig, Sweep, Timeline};
use st_types::{Params, Round};
use std::time::Instant;

/// One measured cell.
#[derive(Clone, Debug, Serialize)]
struct Cell {
    scenario: String,
    n: usize,
    horizon: u64,
    eta: u64,
    windows: usize,
    seconds: f64,
    rounds_per_sec: f64,
    messages: usize,
    decisions: usize,
    safe: bool,
    resilient: bool,
    /// One recovery record per window, all healed.
    recovered_every_window: bool,
    mean_recovery_rounds: Option<f64>,
    max_recovery_rounds: Option<u64>,
}

#[derive(Clone, Debug, Serialize)]
struct BenchReport {
    experiment: &'static str,
    smoke: bool,
    cells: Vec<Cell>,
}

struct Spec {
    scenario: &'static str,
    eta: u64,
    timeline: Timeline,
    adversary: fn() -> Box<dyn Adversary>,
}

fn specs(horizon: u64) -> Vec<Spec> {
    let alt = alternating(4, 12, 3);
    let gst_round = Round::new(horizon / 2);
    vec![
        Spec {
            scenario: "alternating-partition",
            eta: 6,
            timeline: alt.clone(),
            adversary: || Box::new(PartitionAttacker::new()),
        },
        Spec {
            scenario: "alternating-blackout",
            eta: 6,
            timeline: alt,
            adversary: || Box::new(BlackoutAdversary),
        },
        Spec {
            scenario: "gst-delta2",
            eta: 4,
            timeline: gst(2, gst_round),
            adversary: || Box::new(SilentAdversary),
        },
        Spec {
            scenario: "gst-delta4",
            eta: 6,
            timeline: gst(4, gst_round),
            adversary: || Box::new(SilentAdversary),
        },
    ]
}

fn measure(spec: &Spec, n: usize, horizon: u64) -> Cell {
    let params = Params::builder(n)
        .expiration(spec.eta)
        .build()
        .expect("valid params");
    let config = SimConfig::new(params, 0x71AE)
        .horizon(horizon)
        .txs_every(8)
        .timeline(spec.timeline.clone());
    let sim = SimBuilder::from_config(config)
        .schedule(Schedule::full(n, horizon))
        .adversary_boxed((spec.adversary)())
        .build()
        .expect("valid timeline cell");
    let start = Instant::now();
    let report = sim.run();
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let lats: Vec<u64> = report
        .recoveries
        .iter()
        .filter_map(|r| r.recovery_rounds)
        .collect();
    Cell {
        scenario: spec.scenario.to_string(),
        n,
        horizon,
        eta: spec.eta,
        windows: report.recoveries.len(),
        seconds,
        rounds_per_sec: (horizon + 1) as f64 / seconds,
        messages: report.messages_sent,
        decisions: report.decisions_total,
        safe: report.is_safe(),
        // Empty resilience_violations already implies a zero per-window
        // count (the report concatenates the per-window monitors).
        resilient: report.is_asynchrony_resilient(),
        recovered_every_window: report.recovered_after_every_window(),
        mean_recovery_rounds: if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<u64>() as f64 / lats.len() as f64)
        },
        max_recovery_rounds: report.max_recovery_rounds(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, horizon): (Vec<usize>, u64) = if smoke {
        (vec![64], 60)
    } else {
        (vec![64, 256], 60)
    };

    // The committed grid as a `Sweep`: n × scenario-spec, run
    // sequentially so per-cell wall-clock stays honest on small machines.
    // Seeds are fixed inside `measure` (committed-grid semantics), so the
    // derived per-cell seed is ignored.
    let all_specs = specs(horizon);
    let spec_idx: Vec<usize> = (0..all_specs.len()).collect();
    let cells: Vec<Cell> = Sweep::grid(sizes.clone(), spec_idx)
        .sequential()
        .run(|&(n, si), _seed| measure(&all_specs[si], n, horizon));

    let mut table = Table::new(vec![
        "scenario",
        "n",
        "eta",
        "windows",
        "seconds",
        "decisions",
        "safe",
        "resilient",
        "all recovered",
        "mean heal",
        "max heal",
    ]);
    for c in &cells {
        table.row(vec![
            c.scenario.clone(),
            c.n.to_string(),
            c.eta.to_string(),
            c.windows.to_string(),
            f3(c.seconds),
            c.decisions.to_string(),
            c.safe.to_string(),
            c.resilient.to_string(),
            c.recovered_every_window.to_string(),
            opt(c.mean_recovery_rounds.map(f3)),
            opt(c.max_recovery_rounds),
        ]);
    }
    emit(
        "exp_timeline",
        "multi-window asynchrony + partial synchrony (Timeline)",
        &table,
    );

    let healthy = cells
        .iter()
        .all(|c| c.safe && c.resilient && c.recovered_every_window);
    println!(
        "\n{} cells; every window of every cell {} a post-window decision\n\
         with zero Definition-5 violations — the paper's \"recovers after\n\
         every spell\" claim, exercised as data.",
        cells.len(),
        if healthy {
            "produced"
        } else {
            "DID NOT produce"
        },
    );

    let bench = BenchReport {
        experiment: "exp_timeline",
        smoke,
        cells,
    };
    match write_bench_section(&bench_section("exp_timeline", smoke), &bench) {
        Ok(()) => println!("\n[merged exp_timeline into BENCH_sim.json]"),
        Err(e) => println!("\n[could not write BENCH_sim.json: {e}]"),
    }
    if !healthy {
        std::process::exit(1);
    }
}
