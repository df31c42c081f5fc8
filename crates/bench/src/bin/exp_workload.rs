//! **W1 — open-loop workload sweep**: submit→decide latency percentiles,
//! throughput and drop accounting as offered load crosses the service
//! capacity.
//!
//! The protocol's own latency experiments (L1) measure decision latency
//! of transactions injected one at a time; this sweep measures what a
//! *client* sees when traffic is open-loop — arrivals do not wait for
//! service, so once offered rate exceeds the per-round submission batch
//! the mempool queues, the capacity cap drops, and the p99 climbs the
//! saturation knee. Four scenarios cross the rate axis:
//!
//! * `steady` — [`ConstantRate`] under full synchronous participation:
//!   the clean M/D/1-like knee (batch 4/round is the service rate).
//! * `flash-crowd` — a [`FlashCrowd`] burst (rounds 20–32, jittered)
//!   on top of the base rate: transient queueing even when the average
//!   load is serviceable.
//! * `diurnal-churn` — [`Diurnal`] offered load with participation
//!   *derived from the same trace* ([`diurnal_schedule`]): users asleep
//!   at night are users not submitting, and the per-phase latency split
//!   (peak-half vs trough-half means) shows latency tracking the awake
//!   fraction.
//! * `gst-d2` — [`ConstantRate`] through a mid-run bounded-delay window
//!   (`Δ = 2`, rounds 20–40): partial synchrony stretches the decide
//!   edge of the latency join while admission keeps running.
//!
//! Grid: scenario × offered rate `{1, 4, 16}`/round × `n ∈ {64, 256}`,
//! horizon 60, batch 4, capacity 64. Every cell must be safe and decide
//! transactions, and the steady column must show the knee
//! (`p99(rate 16) > p99(rate 1)` at both sizes) or the binary exits
//! non-zero without writing numbers.
//!
//! Results are printed as a table and merged into
//! `BENCH_workload.json` under `"exp_workload"` (smoke runs under
//! `"exp_workload_smoke"`, never clobbering the committed full grid).
//!
//! Run with `cargo run --release -p st-bench --bin exp_workload
//! [--smoke]`. `--smoke` restricts the sweep to `n = 64` at rates
//! `{1, 16}` for CI.

use serde::Serialize;
use st_bench::{bench_section, emit, f3, opt, write_bench_section_at, Table};
use st_sim::adversary::SilentAdversary;
use st_sim::{
    diurnal_schedule, ConstantRate, Diurnal, FlashCrowd, Schedule, SimBuilder, SimConfig, Sweep,
    Timeline, Workload,
};
use st_types::Params;
use std::path::Path;

const HORIZON: u64 = 60;
const BATCH: usize = 4;
const CAPACITY: usize = 64;
const SEED: u64 = 0xC0FFEE;

const SCENARIOS: [&str; 4] = ["steady", "flash-crowd", "diurnal-churn", "gst-d2"];

/// One measured cell of the sweep.
#[derive(Clone, Debug, Serialize)]
struct Cell {
    scenario: String,
    n: usize,
    /// Offered transactions per round (peak rate for diurnal).
    rate: u64,
    offered: u64,
    admitted: u64,
    submitted: u64,
    decided: u64,
    dropped_capacity: u64,
    dropped_fairness: u64,
    drop_rate: f64,
    mempool_high_water: usize,
    backlog: u64,
    throughput: f64,
    latency_p50: Option<u64>,
    latency_p90: Option<u64>,
    latency_p99: Option<u64>,
    latency_mean: Option<f64>,
    /// Diurnal only: mean latency of txs arriving in the peak half of
    /// the cosine period (awake fraction above its midpoint).
    peak_latency_mean: Option<f64>,
    /// Diurnal only: mean latency of txs arriving in the trough half.
    trough_latency_mean: Option<f64>,
    safe: bool,
}

#[derive(Clone, Debug, Serialize)]
struct BenchReport {
    experiment: &'static str,
    smoke: bool,
    horizon: u64,
    batch: usize,
    capacity: usize,
    cells: Vec<Cell>,
}

/// Mean submit→decide latency over the decided txs whose *arrival*
/// round's awake fraction is on the given side of the trace midpoint —
/// the peak/trough split that shows diurnal latency tracking
/// participation.
fn phase_mean(report: &st_sim::SimReport, workload: &Diurnal, peak: bool) -> Option<f64> {
    let mid = (0.25 + 1.0) / 2.0;
    let lats: Vec<u64> = report
        .txs
        .iter()
        .filter(|rec| (workload.load_fraction(rec.submitted.as_u64()) >= mid) == peak)
        .filter_map(|rec| rec.decide_latency())
        .collect();
    if lats.is_empty() {
        return None;
    }
    Some(lats.iter().sum::<u64>() as f64 / lats.len() as f64)
}

fn measure(scenario: &str, n: usize, rate: u64) -> Cell {
    let params = Params::builder(n)
        .expiration(2)
        .build()
        .expect("valid params");
    let mut config = SimConfig::new(params, SEED).horizon(HORIZON);
    let mut builder_schedule = Schedule::full(n, HORIZON);
    let mut diurnal_trace = None;
    let spec = match scenario {
        "steady" => st_sim::WorkloadSpec::new(ConstantRate::per_round(rate).clients(4)),
        "flash-crowd" => st_sim::WorkloadSpec::new(
            FlashCrowd::new(rate)
                .clients(4)
                .burst(20, 12, rate * 8)
                .jitter(SEED),
        ),
        "diurnal-churn" => {
            let workload = Diurnal::new(rate, 0.25, 20).clients(4);
            builder_schedule = diurnal_schedule(&workload, n, HORIZON);
            diurnal_trace = Some(workload.clone());
            st_sim::WorkloadSpec::new(workload)
        }
        "gst-d2" => {
            config = config.timeline(Timeline::synchronous().bounded_delay(
                st_types::Round::new(20),
                20,
                2,
            ));
            st_sim::WorkloadSpec::new(ConstantRate::per_round(rate).clients(4))
        }
        other => unreachable!("unknown scenario {other}"),
    };
    let report = SimBuilder::from_config(config)
        .workload_spec(spec.capacity(CAPACITY).batch(BATCH))
        .schedule(builder_schedule)
        .adversary(SilentAdversary)
        .build()
        .expect("valid workload cell")
        .run();
    let w = &report.workload;
    Cell {
        scenario: scenario.to_string(),
        n,
        rate,
        offered: w.offered,
        admitted: w.admitted,
        submitted: w.submitted,
        decided: w.decided,
        dropped_capacity: w.dropped_capacity,
        dropped_fairness: w.dropped_fairness,
        drop_rate: w.drop_rate,
        mempool_high_water: w.mempool_high_water,
        backlog: w.backlog,
        throughput: w.throughput,
        latency_p50: w.latency_p50,
        latency_p90: w.latency_p90,
        latency_p99: w.latency_p99,
        latency_mean: w.latency_mean,
        peak_latency_mean: diurnal_trace
            .as_ref()
            .and_then(|d| phase_mean(&report, d, true)),
        trough_latency_mean: diurnal_trace
            .as_ref()
            .and_then(|d| phase_mean(&report, d, false)),
        safe: report.is_safe(),
    }
}

/// The health gate: every cell safe and deciding, admission accounting
/// balanced, and the steady column showing the saturation knee. Exits
/// non-zero before any JSON is written when violated.
fn assert_healthy(cells: &[Cell], sizes: &[usize]) {
    for c in cells {
        if !c.safe {
            eprintln!(
                "FATAL: safety violation in {} n={} rate={}",
                c.scenario, c.n, c.rate
            );
            std::process::exit(1);
        }
        if c.decided == 0 {
            eprintln!(
                "FATAL: no decided txs in {} n={} rate={}",
                c.scenario, c.n, c.rate
            );
            std::process::exit(1);
        }
        if c.offered != c.admitted + c.dropped_capacity + c.dropped_fairness {
            eprintln!(
                "FATAL: admission accounting unbalanced in {} n={} rate={}",
                c.scenario, c.n, c.rate
            );
            std::process::exit(1);
        }
    }
    for &n in sizes {
        let p99_at = |rate: u64| {
            cells
                .iter()
                .find(|c| c.scenario == "steady" && c.n == n && c.rate == rate)
                .and_then(|c| c.latency_p99)
        };
        let (lo_rate, hi_rate) = (1, 16);
        if let (Some(lo), Some(hi)) = (p99_at(lo_rate), p99_at(hi_rate)) {
            if hi <= lo {
                eprintln!(
                    "FATAL: no saturation knee at n={n}: steady p99 is {hi} at \
                     rate {hi_rate}/round vs {lo} at rate {lo_rate}/round \
                     (offered {hi_rate} vs batch {BATCH} must queue)"
                );
                std::process::exit(1);
            }
        }
    }
    println!("[workload health gate passed: all cells safe, deciding, balanced; knee visible]");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, rates): (Vec<usize>, Vec<u64>) = if smoke {
        (vec![64], vec![1, 16])
    } else {
        (vec![64, 256], vec![1, 4, 16])
    };
    let mut grid: Vec<(String, usize, u64)> = Vec::new();
    for s in SCENARIOS {
        for &n in &sizes {
            for &r in &rates {
                grid.push((s.to_string(), n, r));
            }
        }
    }

    // Fixed seed per cell (committed-grid semantics; the derived sweep
    // seed is ignored), sequential so cells never contend for cores.
    let cells: Vec<Cell> = Sweep::over(grid)
        .sequential()
        .run(|(scenario, n, rate), _seed| measure(scenario, *n, *rate));
    assert_healthy(&cells, &sizes);

    let mut table = Table::new(vec![
        "scenario",
        "n",
        "rate",
        "offered",
        "submitted",
        "decided",
        "drop%",
        "high-water",
        "p50",
        "p90",
        "p99",
        "mean",
    ]);
    for c in &cells {
        table.row(vec![
            c.scenario.clone(),
            c.n.to_string(),
            c.rate.to_string(),
            c.offered.to_string(),
            c.submitted.to_string(),
            c.decided.to_string(),
            format!("{:.1}", c.drop_rate * 100.0),
            c.mempool_high_water.to_string(),
            opt(c.latency_p50),
            opt(c.latency_p90),
            opt(c.latency_p99),
            opt(c.latency_mean.map(|m| format!("{m:.2}"))),
        ]);
    }
    emit(
        "exp_workload",
        "open-loop workload sweep: latency percentiles vs offered rate",
        &table,
    );

    for c in cells.iter().filter(|c| c.scenario == "diurnal-churn") {
        println!(
            "diurnal n={} rate={}: peak-half mean latency {} vs trough-half {} \
             (participation derived from the same trace)",
            c.n,
            c.rate,
            opt(c.peak_latency_mean.map(f3)),
            opt(c.trough_latency_mean.map(f3)),
        );
    }

    let bench = BenchReport {
        experiment: "exp_workload",
        smoke,
        horizon: HORIZON,
        batch: BATCH,
        capacity: CAPACITY,
        cells,
    };
    let path = Path::new("BENCH_workload.json");
    match write_bench_section_at(path, &bench_section("exp_workload", smoke), &bench) {
        Ok(()) => println!("\n[merged exp_workload into BENCH_workload.json]"),
        Err(e) => {
            eprintln!("\n[could not write BENCH_workload.json: {e}]");
            std::process::exit(1);
        }
    }
}
