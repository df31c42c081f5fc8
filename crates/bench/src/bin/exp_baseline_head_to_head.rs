//! **B2 — head-to-head**: the sleepy protocol vs the fixed-quorum BFT
//! baseline, same seeds, same schedules, same environment.
//!
//! The paper's comparative pitch, executed as one [`Sweep::compare`]
//! grid: for every cell, both protocols run under **identical**
//! participation schedules, timelines, adversaries and per-cell seeds —
//! every difference between the two report columns is attributable to
//! the protocol alone. The cells are the three disruption families the
//! introduction argues about:
//!
//! * **participation dips** (40% / 60% / 80% mass sleep): the sleepy
//!   protocol keeps deciding *inside* the dip (after at most an η-round
//!   re-anchoring pause), while the static quorum `> 2n/3`-of-all-`n` is
//!   unreachable and the baseline decides **nothing** until the sleepers
//!   return;
//! * **an adversarial asynchronous window** (partition attacker, `η = 6 >
//!   π = 4`): the sleepy protocol sails through — zero agreement
//!   violations, decisions resume right after the window — while the
//!   baseline's windowed views stall permanently (each partition half is
//!   below quorum);
//! * **partial synchrony** (bounded delay `Δ = 2` until GST at mid-run,
//!   `η = 4 > Δ`): the sleepy protocol keeps deciding through the
//!   bounded period (late votes are covered by expiration); the baseline
//!   stalls until GST because a proposal delayed past its vote round
//!   kills the view.
//!
//! The binary is a CI acceptance gate: it exits non-zero if the quorum
//! baseline fails to stall through any disruption cell, or if the sleepy
//! protocol fails to stay safe, decide through the dips, and recover
//! after every window. Results merge into `BENCH_sim.json` under
//! `"exp_baseline_head_to_head"` (smoke runs write to the separate
//! `"exp_baseline_head_to_head_smoke"` section, so a `--smoke` pass can
//! never overwrite the committed full-grid numbers).
//!
//! Run with
//! `cargo run --release -p st-bench --bin exp_baseline_head_to_head [--smoke]`.
//! `--smoke` restricts the sweep to `n = 16` for CI.

use serde::Serialize;
use st_bench::{bench_section, emit, opt, write_bench_section, Table};
use st_sim::adversary::{Adversary, PartitionAttacker, SilentAdversary};
use st_sim::scenario::gst;
use st_sim::{QuorumProcess, Schedule, SimBuilder, SimConfig, SimReport, Sweep, Timeline};
use st_types::{Params, Round};

/// One protocol's outcome in one cell.
#[derive(Clone, Debug, Serialize)]
struct Side {
    protocol: String,
    /// Decision events observed in rounds `[span.0, span.1]` — the
    /// disruption (dip / async window / pre-GST period) itself.
    in_window_decisions: usize,
    decisions_total: usize,
    final_height: u64,
    safe: bool,
    recovered_every_window: bool,
    max_recovery_rounds: Option<u64>,
}

/// One cell of the duel grid.
#[derive(Clone, Debug, Serialize)]
struct DuelCell {
    scenario: String,
    n: usize,
    horizon: u64,
    /// First and last disrupted round.
    span: (u64, u64),
    sleepy_eta: u64,
    sleepy: Side,
    quorum: Side,
}

#[derive(Clone, Debug, Serialize)]
struct BenchReport {
    experiment: &'static str,
    smoke: bool,
    cells: Vec<DuelCell>,
}

/// The kind of disruption a cell runs — determines the gate applied to
/// its two sides.
#[derive(Clone, Copy)]
enum Kind {
    /// Mass-sleep participation dip: the sleepy protocol must keep
    /// deciding inside the span.
    Dip,
    /// Asynchronous / bounded-delay window: the sleepy protocol must
    /// recover after every window.
    Window,
}

struct Spec {
    name: &'static str,
    kind: Kind,
    /// Sleepy expiration (the quorum baseline has no η).
    eta: u64,
    /// First and last disrupted round.
    span: (u64, u64),
    schedule: fn(usize, u64) -> Schedule,
    timeline: fn(u64) -> Timeline,
    adversary_sleepy: fn() -> Box<dyn Adversary>,
    adversary_quorum: fn() -> Box<dyn Adversary<QuorumProcess>>,
}

fn specs() -> Vec<Spec> {
    fn dip(frac_permille: u64) -> fn(usize, u64) -> Schedule {
        match frac_permille {
            400 => |n, h| Schedule::mass_sleep(n, h, 0.4, 16, 40),
            600 => |n, h| Schedule::mass_sleep(n, h, 0.6, 16, 40),
            _ => |n, h| Schedule::mass_sleep(n, h, 0.8, 16, 40),
        }
    }
    vec![
        Spec {
            name: "dip-40",
            kind: Kind::Dip,
            eta: 4,
            span: (16, 40),
            schedule: dip(400),
            timeline: |_| Timeline::synchronous(),
            adversary_sleepy: || Box::new(SilentAdversary),
            adversary_quorum: || Box::new(SilentAdversary),
        },
        Spec {
            name: "dip-60",
            kind: Kind::Dip,
            eta: 4,
            span: (16, 40),
            schedule: dip(600),
            timeline: |_| Timeline::synchronous(),
            adversary_sleepy: || Box::new(SilentAdversary),
            adversary_quorum: || Box::new(SilentAdversary),
        },
        Spec {
            name: "dip-80",
            kind: Kind::Dip,
            eta: 4,
            span: (16, 40),
            schedule: dip(800),
            timeline: |_| Timeline::synchronous(),
            adversary_sleepy: || Box::new(SilentAdversary),
            adversary_quorum: || Box::new(SilentAdversary),
        },
        Spec {
            name: "async-partition",
            kind: Kind::Window,
            eta: 6,
            span: (20, 23),
            schedule: Schedule::full,
            timeline: |_| Timeline::synchronous().asynchronous(Round::new(20), 4),
            adversary_sleepy: || Box::new(PartitionAttacker::new()),
            adversary_quorum: || Box::new(PartitionAttacker::new()),
        },
        Spec {
            name: "gst-delta2",
            kind: Kind::Window,
            eta: 4,
            span: (1, 30),
            schedule: Schedule::full,
            timeline: |h| gst(2, Round::new(h / 2 + 1)),
            adversary_sleepy: || Box::new(SilentAdversary),
            adversary_quorum: || Box::new(SilentAdversary),
        },
    ]
}

/// Decision events whose observation round lies inside the span.
fn decisions_in_span(report: &SimReport, span: (u64, u64)) -> usize {
    report
        .timeline
        .samples()
        .iter()
        .filter(|s| (span.0..=span.1).contains(&s.round))
        .map(|s| s.decisions)
        .sum()
}

fn side(report: &SimReport, protocol: &str, span: (u64, u64)) -> Side {
    Side {
        protocol: protocol.to_string(),
        in_window_decisions: decisions_in_span(report, span),
        decisions_total: report.decisions_total,
        final_height: report.final_decided_height,
        safe: report.is_safe(),
        recovered_every_window: report.recovered_after_every_window(),
        max_recovery_rounds: report.max_recovery_rounds(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if smoke { vec![16] } else { vec![16, 64] };
    let horizon = 60u64;

    let all_specs = specs();
    let spec_idx: Vec<usize> = (0..all_specs.len()).collect();
    let grid = Sweep::grid(sizes, spec_idx).seed(0xB1B1);
    let duel = grid.compare(
        |&(n, si), seed| {
            let spec = &all_specs[si];
            let params = Params::builder(n)
                .expiration(spec.eta)
                .build()
                .expect("valid params");
            SimBuilder::from_config(
                SimConfig::new(params, seed)
                    .horizon(horizon)
                    .txs_every(8)
                    .timeline((spec.timeline)(horizon)),
            )
            .schedule((spec.schedule)(n, horizon))
            .adversary_boxed((spec.adversary_sleepy)())
            .build()
            .expect("valid sleepy cell")
        },
        |&(n, si), seed| {
            let spec = &all_specs[si];
            let params = Params::builder(n).build().expect("valid params");
            SimBuilder::<QuorumProcess>::for_protocol_config(
                SimConfig::new(params, seed)
                    .horizon(horizon)
                    .txs_every(8)
                    .timeline((spec.timeline)(horizon)),
            )
            .schedule((spec.schedule)(n, horizon))
            .adversary_boxed((spec.adversary_quorum)())
            .build()
            .expect("valid quorum cell")
        },
    );

    // Cell outcomes plus each cell's gate kind, index-aligned (Kind is
    // gate plumbing, not part of the serialized report).
    let mut cells = Vec::new();
    let mut kinds = Vec::new();
    for (i, (sleepy_report, quorum_report)) in duel.pairs().enumerate() {
        let &(n, si) = &grid.cells()[i];
        let spec = &all_specs[si];
        kinds.push(spec.kind);
        cells.push(DuelCell {
            scenario: spec.name.to_string(),
            n,
            horizon,
            span: spec.span,
            sleepy_eta: spec.eta,
            sleepy: side(sleepy_report, &duel.left_protocol, spec.span),
            quorum: side(quorum_report, &duel.right_protocol, spec.span),
        });
    }

    let mut table = Table::new(vec![
        "scenario",
        "n",
        "protocol",
        "in-window decisions",
        "total decisions",
        "final height",
        "safe",
        "recovered",
        "max heal",
    ]);
    for c in &cells {
        for s in [&c.sleepy, &c.quorum] {
            table.row(vec![
                c.scenario.clone(),
                c.n.to_string(),
                s.protocol.clone(),
                s.in_window_decisions.to_string(),
                s.decisions_total.to_string(),
                s.final_height.to_string(),
                s.safe.to_string(),
                s.recovered_every_window.to_string(),
                opt(s.max_recovery_rounds),
            ]);
        }
    }
    emit(
        "exp_baseline_head_to_head",
        "sleepy protocol vs static-quorum BFT under identical schedules/timelines/seeds",
        &table,
    );

    // ---- the acceptance gate ----
    let mut failures = Vec::new();
    for (c, &kind) in cells.iter().zip(&kinds) {
        if c.quorum.in_window_decisions != 0 {
            failures.push(format!(
                "{} n={}: quorum baseline decided {} times inside the disruption (expected stall)",
                c.scenario, c.n, c.quorum.in_window_decisions
            ));
        }
        if !c.sleepy.safe {
            failures.push(format!(
                "{} n={}: sleepy protocol lost safety",
                c.scenario, c.n
            ));
        }
        match kind {
            Kind::Dip => {
                if c.sleepy.in_window_decisions == 0 {
                    failures.push(format!(
                        "{} n={}: sleepy protocol decided nothing inside the dip",
                        c.scenario, c.n
                    ));
                }
            }
            Kind::Window => {
                if !c.sleepy.recovered_every_window {
                    failures.push(format!(
                        "{} n={}: sleepy protocol failed to recover after a window",
                        c.scenario, c.n
                    ));
                }
            }
        }
        if c.sleepy.decisions_total <= c.quorum.decisions_total {
            failures.push(format!(
                "{} n={}: sleepy protocol showed no decision advantage ({} vs {})",
                c.scenario, c.n, c.sleepy.decisions_total, c.quorum.decisions_total
            ));
        }
    }

    println!(
        "\n{} cells; in every one the quorum baseline {} through the\n\
         disruption while the sleepy protocol (η > 0) kept its guarantees.",
        cells.len(),
        if failures.is_empty() {
            "stalled"
        } else {
            "DID NOT stall"
        },
    );
    for f in &failures {
        println!("GATE FAILURE: {f}");
    }

    let bench = BenchReport {
        experiment: "exp_baseline_head_to_head",
        smoke,
        cells,
    };
    match write_bench_section(&bench_section("exp_baseline_head_to_head", smoke), &bench) {
        Ok(()) => println!("\n[merged exp_baseline_head_to_head into BENCH_sim.json]"),
        Err(e) => println!("\n[could not write BENCH_sim.json: {e}]"),
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
