//! The golden table: every report cell whose digest
//! `golden/report_digests.txt` pins, one labelled [`Cell`] each, in file
//! order. Shared by `determinism_equivalence.rs` (replayed by the literal
//! Algorithm 1), `hasher_perturbation.rs` (under perturbed FxHash seeds)
//! and the facade's Tier-1 `tests/golden_reports.rs`.

use st_sim::adversary::{
    Adversary, BlackoutAdversary, EquivocatingVoter, JunkVoter, PartitionAttacker, ReorgAttacker,
    SilentAdversary, WithholdingLeader,
};
use st_sim::{
    ChurnOptions, ConstantRate, Diurnal, FlashCrowd, Schedule, SimBuilder, SimConfig, SimReport,
    Timeline, WorkloadSpec,
};
use st_types::{Params, ProcessId, Round};

pub fn params(n: usize, eta: u64) -> Params {
    Params::builder(n).expiration(eta).build().unwrap()
}

pub fn adversary(name: &str) -> Box<dyn Adversary> {
    match name {
        "silent" => Box::new(SilentAdversary),
        "blackout" => Box::new(BlackoutAdversary),
        "partition" => Box::new(PartitionAttacker::new()),
        "reorg" => Box::new(ReorgAttacker::new()),
        "equivocator" => Box::new(EquivocatingVoter::new()),
        "withhold" => Box::new(WithholdingLeader::new()),
        "junk" => Box::new(JunkVoter::new()),
        other => panic!("unknown adversary {other}"),
    }
}

pub fn schedule(name: &str, n: usize, horizon: u64) -> Schedule {
    match name {
        "full" => Schedule::full(n, horizon),
        "mass-sleep" => Schedule::mass_sleep(n, horizon, 0.5, 6, 12),
        "churn" => Schedule::random_churn(n, horizon, 0.05, 42, &ChurnOptions::default()),
        "static-byz" => Schedule::full(n, horizon).with_static_byzantine(3),
        "byz-window" => Schedule::full(n, horizon).with_corrupted_window(
            ProcessId::new(1),
            Round::new(6),
            Round::new(14),
        ),
        other => panic!("unknown schedule {other}"),
    }
}

/// A cell's workload: one transaction every 4 rounds, or an open-loop
/// workload behind a tight mempool (capacity 16, batch 2), so the
/// admission, drop and hold-over paths are busy.
fn workload_spec(kind: &str) -> WorkloadSpec {
    let spec = match kind {
        "txs-every-4" => return WorkloadSpec::txs_every(4),
        "steady" => WorkloadSpec::new(ConstantRate::per_round(3).clients(3)),
        "flash-crowd" => WorkloadSpec::new(FlashCrowd::new(1).clients(3).burst(8, 6, 10).jitter(7)),
        "diurnal" => WorkloadSpec::new(Diurnal::new(4, 0.25, 10).clients(3)),
        other => panic!("unknown workload {other}"),
    };
    spec.capacity(16).batch(2)
}

/// A representative slice of the (adversary × schedule × η × timeline)
/// space: `(adversary, schedule, η, timeline, seed)`, run at `n = 10`
/// for 28 rounds by [`guard_config`].
pub fn guard_grid() -> Vec<(&'static str, &'static str, u64, Option<Timeline>, u64)> {
    let multi = Timeline::synchronous()
        .asynchronous(Round::new(10), 3)
        .asynchronous(Round::new(20), 3);
    let bounded = Timeline::synchronous().bounded_delay(Round::new(8), 8, 2);
    vec![
        ("silent", "full", 2, None, 51),
        ("silent", "churn", 2, None, 52),
        ("partition", "full", 0, Some(multi.clone()), 53),
        ("partition", "full", 6, Some(multi), 54),
        ("blackout", "mass-sleep", 4, Some(bounded.clone()), 55),
        ("reorg", "static-byz", 4, Some(bounded), 56),
        ("equivocator", "byz-window", 2, None, 57),
    ]
}

/// A guard-grid cell's configuration; its runs add the `txs_every(4)`
/// workload.
pub fn guard_config(eta: u64, t: &Option<Timeline>, seed: u64) -> SimConfig {
    grid_config(eta, seed, 28, &t.clone().unwrap_or_default())
}

fn grid_config(eta: u64, seed: u64, horizon: u64, t: &Timeline) -> SimConfig {
    SimConfig::new(params(10, eta), seed)
        .horizon(horizon)
        .timeline(t.clone())
}

/// One `n = 10` run of the golden table.
pub struct Cell {
    /// The label of its line in `golden/report_digests.txt`.
    pub label: String,
    adversary: &'static str,
    schedule: &'static str,
    workload: &'static str,
    config: SimConfig,
}

impl Cell {
    fn new(
        label: String,
        adversary: &'static str,
        schedule: &'static str,
        config: SimConfig,
    ) -> Cell {
        Cell {
            label,
            adversary,
            schedule,
            workload: "txs-every-4",
            config,
        }
    }

    /// The cell's simulation, open for more observers.
    pub fn builder(&self) -> SimBuilder {
        let horizon = self.config.horizon_rounds();
        SimBuilder::from_config(self.config.clone())
            .workload_spec(workload_spec(self.workload))
            .schedule(schedule(self.schedule, 10, horizon))
            .adversary_boxed(adversary(self.adversary))
    }
}

/// The golden table, in the order of `golden/report_digests.txt`: 6
/// synchronous, 8 single-window and 7 multi-segment cells, the 7
/// guard-grid cells and 4 open-loop workload cells.
pub fn golden_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let sync = Timeline::synchronous();
    for (sched, eta, seed) in [
        ("full", 0, 1),
        ("full", 2, 2),
        ("full", 4, 3),
        ("mass-sleep", 2, 4),
        ("churn", 2, 5),
        ("byz-window", 2, 6),
    ] {
        let label = format!("sync/silent/{sched}/eta{eta}/seed{seed}");
        cells.push(Cell::new(
            label,
            "silent",
            sched,
            grid_config(eta, seed, 24, &sync),
        ));
    }
    for (adv, sched, eta, pi, seed) in [
        ("blackout", "full", 4, 3, 7),
        ("partition", "full", 0, 4, 8),
        ("partition", "full", 6, 4, 9),
        ("reorg", "static-byz", 0, 1, 10),
        ("reorg", "static-byz", 4, 1, 11),
        ("equivocator", "static-byz", 2, 2, 12),
        ("silent", "mass-sleep", 2, 3, 13),
        ("blackout", "churn", 4, 2, 14),
    ] {
        let window = Timeline::synchronous().asynchronous(Round::new(10), pi);
        let label = format!("async-pi{pi}/{adv}/{sched}/eta{eta}/seed{seed}");
        cells.push(Cell::new(
            label,
            adv,
            sched,
            grid_config(eta, seed, 24, &window),
        ));
    }
    // Multi-window asynchrony, bounded-delay segments (whose forced-deadline
    // cursor advance interacts with pool compaction) and partitions make
    // processes' states diverge, so these cells exercise many distinct memo
    // keys per round.
    let evens: Vec<ProcessId> = ProcessId::all(10).filter(|p| p.index() % 2 == 0).collect();
    let multi_async = Timeline::synchronous()
        .asynchronous(Round::new(10), 3)
        .asynchronous(Round::new(20), 3);
    let bounded = Timeline::synchronous().bounded_delay(Round::new(8), 12, 2);
    let gst_like = Timeline::synchronous().bounded_delay(Round::new(1), 16, 3);
    let partition = Timeline::synchronous().partition(Round::new(12), 4, vec![evens.clone()]);
    let mixed = Timeline::synchronous()
        .asynchronous(Round::new(10), 2)
        .bounded_delay(Round::new(18), 4, 1)
        .partition(Round::new(26), 3, vec![evens]);
    for (adv, sched, eta, (name, t), seed) in [
        ("partition", "full", 6, ("multi-async", &multi_async), 21),
        ("blackout", "full", 4, ("multi-async", &multi_async), 22),
        ("silent", "full", 4, ("bounded", &bounded), 23),
        ("silent", "churn", 4, ("gst-like", &gst_like), 24),
        ("silent", "full", 6, ("partition", &partition), 25),
        ("reorg", "static-byz", 4, ("mixed", &mixed), 26),
        ("silent", "mass-sleep", 2, ("mixed", &mixed), 27),
    ] {
        let label = format!("timeline-{name}/{adv}/{sched}/eta{eta}/seed{seed}");
        cells.push(Cell::new(label, adv, sched, grid_config(eta, seed, 34, t)));
    }
    for (adv, sched, eta, t, seed) in guard_grid() {
        let label = format!("guard/{adv}/{sched}/eta{eta}/seed{seed}");
        cells.push(Cell::new(label, adv, sched, guard_config(eta, &t, seed)));
    }
    for (w, adv, sched, seed) in [
        ("steady", "silent", "churn", 61),
        ("flash-crowd", "blackout", "mass-sleep", 62),
        ("diurnal", "silent", "full", 63),
        ("steady", "equivocator", "byz-window", 64),
    ] {
        let label = format!("guard-workload/{w}/{adv}/{sched}/eta2/seed{seed}");
        let config = SimConfig::new(params(10, 2), seed).horizon(28);
        cells.push(Cell {
            workload: w,
            ..Cell::new(label, adv, sched, config)
        });
    }
    cells
}

/// A cell's golden line, `label = hex`, where `hex` digests the report's
/// JSON.
pub fn golden_line(label: &str, report: &SimReport) -> String {
    let json = serde_json::to_string(report).unwrap();
    let digest = st_crypto::Hasher64::new().chain(json.as_bytes()).finish();
    format!("{label} = {digest:016x}")
}

/// The committed report digests.
const GOLDEN: &str = include_str!("../golden/report_digests.txt");

/// `lines`, one per cell of [`golden_cells`] in table order, must be the
/// committed file. On a mismatch the whole new file is printed, so a
/// declared report change is one paste into `golden/report_digests.txt`.
pub fn assert_golden(lines: &[String]) {
    let file: String = lines.iter().map(|line| format!("{line}\n")).collect();
    let changed: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|line| !GOLDEN.lines().any(|g| g == *line))
        .collect();
    assert!(
        file == GOLDEN,
        "{} report digest(s) differ from golden/report_digests.txt: {changed:?}\n\
         the whole new file:\n{file}",
        changed.len(),
    );
}
