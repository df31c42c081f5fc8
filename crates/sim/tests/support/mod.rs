//! The guard grid and the golden report digests, shared by
//! `determinism_equivalence.rs` and `hasher_perturbation.rs`.

use st_sim::adversary::{
    Adversary, BlackoutAdversary, EquivocatingVoter, PartitionAttacker, ReorgAttacker,
    SilentAdversary,
};
use st_sim::{ChurnOptions, Schedule, SimConfig, SimReport, Timeline};
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

pub fn guard_config(eta: u64, t: &Option<Timeline>, seed: u64) -> SimConfig {
    let mut config = SimConfig::new(params(10, eta), seed)
        .horizon(28)
        .txs_every(4);
    if let Some(t) = t {
        config = config.timeline(t.clone());
    }
    config
}

/// A cell's golden line, `label = hex`, where `hex` digests the report's
/// JSON.
pub fn golden_line(label: &str, report: &SimReport) -> String {
    let json = serde_json::to_string(report).unwrap();
    format!("{label} = {:016x}", st_crypto::hash64(json.as_bytes()))
}

/// The committed report digests.
const GOLDEN: &str = include_str!("../golden/report_digests.txt");

/// Every computed golden line must appear verbatim in the committed file.
/// On a mismatch all of the caller's lines are printed, so a declared
/// report change is one paste into `golden/report_digests.txt`.
pub fn assert_golden(lines: &[String]) {
    let changed: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|line| !GOLDEN.lines().any(|g| g == *line))
        .collect();
    assert!(
        changed.is_empty(),
        "{} report digest(s) differ from golden/report_digests.txt: {changed:?}\n\
         this test computed:\n{}",
        changed.len(),
        lines.join("\n")
    );
}
