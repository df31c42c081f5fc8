//! The fixed-quorum baseline, held to its spec.
//!
//! The baseline is the sleepy protocol with one value changed: its tally
//! grades support against all `n` processes ([`Participation::Fixed`])
//! instead of the perceived participation `m`, at `η = 0`. Three kinds of
//! guard:
//!
//! * **Analytical cross-check** — a closed-form schedule walk
//!   ([`analytical_decided_views`]) predicts, per view, whether the
//!   static quorum is met on an honest synchronous schedule. The
//!   simulated baseline must decide exactly the predicted views and stall
//!   exactly the predicted ones.
//! * **Property tests** — under full participation every view decides,
//!   and under full participation and synchrony the denominator makes no
//!   difference at all; when more than a third of the processes sleep, no
//!   affected view ever decides.
//! * **Head to head** (EXPERIMENTS.md B2) — the sleepy protocol and the
//!   baseline on the same cells and seeds: the baseline stalls through
//!   every participation dip and the asynchronous window while the sleepy
//!   protocol decides or recovers.

use proptest::prelude::*;
use st_core::DecisionEvent;
use st_sim::adversary::{PartitionAttacker, SilentAdversary};
use st_sim::scenario::gst;
use st_sim::{
    DecisionTap, Schedule, SimBuilder, SimConfig, SimReport, Simulation, Sweep, Timeline,
    WorkloadSpec,
};
use st_types::{Params, Participation, Round};
use std::collections::BTreeSet;

/// The baseline's parameters: all `n` as the denominator, no expiration.
fn fixed(n: usize) -> Params {
    Params::builder(n)
        .participation(Participation::Fixed)
        .build()
        .expect("valid params")
}

/// Runs the baseline over `schedule` and returns the set of decided views
/// (union over processes — under synchrony every awake process decides
/// the same views). The runner drains decision events into its observers
/// each round, so post-run inspection goes through a [`DecisionTap`].
fn simulated_decided_views(schedule: &Schedule, n: usize, seed: u64) -> BTreeSet<u64> {
    let (tap, log) = DecisionTap::new(n);
    let mut sim =
        SimBuilder::from_config(SimConfig::new(fixed(n), seed).horizon(schedule.horizon()))
            .schedule(schedule.clone())
            .adversary(SilentAdversary)
            .observer(tap)
            .build()
            .expect("valid simulation");
    while sim.step().is_some() {}
    let log = log.borrow();
    log.iter()
        .flat_map(|events| events.iter().map(|d| d.view.as_u64()))
        .collect()
}

/// The closed-form walk: view `v ≥ 2` decides in round `2v − 1`, from the
/// votes of round `2v − 2`, iff strictly more than `2n/3` of all `n`
/// processes are honest and awake in that round — votes from asleep
/// processes do not exist, and every awake vote supports genesis at
/// least. View 1 has no preceding graded agreement. Covers the views
/// whose decision round fits the horizon. The rule is stated in integers,
/// apart from the grading code it checks. Returns `(decided, stalled)`.
fn analytical_decided_views(schedule: &Schedule, n: usize) -> (BTreeSet<u64>, BTreeSet<u64>) {
    (2..=schedule.horizon().div_ceil(2)).partition(|&v| {
        let awake = schedule.honest_awake(Round::new(2 * v - 2)).len();
        3 * awake > 2 * n
    })
}

/// The cross-check: simulated decided/stalled views must match the
/// analytical walk on honest synchronous schedules.
fn assert_matches_analytical(schedule: &Schedule, n: usize, seed: u64) {
    let (predicted, stalled) = analytical_decided_views(schedule, n);
    let simulated = simulated_decided_views(schedule, n, seed);
    assert_eq!(
        simulated, predicted,
        "simulated decided views differ from the analytical walk (n={n}, stalled {stalled:?})"
    );
}

#[test]
fn full_participation_matches_analytical_walk() {
    assert_matches_analytical(&Schedule::full(9, 24), 9, 1);
    assert_matches_analytical(&Schedule::full(10, 31), 10, 2);
}

#[test]
fn mass_sleep_matches_analytical_walk() {
    // The B1 shapes: the May-2023 incident (60%), a harsher 80% drop,
    // and a window whose boundaries land mid-view.
    assert_matches_analytical(&Schedule::mass_sleep(20, 80, 0.6, 20, 60), 20, 3);
    assert_matches_analytical(&Schedule::mass_sleep(20, 80, 0.8, 20, 60), 20, 4);
    assert_matches_analytical(&Schedule::mass_sleep(9, 40, 0.5, 7, 21), 9, 5);
    assert_matches_analytical(&Schedule::mass_sleep(12, 40, 0.34, 9, 23), 12, 6);
}

#[test]
fn borderline_third_matches_analytical_walk() {
    // Exactly a third asleep: 6 of 9 and 8 of 12 awake = 2n/3 exactly,
    // which the strict `> 2n/3` rule rejects — both sides must agree the
    // views stall. (`(1 − β)·n` in floating point is 6.000000000000001 at
    // n = 9 but exactly 8 at n = 12, so only the second cell tells `>`
    // from `≥`.)
    for (n, asleep, seed) in [(9, 1.0 / 3.0, 7), (12, 0.34, 8)] {
        let schedule = Schedule::mass_sleep(n, 30, asleep, 8, 20);
        assert!(!analytical_decided_views(&schedule, n).1.is_empty());
        assert_matches_analytical(&schedule, n, seed);
    }
}

/// Every process's decision log of a full-participation synchronous run.
fn full_run_decisions(params: Params, horizon: u64, seed: u64) -> Vec<Vec<DecisionEvent>> {
    let (tap, log) = DecisionTap::new(params.n());
    SimBuilder::from_config(SimConfig::new(params, seed).horizon(horizon))
        .workload_spec(WorkloadSpec::txs_every(3))
        .observer(tap)
        .run();
    log.take()
}

/// With every process awake and synchrony, every counted vote is one of
/// all `n`, so `m = n` and the denominator cannot matter: `Fixed` and
/// `Perceived` decide the same chains, event for event.
#[test]
fn fixed_and_perceived_agree_under_full_participation() {
    for n in [4, 7, 9, 16] {
        for eta in [0, 2, 4] {
            let params = |participation| {
                Params::builder(n)
                    .expiration(eta)
                    .participation(participation)
                    .build()
                    .expect("valid params")
            };
            let seed = 31 * n as u64 + eta;
            let perceived = full_run_decisions(params(Participation::Perceived), 24, seed);
            let fixed = full_run_decisions(params(Participation::Fixed), 24, seed);
            assert!(perceived.iter().all(|log| log.len() >= 10), "n={n} η={eta}");
            assert_eq!(perceived, fixed, "n={n} η={eta}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under full participation the baseline decides **every** view from
    /// view 2 on whose decision round fits the horizon — on every process.
    #[test]
    fn full_participation_decides_every_view(
        n in 4usize..13,
        half_views in 4u64..10,
        seed in 0u64..1000,
    ) {
        let horizon = 2 * half_views + 1;
        let (tap, log) = DecisionTap::new(n);
        let mut sim = SimBuilder::from_config(SimConfig::new(fixed(n), seed).horizon(horizon))
            .observer(tap)
            .build()
            .expect("valid simulation");
        while sim.step().is_some() {}
        let expected: Vec<u64> = (2..=half_views + 1).collect();
        for (i, decisions) in log.borrow().iter().enumerate() {
            let views: Vec<u64> = decisions.iter().map(|d| d.view.as_u64()).collect();
            prop_assert_eq!(&views, &expected, "process {}", i);
        }
    }

    /// With strictly more than a third of the processes asleep, no view
    /// whose vote round (`2v − 2`) falls in the sleep window ever decides
    /// — the static quorum over all `n` is unreachable.
    #[test]
    fn over_a_third_sleeping_decides_nothing_in_the_window(
        n in 4usize..13,
        seed in 0u64..1000,
        extra in 0u64..3,
    ) {
        let horizon = 30 + extra;
        // Strictly more than n/3 sleepers.
        let sleepers = n / 3 + 1;
        let frac = sleepers as f64 / n as f64;
        let from = 8;
        let to = 22;
        let schedule = Schedule::mass_sleep(n, horizon, frac, from, to);
        let decided = simulated_decided_views(&schedule, n, seed);
        for v in 2..=horizon.div_ceil(2) {
            let vote_round = 2 * v - 2;
            if (from..=to).contains(&vote_round) {
                prop_assert!(
                    !decided.contains(&v),
                    "view {} decided with {}/{} asleep",
                    v,
                    sleepers,
                    n
                );
            } else if vote_round < from {
                // Sanity: views before the window do decide.
                prop_assert!(decided.contains(&v));
            }
        }
        // And it recovers after the window (horizon leaves room).
        prop_assert!(decided.iter().any(|&v| 2 * v - 2 > to), "no recovery after the window");
    }
}

#[test]
fn quorum_baseline_is_safe_but_stalls_through_asynchrony() {
    // The head-to-head shape: a partition-attacked asynchronous window.
    // The baseline stays safe *in this cell* — each partition half is
    // n/2 < 2n/3, so no quorum (and hence no decision, conflicting or
    // otherwise) can form inside the window. The windowed views stall,
    // while the sleepy protocol under the same cell (η > π) recovers —
    // see `sleepy_decides_where_the_quorum_baseline_stalls`.
    let n = 9;
    let horizon = 40;
    let timeline = Timeline::synchronous().asynchronous(Round::new(13), 6);
    let (tap, log) = DecisionTap::new(n);
    let mut sim = SimBuilder::from_config(
        SimConfig::new(fixed(n), 11)
            .horizon(horizon)
            .timeline(timeline),
    )
    .schedule(Schedule::full(n, horizon))
    .adversary(PartitionAttacker::new())
    .observer(tap)
    .build()
    .expect("valid simulation");
    while sim.step().is_some() {}
    let decided: BTreeSet<u64> = log
        .borrow()
        .iter()
        .flat_map(|events| events.iter().map(|d| d.view.as_u64()))
        .collect();
    let report = sim.finish();
    assert!(report.is_safe(), "{:?}", report.safety_violations);
    // Views whose vote round fell inside the window (rounds 13..=18:
    // views 8, 9, 10 grade the votes of rounds 14, 16, 18) never reach
    // the full-membership quorum — each partition half is n/2 < 2n/3.
    for v in [8u64, 9, 10] {
        assert!(!decided.contains(&v), "windowed view {v} decided");
    }
    // Synchrony resumes and the baseline decides again.
    assert!(decided.iter().any(|&v| v >= 11), "no post-window recovery");
}

/// One head-to-head cell: a disruption both protocols run through.
struct Duel {
    name: &'static str,
    /// The sleepy protocol's expiration (the baseline's is 0).
    eta: u64,
    /// First and last disrupted round.
    span: (u64, u64),
    /// A participation dip over the span: the fraction asleep and the
    /// sleepy protocol's decisions inside it. Without one, the schedule is
    /// full and the sleepy protocol must recover after the window.
    dip: Option<(f64, usize)>,
    timeline: fn() -> Timeline,
    /// Partition attacker (else silent), on both sides.
    partition: bool,
    /// The baseline's decisions inside the span.
    quorum_in_span: usize,
    /// Decision totals, sleepy then quorum.
    totals: (usize, usize),
}

const DUEL_N: usize = 16;
const DUEL_HORIZON: u64 = 60;

fn duels() -> [Duel; 5] {
    let dip = |name, asleep, decisions, sleepy_total| Duel {
        name,
        eta: 4,
        span: (16, 40),
        dip: Some((asleep, decisions)),
        timeline: Timeline::synchronous,
        partition: false,
        quorum_in_span: 0,
        totals: (sleepy_total, 256),
    };
    [
        dip("dip-40", 0.4, 120, 392),
        dip("dip-60", 0.6, 84, 356),
        dip("dip-80", 0.8, 48, 320),
        Duel {
            name: "async-partition",
            eta: 6,
            span: (20, 23),
            dip: None,
            timeline: || Timeline::synchronous().asynchronous(Round::new(20), 4),
            partition: true,
            quorum_in_span: 0,
            totals: (464, 432),
        },
        // Bounded delay until GST: a vote arrives up to two rounds after
        // it is cast, and at η = 0 a tally counts only the previous
        // round's votes, so the baseline decides only in the few rounds
        // where more than 2n/3 of them happened to arrive on time (4
        // events under this sweep's seeded delays; the sleepy protocol
        // grades what arrived and decides in every view).
        Duel {
            name: "gst-delta2",
            eta: 4,
            span: (1, 30),
            dip: None,
            timeline: || gst(2, Round::new(DUEL_HORIZON / 2 + 1)),
            partition: false,
            quorum_in_span: 4,
            totals: (464, 228),
        },
    ]
}

fn duel_side(duel: &Duel, params: Params, seed: u64) -> Simulation {
    let (n, h) = (DUEL_N, DUEL_HORIZON);
    let schedule = match duel.dip {
        Some((asleep, _)) => Schedule::mass_sleep(n, h, asleep, duel.span.0, duel.span.1),
        None => Schedule::full(n, h),
    };
    let builder = SimBuilder::from_config(
        SimConfig::new(params, seed)
            .horizon(h)
            .timeline((duel.timeline)()),
    )
    .workload_spec(WorkloadSpec::txs_every(8))
    .schedule(schedule);
    let builder = if duel.partition {
        builder.adversary(PartitionAttacker::new())
    } else {
        builder.adversary(SilentAdversary)
    };
    builder.build().expect("valid head-to-head cell")
}

/// Decision events observed in rounds `span.0..=span.1`.
fn decisions_in_span(report: &SimReport, span: (u64, u64)) -> usize {
    report
        .timeline
        .samples()
        .iter()
        .filter(|s| (span.0..=span.1).contains(&s.round))
        .map(|s| s.decisions)
        .sum()
}

/// The paper's comparative claim on three disruption families at n = 16,
/// same cells, schedules, timelines and per-cell seeds on both sides (one
/// sweep, run once per side). Through participation dips of 40–80 % and
/// an asynchronous window under the partition attacker (π = 4 < η = 6)
/// the static `> 2n/3` quorum decides nothing, while the sleepy protocol
/// stays safe, decides inside every dip, recovers after every window and
/// decides more in total; with bounded delay until GST it decides in
/// every view and the baseline in a few.
#[test]
fn sleepy_decides_where_the_quorum_baseline_stalls() {
    let duels = duels();
    let sweep = Sweep::over(0..duels.len()).seed(0xB1B1);
    let sleepy = sweep.run_reports(|&i, seed| {
        let params = Params::builder(DUEL_N).expiration(duels[i].eta).build();
        duel_side(&duels[i], params.expect("valid params"), seed)
    });
    let quorum = sweep.run_reports(|&i, seed| duel_side(&duels[i], fixed(DUEL_N), seed));
    for (duel, (sleepy, quorum)) in duels.iter().zip(sleepy.reports.iter().zip(&quorum.reports)) {
        let name = duel.name;
        assert_eq!(
            decisions_in_span(quorum, duel.span),
            duel.quorum_in_span,
            "{name}: the quorum baseline's decisions inside the disruption"
        );
        assert!(sleepy.is_safe(), "{name}: {:?}", sleepy.safety_violations);
        assert!(quorum.is_safe(), "{name}: {:?}", quorum.safety_violations);
        match duel.dip {
            Some((_, expected)) => assert_eq!(
                decisions_in_span(sleepy, duel.span),
                expected,
                "{name}: sleepy decisions inside the dip"
            ),
            None => assert!(
                sleepy.recovered_after_every_window(),
                "{name}: the sleepy protocol did not recover after the window"
            ),
        }
        let totals = (sleepy.decisions_total, quorum.decisions_total);
        assert!(totals.0 > totals.1, "{name}: no decision advantage");
        assert_eq!(totals, duel.totals, "{name}: decision totals");
    }
}
