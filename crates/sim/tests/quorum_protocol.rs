//! The in-simulator fixed-quorum baseline, held to its spec.
//!
//! Two kinds of guard:
//!
//! * **Analytical cross-check** — a closed-form schedule walk
//!   ([`analytical_decided_views`]) predicts, per view, whether the
//!   static quorum is met on an honest synchronous schedule. The
//!   message-passing [`QuorumProcess`] must decide exactly the predicted
//!   views and stall exactly the predicted ones.
//! * **Property tests** — the module-doc claims, executed: under full
//!   participation every view decides; when more than a third of the
//!   processes sleep, no affected view ever does.
//! * **Head to head** (EXPERIMENTS.md B2) — the sleepy protocol and the
//!   baseline on the same cells and seeds: the baseline stalls through
//!   every disruption while the sleepy protocol decides or recovers.

use proptest::prelude::*;
use st_core::TobProcess;
use st_sim::adversary::{PartitionAttacker, SilentAdversary};
use st_sim::scenario::gst;
use st_sim::{
    DecisionTap, Protocol, QuorumProcess, Schedule, SimBuilder, SimConfig, SimReport, Simulation,
    Sweep, Timeline, WorkloadSpec,
};
use st_types::{Params, Round};
use std::collections::BTreeSet;

/// Runs the in-simulator baseline over `schedule` and returns the set of
/// decided views (union over processes — under synchrony every awake
/// process decides the same views, sleepers catch up from the backlog).
/// The runner drains decision events into its observers each round, so
/// post-run inspection goes through a [`DecisionTap`].
fn simulated_decided_views(schedule: &Schedule, n: usize, seed: u64) -> BTreeSet<u64> {
    let params = Params::builder(n).build().expect("valid params");
    let (tap, log) = DecisionTap::new(n);
    let mut sim = SimBuilder::<QuorumProcess>::for_protocol_config(
        SimConfig::new(params, seed).horizon(schedule.horizon()),
    )
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

/// Views the simulation could have decided by the horizon: a view's
/// votes (cast in round `2v`) are integrated at the next send step, so
/// the decision round is `2v + 1`.
fn decidable_by_horizon(view: u64, horizon: u64) -> bool {
    2 * view < horizon
}

/// The closed-form walk: view `v` (decision round `2v ≤ horizon`)
/// decides iff more than `2n/3` honest processes are awake in round `2v`
/// — votes from asleep processes cannot arrive, and the quorum counts
/// the fixed membership `n`. Returns `(decided, stalled)`.
fn analytical_decided_views(schedule: &Schedule, n: usize) -> (BTreeSet<u64>, BTreeSet<u64>) {
    (1..=schedule.horizon() / 2).partition(|&v| {
        let awake = schedule.honest_awake(Round::new(2 * v)).len();
        QuorumProcess::quorum_exceeded(n, awake)
    })
}

/// The cross-check: simulated decided/stalled views must match the
/// analytical walk on honest synchronous schedules, up to the one-round
/// decision lag at the horizon.
fn assert_matches_analytical(schedule: &Schedule, n: usize, seed: u64) {
    let (predicted, stalled) = analytical_decided_views(schedule, n);
    let simulated = simulated_decided_views(schedule, n, seed);
    for &v in &predicted {
        if decidable_by_horizon(v, schedule.horizon()) {
            assert!(
                simulated.contains(&v),
                "analytical decided view {v} missing from simulation (n={n})"
            );
        }
    }
    for v in &stalled {
        assert!(
            !simulated.contains(v),
            "analytically stalled view {v} decided in simulation (n={n})"
        );
    }
    // And nothing beyond the analytical decided set ever decides.
    for v in &simulated {
        assert!(
            predicted.contains(v),
            "simulation decided view {v} the analytical walk did not predict (n={n})"
        );
    }
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
    // Exactly a third asleep (3 of 9): 6 awake = 2n/3 exactly, which the
    // strict `> 2n/3` rule rejects — both sides must agree the views
    // stall.
    let schedule = Schedule::mass_sleep(9, 30, 1.0 / 3.0, 8, 20);
    assert!(!analytical_decided_views(&schedule, 9).1.is_empty());
    assert_matches_analytical(&schedule, 9, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under full participation the baseline decides **every** view whose
    /// decision step fits the horizon — on every process.
    #[test]
    fn full_participation_decides_every_view(
        n in 4usize..13,
        half_views in 4u64..10,
        seed in 0u64..1000,
    ) {
        let horizon = 2 * half_views + 1;
        let params = Params::builder(n).build().expect("valid params");
        let (tap, log) = DecisionTap::new(n);
        let mut sim = SimBuilder::<QuorumProcess>::for_protocol_config(SimConfig::new(params, seed).horizon(horizon)).observer(tap)
            .build()
            .expect("valid simulation");
        while sim.step().is_some() {}
        let expected: Vec<u64> = (1..=half_views).filter(|&v| 2 * v < horizon).collect();
        for (i, decisions) in log.borrow().iter().enumerate() {
            let views: Vec<u64> = decisions.iter().map(|d| d.view.as_u64()).collect();
            prop_assert_eq!(&views, &expected, "process {}", i);
        }
    }

    /// With strictly more than a third of the processes asleep, no view
    /// whose vote round falls in the sleep window ever decides — the
    /// static quorum over all `n` is unreachable.
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
        for v in 1..=horizon / 2 {
            let vote_round = 2 * v;
            if (from..=to).contains(&vote_round) {
                prop_assert!(
                    !decided.contains(&v),
                    "view {} decided with {}/{} asleep",
                    v,
                    sleepers,
                    n
                );
            } else if decidable_by_horizon(v, horizon) && vote_round < from {
                // Sanity: views before the window do decide.
                prop_assert!(decided.contains(&v));
            }
        }
        // And it recovers after the window (horizon leaves room).
        prop_assert!(decided.iter().any(|&v| 2 * v > to), "no recovery after the window");
    }
}

#[test]
fn quorum_baseline_is_safe_but_stalls_through_asynchrony() {
    // The head-to-head shape: a partition-attacked asynchronous window.
    // The baseline stays safe *in this cell* — each partition half is
    // n/2 < 2n/3, so no quorum (and hence no decision, conflicting or
    // otherwise) can form inside the window; note the two-round protocol
    // has no cross-view locking, so this is a property of the delivery
    // pattern, not a general safety proof. The windowed views stall
    // permanently, while the sleepy protocol under the same cell
    // (η > π) recovers — see `sleepy_decides_where_the_quorum_baseline_stalls`.
    let n = 9;
    let horizon = 40;
    let params = Params::builder(n).build().expect("valid params");
    let timeline = Timeline::synchronous().asynchronous(Round::new(13), 6);
    let (tap, log) = DecisionTap::new(n);
    let mut sim = SimBuilder::<QuorumProcess>::for_protocol_config(
        SimConfig::new(params, 11)
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
    // Views whose proposal or vote round fell inside the window (rounds
    // 13..=18: views 7, 8, 9) never reach the full-membership quorum —
    // each partition half is n/2 < 2n/3.
    for v in [7u64, 8, 9] {
        assert!(!decided.contains(&v), "windowed view {v} decided");
    }
    // Synchrony resumes and the baseline decides again.
    assert!(decided.iter().any(|&v| v >= 11), "no post-window recovery");
}

/// One head-to-head cell: a disruption both protocols run through.
struct Duel {
    name: &'static str,
    /// The sleepy protocol's expiration (the baseline has none).
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
            totals: (464, 432),
        },
        Duel {
            name: "gst-delta2",
            eta: 4,
            span: (1, 30),
            dip: None,
            timeline: || gst(2, Round::new(DUEL_HORIZON / 2 + 1)),
            partition: false,
            totals: (464, 224),
        },
    ]
}

fn duel_side<P: Protocol>(duel: &Duel, params: Params, seed: u64) -> Simulation<P> {
    let (n, h) = (DUEL_N, DUEL_HORIZON);
    let schedule = match duel.dip {
        Some((asleep, _)) => Schedule::mass_sleep(n, h, asleep, duel.span.0, duel.span.1),
        None => Schedule::full(n, h),
    };
    let builder = SimBuilder::<P>::for_protocol_config(
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
/// same cells, schedules, timelines and per-cell seeds on both sides.
/// Through participation dips of 40–80 %, an asynchronous window under
/// the partition attacker (π = 4 < η = 6) and bounded delay until GST, the
/// static `> 2n/3` quorum decides nothing, while the sleepy protocol stays
/// safe, decides inside every dip, recovers after every window and
/// decides more in total.
#[test]
fn sleepy_decides_where_the_quorum_baseline_stalls() {
    let duels = duels();
    let outcome = Sweep::over(0..duels.len()).seed(0xB1B1).compare(
        |&i, seed| {
            let params = Params::builder(DUEL_N).expiration(duels[i].eta).build();
            duel_side::<TobProcess>(&duels[i], params.expect("valid params"), seed)
        },
        |&i, seed| {
            let params = Params::builder(DUEL_N).build().expect("valid params");
            duel_side::<QuorumProcess>(&duels[i], params, seed)
        },
    );
    for (duel, (sleepy, quorum)) in duels.iter().zip(outcome.pairs()) {
        let name = duel.name;
        assert_eq!(
            decisions_in_span(quorum, duel.span),
            0,
            "{name}: the quorum baseline decided inside the disruption"
        );
        assert!(sleepy.is_safe(), "{name}: {:?}", sleepy.safety_violations);
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
