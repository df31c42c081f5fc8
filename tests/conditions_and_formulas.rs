//! Integration tests tying the model-condition checkers
//! (`st_sim::conditions`) and the β̃ formula to actual protocol
//! behaviour: when the checkers certify a schedule, the theorems'
//! conclusions hold in simulation; Figure 1's curve is pinned as a table
//! and its budget is sound; parameter validation rejects what the theory
//! rejects.

use sleepy_tob::prelude::*;
use sleepy_tob::sim::adversary::JunkVoter;
use sleepy_tob::sim::ChurnOptions;

/// Schedules certified by the Equation 1–3 checkers yield safe + live
/// executions (the checkers are a sound precondition oracle).
#[test]
fn certified_schedules_behave() {
    let n = 15;
    let horizon = 50;
    let eta = 4u64;
    let gamma = 0.15;
    let mut certified = 0;
    for seed in 0..6u64 {
        let schedule = Schedule::random_churn(
            n,
            horizon,
            0.01,
            seed,
            &ChurnOptions {
                min_awake_frac: 0.7,
                wake_prob: 0.5,
                ..Default::default()
            },
        )
        .with_static_byzantine(2);
        let report = check_conditions(&schedule, 1.0 / 3.0, gamma, eta, None);
        if !report.synchronous_conditions_hold() {
            continue; // only certified schedules are under test
        }
        certified += 1;
        let params = Params::builder(n)
            .expiration(eta)
            .churn_rate(gamma)
            .build()
            .unwrap();
        let sim = SimBuilder::from_config(SimConfig::new(params, seed).horizon(horizon))
            .workload_spec(WorkloadSpec::txs_every(5))
            .schedule(schedule)
            .adversary(EquivocatingVoter::new())
            .build()
            .expect("valid simulation")
            .run();
        assert!(
            sim.is_safe(),
            "certified schedule (seed {seed}) broke safety"
        );
        assert!(
            sim.final_decided_height > 15,
            "certified schedule (seed {seed}) stalled at {}",
            sim.final_decided_height
        );
    }
    assert!(
        certified >= 3,
        "too few certified schedules to be meaningful"
    );
}

/// Figure 1: the allowable failure ratio `β̃ = (1 − 3γ)/(3 − 5γ)` for the
/// MMR threshold (β = 1/3) over the γ range the paper plots, to three
/// decimals and clamped at 0 (from γ = β on no adversary is tolerable).
const FIGURE_1: &str = "\
0.00 0.333
0.02 0.324
0.04 0.314
0.06 0.304
0.08 0.292
0.10 0.280
0.12 0.267
0.14 0.252
0.16 0.236
0.18 0.219
0.20 0.200
0.22 0.179
0.24 0.156
0.26 0.129
0.28 0.100
0.30 0.067
0.32 0.029
0.34 0.000
0.36 0.000
0.38 0.000
0.40 0.000
";

#[test]
fn figure1_table_matches_adjusted_failure_ratio() {
    let table: String = (0..=20)
        .map(|i| {
            let gamma = i as f64 / 50.0;
            let bt = adjusted_failure_ratio(1.0 / 3.0, gamma).max(0.0);
            format!("{gamma:.2} {bt:.3}\n")
        })
        .collect();
    assert_eq!(table, FIGURE_1);
}

/// Figure 1's bound is sound: under worst-case rotating sleepers at churn
/// γ (n = 30, η = 4), the full budget `f = ⌈β̃·n⌉ − 1` of junk-voting
/// Byzantine processes leaves the chain safe and growing.
#[test]
fn figure1_budget_is_sound_under_rotating_sleep() {
    let (n, horizon, eta) = (30, 60u64, 4u64);
    for (gamma, budget) in [(0.0, 9usize), (0.2, 5)] {
        let f = ((adjusted_failure_ratio(1.0 / 3.0, gamma) * n as f64).ceil() as usize)
            .saturating_sub(1);
        assert_eq!(f, budget, "γ = {gamma}");
        let params = Params::builder(n)
            .expiration(eta)
            .churn_rate(gamma)
            .build()
            .unwrap();
        let report = SimBuilder::from_config(SimConfig::new(params, 3).horizon(horizon))
            .schedule(Schedule::rotating_sleep(n, horizon, gamma, eta).with_static_byzantine(f))
            .adversary(JunkVoter::new())
            .run();
        assert!(report.is_safe(), "γ = {gamma}, f = {f}: agreement broken");
        assert!(
            report.final_decided_height >= horizon / 6,
            "γ = {gamma}, f = {f}: stalled at {}",
            report.final_decided_height
        );
    }
}

/// Equation 1 is a liveness premise, not a safety one: driving the actual
/// churn per η from 0.02 to 0.50, far past the configured γ = 0.10,
/// multiplies the rounds that violate it while agreement holds.
#[test]
fn churn_past_gamma_violates_eq1_but_not_agreement() {
    let (n, horizon, eta, gamma) = (20, 60u64, 4u64, 0.10);
    let eq1_violations = |per_eta: f64| {
        let sleep_prob = 1.0 - (1.0 - per_eta).powf(1.0 / eta as f64);
        let schedule = Schedule::random_churn(
            n,
            horizon,
            sleep_prob,
            3,
            &ChurnOptions {
                min_awake_frac: 0.2,
                wake_prob: 0.15,
                max_dropped_frac: 1.0,
                ..Default::default()
            },
        )
        .with_static_byzantine(2);
        let violations = check_conditions(&schedule, 1.0 / 3.0, gamma, eta, None)
            .churn_violations
            .len();
        let params = Params::builder(n)
            .expiration(eta)
            .churn_rate(gamma)
            .build()
            .unwrap();
        let report = SimBuilder::from_config(SimConfig::new(params, 3).horizon(horizon))
            .schedule(schedule)
            .adversary(JunkVoter::new())
            .run();
        assert!(report.is_safe(), "churn {per_eta}/η broke agreement");
        violations
    };
    let (low, high) = (eq1_violations(0.02), eq1_violations(0.50));
    assert!(high > low, "Eq. 1 violations {low} → {high}");
}

/// Equation 4 is what protects D_ra: the same attack flips from failing
/// to succeeding exactly when the checker's verdict flips.
#[test]
fn eq4_verdict_predicts_attack_outcome() {
    let n = 20;
    let eta = 4u64;
    let pi = 2u64;
    let timeline = Timeline::synchronous().asynchronous(Round::new(12), pi);
    for (extra_corruptions, should_hold) in [(0usize, true), (10, false)] {
        let mut schedule = Schedule::full(n, 50).with_static_byzantine(3);
        for i in 0..extra_corruptions {
            schedule = schedule.with_corrupted(ProcessId::new(i as u32), Round::new(12));
        }
        let verdict = check_conditions(&schedule, 1.0 / 3.0, 0.0, eta, timeline.windows().first());
        assert_eq!(
            verdict.eq4_violations.is_empty(),
            should_hold,
            "checker verdict unexpected for {extra_corruptions} corruptions"
        );
        let params = Params::builder(n).expiration(eta).build().unwrap();
        let report = SimBuilder::from_config(
            SimConfig::new(params, 3)
                .horizon(50)
                .timeline(timeline.clone()),
        )
        .schedule(schedule)
        .adversary(ReorgAttacker::new())
        .build()
        .expect("valid simulation")
        .run();
        assert_eq!(
            report.resilience_violations.is_empty(),
            should_hold,
            "attack outcome disagrees with Eq.4 verdict ({extra_corruptions} corruptions)"
        );
    }
}

/// Parameter validation rejects exactly the configurations the theory
/// rejects.
#[test]
fn parameter_validation_matches_theory() {
    // γ ≥ β with expiration: Equation 2 would demand |B_r| < 0.
    assert!(Params::builder(10)
        .expiration(4)
        .churn_rate(0.34)
        .build()
        .is_err());
    // Without expiration the churn bound is vacuous.
    assert!(Params::builder(10)
        .expiration(0)
        .churn_rate(0.34)
        .build()
        .is_ok());
}

/// The graded-agreement primitive and the full protocol agree on
/// thresholds: a Figure-3 GA instance (a vote store holding `M₀` plus the
/// round's votes, tallied over the window back to the oldest `M₀` round)
/// with the same votes the protocol would see produces the decision the
/// protocol makes.
#[test]
fn ga_instance_matches_protocol_decision() {
    use sleepy_tob::blocktree::{Block, BlockTree};

    let mut tree = BlockTree::new();
    let block = tree
        .insert(Block::build(
            BlockId::GENESIS,
            View::new(1),
            ProcessId::new(0),
            vec![],
        ))
        .unwrap();

    // 7 fresh votes + 2 stale (M₀) votes for the block, 1 stale vote for
    // genesis: all 10 count, 9 > 2/3·10 ⇒ grade 1.
    let mut store = VoteStore::new();
    for i in 0..7 {
        store.insert(Vote::new(ProcessId::new(i), Round::new(6), block));
    }
    store.insert(Vote::new(ProcessId::new(7), Round::new(4), block));
    store.insert(Vote::new(ProcessId::new(8), Round::new(4), block));
    store.insert(Vote::new(
        ProcessId::new(9),
        Round::new(3),
        BlockId::GENESIS,
    ));
    let out = tally(
        &tree,
        &store,
        Round::new(3),
        Round::new(6),
        Thresholds::mmr(),
    );
    assert_eq!(out.participation(), 10);
    assert_eq!(out.grade_of(block), Some(Grade::One));
    assert_eq!(out.longest_grade1(), Some(block));
}
