//! End-to-end integration tests: each of the paper's theorems, lemmas and
//! headline claims exercised through the full stack (protocol + simulator
//! + monitors).

use sleepy_tob::prelude::*;
use sleepy_tob::sim::adversary::JunkVoter;
use sleepy_tob::sim::ChurnOptions;

fn params(n: usize, eta: u64) -> Params {
    Params::builder(n)
        .expiration(eta)
        .build()
        .expect("valid parameters")
}

/// Theorem 1: the extended protocol is a correct TOB under synchrony —
/// safety and transaction liveness across participation patterns, with
/// and without a junk-voting Byzantine minority.
#[test]
fn theorem1_safety_and_liveness_under_synchrony() {
    // ≈ 5 % churn per η = 4 rounds, as raw independent sleep events.
    let churn = Schedule::random_churn(
        16,
        50,
        0.013,
        7,
        &ChurnOptions {
            min_awake_frac: 0.6,
            wake_prob: 0.35,
            max_dropped_frac: 1.0,
            ..Default::default()
        },
    );
    for (label, schedule, junk) in [
        ("full", Schedule::full(12, 50), false),
        (
            "mass-sleep",
            Schedule::mass_sleep(12, 50, 0.5, 15, 35),
            false,
        ),
        ("oscillating", Schedule::oscillating(12, 50, 0.7, 10), false),
        (
            "junk f=2",
            Schedule::full(16, 50).with_static_byzantine(2),
            true,
        ),
        ("churn-5% + junk f=2", churn.with_static_byzantine(2), true),
    ] {
        let n = schedule.n();
        for eta in [0u64, 4] {
            let adversary: Box<dyn Adversary> = if junk {
                Box::new(JunkVoter::new())
            } else {
                Box::new(SilentAdversary)
            };
            let report = SimBuilder::from_config(SimConfig::new(params(n, eta), 31).horizon(50))
                .workload_spec(WorkloadSpec::txs_every(5))
                .schedule(schedule.clone())
                .adversary_boxed(adversary)
                .run();
            assert!(report.is_safe(), "{label}/η={eta}: agreement broken");
            assert!(
                report.tx_inclusion_rate() > 0.8,
                "{label}/η={eta}: inclusion {}",
                report.tx_inclusion_rate()
            );
            assert!(
                report.final_decided_height > 15,
                "{label}/η={eta}: no progress"
            );
        }
    }
}

/// Theorem 2 (positive): any asynchronous period of π < η rounds is
/// survived, against every attack strategy in the arsenal.
#[test]
fn theorem2_resilience_for_pi_less_than_eta() {
    let eta = 5u64;
    for pi in 1..eta {
        let attacks: Vec<(Box<dyn sleepy_tob::sim::Adversary>, usize)> = vec![
            (Box::new(BlackoutAdversary), 0),
            (Box::new(PartitionAttacker::new()), 0),
            (Box::new(ReorgAttacker::new()), 3),
            (Box::new(PartitionAttacker::with_blackout(eta)), 0),
            (Box::new(ReorgAttacker::with_blackout(eta)), 3),
        ];
        for (adversary, byz) in attacks {
            let name = adversary.name();
            let horizon = 20 + pi + 14;
            let schedule = Schedule::full(12, horizon).with_static_byzantine(byz);
            let report = SimBuilder::from_config(
                SimConfig::new(params(12, eta), 17)
                    .horizon(horizon)
                    .timeline(Timeline::synchronous().asynchronous(Round::new(14), pi)),
            )
            .schedule(schedule)
            .adversary_boxed(adversary)
            .run();
            assert!(
                report.is_safe() && report.is_asynchrony_resilient(),
                "π={pi} < η={eta} but {name} broke safety"
            );
        }
    }
}

/// Theorem 2 (negative direction): with π sufficiently beyond η the same
/// attacks succeed — the bound is meaningful.
#[test]
fn theorem2_bound_is_meaningful() {
    let eta = 3u64;
    let pi = eta + 8;
    let horizon = 14 + pi + 16;
    // Partition flavour: agreement breaks.
    let report = SimBuilder::from_config(
        SimConfig::new(params(12, eta), 23)
            .horizon(horizon)
            .timeline(Timeline::synchronous().asynchronous(Round::new(14), pi)),
    )
    .schedule(Schedule::full(12, horizon))
    .adversary(PartitionAttacker::with_blackout(eta + 1))
    .build()
    .expect("valid simulation")
    .run();
    assert!(
        !report.safety_violations.is_empty(),
        "partition attack should succeed at π ≫ η"
    );
    // Reorg flavour: D_ra is reverted.
    let report = SimBuilder::from_config(
        SimConfig::new(params(12, eta), 23)
            .horizon(horizon)
            .timeline(Timeline::synchronous().asynchronous(Round::new(14), pi)),
    )
    .schedule(Schedule::full(12, horizon).with_static_byzantine(3))
    .adversary(ReorgAttacker::with_blackout(eta + 1))
    .build()
    .expect("valid simulation")
    .run();
    assert!(
        !report.resilience_violations.is_empty(),
        "reorg attack should revert D_ra at π ≫ η"
    );
}

/// Theorem 3: healing — after the window closes, decisions resume within
/// one view and liveness returns, whichever adversary ran the window.
#[test]
fn theorem3_healing() {
    for pi in [1u64, 2, 3] {
        let attacks: [(Box<dyn Adversary>, usize); 3] = [
            (Box::new(BlackoutAdversary), 0),
            (Box::new(PartitionAttacker::new()), 0),
            (Box::new(ReorgAttacker::new()), 3),
        ];
        for (adversary, byz) in attacks {
            let name = adversary.name();
            let horizon = 16 + pi + 20;
            let report = SimBuilder::from_config(
                SimConfig::new(params(10, 4), 5)
                    .horizon(horizon)
                    .timeline(Timeline::synchronous().asynchronous(Round::new(16), pi)),
            )
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(Schedule::full(10, horizon).with_static_byzantine(byz))
            .adversary_boxed(adversary)
            .run();
            let lag = report
                .max_recovery_rounds()
                .expect("decisions resume after the window");
            assert!(lag <= 2, "{name}: healing took {lag} rounds (π={pi})");
            assert!(
                report.is_safe() && report.is_asynchrony_resilient(),
                "{name}: violations at π={pi}"
            );
            // Transactions submitted after the window are included.
            let post: Vec<_> = report
                .txs
                .iter()
                .filter(|t| t.submitted.as_u64() > 16 + pi)
                .collect();
            assert!(
                post.iter()
                    .filter(|t| t.included_everywhere.is_some())
                    .count() as f64
                    >= post.len() as f64 * 0.7,
                "{name}: post-window liveness degraded (π={pi})"
            );
        }
    }
}

/// The Section-1 attack, the negative result motivating the whole paper:
/// vanilla MMR (η = 0) loses `D_ra` to one asynchronous round of the reorg
/// play and agreement to a 4-round partition; the extended protocol
/// (η = 6 > π) survives both.
#[test]
fn vanilla_mmr_breaks_in_one_async_round() {
    let horizon = 30;
    let run = |eta: u64, reorg: bool| {
        let (adversary, pi, byz): (Box<dyn Adversary>, u64, usize) = if reorg {
            (Box::new(ReorgAttacker::new()), 1, 3)
        } else {
            (Box::new(PartitionAttacker::new()), 4, 0)
        };
        SimBuilder::from_config(
            SimConfig::new(params(10, eta), 5)
                .horizon(horizon)
                .timeline(Timeline::synchronous().asynchronous(Round::new(12), pi)),
        )
        .schedule(Schedule::full(10, horizon).with_static_byzantine(byz))
        .adversary_boxed(adversary)
        .run()
    };
    assert!(!run(0, true).resilience_violations.is_empty());
    assert!(!run(0, false).safety_violations.is_empty());
    for reorg in [true, false] {
        let report = run(6, reorg);
        assert!(
            report.is_safe() && report.is_asynchrony_resilient(),
            "η = 6 lost to the {} attack",
            report.adversary
        );
    }
}

/// Dynamic availability: 99% of processes offline, the chain keeps
/// growing (the introduction's "even 99%" claim).
#[test]
fn dynamic_availability_at_99_percent_offline() {
    let n = 100;
    let horizon = 60u64;
    let schedule = Schedule::mass_sleep(n, horizon, 0.99, 16, 44);
    let report = SimBuilder::from_config(SimConfig::new(params(n, 0), 9).horizon(horizon))
        .schedule(schedule.clone())
        .adversary(SilentAdversary)
        .build()
        .expect("valid simulation")
        .run();
    assert!(report.is_safe());
    assert!(
        report.final_decided_height > 20,
        "chain stalled at height {}",
        report.final_decided_height
    );
    // While the classic fixed-quorum protocol — the same protocol grading
    // support against all n — run over the same schedule, stalls for the
    // whole incident.
    let fixed = Params::builder(n)
        .participation(Participation::Fixed)
        .build()
        .expect("valid parameters");
    let (tap, log) = DecisionTap::new(n);
    SimBuilder::from_config(SimConfig::new(fixed, 9).horizon(horizon))
        .schedule(schedule)
        .observer(tap)
        .run();
    let mut decided: Vec<u64> = log
        .borrow()
        .iter()
        .flatten()
        .map(|d| d.view.as_u64())
        .collect();
    decided.sort_unstable();
    decided.dedup();
    let longest_stall = decided
        .windows(2)
        .map(|w| w[1] - w[0] - 1)
        .max()
        .unwrap_or(0);
    assert!(
        longest_stall >= 13,
        "the quorum baseline stalled only {longest_stall} views"
    );
}

/// The common-case equivalence claim: under synchrony the extended
/// protocol matches the vanilla protocol's decisions exactly.
#[test]
fn extended_matches_vanilla_under_synchrony() {
    let run = |eta: u64| {
        SimBuilder::from_config(SimConfig::new(params(8, eta), 77).horizon(40))
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(Schedule::full(8, 40))
            .adversary(SilentAdversary)
            .build()
            .expect("valid simulation")
            .run()
    };
    let vanilla = run(0);
    let extended = run(6);
    assert_eq!(vanilla.decisions_total, extended.decisions_total);
    assert_eq!(vanilla.final_decided_height, extended.final_decided_height);
    assert_eq!(
        vanilla.mean_tx_latency(),
        extended.mean_tx_latency(),
        "expiration must not slow the common case"
    );
}

/// The mechanism is not specific to β = 1/3 (the paper's conclusion: it
/// applies to other deterministically safe, dynamically available
/// protocols). At n = 24, η = 4 and β ∈ {1/4, 1/3}, the full Byzantine
/// budget `f = ⌈β̃·n⌉ − 1` stays safe under synchrony and cannot revert
/// `D_ra` through a π = 2 reorg window.
#[test]
fn expiration_holds_across_the_failure_ratio_family() {
    let n = 24;
    for (beta, budget) in [(0.25, 5usize), (1.0 / 3.0, 7)] {
        let f = ((adjusted_failure_ratio(beta, 0.0) * n as f64).ceil() as usize).saturating_sub(1);
        assert_eq!(f, budget, "β = {beta}");
        let params = Params::builder(n)
            .failure_ratio(beta)
            .expiration(4)
            .build()
            .expect("valid parameters");
        let sync = SimBuilder::from_config(SimConfig::new(params, 3).horizon(50))
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(Schedule::full(n, 50).with_static_byzantine(f))
            .adversary(JunkVoter::new())
            .run();
        assert!(
            sync.is_safe(),
            "β = {beta}: agreement broken under synchrony"
        );
        assert!(
            sync.final_decided_height > 15,
            "β = {beta}: stalled at {}",
            sync.final_decided_height
        );
        let reorg = SimBuilder::from_config(
            SimConfig::new(params, 3)
                .horizon(50)
                .timeline(Timeline::synchronous().asynchronous(Round::new(14), 2)),
        )
        .schedule(Schedule::full(n, 50).with_static_byzantine(f))
        .adversary(ReorgAttacker::new())
        .run();
        assert!(
            reorg.is_safe() && reorg.is_asynchrony_resilient(),
            "β = {beta}: {} D_ra conflicts at π = 2 < η",
            reorg.resilience_violations.len()
        );
    }
}

/// The δ/π trade-off, the paper's headline practical claim. To survive an
/// asynchronous period of T = 1 s when the network delivers in d = 100 ms,
/// the extended protocol keeps δ = d and sets η = ⌈T/3d⌉ + 1, while
/// vanilla MMR must inflate δ to T. Both stay safe through the period; the
/// extended one decides at least T/2d = 5× the blocks per second.
#[test]
fn small_delta_with_expiration_outpaces_delta_equal_pi() {
    let (t_ms, d_ms) = (1_000.0, 100.0);
    let blocks_per_s = |delta_ms: f64, eta: u64| {
        let round_ms = 3.0 * delta_ms;
        let pi = (t_ms / round_ms).ceil() as u64;
        let horizon = 40 + 2 * pi;
        let params = Params::builder(12)
            .expiration(eta)
            .build()
            .expect("valid parameters");
        let report = SimBuilder::from_config(
            SimConfig::new(params, 3)
                .horizon(horizon)
                .timeline(Timeline::synchronous().asynchronous(Round::new(16), pi)),
        )
        .adversary(BlackoutAdversary)
        .run();
        assert!(
            report.is_safe() && report.is_asynchrony_resilient(),
            "δ = {delta_ms} ms, η = {eta}: unsafe"
        );
        report.final_decided_height as f64 / (horizon as f64 * round_ms / 1000.0)
    };
    let extended = blocks_per_s(d_ms, (t_ms / (3.0 * d_ms)).ceil() as u64 + 1);
    let vanilla = blocks_per_s(t_ms, 0);
    assert!(
        extended >= t_ms / (2.0 * d_ms) * vanilla,
        "extended {extended:.3} blocks/s vs vanilla {vanilla:.3}"
    );
}

/// Simulations are exactly reproducible from their seed.
#[test]
fn determinism_across_runs() {
    let run = || {
        SimBuilder::from_config(
            SimConfig::new(params(10, 4), 1234)
                .horizon(36)
                .timeline(Timeline::synchronous().asynchronous(Round::new(10), 3)),
        )
        .workload_spec(WorkloadSpec::txs_every(3))
        .schedule(Schedule::oscillating(10, 36, 0.6, 8))
        .adversary(PartitionAttacker::new())
        .build()
        .expect("valid simulation")
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.decisions_total, b.decisions_total);
    assert_eq!(a.final_decided_height, b.final_decided_height);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.per_process_decisions, b.per_process_decisions);
    assert_eq!(a.txs.len(), b.txs.len());
    for (ta, tb) in a.txs.iter().zip(b.txs.iter()) {
        assert_eq!(ta.included_everywhere, tb.included_everywhere);
    }
}
