//! Scenario tests: every adversary strategy against the configuration it
//! should and should not beat, plus a randomized soak over in-model
//! configurations.

use proptest::prelude::*;
use st_sim::adversary::{
    Adversary, BlackoutAdversary, EquivocatingVoter, JunkVoter, PartitionAttacker, ReorgAttacker,
    SilentAdversary, WithholdingLeader,
};
use st_sim::{ChurnOptions, Schedule, SimBuilder, SimConfig, Timeline, WorkloadSpec};
use st_types::{Params, ProcessId, Round};

fn params(n: usize, eta: u64) -> Params {
    Params::builder(n).expiration(eta).build().unwrap()
}

/// Equivocating voters within the failure budget cannot break safety or
/// stall the chain under synchrony.
#[test]
fn equivocating_voter_is_harmless_within_budget() {
    let n = 12;
    let report = SimBuilder::from_config(SimConfig::new(params(n, 4), 3).horizon(40))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(Schedule::full(n, 40).with_static_byzantine(3))
        .adversary(EquivocatingVoter::new())
        .run();
    assert!(report.is_safe());
    assert!(
        report.final_decided_height > 12,
        "height {}",
        report.final_decided_height
    );
    assert!(report.tx_inclusion_rate() > 0.8);
}

/// Junk voters inflate perceived participation but stay below every
/// threshold within the budget: no effect on safety or liveness.
#[test]
fn junk_voter_within_budget_no_effect() {
    let n = 12;
    let clean = SimBuilder::from_config(SimConfig::new(params(n, 2), 9).horizon(40))
        .schedule(Schedule::full(n, 40).with_static_byzantine(3))
        .adversary(SilentAdversary)
        .run();
    let junk = SimBuilder::from_config(SimConfig::new(params(n, 2), 9).horizon(40))
        .schedule(Schedule::full(n, 40).with_static_byzantine(3))
        .adversary(JunkVoter::new())
        .run();
    assert!(junk.is_safe());
    assert_eq!(
        clean.final_decided_height, junk.final_decided_height,
        "junk votes below threshold changed chain growth"
    );
}

/// The withholding leader never endangers safety — it is a pure liveness
/// nuisance (its block is simply decided one view late). Without a
/// Byzantine proposer every view decides and a transaction takes exactly
/// 4 rounds: submitted, proposed in the next view, decided the view after
/// (MMR's constant expected latency).
#[test]
fn withholding_leader_is_liveness_only() {
    let n = 12;
    let report = SimBuilder::from_config(SimConfig::new(params(n, 2), 11).horizon(60))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(Schedule::full(n, 60).with_static_byzantine(4))
        .adversary(WithholdingLeader::new())
        .run();
    assert!(report.is_safe());
    assert!(report.tx_inclusion_rate() > 0.8);

    let clean = SimBuilder::from_config(SimConfig::new(params(16, 2), 11).horizon(60))
        .workload_spec(WorkloadSpec::txs_every(6))
        .schedule(Schedule::full(16, 60))
        .adversary(WithholdingLeader::new())
        .run();
    assert!(clean.is_safe());
    assert_eq!(clean.mean_tx_latency(), Some(4.0));
}

/// A growing adversary corrupting processes mid-run (outside any
/// asynchronous window) cannot break safety while within the budget:
/// corrupted processes simply go silent (worst case for progress).
#[test]
fn growing_adversary_within_budget_is_safe() {
    let n = 12;
    let schedule = Schedule::full(n, 50)
        .with_corrupted(ProcessId::new(9), Round::new(10))
        .with_corrupted(ProcessId::new(10), Round::new(20))
        .with_corrupted(ProcessId::new(11), Round::new(30));
    let report = SimBuilder::from_config(SimConfig::new(params(n, 4), 13).horizon(50))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule)
        .adversary(SilentAdversary)
        .run();
    assert!(report.is_safe());
    assert!(report.final_decided_height > 15);
}

/// Corrupting a process *during* the window and using it for the reorg
/// attack: the growing adversary gains nothing extra while Eq. 4 holds.
#[test]
fn reorg_with_growing_corruption_still_fails_for_small_pi() {
    let n = 16;
    let schedule = Schedule::full(n, 44)
        .with_static_byzantine(3)
        // A fourth process falls at the window edge; Eq. 4 still holds
        // (12 of 16 survivors > 2/3).
        .with_corrupted(ProcessId::new(12), Round::new(14));
    let report = SimBuilder::from_config(
        SimConfig::new(params(n, 5), 3)
            .horizon(44)
            .timeline(Timeline::synchronous().asynchronous(Round::new(14), 2)),
    )
    .schedule(schedule)
    .adversary(ReorgAttacker::new())
    .run();
    assert!(
        report.is_asynchrony_resilient(),
        "{:?}",
        report.resilience_violations
    );
    assert!(report.is_safe());
}

/// A blackout window immediately followed by heavy churn: safety must
/// survive the combination.
#[test]
fn blackout_then_mass_sleep_is_safe() {
    let n = 12;
    let mut awake = vec![vec![true; n]; 51];
    // Rounds 18..=30: 5 processes sleep right after the window ends.
    for r in 18..=30 {
        for p in 7..12 {
            awake[r][p] = false;
        }
    }
    let schedule = Schedule::custom(awake);
    let report = SimBuilder::from_config(
        SimConfig::new(params(n, 5), 21)
            .horizon(50)
            .timeline(Timeline::synchronous().asynchronous(Round::new(12), 3)),
    )
    .workload_spec(WorkloadSpec::txs_every(5))
    .schedule(schedule)
    .adversary(BlackoutAdversary)
    .run();
    assert!(report.is_safe());
    assert!(report.is_asynchrony_resilient());
    assert!(report.final_decided_height > 10);
}

/// The partition attacker does nothing when no round is asynchronous —
/// its power comes entirely from the delivery oracle.
#[test]
fn partition_attacker_powerless_under_synchrony() {
    let n = 8;
    let report = SimBuilder::from_config(SimConfig::new(params(n, 0), 5).horizon(30))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(Schedule::full(n, 30))
        .adversary(PartitionAttacker::new())
        .run();
    assert!(report.is_safe());
    assert!(report.tx_inclusion_rate() > 0.8);
}

/// Regression for the one-shot `async_start` latch the attackers used to
/// carry: with two asynchronous windows, the blackout prefix must re-arm
/// at the start of the **second** window. Under the latched behaviour the
/// second window skipped its blackout (the offset kept counting from
/// window 1), so the partition play ran from the window's first round and
/// the halves kept deciding; with the window-relative offset the first
/// `b` rounds of each window deliver nothing and decisions stall.
#[test]
fn partition_blackout_rearms_on_second_window() {
    let n = 8;
    let b = 3u64;
    let (w1, w2) = (Round::new(10), Round::new(26));
    let timeline = Timeline::synchronous()
        .asynchronous(w1, b + 4)
        .asynchronous(w2, b + 4);
    let report = SimBuilder::from_config(
        SimConfig::new(params(n, 0), 5)
            .horizon(40)
            .timeline(timeline),
    )
    .schedule(Schedule::full(n, 40))
    .adversary(PartitionAttacker::with_blackout(b))
    .run();
    // The attack lands in window 1 (sanity: the strategy works at all).
    assert!(!report.safety_violations.is_empty());
    // Blackout re-armed: the receive phases of the first `b` rounds of
    // window 2 deliver *nothing* — under the latched bug the offset kept
    // counting from window 1, so same-half partition traffic flowed from
    // the window's first round.
    for r in w2.as_u64()..w2.as_u64() + b {
        assert_eq!(
            report
                .timeline
                .at(Round::new(r))
                .unwrap()
                .messages_delivered,
            0,
            "second blackout did not re-arm (round {r} delivered messages)"
        );
    }
    // And the second attack actually fires after its blackout: partition
    // delivery resumes, and the halves fork again into a fresh
    // conflicting pair decided after the blackout.
    assert!(
        report
            .timeline
            .at(Round::new(w2.as_u64() + b))
            .unwrap()
            .messages_delivered
            > 0,
        "partition play never resumed in window 2"
    );
    assert!(
        report.safety_violations.iter().any(|v| {
            v.first.1.round > Round::new(w2.as_u64() + b)
                && v.second.1.round > Round::new(w2.as_u64() + b)
        }),
        "second partition play never fired: {:?}",
        report.safety_violations
    );
}

/// The same re-arm regression for [`ReorgAttacker`]: its blackout prefix
/// (and thus the vote-expiry setup the attack depends on) must replay in
/// every window.
#[test]
fn reorg_blackout_rearms_on_second_window() {
    let n = 10;
    let b = 2u64;
    let (w1, w2) = (Round::new(10), Round::new(24));
    let timeline = Timeline::synchronous()
        .asynchronous(w1, b + 2)
        .asynchronous(w2, b + 2);
    let report = SimBuilder::from_config(
        SimConfig::new(params(n, 0), 5)
            .horizon(36)
            .timeline(timeline),
    )
    .schedule(Schedule::full(n, 36).with_static_byzantine(3))
    .adversary(ReorgAttacker::with_blackout(b))
    .run();
    // Sanity: the reorg lands (vanilla MMR, f = 3 ≥ 3).
    assert!(!report.resilience_violations.is_empty());
    // Window 2's first `b` rounds are a real blackout again: nothing is
    // delivered to honest receivers until the prefix elapses.
    for r in w2.as_u64()..w2.as_u64() + b {
        assert_eq!(
            report
                .timeline
                .at(Round::new(r))
                .unwrap()
                .messages_delivered,
            0,
            "second blackout did not re-arm (round {r} delivered messages)"
        );
    }
    assert!(
        report
            .timeline
            .at(Round::new(w2.as_u64() + b))
            .unwrap()
            .messages_delivered
            > 0,
        "reorg delivery never resumed in window 2"
    );
}

/// Determinism extends to adversarial runs: same seed, same attack, same
/// violations.
#[test]
fn adversarial_runs_are_deterministic() {
    let run = || {
        SimBuilder::from_config(
            SimConfig::new(params(10, 0), 77)
                .horizon(26)
                .timeline(Timeline::synchronous().asynchronous(Round::new(10), 4)),
        )
        .schedule(Schedule::full(10, 26))
        .adversary(PartitionAttacker::new())
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.safety_violations.len(), b.safety_violations.len());
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.final_decided_height, b.final_decided_height);
}

fn adversary_named(index: usize) -> Box<dyn Adversary> {
    match index {
        0 => Box::new(SilentAdversary),
        1 => Box::new(BlackoutAdversary),
        2 => Box::new(PartitionAttacker::new()),
        3 => Box::new(ReorgAttacker::new()),
        4 => Box::new(EquivocatingVoter::new()),
        5 => Box::new(JunkVoter::new()),
        _ => Box::new(WithholdingLeader::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Randomized soak over in-model configurations: n 4–19, η 2–7, an
    /// asynchronous window with π < η in three runs of five, a Byzantine
    /// count within 0.8·n/3, optional 1 % per-round churn, and any of the
    /// seven adversaries. `D_ra` is never reverted, no post-window
    /// decisions conflict, agreement holds outright (in-window orphaning
    /// needs eclipse choreography none of these strategies performs), and
    /// a silent synchronous run makes progress.
    #[test]
    fn in_model_configurations_uphold_every_invariant(
        n in 4usize..20,
        eta in 2u64..8,
        window in (0u8..5, any::<u64>()),
        byz_pick in any::<u64>(),
        adversary in 0usize..7,
        churn in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = (window.0 < 3).then(|| 1 + window.1 % (eta - 1));
        let byz = (byz_pick % ((n as f64 / 3.0 * 0.8).floor() as u64 + 1)) as usize;
        let horizon = 40 + 2 * pi.unwrap_or(0);
        let params = Params::builder(n).expiration(eta).churn_rate(0.1).build().unwrap();
        let schedule = if churn {
            Schedule::random_churn(
                n,
                horizon,
                0.01,
                seed,
                &ChurnOptions {
                    min_awake_frac: 0.75,
                    wake_prob: 0.5,
                    max_dropped_frac: 1.0,
                    ..Default::default()
                },
            )
        } else {
            Schedule::full(n, horizon)
        }
        .with_static_byzantine(byz);
        let mut config = SimConfig::new(params, seed).horizon(horizon);
        if let Some(pi) = pi {
            config = config.timeline(Timeline::synchronous().asynchronous(Round::new(14), pi));
        }
        let report = SimBuilder::from_config(config)
            .workload_spec(WorkloadSpec::txs_every(5))
            .schedule(schedule)
            .adversary_boxed(adversary_named(adversary))
            .run();
        prop_assert!(report.resilience_violations.is_empty(), "D_ra reverted");
        prop_assert!(report.post_window_violations().is_empty(), "post-window conflict");
        prop_assert!(report.is_safe(), "agreement broken");
        if adversary == 0 && pi.is_none() {
            prop_assert!(
                report.final_decided_height >= 10,
                "stalled at {}",
                report.final_decided_height
            );
        }
    }
}
