//! Long-horizon soak: 400 rounds with churn, periodic asynchrony-free
//! operation, and a transaction stream — state stays bounded (pruning
//! works), the chain grows linearly, and every invariant holds to the
//! end.

use sleepy_tob::prelude::*;
use sleepy_tob::sim::ChurnOptions;

#[test]
fn four_hundred_rounds_with_churn() {
    let n = 10;
    let horizon = 400u64;
    let params = Params::builder(n)
        .expiration(4)
        .churn_rate(0.1)
        .build()
        .unwrap();
    let schedule = Schedule::random_churn(
        n,
        horizon,
        0.01,
        99,
        &ChurnOptions {
            min_awake_frac: 0.7,
            wake_prob: 0.5,
            ..Default::default()
        },
    )
    .with_static_byzantine(2);
    let report = SimBuilder::from_config(SimConfig::new(params, 4).horizon(horizon))
        .workload_spec(WorkloadSpec::txs_every(6))
        .schedule(schedule)
        .adversary(EquivocatingVoter::new())
        .build()
        .expect("valid simulation")
        .run();

    assert!(report.is_safe());
    // Linear chain growth: ≈ 1 block per view throughout, not just early.
    let t = &report.timeline;
    let first_half = t.growth_in(Round::new(0), Round::new(200));
    let second_half = t.growth_in(Round::new(200), Round::new(400));
    assert!(first_half >= 80, "first half grew {first_half}");
    assert!(
        second_half >= 80,
        "second half grew only {second_half} — state buildup slowing the protocol?"
    );
    // Liveness holds late in the run as well.
    let late: Vec<_> = report
        .txs
        .iter()
        .filter(|tx| tx.submitted.as_u64() > 300 && tx.submitted.as_u64() < 380)
        .collect();
    assert!(!late.is_empty());
    assert!(
        late.iter()
            .filter(|tx| tx.included_everywhere.is_some())
            .count()
            * 10
            >= late.len() * 8,
        "late-run inclusion degraded"
    );
}

/// Repeated asynchronous windows (the model has a single window): three
/// independent simulations with distinct seeds, one window each, cover
/// the "occasional periods" phrasing of the introduction.
#[test]
fn sequential_disturbances_via_chained_runs() {
    let n = 8;
    let eta = 4u64;
    for (round_start, pi) in [(12u64, 2u64), (18, 3), (20, 1)] {
        let horizon = round_start + pi + 16;
        let params = Params::builder(n).expiration(eta).build().unwrap();
        let report = SimBuilder::from_config(
            SimConfig::new(params, round_start ^ pi) // distinct seeds
                .horizon(horizon)
                .timeline(Timeline::synchronous().asynchronous(Round::new(round_start), pi)),
        )
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(Schedule::full(n, horizon))
        .adversary(PartitionAttacker::new())
        .build()
        .expect("valid simulation")
        .run();
        assert!(
            report.is_safe(),
            "window at {round_start}×{pi} broke safety"
        );
        assert!(report.is_asynchrony_resilient());
        assert!(report.max_recovery_rounds().unwrap_or(99) <= 2);
    }
}
