//! Head-to-head: the sleepy protocol vs the fixed-quorum BFT baseline,
//! built entirely from the facade prelude.
//!
//! The paper's comparative pitch in ~60 lines: both protocols run under
//! the *same* mass-sleep schedule, the same seeds and the same
//! simulator ([`Sweep::compare`] pins cell lists and per-cell seeds to
//! be identical on both sides), so every difference in the report
//! columns is the protocol's doing. The sleepy protocol keeps deciding
//! through the dip; the static `> 2n/3`-of-all-`n` quorum stalls until
//! the sleepers return.
//!
//! Run with `cargo run --release --example baseline_comparison`.

use sleepy_tob::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12;
    let horizon = 50;
    // 16 of the 50 rounds have 58% of the processes asleep — the
    // May-2023 Ethereum incident, shrunk.
    let dip = (14u64, 30u64);
    let schedule = || Schedule::mass_sleep(n, horizon, 0.58, dip.0, dip.1);

    // One cell per seed: the comparison is deterministic per cell, and
    // the three cells show it is not a seed artifact.
    let duel: SweepComparison = Sweep::over(vec![0u64, 1, 2]).seed(42).compare(
        |_, seed| {
            let params = Params::builder(n).expiration(4).build().expect("valid");
            SimBuilder::from_config(SimConfig::new(params, seed).horizon(horizon))
                .workload_spec(WorkloadSpec::txs_every(4))
                .schedule(schedule())
                .build()
                .expect("valid sleepy cell")
        },
        |_, seed| {
            let params = Params::builder(n).build().expect("valid");
            SimBuilder::<QuorumProcess>::for_protocol_config(
                SimConfig::new(params, seed).horizon(horizon),
            )
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule())
            .build()
            .expect("valid quorum cell")
        },
    );

    println!(
        "{:<4} {:>24} {:>24}",
        "cell", duel.left_protocol, duel.right_protocol
    );
    let in_dip = |r: &SimReport| -> usize {
        r.timeline
            .samples()
            .iter()
            .filter(|s| (dip.0..=dip.1).contains(&s.round))
            .map(|s| s.decisions)
            .sum()
    };
    for (i, (sleepy, quorum)) in duel.pairs().enumerate() {
        println!(
            "{i:<4} {:>14} in-dip dec {:>14} in-dip dec",
            in_dip(sleepy),
            in_dip(quorum)
        );
        assert!(sleepy.is_safe() && quorum.is_safe());
        assert!(in_dip(sleepy) > 0, "sleepy protocol stalled in the dip");
        assert_eq!(in_dip(quorum), 0, "quorum baseline decided in the dip");
    }
    let advantage = duel.decision_advantage();
    println!("\nper-cell decision advantage (sleepy − quorum): {advantage:?}");
    assert!(advantage.iter().all(|&d| d > 0));

    // The generic protocol surface is ordinary library code: any
    // `Protocol` implementor's decisions reach the same observers, and a
    // `DecisionTap` keeps them past the run.
    let params = Params::builder(n).build()?;
    let (tap, log) = DecisionTap::new(n);
    SimBuilder::<QuorumProcess>::for_protocol_config(SimConfig::new(params, 7).horizon(20))
        .observer(tap)
        .run();
    let decided_views: Vec<u64> = log.borrow()[0].iter().map(|d| d.view.as_u64()).collect();
    println!("quorum baseline under full participation decided views {decided_views:?}");
    assert_eq!(decided_views, (1..=9).collect::<Vec<u64>>());
    println!("\nSame simulator, same seeds, different protocol — that is the whole diff.");
    Ok(())
}
