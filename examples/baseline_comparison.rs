//! Head-to-head: the sleepy protocol vs the fixed-quorum BFT baseline,
//! built entirely from the facade prelude.
//!
//! The baseline is the same protocol with one value changed: it grades
//! support against all `n` processes ([`Participation::Fixed`]) instead
//! of the perceived participation. Both sides run one [`Sweep`] (same
//! cells, same per-cell seeds) under the same mass-sleep schedule, so
//! every difference in the report columns is that denominator's doing.
//! The sleepy protocol keeps deciding through the dip; the static
//! `> 2n/3`-of-all-`n` quorum stalls until the sleepers return.
//!
//! Run with `cargo run --release --example baseline_comparison`.

use sleepy_tob::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12;
    let horizon = 50;
    // 16 of the 50 rounds have 58% of the processes asleep — the
    // May-2023 Ethereum incident, shrunk.
    let dip = (14u64, 30u64);

    // One cell per seed: the comparison is deterministic per cell, and
    // the three cells show it is not a seed artifact.
    let sweep = Sweep::over(vec![0u64, 1, 2]).seed(42);
    let side = |eta, participation| {
        sweep.run_reports(|_, seed| {
            let params = Params::builder(n)
                .expiration(eta)
                .participation(participation)
                .build()
                .expect("valid");
            SimBuilder::from_config(SimConfig::new(params, seed).horizon(horizon))
                .workload_spec(WorkloadSpec::txs_every(4))
                .schedule(Schedule::mass_sleep(n, horizon, 0.58, dip.0, dip.1))
                .build()
                .expect("valid cell")
        })
    };
    let sleepy = side(4, Participation::Perceived);
    let quorum = side(0, Participation::Fixed);

    println!("{:<4} {:>24} {:>24}", "cell", "sleepy", "fixed quorum");
    let in_dip = |r: &SimReport| -> usize {
        r.timeline
            .samples()
            .iter()
            .filter(|s| (dip.0..=dip.1).contains(&s.round))
            .map(|s| s.decisions)
            .sum()
    };
    for (i, (sleepy, quorum)) in sleepy.reports.iter().zip(&quorum.reports).enumerate() {
        println!(
            "{i:<4} {:>14} in-dip dec {:>14} in-dip dec",
            in_dip(sleepy),
            in_dip(quorum)
        );
        assert!(sleepy.is_safe() && quorum.is_safe());
        assert!(in_dip(sleepy) > 0, "sleepy protocol stalled in the dip");
        assert_eq!(in_dip(quorum), 0, "quorum baseline decided in the dip");
        let advantage = sleepy.decisions_total as i64 - quorum.decisions_total as i64;
        println!("     decision advantage (sleepy − quorum): {advantage}");
        assert!(advantage > 0);
    }

    // Under full participation the denominator makes no difference: all
    // n processes vote, so m = n. View v decides in round 2v − 1.
    let fixed = Params::builder(n)
        .participation(Participation::Fixed)
        .build()?;
    let (tap, log) = DecisionTap::new(n);
    SimBuilder::from_config(SimConfig::new(fixed, 7).horizon(20))
        .observer(tap)
        .run();
    let decided_views: Vec<u64> = log.borrow()[0].iter().map(|d| d.view.as_u64()).collect();
    println!("\nquorum baseline under full participation decided views {decided_views:?}");
    assert_eq!(decided_views, (2..=10).collect::<Vec<u64>>());
    println!("\nSame simulator, same seeds, one denominator — that is the whole diff.");
    Ok(())
}
