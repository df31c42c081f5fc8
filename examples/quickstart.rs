//! Quickstart: run the asynchrony-resilient sleepy total-order broadcast
//! through a network partition and watch safety hold.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Ten processes run the extended MMR protocol with a message expiration
//! period of η = 4 rounds. At round 10 the network turns asynchronous for
//! π = 3 rounds, during which an adversary partitions delivery into two
//! halves (the paper's Section-1 split-vote scenario). Because π < η,
//! Theorem 2 guarantees no decision conflicts — and the run ends with a
//! single agreed chain carrying the submitted transactions.

use sleepy_tob::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Validated protocol parameters: n = 10 processes, failure ratio
    //    β = 1/3 (MMR), expiration η = 4 (tolerating asynchronous periods
    //    up to π = 3), churn bounded by γ = 5% per η rounds.
    let params = Params::builder(10).expiration(4).churn_rate(0.05).build()?;
    println!(
        "adjusted failure ratio β̃ = {:.3} (β = {:.3}, γ = {:.2})",
        params.adjusted_failure_ratio(),
        params.failure_ratio(),
        params.churn_rate(),
    );

    // 2. A 40-round run: full participation, a 3-round partition attack
    //    starting at round 10, one fresh transaction every 4 rounds.
    let horizon = 40;
    let config = SimConfig::new(params, 2024)
        .horizon(horizon)
        .timeline(Timeline::synchronous().asynchronous(Round::new(10), 3));
    let schedule = Schedule::full(10, horizon);
    let report = SimBuilder::from_config(config)
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule)
        .adversary(PartitionAttacker::new())
        .build()
        .expect("valid simulation")
        .run();

    // 3. Inspect the outcome.
    println!("\n--- outcome ---");
    println!("rounds executed      : {}", report.rounds_run + 1);
    println!("decision events      : {}", report.decisions_total);
    println!("final chain height   : {}", report.final_decided_height);
    println!("agreement violations : {}", report.safety_violations.len());
    println!(
        "D_ra conflicts       : {}",
        report.resilience_violations.len()
    );
    println!(
        "healing lag          : {} rounds after the window",
        report
            .max_recovery_rounds()
            .map_or("—".into(), |l| l.to_string()),
    );
    println!(
        "tx inclusion         : {:.0}% (mean latency {} rounds)",
        report.tx_inclusion_rate() * 100.0,
        report
            .mean_tx_latency()
            .map_or("—".into(), |l| format!("{l:.1}")),
    );

    assert!(report.is_safe(), "Theorem 2 violated?!");
    assert!(report.is_asynchrony_resilient());
    println!("\nSafety held through the partition — exactly what η > π buys.");
    Ok(())
}
