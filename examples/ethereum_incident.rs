//! The May-2023 Ethereum incident, replayed.
//!
//! ```sh
//! cargo run --example ethereum_incident
//! ```
//!
//! The paper's introduction motivates dynamic availability with a real
//! event: ~60% of Ethereum's consensus clients crashed for ~25 minutes,
//! and the dynamically available chain kept growing. This example replays
//! the incident at simulation scale against three systems:
//!
//! 1. the sleepy total-order broadcast (this repository's protocol),
//! 2. the same protocol with message expiration (η = 4) — showing the
//!    asynchrony-resilient variant keeps dynamic availability,
//! 3. a classic static-quorum BFT protocol, which stalls for the whole
//!    outage because its quorum is counted against the fixed membership.

use sleepy_tob::prelude::*;
use std::collections::BTreeSet;

const N: usize = 20;
const HORIZON: u64 = 80;
const OUTAGE_START: u64 = 20;
const OUTAGE_END: u64 = 60;

fn run_sleepy(eta: u64, schedule: &Schedule) -> SimReport {
    let params = Params::builder(N)
        .expiration(eta)
        .churn_rate(0.0)
        .build()
        .expect("valid parameters");
    SimBuilder::from_config(SimConfig::new(params, 0xE7B).horizon(HORIZON))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule.clone())
        .adversary(SilentAdversary)
        .build()
        .expect("valid simulation")
        .run()
}

/// The views some process decided in a fixed-quorum run of `schedule`.
fn quorum_decided_views(schedule: &Schedule) -> BTreeSet<u64> {
    let params = Params::builder(N).build().expect("valid parameters");
    let (tap, log) = DecisionTap::new(N);
    SimBuilder::<QuorumProcess>::for_protocol_config(
        SimConfig::new(params, 0xE7B).horizon(HORIZON),
    )
    .schedule(schedule.clone())
    .observer(tap)
    .run();
    let log = log.borrow();
    log.iter().flatten().map(|d| d.view.as_u64()).collect()
}

/// The longest run of consecutive undecided views up to the last one
/// decided.
fn longest_stall(decided: &BTreeSet<u64>) -> u64 {
    let views: Vec<u64> = std::iter::once(0).chain(decided.iter().copied()).collect();
    views.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0)
}

fn main() {
    // 60% of the processes go dark for rounds 20..=60.
    let schedule = Schedule::mass_sleep(N, HORIZON, 0.6, OUTAGE_START, OUTAGE_END);
    println!(
        "incident: {} of {} processes offline during rounds {}..={}\n",
        (N as f64 * 0.6) as usize,
        N,
        OUTAGE_START,
        OUTAGE_END
    );

    for (label, eta) in [
        ("sleepy TOB (vanilla, η=0)", 0u64),
        ("sleepy TOB (extended, η=4)", 4),
    ] {
        let report = run_sleepy(eta, &schedule);
        println!("{label}:");
        println!("  chain height at end : {}", report.final_decided_height);
        println!("  agreement violations: {}", report.safety_violations.len());
        println!(
            "  tx inclusion        : {:.0}%  (mean latency {} rounds)",
            report.tx_inclusion_rate() * 100.0,
            report
                .mean_tx_latency()
                .map_or("—".into(), |l| format!("{l:.1}")),
        );
    }

    // The classic fixed-quorum comparator: decisions need > 2n/3 votes of
    // the *total* membership, so a 60% outage freezes it.
    let decided = quorum_decided_views(&schedule);
    println!("static-quorum BFT (fixed 2n/3):");
    println!("  decided views       : {}", decided.len());
    println!(
        "  longest stall       : {} consecutive views (the whole outage)",
        longest_stall(&decided)
    );

    println!(
        "\nThe sleepy protocol's thresholds are relative to *perceived* participation,\n\
         so the 8 surviving processes keep reaching 2/3 of each other and the chain\n\
         grows through the outage — dynamic availability, the property the paper's\n\
         expiration mechanism is careful to preserve."
    );
}
