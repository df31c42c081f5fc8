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
//!    It is the same protocol with one value changed: support is graded
//!    against all `n` processes ([`Participation::Fixed`]) instead of the
//!    perceived participation.
//!
//! The run asserts what it prints: both sleepy variants stay safe and
//! keep deciding, and the baseline's longest stall covers the outage.

use sleepy_tob::prelude::*;
use sleepy_tob::types::ParamsBuilder;
use std::collections::BTreeSet;

const N: usize = 20;
const HORIZON: u64 = 80;
const OUTAGE_START: u64 = 20;
const OUTAGE_END: u64 = 60;
/// The views whose decision reads outage votes: view `v` grades the votes
/// of round `2v − 2`.
const OUTAGE_VIEWS: std::ops::RangeInclusive<u64> = OUTAGE_START / 2 + 1..=OUTAGE_END / 2 + 1;

fn run(params: ParamsBuilder, schedule: &Schedule) -> (SimReport, BTreeSet<u64>) {
    let params = params.build().expect("valid parameters");
    let (tap, log) = DecisionTap::new(N);
    let report = SimBuilder::from_config(SimConfig::new(params, 0xE7B).horizon(HORIZON))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule.clone())
        .adversary(SilentAdversary)
        .observer(tap)
        .run();
    let decided = log
        .borrow()
        .iter()
        .flatten()
        .map(|d| d.view.as_u64())
        .collect();
    (report, decided)
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
        let (report, decided) = run(Params::builder(N).expiration(eta), &schedule);
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
        assert!(report.is_safe(), "{label}: agreement violated");
        assert!(
            decided.iter().any(|v| OUTAGE_VIEWS.contains(v)),
            "{label}: no decision during the outage"
        );
    }

    // The classic fixed-quorum comparator: decisions need > 2n/3 votes of
    // the *total* membership, so a 60% outage freezes it.
    let (report, decided) = run(
        Params::builder(N).participation(Participation::Fixed),
        &schedule,
    );
    let stall = longest_stall(&decided);
    println!("static-quorum BFT (fixed 2n/3):");
    println!("  decided views       : {}", decided.len());
    println!("  longest stall       : {stall} consecutive views (the whole outage)");
    assert!(report.is_safe(), "the quorum baseline violated agreement");
    assert!(
        stall >= OUTAGE_VIEWS.count() as u64,
        "the quorum baseline stalled only {stall} views"
    );

    println!(
        "\nThe sleepy protocol's thresholds are relative to *perceived* participation,\n\
         so the 8 surviving processes keep reaching 2/3 of each other and the chain\n\
         grows through the outage — dynamic availability, the property the paper's\n\
         expiration mechanism is careful to preserve."
    );
}
