//! Choosing η, γ and δ for a deployment.
//!
//! ```sh
//! cargo run --example parameter_tuning
//! ```
//!
//! The paper's mechanism is a dial: a larger expiration period η tolerates
//! longer asynchronous periods (Theorem 2: any π < η) but demands a lower
//! churn rate γ and a stricter failure ratio β̃ (Section 2.3, Figure 1).
//! This example walks the trade-off for a concrete deployment question:
//!
//! > "Our network normally delivers in 100 ms, but we see ~6-second
//! > connectivity blips a few times a week. How should we configure the
//! > protocol?"
//!
//! and validates the chosen configuration by simulation, checking the
//! model conditions (Equations 1–5) hold for the schedule we expect.

use sleepy_tob::prelude::*;
use sleepy_tob::sim::ChurnOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24;
    let delay_ms: f64 = 100.0; // observed network delay d
    let blip_ms: f64 = 6_000.0; // worst asynchronous period to survive

    // Round duration is Δ = 3δ with δ = d (don't pad δ — that is the whole
    // point of the paper). The blip spans π rounds; pick η = π + 1.
    let round_ms = 3.0 * delay_ms;
    let pi = (blip_ms / round_ms).ceil() as u64;
    let eta = pi + 1;
    println!("δ = {delay_ms} ms  →  rounds of {round_ms} ms");
    println!("blip of {blip_ms} ms  →  π = {pi} rounds  →  choose η = {eta}");

    // What does η cost? The churn/failure trade-off of Figure 1.
    println!("\nγ (churn/η)   β̃ (max failure ratio)   max f of n={n}");
    for gamma in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let bt = adjusted_failure_ratio(1.0 / 3.0, gamma);
        let max_f = ((bt * n as f64).ceil() as usize).saturating_sub(1);
        println!("{gamma:<13.2} {bt:<23.3} {max_f}");
    }

    // Suppose we budget γ = 0.10: validate the full configuration.
    // π is the environment's, not a protocol knob: it lives in the
    // `Timeline` below, and Theorem 2 asks π < η of it.
    let params = Params::builder(n)
        .expiration(eta)
        .churn_rate(0.10)
        .build()?;
    assert!(pi < eta);
    println!(
        "\nchosen: n = {n}, η = {eta}, π = {pi}, γ = 0.10 → β̃ = {:.3}",
        params.adjusted_failure_ratio()
    );

    // Check the model conditions for the participation we expect
    // (light random churn), then simulate the actual blip.
    let horizon = 120;
    let schedule = Schedule::random_churn(
        n,
        horizon,
        0.005,
        7,
        &ChurnOptions {
            min_awake_frac: 0.6,
            wake_prob: 0.4,
            ..Default::default()
        },
    );
    let timeline = Timeline::synchronous().asynchronous(Round::new(40), pi);
    let conditions = check_conditions(&schedule, 1.0 / 3.0, 0.10, eta, timeline.windows().first());
    println!(
        "model conditions: churn ok = {}, η-sleepiness ok = {}, Eq.4/5 ok = {}",
        conditions.churn_violations.is_empty(),
        conditions.eta_sleepiness_violations.is_empty(),
        conditions.eq4_violations.is_empty() && conditions.eq5_holds,
    );

    let report = SimBuilder::from_config(
        SimConfig::new(params, 7)
            .horizon(horizon)
            .timeline(timeline),
    )
    .workload_spec(WorkloadSpec::txs_every(4))
    .schedule(schedule)
    .adversary(BlackoutAdversary) // worst blip: nothing is delivered
    .run();
    println!(
        "simulated blip: safe = {}, resilient = {}, healed after {} rounds, \
         tx inclusion {:.0}%",
        report.is_safe(),
        report.is_asynchrony_resilient(),
        report
            .max_recovery_rounds()
            .map_or("—".into(), |l| l.to_string()),
        report.tx_inclusion_rate() * 100.0,
    );

    // The alternative the paper argues against: δ = 6 s. Same safety, but
    // every round is 18 s instead of 0.3 s — a 60× latency penalty paid
    // permanently, not just during blips.
    println!(
        "\nthe conservative alternative (δ = {blip_ms} ms) would make every round \
         {} ms — {}× slower in the common case.",
        3.0 * blip_ms,
        (blip_ms / delay_ms) as u64,
    );
    Ok(())
}
