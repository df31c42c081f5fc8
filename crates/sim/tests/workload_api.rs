//! Integration tests for the open-loop workload layer (st-load threaded
//! through the simulator): saturation behaviour, fairness drops, the
//! diurnal workload↔schedule coupling, the latency pipeline's
//! end-to-end accounting in [`st_sim::SimReport`], and the open-loop
//! scenario grid (EXPERIMENTS.md W1).

use st_sim::adversary::SilentAdversary;
use st_sim::{
    diurnal_schedule, ConstantRate, Diurnal, FlashCrowd, Schedule, SimBuilder, SimConfig,
    SimReport, Timeline, Workload, WorkloadSpec,
};
use st_types::{Params, Round};

fn params(n: usize) -> Params {
    Params::builder(n)
        .expiration(2)
        .churn_rate(0.05)
        .build()
        .expect("valid params")
}

/// An under-provisioned service rate piles up a backlog: offered load 6/round
/// against a batch of 2 leaves the mempool saturated, the capacity cap
/// dropping arrivals, and tail latency far above the uncongested base.
#[test]
fn saturation_knee_shows_in_backlog_drops_and_latency() {
    let horizon = 40;
    let congested = SimBuilder::from_config(SimConfig::new(params(6), 7).horizon(horizon))
        .workload_spec(
            WorkloadSpec::new(ConstantRate::per_round(6))
                .capacity(16)
                .batch(2),
        )
        .schedule(Schedule::full(6, horizon))
        .run();

    let w = &congested.workload;
    assert_eq!(w.generator, "constant-rate");
    assert_eq!(w.offered, 6 * horizon, "open loop: arrivals ignore service");
    assert!(
        w.dropped_capacity > 0,
        "offered 6/round vs batch 2 must overflow capacity 16: {w:?}"
    );
    assert_eq!(w.mempool_high_water, 16, "queue pinned at capacity");
    assert!(w.drop_rate > 0.0 && w.drop_rate < 1.0);
    assert_eq!(
        w.offered,
        w.admitted + w.dropped_capacity + w.dropped_fairness + w.dropped_asleep,
        "admission accounting must balance"
    );
    assert_eq!(w.admitted, w.submitted + w.backlog);

    // The same offered load with ample service shows no congestion…
    let uncongested = SimBuilder::from_config(SimConfig::new(params(6), 7).horizon(horizon))
        .workload_spec(
            WorkloadSpec::new(ConstantRate::per_round(6))
                .capacity(1024)
                .batch(16),
        )
        .schedule(Schedule::full(6, horizon))
        .run();
    assert_eq!(uncongested.workload.dropped_capacity, 0);
    // …and a strictly lower p99: queueing delay is the knee.
    let congested_p99 = w.latency_p99.expect("congested run decided txs");
    let uncongested_p99 = uncongested
        .workload
        .latency_p99
        .expect("uncongested run decided txs");
    assert!(
        congested_p99 > uncongested_p99,
        "queueing must show in the tail: congested p99 {congested_p99} \
         vs uncongested {uncongested_p99}"
    );
}

/// A client flooding past its fair share is clipped by the fairness cap
/// while the queue still has room for the others.
#[test]
fn fairness_cap_clips_a_flooding_client() {
    // 4 clients share capacity 8 → fairness cap 2 each. A flash burst
    // pushes bursts of arrivals (round-robin across clients) far past
    // both caps; fairness drops must appear alongside capacity drops.
    let horizon = 30;
    let burst = FlashCrowd::new(1).clients(4).burst(5, 10, 12).jitter(5);
    let report = SimBuilder::from_config(SimConfig::new(params(5), 11).horizon(horizon))
        .workload_spec(WorkloadSpec::new(burst).capacity(8).batch(1))
        .schedule(Schedule::full(5, horizon))
        .run();

    let w = &report.workload;
    assert_eq!(w.generator, "flash-crowd");
    assert_eq!(w.clients, 4);
    assert!(
        w.dropped_fairness > 0,
        "burst arrivals past the per-client cap must be clipped: {w:?}"
    );
    assert_eq!(
        w.offered,
        w.admitted + w.dropped_capacity + w.dropped_fairness + w.dropped_asleep
    );
}

/// The diurnal coupling: participation and offered load derived from the
/// same trace. Held-over queue-rounds appear only when the schedule has
/// proposer-less rounds — which `diurnal_schedule` never produces (at
/// least one process stays awake), so latency stays finite through the
/// trough while throughput tracks the awake fraction.
#[test]
fn diurnal_workload_couples_to_its_derived_schedule() {
    let horizon = 48;
    let n = 8;
    let workload = Diurnal::new(4, 0.25, 12);
    let schedule = diurnal_schedule(&workload, n, horizon);
    let report = SimBuilder::from_config(SimConfig::new(params(n), 23).horizon(horizon))
        .workload_spec(WorkloadSpec::new(workload))
        .schedule(schedule)
        .run();

    let w = &report.workload;
    assert_eq!(w.generator, "diurnal");
    assert!(w.offered > 0, "diurnal trace offers load at peaks");
    assert!(w.decided > 0, "peak-round txs must decide: {w:?}");
    assert!(w.latency_p50.is_some() && w.latency_p99.is_some());
    assert_eq!(
        w.held_over, 0,
        "derived schedule always keeps a proposer awake"
    );
    assert!(
        report.safety_violations.is_empty(),
        "diurnal churn must not break safety"
    );
}

/// The tx ledger populates `decided_round` and the latency join is exact:
/// every decided record's latency equals `decided_round - submitted`, and
/// the report percentiles match a recomputation from the records.
#[test]
fn decided_round_and_percentiles_join_exactly() {
    let horizon = 32;
    let report = SimBuilder::from_config(SimConfig::new(params(6), 41).horizon(horizon))
        .workload_spec(WorkloadSpec::new(ConstantRate::per_round(2)).batch(4))
        .schedule(Schedule::full(6, horizon))
        .run();

    let mut latencies: Vec<u64> = report
        .txs
        .iter()
        .filter_map(|rec| rec.decide_latency())
        .collect();
    assert!(!latencies.is_empty(), "full schedule must decide txs");
    assert_eq!(report.workload.decided, latencies.len() as u64);
    for rec in &report.txs {
        if let Some(decided) = rec.decided_round {
            assert!(
                decided >= rec.submitted.as_u64(),
                "decision cannot precede submission"
            );
        }
    }
    latencies.sort_unstable();
    let rank = |p: f64| {
        let n = latencies.len();
        let r = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        latencies[r - 1]
    };
    assert_eq!(report.workload.latency_p50, Some(rank(50.0)));
    assert_eq!(report.workload.latency_p90, Some(rank(90.0)));
    assert_eq!(report.workload.latency_p99, Some(rank(99.0)));
    let sum: u64 = latencies.iter().sum();
    let mean = sum as f64 / latencies.len() as f64;
    assert!((report.workload.latency_mean.unwrap() - mean).abs() < 1e-9);
    // Throughput is decided per executed round.
    let expect = latencies.len() as f64 / (report.rounds_run + 1) as f64;
    assert!((report.workload.throughput - expect).abs() < 1e-12);
}

/// Runs without a configured workload leave the summary at its zero
/// default — no phantom accounting.
#[test]
fn no_workload_leaves_summary_empty() {
    let horizon = 12;
    let report = SimBuilder::from_config(SimConfig::new(params(5), 3).horizon(horizon))
        .schedule(Schedule::full(5, horizon))
        .run();
    let w = &report.workload;
    assert!(w.generator.is_empty());
    assert_eq!(w.offered, 0);
    assert_eq!(w.decided, 0);
    assert!(w.latency_p50.is_none());
    assert!(report.txs.is_empty());
}

/// The trait-object surface works end to end: a boxed generator behind
/// `dyn Workload` drives the same pipeline (exercises the `Workload`
/// object-safety the spec relies on).
#[test]
fn workload_trait_objects_drive_the_pipeline() {
    let boxed: Box<dyn Workload> = Box::new(ConstantRate::every(3));
    assert_eq!(boxed.name(), "constant-rate");
    assert_eq!(boxed.arrivals(6, 0), 1);
    assert_eq!(boxed.arrivals(7, 0), 0);
    let horizon = 18;
    let report = SimBuilder::from_config(SimConfig::new(params(4), 9).horizon(horizon))
        .workload_spec(WorkloadSpec::new(ConstantRate::every(3)))
        .schedule(Schedule::full(4, horizon))
        .run();
    assert_eq!(report.workload.offered, horizon / 3);
    assert_eq!(report.workload.submitted, horizon / 3);
}

const GRID_N: usize = 16;
const GRID_HORIZON: u64 = 60;

/// One cell of the open-loop grid: `rate` offered per round (the peak
/// rate for diurnal) by 4 clients, into a mempool of capacity 64 drained
/// 4 per round. Returns the report and, for diurnal, its trace.
fn grid_cell(scenario: &str, rate: u64) -> (SimReport, Option<Diurnal>) {
    let params = Params::builder(GRID_N).expiration(2).build();
    let mut config = SimConfig::new(params.expect("valid params"), 0xC0FFEE).horizon(GRID_HORIZON);
    let mut schedule = Schedule::full(GRID_N, GRID_HORIZON);
    let mut trace = None;
    let spec = match scenario {
        "steady" => WorkloadSpec::new(ConstantRate::per_round(rate).clients(4)),
        "flash-crowd" => WorkloadSpec::new(
            FlashCrowd::new(rate)
                .clients(4)
                .burst(20, 12, rate * 8)
                .jitter(0xC0FFEE),
        ),
        "diurnal-churn" => {
            // Participation derived from the same trace as the load.
            let workload = Diurnal::new(rate, 0.25, 20).clients(4);
            schedule = diurnal_schedule(&workload, GRID_N, GRID_HORIZON);
            trace = Some(workload.clone());
            WorkloadSpec::new(workload)
        }
        "gst-d2" => {
            config = config.timeline(Timeline::synchronous().bounded_delay(Round::new(20), 20, 2));
            WorkloadSpec::new(ConstantRate::per_round(rate).clients(4))
        }
        other => panic!("unknown scenario {other}"),
    };
    let report = SimBuilder::from_config(config)
        .workload_spec(spec.capacity(64).batch(4))
        .schedule(schedule)
        .adversary(SilentAdversary)
        .run();
    (report, trace)
}

/// Mean decide latency of the transactions that arrived while the
/// diurnal load fraction was at or above (`peak`) or below its midpoint.
fn phase_mean(report: &SimReport, trace: &Diurnal, peak: bool) -> f64 {
    let mid = (0.25 + 1.0) / 2.0;
    let lats: Vec<u64> = report
        .txs
        .iter()
        .filter(|rec| (trace.load_fraction(rec.submitted.as_u64()) >= mid) == peak)
        .filter_map(|rec| rec.decide_latency())
        .collect();
    assert!(!lats.is_empty(), "no decided txs in this half of the trace");
    lats.iter().sum::<u64>() as f64 / lats.len() as f64
}

/// The open-loop grid, four scenarios × offered rate {1, 16} against a
/// service rate of 4 per round: every cell is safe, decides and balances
/// its admission accounting. The tail shows the saturation knee (steady
/// p99 at rate 16 above rate 1), partial synchrony (gst-d2 p99 above
/// steady at rate 1), and latency tracking participation (diurnal
/// trough-half mean above peak-half mean at rate 16).
#[test]
fn open_loop_grid_is_healthy_and_shows_the_knee() {
    let mut p99 = std::collections::BTreeMap::new();
    for scenario in ["steady", "flash-crowd", "diurnal-churn", "gst-d2"] {
        for rate in [1, 16] {
            let (report, trace) = grid_cell(scenario, rate);
            let w = &report.workload;
            let cell = format!("{scenario} rate {rate}");
            assert!(report.is_safe(), "{cell}: {:?}", report.safety_violations);
            assert!(w.decided > 0, "{cell} decided no txs");
            assert_eq!(
                w.offered,
                w.admitted + w.dropped_capacity + w.dropped_fairness + w.dropped_asleep,
                "{cell}: admission accounting must balance"
            );
            p99.insert((scenario, rate), w.latency_p99.expect("decided txs"));
            if let (Some(trace), 16) = (trace, rate) {
                let peak = phase_mean(&report, &trace, true);
                let trough = phase_mean(&report, &trace, false);
                assert!(
                    trough > peak,
                    "{cell}: trough-half mean {trough} vs peak {peak}"
                );
            }
        }
    }
    let p99 = |scenario, rate| p99[&(scenario, rate)];
    assert!(p99("steady", 16) > p99("steady", 1), "no saturation knee");
    assert!(
        p99("gst-d2", 1) > p99("steady", 1),
        "bounded delay left the tail alone"
    );
    assert_eq!(
        (p99("steady", 1), p99("steady", 16), p99("gst-d2", 1)),
        (5, 20, 25)
    );
}
