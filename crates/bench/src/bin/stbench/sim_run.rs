//! The timed pass of a simulated workload: set-up samples, one warm-up,
//! then repetitions for the requested time, every report gated.

use crate::outcome::{peak_rss_mb, Checks, Outcome};
use crate::spec::{SimInputs, SimSpec};
use crate::stats::{percentile, Summary};
use crate::trace::Trace;
use st_sim::{SimReport, Simulation};
use std::time::{Duration, Instant};

/// The set-up is a fraction of a millisecond, so one sample is the mean
/// over a batch of set-ups; the metric is the median of the batches.
const SETUP_SAMPLES: usize = 9;
const SETUP_BATCH: u32 = 20;

/// One execution of a simulation, timed from outside.
pub(crate) struct SimRep {
    /// Wall of the `step()` loop plus `finish()`.
    pub(crate) wall: Duration,
    /// Wall of each `Simulation::step()`, in milliseconds.
    pub(crate) round_ms: Vec<f64>,
    pub(crate) finish_ms: f64,
    /// Every process's decided tip just before `finish()`.
    pub(crate) tips: Vec<u64>,
    pub(crate) report: SimReport,
}

/// Runs a freshly built simulation to its horizon. With a trace, every
/// round is also recorded as a `sim.step` span under `parent`.
pub(crate) fn sim_rep(mut sim: Simulation, mut trace: Option<(&mut Trace, usize)>) -> SimRep {
    let mut round_ms = Vec::new();
    let start = Instant::now();
    loop {
        let span = trace
            .as_mut()
            .map(|(t, parent)| t.open("sim.step", round_ms.len() as u64, Some(*parent)));
        let t = Instant::now();
        let stepped = sim.step();
        let elapsed = t.elapsed();
        if let (Some((t, _)), Some(id)) = (trace.as_mut(), span) {
            t.close(id, u64::from(stepped.is_some()));
        }
        if stepped.is_none() {
            break;
        }
        round_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    let tips = sim
        .processes()
        .iter()
        .map(|p| p.decided_tip().as_u64())
        .collect();
    let t = Instant::now();
    let report = sim.finish();
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    SimRep {
        wall: start.elapsed(),
        round_ms,
        finish_ms,
        tips,
        report,
    }
}

/// FNV-1a of the report's JSON: equal digests ⇔ byte-identical reports
/// (the `stsan` convention).
pub(crate) fn report_digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).unwrap_or_default();
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The gates every simulation report must pass.
pub(crate) fn check_report(inputs: &SimInputs, report: &SimReport, checks: &mut Checks) {
    let w = &report.workload;
    checks.check(report.is_safe(), || {
        format!("{} safety violations", report.safety_violations.len())
    });
    if !inputs.timeline.is_fully_synchronous() {
        checks.check(report.is_asynchrony_resilient(), || {
            format!(
                "{} resilience violations",
                report.resilience_violations.len()
            )
        });
    }
    checks.check(report.rounds_run == inputs.horizon, || {
        format!("ran {} rounds of {}", report.rounds_run, inputs.horizon)
    });
    checks.check(w.decided > 0, || "no transaction decided".into());
    checks.check(
        w.offered == w.admitted + w.dropped_capacity + w.dropped_fairness + w.dropped_asleep
            && w.admitted == w.submitted + w.backlog
            && w.submitted == report.txs.len() as u64,
        || format!("mempool accounting does not balance: {w:?}"),
    );
}

/// Client-visible metrics of one report: submit→decide latency
/// percentiles (arrival round, so queueing counts) and the share of
/// offered transactions that were never decided.
pub(crate) fn client_metrics(report: &SimReport, out: &mut Outcome) {
    let latencies: Vec<f64> = report
        .txs
        .iter()
        .filter_map(|t| t.decide_latency())
        .map(|l| l as f64)
        .collect();
    out.push(
        "decide_latency_rounds_p50",
        Summary::percentile_of("rounds", &latencies, 50.0),
        false,
    );
    out.push(
        "decide_latency_rounds_p95",
        Summary::percentile_of("rounds", &latencies, 95.0),
        false,
    );
    let w = &report.workload;
    let failed = w.offered.saturating_sub(w.decided);
    println!(
        "  ops: {} offered, {} decided, {failed} failed",
        w.offered, w.decided
    );
    out.push(
        "ops_failed_share",
        Summary::once("ratio", failed as f64 / w.offered.max(1) as f64),
        false,
    );
}

/// Repeats `rep` until `seconds` of measuring have passed (stopping when
/// the next repetition would overshoot), but at least `min_reps` times.
pub(crate) fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        rep(reps);
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= min_reps && elapsed + elapsed / reps as f64 > seconds {
            return reps;
        }
    }
}

/// The timed pass: end-to-end metrics of one simulated workload.
pub(crate) fn timed(spec: &SimSpec, seed: u64, seconds: f64, min_reps: usize) -> Outcome {
    let mut out = Outcome::default();

    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(spec.inputs(seed).build());
            }
            (t.elapsed() / SETUP_BATCH).as_secs_f64()
        })
        .collect();

    let inputs = spec.inputs(seed);
    let warm = sim_rep(inputs.build(), None);
    check_report(&inputs, &warm.report, &mut out.checks);
    let digest = report_digest(&warm.report);

    // Each repetition yields one sample of each timing metric and the
    // metric is the median of those: a burst of interference that slows
    // one repetition then moves neither the throughput nor the tail.
    let rounds = (inputs.horizon + 1) as f64;
    let (mut rounds_per_s, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(seconds, min_reps, |i| {
        let rep = sim_rep(inputs.build(), None);
        check_report(&inputs, &rep.report, &mut out.checks);
        out.checks.check(report_digest(&rep.report) == digest, || {
            format!("repetition {i} produced a different report than the warm-up")
        });
        rounds_per_s.push(rounds / rep.wall.as_secs_f64());
        p50.push(percentile(&rep.round_ms, 50.0));
        p95.push(percentile(&rep.round_ms, 95.0));
    });

    out.push(
        "rounds_per_s",
        Summary::median_of("1/s", &rounds_per_s),
        true,
    );
    out.push("round_ms_p50", Summary::median_of("ms", &p50), true);
    out.push("round_ms_p95", Summary::median_of("ms", &p95), true);
    client_metrics(&warm.report, &mut out);
    out.push(
        "peak_rss_mb",
        Summary::once("MB", peak_rss_mb().unwrap_or(0.0)),
        false,
    );
    out.push("setup_s", Summary::median_of("s", &setups), true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, END_TO_END, WORKLOADS};

    #[test]
    fn repeat_for_honours_the_minimum_and_the_clock() {
        assert_eq!(repeat_for(0.0, 3, |_| {}), 3);
        let reps = repeat_for(0.05, 1, |_| std::thread::sleep(Duration::from_millis(10)));
        assert!((2..=5).contains(&reps), "{reps}");
    }

    #[test]
    fn tiny_timed_pass_reports_every_end_to_end_metric() {
        for w in &WORKLOADS {
            let Kind::Sim(spec) = w.kind else { continue };
            let out = timed(&spec.tiny(), 5, 0.0, 2);
            assert_eq!(out.checks.failures, Vec::<String>::new(), "{}", w.name);
            assert!(out.checks.attempted >= 10);
            for m in &END_TO_END {
                let v = out
                    .value(m.name)
                    .unwrap_or_else(|| panic!("{} {}", w.name, m.name));
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
            }
        }
    }

    #[test]
    fn a_violated_report_fails_its_gates() {
        let Kind::Sim(spec) = WORKLOADS[0].kind else {
            unreachable!()
        };
        let inputs = spec.tiny().inputs(1);
        let mut report = sim_rep(inputs.build(), None).report;
        let mut ok = Checks::default();
        check_report(&inputs, &report, &mut ok);
        assert!(ok.failures.is_empty());
        report.workload.offered += 1;
        report.workload.decided = 0;
        let mut bad = Checks::default();
        check_report(&inputs, &report, &mut bad);
        assert_eq!(bad.failures.len(), 2);
    }
}
