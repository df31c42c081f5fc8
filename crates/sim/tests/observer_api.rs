//! Behavioural tests of the event-driven driving API: the `SimEvent`
//! stream an [`Observer`] sees and the order emitted events join it in,
//! the delivery-event opt-in gate, and mid-run interventions through the
//! stepping surface.

use std::cell::RefCell;
use std::rc::Rc;

use st_sim::adversary::{PartitionAttacker, SilentAdversary};
use st_sim::{
    ObsCtx, Observer, Schedule, SimBuilder, SimConfig, SimEvent, Timeline, ViolationKind,
    WorkloadSpec,
};
use st_types::{Params, ProcessId, Round};

fn params(n: usize, eta: u64) -> Params {
    Params::builder(n).expiration(eta).build().unwrap()
}

/// Shared tally of everything a probe saw.
#[derive(Default, Debug)]
struct Seen {
    round_starts: usize,
    round_ends: usize,
    txs: usize,
    corruption_changes: Vec<(u64, usize)>,
    window_enters: Vec<(usize, u64)>,
    window_exits: Vec<(usize, u64)>,
    decisions: usize,
    deliveries: usize,
    safety_violations: usize,
    resilience_violations: usize,
}

struct Probe {
    seen: Rc<RefCell<Seen>>,
    want_deliveries: bool,
}

impl Observer for Probe {
    fn wants_delivery_events(&self) -> bool {
        self.want_deliveries
    }

    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        let mut seen = self.seen.borrow_mut();
        match event {
            SimEvent::RoundStart { .. } => seen.round_starts += 1,
            SimEvent::RoundEnd { .. } => seen.round_ends += 1,
            SimEvent::TxSubmitted { .. } => seen.txs += 1,
            SimEvent::CorruptionChange { round, corrupted } => seen
                .corruption_changes
                .push((round.as_u64(), corrupted.len())),
            SimEvent::WindowEnter { index, disruption } => {
                seen.window_enters.push((*index, disruption.start.as_u64()))
            }
            SimEvent::WindowExit { index, disruption } => {
                seen.window_exits.push((*index, disruption.end.as_u64()))
            }
            SimEvent::DecisionObserved { .. } => seen.decisions += 1,
            SimEvent::EnvelopeDelivered { .. } => seen.deliveries += 1,
            SimEvent::Violation { kind, .. } => match kind {
                ViolationKind::Safety => seen.safety_violations += 1,
                ViolationKind::Resilience { .. } => seen.resilience_violations += 1,
            },
        }
    }
}

/// The stream narrates the whole run: one start/end pair per round,
/// window enter/exit per disruption, tx submissions, decisions, and —
/// only with the opt-in — per-envelope deliveries.
#[test]
fn event_stream_narrates_the_run() {
    let horizon = 30u64;
    let seen = Rc::new(RefCell::new(Seen::default()));
    let timeline = Timeline::synchronous()
        .asynchronous(Round::new(10), 3)
        .bounded_delay(Round::new(20), 4, 2);
    let report = SimBuilder::from_config(
        SimConfig::new(params(8, 4), 5)
            .horizon(horizon)
            .timeline(timeline),
    )
    .workload_spec(WorkloadSpec::txs_every(5))
    .observer(Probe {
        seen: seen.clone(),
        want_deliveries: true,
    })
    .build()
    .expect("valid sim")
    .run();
    let seen = seen.borrow();
    assert_eq!(seen.round_starts as u64, horizon + 1);
    assert_eq!(seen.round_ends as u64, horizon + 1);
    assert_eq!(seen.window_enters, vec![(0, 10), (1, 20)]);
    assert_eq!(seen.window_exits, vec![(0, 12), (1, 23)]);
    assert_eq!(seen.txs, report.txs.len());
    assert_eq!(seen.decisions, report.decisions_total);
    // Every honest delivery of the trace was narrated.
    let delivered: usize = report
        .timeline
        .samples()
        .iter()
        .map(|s| s.messages_delivered)
        .sum();
    assert_eq!(seen.deliveries, delivered);
    assert!(seen.deliveries > 0);
    assert_eq!(seen.safety_violations, 0);
}

/// Without the opt-in, no delivery events are generated (the zero-copy
/// fast path is kept), while every other event still flows.
#[test]
fn delivery_events_are_opt_in() {
    let seen = Rc::new(RefCell::new(Seen::default()));
    SimBuilder::from_config(SimConfig::new(params(8, 2), 5).horizon(20))
        .observer(Probe {
            seen: seen.clone(),
            want_deliveries: false,
        })
        .build()
        .expect("valid sim")
        .run();
    let seen = seen.borrow();
    assert_eq!(seen.deliveries, 0);
    assert_eq!(seen.round_starts, 21);
    assert!(seen.decisions > 0);
}

/// Monitors publish their findings onto the stream: a user probe sees
/// each safety violation the partition attack produces, as an event, and
/// the count matches the report.
#[test]
fn violation_events_reach_user_observers() {
    let seen = Rc::new(RefCell::new(Seen::default()));
    let report = SimBuilder::from_config(
        SimConfig::new(params(8, 0), 5)
            .horizon(22)
            .timeline(Timeline::synchronous().asynchronous(Round::new(10), 4)),
    )
    .adversary(PartitionAttacker::new())
    .observer(Probe {
        seen: seen.clone(),
        want_deliveries: false,
    })
    .build()
    .expect("valid sim")
    .run();
    assert!(!report.is_safe(), "the Section-1 attack should land");
    let seen = seen.borrow();
    assert_eq!(seen.safety_violations, report.safety_violations.len());
}

/// Records every event it sees with the round it arrived in.
struct Recorder {
    round: u64,
    log: Rc<RefCell<Vec<(u64, SimEvent)>>>,
}

impl Observer for Recorder {
    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        if let SimEvent::RoundStart { round } = event {
            self.round = round.as_u64();
        }
        self.log.borrow_mut().push((self.round, event.clone()));
    }
}

/// The forwarding order: under the Section-1 attack each violation
/// arrives directly after the decision that produced it — nothing but
/// that decision's other violations in between — and in the same round.
#[test]
fn violations_directly_follow_the_decision_that_produced_them() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let report = SimBuilder::from_config(
        SimConfig::new(params(8, 0), 5)
            .horizon(22)
            .timeline(Timeline::synchronous().asynchronous(Round::new(10), 4)),
    )
    .adversary(PartitionAttacker::new())
    .observer(Recorder {
        round: 0,
        log: Rc::clone(&log),
    })
    .run();
    let log = log.borrow();
    let is_violation = |e: &SimEvent| matches!(e, SimEvent::Violation { .. });
    let violations = log.iter().filter(|(_, e)| is_violation(e)).count();
    assert!(violations > 0, "the Section-1 attack should land");
    assert_eq!(
        violations,
        report.safety_violations.len() + report.resilience_violations.len()
    );
    for (i, (round, event)) in log.iter().enumerate() {
        let SimEvent::Violation { violation, .. } = event else {
            continue;
        };
        let (cause_round, cause) = log[..i]
            .iter()
            .rev()
            .find(|(_, e)| !is_violation(e))
            .expect("a violation has a cause");
        let SimEvent::DecisionObserved { process, decision } = cause else {
            panic!("violation #{i} follows {cause:?}, not a decision");
        };
        assert_eq!(cause_round, round, "violation #{i} left its round");
        assert_eq!(violation.second, (*process, *decision));
    }
}

/// Corruption changes are narrated with the new set when `B_r` shifts.
#[test]
fn corruption_changes_are_narrated() {
    let seen = Rc::new(RefCell::new(Seen::default()));
    let schedule = Schedule::full(8, 20).with_corrupted_window(
        ProcessId::new(2),
        Round::new(5),
        Round::new(11),
    );
    SimBuilder::from_config(SimConfig::new(params(8, 2), 3).horizon(20))
        .schedule(schedule)
        .observer(Probe {
            seen: seen.clone(),
            want_deliveries: false,
        })
        .build()
        .expect("valid sim")
        .run();
    let seen = seen.borrow();
    // One change when p2 falls (round 5, |B| = 1), one when it heals
    // (round 11, |B| = 0).
    assert_eq!(seen.corruption_changes, vec![(5, 1), (11, 0)]);
}

/// The mid-run intervention the redesign makes first-class: pause with
/// `run_until`, inspect, flip the schedule, keep stepping. Here a probe
/// run is paused at round 9 and five processes are put to sleep for ten
/// rounds — the protocol keeps deciding (dynamic availability), and the
/// trace shows the flipped participation.
#[test]
fn mid_run_schedule_flip_through_stepping() {
    let n = 12;
    let horizon = 40u64;
    let mut sim = SimBuilder::from_config(SimConfig::new(params(n, 2), 7).horizon(horizon))
        .adversary(SilentAdversary)
        .build()
        .expect("valid sim");
    sim.run_until(Round::new(9));
    assert_eq!(sim.next_round(), Some(Round::new(10)));
    // Inspect mid-run: every process is live and deciding.
    assert_eq!(sim.processes().len(), n);
    // Intervene: replace the schedule with one where 5 processes sleep
    // for rounds 12..=21 (the flip only affects rounds not yet run).
    *sim.schedule_mut() = Schedule::mass_sleep(n, horizon, 5.0 / n as f64, 12, 21);
    sim.run_until(Round::new(horizon));
    assert!(sim.is_done());
    let report = sim.finish();
    assert!(report.is_safe());
    assert!(report.decisions_total > 0);
    assert_eq!(report.rounds_run, horizon);
    // The flipped participation is visible in the trace...
    assert_eq!(report.timeline.at(Round::new(9)).unwrap().honest_awake, n);
    assert!(report.timeline.at(Round::new(15)).unwrap().honest_awake < n);
    // ...and the run healed after the cohort woke up.
    assert_eq!(report.timeline.at(Round::new(30)).unwrap().honest_awake, n);
}

/// Early finish reports the rounds actually executed.
#[test]
fn early_finish_reports_partial_run() {
    let mut sim = SimBuilder::from_config(SimConfig::new(params(8, 2), 3).horizon(40))
        .build()
        .expect("valid sim");
    sim.run_until(Round::new(12));
    let report = sim.finish();
    assert_eq!(report.rounds_run, 12);
    assert_eq!(report.timeline.len(), 13); // rounds 0..=12 sampled
    assert!(report.is_safe());

    // Degenerate: finish before any step. `rounds_run` is 0 there too
    // (it reports the last executed round); the empty trace is the
    // documented disambiguator from "ran exactly round 0".
    let report = SimBuilder::from_config(SimConfig::new(params(8, 2), 3).horizon(40))
        .build()
        .expect("valid sim")
        .finish();
    assert_eq!(report.rounds_run, 0);
    assert!(report.timeline.is_empty());
    assert_eq!(report.decisions_total, 0);
    assert_eq!(report.messages_sent, 0);
}

/// The observer pipeline is typed by the driven protocol: a probe
/// written against `Observer<TobProcess>` rides the same event stream —
/// and can read process state out of `ObsCtx.processes` — while the
/// built-in monitors assemble the usual report. The run is the
/// fixed-quorum baseline (`Participation::Fixed`), and the probe sees it
/// in each process's parameters.
#[test]
fn observers_ride_the_generic_runner() {
    use st_core::TobProcess;
    use st_types::Participation;

    #[derive(Default)]
    struct Probe {
        decisions: usize,
        max_seen_height: u64,
        fixed: bool,
    }

    impl Observer<TobProcess> for Probe {
        fn on_event(
            &mut self,
            ctx: &ObsCtx<'_, TobProcess>,
            event: &SimEvent,
            _emit: &mut Vec<SimEvent>,
        ) {
            if let SimEvent::DecisionObserved { .. } = event {
                self.decisions += 1;
            }
            if let SimEvent::RoundEnd { .. } = event {
                // Typed access to the driven protocol's state.
                let tallest = ctx
                    .processes
                    .iter()
                    .filter_map(|p| p.tree().height(p.decided_tip()))
                    .max()
                    .unwrap_or(0);
                self.max_seen_height = self.max_seen_height.max(tallest);
                self.fixed = ctx
                    .processes
                    .iter()
                    .all(|p| p.config().params().participation() == Participation::Fixed);
            }
        }
    }

    // Observers are moved into the pipeline; report state through the
    // assembled SimReport plus a shared cell for the probe's own tally.
    let tally: Rc<RefCell<(usize, u64, bool)>> = Rc::default();

    struct Sharing {
        inner: Probe,
        out: Rc<RefCell<(usize, u64, bool)>>,
    }
    impl Observer<TobProcess> for Sharing {
        fn on_event(
            &mut self,
            ctx: &ObsCtx<'_, TobProcess>,
            event: &SimEvent,
            emit: &mut Vec<SimEvent>,
        ) {
            self.inner.on_event(ctx, event, emit);
            let probe = &self.inner;
            *self.out.borrow_mut() = (probe.decisions, probe.max_seen_height, probe.fixed);
        }
    }

    let n = 9;
    let horizon = 20;
    let fixed = Params::builder(n)
        .participation(Participation::Fixed)
        .build()
        .unwrap();
    let report =
        SimBuilder::<TobProcess>::for_protocol_config(SimConfig::new(fixed, 5).horizon(horizon))
            .workload_spec(WorkloadSpec::txs_every(4))
            .observer(Sharing {
                inner: Probe::default(),
                out: Rc::clone(&tally),
            })
            .build()
            .expect("valid fixed-quorum sim")
            .run();

    let (decisions, height, fixed) = *tally.borrow();
    assert!(fixed, "the probe did not see the fixed denominator");
    // Full participation: views 2..=10 decide on all 9 processes, view v
    // the block proposed for view v − 1 (height v − 2; view 1's is
    // genesis).
    assert_eq!(decisions, 81);
    assert_eq!(report.decisions_total, 81);
    assert_eq!(height, 8);
    assert_eq!(report.final_decided_height, 8);
    assert!(report.is_safe());
}
