//! Behavioural tests of the event-driven driving API: the `SimEvent`
//! stream an [`Observer`] sees and the order emitted events join it in,
//! the per-envelope opt-in gate, and mid-run interventions through the
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
    sends: usize,
    deliveries: usize,
    /// The corrupted machines' feed: (round, receiver) per delivery.
    fed: Vec<(u64, ProcessId)>,
    safety_violations: usize,
    resilience_violations: usize,
}

struct Probe {
    seen: Rc<RefCell<Seen>>,
    want_deliveries: bool,
    round: u64,
}

impl Probe {
    fn new(want_deliveries: bool) -> (Probe, Rc<RefCell<Seen>>) {
        let seen = Rc::new(RefCell::new(Seen::default()));
        let probe = Probe {
            seen: Rc::clone(&seen),
            want_deliveries,
            round: 0,
        };
        (probe, seen)
    }
}

impl Observer for Probe {
    fn wants_delivery_events(&self) -> bool {
        self.want_deliveries
    }

    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        let mut seen = self.seen.borrow_mut();
        match event {
            SimEvent::RoundStart { round } => {
                seen.round_starts += 1;
                self.round = round.as_u64();
            }
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
            SimEvent::EnvelopeSent { .. } => seen.sends += 1,
            SimEvent::EnvelopeDelivered {
                receiver,
                corrupted,
                ..
            } => match corrupted {
                false => seen.deliveries += 1,
                true => seen.fed.push((self.round, *receiver)),
            },
            SimEvent::Violation { kind, .. } => match kind {
                ViolationKind::Safety => seen.safety_violations += 1,
                ViolationKind::Resilience { .. } => seen.resilience_violations += 1,
            },
        }
    }
}

/// Sum of the trace's per-round honest deliveries.
fn delivered(report: &st_sim::SimReport) -> usize {
    let samples = report.timeline.samples();
    samples.iter().map(|s| s.messages_delivered).sum()
}

/// The stream narrates the whole run: one start/end pair per round,
/// window enter/exit per disruption, tx submissions, decisions, and —
/// only with the opt-in — per-envelope sends and deliveries.
#[test]
fn event_stream_narrates_the_run() {
    let horizon = 30u64;
    let (probe, seen) = Probe::new(true);
    let timeline = Timeline::synchronous()
        .asynchronous(Round::new(10), 3)
        .bounded_delay(Round::new(20), 4, 2);
    let report = SimBuilder::from_config(
        SimConfig::new(params(8, 4), 5)
            .horizon(horizon)
            .timeline(timeline),
    )
    .workload_spec(WorkloadSpec::txs_every(5))
    .observer(probe)
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
    // Every send and every honest delivery of the trace was narrated.
    assert_eq!(seen.sends, report.messages_sent);
    assert_eq!(seen.deliveries, delivered(&report));
    assert!(seen.deliveries > 0);
    assert!(seen.fed.is_empty());
    assert_eq!(seen.safety_violations, 0);
}

/// With a corrupted window the corrupted machine's full-knowledge feed is
/// narrated too, marked: exactly the rounds whose next round it is
/// corrupted in, and only to it. The unmarked deliveries still add up to
/// the trace's honest count, and the adversary's messages are narrated
/// sends.
#[test]
fn the_corrupted_feed_is_narrated_and_marked() {
    let (probe, seen) = Probe::new(true);
    let p2 = ProcessId::new(2);
    let schedule = Schedule::full(8, 20).with_corrupted_window(p2, Round::new(5), Round::new(11));
    let report = SimBuilder::from_config(SimConfig::new(params(8, 2), 3).horizon(20))
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule)
        .adversary(st_sim::adversary::EquivocatingVoter::new())
        .observer(probe)
        .run();
    let seen = seen.borrow();
    assert_eq!(seen.deliveries, delivered(&report));
    assert_eq!(seen.sends, report.messages_sent);
    // p2 is corrupted in rounds 5..=10, so it is fed at the end of
    // rounds 4..=9.
    let mut fed_rounds: Vec<u64> = seen.fed.iter().map(|&(r, _)| r).collect();
    fed_rounds.dedup();
    assert_eq!(fed_rounds, (4..=9).collect::<Vec<_>>());
    assert!(seen.fed.iter().all(|&(_, p)| p == p2));
}

/// Without the opt-in, no delivery events are generated (the zero-copy
/// fast path is kept), while every other event still flows.
#[test]
fn delivery_events_are_opt_in() {
    let (probe, seen) = Probe::new(false);
    SimBuilder::from_config(SimConfig::new(params(8, 2), 5).horizon(20))
        .observer(probe)
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
    let (probe, seen) = Probe::new(false);
    let report = SimBuilder::from_config(
        SimConfig::new(params(8, 0), 5)
            .horizon(22)
            .timeline(Timeline::synchronous().asynchronous(Round::new(10), 4)),
    )
    .adversary(PartitionAttacker::new())
    .observer(probe)
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
    let (probe, seen) = Probe::new(false);
    let schedule = Schedule::full(8, 20).with_corrupted_window(
        ProcessId::new(2),
        Round::new(5),
        Round::new(11),
    );
    SimBuilder::from_config(SimConfig::new(params(8, 2), 3).horizon(20))
        .schedule(schedule)
        .observer(probe)
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

/// An observer reads process state through `ObsCtx.processes` while the
/// built-in monitors assemble the usual report. The run is the
/// fixed-quorum baseline (`Participation::Fixed`), and the probe sees it
/// in each process's parameters.
#[test]
fn observers_read_process_state_from_the_context() {
    use st_types::Participation;

    /// Decisions seen, the tallest decided chain, and whether every
    /// process runs the fixed denominator.
    struct Probe(Rc<RefCell<(usize, u64, bool)>>);

    impl Observer for Probe {
        fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
            let (decisions, height, fixed) = &mut *self.0.borrow_mut();
            match event {
                SimEvent::DecisionObserved { .. } => *decisions += 1,
                SimEvent::RoundEnd { .. } => {
                    let procs = ctx.processes;
                    let tallest = procs
                        .iter()
                        .filter_map(|p| p.tree().height(p.decided_tip()));
                    *height = (*height).max(tallest.max().unwrap_or(0));
                    *fixed = (procs.iter())
                        .all(|p| p.config().params().participation() == Participation::Fixed);
                }
                _ => {}
            }
        }
    }

    let seen: Rc<RefCell<(usize, u64, bool)>> = Rc::default();
    let (n, horizon) = (9, 20);
    let fixed = Params::builder(n)
        .participation(Participation::Fixed)
        .build()
        .unwrap();
    let report = SimBuilder::from_config(SimConfig::new(fixed, 5).horizon(horizon))
        .workload_spec(WorkloadSpec::txs_every(4))
        .observer(Probe(Rc::clone(&seen)))
        .run();

    let (decisions, height, fixed) = *seen.borrow();
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
