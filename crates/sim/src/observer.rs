//! Pluggable execution observers and the simulation event stream.
//!
//! The paper's definitions are all statements about what an execution
//! *observes* — which decisions happened, when, and whether they conflict.
//! This module makes observation a first-class, composable surface: the
//! round loop narrates its execution as a stream of [`SimEvent`]s, and
//! every consumer of that stream — the safety monitor (Definition 2), the
//! per-window resilience monitors (Definition 5), the transaction-liveness
//! ledger, the per-round [`crate::RoundTrace`], and any user-registered
//! probe — is an [`Observer`].
//!
//! The [`crate::SimReport`] is *assembled from the observers* at
//! [`crate::Simulation::finish`]: each built-in observer contributes the
//! report fields it owns, so custom observers ride the exact pipeline the
//! paper's monitors use. Registration happens on
//! [`crate::SimBuilder::observer`]; built-in observers always run first,
//! in a fixed order, which is what keeps observer-assembled reports
//! byte-identical to the pre-observer runner (the determinism-equivalence
//! suite asserts this).
//!
//! # Event ordering within one round
//!
//! 1. [`SimEvent::RoundStart`], then one [`SimEvent::WindowEnter`] per
//!    disruption whose window opens this round;
//! 2. [`SimEvent::TxSubmitted`] for the round's workload (if any);
//! 3. [`SimEvent::EnvelopeSent`] per honest multicast, in process order;
//! 4. [`SimEvent::CorruptionChange`] if `B_r` differs from the previous
//!    round's corrupted set, then [`SimEvent::EnvelopeSent`] per message
//!    the adversary authored;
//! 5. one [`SimEvent::DecisionObserved`] per decision event drained from
//!    a well-behaved process, each directly followed by the
//!    [`SimEvent::Violation`]s it triggered: the monitors push those into
//!    [`Observer::on_event`]'s `emit`, and the round loop forwards what
//!    one event's handlers emitted to every observer before it narrates
//!    the next event;
//! 6. [`SimEvent::EnvelopeDelivered`] per delivery, receiver by receiver:
//!    the honest receivers first, then the corrupted machines' feed;
//! 7. one [`SimEvent::WindowExit`] per disruption whose window closed
//!    this round, then [`SimEvent::RoundEnd`].
//!
//! The two per-envelope events are generated only when some registered
//! observer returns `true` from [`Observer::wants_delivery_events`], so
//! the fast path pays nothing by default. With them, the stream and the
//! schedule record the whole run: what each process was submitted (the
//! round's honest awake processes get every `TxSubmitted`), sent and
//! received, in order.

use crate::env::{Disruption, EnvView, Timeline};
use crate::metrics::{RoundSample, RoundTrace};
use crate::monitor::{
    RecoveryRecord, ResilienceMonitor, SafetyMonitor, SafetyViolation, SimReport, TxRecord,
};
use crate::schedule::Schedule;
use st_blocktree::BlockTree;
use st_core::{DecisionEvent, TobProcess};
use st_messages::SharedEnvelope;
use st_types::{BlockId, FastSet, ProcessId, Round, TxId};
use std::cell::RefCell;
use std::rc::Rc;

/// Read-only view of the execution handed to every observer call: the
/// full-knowledge vantage point the paper's monitors have (every process's
/// state, the schedule, and a tree of every decided chain).
pub struct ObsCtx<'a> {
    /// The environment at the current round (segment kind, window offsets,
    /// partition overlay).
    pub env: EnvView,
    /// Every process's state, read-only.
    pub processes: &'a [TobProcess],
    /// The participation/corruption schedule.
    pub schedule: &'a Schedule,
    /// The union of the well-behaved processes' decided chains: a
    /// decision's chain is in it before the decision is narrated.
    pub decided: &'a BlockTree,
    /// Cumulative messages sent to the network so far.
    pub messages_sent: usize,
}

/// Which monitor flagged a [`SimEvent::Violation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// An agreement violation (Definition 2): two well-behaved decisions
    /// on conflicting logs.
    Safety,
    /// A Definition-5 violation against disruption window `window` (index
    /// into [`Timeline::disruptions`]): a post-`ra` decision conflicting
    /// with that window's `D_ra`.
    Resilience {
        /// Index of the disruption whose `D_ra` was contradicted.
        window: usize,
    },
}

/// One narrated step of the execution. See the module docs for the
/// within-round ordering.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// A round is about to execute.
    RoundStart {
        /// The round.
        round: Round,
    },
    /// The workload submitted a fresh transaction to every honest awake
    /// process's mempool.
    TxSubmitted {
        /// The transaction.
        tx: TxId,
        /// The submission round.
        round: Round,
    },
    /// The corrupted set `B_r` changed relative to the previous round.
    CorruptionChange {
        /// The round at which the new set took effect.
        round: Round,
        /// The new corrupted set (empty when everyone healed).
        corrupted: Vec<ProcessId>,
    },
    /// A disruption window (async / bounded-delay / partition) opened.
    WindowEnter {
        /// Index into [`Timeline::disruptions`].
        index: usize,
        /// The disruption's extent and label.
        disruption: Disruption,
    },
    /// A disruption window closed (fired at the end of its last round).
    WindowExit {
        /// Index into [`Timeline::disruptions`].
        index: usize,
        /// The disruption's extent and label.
        disruption: Disruption,
    },
    /// A well-behaved process produced a decision event.
    DecisionObserved {
        /// The deciding process.
        process: ProcessId,
        /// The decision.
        decision: DecisionEvent,
    },
    /// An envelope entered the network pool: an honest process's
    /// multicast, or a message the adversary authored for a corrupted
    /// one (generated only when some observer opted in via
    /// [`Observer::wants_delivery_events`]).
    EnvelopeSent {
        /// The pool's handle to the envelope; its payload names the
        /// sender.
        envelope: SharedEnvelope,
    },
    /// An envelope reached a receiver (generated only when some observer
    /// opted in via [`Observer::wants_delivery_events`]).
    EnvelopeDelivered {
        /// The receiving process.
        receiver: ProcessId,
        /// The pool's handle to the envelope; its payload names the
        /// sender.
        envelope: SharedEnvelope,
        /// Whether `receiver` is a corrupted machine. Those are fed the
        /// whole pool every round (the full-knowledge adversary's view),
        /// and [`SimEvent::RoundEnd`]'s `delivered` does not count them.
        corrupted: bool,
    },
    /// A monitor flagged a violation of one of the paper's definitions.
    Violation {
        /// Which monitor (and, for resilience, which window).
        kind: ViolationKind,
        /// The conflicting decision pair.
        violation: SafetyViolation,
    },
    /// A round finished executing (after delivery, compaction and
    /// bookkeeping).
    RoundEnd {
        /// The round.
        round: Round,
        /// Envelopes delivered to honest receivers this round.
        delivered: usize,
        /// Honest tallies adopted from the round's shared memo.
        tally_cache_hits: u64,
        /// Honest tallies computed rather than adopted.
        tally_cache_misses: u64,
    },
}

/// A pluggable execution observer.
///
/// One entry point, [`Observer::on_event`], sees every event of the run;
/// implementors `match` on the [`SimEvent`] variants they care about.
/// Observers run in registration order — built-ins first.
///
/// An observer that *detects* something (the built-in monitors) publishes
/// it by pushing events into `emit`. The round loop forwards whatever one
/// event's handlers emitted to every observer right after that event, and
/// keeps forwarding until nothing more is emitted — so an observer must
/// not emit in response to emitted events without a termination
/// condition.
pub trait Observer {
    /// Opt-in for the per-envelope [`SimEvent::EnvelopeSent`] and
    /// [`SimEvent::EnvelopeDelivered`] events. The default `false` keeps
    /// the zero-copy delivery fast path free of per-envelope event
    /// construction; return `true` only if the observer actually consumes
    /// them (checked once at build).
    fn wants_delivery_events(&self) -> bool {
        false
    }

    /// Handles one event; events to publish to every observer go into
    /// `emit`.
    fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, emit: &mut Vec<SimEvent>);

    /// Contribute this observer's findings to the final report. Built-in
    /// observers fill the [`SimReport`] fields they own; user observers
    /// typically keep their conclusions internal (the report's shape is
    /// fixed), but may post-process fields already filled by the
    /// built-ins, which always run first.
    fn finish(&mut self, ctx: &ObsCtx<'_>, report: &mut SimReport) {
        let _ = (ctx, report);
    }
}

// ---------------------------------------------------------------------------
// Built-in observers — the paper's monitors, re-expressed on the trait.
// ---------------------------------------------------------------------------

/// Definition 2 (agreement), as an observer. Owns
/// [`SimReport::safety_violations`].
#[derive(Default)]
pub(crate) struct SafetyObserver {
    monitor: SafetyMonitor,
}

impl Observer for SafetyObserver {
    fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, emit: &mut Vec<SimEvent>) {
        let SimEvent::DecisionObserved { process, decision } = *event else {
            return;
        };
        let before = self.monitor.violations.len();
        self.monitor.observe(ctx.decided, process, decision);
        // New conflicting pairs become events; witness upgrades of pairs
        // already reported do not re-fire.
        for v in &self.monitor.violations[before..] {
            emit.push(SimEvent::Violation {
                kind: ViolationKind::Safety,
                violation: v.clone(),
            });
        }
    }

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        report.safety_violations = std::mem::take(&mut self.monitor.violations);
    }
}

/// Definition 5 + per-window recovery bookkeeping, as an observer. Owns
/// [`SimReport::resilience_violations`] and [`SimReport::recoveries`].
pub(crate) struct ResilienceObserver {
    disruptions: Vec<Disruption>,
    monitors: Vec<ResilienceMonitor>,
    first_after: Vec<Option<Round>>,
}

impl ResilienceObserver {
    pub(crate) fn new(timeline: &Timeline) -> ResilienceObserver {
        let disruptions = timeline.disruptions();
        #[expect(
            clippy::expect_used,
            reason = "Timeline window constructors reject windows starting at round 0, so prev() always exists"
        )]
        let monitors = disruptions
            .iter()
            .map(|d| {
                ResilienceMonitor::new(
                    d.start
                        .prev()
                        .expect("timeline windows start after round 0"),
                )
            })
            .collect();
        let first_after = vec![None; disruptions.len()];
        ResilienceObserver {
            monitors,
            first_after,
            disruptions,
        }
    }
}

impl Observer for ResilienceObserver {
    fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, emit: &mut Vec<SimEvent>) {
        let SimEvent::DecisionObserved { process, decision } = *event else {
            return;
        };
        for (i, mon) in self.monitors.iter_mut().enumerate() {
            let before = mon.violations.len();
            mon.observe(ctx.decided, process, decision);
            for v in &mon.violations[before..] {
                emit.push(SimEvent::Violation {
                    kind: ViolationKind::Resilience { window: i },
                    violation: v.clone(),
                });
            }
        }
        for (i, d) in self.disruptions.iter().enumerate() {
            if decision.round > d.end && self.first_after[i].is_none() {
                self.first_after[i] = Some(decision.round);
            }
        }
    }

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        report.recoveries = self
            .disruptions
            .iter()
            .zip(&self.monitors)
            .zip(&self.first_after)
            .map(|((d, mon), first)| RecoveryRecord {
                kind: d.label.to_string(),
                start: d.start,
                end: d.end,
                first_decision_after: *first,
                recovery_rounds: first.map(|f| f.as_u64() - d.end.as_u64()),
                violations: mon.violations.len(),
            })
            .collect();
        report.resilience_violations = self
            .monitors
            .iter_mut()
            .flat_map(|m| std::mem::take(&mut m.violations))
            .collect();
    }
}

/// Transaction-liveness ledger (Definition 2's liveness, quantified), as
/// an observer. Owns [`SimReport::txs`].
pub(crate) struct TxLedger {
    txs: Vec<TxRecord>,
    /// Cached set of txs in each process's decided log, keyed by the tip
    /// it was computed for.
    decided_txs: Vec<(BlockId, FastSet<TxId>)>,
}

impl TxLedger {
    pub(crate) fn new(n: usize) -> TxLedger {
        TxLedger {
            txs: Vec::new(),
            decided_txs: vec![(BlockId::GENESIS, FastSet::default()); n],
        }
    }

    /// Refreshes the decided-log cache and the inclusion marks at the end
    /// of `round`.
    fn round_end(&mut self, ctx: &ObsCtx<'_>, round: Round) {
        if self.txs.is_empty() {
            return;
        }
        let next = round.next();
        for p in ProcessId::all(ctx.schedule.n()) {
            let proc = &ctx.processes[p.index()];
            let (tree, tip) = (proc.tree(), proc.decided_tip());
            let (cached, set) = &mut self.decided_txs[p.index()];
            if *cached == tip {
                continue;
            }
            // A decided tip only moves to a descendant
            // (`TobProcess::decided_tip`), so the cache grows by the
            // newly decided blocks.
            let fresh = tree.chain(tip).take_while(|&b| b != *cached);
            let fresh = fresh.filter_map(|b| tree.block(b));
            set.extend(fresh.flat_map(|b| b.payload().iter().copied()));
            *cached = tip;
        }
        let awake_next: Vec<ProcessId> = ctx.schedule.honest_awake(next).into_iter().collect();
        if awake_next.is_empty() {
            return;
        }
        for rec in self
            .txs
            .iter_mut()
            .filter(|t| t.included_everywhere.is_none() || t.decided_round.is_none())
        {
            let mut anywhere = false;
            let mut everywhere = true;
            for p in &awake_next {
                if self.decided_txs[p.index()].1.contains(&rec.tx) {
                    anywhere = true;
                } else {
                    everywhere = false;
                }
            }
            // First honest decided log containing the tx: the
            // client-observed decision point.
            if rec.decided_round.is_none() && anywhere {
                rec.decided_round = Some(next.as_u64());
            }
            if rec.included_everywhere.is_none() && everywhere {
                rec.included_everywhere = Some(next);
            }
        }
    }
}

impl Observer for TxLedger {
    fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        match *event {
            SimEvent::TxSubmitted { tx, round } => self.txs.push(TxRecord {
                tx,
                submitted: round,
                included_everywhere: None,
                decided_round: None,
            }),
            SimEvent::RoundEnd { round, .. } => self.round_end(ctx, round),
            _ => {}
        }
    }

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        report.txs = std::mem::take(&mut self.txs);
    }
}

/// Decision accounting, as an observer. Owns
/// [`SimReport::decisions_total`], [`SimReport::per_process_decisions`]
/// and [`SimReport::deciding_rounds`].
pub(crate) struct DecisionLedger {
    observed: Vec<usize>,
    deciding_rounds: usize,
    any_this_round: bool,
}

impl DecisionLedger {
    pub(crate) fn new(n: usize) -> DecisionLedger {
        DecisionLedger {
            observed: vec![0; n],
            deciding_rounds: 0,
            any_this_round: false,
        }
    }
}

impl Observer for DecisionLedger {
    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        match event {
            SimEvent::DecisionObserved { process, .. } => {
                self.observed[process.index()] += 1;
                self.any_this_round = true;
            }
            SimEvent::RoundEnd { .. } if self.any_this_round => {
                self.deciding_rounds += 1;
                self.any_this_round = false;
            }
            _ => {}
        }
    }

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        report.decisions_total = self.observed.iter().sum();
        report.per_process_decisions = std::mem::take(&mut self.observed);
        report.deciding_rounds = self.deciding_rounds;
    }
}

/// Per-round time series, as an observer. Owns [`SimReport::timeline`].
#[derive(Default)]
pub(crate) struct TraceObserver {
    trace: RoundTrace,
    messages_at_round_start: usize,
    decisions_this_round: usize,
}

impl TraceObserver {
    /// Appends the sample of the round that just ended.
    fn sample(
        &mut self,
        ctx: &ObsCtx<'_>,
        round: Round,
        delivered: usize,
        tally_cache_hits: u64,
        tally_cache_misses: u64,
    ) {
        let honest = ctx.schedule.honest_awake(round);
        let height = |p: ProcessId| {
            let proc = &ctx.processes[p.index()];
            proc.tree().height(proc.decided_tip()).unwrap_or(0)
        };
        let heights: Vec<u64> = honest.iter().map(|&p| height(p)).collect();
        let all_max = ProcessId::all(ctx.schedule.n())
            .filter(|&p| !ctx.schedule.is_byzantine(p, round))
            .map(height)
            .max()
            .unwrap_or(0);
        self.trace.push(RoundSample {
            round: round.as_u64(),
            honest_awake: honest.len(),
            byzantine: ctx.schedule.byzantine(round).len(),
            is_async: ctx.env.is_async(),
            delta: ctx.env.delta(),
            partitioned: ctx.env.partitioned,
            messages_sent: ctx.messages_sent - self.messages_at_round_start,
            messages_delivered: delivered,
            decisions: self.decisions_this_round,
            max_decided_height: all_max,
            min_decided_height: heights.iter().copied().min().unwrap_or(0),
            tally_cache_hits,
            tally_cache_misses,
        });
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        match *event {
            SimEvent::RoundStart { .. } => {
                self.messages_at_round_start = ctx.messages_sent;
                self.decisions_this_round = 0;
            }
            SimEvent::DecisionObserved { .. } => self.decisions_this_round += 1,
            SimEvent::RoundEnd {
                round,
                delivered,
                tally_cache_hits,
                tally_cache_misses,
            } => self.sample(ctx, round, delivered, tally_cache_hits, tally_cache_misses),
            _ => {}
        }
    }

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        report.timeline = std::mem::take(&mut self.trace);
    }
}

/// Shared handle to the per-process decision histories a [`DecisionTap`]
/// collects (index = process index, events in observation order).
pub type DecisionLog = Rc<RefCell<Vec<Vec<DecisionEvent>>>>;

/// A user observer that records every honest decision per process for
/// reading *after* the run: **the** way to keep decisions past a
/// [`crate::Simulation`].
///
/// [`TobProcess::drain_decisions`] is the only way to read a process's
/// decisions, and the round loop drains every process every round (so
/// per-process event storage stays bounded on long horizons). Once a run
/// is over the processes hold no decisions; everything went into the
/// observer pipeline. Code that wants the full history registers a tap
/// and reads the shared log:
///
/// ```
/// use st_sim::{DecisionTap, SimBuilder, SimConfig};
/// use st_types::Params;
///
/// let params = Params::builder(6).expiration(2).build()?;
/// let (tap, log) = DecisionTap::new(6);
/// let config = SimConfig::new(params, 3).horizon(20);
/// let report = SimBuilder::from_config(config).observer(tap).run();
/// assert_eq!(
///     log.borrow().iter().map(|d| d.len()).sum::<usize>(),
///     report.decisions_total,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DecisionTap {
    log: DecisionLog,
}

impl DecisionTap {
    /// A tap over `n` processes, plus the shared handle its collected log
    /// is read through.
    pub fn new(n: usize) -> (DecisionTap, DecisionLog) {
        let log: DecisionLog = Rc::new(RefCell::new(vec![Vec::new(); n]));
        (
            DecisionTap {
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl Observer for DecisionTap {
    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        if let SimEvent::DecisionObserved { process, decision } = *event {
            self.log.borrow_mut()[process.index()].push(decision);
        }
    }
}
