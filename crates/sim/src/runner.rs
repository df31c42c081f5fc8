//! The round-loop execution engine.
//!
//! [`Simulation`] drives [`st_core::TobProcess`] instances through the
//! schedule, network, environment timeline and adversary. Execution is
//! **steppable** — [`Simulation::step`] runs one round,
//! [`Simulation::run_until`] runs to a round, [`Simulation::finish`]
//! assembles the [`SimReport`] from the registered
//! [`Observer`](crate::Observer)s, and [`Simulation::run`] is the
//! one-shot composition of the three. Between steps the driving code can
//! inspect processes and mutate the schedule (mid-run interventions),
//! which is what grid-scale experiments and scenario probes build on.
//!
//! Construct with [`crate::SimBuilder`]. There is one execution path:
//! each round is a sequence of named phases (`step_round`), and its
//! receive phase is *plan, then apply* — one immutable pass decides per
//! receiver which pool messages arrive (a `DeliveryPlan`), one loop
//! applies the plans through the zero-copy shared-envelope path.

use crate::adversary::{Adversary, AdversaryCtx};
use crate::builder::BuildError;
use crate::env::{bounded_delay_of, Disruption, EnvView, SegmentKind, Timeline};
use crate::monitor::SimReport;
use crate::network::{Network, Recipients, SentMessage};
use crate::observer::{
    DecisionLedger, ObsCtx, Observer, ResilienceObserver, SafetyObserver, SimEvent, TraceObserver,
    TxLedger,
};
use crate::schedule::Schedule;
use crate::workload::{WorkloadInjector, WorkloadSpec};
use st_blocktree::BlockTree;
use st_core::{Protocol, TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, SharedEnvelope};
use st_types::FastSet;
use st_types::{Params, ProcessId, Round, TxId};
use std::collections::BTreeMap;

/// An asynchronous window `[start, start + len − 1]` during which message
/// delivery is adversarial. In the paper's notation the window is
/// `[ra + 1, ra + π]`, so `start = ra + 1` and `len = π`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncWindow {
    start: Round,
    len: u64,
}

impl AsyncWindow {
    /// A window of `pi` rounds beginning at `start` (= `ra + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `pi == 0` (an empty window is no window) or if
    /// `start` is round 0 (there must exist a last synchronous round
    /// `ra ≥ 0` before the window).
    pub fn new(start: Round, pi: u64) -> AsyncWindow {
        assert!(pi > 0, "asynchronous window must have positive length");
        assert!(
            start > Round::ZERO,
            "the window must start after at least one synchronous round"
        );
        AsyncWindow { start, len: pi }
    }

    /// The last synchronous round before the window (`ra`).
    #[expect(
        clippy::expect_used,
        reason = "AsyncWindow::new asserts start > 0, so prev() always exists"
    )]
    pub fn ra(&self) -> Round {
        self.start
            .prev()
            .expect("start > 0 enforced at construction")
    }

    /// The first asynchronous round (`ra + 1`).
    pub fn start(&self) -> Round {
        self.start
    }

    /// The window length `π`.
    pub fn pi(&self) -> u64 {
        self.len
    }

    /// The last asynchronous round (`ra + π`).
    pub fn end(&self) -> Round {
        Round::new(self.start.as_u64() + self.len - 1)
    }

    /// Whether `r` lies inside the window.
    pub fn contains(&self, r: Round) -> bool {
        self.start <= r && r <= self.end()
    }
}

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    params: Params,
    seed: u64,
    horizon: u64,
    timeline: Timeline,
    txs_every: Option<u64>,
}

impl SimConfig {
    /// A run of the protocol described by `params` under `seed`, with a
    /// default horizon of 40 rounds, a fully synchronous timeline and no
    /// transaction workload.
    pub fn new(params: Params, seed: u64) -> SimConfig {
        SimConfig {
            params,
            seed,
            horizon: 40,
            timeline: Timeline::synchronous(),
            txs_every: None,
        }
    }

    /// Sets the number of rounds to execute (rounds `0..=horizon`).
    #[must_use]
    pub fn horizon(mut self, rounds: u64) -> SimConfig {
        self.horizon = rounds;
        self
    }

    /// Sets the environment [`Timeline`] (asynchronous / bounded-delay
    /// windows and partition events). Replaces any previously configured
    /// timeline.
    #[must_use]
    pub fn timeline(mut self, timeline: Timeline) -> SimConfig {
        self.timeline = timeline;
        self
    }

    /// Injects a single asynchronous window — a thin shim over
    /// [`SimConfig::timeline`] that builds the one-segment timeline
    /// `Timeline::synchronous().asynchronous(window.start(), window.pi())`.
    /// Replaces any previously configured timeline, matching the legacy
    /// last-call-wins behaviour.
    #[must_use]
    pub fn async_window(mut self, window: AsyncWindow) -> SimConfig {
        self.timeline = Timeline::synchronous().asynchronous(window.start(), window.pi());
        self
    }

    /// Submits one fresh transaction every `k` rounds, to every honest
    /// awake process (transaction gossip floods independently of the
    /// consensus rounds).
    #[must_use]
    pub fn txs_every(mut self, k: u64) -> SimConfig {
        self.txs_every = Some(k.max(1));
        self
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The configured environment timeline.
    pub fn env(&self) -> &Timeline {
        &self.timeline
    }

    /// The configured horizon (the run executes rounds `0..=horizon`).
    pub fn horizon_rounds(&self) -> u64 {
        self.horizon
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A single simulation: processes + schedule + network + adversary +
/// observers. Construct with [`crate::SimBuilder`]; execute with
/// [`Simulation::run`], or drive it round by round with
/// [`Simulation::step`] / [`Simulation::run_until`] and close with
/// [`Simulation::finish`].
///
/// Generic over the [`Protocol`] being driven, defaulted to the sleepy
/// protocol's [`TobProcess`] — `Simulation` without a parameter is the
/// exact type every pre-existing caller names. The round loop touches
/// processes only through the [`Protocol`] surface, so any implementor
/// (e.g. [`st_core::QuorumProcess`]) runs under the same schedules,
/// network pool, environment timeline and adversarial delivery.
pub struct Simulation<P: Protocol = TobProcess> {
    config: SimConfig,
    tob_config: TobConfig,
    schedule: Schedule,
    adversary: Box<dyn Adversary<P>>,
    procs: Vec<P>,
    keypairs: Vec<Keypair>,
    network: Network,
    global_tree: BlockTree,
    /// The observer pipeline: the built-in monitors (safety, per-window
    /// resilience, tx ledger, decision ledger, round trace) in fixed
    /// order, then user observers in registration order. The final
    /// [`SimReport`] is assembled from these at [`Simulation::finish`].
    observers: Vec<Box<dyn Observer<P>>>,
    /// Whether any registered observer opted into per-envelope
    /// [`SimEvent::EnvelopeDelivered`] events (checked once at build so
    /// the zero-copy delivery path stays event-free by default).
    wants_deliveries: bool,
    /// One disruption per timeline window/partition (start order) —
    /// drives the `WindowEnter`/`WindowExit` events.
    disruptions: Vec<Disruption>,
    /// Cached Byzantine keypair set: `(corrupted processes, their
    /// keypairs)`. Corruption sets change at most a handful of times per
    /// run (growing adversary / corruption windows), so the per-round
    /// keypair clones are hoisted into this cache and rebuilt only when
    /// the set itself changes — not twice per asynchronous round.
    byz_cache: (Vec<ProcessId>, Vec<Keypair>),
    /// The workload injector, when a workload (or the legacy `txs_every`
    /// shim) is configured: the one seam allowed to call `submit_tx`.
    workload: Option<WorkloadInjector>,
    tx_counter: u64,
    /// The next round to execute (`step` cursor); the run is complete
    /// once it passes the horizon.
    next: u64,
}

/// Dispatches one event to every observer, in order, then forwards
/// whatever that dispatch emitted (violations, mostly) the same way —
/// each emitted event right after the event that caused it — until
/// nothing more is emitted.
fn dispatch<P: Protocol>(
    observers: &mut [Box<dyn Observer<P>>],
    ctx: &ObsCtx<'_, P>,
    event: &SimEvent,
) {
    let mut emitted = Vec::new();
    for o in observers.iter_mut() {
        o.on_event(ctx, event, &mut emitted);
    }
    for event in &emitted {
        dispatch(observers, ctx, event);
    }
}

/// Builds the observer read-context for the current round. A macro rather
/// than a method so the borrow stays scoped to the named fields (the
/// observer pipeline is borrowed mutably at the same time). The
/// three-argument form takes a pre-read `messages_sent`, for use while
/// the network itself is mutably borrowed (mid-delivery narration).
macro_rules! obs_ctx {
    ($sim:expr, $env:expr) => {
        obs_ctx!($sim, $env, $sim.network.messages_sent())
    };
    ($sim:expr, $env:expr, $sent:expr) => {
        ObsCtx {
            env: $env,
            processes: &$sim.procs,
            schedule: &$sim.schedule,
            global_tree: &$sim.global_tree,
            messages_sent: $sent,
        }
    };
}

/// Builds the adversary's full-knowledge context for the current round —
/// a macro for the same reason as [`obs_ctx!`]: the adversary itself is
/// borrowed mutably while the context is alive.
macro_rules! adv_ctx {
    ($sim:expr, $round:expr, $env:expr, $corrupted:expr) => {
        AdversaryCtx {
            round: $round,
            env: $env,
            corrupted: $corrupted,
            keypairs: &$sim.byz_cache.1,
            processes: &$sim.procs,
            schedule: &$sim.schedule,
            global_tree: &$sim.global_tree,
            config: &$sim.tob_config,
        }
    };
}

/// Keeps the global tree complete (the monitors' and the full-knowledge
/// adversary's view): every block ever proposed enters it, including ones
/// only a corrupted machine or the adversary built.
fn absorb_proposal(global_tree: &mut BlockTree, envelope: &Envelope) {
    if let Payload::Propose(prop) = envelope.payload() {
        st_core::BlockBuffer::new().insert(global_tree, prop.block_arc().clone());
    }
}

/// What one receiver gets in a round's receive phase — decided for every
/// receiver in one immutable planning pass ([`Simulation::plan_deliveries`])
/// before any process state changes, then applied in one loop.
enum DeliveryPlan {
    /// Everything not yet delivered, in pool order: the synchronous,
    /// unpartitioned round. No payload, so the common case never allocates.
    Sweep,
    /// Exactly these pool indices; everything else stays queued —
    /// delayed, never lost. Adversarial asynchrony, and every partitioned
    /// round (cross-group traffic arrives once the partition heals).
    Marked(Vec<usize>),
    /// Everything whose `delta`-round deadline has passed, plus the
    /// `early` indices whose sampled delay elapsed this round.
    Deadline { delta: u64, early: Vec<usize> },
}

impl<P: Protocol> Simulation<P> {
    /// Validates and assembles a simulation (the [`crate::SimBuilder`]
    /// back end).
    pub(crate) fn assemble(
        config: SimConfig,
        schedule: Schedule,
        adversary: Box<dyn Adversary<P>>,
        user_observers: Vec<Box<dyn Observer<P>>>,
        workload: Option<WorkloadSpec>,
    ) -> Result<Simulation<P>, BuildError> {
        let n = config.params.n();
        if schedule.n() != n {
            return Err(BuildError::ScheduleMismatch {
                expected: n,
                got: schedule.n(),
            });
        }
        for part in config.timeline.partitions() {
            if let Some(&p) = part.groups().iter().flatten().find(|p| p.index() >= n) {
                return Err(BuildError::PartitionMemberOutOfRange { member: p, n });
            }
        }
        let tob_config = TobConfig::new(config.params, config.seed);
        let procs: Vec<P> = ProcessId::all(n)
            .map(|p| P::new(p, tob_config.clone()))
            .collect();
        let keypairs: Vec<Keypair> = ProcessId::all(n)
            .map(|p| Keypair::derive(p, config.seed))
            .collect();
        let disruptions = config.timeline.disruptions();
        let mut observers: Vec<Box<dyn Observer<P>>> = vec![
            Box::new(SafetyObserver::default()),
            Box::new(ResilienceObserver::new(&config.timeline)),
            Box::new(TxLedger::new(n)),
            Box::new(DecisionLedger::new(n)),
            Box::new(TraceObserver::default()),
        ];
        // An explicit workload wins over the legacy `txs_every` knob;
        // the knob itself is re-expressed as a ConstantRate shim through
        // the same injector. The workload ledger (mempool accounting,
        // latency join) sits between the built-ins and user observers so
        // user probes still run last.
        let workload = workload.or_else(|| config.txs_every.map(WorkloadSpec::legacy_shim));
        let workload = workload.map(WorkloadInjector::new);
        if let Some(inj) = &workload {
            observers.push(Box::new(inj.observer()));
        }
        observers.extend(user_observers);
        let wants_deliveries = observers.iter().any(|o| o.wants_delivery_events());
        Ok(Simulation {
            config,
            tob_config,
            schedule,
            adversary,
            procs,
            keypairs,
            network: Network::new(n),
            global_tree: BlockTree::new(),
            observers,
            wants_deliveries,
            disruptions,
            byz_cache: (Vec::new(), Vec::new()),
            workload,
            tx_counter: 0,
            next: 0,
        })
    }

    /// Executes rounds `0..=horizon` and produces the report — the
    /// one-shot composition of [`Simulation::step`] and
    /// [`Simulation::finish`].
    pub fn run(mut self) -> SimReport {
        while self.step().is_some() {}
        self.finish()
    }

    /// Executes the next round and returns it, or `None` once every round
    /// up to the horizon has run.
    pub fn step(&mut self) -> Option<Round> {
        if self.next > self.config.horizon {
            return None;
        }
        let round = Round::new(self.next);
        self.step_round(round);
        self.next += 1;
        Some(round)
    }

    /// Executes rounds up to **and including** `round` (clamped to the
    /// horizon). A no-op if execution has already passed it.
    pub fn run_until(&mut self, round: Round) {
        // stlint::allow(deadpub, reason = "the stepping API the step-vs-run byte-identity guards drive (determinism_equivalence.rs, stepping_equivalence.rs)")
        while self.next <= self.config.horizon && self.next <= round.as_u64() {
            self.step();
        }
    }

    /// The next round [`Simulation::step`] would execute, or `None` once
    /// the run is complete.
    pub fn next_round(&self) -> Option<Round> {
        // stlint::allow(deadpub, reason = "the stepping API's position query, asserted by stepping_equivalence.rs and observer_api.rs")
        (self.next <= self.config.horizon).then(|| Round::new(self.next))
    }

    /// Whether every round up to the horizon has executed.
    pub fn is_done(&self) -> bool {
        // stlint::allow(deadpub, reason = "the stepping API's completion query, asserted by the step-vs-run guards")
        self.next > self.config.horizon
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The participation/corruption schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Mutable access to the schedule **between steps** — mid-run
    /// interventions (flipping participation, corrupting a process from
    /// the next round on) are first-class: pause with
    /// [`Simulation::run_until`], mutate, continue stepping. The
    /// replacement schedule must cover the same `n` processes.
    ///
    /// # Panics
    ///
    /// Does not panic itself, but later steps panic if the schedule is
    /// swapped for one covering a different process count.
    pub fn schedule_mut(&mut self) -> &mut Schedule {
        // stlint::allow(deadpub, reason = "the mid-run intervention observer_api.rs exercises (pause, flip participation, continue)")
        &mut self.schedule
    }

    /// Read-only view of every process's state (mid-run inspection).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// Read-only view of the network (mid-run inspection; the
    /// bounded-memory regression suite watches the pool backlog).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// One round, as a sequence of phases.
    fn step_round(&mut self, round: Round) {
        let env = self.config.timeline.view_at(round);
        self.narrate_round_start(round, env);
        let corrupted = self.schedule.byzantine(round);
        self.inject_workload(round, env);

        let honest = self.schedule.honest_awake(round);
        let tallies = self.share_tallies(round, &honest);

        self.send_honest(round, &honest);
        self.send_corrupted(round, env, &corrupted);

        // Decisions happen in step_send.
        self.observe_decisions(round, env);

        let delivered = self.deliver(round, env, &corrupted);
        // Drop the pool prefix every delivery cursor has passed.
        self.network.compact();

        self.narrate_round_end(round, env, delivered, tallies);
    }

    /// Narrates one event to every observer, in order.
    fn narrate(&mut self, env: EnvView, event: SimEvent) {
        let ctx = obs_ctx!(self, env);
        dispatch(&mut self.observers, &ctx, &event);
    }

    /// `RoundStart`, then one `WindowEnter` per disruption opening now.
    fn narrate_round_start(&mut self, round: Round, env: EnvView) {
        self.narrate(env, SimEvent::RoundStart { round });
        for index in 0..self.disruptions.len() {
            let disruption = self.disruptions[index];
            if disruption.start == round {
                self.narrate(env, SimEvent::WindowEnter { index, disruption });
            }
        }
    }

    /// One `WindowExit` per disruption closing now, then `RoundEnd` with
    /// the round's delivery and shared-tally `(hits, misses)` counts (the
    /// tx ledger's inclusion bookkeeping and the round trace's sample
    /// both hang off `RoundEnd`, in observer order).
    fn narrate_round_end(
        &mut self,
        round: Round,
        env: EnvView,
        delivered: usize,
        (tally_cache_hits, tally_cache_misses): (u64, u64),
    ) {
        for index in 0..self.disruptions.len() {
            let disruption = self.disruptions[index];
            if disruption.end == round {
                self.narrate(env, SimEvent::WindowExit { index, disruption });
            }
        }
        self.narrate(
            env,
            SimEvent::RoundEnd {
                round,
                delivered,
                tally_cache_hits,
                tally_cache_misses,
            },
        );
    }

    /// Transaction workload: the injector offers this round's open-loop
    /// arrivals to the mempool and drains the submission batch; each
    /// drained transaction reaches every honest awake process's mempool
    /// (modelling transaction gossip, which floods independently of the
    /// consensus rounds). The `TxSubmitted` event carries the
    /// transaction's mempool *arrival* round, so downstream latency
    /// includes the queueing delay; under the legacy `txs_every` shim
    /// arrival and drain coincide.
    fn inject_workload(&mut self, round: Round, env: EnvView) {
        let Some(injector) = self.workload.as_mut() else {
            return;
        };
        let targets = self.schedule.honest_awake(round);
        for pending in injector.step(round.as_u64(), !targets.is_empty()) {
            self.tx_counter += 1;
            let tx = TxId::new(self.tx_counter);
            for &target in &targets {
                self.procs[target.index()].submit_tx(tx);
            }
            let arrived = Round::new(pending.arrived);
            self.narrate(env, SimEvent::TxSubmitted { tx, round: arrived });
        }
    }

    /// Shared once-per-round tally: every honest awake process looks its
    /// tally-relevant state up in one round-scoped memo
    /// ([`Protocol::share_tally`]); the first process with a given state
    /// computes the tally, everyone else with that state adopts it, and
    /// `step_send` consumes it instead of recomputing. The certificate is
    /// content equality alone — the tally is a function of the vote
    /// store, the block tree and the run's parameters, and the memo key
    /// digests the first two — so it holds in every kind of round
    /// (synchronous, asynchronous, bounded-delay, partitioned) and for
    /// any delivery history; `TallyOracle` checks it against the
    /// stateless reference. Returns the round's `(hits, misses)`: the
    /// processes that adopted a memoised tally and those that computed
    /// one (both zero in round 0, which has no tally).
    fn share_tallies(&mut self, round: Round, honest: &[ProcessId]) -> (u64, u64) {
        if round == Round::ZERO {
            return (0, 0);
        }
        let mut memo = BTreeMap::new();
        let mut hits = 0u64;
        for &p in honest {
            hits += u64::from(self.procs[p.index()].share_tally(round, &mut memo));
        }
        (hits, honest.len() as u64 - hits)
    }

    /// Send phase, honest processes: each envelope moves into one shared
    /// pool allocation (the process already recorded its own multicast
    /// locally).
    fn send_honest(&mut self, round: Round, honest: &[ProcessId]) {
        for &p in honest {
            for env in self.procs[p.index()].step_send(round) {
                absorb_proposal(&mut self.global_tree, &env);
                self.network.send(round, p, Recipients::All, env);
            }
        }
    }

    /// Send phase, corrupted machines and the adversary that speaks for
    /// them.
    ///
    /// A corrupted process's *machine* keeps executing the honest code
    /// (Byzantine processes never sleep; the adversary controls the wire,
    /// not the silicon): its output is discarded — the adversary speaks
    /// for it via `Adversary::send` — but its internal state keeps
    /// advancing, so a process whose corruption ends (windowed
    /// corruption, churn experiments) resumes from live state. Discarded
    /// proposals still enter the global tree.
    fn send_corrupted(&mut self, round: Round, env: EnvView, corrupted: &[ProcessId]) {
        for &p in corrupted {
            for discarded in self.procs[p.index()].step_send(round) {
                absorb_proposal(&mut self.global_tree, &discarded);
            }
        }
        // The Byzantine keypair cache is rebuilt iff the corrupted set
        // changed, which is also exactly when observers hear about it.
        if self.byz_cache.0 != corrupted {
            self.byz_cache.0 = corrupted.to_vec();
            self.byz_cache.1 = corrupted
                .iter()
                .map(|p| self.keypairs[p.index()].clone())
                .collect();
            let corrupted = corrupted.to_vec();
            self.narrate(env, SimEvent::CorruptionChange { round, corrupted });
        }
        let ctx = adv_ctx!(self, round, env, corrupted);
        for msg in self.adversary.send(&ctx) {
            let sender = msg.envelope.payload().sender();
            // The adversary can only author messages from corrupted
            // processes; anything else would be a forgery.
            assert!(
                corrupted.contains(&sender),
                "adversary attempted to send as uncorrupted {sender}"
            );
            absorb_proposal(&mut self.global_tree, &msg.envelope);
            self.network
                .send(round, sender, msg.recipients, msg.envelope);
        }
    }

    /// Receive phase for the processes awake at the END of this round
    /// (i.e. at the beginning of `round + 1`): plan what every honest
    /// receiver gets, apply the plans, then feed the corrupted machines.
    /// Returns the number of envelopes delivered to honest receivers.
    fn deliver(&mut self, round: Round, env: EnvView, corrupted: &[ProcessId]) -> usize {
        let next = round.next();
        let receivers: Vec<ProcessId> = ProcessId::all(self.schedule.n())
            .filter(|&p| self.schedule.is_awake(p, next) && !self.schedule.is_byzantine(p, next))
            .collect();
        let plans = self.plan_deliveries(round, env, corrupted, &receivers);

        let messages_sent = self.network.messages_sent();
        let mut delivered = 0usize;
        for (&p, plan) in receivers.iter().zip(plans) {
            let receive = |envelope: &SharedEnvelope| {
                self.procs[p.index()].on_receive_shared(envelope);
                if self.wants_deliveries {
                    let ctx = obs_ctx!(self, env, messages_sent);
                    let event = SimEvent::EnvelopeDelivered {
                        receiver: p,
                        sender: envelope.payload().sender(),
                    };
                    dispatch(&mut self.observers, &ctx, &event);
                }
            };
            let batch = match plan {
                DeliveryPlan::Sweep => {
                    delivered += self.network.deliver_sync_with(p, round, receive);
                    continue;
                }
                DeliveryPlan::Marked(chosen) => self.network.deliver_async(p, round, &chosen),
                DeliveryPlan::Deadline { delta, early } => {
                    self.network.deliver_bounded(p, round, delta, &early)
                }
            };
            batch.iter().for_each(receive);
            delivered += batch.len();
        }

        // Corrupted machines receive everything regardless of the round's
        // synchrony — the full-knowledge adversary already sees the whole
        // pool, so feeding its machines the complete traffic models that
        // knowledge (and keeps their delivery cursors advancing, which is
        // what lets the pool compact under static corruption). Not
        // counted and not narrated.
        for p in self.schedule.byzantine(next) {
            let machine = &mut self.procs[p.index()];
            self.network
                .deliver_sync_with(p, round, |envelope| machine.on_receive_shared(envelope));
        }
        delivered
    }

    /// The planning pass: one [`DeliveryPlan`] per receiver, computed
    /// against the state at the end of the send phase. Owns every
    /// environment decision about delivery — the partition reachability
    /// filter, the adversary's `deliver` (asynchrony) and `delay`
    /// (bounded delay) hooks, and the seeded default delay.
    fn plan_deliveries(
        &mut self,
        round: Round,
        env: EnvView,
        corrupted: &[ProcessId],
        receivers: &[ProcessId],
    ) -> Vec<DeliveryPlan> {
        // Partition reachability as a dense group map (two array reads
        // per (sender, receiver) pair).
        let groups: Option<Vec<u32>> = self
            .config
            .timeline
            .partition_at(round)
            .map(|p| p.group_map(self.schedule.n()));
        if groups.is_none() && matches!(env.kind, SegmentKind::Synchronous) {
            return receivers.iter().map(|_| DeliveryPlan::Sweep).collect();
        }
        let seed = self.config.seed;
        let ctx = adv_ctx!(self, round, env, corrupted);
        let mut plans = Vec::with_capacity(receivers.len());
        for &p in receivers {
            let available = self.network.available_for(p, round);
            let reachable = |m: &&SentMessage| match &groups {
                Some(g) => g[m.sender.index()] == g[p.index()],
                None => true,
            };
            plans.push(match env.kind {
                SegmentKind::Synchronous => DeliveryPlan::Marked(
                    (available.iter().copied().filter(reachable))
                        .map(|m| m.index)
                        .collect(),
                ),
                SegmentKind::Asynchronous => {
                    // An active partition constrains the adversary: it
                    // cannot deliver across the cut.
                    let mut chosen = self.adversary.deliver(&ctx, p, &available);
                    if groups.is_some() {
                        let reach: FastSet<usize> = (available.iter().copied().filter(reachable))
                            .map(|m| m.index)
                            .collect();
                        chosen.retain(|i| reach.contains(i));
                    }
                    DeliveryPlan::Marked(chosen)
                }
                SegmentKind::BoundedDelay { delta } => {
                    // A message becomes *due* once its delay elapses:
                    // adversary-chosen within the bound, else
                    // deterministic per (message, receiver) from the run
                    // seed. The network enforces the deadline regardless.
                    let mut early = Vec::with_capacity(available.len());
                    for m in available.iter().copied().filter(reachable) {
                        let d = (self.adversary.delay(&ctx, p, m, delta))
                            .map(|d| d.min(delta))
                            .unwrap_or_else(|| bounded_delay_of(seed, m.index, p, delta));
                        if m.round.as_u64() + d <= round.as_u64() {
                            early.push(m.index);
                        }
                    }
                    // The deadline must not force messages across the
                    // cut: partitioned rounds mark instead, and the
                    // backlog arrives when the partition heals.
                    if groups.is_some() {
                        DeliveryPlan::Marked(early)
                    } else {
                        DeliveryPlan::Deadline { delta, early }
                    }
                }
            });
        }
        plans
    }

    /// Drains new decision events from every process into the observer
    /// pipeline; the violations each one triggers follow it directly.
    fn observe_decisions(&mut self, round: Round, env: EnvView) {
        for process in ProcessId::all(self.schedule.n()) {
            // Corrupted processes' "decisions" don't count for safety —
            // the definitions quantify over well-behaved processes. The
            // cursor still advances past them: a process corrupted at
            // round r and honest again at r′ must not have its
            // Byzantine-era events replayed into the monitors as honest
            // decisions the moment it recovers: drain, then discard.
            let events = self.procs[process.index()].drain_decisions();
            if self.schedule.is_byzantine(process, round) {
                continue;
            }
            for decision in events {
                self.narrate(env, SimEvent::DecisionObserved { process, decision });
            }
        }
    }

    /// Assembles the report from the observer pipeline. Callable after
    /// any number of steps: a full run reports exactly what
    /// [`Simulation::run`] would; an early finish reports the rounds
    /// executed so far. `rounds_run` is the last executed round, so it
    /// is 0 both when only round 0 ran and when nothing ran at all —
    /// the two are distinguished by `timeline.is_empty()` (no rounds
    /// executed ⇒ no samples, and every end-state field reads the
    /// initial state).
    pub fn finish(mut self) -> SimReport {
        // Only well-behaved processes vouch for the final height — a
        // process still Byzantine at the last executed round reports
        // whatever the adversary's tree says, and must not inflate the
        // result (the trace's `max_decided_height` applies the same
        // filter per round).
        let last = Round::new(self.next.saturating_sub(1));
        let final_decided_height = ProcessId::all(self.schedule.n())
            .filter(|&p| !self.schedule.is_byzantine(p, last))
            .map(|p| {
                let proc = &self.procs[p.index()];
                proc.tree().height(proc.decided_tip()).unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let mut report = SimReport {
            adversary: self.adversary.name().to_string(),
            rounds_run: last.as_u64(),
            final_decided_height,
            messages_sent: self.network.messages_sent(),
            ..SimReport::default()
        };
        let env = self.config.timeline.view_at(last);
        let ctx = obs_ctx!(self, env);
        for o in self.observers.iter_mut() {
            o.finish(&ctx, &mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BlackoutAdversary, PartitionAttacker, SilentAdversary};
    use crate::builder::SimBuilder;

    /// Test shorthand for the builder chain the whole suite uses.
    fn sim(
        config: SimConfig,
        schedule: Schedule,
        adversary: impl Adversary + 'static,
    ) -> Simulation {
        SimBuilder::from_config(config)
            .schedule(schedule)
            .adversary(adversary)
            .build()
            .expect("valid test simulation")
    }

    fn params(n: usize, eta: u64) -> Params {
        Params::builder(n).expiration(eta).build().unwrap()
    }

    #[test]
    fn synchronous_full_participation_is_safe_and_live() {
        let report = sim(
            SimConfig::new(params(8, 2), 1).horizon(30).txs_every(4),
            Schedule::full(8, 30),
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe());
        assert!(report.decisions_total > 0);
        assert!(report.final_decided_height > 0);
        assert!(
            report.tx_inclusion_rate() > 0.7,
            "rate {}",
            report.tx_inclusion_rate()
        );
    }

    #[test]
    fn mass_sleep_keeps_protocol_alive() {
        // 60% of processes sleep for rounds 10..=20 — the protocol keeps
        // deciding (dynamic availability).
        let report = sim(
            SimConfig::new(params(10, 0), 3).horizon(40),
            Schedule::mass_sleep(10, 40, 0.6, 10, 20),
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe());
        // Decisions continue during the incident: far more deciding rounds
        // than just before/after.
        assert!(
            report.deciding_rounds > 15,
            "{} deciding rounds",
            report.deciding_rounds
        );
    }

    #[test]
    fn partition_attack_breaks_vanilla_mmr() {
        // η = 0, a 4-round partition window starting at an even round:
        // the two halves diverge and decide conflicting logs (the
        // Section-1 attack).
        let n = 8;
        let report = sim(
            SimConfig::new(params(n, 0), 5)
                .horizon(22)
                .async_window(AsyncWindow::new(Round::new(10), 4)),
            Schedule::full(n, 22),
            PartitionAttacker::new(),
        )
        .run();
        assert!(
            !report.safety_violations.is_empty(),
            "vanilla MMR survived the partition attack"
        );
        // Note: the halves diverge *forward* (both extend D_ra), so this
        // breaks agreement (Definition 2) without necessarily conflicting
        // with D_ra itself; the strict Definition-5 violation is exercised
        // by the reorg attack below.
    }

    #[test]
    fn partition_attack_fails_against_expiration() {
        // Same attack, η = 6 > π = 4: Theorem 2 says safety holds.
        let n = 8;
        let report = sim(
            SimConfig::new(params(n, 6), 5)
                .horizon(28)
                .async_window(AsyncWindow::new(Round::new(10), 4)),
            Schedule::full(n, 28),
            PartitionAttacker::new(),
        )
        .run();
        assert!(
            report.is_safe(),
            "extended protocol lost safety: {:?}",
            report.safety_violations
        );
        assert!(report.is_asynchrony_resilient());
        // And it heals: decisions resume after the window.
        assert!(report.recovered_after_every_window());
    }

    #[test]
    fn blackout_partition_defeats_insufficient_expiration() {
        // π ≥ η + play length: a blackout of η rounds expires the
        // protective votes, then the partition play splits the halves —
        // the extended protocol with η ≤ π loses agreement.
        let n = 8;
        let eta = 3;
        let report = sim(
            SimConfig::new(params(n, eta), 5)
                .horizon(34)
                .async_window(AsyncWindow::new(Round::new(10), eta + 8)),
            Schedule::full(n, 34),
            PartitionAttacker::with_blackout(eta + 1),
        )
        .run();
        assert!(
            !report.safety_violations.is_empty(),
            "η ≤ π should be attackable (Theorem 2 bound)"
        );
    }

    #[test]
    fn reorg_attack_violates_definition_5_on_vanilla() {
        // One asynchronous round, f = 3 Byzantine of n = 10: honest
        // processes decide a genesis-fork conflicting with their earlier
        // decisions — the strict Definition 5 violation.
        let n = 10;
        let schedule = Schedule::full(n, 20).with_static_byzantine(3);
        let report = sim(
            SimConfig::new(params(n, 0), 5)
                .horizon(20)
                .async_window(AsyncWindow::new(Round::new(10), 1)),
            schedule,
            crate::adversary::ReorgAttacker::new(),
        )
        .run();
        assert!(
            !report.resilience_violations.is_empty(),
            "vanilla MMR survived the reorg attack"
        );
    }

    #[test]
    fn reorg_attack_fails_against_expiration() {
        let n = 10;
        let schedule = Schedule::full(n, 24).with_static_byzantine(3);
        let report = sim(
            SimConfig::new(params(n, 4), 5)
                .horizon(24)
                .async_window(AsyncWindow::new(Round::new(10), 1)),
            schedule,
            crate::adversary::ReorgAttacker::new(),
        )
        .run();
        assert!(report.is_safe());
        assert!(
            report.is_asynchrony_resilient(),
            "η = 4 > π = 1 should resist the reorg attack: {:?}",
            report.resilience_violations
        );
    }

    #[test]
    fn blackout_preserves_safety_and_heals() {
        let n = 6;
        let report = sim(
            SimConfig::new(params(n, 4), 9)
                .horizon(30)
                .async_window(AsyncWindow::new(Round::new(9), 3)),
            Schedule::full(n, 30),
            BlackoutAdversary,
        )
        .run();
        assert!(report.is_safe());
        assert!(report.is_asynchrony_resilient());
        let lag = report.max_recovery_rounds().expect("decisions resume");
        assert!(lag <= 4, "healing took {lag} rounds");
    }

    #[test]
    fn recovered_process_does_not_replay_byzantine_era_decisions() {
        // p3 is corrupted for rounds 8..=19 and honest again from 20. Its
        // machine keeps running while corrupted (it receives everything
        // and keeps deciding internally), but those Byzantine-era events
        // must be *skipped*, not replayed into the monitors as honest
        // decisions the moment it recovers: the decision cursor advances
        // during corruption.
        let n = 6;
        let horizon = 40;
        let p3 = ProcessId::new(3);
        let schedule =
            Schedule::full(n, horizon).with_corrupted_window(p3, Round::new(8), Round::new(20));
        let report = sim(
            SimConfig::new(params(n, 2), 13).horizon(horizon),
            schedule,
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe());
        // An always-honest peer observed decisions throughout; p3's
        // observed count must be smaller by roughly the corrupted views
        // (≈ 6 views in rounds 8..=19). With the pre-fix behaviour the
        // backlog flushes at recovery and the counts come out equal.
        let honest_peer = report.per_process_decisions[0];
        let recovered = report.per_process_decisions[3];
        assert!(
            recovered + 4 <= honest_peer,
            "Byzantine-era decisions were replayed as honest: p3 observed {recovered}, p0 {honest_peer}"
        );
        // After recovery it decides again (the machine stayed live).
        assert!(recovered > 0, "recovered process never decided");
    }

    #[test]
    fn final_height_only_counts_processes_honest_at_horizon() {
        // Everyone is corrupted exactly at the horizon round: no
        // well-behaved process vouches for a final height, so the report
        // must say 0 — the adversary's trees don't get to inflate it —
        // even though plenty of honest decisions happened earlier.
        let n = 6;
        let horizon = 30;
        let mut schedule = Schedule::full(n, horizon);
        for p in 0..n as u32 {
            schedule = schedule.with_corrupted_window(
                ProcessId::new(p),
                Round::new(horizon),
                Round::new(horizon + 1),
            );
        }
        let report = sim(
            SimConfig::new(params(n, 2), 7).horizon(horizon),
            schedule,
            SilentAdversary,
        )
        .run();
        assert!(
            report.decisions_total > 0,
            "no honest decisions before the horizon"
        );
        assert_eq!(
            report.final_decided_height, 0,
            "Byzantine-at-horizon trees inflated the final height"
        );
        // The per-round timeline (which applies the same filter) agrees:
        // honest heights were nonzero while honesty lasted.
        assert!(
            report
                .timeline
                .at(Round::new(horizon - 1))
                .unwrap()
                .max_decided_height
                > 0
        );
    }

    #[test]
    fn timeline_tracks_execution() {
        let report = sim(
            SimConfig::new(params(8, 2), 1)
                .horizon(20)
                .async_window(AsyncWindow::new(Round::new(10), 2)),
            Schedule::mass_sleep(8, 20, 0.5, 4, 8),
            SilentAdversary,
        )
        .run();
        let t = &report.timeline;
        assert_eq!(t.len(), 21); // rounds 0..=20
                                 // Participation drop is visible.
        assert_eq!(t.at(Round::new(3)).unwrap().honest_awake, 8);
        assert_eq!(t.at(Round::new(5)).unwrap().honest_awake, 4);
        // Async flags line up with the window.
        assert!(t.at(Round::new(10)).unwrap().is_async);
        assert!(t.at(Round::new(11)).unwrap().is_async);
        assert!(!t.at(Round::new(12)).unwrap().is_async);
        // Message counts add up to the report total.
        assert_eq!(t.total_messages(), report.messages_sent);
        // The chain grew overall and the series is monotone in max height.
        let mut prev = 0;
        for s in t.samples() {
            assert!(s.max_decided_height >= prev);
            prev = s.max_decided_height;
        }
        assert!(t.growth_in(Round::new(0), Round::new(20)) > 5);
    }

    /// The acceptance shape of the paper's central claim: a run with
    /// **two** asynchronous spells produces one recovery record per
    /// spell, each showing a post-window decision, with zero safety or
    /// Definition-5 violations under the paper's parameter regime
    /// (`η = 6 > π = 4`).
    #[test]
    fn multi_window_run_yields_one_recovery_record_per_window() {
        let n = 8;
        let timeline = Timeline::synchronous()
            .asynchronous(Round::new(10), 4)
            .asynchronous(Round::new(24), 4);
        let report = sim(
            SimConfig::new(params(n, 6), 5)
                .horizon(40)
                .timeline(timeline)
                .txs_every(4),
            Schedule::full(n, 40),
            PartitionAttacker::new(),
        )
        .run();
        assert!(report.is_safe(), "{:?}", report.safety_violations);
        assert!(report.is_asynchrony_resilient());
        assert_eq!(report.recoveries.len(), 2);
        for rec in &report.recoveries {
            assert_eq!(rec.kind, "async");
            assert_eq!(rec.violations, 0);
            assert!(
                rec.first_decision_after.is_some(),
                "no recovery after window starting {:?}",
                rec.start
            );
            assert!(rec.recovery_rounds.unwrap() <= 4, "slow heal: {rec:?}");
        }
        assert!(report.recovered_after_every_window());
        assert!(report.max_recovery_rounds().unwrap() <= 4);
    }

    #[test]
    fn bounded_delay_window_preserves_safety_and_recovers() {
        // A Δ = 2 bounded-delay spell under η = 4 > Δ: every message is
        // at most 2 rounds late, expiration covers the gap — safe, and
        // the spell gets its own recovery record.
        let n = 8;
        let timeline = Timeline::synchronous().bounded_delay(Round::new(10), 8, 2);
        let report = sim(
            SimConfig::new(params(n, 4), 7)
                .horizon(34)
                .timeline(timeline),
            Schedule::full(n, 34),
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe(), "{:?}", report.safety_violations);
        assert!(report.is_asynchrony_resilient());
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].kind, "bounded-delay");
        assert!(report.recoveries[0].first_decision_after.is_some());
        // The trace labels the bounded rounds.
        assert_eq!(report.timeline.at(Round::new(12)).unwrap().delta, Some(2));
        assert!(!report.timeline.at(Round::new(12)).unwrap().is_async);
        assert_eq!(report.timeline.at(Round::new(9)).unwrap().delta, None);
    }

    #[test]
    fn environment_partition_reproduces_the_section_1_attack() {
        // A parity partition as a pure *environment* event — no adversary
        // at all: vanilla MMR (η = 0) loses agreement, exactly like the
        // PartitionAttacker, because each half perceives unanimity on its
        // own chain.
        let n = 8;
        let evens: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() % 2 == 0).collect();
        let timeline = Timeline::synchronous().partition(Round::new(10), 4, vec![evens.clone()]);
        let report = sim(
            SimConfig::new(params(n, 0), 5)
                .horizon(22)
                .timeline(timeline.clone()),
            Schedule::full(n, 22),
            SilentAdversary,
        )
        .run();
        assert!(
            !report.safety_violations.is_empty(),
            "vanilla MMR survived the environment partition"
        );
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].kind, "partition");
        assert!(report.timeline.at(Round::new(11)).unwrap().partitioned);

        // The same partition against η = 6 > 4: Theorem 2's mechanism
        // protects agreement, and the cross-cut backlog arrives after the
        // partition heals (messages delayed, never lost).
        let report = sim(
            SimConfig::new(params(n, 6), 5)
                .horizon(28)
                .timeline(timeline),
            Schedule::full(n, 28),
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe(), "{:?}", report.safety_violations);
        assert!(report.is_asynchrony_resilient());
        assert!(report.recovered_after_every_window());
    }

    #[test]
    fn mixed_timeline_orders_recovery_records_by_start() {
        let n = 8;
        let evens: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() % 2 == 0).collect();
        let timeline = Timeline::synchronous()
            .bounded_delay(Round::new(24), 4, 2)
            .asynchronous(Round::new(10), 3)
            .partition(Round::new(17), 3, vec![evens]);
        let report = sim(
            SimConfig::new(params(n, 6), 11)
                .horizon(40)
                .timeline(timeline),
            Schedule::full(n, 40),
            SilentAdversary,
        )
        .run();
        assert!(report.is_safe());
        let kinds: Vec<&str> = report.recoveries.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, vec!["async", "partition", "bounded-delay"]);
        assert!(report.recovered_after_every_window());
    }

    #[test]
    fn async_window_accessors() {
        let w = AsyncWindow::new(Round::new(5), 3);
        assert_eq!(w.ra(), Round::new(4));
        assert_eq!(w.start(), Round::new(5));
        assert_eq!(w.end(), Round::new(7));
        assert_eq!(w.pi(), 3);
        assert!(w.contains(Round::new(5)));
        assert!(w.contains(Round::new(7)));
        assert!(!w.contains(Round::new(8)));
        assert!(!w.contains(Round::new(4)));
    }
}
