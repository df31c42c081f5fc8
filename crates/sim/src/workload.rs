//! The workload layer threaded into the round loop: open-loop
//! generators feeding a bounded mempool feeding `submit_tx`, with
//! submit→decide latency accounting on the way out.
//!
//! Two pieces cooperate, split along the runner's mutability seam:
//!
//! * [`WorkloadSpec`] + the injector own the **write** side. Observers
//!   see processes read-only by design (the [`crate::ObsCtx`] contract),
//!   so the one place that must call `submit_tx` is a small runner-held
//!   injector invoked at the start of every round: it asks the
//!   [`Workload`] for arrivals, offers them to the [`Mempool`], and —
//!   when an honest proposer is awake — drains a batch for submission.
//! * The workload ledger, an observer sharing the injector's mempool
//!   handle (the `DecisionTap` idiom), owns the **read** side. At finish
//!   it publishes admission/drop/occupancy statistics into
//!   [`SimReport::workload`](crate::SimReport), then joins submit rounds
//!   against decided rounds: each drained transaction's `TxSubmitted`
//!   event carries its mempool *arrival* round (not the drain round), so
//!   the tx ledger's `decided_round` minus `submitted` is the full
//!   client-observed latency — queueing delay included, which is what
//!   makes saturation knees visible in the percentiles.
//!
//! [`WorkloadSpec::txs_every`] is the named workload for "one
//! transaction every `k` rounds": `ConstantRate::every(k)` with unbounded
//! admission, unbounded batch, and arrivals dropped while every honest
//! process sleeps — the rule st-node's `ClusterPlan::tx_for_round`
//! applies too, so a simulated run and a socket cluster submit the same
//! transactions.

use crate::monitor::SimReport;
use crate::observer::{ObsCtx, Observer, SimEvent};
use crate::schedule::Schedule;
use serde::Serialize;
use st_load::{Histogram, Mempool, PendingTx, Workload};
use std::cell::RefCell;
use std::rc::Rc;

/// Default mempool capacity when none is configured.
pub const DEFAULT_MEMPOOL_CAPACITY: usize = 1024;
/// Default per-round submission batch when none is configured.
pub const DEFAULT_BATCH: usize = 8;

/// A configured workload: the generator plus the mempool's admission and
/// service parameters. Hand it to
/// [`SimBuilder::workload_spec`](crate::SimBuilder::workload_spec).
pub struct WorkloadSpec {
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) capacity: usize,
    pub(crate) batch: usize,
    /// An arrival in a round where no honest process is awake is dropped
    /// on the floor (the transaction never existed) instead of queueing.
    /// Only [`WorkloadSpec::txs_every`] sets this.
    drop_when_asleep: bool,
}

impl WorkloadSpec {
    /// A spec over `workload` with the default mempool capacity
    /// ([`DEFAULT_MEMPOOL_CAPACITY`]) and batch ([`DEFAULT_BATCH`]).
    pub fn new(workload: impl Workload + 'static) -> WorkloadSpec {
        WorkloadSpec {
            workload: Box::new(workload),
            capacity: DEFAULT_MEMPOOL_CAPACITY,
            batch: DEFAULT_BATCH,
            drop_when_asleep: false,
        }
    }

    /// Sets the mempool capacity cap.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> WorkloadSpec {
        self.capacity = capacity;
        self
    }

    /// Sets the per-round submission batch (the service rate: at most
    /// this many queued transactions reach `submit_tx` per round with an
    /// awake honest proposer).
    #[must_use]
    pub fn batch(mut self, batch: usize) -> WorkloadSpec {
        self.batch = batch.max(1);
        self
    }

    /// One fresh transaction every `k` rounds (`k = 0` counts as 1), to
    /// every honest awake process: one arrival at every round divisible
    /// by `k`, no admission or batch limits, and an arrival offered while
    /// every honest process sleeps is dropped, never queued — the rule
    /// st-node's `ClusterPlan::tx_for_round` applies.
    pub fn txs_every(k: u64) -> WorkloadSpec {
        WorkloadSpec {
            workload: Box::new(st_load::ConstantRate::every(k)),
            capacity: usize::MAX,
            batch: usize::MAX,
            drop_when_asleep: true,
        }
    }
}

/// The runner-held write seam: turns per-round arrivals into admitted
/// mempool entries and drains the submission batch. Shares its mempool
/// with the [`WorkloadLedger`] through an `Rc<RefCell<…>>` handle.
pub(crate) struct WorkloadInjector {
    spec: WorkloadSpec,
    mempool: Rc<RefCell<Mempool>>,
}

impl WorkloadInjector {
    pub(crate) fn new(spec: WorkloadSpec) -> WorkloadInjector {
        let mempool = Rc::new(RefCell::new(Mempool::new(
            spec.capacity,
            spec.workload.clients(),
        )));
        WorkloadInjector { spec, mempool }
    }

    /// The ledger observer wired to this injector's mempool.
    pub(crate) fn observer(&self) -> WorkloadLedger {
        WorkloadLedger {
            mempool: Rc::clone(&self.mempool),
            generator: self.spec.workload.name().to_string(),
            clients: self.spec.workload.clients(),
        }
    }

    /// Runs one round of the workload: offers this round's arrivals,
    /// then — if an honest proposer is awake — drains the submission
    /// batch (each entry still carrying its *arrival* round). With no
    /// awake proposer the queue holds over, except under
    /// [`WorkloadSpec::txs_every`], where the arrivals are dropped
    /// outright.
    pub(crate) fn step(&mut self, round: u64, proposer_awake: bool) -> Vec<PendingTx> {
        let mut mempool = self.mempool.borrow_mut();
        for client in 0..self.spec.workload.clients() {
            for _ in 0..self.spec.workload.arrivals(round, client) {
                if self.spec.drop_when_asleep && !proposer_awake {
                    mempool.note_asleep_drop();
                } else {
                    mempool.offer(client, round);
                }
            }
        }
        if proposer_awake {
            mempool.drain(self.spec.batch)
        } else {
            mempool.hold_over();
            Vec::new()
        }
    }
}

/// Workload accounting in one [`SimReport`], filled by
/// the workload ledger at finish. All counters are zero / `None` on
/// runs without a configured workload.
#[derive(Clone, Debug, Default, Serialize)]
pub struct WorkloadSummary {
    /// Generator name (`"constant-rate"`, `"flash-crowd"`, `"diurnal"`);
    /// empty without a workload.
    pub generator: String,
    /// Number of traffic-generating clients.
    pub clients: usize,
    /// Transactions the generator offered.
    pub offered: u64,
    /// Transactions admitted to the mempool.
    pub admitted: u64,
    /// Admission drops: queue at capacity.
    pub dropped_capacity: u64,
    /// Admission drops: client over its fairness cap.
    pub dropped_fairness: u64,
    /// Arrivals dropped because no honest process was awake
    /// ([`WorkloadSpec::txs_every`] only).
    pub dropped_asleep: u64,
    /// Queue-rounds spent waiting through proposer-less rounds.
    pub held_over: u64,
    /// Transactions drained into `submit_tx`.
    pub submitted: u64,
    /// Transactions still queued at the end of the run.
    pub backlog: u64,
    /// Mempool occupancy high-water mark.
    pub mempool_high_water: usize,
    /// Dropped fraction of offered load (all drop causes combined).
    pub drop_rate: f64,
    /// Submitted transactions that reached some honest decided log.
    pub decided: u64,
    /// Decided transactions per executed round.
    pub throughput: f64,
    /// Exact submit→decide round-latency percentiles (mempool arrival to
    /// first honest decided log), `None` when nothing decided.
    pub latency_p50: Option<u64>,
    /// 90th percentile of the same distribution.
    pub latency_p90: Option<u64>,
    /// 99th percentile of the same distribution.
    pub latency_p99: Option<u64>,
    /// Mean of the same distribution.
    pub latency_mean: Option<f64>,
}

/// Fills [`SimReport::workload`](crate::SimReport) at finish: first the
/// mempool's admission/drop/occupancy accounting (the read half of the
/// injector), then exact submit→decide latency percentiles joined over
/// `report.txs`. Runs after the built-in tx ledger, which fills
/// [`crate::TxRecord::decided_round`]. Handles no event.
pub(crate) struct WorkloadLedger {
    mempool: Rc<RefCell<Mempool>>,
    generator: String,
    clients: usize,
}

impl Observer for WorkloadLedger {
    fn on_event(&mut self, _ctx: &ObsCtx<'_>, _event: &SimEvent, _emit: &mut Vec<SimEvent>) {}

    fn finish(&mut self, _ctx: &ObsCtx<'_>, report: &mut SimReport) {
        let mempool = self.mempool.borrow();
        let stats = mempool.stats();
        let w = &mut report.workload;
        w.generator = self.generator.clone();
        w.clients = self.clients;
        w.offered = stats.offered;
        w.admitted = stats.admitted;
        w.dropped_capacity = stats.dropped_capacity;
        w.dropped_fairness = stats.dropped_fairness;
        w.dropped_asleep = stats.dropped_asleep;
        w.held_over = stats.held_over;
        w.submitted = stats.drained;
        w.backlog = mempool.len() as u64;
        w.mempool_high_water = stats.high_water;
        let dropped = stats.dropped_capacity + stats.dropped_fairness + stats.dropped_asleep;
        w.drop_rate = if stats.offered > 0 {
            dropped as f64 / stats.offered as f64
        } else {
            0.0
        };

        let mut histogram = Histogram::new();
        for rec in &report.txs {
            if let Some(decided) = rec.decided_round {
                histogram.record(decided - rec.submitted.as_u64());
            }
        }
        let stats = histogram.stats();
        let w = &mut report.workload;
        w.decided = stats.count;
        w.throughput = stats.count as f64 / (report.rounds_run + 1) as f64;
        w.latency_p50 = stats.p50;
        w.latency_p90 = stats.p90;
        w.latency_p99 = stats.p99;
        w.latency_mean = stats.mean;
    }
}

/// Derives a participation [`Schedule`] from a workload's
/// [`Workload::load_fraction`] trace: at every round the awake fraction
/// equals the offered-load fraction (at least one process always awake).
/// For [`st_load::Diurnal`] the cosine matches `Schedule::oscillating`'s
/// formula exactly, so "users asleep at night are users not submitting"
/// holds by construction — workload and participation come from the
/// *same* trace instead of two knobs that drift apart.
pub fn diurnal_schedule(workload: &dyn Workload, n: usize, horizon: u64) -> Schedule {
    // stlint::allow(deadpub, reason = "participation derived from the workload trace, which workload_api.rs's grid and diurnal test run")
    let awake = (0..=horizon)
        .map(|r| {
            let frac = workload.load_fraction(r).clamp(0.0, 1.0);
            let awake_count = ((n as f64) * frac).round().max(1.0) as usize;
            (0..n).map(|p| p < awake_count).collect()
        })
        .collect();
    Schedule::custom(awake)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_load::{ConstantRate, Diurnal};

    #[test]
    fn injector_offers_and_drains_with_batch_cap() {
        let mut inj = WorkloadInjector::new(WorkloadSpec::new(ConstantRate::per_round(5)).batch(2));
        assert!(inj.step(0, true).is_empty(), "round 0 offers nothing");
        let batch = inj.step(1, true);
        assert_eq!(batch.len(), 2, "batch caps the drain");
        assert!(batch.iter().all(|p| p.arrived == 1));
        // The 3 leftovers queue; round 2 drains 2 of the oldest.
        let batch = inj.step(2, true);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|p| p.arrived == 1), "FIFO: oldest first");
    }

    #[test]
    fn injector_holds_over_without_a_proposer_and_txs_every_drops() {
        // Real workloads queue through proposer-less rounds…
        let mut inj = WorkloadInjector::new(WorkloadSpec::new(ConstantRate::per_round(1)));
        assert!(inj.step(1, false).is_empty());
        let batch = inj.step(2, true);
        assert_eq!(batch.len(), 2, "held-over arrival drains later");
        assert_eq!(
            batch[0].arrived, 1,
            "arrival round preserved across hold-over"
        );
        // …txs_every drops them outright.
        let mut shim = WorkloadInjector::new(WorkloadSpec::txs_every(1));
        assert!(shim.step(1, false).is_empty());
        let batch = shim.step(2, true);
        assert_eq!(
            batch.len(),
            1,
            "an arrival offered to an empty room never existed"
        );
        assert_eq!(shim.mempool.borrow().stats().dropped_asleep, 1);
    }

    #[test]
    fn txs_every_submits_every_kth_round() {
        let mut shim = WorkloadInjector::new(WorkloadSpec::txs_every(4));
        for r in 0..=16 {
            let batch = shim.step(r, true);
            let expect = usize::from(r > 0 && r % 4 == 0);
            assert_eq!(batch.len(), expect, "round {r}");
            if let Some(p) = batch.first() {
                assert_eq!(p.arrived, r, "arrivals drain the round they arrive");
            }
        }
    }

    #[test]
    fn diurnal_schedule_tracks_the_load_trace() {
        let w = Diurnal::new(10, 0.25, 8);
        let schedule = diurnal_schedule(&w, 8, 16);
        assert_eq!(schedule.n(), 8);
        // Peak (phase 0): everyone awake. Trough (half period): 8·0.25 = 2.
        assert_eq!(schedule.honest_awake(st_types::Round::new(8)).len(), 8);
        assert_eq!(schedule.honest_awake(st_types::Round::new(4)).len(), 2);
        // Matches Schedule::oscillating on the same parameters.
        let osc = Schedule::oscillating(8, 16, 0.25, 8);
        for r in 0..=16 {
            let round = st_types::Round::new(r);
            assert_eq!(
                schedule.honest_awake(round),
                osc.honest_awake(round),
                "round {r}"
            );
        }
    }

    #[test]
    fn flat_workload_derives_a_full_schedule() {
        let w = ConstantRate::per_round(3);
        let schedule = diurnal_schedule(&w, 5, 6);
        for r in 0..=6 {
            assert_eq!(schedule.honest_awake(st_types::Round::new(r)).len(), 5);
        }
    }
}
