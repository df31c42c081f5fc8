//! Bounded-memory regression guard for long horizons.
//!
//! The runner is meant to sustain unbounded horizons at steady-state
//! memory: decision events are drained into the observer pipeline every
//! round (processes no longer accumulate an ever-growing
//! `Vec<DecisionEvent>`), the message pool compacts once every delivery
//! cursor passes a message, the vote window expires old rounds, and a
//! transaction leaves a process's pending pool once it is decided.
//! This suite runs a horizon-10⁴ simulation and asserts that the stores
//! sized by in-flight work — vote window, body store, pool backlog,
//! pending transactions — are bounded by a horizon-independent constant,
//! that each process's block tree stays within a small multiple of
//! the decided chain: a body enters the tree only once a vote names it,
//! so the `n − 1` proposals of a view nobody votes for stay out, and
//! leave the body store with the votes that could have named them — and
//! that the monitors' tree is exactly the decided chain: the simulator
//! keeps the well-behaved processes' decided chains, not every proposal.
//!
//! Not checked, because it grows with the run by design: each process's
//! transaction submission index, which remembers every transaction ever
//! submitted to it (so a re-submission is recognised) and therefore grows
//! with submitted transactions, exactly as the plain submission list it
//! replaced did.
//!
//! Decisions are not among the stores checked either: draining is the
//! only way to read a process's decisions, so observing one removes it
//! and there is nothing left to count. What this suite checks for
//! decisions is that the drained stream kept pace with the horizon.

use st_sim::adversary::SilentAdversary;
use st_sim::{
    DecisionTap, ObsCtx, Observer, Schedule, SimBuilder, SimConfig, SimEvent, SimReport,
    WorkloadSpec,
};
use st_types::Params;
use std::cell::Cell;
use std::rc::Rc;

const HORIZON: u64 = 10_000;

/// Reads the size of the monitors' tree when the report is assembled.
struct DecidedTreeSize(Rc<Cell<usize>>);

impl Observer for DecidedTreeSize {
    fn on_event(&mut self, _ctx: &ObsCtx<'_>, _event: &SimEvent, _emit: &mut Vec<SimEvent>) {}

    fn finish(&mut self, ctx: &ObsCtx<'_>, _report: &mut SimReport) {
        self.0.set(ctx.decided.len());
    }
}

#[test]
fn horizon_10k_stores_stay_bounded() {
    let n = 6;
    let eta = 2;
    let params = Params::builder(n).expiration(eta).build().expect("valid");
    let (tap, log) = DecisionTap::new(n);
    let decided_blocks = Rc::new(Cell::new(0));
    let mut sim = SimBuilder::from_config(SimConfig::new(params, 7).horizon(HORIZON))
        .workload_spec(WorkloadSpec::txs_every(8))
        .schedule(Schedule::full(n, HORIZON))
        .adversary(SilentAdversary)
        .observer(tap)
        .observer(DecidedTreeSize(Rc::clone(&decided_blocks)))
        .build()
        .expect("valid simulation");
    while sim.step().is_some() {}

    for p in sim.processes() {
        // The vote window holds the rounds pruning keeps, r − 2η − 4 on:
        // 2η + 5 rounds of one vote per sender — horizon-independent.
        // O(horizon) growth would put ~10⁴ records here.
        let window = (2 * eta as usize + 5) * n;
        assert!(
            p.votes().len() <= window,
            "vote window grew past its η-bound {window}: {}",
            p.votes().len()
        );
        // The tree holds the decided chain plus the few voted blocks
        // above it; taking every proposal would put n blocks per view
        // here (~3 × 10⁴).
        let height = p.tree().height(p.decided_tip()).unwrap_or(0) as usize;
        assert!(
            p.tree().len() <= 3 * height + 8,
            "tree grew past the referenced chain: {} blocks at decided height {height}",
            p.tree().len()
        );
        // Unreferenced bodies leave with the votes that could name them:
        // the vote store's edge r − 2η − 4 keeps the bodies of the last
        // η + 3 views, n − 1 unreferenced ones each. Keeping every body
        // would put n per view here (~3 × 10⁴).
        let bodies = (eta as usize + 4) * n;
        assert!(
            p.bodies_held() <= bodies,
            "body store grew past its η-bound {bodies}: {}",
            p.bodies_held()
        );
        // One transaction every 8 rounds is decided a few rounds after
        // submission, so at most a couple are pending at once; without
        // the drain this would be every transaction of the run (~10⁴/8).
        assert!(
            p.pending_txs() <= 4,
            "pending pool grew with the horizon: {}",
            p.pending_txs()
        );
    }

    // The pool backlog (messages not yet passed by every cursor) is a
    // few rounds of traffic, not the whole history. Full participation
    // under synchrony: every cursor passes a message one round after it
    // is sent, so the backlog is O(n) messages per outstanding round.
    let backlog = sim.network().pool().len();
    assert!(
        backlog <= 4 * n * n,
        "pool backlog {backlog} is not bounded (expected ≤ {})",
        4 * n * n
    );

    // And nothing was lost to the draining: the tap saw a decision
    // stream that kept pace with the horizon on every process.
    let report = sim.finish();
    assert!(report.is_safe());
    // The monitors' tree is the decided chain and genesis, nothing else:
    // under full participation every process decides the same chain.
    // Taking every proposal would put n blocks per view here (~3 × 10⁴).
    assert_eq!(
        decided_blocks.get() as u64,
        report.final_decided_height + 1,
        "the monitors' tree holds more than the decided chain"
    );
    for (i, events) in log.borrow().iter().enumerate() {
        assert!(
            events.len() as u64 >= HORIZON / 2 - 2,
            "process {i} recorded only {} decisions over {HORIZON} rounds",
            events.len()
        );
    }
}
