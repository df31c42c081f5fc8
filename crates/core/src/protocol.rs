//! The driving surface of a per-process state machine, as a trait.
//!
//! A driver constructs one state machine per process, feeds delivered
//! envelopes in, asks each awake machine for a round's outgoing
//! messages, and drains decisions and reads decided-log views out for
//! the monitors. [`Protocol`] writes exactly that surface down.
//!
//! [`crate::TobProcess`] — the paper's sleepy protocol (Algorithm 1 with
//! message expiration) — is its one implementor; its fixed-quorum
//! baseline is a parameter ([`st_types::Participation`]), not a second
//! protocol. st-sim and st-node drive `TobProcess` directly, and the
//! literal Algorithm 1 in st-core's tests has the same methods as
//! inherent ones. The trait stays because the benchmark's frozen
//! `stbench` probe (`crates/bench/src/bin/stbench/probe.rs`) calls the
//! process through it.

use crate::{DecisionEvent, TobConfig};
use st_blocktree::BlockTree;
use st_ga::GaOutput;
use st_messages::{Envelope, SharedEnvelope};
use st_types::{BlockId, ProcessId, Round, TxId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A per-process consensus state machine a driver can step.
///
/// Implementors are deterministic and I/O-free: the driver delivers
/// received messages via [`Protocol::on_receive_shared`] and asks for a
/// round's outgoing multicasts via [`Protocol::step_send`]. Rounds may
/// be skipped (the sleepy model's sleeping) but must be presented in
/// increasing order; queued messages delivered on wake-up arrive through
/// the ordinary receive path.
pub trait Protocol: Sized + 'static {
    /// Creates the process `id` under the shared `config` (parameters,
    /// seed, key directory).
    fn new(id: ProcessId, config: TobConfig) -> Self;

    /// Queues a transaction for inclusion in future proposals.
    ///
    /// A proposal extending a log carries every transaction submitted to
    /// this process, in first-submission order, minus those already in
    /// that log. Submission is deduplicated: re-submitting a transaction
    /// keeps its first place and changes nothing else, and one that is
    /// already on the decided chain — decided, then submitted (again) —
    /// is not proposed on any extension of that chain.
    fn submit_tx(&mut self, tx: TxId);

    /// Handles a received shared envelope (the multicast fast path: the
    /// signature verdict is cached per envelope, so a fan-out verifies
    /// once per unique envelope, not once per receiver).
    ///
    /// # Delivery contract
    ///
    /// Real transports re-send on reconnect and interleave peers
    /// arbitrarily, so implementors must tolerate **duplicated** and
    /// **reordered** delivery within a round boundary: delivering the same
    /// envelope multiple times, or a round's envelopes in any order,
    /// before the next [`Protocol::step_send`] must leave the decided
    /// chain unchanged. ([`crate::TobProcess`] dedups votes in its vote
    /// store and proposals in its propose store; block insertion is
    /// idempotent by content-address.) The driver in turn guarantees
    /// envelopes are not delivered *across* the wrong round boundary —
    /// the lockstep simulator by construction, the socket runtime by
    /// exactly-once round-batch ingestion.
    fn on_receive_shared(&mut self, envelope: &SharedEnvelope);

    /// Executes the send phase of `round` and returns the messages this
    /// process multicasts. Call only for rounds the process is awake in.
    fn step_send(&mut self, round: Round) -> Vec<Envelope>;

    /// Removes and returns every decision event recorded since the last
    /// drain, in occurrence order. This is the only way to read
    /// decisions, so reading one consumes it, and per-process event logs
    /// stay bounded on long horizons. (st-sim's runner drains every
    /// process every round; code that wants the decisions after a run
    /// registers st-sim's `DecisionTap`.) Conflicting decisions (possible
    /// only when model assumptions are violated) must be recorded
    /// faithfully so monitors can detect them.
    fn drain_decisions(&mut self) -> Vec<DecisionEvent>;

    /// Tally sharing across the processes a driver steps in one round:
    /// `memo` is the driver's round-scoped map from a digest of the state
    /// the round-`round` tally reads to that tally. An implementor whose
    /// digest is already present adopts the memoised tally for its next
    /// [`Protocol::step_send`]`(round)` and returns `true` (a hit);
    /// otherwise it computes its own, publishes it under its digest and
    /// returns `false`. Equal digests must mean equal tallies — that is
    /// the whole certificate. The default shares nothing, which is always
    /// sound.
    fn share_tally(&mut self, round: Round, memo: &mut BTreeMap<u64, Arc<GaOutput>>) -> bool {
        let _ = (round, memo);
        false
    }

    /// The tip of the longest decided log (genesis before any decision).
    ///
    /// [`crate::TobProcess`] only ever moves it to a descendant of its
    /// previous value (a conflicting decision is still recorded for the
    /// monitors, but the tip does not move to it), so readers may extend
    /// per-tip state incrementally by walking just the newly decided
    /// blocks — st-sim's tx ledger does.
    fn decided_tip(&self) -> BlockId;

    /// The process's view of the block tree: at least the decided chain
    /// — the shared vocabulary monitors resolve decision tips against.
    /// Which side branches it holds is the implementor's choice
    /// ([`crate::TobProcess`] keeps only bodies a stored vote has named).
    fn tree(&self) -> &BlockTree;
}

/// The sleepy protocol (Algorithm 1 with message expiration), under
/// either participation rule — every trait method delegates to the
/// inherent method of the same name, so a driver calling through the
/// trait runs call-for-call the code the runtimes run.
impl Protocol for crate::TobProcess {
    fn new(id: ProcessId, config: TobConfig) -> Self {
        crate::TobProcess::new(id, config)
    }

    fn submit_tx(&mut self, tx: TxId) {
        crate::TobProcess::submit_tx(self, tx);
    }

    fn on_receive_shared(&mut self, envelope: &SharedEnvelope) {
        crate::TobProcess::on_receive_shared(self, envelope);
    }

    fn step_send(&mut self, round: Round) -> Vec<Envelope> {
        crate::TobProcess::step_send(self, round)
    }

    fn drain_decisions(&mut self) -> Vec<DecisionEvent> {
        crate::TobProcess::drain_decisions(self)
    }

    fn share_tally(&mut self, round: Round, memo: &mut BTreeMap<u64, Arc<GaOutput>>) -> bool {
        crate::TobProcess::share_tally(self, round, memo)
    }

    fn decided_tip(&self) -> BlockId {
        crate::TobProcess::decided_tip(self)
    }

    fn tree(&self) -> &BlockTree {
        crate::TobProcess::tree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TobProcess;
    use st_types::Params;

    /// A generic lock-step driver — the shape st-sim's runner has, written
    /// against the trait alone.
    fn lockstep<P: Protocol>(n: usize, rounds: u64, seed: u64) -> Vec<P> {
        let params = Params::builder(n).expiration(2).build().unwrap();
        let config = TobConfig::new(params, seed);
        let mut procs: Vec<P> = (0..n as u32)
            .map(|i| P::new(ProcessId::new(i), config.clone()))
            .collect();
        for r in 0..=rounds {
            let batches: Vec<Vec<Envelope>> = procs
                .iter_mut()
                .map(|p| p.step_send(Round::new(r)))
                .collect();
            for batch in &batches {
                for env in batch {
                    let shared = SharedEnvelope::new(env.clone());
                    for p in procs.iter_mut() {
                        p.on_receive_shared(&shared);
                    }
                }
            }
        }
        procs
    }

    #[test]
    fn trait_driver_runs_the_sleepy_protocol() {
        let mut procs = lockstep::<TobProcess>(4, 12, 7);
        for p in &mut procs {
            assert!(!Protocol::drain_decisions(p).is_empty());
            assert_ne!(Protocol::decided_tip(p), BlockId::GENESIS);
        }
    }
}
