//! A classic fixed-quorum BFT baseline, [`QuorumProcess`].

use crate::buffer::BlockBuffer;
use crate::txpool::TxPool;
use crate::{DecisionEvent, Protocol, TobConfig};
use st_blocktree::{Block, BlockTree};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, ProposeStore, SharedEnvelope, Vote};
use st_types::{BlockId, FastSet, ProcessId, Round, RoundKind, TxId, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A well-behaved process running the fixed-quorum baseline, as a
/// message-passing [`Protocol`] implementor.
///
/// The introduction motivates dynamic availability with the observation
/// that "traditional BFT protocols (synchronous or partially synchronous)
/// get stuck when participation drops below their fixed (usually 1/2 or
/// 2/3) quorum threshold". `QuorumProcess` is that comparator, runnable
/// under the *same* simulator — network pool, participation schedules,
/// environment timeline, adversarial delivery — as the sleepy protocol,
/// so the dynamic-availability tests and head-to-head sweeps compare
/// executions, not an execution against a formula.
///
/// The protocol is deliberately simple, honest-only (the comparison is
/// about availability, not attack resistance), and mirrors the sleepy
/// protocol's two-rounds-per-view cadence so decision counts are
/// directly comparable:
///
/// * **first round of view `v`** (`r = 2v − 1`): every awake process
///   multicasts a proposal extending its decided chain;
/// * **second round of view `v`** (`r = 2v`): every awake process votes
///   for the admissible view-`v` proposal with the largest VRF (the same
///   leader rule the sleepy protocol uses);
/// * a view **decides** once some process counts votes for one proposal
///   from **strictly more than `2n/3` of all `n` processes** — the
///   static quorum, counted against fixed membership rather than
///   perceived participation. Votes are never expired: a quorum observed
///   late (woken process replaying its backlog) still decides.
///
/// Under full participation and synchrony every view decides (at the
/// first send step after its vote round). When more than a third of the
/// processes sleep through a view's vote round, that view can never
/// reach quorum and is **permanently stalled** — the protocol only
/// resumes deciding with the first view whose vote round sees enough
/// participation again. A closed-form schedule walk
/// (`analytical_decided_views` in st-sim's `tests/quorum_protocol.rs`)
/// predicts exactly which views decide and which stall on honest
/// synchronous schedules, and that test holds this implementation to
/// the prediction.
#[derive(Clone, Debug)]
pub struct QuorumProcess {
    id: ProcessId,
    config: TobConfig,
    keypair: Keypair,
    tree: BlockTree,
    buffer: BlockBuffer,
    proposes: ProposeStore,
    /// Per-view ballots: `votes[view][voter] = tip` (first vote per voter
    /// wins; honest processes vote once per view). A `BTreeMap` so the
    /// quorum scan visits views in deterministic ascending order.
    votes: BTreeMap<View, BTreeMap<ProcessId, BlockId>>,
    /// Views already decided by this process (their ballots are pruned).
    decided_views: FastSet<u64>,
    decisions: Vec<DecisionEvent>,
    decided_tip: BlockId,
    pool: TxPool,
}

impl QuorumProcess {
    /// Creates the process `id` under the shared `config`.
    pub fn new(id: ProcessId, config: TobConfig) -> QuorumProcess {
        let keypair = Keypair::derive(id, config.seed());
        QuorumProcess {
            id,
            config,
            keypair,
            tree: BlockTree::new(),
            buffer: BlockBuffer::new(),
            proposes: ProposeStore::new(),
            votes: BTreeMap::new(),
            decided_views: FastSet::default(),
            decisions: Vec::new(),
            decided_tip: BlockId::GENESIS,
            pool: TxPool::new(),
        }
    }

    /// The static quorum rule: decisions need votes from strictly more
    /// than `2n/3` of all `n` fixed members.
    pub fn quorum_exceeded(n: usize, votes: usize) -> bool {
        3 * votes > 2 * n
    }

    /// Scans pending ballots for completed quorums and decides them.
    /// Only views whose vote round is strictly before `round` are
    /// eligible — a view's own votes are in flight during its vote
    /// round, so the earliest decision is at the next send step, exactly
    /// one round after the analytical baseline's "decision round".
    fn integrate(&mut self, round: Round) {
        let n = self.config.params().n();
        let mut newly_decided = Vec::new();
        for (&view, ballots) in &self.votes {
            if self.decided_views.contains(&view.as_u64()) {
                continue;
            }
            match view.second_round() {
                Some(r) if r < round => {}
                _ => continue,
            }
            // Count ballots per tip; at most one tip can exceed the
            // quorum (each voter is counted once per view).
            let mut counts: BTreeMap<BlockId, usize> = BTreeMap::new();
            for &tip in ballots.values() {
                *counts.entry(tip).or_default() += 1;
            }
            let Some((&tip, _)) = counts
                .iter()
                .find(|&(_, &count)| Self::quorum_exceeded(n, count))
            else {
                continue;
            };
            // The decided block must be locally known and extend the
            // decided chain (a late quorum for a view older than the
            // decided tip is already subsumed by a descendant decision).
            if !self.tree.contains(tip) || !self.tree.is_ancestor(self.decided_tip, tip) {
                continue;
            }
            newly_decided.push((view, tip));
        }
        for (view, tip) in newly_decided {
            self.decided_views.insert(view.as_u64());
            self.votes.remove(&view);
            self.decisions.push(DecisionEvent { round, view, tip });
            self.decided_tip = tip;
        }
        // Every newly decided tip extends the decided tip this scan
        // started from, so the last one does too.
        self.pool.advance(&self.tree, self.decided_tip);
    }

    /// First round of view `v`: propose a block extending the decided
    /// chain.
    fn propose(&mut self, round: Round, view: View) -> Vec<Envelope> {
        let block = Arc::new(Block::build(
            self.decided_tip,
            view,
            self.id,
            self.pool.payload_for(&self.tree, self.decided_tip),
        ));
        let (vrf_value, vrf_proof) = self.keypair.vrf_eval(view.as_u64());
        let proposal = Propose::new(self.id, round, view, block.clone(), vrf_value, vrf_proof);
        // A process hears its own multicast: record locally right away.
        self.buffer.insert(&mut self.tree, block);
        self.proposes.insert_verified(proposal.clone());
        vec![Envelope::sign(&self.keypair, Payload::Propose(proposal))]
    }

    /// Second round of view `v`: vote for the admissible proposal with
    /// the largest VRF, or stay silent when none qualifies (the stall).
    fn vote(&mut self, round: Round, view: View) -> Vec<Envelope> {
        let tip = self
            .proposes
            .select_leader_proposal(view, |p| {
                self.tree.contains(p.tip()) && self.tree.is_ancestor(self.decided_tip, p.tip())
            })
            .map(|p| p.tip());
        let Some(tip) = tip else {
            return Vec::new();
        };
        let vote = Vote::new(self.id, round, tip);
        self.record_vote(&vote);
        vec![Envelope::sign(&self.keypair, Payload::Vote(vote))]
    }

    fn record_vote(&mut self, vote: &Vote) {
        // Ballots are keyed by the round tag's view; a vote whose round
        // is not a view's second round is protocol-invalid and dropped.
        let RoundKind::ViewSecond(view) = RoundKind::of(vote.round()) else {
            return;
        };
        if self.decided_views.contains(&view.as_u64()) {
            return;
        }
        self.votes
            .entry(view)
            .or_default()
            .entry(vote.sender())
            .or_insert(vote.tip());
    }

    /// Drops proposal state for past views (ballots for undecided views
    /// are kept — a late quorum must still be able to complete).
    fn prune(&mut self, round: Round) {
        let view = RoundKind::of(round).view();
        if view.as_u64() > 1 {
            self.proposes.prune_below(View::new(view.as_u64() - 1));
        }
    }
}

impl Protocol for QuorumProcess {
    const NAME: &'static str = "static-quorum";

    fn new(id: ProcessId, config: TobConfig) -> Self {
        QuorumProcess::new(id, config)
    }

    fn submit_tx(&mut self, tx: TxId) {
        self.pool.submit(tx);
    }

    fn on_receive_shared(&mut self, envelope: &SharedEnvelope) {
        if !envelope.verify_cached(self.config.directory()) {
            return;
        }
        match envelope.payload() {
            Payload::Vote(vote) => {
                let vote = *vote;
                self.record_vote(&vote);
            }
            Payload::Propose(proposal) => {
                self.buffer
                    .insert(&mut self.tree, proposal.block_arc().clone());
                if envelope.vrf_valid_cached(self.config.directory()) {
                    self.proposes.insert_verified(proposal.clone());
                }
            }
        }
    }

    fn step_send(&mut self, round: Round) -> Vec<Envelope> {
        // Complete any quorums whose votes have arrived (including a
        // backlog replayed on wake-up) before acting in this round.
        self.integrate(round);
        let out = match RoundKind::of(round) {
            // Round 0 is a bootstrap idle round: view 1's proposals go
            // out in round 1, keeping view/round arithmetic aligned with
            // the sleepy protocol's cadence.
            RoundKind::Bootstrap => Vec::new(),
            RoundKind::ViewFirst(view) => self.propose(round, view),
            RoundKind::ViewSecond(view) => self.vote(round, view),
        };
        self.prune(round);
        out
    }

    fn drain_decisions(&mut self) -> Vec<DecisionEvent> {
        std::mem::take(&mut self.decisions)
    }

    fn decided_tip(&self) -> BlockId {
        self.decided_tip
    }

    fn tree(&self) -> &BlockTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::Params;

    fn config(n: usize, seed: u64) -> TobConfig {
        TobConfig::new(Params::builder(n).build().unwrap(), seed)
    }

    /// Lock-step synchronous driver over an awake-set-per-round schedule.
    fn run_partial(
        n: usize,
        rounds: u64,
        seed: u64,
        awake: impl Fn(u64, usize) -> bool,
    ) -> Vec<QuorumProcess> {
        let cfg = config(n, seed);
        let mut procs: Vec<QuorumProcess> = (0..n as u32)
            .map(|i| QuorumProcess::new(ProcessId::new(i), cfg.clone()))
            .collect();
        let mut queued: Vec<Vec<Envelope>> = vec![Vec::new(); n];
        for r in 0..=rounds {
            let round = Round::new(r);
            let mut batches: Vec<Envelope> = Vec::new();
            for (i, p) in procs.iter_mut().enumerate() {
                if awake(r, i) {
                    batches.extend(p.step_send(round));
                }
            }
            // Receive phase: processes awake at r + 1 get this round's
            // traffic plus their queued backlog; sleepers queue.
            for (i, p) in procs.iter_mut().enumerate() {
                if awake(r + 1, i) {
                    for env in queued[i].drain(..) {
                        p.on_receive_shared(&env.into());
                    }
                    for env in &batches {
                        p.on_receive_shared(&env.clone().into());
                    }
                } else {
                    queued[i].extend(batches.iter().cloned());
                }
            }
        }
        procs
    }

    #[test]
    fn full_participation_decides_every_view() {
        let n = 9;
        let rounds = 20;
        let mut procs = run_partial(n, rounds, 3, |_, _| true);
        // Views 1..=9 vote at rounds 2..=18 and decide at rounds 3..=19;
        // view 10's votes (round 20) are only integrated at round 21,
        // past the horizon.
        for p in &mut procs {
            let decisions = p.drain_decisions();
            let views: Vec<u64> = decisions.iter().map(|d| d.view.as_u64()).collect();
            assert_eq!(views, (1..=9).collect::<Vec<u64>>(), "{:?}", p.id);
            // Decided exactly one round after the analytical decision
            // round 2v.
            for d in decisions {
                assert_eq!(d.round.as_u64(), 2 * d.view.as_u64() + 1);
            }
        }
    }

    #[test]
    fn over_one_third_sleeping_stalls_every_affected_view() {
        let n = 9;
        // 4 of 9 sleep (> n/3) through rounds 6..=14: views whose vote
        // round lands in the window can never reach the 2n/3 quorum.
        let mut procs = run_partial(n, 24, 5, |r, i| !((6..=14).contains(&r) && i < 4));
        let decided: FastSet<u64> = procs
            .iter_mut()
            .flat_map(|p| p.drain_decisions())
            .map(|d| d.view.as_u64())
            .collect();
        for v in 3..=7u64 {
            assert!(!decided.contains(&v), "stalled view {v} decided");
        }
        // It recovers: views after the window decide again.
        assert!(decided.contains(&8));
        // And everything stays on one chain.
        let tree = procs[0].tree();
        for p in &procs {
            assert!(tree.compatible(p.decided_tip(), procs[0].decided_tip()));
        }
    }

    #[test]
    fn waking_process_decides_backlogged_views() {
        let n = 6;
        // p5 sleeps through rounds 4..=9 while the rest keep the quorum
        // (5 of 6 > 2n/3): the awake processes decide views 2..=4; p5
        // replays the backlog on wake and decides them at its first step.
        let mut procs = run_partial(n, 16, 7, |r, i| !((4..=9).contains(&r) && i == 5));
        let views: Vec<u64> = procs[5]
            .drain_decisions()
            .iter()
            .map(|d| d.view.as_u64())
            .collect();
        let woken = &procs[5];
        assert!(views.contains(&2) && views.contains(&3), "{views:?}");
        assert!(procs[0]
            .tree()
            .compatible(woken.decided_tip(), procs[0].decided_tip()));
    }

    #[test]
    fn quorum_rule_is_strictly_greater_than_two_thirds() {
        assert!(!QuorumProcess::quorum_exceeded(9, 6)); // 6 = 2·9/3 exactly
        assert!(QuorumProcess::quorum_exceeded(9, 7));
        assert!(!QuorumProcess::quorum_exceeded(3, 2));
        assert!(QuorumProcess::quorum_exceeded(3, 3));
    }

    #[test]
    fn submitted_transactions_reach_the_decided_log() {
        let cfg = config(4, 11);
        let mut procs: Vec<QuorumProcess> = (0..4u32)
            .map(|i| QuorumProcess::new(ProcessId::new(i), cfg.clone()))
            .collect();
        let tx = TxId::new(777);
        for p in procs.iter_mut() {
            Protocol::submit_tx(p, tx);
        }
        for r in 0..=12u64 {
            let round = Round::new(r);
            let batches: Vec<Vec<Envelope>> =
                procs.iter_mut().map(|p| p.step_send(round)).collect();
            for batch in &batches {
                for env in batch {
                    for p in procs.iter_mut() {
                        p.on_receive_shared(&env.clone().into());
                    }
                }
            }
        }
        // Every proposal carries the tx (the simulator's workload floods
        // every honest mempool), so the first decided view includes it.
        for p in &procs {
            assert!(
                p.tree().log_transactions(p.decided_tip()).contains(&tx),
                "tx missing from {:?}'s decided log",
                p.id
            );
        }
    }

    #[test]
    fn pool_dedupes_and_drains() {
        let cfg = config(4, 2);
        let mut procs: Vec<QuorumProcess> = (0..4u32)
            .map(|i| QuorumProcess::new(ProcessId::new(i), cfg.clone()))
            .collect();
        let tx = TxId::new(1);
        Protocol::submit_tx(&mut procs[0], tx);
        Protocol::submit_tx(&mut procs[0], tx);
        assert_eq!(procs[0].pool.pending_len(), 1);
        let mut proposals = 0;
        for r in 0..=12u64 {
            let round = Round::new(r);
            let decided = procs[0]
                .tree()
                .log_transactions(procs[0].decided_tip())
                .contains(&tx);
            if decided {
                assert_eq!(
                    procs[0].pool.pending_len(),
                    0,
                    "a decided tx leaves pending"
                );
                Protocol::submit_tx(&mut procs[0], tx);
                assert_eq!(procs[0].pool.pending_len(), 0, "re-submission stays out");
            }
            let batches: Vec<Vec<Envelope>> =
                procs.iter_mut().map(|p| p.step_send(round)).collect();
            for env in batches.iter().flatten() {
                if let Payload::Propose(p) = env.payload() {
                    if decided && p.sender() == ProcessId::new(0) {
                        assert!(!p.block().payload().contains(&tx), "re-proposed");
                        proposals += 1;
                    }
                }
                for p in procs.iter_mut() {
                    p.on_receive_shared(&env.clone().into());
                }
            }
        }
        assert!(procs[0]
            .tree()
            .log_transactions(procs[0].decided_tip())
            .contains(&tx));
        assert!(proposals >= 2);
    }

    #[test]
    fn invalid_signature_is_discarded() {
        let cfg = config(3, 1);
        let mut p = QuorumProcess::new(ProcessId::new(0), cfg);
        let alien = Keypair::derive(ProcessId::new(1), 999);
        let vote = Vote::new(ProcessId::new(1), Round::new(2), BlockId::GENESIS);
        p.on_receive_shared(&Envelope::sign(&alien, Payload::Vote(vote)).into());
        assert!(p.votes.is_empty());
    }
}
