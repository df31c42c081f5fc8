//! The per-process state machine of Algorithm 1 (with message expiration).

use crate::txpool::TxPool;
use crate::{BlockBuffer, DecisionEvent, TobConfig};
use st_blocktree::{Block, BlockTree};
use st_crypto::Keypair;
use st_ga::{tally, GaOutput, SupportIndex};
use st_messages::{
    Envelope, InsertOutcome, Payload, Propose, ProposeStore, SharedEnvelope, Vote, VoteStore,
};
use st_types::fasthash::mix64_pair;
use st_types::{BlockId, FastMap, FastSet, ProcessId, Round, RoundKind, TxId, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A well-behaved process running Algorithm 1, parameterised by the
/// expiration period `η` from its [`TobConfig`].
///
/// The state machine is deterministic and I/O-free: drivers call
/// [`TobProcess::on_receive`] for every delivered message and
/// [`TobProcess::step_send`] once per round the process is awake in; the
/// latter returns the messages to multicast. A process that is asleep for
/// some rounds is simply not stepped for them — queued messages are
/// delivered via `on_receive` when it wakes, exactly matching the sleepy
/// model's message-queueing semantics.
#[derive(Clone, Debug)]
pub struct TobProcess {
    id: ProcessId,
    config: TobConfig,
    keypair: Keypair,
    tree: BlockTree,
    buffer: BlockBuffer,
    votes: VoteStore,
    proposes: ProposeStore,
    pool: TxPool,
    decisions: Vec<DecisionEvent>,
    /// Tip of the longest decided log (genesis until the first decision).
    decided_tip: BlockId,
    /// The log this process voted for most recently (diagnostics/fallback).
    last_vote_tip: BlockId,
    /// Output of the most recent graded-agreement tally (diagnostics).
    /// Behind an `Arc` so a tally adopted from a driver's memo is held,
    /// not copied.
    last_ga_output: Option<Arc<GaOutput>>,
    /// Incremental tally state: chain support of every counted in-window
    /// vote, updated per sender delta instead of being rebuilt from the
    /// whole window each round. The stateless [`st_ga::tally`] survives
    /// as [`TobProcess::reference_tally`], the oracle this bookkeeping is
    /// checked against.
    support: SupportIndex,
    /// sender → (round of its counted record, tip it voted for). Present
    /// iff the sender currently contributes to perceived participation
    /// `m` (its latest in-window record is a clean vote).
    counted: FastMap<ProcessId, (Round, BlockId)>,
    /// Senders whose vote-store records changed since the last tally.
    dirty: FastSet<ProcessId>,
    /// Counted senders whose tip is not (yet) in the tree: they count
    /// toward `m` but support nothing, and are re-checked every tally
    /// because the tree only grows.
    unknown: FastSet<ProcessId>,
    /// round → senders counted at that round; when the expiration
    /// window's lower edge passes a bucket, its senders are re-derived.
    /// Entries are lazily invalidated (a sender re-counted at a later
    /// round leaves its old entry behind), so each pop re-checks against
    /// `counted` before acting.
    expiries: BTreeMap<Round, Vec<ProcessId>>,
    /// The tally [`TobProcess::share_tally`] settled on for a specific
    /// round (adopted from the driver's memo, or computed and published);
    /// consumed by the next [`TobProcess::step_send`] for that round.
    shared_tally: Option<(Round, Arc<GaOutput>)>,
}

impl TobProcess {
    /// Creates the process `id` under the shared `config`.
    pub fn new(id: ProcessId, config: TobConfig) -> TobProcess {
        let keypair = Keypair::derive(id, config.seed());
        TobProcess {
            id,
            config,
            keypair,
            tree: BlockTree::new(),
            buffer: BlockBuffer::new(),
            votes: VoteStore::new(),
            proposes: ProposeStore::new(),
            pool: TxPool::new(),
            decisions: Vec::new(),
            decided_tip: BlockId::GENESIS,
            last_vote_tip: BlockId::GENESIS,
            last_ga_output: None,
            support: SupportIndex::new(),
            counted: FastMap::default(),
            dirty: FastSet::default(),
            unknown: FastSet::default(),
            expiries: BTreeMap::new(),
            shared_tally: None,
        }
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The shared configuration.
    pub fn config(&self) -> &TobConfig {
        &self.config
    }

    /// The process's view of the block tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The tip of the longest log this process has decided (genesis before
    /// any decision).
    pub fn decided_tip(&self) -> BlockId {
        self.decided_tip
    }

    /// Removes and returns every decision event recorded since the last
    /// drain, in the order they occurred. Draining is the only way to
    /// read decisions, so a process's event log stays bounded on
    /// unbounded horizons. Conflicting decisions (possible only when
    /// model assumptions are violated) are recorded faithfully so
    /// monitors can detect them.
    pub fn drain_decisions(&mut self) -> Vec<DecisionEvent> {
        std::mem::take(&mut self.decisions)
    }

    /// The windowed vote store — bounded by `n · (η + 2)` distinct
    /// records thanks to per-round pruning (diagnostics; the
    /// bounded-memory regression suite watches its size).
    pub fn votes(&self) -> &VoteStore {
        &self.votes
    }

    /// The tip this process voted for most recently.
    pub fn last_vote_tip(&self) -> BlockId {
        self.last_vote_tip
    }

    /// The most recent graded-agreement output (diagnostics).
    pub fn last_ga_output(&self) -> Option<&GaOutput> {
        self.last_ga_output.as_deref()
    }

    /// Submitted transactions not yet on the decided chain — the part of
    /// the pool every proposal scans (diagnostics; the bounded-memory
    /// regression suite watches its size).
    pub fn pending_txs(&self) -> usize {
        // stlint::allow(deadpub, reason = "the pool-size probe of the bounded-memory regression suite (st-sim's bounded_memory.rs)")
        self.pool.pending_len()
    }

    /// Queues a transaction for inclusion in this process's future
    /// proposals. See [`crate::Protocol::submit_tx`] for the dedupe rule.
    pub fn submit_tx(&mut self, tx: TxId) {
        self.pool.submit(tx);
    }

    /// Handles a received message: verifies the signature (unverifiable
    /// messages are discarded per Section 2.1), then routes votes to the
    /// vote store and proposals to the propose store / block tree.
    ///
    /// This convenience wrapper wraps the envelope into a fresh
    /// [`SharedEnvelope`] and therefore re-verifies it; multicast drivers
    /// should wrap each envelope **once** and fan the shared handle out to
    /// every receiver via [`TobProcess::on_receive_shared`] so the
    /// signature is checked once per envelope, not once per receiver.
    pub fn on_receive(&mut self, envelope: Envelope) {
        // stlint::allow(deadpub, reason = "the single-receiver entry point for hand-driven processes (crate doc, conformance tests); multicast drivers use on_receive_shared")
        self.on_receive_shared(&SharedEnvelope::new(envelope));
    }

    /// Handles a received shared envelope. The signature verdict is read
    /// from the envelope's verification cache — over a whole process set,
    /// a multicast envelope is verified exactly once (the first receiver
    /// pays the hash; everyone else reuses the verdict). Behaviour is
    /// identical to [`TobProcess::on_receive`]: honest envelopes are
    /// immutable after signing and forgeries fail deterministically, so
    /// caching the verdict cannot change any accept/discard outcome.
    pub fn on_receive_shared(&mut self, envelope: &SharedEnvelope) {
        if !envelope.verify_cached(self.config.directory()) {
            return;
        }
        match envelope.payload() {
            Payload::Vote(vote) => {
                // Round 0 is view 0's propose-only round: no graded
                // agreement has a send phase there, so a round-0 vote tag
                // is protocol-invalid (only an adversary would produce
                // one) and is discarded.
                if vote.round() > Round::ZERO
                    && self.votes.insert(*vote) != InsertOutcome::Duplicate
                {
                    self.dirty.insert(vote.sender());
                }
            }
            Payload::Propose(proposal) => {
                // The shared handle: a multicast block body is stored
                // once, not once per receiver. Orphans buffer.
                self.buffer
                    .insert(&mut self.tree, proposal.block_arc().clone());
                self.proposes
                    .insert(proposal.clone(), self.config.directory());
            }
        }
    }

    /// Executes the send phase of `round` and returns the messages this
    /// process multicasts. Callers must invoke this only for rounds the
    /// process is awake in; rounds may be skipped (sleep) but must be
    /// presented in increasing order.
    pub fn step_send(&mut self, round: Round) -> Vec<Envelope> {
        let out = match RoundKind::of(round) {
            RoundKind::Bootstrap => self.step_bootstrap(round),
            RoundKind::ViewFirst(view) => self.step_view_first(round, view),
            RoundKind::ViewSecond(view) => self.step_view_second(round, view),
        };
        self.prune(round);
        out
    }

    /// Round 0: multicast `[propose, Λ := [b₀], VRF(1)]` (Algorithm 1,
    /// view 0).
    fn step_bootstrap(&mut self, round: Round) -> Vec<Envelope> {
        let (vrf_value, vrf_proof) = self.keypair.vrf_eval(1);
        let proposal = Propose::new(
            self.id,
            round,
            View::new(1),
            Block::genesis(),
            vrf_value,
            vrf_proof,
        );
        // Record own proposal locally (a process hears its own multicast).
        self.proposes
            .insert(proposal.clone(), self.config.directory());
        vec![Envelope::sign(&self.keypair, Payload::Propose(proposal))]
    }

    /// First round of view `v` (`r = 2v − 1`): compute `GA_{v−1,2}`
    /// outputs, decide grade-1 logs, and vote in `GA_{v,1}` for the
    /// admissible proposal with the largest VRF.
    fn step_view_first(&mut self, round: Round, view: View) -> Vec<Envelope> {
        let outputs = self.tally_previous_round(round);

        // Lines 2–3: decide any grade-1 log (we record the longest).
        // View 1 has no preceding GA_{0,2} — view 0 is the propose-only
        // bootstrap round — so the first possible decision is in view 2.
        if view.as_u64() >= 2 {
            if let Some(decided) = outputs.longest_grade1() {
                self.record_decision(round, view, decided);
            }
        }

        // Line 5: L_{v−1} = longest log output with any grade. For view 1
        // there is no GA_{0,2}; the bootstrap log [b₀] stands in.
        let l_prev = outputs.longest_any_grade().unwrap_or(BlockId::GENESIS);

        // Lines 6–7: vote the proposal with the largest valid VRF(v) not
        // conflicting with L_{v−1}. The block must be locally known,
        // otherwise conflict-checking (and later counting) is impossible.
        let proposal_tip = self
            .proposes
            .select_leader_proposal(view, |p| {
                self.tree.contains(p.tip()) && self.tree.compatible(p.tip(), l_prev)
            })
            .map(|p| p.tip());
        // Fallback outside the model's guarantees (e.g. no proposal was
        // delivered during asynchrony): vote L_{v−1} itself, which keeps
        // this process voting for extensions of its protected prefix —
        // the behaviour Lemma 2's induction relies on.
        let vote_tip = proposal_tip.unwrap_or(l_prev);

        self.last_ga_output = Some(outputs);
        vec![self.make_vote(round, vote_tip)]
    }

    /// Second round of view `v` (`r = 2v`): compute `GA_{v,1}` outputs,
    /// vote the longest grade-1 log in `GA_{v,2}`, and propose a new block
    /// extending `C_v` for view `v + 1`.
    fn step_view_second(&mut self, round: Round, view: View) -> Vec<Envelope> {
        let outputs = self.tally_previous_round(round);

        // Line 9: vote the longest Λ output with grade 1. Validity
        // guarantees one exists under the model's assumptions; outside
        // them fall back to the longest any-grade output, then to the last
        // vote (never regress to nothing).
        let vote_tip = outputs
            .longest_grade1()
            .or_else(|| outputs.longest_any_grade())
            .unwrap_or(self.last_vote_tip);

        // Line 10: C_v = longest log output with any grade.
        let c_v = outputs.longest_any_grade().unwrap_or(self.last_vote_tip);

        // Line 12: propose b‖C_v for view v+1 with VRF(v+1). The body is
        // built once and shared between the proposal and the local tree.
        let next_view = view.next();
        let payload = self.pool.payload_for(&self.tree, c_v);
        let block = Arc::new(Block::build(c_v, next_view, self.id, payload));
        let (vrf_value, vrf_proof) = self.keypair.vrf_eval(next_view.as_u64());
        let proposal = Propose::new(
            self.id,
            round,
            next_view,
            block.clone(),
            vrf_value,
            vrf_proof,
        );
        // A process hears its own multicast: record locally right away.
        self.buffer.insert(&mut self.tree, block);
        self.proposes
            .insert(proposal.clone(), self.config.directory());

        self.last_ga_output = Some(outputs);
        vec![
            self.make_vote(round, vote_tip),
            Envelope::sign(&self.keypair, Payload::Propose(proposal)),
        ]
    }

    /// Tallies the graded agreement whose send phase was the previous
    /// round: latest unexpired votes from `[r − 1 − η, r − 1]`
    /// (Section 2.1's expiration window for round `r`). With `η = 0` this
    /// is exactly the vanilla single-round tally of Figure 2.
    ///
    /// Two paths, both producing the same output for the same state:
    /// the tally [`TobProcess::share_tally`] settled on for this round,
    /// or the incremental support index.
    /// [`TobProcess::reference_tally`] is the stateless statement of what
    /// either must return.
    fn tally_previous_round(&mut self, round: Round) -> Arc<GaOutput> {
        let Some(prev) = round.prev() else {
            return Arc::new(GaOutput::empty());
        };
        if let Some((r, shared)) = self.shared_tally.take() {
            if r == round {
                return shared;
            }
        }
        let lo = prev.saturating_sub(self.config.params().expiration());
        self.reconcile_window(lo, prev);
        Arc::new(
            self.support
                .outputs(&self.tree, self.config.thresholds(), self.counted.len()),
        )
    }

    /// The paper's rule, stated statelessly: the tally of the latest
    /// unexpired votes from `[r − 1 − η, r − 1]` over this process's
    /// current vote store and tree. Read-only and independent of the
    /// incremental bookkeeping and of any memoised tally, so it
    /// is the oracle both are checked against: called right before
    /// [`TobProcess::step_send`]`(round)`, it must equal the
    /// [`TobProcess::last_ga_output`] that step leaves behind.
    pub fn reference_tally(&self, round: Round) -> GaOutput {
        let Some(prev) = round.prev() else {
            return GaOutput::empty();
        };
        let lo = prev.saturating_sub(self.config.params().expiration());
        tally(
            &self.tree,
            &self.votes.latest_in_window(lo, prev),
            self.config.thresholds(),
        )
    }

    /// Brings the incremental tally state in line with the window
    /// `[lo, hi]`: re-derives every sender whose counted record expired
    /// or whose vote-store records changed, and re-checks whether
    /// previously unknown tips have landed in the (grow-only) tree. Work
    /// is proportional to what changed, not to the window size.
    fn reconcile_window(&mut self, lo: Round, hi: Round) {
        // Expired buckets: a counted record that dropped below the window
        // can only be replaced by a record inserted since (already dirty)
        // or by nothing — either way re-derivation settles it.
        while let Some((&bucket_round, _)) = self.expiries.first_key_value() {
            if bucket_round >= lo {
                break;
            }
            if let Some((_, senders)) = self.expiries.pop_first() {
                for s in senders {
                    if self.counted.get(&s).is_some_and(|c| c.0 == bucket_round) {
                        self.dirty.insert(s);
                    }
                }
            }
        }
        if !self.dirty.is_empty() {
            for s in std::mem::take(&mut self.dirty).into_sorted_vec() {
                match self.votes.latest_of(s, lo, hi) {
                    Some((r, Some(tip))) => {
                        let prev_round = self.counted.insert(s, (r, tip)).map(|c| c.0);
                        if prev_round != Some(r) {
                            self.expiries.entry(r).or_default().push(s);
                        }
                        if self.tree.contains(tip) {
                            self.support.set_vote(&self.tree, s, tip);
                            self.unknown.remove(&s);
                        } else {
                            self.support.remove_vote(&self.tree, s);
                            self.unknown.insert(s);
                        }
                    }
                    // No record in the window, or the latest record is an
                    // equivocation: the sender is discarded entirely.
                    _ => {
                        if self.counted.remove(&s).is_some() {
                            self.support.remove_vote(&self.tree, s);
                            self.unknown.remove(&s);
                        }
                    }
                }
            }
        }
        if !self.unknown.is_empty() {
            for s in std::mem::take(&mut self.unknown).into_sorted_vec() {
                let Some(&(_, tip)) = self.counted.get(&s) else {
                    continue;
                };
                if self.tree.contains(tip) {
                    self.support.set_vote(&self.tree, s, tip);
                } else {
                    self.unknown.insert(s);
                }
            }
        }
    }

    /// Tally sharing keyed by content alone. `memo` is a driver's
    /// round-scoped map from [`TobProcess::tally_fingerprint`] to the
    /// round-`round` tally. On a hit this process adopts the memoised
    /// tally and returns `true`; on a miss it computes its own through
    /// the ordinary incremental path, publishes it and returns `false`.
    /// Either way the next [`TobProcess::step_send`]`(round)` consumes
    /// the result instead of tallying again.
    ///
    /// Why a hit is sound: the tally reads only the vote store, the block
    /// tree and the (run-wide) parameters, and the fingerprint digests
    /// the vote store and the tree — equal fingerprints mean equal
    /// tallies, up to a 64-bit collision, for any two processes in any
    /// kind of round.
    pub fn share_tally(&mut self, round: Round, memo: &mut BTreeMap<u64, Arc<GaOutput>>) -> bool {
        let fp = self.tally_fingerprint();
        if let Some(shared) = memo.get(&fp) {
            self.shared_tally = Some((round, Arc::clone(shared)));
            return true;
        }
        let own = self.tally_previous_round(round);
        memo.insert(fp, Arc::clone(&own));
        self.shared_tally = Some((round, own));
        false
    }

    /// Hasher-independent digest of the tally-relevant state (vote store
    /// combined with block tree): two processes with equal fingerprints
    /// answer every windowed tally identically.
    pub fn tally_fingerprint(&self) -> u64 {
        mix64_pair(self.votes.fingerprint(), self.tree.fingerprint())
    }

    fn make_vote(&mut self, round: Round, tip: BlockId) -> Envelope {
        self.last_vote_tip = tip;
        let vote = Vote::new(self.id, round, tip);
        // A process hears its own vote.
        if self.votes.insert(vote) != InsertOutcome::Duplicate {
            self.dirty.insert(self.id);
        }
        Envelope::sign(&self.keypair, Payload::Vote(vote))
    }

    fn record_decision(&mut self, round: Round, view: View, tip: BlockId) {
        self.decisions.push(DecisionEvent { round, view, tip });
        // Adopt as the decided tip if it extends the current decided log;
        // a conflicting decision (model violation) is recorded above but
        // the exposed decided log stays monotone for downstream readers.
        if self.tree.is_ancestor(self.decided_tip, tip) {
            self.decided_tip = tip;
            self.pool.advance(&self.tree, tip);
        }
    }

    /// Drops state that can no longer influence any future tally:
    /// votes older than one full expiration window behind, proposals for
    /// past views.
    fn prune(&mut self, round: Round) {
        // Keep a safety margin of one extra window to serve diagnostics.
        let horizon = round.saturating_sub(2 * self.config.params().expiration() + 4);
        self.votes.prune_below(horizon);
        let view = RoundKind::of(round).view();
        if view.as_u64() > 1 {
            self.proposes.prune_below(View::new(view.as_u64() - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::Params;

    /// Lock-step synchronous driver: every round, all processes send and
    /// every message reaches everyone before the next round.
    fn run_lockstep(n: usize, eta: u64, rounds: u64, seed: u64) -> Vec<TobProcess> {
        let params = Params::builder(n).expiration(eta).build().unwrap();
        let config = TobConfig::new(params, seed);
        let mut procs: Vec<TobProcess> = (0..n as u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        for r in 0..=rounds {
            lockstep_round(&mut procs, Round::new(r));
        }
        procs
    }

    fn lockstep_round(procs: &mut [TobProcess], round: Round) {
        let batches: Vec<Vec<Envelope>> = procs.iter_mut().map(|p| p.step_send(round)).collect();
        for batch in &batches {
            for env in batch {
                for p in procs.iter_mut() {
                    p.on_receive(env.clone());
                }
            }
        }
    }

    #[test]
    fn synchronous_run_decides_and_agrees() {
        for eta in [0u64, 2, 4] {
            let mut procs = run_lockstep(4, eta, 12, 7);
            for p in &mut procs {
                assert!(
                    !p.drain_decisions().is_empty(),
                    "η={eta}: process {:?} never decided",
                    p.id()
                );
            }
            // All decided tips pairwise compatible (checked on p0's tree,
            // which has absorbed every proposal).
            let tree = procs[0].tree();
            for a in &procs {
                for b in &procs {
                    assert!(
                        tree.compatible(a.decided_tip(), b.decided_tip()),
                        "η={eta}: decided logs diverge"
                    );
                }
            }
        }
    }

    #[test]
    fn decided_log_grows_monotonically() {
        let params = Params::builder(4).expiration(2).build().unwrap();
        let config = TobConfig::new(params, 3);
        let mut procs: Vec<TobProcess> = (0..4u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        let mut tips: Vec<BlockId> = vec![BlockId::GENESIS; 4];
        for r in 0..=20u64 {
            lockstep_round(&mut procs, Round::new(r));
            for (i, p) in procs.iter().enumerate() {
                assert!(
                    p.tree().is_ancestor(tips[i], p.decided_tip()),
                    "round {r}: decided log of p{i} regressed"
                );
                tips[i] = p.decided_tip();
            }
        }
        // After 10 views the decided log extends beyond genesis.
        assert!(procs.iter().all(|p| p.decided_tip() != BlockId::GENESIS));
    }

    #[test]
    fn submitted_transaction_reaches_decided_log() {
        let params = Params::builder(4).expiration(2).build().unwrap();
        let config = TobConfig::new(params, 11);
        let mut procs: Vec<TobProcess> = (0..4u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        let tx = TxId::new(777);
        procs[2].submit_tx(tx);
        for r in 0..=16u64 {
            lockstep_round(&mut procs, Round::new(r));
        }
        for p in &procs {
            assert!(
                p.tree().log_transactions(p.decided_tip()).contains(&tx),
                "tx missing from {:?}'s decided log",
                p.id()
            );
        }
    }

    #[test]
    fn decisions_progress_once_per_view_under_synchrony() {
        let mut procs = run_lockstep(4, 2, 24, 5);
        // With honest unanimity, every view from the second on decides:
        // roughly (rounds/2 − 1) decisions.
        for p in &mut procs {
            let decisions = p.drain_decisions();
            assert!(
                decisions.len() >= 8,
                "expected ≥8 decisions, got {} for {:?}",
                decisions.len(),
                p.id()
            );
            // Views strictly increase.
            for w in decisions.windows(2) {
                assert!(w[0].view < w[1].view);
            }
        }
    }

    #[test]
    fn sleeping_process_catches_up_on_wake() {
        let params = Params::builder(4).expiration(4).build().unwrap();
        let config = TobConfig::new(params, 9);
        let mut procs: Vec<TobProcess> = (0..4u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        // p3 sleeps during rounds 3..=6: it neither sends nor receives.
        let mut queued: Vec<Envelope> = Vec::new();
        for r in 0..=12u64 {
            let round = Round::new(r);
            let asleep = (3..=6).contains(&r);
            let active: Vec<usize> = if asleep {
                vec![0, 1, 2]
            } else {
                vec![0, 1, 2, 3]
            };
            let mut batches: Vec<Envelope> = Vec::new();
            for &i in &active {
                batches.extend(procs[i].step_send(round));
            }
            if asleep {
                queued.extend(batches.iter().cloned());
                for &i in &active {
                    for env in &batches {
                        procs[i].on_receive(env.clone());
                    }
                }
            } else {
                // Wake-up: deliver everything queued while asleep first.
                if !queued.is_empty() {
                    for env in queued.drain(..) {
                        procs[3].on_receive(env);
                    }
                }
                for env in &batches {
                    for p in procs.iter_mut() {
                        p.on_receive(env.clone());
                    }
                }
            }
        }
        // p3 decided after waking, and its log agrees with the others.
        assert!(!procs[3].drain_decisions().is_empty());
        let tree = procs[0].tree();
        assert!(tree.compatible(procs[3].decided_tip(), procs[0].decided_tip()));
    }

    #[test]
    fn invalid_signature_is_discarded() {
        let params = Params::builder(3).build().unwrap();
        let config = TobConfig::new(params, 1);
        let mut p = TobProcess::new(ProcessId::new(0), config.clone());
        // An envelope signed under a different seed fails verification.
        let alien = Keypair::derive(ProcessId::new(1), 999);
        let vote = Vote::new(ProcessId::new(1), Round::new(1), BlockId::GENESIS);
        let env = Envelope::sign(&alien, Payload::Vote(vote));
        p.on_receive(env);
        let w = p.votes.latest_in_window(Round::new(1), Round::new(1));
        assert_eq!(w.participation(), 0);
    }

    #[test]
    fn vanilla_and_extended_agree_under_full_synchrony() {
        // Under full participation and synchrony the extended protocol
        // must match the vanilla protocol's decisions (claim: it "matches
        // the latency and throughput of the original protocol when the
        // synchrony bound holds").
        let mut vanilla = run_lockstep(4, 0, 14, 21);
        let mut extended = run_lockstep(4, 4, 14, 21);
        for (v, e) in vanilla.iter_mut().zip(extended.iter_mut()) {
            let (v, e) = (v.drain_decisions(), e.drain_decisions());
            assert_eq!(v.len(), e.len(), "decision counts diverge");
            for (dv, de) in v.iter().zip(e.iter()) {
                assert_eq!(dv.round, de.round);
                assert_eq!(dv.tip, de.tip, "decided different logs at {:?}", dv.round);
            }
        }
    }

    #[test]
    fn reference_tally_exposes_a_wrong_shared_tally() {
        // The oracle can fail: a memo holding a tally the process would
        // not have computed is caught by comparing what step_send
        // consumed against the stateless reference.
        let mut procs = run_lockstep(4, 2, 5, 17);
        let round = Round::new(6);
        let reference = procs[0].reference_tally(round);
        assert!(!reference.is_empty(), "votes are in flight by round 6");
        let mut poisoned =
            BTreeMap::from([(procs[0].tally_fingerprint(), Arc::new(GaOutput::empty()))]);
        assert!(procs[0].share_tally(round, &mut poisoned));
        procs[0].step_send(round);
        assert_ne!(procs[0].last_ga_output(), Some(&reference));
        // An honest memo passes the same comparison: p1 misses and
        // publishes, p2 hits and consumes p1's tally.
        let mut memo = BTreeMap::new();
        assert!(!procs[1].share_tally(round, &mut memo));
        assert!(procs[2].share_tally(round, &mut memo));
        procs[2].step_send(round);
        assert_eq!(procs[2].last_ga_output(), Some(&reference));
    }

    #[test]
    fn equal_received_streams_do_not_mean_equal_tally_state() {
        // Why the sharing certificate is content, not delivery history:
        // after a blackout every process has *received* the identical
        // stream (everything up to round 5, then nothing), yet each
        // inserted its own round-6 and round-7 votes, so no two states —
        // and no two tallies' inputs — are equal.
        let mut procs = run_lockstep(4, 2, 5, 23);
        let mut withheld: Vec<Envelope> = Vec::new();
        for r in 6..=7u64 {
            for p in procs.iter_mut() {
                withheld.extend(p.step_send(Round::new(r)));
            }
        }
        for (i, a) in procs.iter().enumerate() {
            for b in &procs[i + 1..] {
                assert_ne!(a.tally_fingerprint(), b.tally_fingerprint());
            }
        }
        let round = Round::new(8);
        let mut memo = BTreeMap::new();
        for p in procs.iter_mut() {
            assert!(!p.share_tally(round, &mut memo), "nobody may adopt");
            let reference = p.reference_tally(round);
            withheld.extend(p.step_send(round));
            assert_eq!(p.last_ga_output(), Some(&reference));
        }
        assert_eq!(memo.len(), procs.len());
        // One fully delivered round later the states agree again: the
        // first process computes, everyone else adopts.
        for env in withheld {
            for p in procs.iter_mut() {
                p.on_receive(env.clone());
            }
        }
        let round = Round::new(9);
        let mut memo = BTreeMap::new();
        let hits: Vec<bool> = procs
            .iter_mut()
            .map(|p| p.share_tally(round, &mut memo))
            .collect();
        assert_eq!(hits, [false, true, true, true]);
        for p in procs.iter_mut() {
            let reference = p.reference_tally(round);
            p.step_send(round);
            assert_eq!(p.last_ga_output(), Some(&reference));
        }
    }

    #[test]
    fn pool_dedupes_and_drains() {
        let params = Params::builder(4).expiration(2).build().unwrap();
        let config = TobConfig::new(params, 2);
        let mut procs: Vec<TobProcess> = (0..4u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        let tx = TxId::new(1);
        procs[0].submit_tx(tx);
        procs[0].submit_tx(tx);
        assert_eq!(procs[0].pending_txs(), 1);
        let mut r = 0;
        while !procs[0]
            .tree()
            .log_transactions(procs[0].decided_tip())
            .contains(&tx)
        {
            lockstep_round(&mut procs, Round::new(r));
            r += 1;
            assert!(r < 20, "tx never decided");
        }
        assert_eq!(procs[0].pending_txs(), 0, "a decided tx leaves pending");
        procs[0].submit_tx(tx);
        assert_eq!(procs[0].pending_txs(), 0, "re-submission stays out");
        let mut proposals = 0;
        for round in r..r + 6 {
            let own = procs[0].step_send(Round::new(round));
            for env in &own {
                if let Payload::Propose(p) = env.payload() {
                    assert!(!p.block().payload().contains(&tx), "re-proposed");
                    proposals += 1;
                }
            }
            let mut batches = vec![own];
            batches.extend(
                procs[1..]
                    .iter_mut()
                    .map(|p| p.step_send(Round::new(round))),
            );
            for env in batches.iter().flatten() {
                for p in procs.iter_mut() {
                    p.on_receive(env.clone());
                }
            }
        }
        assert!(proposals >= 2);
    }
}
