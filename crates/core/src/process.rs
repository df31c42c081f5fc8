//! The per-process state machine of Algorithm 1 (with message expiration).

use crate::buffer::BodyStore;
use crate::txpool::TxPool;
use crate::{DecisionEvent, TobConfig};
use st_blocktree::{Block, BlockTree};
use st_crypto::Keypair;
use st_ga::{GaOutput, SupportIndex};
use st_messages::{
    Envelope, InsertOutcome, Payload, Propose, ProposeStore, Sender, SharedEnvelope, Verified,
    Vote, VoteStore,
};
use st_types::fasthash::mix64_pair;
use st_types::{BlockId, Participation, ProcessId, Round, RoundKind, TxId, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A well-behaved process running Algorithm 1, parameterised by the
/// expiration period `η` and the tally's [`Participation`] rule from its
/// [`TobConfig`].
///
/// The state machine is deterministic and I/O-free: drivers call
/// [`TobProcess::on_receive_shared`] for every delivered message (a
/// multicast is wrapped once in a [`SharedEnvelope`] and its handle
/// fanned out to every receiver) and [`TobProcess::step_send`] once per
/// round the process is awake in; the latter returns the messages to
/// multicast. A process that is asleep for some rounds is simply not
/// stepped for them — queued messages are delivered through the same
/// receive path when it wakes, exactly matching the sleepy model's
/// message-queueing semantics.
///
/// With [`Participation::Fixed`] the tally grades support against all `n`
/// processes instead of the perceived participation `m`: the classic
/// fixed-quorum BFT baseline the paper's introduction contrasts with,
/// differing from the paper's protocol in that one value.
#[derive(Clone, Debug)]
pub struct TobProcess {
    id: ProcessId,
    /// `id` as a member of the process set; `None` for an id outside the
    /// key directory, whose votes no process counts, this one included
    /// (no other process can verify them either).
    me: Option<Sender>,
    config: TobConfig,
    keypair: Keypair,
    /// The referenced bodies: every connected body a stored vote names,
    /// with its ancestors. Everything else received waits in `bodies`.
    tree: BlockTree,
    bodies: BodyStore,
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
    /// vote whose tip is in the tree, updated per sender delta instead of
    /// being rebuilt from the whole window each round.
    support: SupportIndex,
    /// What the tally last derived for each sender.
    senders: SenderTable,
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
            me: config.directory().sender(id),
            config,
            keypair,
            tree: BlockTree::new(),
            bodies: BodyStore::new(),
            votes: VoteStore::new(),
            proposes: ProposeStore::new(),
            pool: TxPool::new(),
            decisions: Vec::new(),
            decided_tip: BlockId::GENESIS,
            last_vote_tip: BlockId::GENESIS,
            last_ga_output: None,
            support: SupportIndex::new(),
            senders: SenderTable::default(),
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

    /// The process's block arena: the decided chain and every body a
    /// stored vote has named (its own votes, hence its leader choices,
    /// included), with their ancestors. Bodies nothing references wait
    /// outside it until the vote store's pruning edge passes their view,
    /// so this is not every block the process has received;
    /// [`TobProcess::tally_fingerprint`] digests it together with the
    /// waiting bodies still held.
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

    /// The windowed vote store — bounded by `n · (2η + 5)` distinct
    /// records: per-round pruning keeps the rounds from `r − 2η − 4` on
    /// (diagnostics; the bounded-memory regression suite watches its
    /// size).
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

    /// Proposal bodies held outside the tree: connected ones nothing
    /// references yet, and orphans waiting for a parent (diagnostics; the
    /// bounded-memory regression suite watches its size).
    pub fn bodies_held(&self) -> usize {
        // stlint::allow(deadpub, reason = "the body-store probe of the bounded-memory regression suite (st-sim's bounded_memory.rs)")
        self.bodies.len()
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

    /// Handles a received shared envelope: [`SharedEnvelope::verified`]
    /// discards an unverifiable message (Section 2.1), then votes go to
    /// the vote store and proposals to the body and propose stores. Over
    /// a whole process set, a multicast envelope's signature (and a
    /// proposal's VRF) is checked once: the first receiver pays the hash
    /// and everyone else reuses the cached verdict. Honest envelopes are
    /// immutable after signing and forgeries fail deterministically, so
    /// caching a verdict cannot change any accept/discard outcome.
    pub fn on_receive_shared(&mut self, envelope: &SharedEnvelope) {
        match envelope.verified(self.config.directory()) {
            // Round 0 is view 0's propose-only round: no graded agreement
            // has a send phase there, so a round-0 vote tag is
            // protocol-invalid (only an adversary would produce one) and
            // is discarded below.
            Some(Verified::Vote(sender, vote)) if vote.round() > Round::ZERO => {
                self.store_vote(sender, *vote);
            }
            None | Some(Verified::Vote(..)) => {}
            Some(Verified::Propose {
                proposal,
                vrf_valid,
                ..
            }) => {
                // The shared handle: a multicast block body is stored
                // once, not once per receiver. It enters the tree when a
                // vote names it; orphans park. The body is kept whatever
                // the VRF says; only a valid VRF(v) makes the proposal a
                // leader candidate.
                self.bodies
                    .insert(&mut self.tree, proposal.block_arc().clone());
                if vrf_valid {
                    self.proposes.insert_verified(proposal.clone());
                }
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
        // Record own proposal locally (a process hears its own multicast);
        // its VRF is this process's own evaluation.
        self.proposes.insert_verified(proposal.clone());
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
        // conflicting with L_{v−1}. The block must be connected,
        // otherwise conflict-checking (and later counting) is impossible;
        // the own vote below admits the chosen one to the tree. `l_prev`
        // is a tally output, hence on a voted chain, hence in the tree.
        let proposal_tip = self
            .proposes
            .select_leader_proposal(view, |p| {
                self.bodies.compatible(&self.tree, p.tip(), l_prev)
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
        // built once and shared between the proposal and the local store.
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
        self.bodies.insert(&mut self.tree, block);
        self.proposes.insert_verified(proposal.clone());

        self.last_ga_output = Some(outputs);
        vec![
            self.make_vote(round, vote_tip),
            Envelope::sign(&self.keypair, Payload::Propose(proposal)),
        ]
    }

    /// Tallies the graded agreement whose send phase was the previous
    /// round: latest unexpired votes from `[r − 1 − η, r − 1]`
    /// (Section 2.1's expiration window for round `r`). With `η = 0` this
    /// is exactly the vanilla single-round tally of Figure 2. Support is
    /// graded against the counted senders `m`, or against all `n` under
    /// [`Participation::Fixed`].
    ///
    /// Two paths, both producing the same output for the same state:
    /// the tally [`TobProcess::share_tally`] settled on for this round,
    /// or the incremental support index. The literal Algorithm 1 in
    /// st-core's tests (`tests/support/literal.rs`) states what either
    /// must return.
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
        let counted = self.reconcile_window(lo, prev);
        let m = match self.config.params().participation() {
            Participation::Perceived => counted,
            Participation::Fixed => self.config.params().n(),
        };
        Arc::new(
            self.support
                .outputs(&self.tree, self.config.thresholds(), m),
        )
    }

    /// Brings the incremental tally state in line with the window
    /// `[lo, hi]` in one pass over the sender table, and returns how many
    /// senders are counted (the perceived participation `m`). A slot is
    /// re-derived from the vote store when its records changed since the
    /// last tally, when its counted vote dropped below `lo`, or when its
    /// counted tip is not in the tree yet (the tree only grows); any
    /// other slot still holds its latest in-window vote. The first call
    /// sizes the table to the `n` members, every slot to be derived.
    fn reconcile_window(&mut self, lo: Round, hi: Round) -> usize {
        self.senders.fill(self.config.params().n());
        let mut counted = 0;
        for (index, slot) in self.senders.slots.iter_mut().enumerate() {
            let stale = slot
                .counted
                .is_some_and(|(round, _)| round < lo || !slot.in_support);
            if slot.dirty || stale {
                let sender = ProcessId::new(index as u32);
                // A sender with a record above the window (delivered
                // before this process reached its round) stays dirty
                // until the window reaches it.
                slot.dirty = self.votes.has_record_above(sender, hi);
                match self.votes.latest_of(sender, lo, hi) {
                    Some((round, Some(tip))) => {
                        slot.counted = Some((round, tip));
                        slot.in_support = self.support.set_vote(&self.tree, sender, tip);
                        if !slot.in_support {
                            self.support.remove_vote(&self.tree, sender);
                        }
                    }
                    // No record in the window, or the latest record is an
                    // equivocation: the sender is discarded entirely.
                    _ => {
                        slot.counted = None;
                        slot.in_support = false;
                        self.support.remove_vote(&self.tree, sender);
                    }
                }
            }
            counted += usize::from(slot.counted.is_some());
        }
        counted
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
    /// tree and the (run-wide) parameters — `η`, the thresholds and the
    /// participation rule — and the fingerprint digests
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

    /// Hasher-independent digest of the tally-relevant state: the vote
    /// store combined with every *connected* body (its whole ancestry
    /// held), in the tree or still waiting outside it. A pruned body is
    /// not held, so its id is not in the digest. A tally reads the tree
    /// only along the chains of the tips stored votes name, and each such
    /// tip is in the tree exactly when it is connected (no stored vote
    /// names a waiting body), so two processes with equal fingerprints
    /// answer every windowed tally identically, whatever each one's
    /// admission and pruning history.
    pub fn tally_fingerprint(&self) -> u64 {
        mix64_pair(
            self.votes.fingerprint(),
            self.bodies.connected_fingerprint(&self.tree),
        )
    }

    fn make_vote(&mut self, round: Round, tip: BlockId) -> Envelope {
        self.last_vote_tip = tip;
        let vote = Vote::new(self.id, round, tip);
        // A process hears its own vote. One outside the process set has
        // no slot to count it in; its vote still admits the body it names.
        match self.me {
            Some(me) => self.store_vote(me, vote),
            None => self.bodies.reference(&mut self.tree, tip, round),
        }
        Envelope::sign(&self.keypair, Payload::Vote(vote))
    }

    /// Records `sender`'s vote, marks its slot for the next tally (once
    /// the table is sized), and admits the body the vote names (or
    /// remembers the name until the body connects), keeping every
    /// connected body a stored vote names in the tree.
    fn store_vote(&mut self, sender: Sender, vote: Vote) {
        if self.votes.insert(vote) != InsertOutcome::Duplicate {
            self.senders.mark(sender);
            self.bodies
                .reference(&mut self.tree, vote.tip(), vote.round());
        }
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
    /// votes older than one full expiration window behind, unreferenced
    /// bodies of views whose first round left the vote store (in the
    /// model no counted vote names one; DESIGN §2.4), proposals for past
    /// views.
    fn prune(&mut self, round: Round) {
        // Keep a safety margin of one extra window to serve diagnostics.
        let horizon = round.saturating_sub(2 * self.config.params().expiration() + 4);
        self.votes.prune_below(horizon);
        self.bodies.prune_below(horizon);
        let view = RoundKind::of(round).view();
        if view.as_u64() > 1 {
            self.proposes.prune_below(View::new(view.as_u64() - 1));
        }
    }
}

/// The per-sender records, marked only through a directory-issued
/// [`Sender`]: empty until the process computes a tally of its own (a
/// process whose tallies a driver's memo serves never fills it), then
/// one slot per member.
#[derive(Clone, Debug, Default)]
struct SenderTable {
    slots: Vec<SenderSlot>,
}

impl SenderTable {
    /// Sizes the table to `n` slots, each new one to be derived at the
    /// next reconcile pass.
    fn fill(&mut self, n: usize) {
        if self.slots.len() < n {
            let derive = SenderSlot {
                dirty: true,
                ..SenderSlot::default()
            };
            self.slots.resize(n, derive);
        }
    }

    /// Marks `sender`'s slot for the next tally; before the table is
    /// sized there is nothing to mark, as every slot starts dirty.
    fn mark(&mut self, sender: Sender) {
        if let Some(slot) = self.slots.get_mut(sender.index()) {
            slot.dirty = true;
        }
    }
}

/// One sender's record in the tally state: the paper's expiration rule
/// reads one thing per sender, its latest unexpired vote.
#[derive(Clone, Copy, Debug, Default)]
struct SenderSlot {
    /// The (round, tip) of the sender's latest in-window record if it is
    /// a clean vote, else `None` (no record, or an equivocation): `Some`
    /// exactly for the senders in the perceived participation `m`.
    counted: Option<(Round, BlockId)>,
    /// Whether the counted tip is in the tree, hence in the support index;
    /// a vote on an unknown tip counts toward `m` but supports nothing.
    in_support: bool,
    /// Whether the sender's vote-store records changed since the last
    /// tally (or one waits above the window).
    dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::Params;

    /// The processes `ids` of an `n`-process system with expiration `eta`.
    fn processes(
        n: usize,
        eta: u64,
        seed: u64,
        ids: impl IntoIterator<Item = u32>,
    ) -> Vec<TobProcess> {
        let config = TobConfig::new(Params::builder(n).expiration(eta).build().unwrap(), seed);
        ids.into_iter()
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect()
    }

    /// Lock-step synchronous driver: every round, all processes send and
    /// every message reaches everyone before the next round.
    fn run_lockstep(n: usize, eta: u64, rounds: u64, seed: u64) -> Vec<TobProcess> {
        let mut procs = processes(n, eta, seed, 0..n as u32);
        for r in 0..=rounds {
            lockstep_round(&mut procs, Round::new(r));
        }
        procs
    }

    fn lockstep_round(procs: &mut [TobProcess], round: Round) {
        let batches: Vec<Vec<Envelope>> = procs.iter_mut().map(|p| p.step_send(round)).collect();
        for env in batches.into_iter().flatten() {
            let env = SharedEnvelope::new(env);
            for p in procs.iter_mut() {
                p.on_receive_shared(&env);
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
            // All decided tips pairwise compatible, checked on p0's tree:
            // under lock-step synchrony every decided tip was voted for
            // by everyone, so every process's tree holds all of them.
            let tree = procs[0].tree();
            for a in &procs {
                assert!(tree.contains(a.decided_tip()), "η={eta}: tip unknown to p0");
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
        let mut procs = processes(4, 2, 3, 0..4);
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
        let mut procs = processes(4, 2, 11, 0..4);
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
        let mut procs = processes(4, 4, 9, 0..4);
        // p3 sleeps during rounds 3..=6: it neither sends nor receives.
        let mut queued: Vec<SharedEnvelope> = Vec::new();
        for r in 0..=12u64 {
            let round = Round::new(r);
            let asleep = (3..=6).contains(&r);
            let active: Vec<usize> = if asleep {
                vec![0, 1, 2]
            } else {
                vec![0, 1, 2, 3]
            };
            let batches: Vec<SharedEnvelope> = active
                .iter()
                .flat_map(|&i| procs[i].step_send(round))
                .map(SharedEnvelope::new)
                .collect();
            if asleep {
                queued.extend(batches.iter().cloned());
                for &i in &active {
                    for env in &batches {
                        procs[i].on_receive_shared(env);
                    }
                }
            } else {
                // Wake-up: deliver everything queued while asleep first.
                for env in queued.drain(..) {
                    procs[3].on_receive_shared(&env);
                }
                for env in &batches {
                    for p in procs.iter_mut() {
                        p.on_receive_shared(env);
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
        let mut p = processes(3, 0, 1, [0]).remove(0);
        // An envelope signed under a different seed fails verification.
        let alien = Keypair::derive(ProcessId::new(1), 999);
        let vote = Vote::new(ProcessId::new(1), Round::new(1), BlockId::GENESIS);
        let env = Envelope::sign(&alien, Payload::Vote(vote));
        p.on_receive_shared(&SharedEnvelope::new(env));
        let w = p.votes.latest_in_window(Round::new(1), Round::new(1));
        assert_eq!(w.participation(), 0);
    }

    #[test]
    fn a_sender_outside_the_directory_never_reaches_the_sender_indexed_tables() {
        // The vote store and the sender table are indexed by sender: an
        // envelope naming sender u32::MAX, admitted, would size them to
        // 2^32 slots. `verified` issues no `Sender` outside the directory,
        // and only a `Sender` indexes the table.
        let mut p = processes(4, 0, 1, [0]).remove(0);
        let far = Keypair::derive(ProcessId::new(u32::MAX), 1);
        let vote = Vote::new(far.owner(), Round::new(1), BlockId::GENESIS);
        let (value, proof) = far.vrf_eval(1);
        let block = Block::build(BlockId::GENESIS, View::new(1), far.owner(), Vec::new());
        let proposal = Propose::new(far.owner(), Round::ZERO, View::new(1), block, value, proof);
        for payload in [Payload::Vote(vote), Payload::Propose(proposal)] {
            p.on_receive_shared(&SharedEnvelope::new(Envelope::sign(&far, payload)));
        }
        assert!(p.votes().is_empty());
        assert!(p.senders.slots.is_empty());
        assert!(p
            .proposes
            .select_leader_proposal(View::new(1), |_| true)
            .is_none());
        assert_eq!(p.bodies_held(), 0);
    }

    #[test]
    fn a_process_outside_the_directory_runs_and_counts_no_vote_of_its_own() {
        // Its own votes would index the vote store and the sender table by
        // a raw id; with no `Sender` they reach neither, and it still
        // follows the members' chain.
        let mut procs = processes(4, 2, 5, [0, 1, 2, 3, u32::MAX]);
        for r in 0..=12 {
            lockstep_round(&mut procs, Round::new(r));
        }
        let outsider = &procs[4];
        assert_eq!(outsider.senders.slots.len(), 4);
        let own = outsider
            .votes()
            .latest_of(outsider.id(), Round::ZERO, Round::new(12));
        assert_eq!(own, None);
        assert_ne!(outsider.decided_tip(), BlockId::GENESIS);
        assert!(procs[0]
            .tree()
            .compatible(procs[0].decided_tip(), outsider.decided_tip()));
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
    fn pool_dedupes_and_drains() {
        let mut procs = processes(4, 2, 2, 0..4);
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
            for env in batches.into_iter().flatten() {
                let env = SharedEnvelope::new(env);
                for p in procs.iter_mut() {
                    p.on_receive_shared(&env);
                }
            }
        }
        assert!(proposals >= 2);
    }
}
