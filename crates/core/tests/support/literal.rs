//! `LiteralProcess`: Algorithm 1 with message expiration, written from
//! the paper's text as plainly as the types allow, and the one reference
//! `TobProcess` is compared with.
//!
//! It shares no code with st-core's process beyond the types, the crypto
//! and the message structs: no vote or propose store, no incremental
//! support index, no tally memo, no tx pool, no body store. It keeps
//! every vote and every proposal it receives. Each round it tallies the
//! latest unexpired vote of every process from `[r − 1 − η, r − 1]` by
//! the graded-agreement definitions, builds payloads by the from-genesis
//! rule ("what I was submitted, in order, minus the log I extend"), and
//! picks the leader and decides by Algorithm 1's lines 1–12.
//!
//! **Its one deviation** from the paper is the body retention rule (see
//! [`Bodies`]): a body nothing has voted for is dropped once the vote
//! window's pruning edge passes its view, and a vote naming a dropped
//! body counts toward `m` and supports nothing. Every time that rule
//! makes the process read something the paper's keep-everything rule
//! would read differently, [`LiteralProcess::deviations`] counts it; in
//! the model (no Byzantine sender, asynchrony shorter than `η`) it stays
//! zero.
//!
//! It is driven through the same calls as `TobProcess` (`new`,
//! `submit_tx`, `on_receive_shared`, `step_send`, `drain_decisions`), and
//! [`assert_matches`] is the one comparison of the two. Included by path
//! wherever a test compares `TobProcess` with it: replaying a recorded
//! simulation of `n` processes (st-sim's `tests/support/replay.rs`, the
//! one driver of whole networks), or beside one process as a [`Twin`].

#![allow(dead_code, reason = "each including test uses a different part")]

use st_blocktree::{Block, BlockTree};
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_crypto::{Keypair, Vrf};
use st_messages::wire::encode_envelope;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Verified, Vote};
use st_types::{BlockId, Grade, ProcessId, Round, RoundKind, TxId, View};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A graded agreement's output: each output log (by tip) with its grade,
/// and the perceived participation `m`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub graded: BTreeMap<BlockId, Grade>,
    pub m: usize,
}

/// The tally `p`'s last `step_send` consumed, in the literal's terms.
pub fn consumed(p: &TobProcess) -> Option<Tally> {
    p.last_ga_output().map(|out| Tally {
        graded: out.iter().collect(),
        m: out.participation(),
    })
}

/// The payload rule: every submitted transaction, in first-submission
/// order, that is not in the log with tip `parent`.
pub fn payload_rule(submitted: &[TxId], tree: &BlockTree, parent: BlockId) -> Vec<TxId> {
    let onchain = tree.log_transactions(parent);
    submitted
        .iter()
        .copied()
        .filter(|tx| !onchain.contains(tx))
        .collect()
}

/// Which received bodies a process may read: the retention rule.
///
/// A body is held from its arrival until the rule drops it; a dropped
/// body that arrives again is held again. A held body is *connected* when
/// its whole ancestry is held, and is *admitted* once a vote names it or
/// a descendant while it is connected. Admitted bodies are never dropped.
/// At the edge `lo` (the vote window's pruning edge `r − 2η − 4`) a name
/// expires when its latest vote's round is below `lo`, and a body of view
/// `v` with `2v − 1 < lo` is dropped, unless it is admitted or a
/// connected ancestor of a kept body of a later view.
#[derive(Clone, Debug, Default)]
pub struct Bodies {
    /// The admitted bodies (ancestor-closed).
    pub tree: BlockTree,
    /// Held bodies not admitted.
    held: BTreeMap<BlockId, Arc<Block>>,
    /// Names not yet admitted: tip → latest round of a vote naming it.
    wanted: BTreeMap<BlockId, Round>,
    /// Parent of every body ever received: the paper's keep-everything
    /// store, read only to tell whether the rule changed an answer.
    every: BTreeMap<BlockId, BlockId>,
    deviations: usize,
}

impl Bodies {
    fn parent(&self, id: BlockId) -> Option<BlockId> {
        let held = || self.held.get(&id).map(|b| b.parent());
        self.tree.parent(id).or_else(held)
    }

    /// Whether `id` and its whole ancestry are held.
    pub fn connected(&self, id: BlockId) -> bool {
        let mut cur = id;
        loop {
            if cur == BlockId::GENESIS || self.tree.contains(cur) {
                return true;
            }
            match self.held.get(&cur) {
                Some(b) => cur = b.parent(),
                None => return false,
            }
        }
    }

    /// `connected(id)`, counting a deviation when keeping every body
    /// would have answered yes.
    fn readable(&mut self, id: BlockId) -> bool {
        if self.connected(id) {
            return true;
        }
        let mut cur = id;
        while let Some(&parent) = self.every.get(&cur) {
            if parent == BlockId::GENESIS {
                self.deviations += 1;
                break;
            }
            cur = parent;
        }
        false
    }

    /// The log with tip `id`, tip first, genesis last.
    fn chain(&self, id: BlockId) -> Vec<BlockId> {
        let mut out = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    fn body(&mut self, block: &Arc<Block>) {
        let id = block.id();
        if id == BlockId::GENESIS {
            return;
        }
        self.every.insert(id, block.parent());
        if !self.tree.contains(id) {
            self.held.entry(id).or_insert_with(|| block.clone());
            let wanted: Vec<BlockId> = self.wanted.keys().copied().collect();
            for tip in wanted {
                self.admit(tip);
            }
        }
    }

    fn name(&mut self, tip: BlockId, round: Round) {
        if !self.admit(tip) {
            let latest = self.wanted.entry(tip).or_insert(round);
            *latest = (*latest).max(round);
        }
    }

    /// Moves a connected `tip` and its held ancestors into the tree.
    fn admit(&mut self, tip: BlockId) -> bool {
        if !self.connected(tip) {
            return false;
        }
        self.wanted.remove(&tip);
        let mut path = Vec::new();
        let mut cur = tip;
        while let Some(b) = self.held.remove(&cur) {
            cur = b.parent();
            path.push(b);
        }
        for b in path.into_iter().rev() {
            self.tree.insert(b).expect("parents first");
        }
        true
    }

    fn prune_below(&mut self, lo: Round) {
        self.wanted.retain(|_, latest| *latest >= lo);
        let expired = |b: &Block| 2 * b.view().as_u64() < lo.as_u64() + 1;
        let mut keep = BTreeSet::new();
        for (&id, b) in &self.held {
            if expired(b) || !keep.insert(id) || !self.connected(id) {
                continue;
            }
            let mut cur = b.parent();
            while let Some(parent) = self.held.get(&cur) {
                keep.insert(cur);
                cur = parent.parent();
            }
        }
        self.held.retain(|id, _| keep.contains(id));
    }
}

/// Algorithm 1 with message expiration, by the text. See the module doc.
#[derive(Clone, Debug)]
pub struct LiteralProcess {
    id: ProcessId,
    config: TobConfig,
    keypair: Keypair,
    /// Every vote of a round ≥ 1: sender → round → the tips it named.
    votes: BTreeMap<ProcessId, BTreeMap<Round, BTreeSet<BlockId>>>,
    /// Every proposal with a valid VRF, by the view it proposes for.
    proposals: BTreeMap<View, Vec<Propose>>,
    pub bodies: Bodies,
    /// Submitted transactions, deduplicated, in first-submission order.
    submitted: Vec<TxId>,
    decisions: Vec<DecisionEvent>,
    decided_tip: BlockId,
    last_vote_tip: BlockId,
    last_tally: Option<Tally>,
}

impl LiteralProcess {
    /// The tally the last `step_send` consumed.
    pub fn last_tally(&self) -> Option<&Tally> {
        self.last_tally.as_ref()
    }

    /// How often the retention rule changed what this process read.
    pub fn deviations(&self) -> usize {
        self.bodies.deviations
    }

    /// The paper's tally for round `r`: the latest vote of each process
    /// from `[r − 1 − η, r − 1]`; a process with two different votes in
    /// that round is discarded. `m` counts the rest, and a log is output
    /// with grade 1 if more than `(1 − β)·m` of them vote for it or an
    /// extension, with grade 0 if more than `β·m`.
    fn tally(&mut self, round: Round) -> Tally {
        let mut tally = Tally::default();
        let Some(prev) = round.prev() else {
            return tally;
        };
        let lo = prev.saturating_sub(self.config.params().expiration());
        let mut per_tip: BTreeMap<BlockId, usize> = BTreeMap::new();
        for rounds in self.votes.values() {
            match rounds.range(lo..=prev).next_back() {
                Some((_, tips)) if tips.len() == 1 => {
                    tally.m += 1;
                    *per_tip.entry(*tips.first().unwrap()).or_default() += 1;
                }
                _ => {}
            }
        }
        let mut support: BTreeMap<BlockId, usize> = BTreeMap::new();
        for (tip, count) in per_tip {
            if !self.bodies.readable(tip) {
                continue;
            }
            for b in self.bodies.chain(tip) {
                *support.entry(b).or_default() += count;
            }
        }
        let beta = self.config.params().failure_ratio();
        let m = tally.m as f64;
        for (b, s) in support {
            if s as f64 > (1.0 - beta) * m {
                tally.graded.insert(b, Grade::One);
            } else if s as f64 > beta * m {
                tally.graded.insert(b, Grade::Zero);
            }
        }
        tally
    }

    /// The longest output log, of grade 1 only if `grade1`; ties go to
    /// the larger id.
    fn longest(&self, tally: &Tally, grade1: bool) -> Option<BlockId> {
        let height = |b: BlockId| self.bodies.chain(b).len();
        let outputs = tally
            .graded
            .iter()
            .filter(|&(_, &g)| !grade1 || g == Grade::One);
        outputs
            .map(|(&b, _)| b)
            .max_by_key(|&b| (height(b), b.as_u64()))
    }

    /// Lines 6–7: the proposal for `view` with the largest valid VRF
    /// whose log is compatible with `base` (one is a prefix of the other).
    fn leader(&mut self, view: View, base: BlockId) -> Option<BlockId> {
        let candidates: Vec<_> = self.proposals.get(&view).map_or(Vec::new(), |ps| {
            ps.iter().map(|p| (p.vrf_value(), p.tip())).collect()
        });
        let base_chain = self.bodies.chain(base);
        candidates
            .into_iter()
            .filter(|&(_, tip)| {
                self.bodies.readable(tip)
                    && (base_chain.contains(&tip) || self.bodies.chain(tip).contains(&base))
            })
            .max_by_key(|&(vrf, tip)| (vrf, tip.as_u64()))
            .map(|(_, tip)| tip)
    }

    fn receive_vote(&mut self, vote: Vote) {
        // Round 0 is view 0's propose-only round: no vote belongs to it.
        if vote.round() > Round::ZERO {
            let rounds = self.votes.entry(vote.sender()).or_default();
            rounds.entry(vote.round()).or_default().insert(vote.tip());
            self.bodies.name(vote.tip(), vote.round());
        }
    }

    fn receive_propose(&mut self, proposal: &Propose) {
        self.bodies.body(proposal.block_arc());
        let valid = self
            .config
            .directory()
            .key_of(proposal.sender())
            .is_some_and(|pk| {
                let view = proposal.view().as_u64();
                Vrf::verify(pk, view, proposal.vrf_value(), proposal.vrf_proof())
            });
        if valid {
            let at = self.proposals.entry(proposal.view()).or_default();
            at.push(proposal.clone());
        }
    }

    /// A vote this process multicasts, and hears itself.
    fn vote(&mut self, round: Round, tip: BlockId) -> Envelope {
        self.last_vote_tip = tip;
        let vote = Vote::new(self.id, round, tip);
        self.receive_vote(vote);
        Envelope::sign(&self.keypair, Payload::Vote(vote))
    }

    /// A proposal of `block` for `view`, multicast and heard.
    fn propose(&mut self, round: Round, view: View, block: Block) -> Envelope {
        let (value, proof) = self.keypair.vrf_eval(view.as_u64());
        let proposal = Propose::new(self.id, round, view, block, value, proof);
        self.receive_propose(&proposal);
        Envelope::sign(&self.keypair, Payload::Propose(proposal))
    }

    fn decide(&mut self, round: Round, view: View, tip: BlockId) {
        self.decisions.push(DecisionEvent { round, view, tip });
        // The decided tip only moves forward; a conflicting decision is
        // still recorded above.
        if self.bodies.tree.is_ancestor(self.decided_tip, tip) {
            self.decided_tip = tip;
        }
    }

    pub fn new(id: ProcessId, config: TobConfig) -> LiteralProcess {
        LiteralProcess {
            id,
            keypair: Keypair::derive(id, config.seed()),
            config,
            votes: BTreeMap::new(),
            proposals: BTreeMap::new(),
            bodies: Bodies::default(),
            submitted: Vec::new(),
            decisions: Vec::new(),
            decided_tip: BlockId::GENESIS,
            last_vote_tip: BlockId::GENESIS,
            last_tally: None,
        }
    }

    pub fn submit_tx(&mut self, tx: TxId) {
        if !self.submitted.contains(&tx) {
            self.submitted.push(tx);
        }
    }

    pub fn on_receive_shared(&mut self, envelope: &SharedEnvelope) {
        // The signature check is shared with `TobProcess`; the VRF is
        // checked below from the paper's text, not read from the verdict.
        match envelope.verified(self.config.directory()) {
            None => {}
            Some(Verified::Vote(_, vote)) => self.receive_vote(*vote),
            Some(Verified::Propose { proposal, .. }) => self.receive_propose(proposal),
        }
    }

    pub fn step_send(&mut self, round: Round) -> Vec<Envelope> {
        let out = match RoundKind::of(round) {
            // View 0: propose [b₀] for view 1.
            RoundKind::Bootstrap => vec![self.propose(round, View::new(1), Block::genesis())],
            RoundKind::ViewFirst(view) => {
                let tally = self.tally(round);
                // Lines 2–3: decide the longest grade-1 output of
                // GA_{v−1,2} (view 1 has no GA_{0,2}).
                if view.as_u64() >= 2 {
                    if let Some(tip) = self.longest(&tally, true) {
                        self.decide(round, view, tip);
                    }
                }
                // Lines 5–7: L_{v−1}, then the leader's proposal, or
                // L_{v−1} itself when no admissible one was received.
                let l_prev = self.longest(&tally, false).unwrap_or(BlockId::GENESIS);
                let tip = self.leader(view, l_prev).unwrap_or(l_prev);
                self.last_tally = Some(tally);
                vec![self.vote(round, tip)]
            }
            RoundKind::ViewSecond(view) => {
                let tally = self.tally(round);
                // Line 9: vote the longest grade-1 output of GA_{v,1};
                // outside the model, the longest any-grade one, or the
                // last vote again.
                let longest = self.longest(&tally, false);
                let tip = self
                    .longest(&tally, true)
                    .or(longest)
                    .unwrap_or(self.last_vote_tip);
                // Lines 10–12: propose a block extending C_v for view v + 1.
                let c_v = longest.unwrap_or(self.last_vote_tip);
                let payload = payload_rule(&self.submitted, &self.bodies.tree, c_v);
                let next = view.next();
                let block = Block::build(c_v, next, self.id, payload);
                let proposal = self.propose(round, next, block);
                self.last_tally = Some(tally);
                vec![self.vote(round, tip), proposal]
            }
        };
        let eta = self.config.params().expiration();
        self.bodies.prune_below(round.saturating_sub(2 * eta + 4));
        out
    }

    pub fn drain_decisions(&mut self) -> Vec<DecisionEvent> {
        std::mem::take(&mut self.decisions)
    }

    pub fn decided_tip(&self) -> BlockId {
        self.decided_tip
    }

    pub fn tree(&self) -> &BlockTree {
        &self.bodies.tree
    }
}

/// What a process sent (each envelope's wire bytes) and decided in one
/// step.
pub type Output = (Vec<Vec<u8>>, Vec<DecisionEvent>);

/// The wire bytes of each of `envelopes`, in order.
pub fn encoded(envelopes: &[Envelope]) -> Vec<Vec<u8>> {
    envelopes.iter().map(encode_envelope).collect()
}

/// Asserts that `lit` is where `tob` is after the same steps and
/// deliveries: equal consumed tallies, decided tips and admitted bodies,
/// and, when `outputs` holds what each sent and decided in `round`'s step,
/// byte-equal envelopes and equal decisions. `label` names the run.
pub fn assert_matches(
    label: &str,
    round: Round,
    tob: &TobProcess,
    lit: &LiteralProcess,
    outputs: Option<(&Output, &Output)>,
) {
    let id = tob.id();
    if let Some((t, l)) = outputs {
        assert_eq!(t, l, "{label}: {id:?} in {round:?}: sends and decisions");
    }
    let state = |tally, tip, tree: &BlockTree| (tally, tip, tree.fingerprint());
    assert_eq!(
        state(consumed(tob), tob.decided_tip(), tob.tree()),
        state(lit.last_tally.clone(), lit.decided_tip(), lit.tree()),
        "{label}: {id:?} in {round:?}: tally, decided tip, admitted bodies"
    );
}

/// A `TobProcess` and a `LiteralProcess` with the same id, fed the same
/// envelopes and compared at every step: one process's harness, for
/// tests that speak for the others by hand.
pub struct Twin {
    pub tob: TobProcess,
    pub lit: LiteralProcess,
}

impl Twin {
    pub fn new(id: ProcessId, config: &TobConfig) -> Twin {
        Twin {
            tob: TobProcess::new(id, config.clone()),
            lit: LiteralProcess::new(id, config.clone()),
        }
    }

    pub fn deliver(&mut self, env: &SharedEnvelope) {
        self.tob.on_receive_shared(env);
        self.lit.on_receive_shared(env);
    }

    /// Steps both through `round`, asserts they match ([`assert_matches`],
    /// outputs included) and returns what `tob` sent. A driver that
    /// shares tallies calls `tob.share_tally` first.
    pub fn step(&mut self, round: Round) -> Vec<Envelope> {
        let out = self.tob.step_send(round);
        let tob = (encoded(&out), self.tob.drain_decisions());
        let lit = (
            encoded(&self.lit.step_send(round)),
            self.lit.drain_decisions(),
        );
        assert_matches("twin", round, &self.tob, &self.lit, Some((&tob, &lit)));
        out
    }
}
