//! A lock-step network that checks every proposal against the stateless
//! payload rule: a proposal extending `parent` carries what its proposer
//! was submitted, in first-submission order, minus the log with tip
//! `parent` in the proposer's own tree. The reference is computed here
//! from the test's own record of submissions, so it shares no code with
//! the pool it checks.
//!
//! Shared by `crates/core/tests/payload_oracle.rs` and the facade's
//! `tests/guards.rs` (included by path).

use st_blocktree::{Block, BlockTree};
use st_core::{Protocol, TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, Params, ProcessId, Round, RoundKind, TxId, View};

/// The stateless payload rule.
pub fn reference_payload(submitted: &[TxId], tree: &BlockTree, parent: BlockId) -> Vec<TxId> {
    let onchain = tree.log_transactions(parent);
    submitted
        .iter()
        .copied()
        .filter(|tx| !onchain.contains(tx))
        .collect()
}

/// `n` processes of protocol `P`, plus each one's submission record.
pub struct OracleNet<P> {
    pub procs: Vec<P>,
    pub seed: u64,
    /// Per process: every transaction submitted, deduplicated, in
    /// first-submission order.
    submitted: Vec<Vec<TxId>>,
    /// Proposals compared with the reference.
    pub checked: usize,
    /// Payloads of the checked proposals whose parent does not extend the
    /// proposer's decided tip (the pool's from-genesis arm).
    pub off_decided: Vec<Vec<TxId>>,
}

impl<P: Protocol> OracleNet<P> {
    pub fn new(n: usize, eta: u64, seed: u64) -> OracleNet<P> {
        let params = Params::builder(n).expiration(eta).build().unwrap();
        let config = TobConfig::new(params, seed);
        OracleNet {
            procs: (0..n as u32)
                .map(|i| P::new(ProcessId::new(i), config.clone()))
                .collect(),
            seed,
            submitted: vec![Vec::new(); n],
            checked: 0,
            off_decided: Vec::new(),
        }
    }

    pub fn submit(&mut self, i: usize, tx: TxId) {
        self.procs[i].submit_tx(tx);
        if !self.submitted[i].contains(&tx) {
            self.submitted[i].push(tx);
        }
    }

    /// Every process's send phase of `round`, with each proposal checked
    /// (the sleepy protocol's round-0 proposal is genesis itself, which
    /// carries no payload).
    pub fn send(&mut self, round: Round) -> Vec<Envelope> {
        let mut out = Vec::new();
        for i in 0..self.procs.len() {
            for env in self.procs[i].step_send(round) {
                if let Payload::Propose(p) = env.payload() {
                    if !p.tip().is_genesis() {
                        self.check(i, p.block());
                    }
                }
                out.push(env);
            }
        }
        out
    }

    fn check(&mut self, i: usize, block: &Block) {
        let p = &self.procs[i];
        let expected = reference_payload(&self.submitted[i], p.tree(), block.parent());
        assert_eq!(
            block.payload(),
            expected.as_slice(),
            "p{i}'s proposal for {:?} extending {:?}",
            block.view(),
            block.parent()
        );
        self.checked += 1;
        if !p.tree().is_ancestor(p.decided_tip(), block.parent()) {
            self.off_decided.push(expected);
        }
    }

    pub fn deliver(&mut self, i: usize, env: &SharedEnvelope) {
        self.procs[i].on_receive_shared(env);
    }

    /// One synchronous round: everyone sends, everyone receives all.
    pub fn lockstep(&mut self, round: Round) {
        for env in self.send(round) {
            let env = SharedEnvelope::new(env);
            for i in 0..self.procs.len() {
                self.deliver(i, &env);
            }
        }
    }
}

/// Forces p0 of a 4-process, `η = 0` sleepy network onto a fork. A
/// transaction `a` submitted everywhere is decided; a block `fork` holding
/// `y` is built on the parent of the block carrying `a` and reaches p0 as
/// p3's (signed, far-future view) proposal, the path every block takes; in
/// the next
/// first round of a view p0 hears, besides its own vote, only forged
/// votes for `fork` from p1..p3. Its next proposal then extends `fork`,
/// which conflicts with its decided tip: `a` is decided but not on that
/// branch, so it must be proposed again, while `y` (submitted to p0 too)
/// is on it and must not. Sixteen more were submitted to p0 alone, in
/// descending id order, which the pool's hash index does not reproduce:
/// the from-genesis payload is in submission order only if it is sorted.
/// Returns the network a few synchronous rounds later, with `a`, `y` and
/// the p0-only transactions in submission order.
pub fn forked_lockstep(seed: u64) -> (OracleNet<TobProcess>, [TxId; 2], Vec<TxId>) {
    let n = 4;
    let mut net = OracleNet::<TobProcess>::new(n, 0, seed);
    let [a, y] = [TxId::new(1), TxId::new(2)];
    let solo: Vec<TxId> = (3..19).rev().map(TxId::new).collect();
    for i in 0..n {
        net.submit(i, a);
    }
    let mut r = 0;
    while !net.procs[0]
        .tree()
        .log_transactions(net.procs[0].decided_tip())
        .contains(&a)
    {
        net.lockstep(Round::new(r));
        r += 1;
        assert!(r < 20, "a was never decided");
    }
    let tree = net.procs[0].tree();
    let carrier = tree
        .chain(net.procs[0].decided_tip())
        .find(|&b| tree.block(b).unwrap().payload().contains(&a))
        .unwrap();
    let view = View::new(1_000);
    let fork = Block::build(
        tree.parent(carrier).unwrap(),
        view,
        ProcessId::new(3),
        vec![y],
    );
    let p3 = Keypair::derive(ProcessId::new(3), net.seed);
    let (rho, proof) = p3.vrf_eval(view.as_u64());
    let propose = Propose::new(
        p3.owner(),
        Round::new(1_999),
        view,
        fork.clone(),
        rho,
        proof,
    );
    net.deliver(
        0,
        &SharedEnvelope::new(Envelope::sign(&p3, Payload::Propose(propose))),
    );
    net.submit(0, y);
    for &tx in &solo {
        net.submit(0, tx);
    }

    while !matches!(RoundKind::of(Round::new(r)), RoundKind::ViewFirst(_)) {
        net.lockstep(Round::new(r));
        r += 1;
    }
    let round = Round::new(r);
    for env in net.send(round) {
        let from_p0 = env.payload().sender() == ProcessId::new(0);
        let env = SharedEnvelope::new(env);
        for i in 0..n {
            if i != 0 || from_p0 {
                net.deliver(i, &env);
            }
        }
    }
    for j in 1..n as u32 {
        let kp = Keypair::derive(ProcessId::new(j), net.seed);
        let vote = Vote::new(kp.owner(), round, fork.id());
        let forged = SharedEnvelope::new(Envelope::sign(&kp, Payload::Vote(vote)));
        net.deliver(0, &forged);
    }
    for r in r + 1..r + 8 {
        net.lockstep(Round::new(r));
    }
    (net, [a, y], solo)
}
