//! Two references for one `TobProcess`'s blocks, fed the same proposals
//! and votes as the process:
//!
//! * the eager shadow, a plain `BlockTree` fed through a `BlockBuffer`:
//!   every connected proposal body is in it whether or not anything
//!   references it, and nothing ever leaves. It is what the process's
//!   tree would be with neither lazy admission nor pruning.
//! * [`Retained`], the body store's retention rule stated over plain
//!   sets: which bodies are held, which of them are admitted, and which
//!   tips live votes name. It re-derives the admitted set after every
//!   delivery and the dropped bodies at every pruning edge, instead of
//!   keeping the store's indexes and child counts.
//!
//! In [`Mode::Pruned`] the retained set is the reference: the tally key
//! must digest exactly the votes and the retained connected bodies, and
//! every consumed tally must equal the stateless tally over them. That
//! holds for arbitrary (Byzantine-style) votes. In [`Mode::Eager`] the
//! eager shadow is the tally reference, which holds only while pruning
//! cannot matter: the caller must deliver only votes whose tips' chains
//! stay retained through the last round that tallies them.
//!
//! Shared by `delivery_tolerance.rs` and `proptest_lazy_tree.rs`
//! (included by path).

use st_blocktree::{Block, BlockTree};
use st_core::{BlockBuffer, TobProcess};
use st_ga::{tally, GaOutput};
use st_messages::{Envelope, Payload};
use st_types::fasthash::mix64_pair;
use st_types::{BlockId, Round};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What a [`Shadowed`] step compares the process against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The key and the tally against [`Retained`].
    Pruned,
    /// The tally against the eager shadow; the key is not compared.
    Eager,
}

/// A process under test plus both references, fed the same envelopes.
pub struct Shadowed {
    pub p: TobProcess,
    pub shadow: BlockTree,
    orphans: BlockBuffer,
    pub retained: Retained,
    mode: Mode,
    /// Rounds whose consumed tally was compared with the reference.
    pub checked: usize,
}

impl Shadowed {
    pub fn new(p: TobProcess, mode: Mode) -> Shadowed {
        Shadowed {
            p,
            shadow: BlockTree::new(),
            orphans: BlockBuffer::new(),
            retained: Retained::default(),
            mode,
            checked: 0,
        }
    }

    /// Delivers `env` to the process and to both references.
    pub fn deliver(&mut self, env: &Envelope) {
        self.absorb(env);
        self.p.on_receive(env.clone());
    }

    fn absorb(&mut self, env: &Envelope) {
        match env.payload() {
            Payload::Propose(prop) => {
                self.orphans
                    .insert(&mut self.shadow, prop.block_arc().clone());
                self.retained.body(prop.block_arc());
            }
            // The process discards round-0 votes (view 0 has no graded
            // agreement).
            Payload::Vote(vote) if vote.round() > Round::ZERO => {
                self.retained.name(vote.tip(), vote.round());
            }
            Payload::Vote(_) => {}
        }
    }

    /// The stateless tally of round `round` over the process's vote
    /// window and `tree`.
    fn tally_over(&self, tree: &BlockTree, round: Round) -> GaOutput {
        let Some(prev) = round.prev() else {
            return GaOutput::empty();
        };
        let lo = prev.saturating_sub(self.p.config().params().expiration());
        tally(
            tree,
            &self.p.votes().latest_in_window(lo, prev),
            self.p.config().thresholds(),
        )
    }

    /// Runs `step_send(round)` and checks the lattice edge around it: in
    /// pruned mode the tally key digests the retained connected bodies,
    /// and the tally the step consumes equals both `reference_tally(round)`
    /// and the stateless tally over the mode's reference. The process's
    /// own envelopes reach both references, as they reach the process's
    /// stores, and the retained set then prunes at the vote store's edge.
    pub fn step(&mut self, round: Round) -> Vec<Envelope> {
        let expected = match self.mode {
            Mode::Pruned => {
                let tree = self.retained.tree();
                assert_eq!(
                    self.p.tally_fingerprint(),
                    mix64_pair(self.p.votes().fingerprint(), tree.fingerprint()),
                    "round {round:?}: the tally key does not digest exactly the retained connected bodies"
                );
                self.tally_over(&tree, round)
            }
            Mode::Eager => self.tally_over(&self.shadow, round),
        };
        let reference = self.p.reference_tally(round);
        let out = self.p.step_send(round);
        if round > Round::ZERO {
            assert_eq!(
                self.p.last_ga_output(),
                Some(&reference),
                "round {round:?}: consumed tally differs from reference_tally"
            );
            assert_eq!(
                reference, expected,
                "round {round:?}: tally over the lazy tree differs from the {:?} reference",
                self.mode
            );
            self.checked += 1;
        }
        for env in &out {
            self.absorb(env);
        }
        let eta = self.p.config().params().expiration();
        self.retained.prune_below(round.saturating_sub(2 * eta + 4));
        out
    }
}

/// The body store's retention rule over plain sets.
///
/// A body is held from its arrival until it is dropped; a dropped body
/// that arrives again is held again. A held body is *connected* when
/// every ancestor is held (genesis always is), and *admitted* once a
/// live name points at it or at a descendant while it is connected;
/// admitted bodies are never dropped. At the edge `lo` a name expires
/// when its latest vote's round is below `lo`, and a body of view `v`
/// with `2v − 1 < lo` is dropped unless it is admitted or a connected
/// ancestor of a kept unexpired body that is not admitted.
#[derive(Debug, Default)]
pub struct Retained {
    held: BTreeMap<BlockId, Arc<Block>>,
    admitted: BTreeSet<BlockId>,
    /// Tip → latest round of a stored vote naming it.
    named: BTreeMap<BlockId, Round>,
}

impl Retained {
    /// Whether `id` and its whole ancestry are held.
    pub fn connected(&self, id: BlockId) -> bool {
        let mut cur = id;
        loop {
            if cur == BlockId::GENESIS || self.admitted.contains(&cur) {
                return true;
            }
            match self.held.get(&cur) {
                Some(b) => cur = b.parent(),
                None => return false,
            }
        }
    }

    fn body(&mut self, block: &Arc<Block>) {
        if block.id() != BlockId::GENESIS {
            self.held.entry(block.id()).or_insert_with(|| block.clone());
            self.settle();
        }
    }

    fn name(&mut self, tip: BlockId, round: Round) {
        let latest = self.named.entry(tip).or_insert(round);
        *latest = (*latest).max(round);
        self.settle();
    }

    /// Admits every connected named tip with its ancestors.
    fn settle(&mut self) {
        let tips: Vec<BlockId> = self.named.keys().copied().collect();
        for tip in tips {
            if !self.connected(tip) {
                continue;
            }
            let mut cur = tip;
            while cur != BlockId::GENESIS && self.admitted.insert(cur) {
                cur = self.held[&cur].parent();
            }
        }
    }

    fn prune_below(&mut self, lo: Round) {
        self.named.retain(|_, latest| *latest >= lo);
        let expired = |b: &Block| 2 * b.view().as_u64() < lo.as_u64() + 1;
        let mut keep: BTreeSet<BlockId> = self.admitted.clone();
        for (&id, b) in &self.held {
            if keep.contains(&id) || expired(b) {
                continue;
            }
            keep.insert(id);
            if self.connected(id) {
                let mut cur = b.parent();
                while cur != BlockId::GENESIS && !self.admitted.contains(&cur) {
                    keep.insert(cur);
                    cur = self.held[&cur].parent();
                }
            }
        }
        self.held.retain(|id, _| keep.contains(id));
    }

    /// A tree of exactly the connected bodies.
    pub fn tree(&self) -> BlockTree {
        let mut tree = BlockTree::new();
        let mut orphans = BlockBuffer::new();
        for (&id, b) in &self.held {
            if self.connected(id) {
                orphans.insert(&mut tree, b.clone());
            }
        }
        tree
    }
}
