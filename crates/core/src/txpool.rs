//! The per-process transaction pool both protocols propose from.
//!
//! The payload rule is stateless: a proposal extending `parent` carries
//! every transaction this process was submitted, in submission order,
//! minus those already in the log with tip `parent`. Evaluated literally
//! that is a from-genesis walk per proposal, so a run's cost grows with
//! its height. [`TxPool`] evaluates the same rule relative to the decided
//! tip: it keeps the submitted transactions that are *not* on the decided
//! chain (`pending`), advances that set as the decided tip moves, and
//! walks only the undecided suffix between the decided tip and the parent
//! being extended.

use st_blocktree::BlockTree;
use st_types::{BlockId, FastMap, FastSet, TxId};
use std::collections::BTreeMap;

/// One submission-index entry, packed into a word: bit 0 is set once the
/// transaction is on the decided chain; the remaining bits hold
/// `1 + submission sequence` if it was submitted here, `0` otherwise.
#[derive(Clone, Copy, Debug, Default)]
struct Slot(u64);

impl Slot {
    fn seq(self) -> Option<u64> {
        (self.0 >> 1).checked_sub(1)
    }

    fn decided(self) -> bool {
        self.0 & 1 == 1
    }

    fn with_seq(self, seq: u64) -> Slot {
        Slot((seq + 1) << 1 | self.0 & 1)
    }

    fn mark_decided(&mut self) {
        self.0 |= 1;
    }
}

/// Submitted transactions, tracked relative to the decided chain.
///
/// Invariant: `pending` holds exactly the submitted transactions whose
/// slot is not decided, keyed by submission sequence, and a slot is
/// decided iff its transaction is in the log with tip `base`.
#[derive(Clone, Debug)]
pub(crate) struct TxPool {
    /// tx → slot, for every transaction submitted here or seen on the
    /// decided chain. It grows with submitted transactions, since dedupe
    /// must remember them all; only `pending` is scanned per proposal.
    index: FastMap<TxId, Slot>,
    /// Submission sequence → transaction, for submitted transactions not
    /// on the decided chain.
    pending: BTreeMap<u64, TxId>,
    /// Sequence number of the next first-time submission.
    next_seq: u64,
    /// The decided tip `pending` is relative to.
    base: BlockId,
}

impl TxPool {
    /// An empty pool relative to genesis.
    pub(crate) fn new() -> TxPool {
        TxPool {
            index: FastMap::default(),
            pending: BTreeMap::new(),
            next_seq: 0,
            base: BlockId::GENESIS,
        }
    }

    /// Records a submission. A transaction already submitted here is a
    /// no-op; one already on the decided chain keeps its place in the
    /// submission order but never becomes pending.
    pub(crate) fn submit(&mut self, tx: TxId) {
        let slot = self.index.entry(tx).or_default();
        if slot.seq().is_some() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        *slot = slot.with_seq(seq);
        if !slot.decided() {
            self.pending.insert(seq, tx);
        }
    }

    /// Moves `base` to `new_tip`, which must be a descendant of (or equal
    /// to) the current base — both protocols only ever move their decided
    /// tip forward. Walks only the newly decided blocks.
    pub(crate) fn advance(&mut self, tree: &BlockTree, new_tip: BlockId) {
        let base = self.base;
        if new_tip == base {
            return;
        }
        for id in tree.chain(new_tip).take_while(|&b| b != base) {
            let Some(block) = tree.block(id) else {
                continue;
            };
            for &tx in block.payload() {
                let slot = self.index.entry(tx).or_default();
                if slot.decided() {
                    continue;
                }
                slot.mark_decided();
                if let Some(seq) = slot.seq() {
                    self.pending.remove(&seq);
                }
            }
        }
        self.base = new_tip;
    }

    /// The payload of a proposal extending `parent`: submission order,
    /// minus the log with tip `parent`. When `parent` extends `base` only
    /// the suffix `parent → base` is walked; otherwise (a parent that
    /// conflicts with the decided tip, or lies below it) the rule is
    /// evaluated from genesis.
    pub(crate) fn payload_for(&self, tree: &BlockTree, parent: BlockId) -> Vec<TxId> {
        if self.next_seq == 0 {
            return Vec::new();
        }
        if !tree.is_ancestor(self.base, parent) {
            let onchain: FastSet<TxId> = tree.log_transactions(parent).into_iter().collect();
            let mut submitted: Vec<(u64, TxId)> = self
                .index
                .iter_sorted()
                .filter_map(|(&tx, slot)| slot.seq().map(|seq| (seq, tx)))
                .filter(|(_, tx)| !onchain.contains(tx))
                .collect();
            submitted.sort_unstable_by_key(|&(seq, _)| seq);
            return submitted.into_iter().map(|(_, tx)| tx).collect();
        }
        if self.pending.is_empty() {
            return Vec::new();
        }
        let suffix: FastSet<TxId> = tree
            .chain(parent)
            .take_while(|&b| b != self.base)
            .filter_map(|b| tree.block(b))
            .flat_map(|b| b.payload().iter().copied())
            .collect();
        self.pending
            .values()
            .copied()
            .filter(|tx| !suffix.contains(tx))
            .collect()
    }

    /// Submitted transactions not yet on the decided chain.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }
}
