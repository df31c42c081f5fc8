//! Incremental subtree-support index.
//!
//! The stateless [`crate::tally`] recomputes every block's support from
//! scratch — simple, obviously correct, and what the protocol crate uses.
//! A deployment processing thousands of votes per round wants the
//! incremental version: when a sender's counted vote moves from tip `A`
//! to tip `B`, only the blocks on the symmetric difference of their
//! chains — the two paths down to `LCA(A, B)` — change support, and the
//! index updates in `O(depth(A) + depth(B) − 2·depth(LCA))` instead of
//! `O(m · h)`.
//!
//! Equivalence with the stateless tally is property-tested
//! (`proptest_support.rs`); its cost is stbench's `ga.set_vote_ns` and
//! `ga.outputs_us` per-layer metrics.

use crate::{GaOutput, Thresholds};
use st_blocktree::BlockTree;
use st_types::FastMap;
use st_types::{BlockId, Grade, ProcessId};

/// Maintains, for every block, the number of counted votes whose tip
/// extends it (its *support*), under per-sender vote replacement.
///
/// ```
/// use st_blocktree::{Block, BlockTree};
/// use st_ga::{SupportIndex, Thresholds};
/// use st_types::{BlockId, Grade, ProcessId, View};
///
/// let mut tree = BlockTree::new();
/// let b = tree.insert(Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]))?;
///
/// let mut index = SupportIndex::new();
/// for i in 0..3 {
///     index.set_vote(&tree, ProcessId::new(i), b);
/// }
/// assert_eq!(index.support_of(b), 3);
/// let out = index.outputs(&tree, Thresholds::mmr(), index.participation());
/// assert_eq!(out.grade_of(b), Some(Grade::One));
/// # Ok::<(), st_blocktree::BlockTreeError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SupportIndex {
    support: FastMap<BlockId, usize>,
    current: FastMap<ProcessId, BlockId>,
}

impl SupportIndex {
    /// An empty index.
    pub fn new() -> SupportIndex {
        SupportIndex::default()
    }

    /// Number of senders currently counted.
    pub fn participation(&self) -> usize {
        self.current.len()
    }

    /// The support of `block` (0 if never supported).
    pub fn support_of(&self, block: BlockId) -> usize {
        // stlint::allow(deadpub, reason = "the per-block probe proptest_support.rs compares with the stateless tally")
        self.support.get(&block).copied().unwrap_or(0)
    }

    /// Counts (or moves) `sender`'s vote to `tip`. Unknown tips are
    /// rejected (returns `false`) — the caller decides whether such votes
    /// still count toward perceived participation, as the stateless tally
    /// does.
    pub fn set_vote(&mut self, tree: &BlockTree, sender: ProcessId, tip: BlockId) -> bool {
        if !tree.contains(tip) {
            return false;
        }
        match self.current.insert(sender, tip) {
            None => {
                // Fresh vote: increment the whole chain.
                for b in tree.chain(tip) {
                    *self.support.entry(b).or_insert(0) += 1;
                }
            }
            Some(old) if old == tip => { /* no movement */ }
            Some(old) => {
                // Moved vote: adjust only the symmetric difference.
                #[expect(
                    clippy::expect_used,
                    reason = "old was accepted by a prior set_vote contains() check and tip by this one, so both are in the tree and share the genesis ancestor"
                )]
                let lca = tree.lca(old, tip).expect("both tips known");
                let mut cur = old;
                #[expect(
                    clippy::expect_used,
                    reason = "the walk stops at lca(old, tip), which is a proper ancestor, before ever stepping past genesis"
                )]
                while cur != lca {
                    #[expect(
                        clippy::expect_used,
                        reason = "every block on old's chain was incremented when the vote landed on old, so the entry exists until this decrement"
                    )]
                    let e = self.support.get_mut(&cur).expect("counted chain");
                    *e -= 1;
                    if *e == 0 {
                        self.support.remove(&cur);
                    }
                    cur = tree.parent(cur).expect("lca is an ancestor");
                }
                let mut cur = tip;
                #[expect(
                    clippy::expect_used,
                    reason = "the walk stops at lca(old, tip), which is a proper ancestor, before ever stepping past genesis"
                )]
                while cur != lca {
                    *self.support.entry(cur).or_insert(0) += 1;
                    cur = tree.parent(cur).expect("lca is an ancestor");
                }
            }
        }
        true
    }

    /// Removes `sender`'s vote entirely (e.g. it expired or the sender
    /// was discovered equivocating). Returns whether a vote was removed.
    pub fn remove_vote(&mut self, tree: &BlockTree, sender: ProcessId) -> bool {
        let Some(old) = self.current.remove(&sender) else {
            return false;
        };
        for b in tree.chain(old) {
            #[expect(
                clippy::expect_used,
                reason = "old's whole chain was incremented when the vote was recorded; entries only disappear when their count hits zero"
            )]
            let e = self.support.get_mut(&b).expect("counted chain");
            *e -= 1;
            if *e == 0 {
                self.support.remove(&b);
            }
        }
        true
    }

    /// Produces graded outputs from the current index, with perceived
    /// participation `m` (callers may pass a larger `m` than
    /// [`SupportIndex::participation`] to account for votes on unknown
    /// tips, matching the stateless tally's behaviour).
    pub fn outputs(&self, tree: &BlockTree, thresholds: Thresholds, m: usize) -> GaOutput {
        if m == 0 {
            return GaOutput::empty();
        }
        let mut graded: Vec<(BlockId, Grade)> = Vec::new();
        for (&block, &s) in self.support.iter_sorted() {
            if thresholds.meets_grade1(s, m) {
                graded.push((block, Grade::One));
            } else if thresholds.meets_grade0(s, m) {
                graded.push((block, Grade::Zero));
            }
        }
        GaOutput::new(graded, m, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_blocktree::Block;
    use st_types::View;

    fn chain_tree(len: usize) -> (BlockTree, Vec<BlockId>) {
        let mut tree = BlockTree::new();
        let mut ids = vec![BlockId::GENESIS];
        for i in 0..len {
            let b = Block::build(
                *ids.last().unwrap(),
                View::new(i as u64 + 1),
                ProcessId::new(0),
                vec![],
            );
            ids.push(tree.insert(b).unwrap());
        }
        (tree, ids)
    }

    #[test]
    fn fresh_votes_accumulate_up_the_chain() {
        let (tree, ids) = chain_tree(3);
        let mut idx = SupportIndex::new();
        assert!(idx.set_vote(&tree, ProcessId::new(0), ids[3]));
        assert!(idx.set_vote(&tree, ProcessId::new(1), ids[2]));
        assert_eq!(idx.support_of(ids[3]), 1);
        assert_eq!(idx.support_of(ids[2]), 2);
        assert_eq!(idx.support_of(ids[1]), 2);
        assert_eq!(idx.support_of(BlockId::GENESIS), 2);
        assert_eq!(idx.participation(), 2);
    }

    #[test]
    fn moving_a_vote_adjusts_only_the_difference() {
        let mut tree = BlockTree::new();
        let trunk = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let trunk_id = tree.insert(trunk).unwrap();
        let left = tree
            .insert(Block::build(
                trunk_id,
                View::new(2),
                ProcessId::new(1),
                vec![],
            ))
            .unwrap();
        let right = tree
            .insert(Block::build(
                trunk_id,
                View::new(2),
                ProcessId::new(2),
                vec![],
            ))
            .unwrap();
        let mut idx = SupportIndex::new();
        idx.set_vote(&tree, ProcessId::new(0), left);
        assert_eq!(idx.support_of(left), 1);
        assert_eq!(idx.support_of(trunk_id), 1);
        // Move left → right: trunk and genesis support unchanged.
        idx.set_vote(&tree, ProcessId::new(0), right);
        assert_eq!(idx.support_of(left), 0);
        assert_eq!(idx.support_of(right), 1);
        assert_eq!(idx.support_of(trunk_id), 1);
        assert_eq!(idx.support_of(BlockId::GENESIS), 1);
    }

    #[test]
    fn removal_clears_contribution() {
        let (tree, ids) = chain_tree(2);
        let mut idx = SupportIndex::new();
        idx.set_vote(&tree, ProcessId::new(0), ids[2]);
        assert!(idx.remove_vote(&tree, ProcessId::new(0)));
        assert!(!idx.remove_vote(&tree, ProcessId::new(0)));
        assert_eq!(idx.support_of(ids[2]), 0);
        assert_eq!(idx.support_of(BlockId::GENESIS), 0);
        assert_eq!(idx.participation(), 0);
    }

    #[test]
    fn unknown_tip_rejected() {
        let (tree, _) = chain_tree(1);
        let mut idx = SupportIndex::new();
        assert!(!idx.set_vote(&tree, ProcessId::new(0), BlockId::new(0xDEAD)));
        assert_eq!(idx.participation(), 0);
    }

    #[test]
    fn outputs_match_thresholds() {
        let (tree, ids) = chain_tree(2);
        let mut idx = SupportIndex::new();
        for i in 0..5 {
            idx.set_vote(&tree, ProcessId::new(i), ids[2]);
        }
        idx.set_vote(&tree, ProcessId::new(5), ids[1]);
        let out = idx.outputs(&tree, Thresholds::mmr(), 6);
        assert_eq!(out.grade_of(ids[2]), Some(Grade::One)); // 5/6
        assert_eq!(out.grade_of(ids[1]), Some(Grade::One)); // 6/6
        assert_eq!(out.longest_grade1(), Some(ids[2]));
    }
}
