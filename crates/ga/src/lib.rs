//! Graded agreement: the voting primitive under the MMR total-order
//! broadcast protocol.
//!
//! A graded-agreement (GA) instance has every awake process multicast a
//! vote for its input log; at the end of the round each process tallies the
//! votes it received and outputs logs with grades (Definition 4 and
//! Figure 2 of the paper):
//!
//! * grade **1** for any log supported by more than `2m/3` of the `m`
//!   processes it heard from;
//! * grade **0** for any log supported by more than `m/3` (but at most
//!   `2m/3`).
//!
//! A vote for log `Λ′` counts as a vote for every prefix `Λ ⪯ Λ′`; votes
//! are counted **per sender**, and equivocating senders are ignored.
//!
//! The **extended** GA (Figure 3) additionally starts from an initial set
//! `M₀` of votes from earlier rounds; a sender's round-`r` vote supersedes
//! its `M₀` vote. Concretely both variants reduce to the same tally over
//! "the latest vote of each sender within a round window" — vanilla GA uses
//! the single-round window `[r, r]`, the extended GA the window
//! `[r − η, r]`. The window logic lives in
//! [`st_messages::VoteStore::latest_in_window`]; this crate implements the
//! grading itself.
//!
//! The Figure-3 object (an explicit `M₀` plus the current round's votes)
//! is therefore a vote store and a window: insert `M₀` and the round-`r`
//! votes, then [`tally`] the window `[lo, r]`, where `lo` is the oldest
//! `M₀` round. Lemma 1's property tests do exactly that on a fresh store;
//! the protocol crate (`st-core`) keeps the same tally incrementally in a
//! [`SupportIndex`].
//!
//! # Example
//!
//! ```
//! use st_blocktree::{Block, BlockTree};
//! use st_ga::{tally, Thresholds};
//! use st_messages::{Vote, VoteStore};
//! use st_types::{BlockId, Grade, ProcessId, Round, View};
//!
//! let mut tree = BlockTree::new();
//! let b1 = tree.insert(Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]))?;
//!
//! let mut store = VoteStore::new();
//! for i in 0..3 {
//!     store.insert(Vote::new(ProcessId::new(i), Round::new(1), b1));
//! }
//! let out = tally(&tree, &store, Round::new(1), Round::new(1), Thresholds::mmr());
//! assert_eq!(out.grade_of(b1), Some(Grade::One)); // unanimous
//! # Ok::<(), st_blocktree::BlockTreeError>(())
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod output;
mod support;
mod thresholds;

pub use output::GaOutput;
pub use support::SupportIndex;
pub use thresholds::Thresholds;

use st_blocktree::BlockTree;
use st_messages::VoteStore;
use st_types::FastMap;
use st_types::{BlockId, Grade, Round};

/// Tallies the latest vote of every sender in `store`'s round window
/// `[lo, hi]` over the block tree and grades every supported log
/// (Figure 2 / Figure 3 receive phase): the stateless definition
/// [`SupportIndex`] keeps incrementally.
///
/// The window is [`VoteStore::latest_in_window`]: one vote per sender,
/// equivocators removed. Votes whose tip is not in `tree` are skipped
/// (the process cannot interpret them; in a real deployment it would sync
/// the missing blocks first), but they still count toward the perceived
/// participation `m` — an adversary cannot *lower* thresholds by voting
/// for unavailable blocks.
pub fn tally(
    tree: &BlockTree,
    store: &VoteStore,
    lo: Round,
    hi: Round,
    thresholds: Thresholds,
) -> GaOutput {
    // stlint::allow(deadpub, reason = "the GA definition Lemma 1's proptest (proptest_lemma1.rs) and the SupportIndex property test (proptest_support.rs) check against")
    let votes = store.latest_in_window(lo, hi);
    let m = votes.participation();
    if m == 0 {
        return GaOutput::empty();
    }

    // Count voters per distinct tip (votes are one-per-sender already).
    let mut tip_support: FastMap<BlockId, usize> = FastMap::default();
    for (_, _, tip) in votes.iter() {
        if tree.contains(tip) {
            *tip_support.entry(tip).or_insert(0) += 1;
        }
    }

    // Support of a block = number of senders whose voted tip extends it.
    // Accumulate tip counts up every ancestor chain. Chains share suffixes,
    // so cache accumulated blocks to stay near-linear in distinct blocks.
    let mut support: FastMap<BlockId, usize> = FastMap::default();
    for (&tip, &count) in tip_support.iter_sorted() {
        for block in tree.chain(tip) {
            *support.entry(block).or_insert(0) += count;
        }
    }

    let mut outputs: Vec<(BlockId, Grade)> = Vec::new();
    for (&block, &s) in support.iter_sorted() {
        if thresholds.meets_grade1(s, m) {
            outputs.push((block, Grade::One));
        } else if thresholds.meets_grade0(s, m) {
            outputs.push((block, Grade::Zero));
        }
    }

    GaOutput::new(outputs, m, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_blocktree::Block;
    use st_messages::{Vote, VoteStore};
    use st_types::{ProcessId, Round, View};

    /// Builds a tree with a fork: genesis -> a1 -> a2, genesis -> b1.
    /// The vanilla tally of round `r`: the window `[r, r]`.
    fn tally_round(tree: &BlockTree, store: &VoteStore, r: u64) -> GaOutput {
        tally(tree, store, Round::new(r), Round::new(r), Thresholds::mmr())
    }

    fn forked_tree() -> (BlockTree, BlockId, BlockId, BlockId) {
        let mut tree = BlockTree::new();
        let a1 = tree
            .insert(Block::build(
                BlockId::GENESIS,
                View::new(1),
                ProcessId::new(0),
                vec![],
            ))
            .unwrap();
        let a2 = tree
            .insert(Block::build(a1, View::new(2), ProcessId::new(0), vec![]))
            .unwrap();
        let b1 = tree
            .insert(Block::build(
                BlockId::GENESIS,
                View::new(1),
                ProcessId::new(1),
                vec![],
            ))
            .unwrap();
        (tree, a1, a2, b1)
    }

    #[test]
    fn empty_votes_empty_output() {
        let (tree, ..) = forked_tree();
        let store = VoteStore::new();
        let out = tally_round(&tree, &store, 1);
        assert!(out.is_empty());
        assert_eq!(out.participation(), 0);
    }

    #[test]
    fn unanimous_vote_grades_whole_chain_one() {
        let (tree, a1, a2, _) = forked_tree();
        let mut store = VoteStore::new();
        for i in 0..6 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a2));
        }
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.grade_of(a2), Some(Grade::One));
        assert_eq!(out.grade_of(a1), Some(Grade::One));
        assert_eq!(out.grade_of(BlockId::GENESIS), Some(Grade::One));
        assert_eq!(out.longest_grade1(), Some(a2));
    }

    #[test]
    fn two_thirds_boundary_is_strict() {
        let (tree, a1, _, b1) = forked_tree();
        let mut store = VoteStore::new();
        // 6 voters: exactly 4 = 2m/3 for a1 — NOT more than 2m/3.
        for i in 0..4 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a1));
        }
        for i in 4..6 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), b1));
        }
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.grade_of(a1), Some(Grade::Zero)); // 4/6 > 1/3, ≤ 2/3
        assert_eq!(out.grade_of(b1), None); // 2 of 6 is not > m/3
    }

    #[test]
    fn one_third_boundary_is_strict() {
        let (tree, a1, _, b1) = forked_tree();
        let mut store = VoteStore::new();
        // m = 6: grade-0 needs support > 2. Exactly 2 votes must NOT grade.
        for i in 0..2 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), b1));
        }
        for i in 2..6 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a1));
        }
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.grade_of(b1), None);
        assert_eq!(out.grade_of(a1), Some(Grade::Zero));
    }

    #[test]
    fn five_of_six_is_grade_one() {
        let (tree, a1, _, b1) = forked_tree();
        let mut store = VoteStore::new();
        for i in 0..5 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a1));
        }
        store.insert(Vote::new(ProcessId::new(5), Round::new(1), b1));
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.grade_of(a1), Some(Grade::One));
        // Genesis is supported by everyone (both tips extend it).
        assert_eq!(out.grade_of(BlockId::GENESIS), Some(Grade::One));
    }

    #[test]
    fn votes_for_extension_count_for_prefix() {
        let (tree, a1, a2, b1) = forked_tree();
        let mut store = VoteStore::new();
        // 3 vote the tip a2, 2 vote the mid-chain a1: a1's support is 5.
        for i in 0..3 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a2));
        }
        for i in 3..5 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a1));
        }
        store.insert(Vote::new(ProcessId::new(5), Round::new(1), b1));
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.grade_of(a1), Some(Grade::One)); // 5/6 > 2/3
        assert_eq!(out.grade_of(a2), Some(Grade::Zero)); // 3/6 > 1/3, ≤ 2/3
    }

    #[test]
    fn unknown_tip_counts_toward_m_but_supports_nothing() {
        let (tree, a1, _, _) = forked_tree();
        let mut store = VoteStore::new();
        // 4 honest votes for a1, 2 votes for a fabricated block: m = 6, so
        // a1 needs > 4 for grade 1 — it has exactly 4 → grade 0 only.
        for i in 0..4 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), a1));
        }
        for i in 4..6 {
            store.insert(Vote::new(
                ProcessId::new(i),
                Round::new(1),
                BlockId::new(0xdead),
            ));
        }
        let out = tally_round(&tree, &store, 1);
        assert_eq!(out.participation(), 6);
        assert_eq!(out.grade_of(a1), Some(Grade::Zero));
    }

    #[test]
    fn extended_window_uses_latest_votes_across_rounds() {
        let (tree, a1, a2, b1) = forked_tree();
        let mut store = VoteStore::new();
        // Round 1: everyone voted b1. Round 3: only 2 of 6 voted (for a2).
        for i in 0..6 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(1), b1));
        }
        for i in 0..2 {
            store.insert(Vote::new(ProcessId::new(i), Round::new(3), a2));
        }
        // Vanilla window [3,3]: only the 2 new votes, a2 unanimous.
        let out = tally_round(&tree, &store, 3);
        assert_eq!(out.grade_of(a2), Some(Grade::One));
        assert_eq!(out.participation(), 2);
        // Extended window [1,3]: 2 latest for a2, 4 stale-latest for b1;
        // b1 has 4/6 = grade 0, a2 only 2/6 → below grade 0.
        let ext = tally(
            &tree,
            &store,
            Round::new(1),
            Round::new(3),
            Thresholds::mmr(),
        );
        assert_eq!(ext.participation(), 6);
        assert_eq!(ext.grade_of(b1), Some(Grade::Zero));
        assert_eq!(ext.grade_of(a2), None);
        assert_eq!(ext.grade_of(a1), None);
        // Genesis is supported by all 6 votes.
        assert_eq!(ext.grade_of(BlockId::GENESIS), Some(Grade::One));
    }
}
