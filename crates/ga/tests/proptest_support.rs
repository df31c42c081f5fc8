//! Equivalence property test: the incremental [`SupportIndex`] must agree
//! with the stateless [`tally`] after any sequence of vote placements,
//! movements and removals.

use proptest::prelude::*;
use st_blocktree::{Block, BlockTree};
use st_ga::{tally, SupportIndex, Thresholds};
use st_messages::{Vote, VoteStore};
use st_types::{BlockId, ProcessId, Round, TxId, View};

fn grow_tree(choices: &[u8]) -> (BlockTree, Vec<BlockId>) {
    let mut tree = BlockTree::new();
    let mut ids = vec![BlockId::GENESIS];
    for (i, &c) in choices.iter().enumerate() {
        let parent = ids[c as usize % ids.len()];
        let b = Block::build(
            parent,
            View::new(i as u64 + 1),
            ProcessId::new(c as u32),
            vec![TxId::new(i as u64)],
        );
        ids.push(tree.insert(b).unwrap());
    }
    (tree, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Drive both representations with the same final vote assignment
    /// (the index via arbitrary placement/movement/removal history, the
    /// tally via a fresh store) and compare every block's grade.
    #[test]
    fn incremental_index_matches_stateless_tally(
        tree_choices in prop::collection::vec(any::<u8>(), 1..20),
        ops in prop::collection::vec((0u32..8, any::<u8>(), any::<bool>()), 1..60),
    ) {
        let (tree, ids) = grow_tree(&tree_choices);
        let mut index = SupportIndex::new();

        // Apply the op sequence to the index; track the surviving vote of
        // each sender to build the reference store afterwards.
        let mut final_votes: std::collections::HashMap<u32, BlockId> = Default::default();
        for &(sender, pick, remove) in &ops {
            let p = ProcessId::new(sender);
            if remove {
                index.remove_vote(&tree, p);
                final_votes.remove(&sender);
            } else {
                let tip = ids[pick as usize % ids.len()];
                assert!(index.set_vote(&tree, p, tip));
                final_votes.insert(sender, tip);
            }
        }

        // Reference: one round-1 vote per surviving sender.
        let mut store = VoteStore::new();
        for (&sender, &tip) in &final_votes {
            store.insert(Vote::new(ProcessId::new(sender), Round::new(1), tip));
        }
        let reference = tally(&tree, &store, Round::new(1), Round::new(1), Thresholds::mmr());
        let m = reference.participation();
        let incremental = index.outputs(&tree, Thresholds::mmr(), m);

        prop_assert_eq!(index.participation(), m);
        // Same grade for every block of the tree.
        for &b in &ids {
            prop_assert_eq!(
                incremental.grade_of(b),
                reference.grade_of(b),
                "block {:?}: support {}",
                b,
                index.support_of(b)
            );
        }
        prop_assert_eq!(incremental.longest_grade1(), reference.longest_grade1());
        prop_assert_eq!(incremental.longest_any_grade(), reference.longest_any_grade());
    }

    /// Support counts themselves (not just grades) match a brute-force
    /// ancestor count.
    #[test]
    fn support_counts_match_bruteforce(
        tree_choices in prop::collection::vec(any::<u8>(), 1..16),
        votes in prop::collection::vec((0u32..6, any::<u8>()), 1..30),
    ) {
        let (tree, ids) = grow_tree(&tree_choices);
        let mut index = SupportIndex::new();
        let mut latest: std::collections::HashMap<u32, BlockId> = Default::default();
        for &(sender, pick) in &votes {
            let tip = ids[pick as usize % ids.len()];
            index.set_vote(&tree, ProcessId::new(sender), tip);
            latest.insert(sender, tip);
        }
        for &b in &ids {
            let expected = latest
                .values()
                .filter(|&&tip| tree.is_ancestor(b, tip))
                .count();
            prop_assert_eq!(index.support_of(b), expected, "block {:?}", b);
        }
    }
}
