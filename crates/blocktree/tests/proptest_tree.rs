//! Property-based tests: the binary-lifting ancestry structure must agree
//! with naive parent-walking on randomly grown trees.

use proptest::prelude::*;
use st_blocktree::{Block, BlockTree};
use st_types::{BlockId, ProcessId, TxId, View};

/// Grows a random tree: each step attaches a new block to a uniformly
/// chosen existing block. Returns the tree and all ids (genesis first).
fn grow_tree(choices: &[u8]) -> (BlockTree, Vec<BlockId>) {
    let mut tree = BlockTree::new();
    let mut ids = vec![BlockId::GENESIS];
    for (i, &c) in choices.iter().enumerate() {
        let parent = ids[c as usize % ids.len()];
        let block = Block::build(
            parent,
            View::new(i as u64 + 1),
            ProcessId::new(c as u32),
            vec![TxId::new(i as u64)],
        );
        let id = tree.insert(block).unwrap();
        ids.push(id);
    }
    (tree, ids)
}

/// Naive ancestor check by walking parent pointers.
fn naive_is_ancestor(tree: &BlockTree, a: BlockId, b: BlockId) -> bool {
    let mut cur = Some(b);
    while let Some(c) = cur {
        if c == a {
            return true;
        }
        cur = tree.parent(c);
    }
    false
}

/// Naive LCA via ancestor sets.
fn naive_lca(tree: &BlockTree, a: BlockId, b: BlockId) -> BlockId {
    let ancestors_a: Vec<BlockId> = tree.chain(a).collect();
    let mut cur = Some(b);
    while let Some(c) = cur {
        if ancestors_a.contains(&c) {
            return c;
        }
        cur = tree.parent(c);
    }
    BlockId::GENESIS
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn is_ancestor_matches_naive(choices in prop::collection::vec(any::<u8>(), 1..60)) {
        let (tree, ids) = grow_tree(&choices);
        for &a in &ids {
            for &b in &ids {
                prop_assert_eq!(
                    tree.is_ancestor(a, b),
                    naive_is_ancestor(&tree, a, b),
                    "a={:?} b={:?}", a, b
                );
            }
        }
    }

    #[test]
    fn lca_matches_naive(choices in prop::collection::vec(any::<u8>(), 1..60)) {
        let (tree, ids) = grow_tree(&choices);
        for &a in &ids {
            for &b in &ids {
                prop_assert_eq!(
                    tree.lca(a, b),
                    Some(naive_lca(&tree, a, b)),
                    "a={:?} b={:?}", a, b
                );
            }
        }
    }

    #[test]
    fn compatibility_is_symmetric_and_reflexive(choices in prop::collection::vec(any::<u8>(), 1..40)) {
        let (tree, ids) = grow_tree(&choices);
        for &a in &ids {
            prop_assert!(tree.compatible(a, a));
            for &b in &ids {
                prop_assert_eq!(tree.compatible(a, b), tree.compatible(b, a));
                prop_assert_eq!(tree.conflicting(a, b), !tree.compatible(a, b));
            }
        }
    }

    #[test]
    fn height_equals_chain_length(choices in prop::collection::vec(any::<u8>(), 1..60)) {
        let (tree, ids) = grow_tree(&choices);
        for &a in &ids {
            let h = tree.height(a).unwrap();
            prop_assert_eq!(h + 1, tree.chain(a).count() as u64);
        }
    }

    #[test]
    fn lcp_is_prefix_of_all_inputs(choices in prop::collection::vec(any::<u8>(), 1..40)) {
        let (tree, ids) = grow_tree(&choices);
        let lcp = ids.iter().copied().reduce(|a, b| tree.lca(a, b).unwrap()).unwrap();
        for &a in &ids {
            prop_assert!(tree.is_ancestor(lcp, a));
        }
        // And it is the deepest such: no child of lcp is an ancestor of all.
        for &c in &ids {
            if tree.parent(c) == Some(lcp) {
                prop_assert!(ids.iter().any(|&a| !tree.is_ancestor(c, a)));
            }
        }
    }

    #[test]
    fn merging_another_tree_is_union(
        left in prop::collection::vec(any::<u8>(), 1..30),
        right in prop::collection::vec(any::<u8>(), 1..30),
    ) {
        let (mut a, ids_a) = grow_tree(&left);
        let (b, ids_b) = grow_tree(&right);
        // `ids_b` lists parents before children.
        for &id in &ids_b {
            a.insert_or_get(b.block(id).unwrap().clone()).unwrap();
        }
        for &id in ids_a.iter().chain(ids_b.iter()) {
            prop_assert!(a.contains(id));
        }
    }
}
