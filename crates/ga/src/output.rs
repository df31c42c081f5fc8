//! Graded-agreement outputs.

use st_blocktree::BlockTree;
use st_types::{BlockId, Grade};

/// The output of a graded-agreement tally: a set of logs (identified by
/// tip), each with a grade, plus the perceived participation `m`.
///
/// Heights are captured at construction so selection queries ("the longest
/// log such that…", Algorithm 1 lines 5, 9, 10) do not need the tree again.
/// Ties in height break by block id, which is deterministic and identical
/// across processes holding the same tree.
#[derive(Clone, Debug, PartialEq)]
pub struct GaOutput {
    /// `(block, grade, height)` triples, sorted by block id for
    /// reproducible iteration.
    outputs: Vec<(BlockId, Grade, u64)>,
    participation: usize,
}

impl GaOutput {
    /// An output with no graded logs (e.g. no votes received).
    pub fn empty() -> GaOutput {
        GaOutput {
            outputs: Vec::new(),
            participation: 0,
        }
    }

    /// Builds an output set; heights are read from `tree`.
    pub(crate) fn new(
        outputs: Vec<(BlockId, Grade)>,
        participation: usize,
        tree: &BlockTree,
    ) -> GaOutput {
        let mut enriched: Vec<(BlockId, Grade, u64)> = outputs
            .into_iter()
            .map(|(b, g)| (b, g, tree.height(b).unwrap_or(0)))
            .collect();
        enriched.sort_by_key(|&(b, _, _)| b.as_u64());
        GaOutput {
            outputs: enriched,
            participation,
        }
    }

    /// The perceived participation `m` of the tally.
    pub fn participation(&self) -> usize {
        self.participation
    }

    /// Whether nothing was output.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The grade of a specific log, if it was output. Binary search over
    /// the id-sorted outputs — grade lookups are rare (tests, monitors),
    /// so the hot path no longer materialises a per-tally lookup map.
    pub fn grade_of(&self, block: BlockId) -> Option<Grade> {
        // stlint::allow(deadpub, reason = "the graded-agreement query Lemma 1's property tests and the crate doc state their claims in")
        self.outputs
            .binary_search_by_key(&block.as_u64(), |&(b, _, _)| b.as_u64())
            .ok()
            .map(|i| self.outputs[i].1)
    }

    /// Iterates `(block, grade)` pairs, sorted by block id.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Grade)> + '_ {
        self.outputs.iter().map(|&(b, g, _)| (b, g))
    }

    /// The longest log output with grade 1 (Algorithm 1 line 9: the input
    /// to `GA_{v,2}`), or `None` if no grade-1 output exists.
    pub fn longest_grade1(&self) -> Option<BlockId> {
        self.outputs
            .iter()
            .filter(|&&(_, g, _)| g == Grade::One)
            .max_by_key(|&&(b, _, h)| (h, b.as_u64()))
            .map(|&(b, _, _)| b)
    }

    /// The longest log output with **any** grade (Algorithm 1 lines 5 and
    /// 10: `L_{v−1}` and `C_v`), or `None` if nothing was output.
    pub fn longest_any_grade(&self) -> Option<BlockId> {
        self.outputs
            .iter()
            .max_by_key(|&&(b, _, h)| (h, b.as_u64()))
            .map(|&(b, _, _)| b)
    }

    /// The number of graded logs.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_blocktree::Block;
    use st_types::{ProcessId, View};

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
    fn empty_output() {
        let out = GaOutput::empty();
        assert!(out.is_empty());
        assert_eq!(out.longest_grade1(), None);
        assert_eq!(out.longest_any_grade(), None);
        assert_eq!(out.participation(), 0);
    }

    #[test]
    fn longest_selection_prefers_height() {
        let (tree, ids) = chain_tree(3);
        let out = GaOutput::new(
            vec![
                (ids[1], Grade::One),
                (ids[2], Grade::One),
                (ids[3], Grade::Zero),
            ],
            6,
            &tree,
        );
        assert_eq!(out.longest_grade1(), Some(ids[2]));
        assert_eq!(out.longest_any_grade(), Some(ids[3]));
        assert_eq!(out.len(), 3);
    }
}
