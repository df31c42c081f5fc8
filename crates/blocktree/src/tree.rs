//! Append-only block tree with fast ancestry queries.

use crate::{Block, BlockTreeError};
use st_types::fasthash::mix64;
use st_types::FastMap;
use st_types::{BlockId, TxId};
use std::sync::{Arc, OnceLock};

/// Per-block bookkeeping inside the tree. Nodes live in a contiguous
/// arena and refer to each other by arena index — ancestry walks are
/// array reads, not hash lookups. The block itself is held behind an
/// [`Arc`]: in a simulation one multicast body reaches every receiver,
/// and each process tree that takes it (once a vote names the block)
/// shares that one allocation instead of copying ~150 bytes of block per
/// node at `n = 4096`.
#[derive(Clone, Debug)]
struct Node {
    block: Arc<Block>,
    height: u64,
    /// Arena index of the parent (genesis points at itself).
    parent: u32,
    /// Skew-binary jump pointer (Myers): a single ancestor index chosen at
    /// insert so that repeated jumps reach any target height in
    /// `O(log h)` — the O(1)-space replacement for a binary-lifting table.
    /// The jump target's height is a pure function of this node's height,
    /// which is what makes the equal-height LCA walk sound.
    jump: u32,
}

/// An append-only tree of blocks rooted at genesis.
///
/// Logs are identified by their tip [`BlockId`]; prefix relations between
/// logs translate to ancestry between tips. Ancestor queries follow
/// skew-binary jump pointers and cost `O(log h)` with **O(1)** extra space
/// per node.
///
/// Internally the tree is an arena: one `Vec` of nodes plus a single
/// id → index map. Every traversal (jumps, chain iteration, LCA) pays the
/// hash lookup **once** at entry and then walks plain indices — the
/// difference between ~1 µs and ~100 ns per insert once trees reach
/// simulation scale.
#[derive(Clone, Debug)]
pub struct BlockTree {
    nodes: Vec<Node>,
    /// id → arena index of every block but genesis (index 0).
    index: FastMap<BlockId, u32>,
    /// XOR of [`mix64`] over every member block id — a hasher-independent
    /// content fingerprint, maintained incrementally on insert.
    fingerprint: u64,
}

impl BlockTree {
    /// Creates a tree containing only the genesis block `b₀` (an empty
    /// payload block at height 0, producer `p0`, view 0). One allocation:
    /// the arena's first node. Every tree shares one genesis body, and
    /// genesis resolves to arena index 0 without an index entry.
    pub fn new() -> BlockTree {
        static GENESIS: OnceLock<Arc<Block>> = OnceLock::new();
        BlockTree {
            nodes: vec![Node {
                block: Arc::clone(GENESIS.get_or_init(|| Arc::new(Block::genesis()))),
                height: 0,
                parent: 0,
                jump: 0,
            }],
            index: FastMap::default(),
            fingerprint: mix64(BlockId::GENESIS.as_u64()),
        }
    }

    #[inline]
    fn idx(&self, id: BlockId) -> Option<u32> {
        if id == BlockId::GENESIS {
            return Some(0);
        }
        self.index.get(&id).copied()
    }

    /// Number of blocks in the tree (including genesis).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: BlockId) -> bool {
        id == BlockId::GENESIS || self.index.contains_key(&id)
    }

    /// Inserts a block.
    ///
    /// # Errors
    ///
    /// * [`BlockTreeError::UnknownParent`] if the parent is absent;
    /// * [`BlockTreeError::DuplicateBlock`] if the id is already present.
    pub fn insert(&mut self, block: impl Into<Arc<Block>>) -> Result<BlockId, BlockTreeError> {
        let block = block.into();
        let id = block.id();
        if self.contains(id) {
            return Err(BlockTreeError::DuplicateBlock(id));
        }
        self.insert_or_get(block)
    }

    /// Inserts a block, treating re-insertion of an identical block as a
    /// no-op success. This is the variant protocol code uses when the same
    /// proposal arrives from several peers. Accepts an already-shared
    /// `Arc<Block>` so simulation-scale fan-out stores one allocation per
    /// distinct block across all receivers.
    ///
    /// # Errors
    ///
    /// [`BlockTreeError::UnknownParent`] if the parent is absent.
    pub fn insert_or_get(
        &mut self,
        block: impl Into<Arc<Block>>,
    ) -> Result<BlockId, BlockTreeError> {
        let block = block.into();
        let id = block.id();
        if self.contains(id) {
            return Ok(id);
        }
        let Some(parent_idx) = self.idx(block.parent()) else {
            return Err(BlockTreeError::UnknownParent {
                block: id,
                parent: block.parent(),
            });
        };
        // Skew-binary jump pointer (Myers): with p = parent, j = jump(p),
        // jj = jump(j), the new node jumps to jj when the two hops below
        // it span equal distances, else to its parent. Jump heights are a
        // function of node height alone, which `ancestor_idx_at` and
        // `lca` rely on.
        let height = self.nodes[parent_idx as usize].height + 1;
        let j = self.nodes[parent_idx as usize].jump;
        let jj = self.nodes[j as usize].jump;
        let (hp, hj, hjj) = (
            self.nodes[parent_idx as usize].height,
            self.nodes[j as usize].height,
            self.nodes[jj as usize].height,
        );
        let jump = if hp - hj == hj - hjj { jj } else { parent_idx };
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            block,
            height,
            parent: parent_idx,
            jump,
        });
        self.index.insert(id, idx);
        self.fingerprint ^= mix64(id.as_u64());
        Ok(id)
    }

    /// A hasher-independent digest of the member block-id set (XOR of a
    /// fixed 64-bit mix over every id). Two trees holding the same blocks
    /// have equal fingerprints regardless of insertion order or FxHash
    /// seed — the tree half of the key tallies are shared under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The block stored under `id`.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.idx(id).map(|i| self.nodes[i as usize].block.as_ref())
    }

    /// Height of a block (genesis is 0). This is also the length of the
    /// log whose tip is `id`.
    pub fn height(&self, id: BlockId) -> Option<u64> {
        self.idx(id).map(|i| self.nodes[i as usize].height)
    }

    /// Parent of a block; genesis returns `None`.
    pub fn parent(&self, id: BlockId) -> Option<BlockId> {
        if id.is_genesis() {
            return None;
        }
        self.idx(id).map(|i| {
            self.nodes[self.nodes[i as usize].parent as usize]
                .block
                .id()
        })
    }

    /// Arena-internal: the ancestor index of `idx` at `target_height`
    /// (which must not exceed the node's height). Follows the jump
    /// pointer whenever it does not overshoot the target, else steps to
    /// the parent — `O(log h)` by the skew-binary spacing of the jumps.
    fn ancestor_idx_at(&self, mut idx: u32, target_height: u64) -> u32 {
        while self.nodes[idx as usize].height > target_height {
            let j = self.nodes[idx as usize].jump;
            idx = if self.nodes[j as usize].height >= target_height {
                j
            } else {
                self.nodes[idx as usize].parent
            };
        }
        idx
    }

    /// Whether `a` is an ancestor of `b` **or equal to it** — i.e. whether
    /// the log with tip `a` is a prefix of the log with tip `b`
    /// (`Λ_a ⪯ Λ_b` in the paper's notation).
    ///
    /// Returns `false` if either block is unknown.
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let (Some(ia), Some(ib)) = (self.idx(a), self.idx(b)) else {
            return false;
        };
        let ha = self.nodes[ia as usize].height;
        if ha > self.nodes[ib as usize].height {
            return false;
        }
        self.ancestor_idx_at(ib, ha) == ia
    }

    /// Whether the logs with tips `a` and `b` are compatible (one is a
    /// prefix of the other, Definition 1).
    pub fn compatible(&self, a: BlockId, b: BlockId) -> bool {
        self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// Whether the logs with tips `a` and `b` conflict (neither is a
    /// prefix of the other).
    pub fn conflicting(&self, a: BlockId, b: BlockId) -> bool {
        self.contains(a) && self.contains(b) && !self.compatible(a, b)
    }

    /// Lowest common ancestor of two blocks; `None` if either is unknown.
    /// All blocks share genesis, so known blocks always have an LCA.
    pub fn lca(&self, a: BlockId, b: BlockId) -> Option<BlockId> {
        let ia = self.idx(a)?;
        let ib = self.idx(b)?;
        let ha = self.nodes[ia as usize].height;
        let hb = self.nodes[ib as usize].height;
        let (mut x, mut y) = if ha <= hb {
            (ia, self.ancestor_idx_at(ib, ha))
        } else {
            (self.ancestor_idx_at(ia, hb), ib)
        };
        // x and y stay at equal heights, so their jump targets also sit at
        // equal heights h'. If the targets differ, the LCA's height is
        // strictly below h' (equal-height ancestors at or below the LCA
        // coincide), so jumping both cannot skip past it; if they are
        // equal, the LCA may sit anywhere at or above h', so step parents
        // one level instead.
        while x != y {
            let jx = self.nodes[x as usize].jump;
            let jy = self.nodes[y as usize].jump;
            if jx != jy {
                x = jx;
                y = jy;
            } else {
                x = self.nodes[x as usize].parent;
                y = self.nodes[y as usize].parent;
            }
        }
        Some(self.nodes[x as usize].block.id())
    }

    /// Iterates the chain from `tip` down to genesis (inclusive), yielding
    /// tips first. Unknown tips yield an empty iterator.
    pub fn chain(&self, tip: BlockId) -> ChainIter<'_> {
        ChainIter {
            tree: self,
            cur: self.idx(tip),
        }
    }

    /// The log with tip `tip` as a block-id sequence from genesis to tip.
    pub fn log_of(&self, tip: BlockId) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self.chain(tip).collect();
        v.reverse();
        v
    }

    /// All transactions in the log with tip `tip`, genesis-first order.
    pub fn log_transactions(&self, tip: BlockId) -> Vec<TxId> {
        let Some(mut idx) = self.idx(tip) else {
            return Vec::new();
        };
        let mut rev: Vec<u32> = Vec::new();
        loop {
            rev.push(idx);
            let node = &self.nodes[idx as usize];
            if node.height == 0 {
                break;
            }
            idx = node.parent;
        }
        let mut txs = Vec::new();
        for &i in rev.iter().rev() {
            txs.extend_from_slice(self.nodes[i as usize].block.payload());
        }
        txs
    }
}

impl Default for BlockTree {
    fn default() -> Self {
        BlockTree::new()
    }
}

/// Iterator over a chain from tip to genesis. Produced by
/// [`BlockTree::chain`]. Walks arena indices: one hash lookup at
/// construction, array reads per step.
#[derive(Clone, Debug)]
pub struct ChainIter<'a> {
    tree: &'a BlockTree,
    cur: Option<u32>,
}

impl Iterator for ChainIter<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        let cur = self.cur?;
        let node = &self.tree.nodes[cur as usize];
        self.cur = if node.height == 0 {
            None
        } else {
            Some(node.parent)
        };
        Some(node.block.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, BlockTreeError};
    use st_types::{ProcessId, View};

    /// Builds a linear chain of `len` blocks on top of `base`, returning
    /// the tips in order.
    fn extend_chain(
        tree: &mut BlockTree,
        base: BlockId,
        len: usize,
        producer: u32,
    ) -> Vec<BlockId> {
        let mut tips = Vec::new();
        let mut parent = base;
        for i in 0..len {
            let b = Block::build(
                parent,
                View::new(i as u64 + 1),
                ProcessId::new(producer),
                vec![TxId::new((producer as u64) << 32 | i as u64)],
            );
            parent = tree.insert(b).unwrap();
            tips.push(parent);
        }
        tips
    }

    #[test]
    fn new_tree_has_genesis() {
        let tree = BlockTree::new();
        assert!(tree.contains(BlockId::GENESIS));
        assert_eq!(tree.height(BlockId::GENESIS), Some(0));
        assert_eq!(tree.parent(BlockId::GENESIS), None);
        assert!(tree.is_empty());
    }

    #[test]
    fn insert_rejects_unknown_parent() {
        let mut tree = BlockTree::new();
        let orphan = Block::build(BlockId::new(999), View::new(1), ProcessId::new(0), vec![]);
        assert!(matches!(
            tree.insert(orphan),
            Err(BlockTreeError::UnknownParent { .. })
        ));
    }

    #[test]
    fn insert_rejects_duplicates_but_insert_or_get_is_idempotent() {
        let mut tree = BlockTree::new();
        let b = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let id = tree.insert(b.clone()).unwrap();
        assert!(matches!(
            tree.insert(b.clone()),
            Err(BlockTreeError::DuplicateBlock(_))
        ));
        assert_eq!(tree.insert_or_get(b).unwrap(), id);
    }

    #[test]
    fn ancestry_on_linear_chain() {
        let mut tree = BlockTree::new();
        let tips = extend_chain(&mut tree, BlockId::GENESIS, 20, 0);
        for (i, &a) in tips.iter().enumerate() {
            assert!(tree.is_ancestor(BlockId::GENESIS, a));
            assert!(tree.is_ancestor(a, a), "self-prefix");
            for &b in &tips[i + 1..] {
                assert!(tree.is_ancestor(a, b));
                assert!(!tree.is_ancestor(b, a));
                assert!(tree.compatible(a, b));
            }
        }
    }

    #[test]
    fn forks_conflict() {
        let mut tree = BlockTree::new();
        let left = extend_chain(&mut tree, BlockId::GENESIS, 5, 0);
        let right = extend_chain(&mut tree, BlockId::GENESIS, 5, 1);
        for &l in &left {
            for &r in &right {
                assert!(tree.conflicting(l, r), "{l} vs {r} should conflict");
                assert!(!tree.compatible(l, r));
            }
        }
    }

    #[test]
    fn fork_below_tip_conflicts_above_fork_point() {
        let mut tree = BlockTree::new();
        let trunk = extend_chain(&mut tree, BlockId::GENESIS, 5, 0);
        let branch = extend_chain(&mut tree, trunk[2], 4, 1);
        // branch extends trunk[2], so it is compatible with trunk[0..=2]…
        for &t in &trunk[..3] {
            assert!(tree.compatible(t, *branch.last().unwrap()));
        }
        // …and conflicts with trunk[3..].
        for &t in &trunk[3..] {
            assert!(tree.conflicting(t, *branch.last().unwrap()));
        }
    }

    #[test]
    fn ancestry_jumps_reach_every_height() {
        // A 100-deep chain with a one-block side branch at every height:
        // the jump pointers must land on exactly the chain block of each
        // height, never on its sibling.
        let mut tree = BlockTree::new();
        let tips = extend_chain(&mut tree, BlockId::GENESIS, 100, 0);
        let deep = *tips.last().unwrap();
        assert!(tree.is_ancestor(BlockId::GENESIS, deep));
        for (h, &t) in tips.iter().enumerate() {
            assert!(tree.is_ancestor(t, deep), "height {}", h + 1);
            let parent = if h == 0 {
                BlockId::GENESIS
            } else {
                tips[h - 1]
            };
            let side = extend_chain(&mut tree, parent, 1, 1 + h as u32)[0];
            assert!(!tree.is_ancestor(side, deep), "height {}", h + 1);
            assert_eq!(tree.lca(side, deep), Some(parent));
        }
    }

    #[test]
    fn lca_on_fork() {
        let mut tree = BlockTree::new();
        let trunk = extend_chain(&mut tree, BlockId::GENESIS, 4, 0);
        let fork_point = trunk[1];
        let left = extend_chain(&mut tree, fork_point, 7, 1);
        let right = extend_chain(&mut tree, fork_point, 3, 2);
        assert_eq!(
            tree.lca(*left.last().unwrap(), *right.last().unwrap()),
            Some(fork_point)
        );
        assert_eq!(
            tree.lca(*left.last().unwrap(), *trunk.last().unwrap()),
            Some(fork_point)
        );
        // LCA with an ancestor is the ancestor itself.
        assert_eq!(
            tree.lca(fork_point, *left.last().unwrap()),
            Some(fork_point)
        );
        // LCA of disjoint branches from genesis is genesis.
        let solo = extend_chain(&mut tree, BlockId::GENESIS, 2, 3);
        assert_eq!(
            tree.lca(*solo.last().unwrap(), *left.last().unwrap()),
            Some(BlockId::GENESIS)
        );
    }

    #[test]
    fn lca_of_same_node_is_itself() {
        let mut tree = BlockTree::new();
        let tips = extend_chain(&mut tree, BlockId::GENESIS, 5, 0);
        for &t in &tips {
            assert_eq!(tree.lca(t, t), Some(t));
        }
    }

    #[test]
    fn lca_folds_into_the_common_prefix_of_tips() {
        // The longest common prefix of a tip set (graded agreement's
        // validity) is `lca` folded over the set.
        let mut tree = BlockTree::new();
        let trunk = extend_chain(&mut tree, BlockId::GENESIS, 3, 0);
        let a = extend_chain(&mut tree, trunk[2], 2, 1);
        let b = extend_chain(&mut tree, trunk[2], 2, 2);
        let lcp = [*a.last().unwrap(), *b.last().unwrap(), trunk[2]]
            .into_iter()
            .reduce(|x, y| tree.lca(x, y).unwrap());
        assert_eq!(lcp, Some(trunk[2]));
        assert_eq!(tree.lca(*a.last().unwrap(), BlockId::new(12345)), None);
    }

    #[test]
    fn chain_iterates_tip_to_genesis() {
        let mut tree = BlockTree::new();
        let tips = extend_chain(&mut tree, BlockId::GENESIS, 3, 0);
        let chain: Vec<_> = tree.chain(*tips.last().unwrap()).collect();
        assert_eq!(chain, vec![tips[2], tips[1], tips[0], BlockId::GENESIS]);
        let log = tree.log_of(*tips.last().unwrap());
        assert_eq!(log, vec![BlockId::GENESIS, tips[0], tips[1], tips[2]]);
    }

    #[test]
    fn tx_lookup_in_log() {
        let mut tree = BlockTree::new();
        let tips = extend_chain(&mut tree, BlockId::GENESIS, 3, 7);
        let tip = *tips.last().unwrap();
        let tx0 = TxId::new((7u64) << 32);
        let txs = tree.log_transactions(tip);
        assert_eq!(txs.len(), 3);
        assert_eq!(txs[0], tx0);
        assert!(!txs.contains(&TxId::new(424242)));
    }

    #[test]
    fn insert_or_get_merges_another_trees_blocks() {
        // Another tree's blocks, inserted parents first, merge in once.
        let mut a = BlockTree::new();
        let mut b = BlockTree::new();
        let tips_a = extend_chain(&mut a, BlockId::GENESIS, 4, 0);
        let tips_b = extend_chain(&mut b, BlockId::GENESIS, 4, 1);
        for _ in 0..2 {
            for &id in &tips_b {
                a.insert_or_get(b.block(id).unwrap().clone()).unwrap();
            }
        }
        assert!(a.contains(*tips_b.last().unwrap()));
        assert!(a.contains(*tips_a.last().unwrap()));
        assert_eq!(a.len(), 9); // genesis + 4 + 4
    }

    #[test]
    fn unknown_queries_return_none_or_false() {
        let tree = BlockTree::new();
        let ghost = BlockId::new(42);
        assert_eq!(tree.height(ghost), None);
        assert_eq!(tree.parent(ghost), None);
        assert!(!tree.is_ancestor(ghost, BlockId::GENESIS));
        assert!(!tree.is_ancestor(BlockId::GENESIS, ghost));
        assert!(!tree.compatible(ghost, BlockId::GENESIS));
        assert!(!tree.conflicting(ghost, BlockId::GENESIS));
        assert_eq!(tree.chain(ghost).count(), 0);
    }
}
