//! Orphan-block buffering.
//!
//! During asynchrony the adversary can deliver a proposal whose ancestor
//! blocks have not arrived yet (selective delivery). The buffer parks such
//! orphans and retries them whenever a parent lands, so the process's tree
//! only ever contains fully connected chains.

use st_blocktree::{Block, BlockTree};
use st_types::BlockId;
use st_types::FastMap;
use std::sync::Arc;

/// Parks blocks whose parent is unknown and flushes them once the parent
/// arrives. Blocks are held behind [`Arc`] handles so parking a multicast
/// body never copies it.
#[derive(Clone, Debug, Default)]
pub struct BlockBuffer {
    /// parent id → orphans waiting for it.
    waiting: FastMap<BlockId, Vec<Arc<Block>>>,
}

impl BlockBuffer {
    /// Creates an empty buffer.
    pub fn new() -> BlockBuffer {
        BlockBuffer::default()
    }

    /// Number of parked orphan blocks.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.waiting
            .iter_sorted()
            .map(|(_, orphans)| orphans.len())
            .sum()
    }

    /// Whether no orphans are parked.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Inserts `block` into `tree`, parking it if the parent is missing.
    /// Whenever an insertion succeeds, any orphans waiting on the new
    /// block are flushed recursively. Returns the ids that actually
    /// entered the tree (in insertion order).
    pub fn insert(&mut self, tree: &mut BlockTree, block: impl Into<Arc<Block>>) -> Vec<BlockId> {
        let mut inserted = Vec::new();
        let mut queue = vec![block.into()];
        while let Some(b) = queue.pop() {
            // Only the unknown-parent path needs `b` back (to park it), so
            // probe for the parent first and move — rather than clone —
            // the handle into the tree on the (overwhelmingly common)
            // insertable path.
            if !tree.contains(b.parent()) && !tree.contains(b.id()) {
                let entry = self.waiting.entry(b.parent()).or_default();
                if !entry.contains(&b) {
                    entry.push(b);
                }
                continue;
            }
            match tree.insert_or_get(b) {
                Ok(id) => {
                    inserted.push(id);
                    if let Some(children) = self.waiting.remove(&id) {
                        queue.extend(children);
                    }
                }
                #[expect(
                    clippy::unreachable,
                    reason = "insert_or_get only errs on a missing parent, and this arm is reached only after tree.contains(b.parent()) held"
                )]
                Err(_) => unreachable!("parent presence checked above"),
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::{ProcessId, View};

    fn blocks_chain(len: usize) -> Vec<Block> {
        let mut out: Vec<Block> = Vec::new();
        let mut parent = BlockId::GENESIS;
        for i in 0..len {
            let b = Block::build(parent, View::new(i as u64 + 1), ProcessId::new(0), vec![]);
            parent = b.id();
            out.push(b);
        }
        out
    }

    #[test]
    fn in_order_insertion_never_parks() {
        let mut tree = BlockTree::new();
        let mut buf = BlockBuffer::new();
        for b in blocks_chain(5) {
            let ins = buf.insert(&mut tree, b);
            assert_eq!(ins.len(), 1);
        }
        assert!(buf.is_empty());
        assert_eq!(tree.len(), 6);
    }

    #[test]
    fn out_of_order_insertion_flushes_on_parent_arrival() {
        let mut tree = BlockTree::new();
        let mut buf = BlockBuffer::new();
        let chain = blocks_chain(4);
        // Deliver children first: all parked.
        for b in chain[1..].iter().rev() {
            assert!(buf.insert(&mut tree, b.clone()).is_empty());
        }
        assert_eq!(buf.len(), 3);
        // Delivering the first block flushes the whole chain.
        let ins = buf.insert(&mut tree, chain[0].clone());
        assert_eq!(ins.len(), 4);
        assert!(buf.is_empty());
        assert!(tree.contains(chain[3].id()));
    }

    #[test]
    fn duplicate_orphans_are_not_parked_twice() {
        let mut tree = BlockTree::new();
        let mut buf = BlockBuffer::new();
        let chain = blocks_chain(2);
        buf.insert(&mut tree, chain[1].clone());
        buf.insert(&mut tree, chain[1].clone());
        assert_eq!(buf.len(), 1);
        let ins = buf.insert(&mut tree, chain[0].clone());
        assert_eq!(ins.len(), 2);
    }

    #[test]
    fn reinsertion_of_known_block_is_noop() {
        let mut tree = BlockTree::new();
        let mut buf = BlockBuffer::new();
        let chain = blocks_chain(1);
        buf.insert(&mut tree, chain[0].clone());
        let again = buf.insert(&mut tree, chain[0].clone());
        assert_eq!(again.len(), 1); // insert_or_get reports the id
        assert_eq!(tree.len(), 2);
    }
}
