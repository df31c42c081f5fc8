//! Blocks: batches of transactions with a parent reference.

use st_crypto::Hasher64;
use st_types::{BlockId, ProcessId, TxId, View};
use std::fmt;

/// A block: a batch of transactions plus a reference to a parent block
/// (Definition 1 of the paper). Content-addressed: the [`BlockId`] is a
/// deterministic hash of `(parent, view, producer, payload)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    id: BlockId,
    parent: BlockId,
    view: View,
    producer: ProcessId,
    payload: Vec<TxId>,
}

impl Block {
    /// Builds a block extending `parent`, produced by `producer` for
    /// `view`, carrying `payload`. The id is computed from the contents.
    ///
    /// ```
    /// use st_blocktree::Block;
    /// use st_types::{BlockId, ProcessId, TxId, View};
    /// let b = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![TxId::new(9)]);
    /// assert_eq!(b.parent(), BlockId::GENESIS);
    /// assert_eq!(b.payload(), &[TxId::new(9)]);
    /// ```
    pub fn build(parent: BlockId, view: View, producer: ProcessId, payload: Vec<TxId>) -> Block {
        let mut h = Hasher64::with_domain("st/block")
            .chain_u64(parent.as_u64())
            .chain_u64(view.as_u64())
            .chain_u64(producer.as_u32() as u64);
        for tx in &payload {
            h.update_u64(tx.as_u64());
        }
        let mut id = h.finish();
        // Reserve hash value 0 for genesis: remap the (astronomically
        // unlikely) collision.
        if id == BlockId::GENESIS.as_u64() {
            id = 1;
        }
        Block {
            id: BlockId::new(id),
            parent,
            view,
            producer,
            payload,
        }
    }

    /// The genesis block `b₀`: height 0, empty payload, id
    /// [`BlockId::GENESIS`]. Its parent field self-references genesis; use
    /// [`crate::BlockTree::parent`] (which returns `None` for genesis)
    /// rather than reading the field directly.
    pub fn genesis() -> Block {
        Block {
            id: BlockId::GENESIS,
            parent: BlockId::GENESIS,
            view: View::ZERO,
            producer: ProcessId::new(0),
            payload: Vec::new(),
        }
    }

    /// The content-address of this block.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The parent block this block extends.
    pub fn parent(&self) -> BlockId {
        self.parent
    }

    /// The view in which this block was proposed.
    pub fn view(&self) -> View {
        self.view
    }

    /// The process that produced this block.
    pub fn producer(&self) -> ProcessId {
        self.producer
    }

    /// The transactions batched in this block.
    pub fn payload(&self) -> &[TxId] {
        &self.payload
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} <- {}, {}, by {}, {} txs)",
            self.id,
            self.parent,
            self.view,
            self.producer,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_addressing_is_deterministic() {
        let a = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let b = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_contents_distinct_ids() {
        let base = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let other_view = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(0), vec![]);
        let other_producer =
            Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(1), vec![]);
        let other_payload = Block::build(
            BlockId::GENESIS,
            View::new(1),
            ProcessId::new(0),
            vec![TxId::new(1)],
        );
        let other_parent = Block::build(base.id(), View::new(1), ProcessId::new(0), vec![]);
        let ids = [
            base.id(),
            other_view.id(),
            other_producer.id(),
            other_payload.id(),
            other_parent.id(),
        ];
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn never_collides_with_genesis_id() {
        for v in 0..2000u64 {
            let b = Block::build(BlockId::GENESIS, View::new(v), ProcessId::new(0), vec![]);
            assert!(!b.id().is_genesis());
        }
    }
}
