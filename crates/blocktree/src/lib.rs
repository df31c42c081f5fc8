//! Block tree: the log substrate of the total-order broadcast protocol.
//!
//! The paper represents the protocol's subject matter as *logs* — finite
//! sequences of blocks, each block referencing a parent (Definition 1).
//! Because every block names its parent, the set of all logs forms a tree
//! rooted at the genesis block `b₀`, and a log is identified by its tip
//! block. Two logs are *compatible* when one is a prefix of the other,
//! i.e. when one tip is an ancestor-or-equal of the other.
//!
//! The crate provides:
//!
//! * [`Block`] — a block with parent reference, producing view/process and
//!   transaction payload, content-addressed by a deterministic hash;
//! * [`BlockTree`] — an append-only store with O(log h) ancestor queries
//!   (binary lifting), LCA, chain iteration, and longest-common-prefix of a
//!   set of tips (needed by graded-agreement validity);
//! * [`BlockTreeError`] — structural validation errors.
//!
//! The *vote-counting* semantics ("a vote for Λ′ counts as a vote for every
//! prefix Λ", Figure 2) is built on these primitives by the `st-ga` crate.
//!
//! # Example
//!
//! ```
//! use st_blocktree::{Block, BlockTree};
//! use st_types::{BlockId, ProcessId, View};
//!
//! let mut tree = BlockTree::new();
//! let b1 = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
//! let id1 = tree.insert(b1)?;
//! let b2 = Block::build(id1, View::new(2), ProcessId::new(1), vec![]);
//! let id2 = tree.insert(b2)?;
//!
//! assert!(tree.is_ancestor(BlockId::GENESIS, id2));
//! assert!(tree.compatible(id1, id2));
//! assert_eq!(tree.height(id2), Some(2));
//! # Ok::<(), st_blocktree::BlockTreeError>(())
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod block;
mod error;
mod tree;

pub use block::Block;
pub use error::BlockTreeError;
pub use tree::{BlockTree, ChainIter};
