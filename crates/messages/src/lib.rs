//! Protocol messages and the latest-unexpired-message stores.
//!
//! The paper's central mechanism (Section 2.1, "Message structure") equips
//! every message with an **expiration period** `η`: the behaviour of the
//! protocol at round `r` is influenced only by the **latest** unexpired
//! message of each process, i.e. each process's most recent message among
//! rounds `[r − η, r]`, with equivocating latest messages discarded.
//!
//! This crate provides:
//!
//! * [`Vote`] / [`Propose`] — the two message kinds of Algorithm 1, with
//!   canonical byte encodings for signing;
//! * [`Envelope`] — a signed message; [`KeyDirectory`] — the public-key
//!   registry receivers verify against, and the only issuer of a
//!   [`Sender`]; [`SharedEnvelope::verified`] — the one verification
//!   step, yielding a [`Verified`] payload;
//! * [`VoteStore`] — per-process store answering "the latest vote of every
//!   sender within a round window, equivocators discarded" (the tally input
//!   of the extended graded agreement, Figure 3);
//! * [`ProposeStore`] — per-view proposal store used for VRF leader
//!   election.
//!
//! # Example: expiration-window semantics
//!
//! ```
//! use st_messages::{Vote, VoteStore};
//! use st_types::{BlockId, ProcessId, Round};
//!
//! let mut store = VoteStore::new();
//! let p = ProcessId::new(1);
//! store.insert(Vote::new(p, Round::new(2), BlockId::new(10)));
//! store.insert(Vote::new(p, Round::new(5), BlockId::new(20)));
//!
//! // Window [4, 6]: p's latest vote is the round-5 one.
//! let latest = store.latest_in_window(Round::new(4), Round::new(6));
//! assert_eq!(latest.vote_of(p), Some(BlockId::new(20)));
//!
//! // Window [0, 3]: the round-5 vote is out of range, round-2 is latest.
//! let earlier = store.latest_in_window(Round::new(0), Round::new(3));
//! assert_eq!(earlier.vote_of(p), Some(BlockId::new(10)));
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod envelope;
mod propose_store;
mod shared;
mod types;
mod vote_store;
pub mod wire;

pub use envelope::{Envelope, KeyDirectory, Payload, Sender};
pub use propose_store::ProposeStore;
pub use shared::{SharedEnvelope, Verified};
pub use types::{Propose, Vote};
pub use vote_store::{InsertOutcome, LatestVotes, VoteStore};
