//! Lazy admission and body pruning against two references, under random
//! delivery.
//!
//! A `TobProcess` admits a proposal body to its tree only once a stored
//! vote names it (or a descendant is admitted); everything else it
//! receives waits outside, until the vote store's pruning edge passes the
//! body's view. These property tests feed one process random
//! interleavings of proposals and votes — duplicates, reorders, orphan
//! chains, votes ahead of their bodies, votes for blocks that never
//! arrive or that were already dropped — over enough rounds for the edge
//! to pass the early views, and check each round:
//!
//! * against the retention rule restated over plain sets (`Retained`),
//!   for arbitrary votes: `tally_fingerprint()` equals
//!   `mix64_pair(votes.fingerprint(), fingerprint of the retained
//!   connected bodies)`, the tally `step_send` consumes equals
//!   `reference_tally` and the stateless tally over those bodies, and
//!   every retained connected body a stored vote names is in the
//!   process's tree;
//! * against an eager tree that takes every body and drops none, for
//!   votes whose tips' chains stay retained through the last round that
//!   tallies them (views `v` with `2v − 1 ≥ k − η − 4` for a round-`k`
//!   vote): the consumed tally equals `reference_tally` and the stateless
//!   tally over the eager tree. That is the in-model case, where pruning
//!   never changes a tally.

#[path = "support/eager_shadow.rs"]
mod eager_shadow;

use eager_shadow::{Mode, Shadowed};
use proptest::prelude::*;
use st_blocktree::Block;
use st_core::{TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, Vote};
use st_types::{BlockId, Params, ProcessId, Round, TxId, View};

const N: usize = 4;
const SEED: u64 = 5;

/// One delivery: the round it happens in, an order key within the round,
/// and the envelope.
type Delivery = (u64, u64, Envelope);

/// Builds the block universe and every delivery of a case. Block `i`'s
/// parent is genesis or an earlier block (`parents[i]`); its body arrives
/// in round `arrivals[i]`, and again later when that word's top bit is
/// set. Each `votes` word names a sender, a tip (a block, genesis, or a
/// block that never exists), a delivery round and how far the vote's own
/// round trails it. A vote of round `k` naming a block whose chain's
/// oldest view is `v` is delivered only if `keep(k, v)`.
fn deliveries(
    keys: &[Keypair],
    rounds: u64,
    parents: &[u64],
    arrivals: &[u64],
    votes: &[u64],
    keep: impl Fn(u64, u64) -> bool,
) -> Vec<Delivery> {
    let mut blocks: Vec<Block> = Vec::new();
    // The oldest view on each block's chain, genesis excluded.
    let mut oldest: Vec<u64> = Vec::new();
    let mut out: Vec<Delivery> = Vec::new();
    for (i, &word) in parents.iter().enumerate() {
        let pick = (word % (i as u64 + 1)) as usize;
        let (parent, below) = if pick == 0 {
            (BlockId::GENESIS, u64::MAX)
        } else {
            (blocks[pick - 1].id(), oldest[pick - 1])
        };
        let key = &keys[1 + (word >> 8) as usize % (N - 1)];
        let view = 1 + (word >> 16) % (rounds / 2 + 1);
        oldest.push(below.min(view));
        let block = Block::build(
            parent,
            View::new(view),
            key.owner(),
            vec![TxId::new(i as u64)],
        );
        let (value, proof) = key.vrf_eval(view);
        let round = Round::new(2 * view - 2);
        let prop = Propose::new(
            key.owner(),
            round,
            View::new(view),
            block.clone(),
            value,
            proof,
        );
        let env = Envelope::sign(key, Payload::Propose(prop));
        let arrival = arrivals[i % arrivals.len()];
        out.push((arrival % (rounds + 1), arrival >> 32, env.clone()));
        if arrival >> 63 == 1 {
            out.push(((arrival >> 8) % (rounds + 1), arrival >> 40, env));
        }
        blocks.push(block);
    }
    for &word in votes {
        let key = &keys[1 + word as usize % (N - 1)];
        let pick = (word >> 4) % (blocks.len() as u64 + 2);
        let at = (word >> 12) % (rounds + 1);
        let round = at.saturating_sub((word >> 20) % 4).max(1);
        let tip = match pick as usize {
            0 => BlockId::GENESIS,
            k if k <= blocks.len() => {
                if !keep(round, oldest[k - 1]) {
                    continue;
                }
                blocks[k - 1].id()
            }
            _ => BlockId::new(word | 1),
        };
        let env = Envelope::sign(
            key,
            Payload::Vote(Vote::new(key.owner(), Round::new(round), tip)),
        );
        out.push((at, word >> 32, env));
    }
    out.sort_by_key(|&(round, order, _)| (round, order));
    out
}

/// Runs one case: process 0 of `N`, checked against the `mode`'s
/// reference every round. In pruned mode it also checks that every
/// retained connected body a stored vote names is in the process's tree.
fn run_case(mode: Mode, eta: u64, rounds: u64, plan: &[Delivery]) -> Result<(), TestCaseError> {
    let params = Params::builder(N).expiration(eta).build().expect("valid");
    let config = TobConfig::new(params, SEED);
    let mut h = Shadowed::new(TobProcess::new(ProcessId::new(0), config), mode);
    let mut next = 0;
    for r in 0..=rounds {
        h.step(Round::new(r));
        while next < plan.len() && plan[next].0 == r {
            h.deliver(&plan[next].2);
            next += 1;
        }
        if mode == Mode::Pruned {
            let window = h.p.votes().latest_in_window(Round::ZERO, Round::new(r));
            for (sender, round, tip) in window.iter() {
                prop_assert!(
                    !h.retained.connected(tip) || h.p.tree().contains(tip),
                    "round {r}: {sender:?}'s round-{round:?} vote names a connected body outside the tree"
                );
            }
        }
    }
    h.step(Round::new(rounds + 1));
    prop_assert_eq!(h.checked as u64, rounds + 1);
    Ok(())
}

fn keys() -> Vec<Keypair> {
    (0..N as u32)
        .map(|i| Keypair::derive(ProcessId::new(i), SEED))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_tree_tallies_like_the_retained_bodies(
        eta in 0u64..4,
        rounds in 4u64..24,
        parents in prop::collection::vec(any::<u64>(), 1..16),
        arrivals in prop::collection::vec(any::<u64>(), 1..16),
        votes in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let plan = deliveries(&keys(), rounds, &parents, &arrivals, &votes, |_, _| true);
        run_case(Mode::Pruned, eta, rounds, &plan)?;
    }

    #[test]
    fn lazy_tree_tallies_like_an_eager_one_for_votes_in_the_window(
        eta in 0u64..4,
        rounds in 4u64..24,
        parents in prop::collection::vec(any::<u64>(), 1..16),
        arrivals in prop::collection::vec(any::<u64>(), 1..16),
        votes in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        // A round-k vote is tallied up to round k + η + 1, whose state
        // was pruned at edge k − η − 4: its tip's chain must be retained
        // there, 2v − 1 ≥ k − η − 4.
        let keep = |round: u64, view: u64| 2 * view + eta + 3 >= round;
        let plan = deliveries(&keys(), rounds, &parents, &arrivals, &votes, keep);
        run_case(Mode::Eager, eta, rounds, &plan)?;
    }
}
