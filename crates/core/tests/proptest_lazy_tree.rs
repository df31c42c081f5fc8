//! Lazy admission and body pruning against the literal Algorithm 1
//! (`support/literal.rs`), under random delivery.
//!
//! A `TobProcess` admits a proposal body to its tree only once a stored
//! vote names it (or a descendant is admitted); everything else it
//! receives waits outside, until the vote store's pruning edge passes the
//! body's view. These property tests feed process 0 random interleavings
//! of proposals and votes — duplicates, reorders, orphan chains, votes
//! ahead of their bodies, votes for blocks that never arrive or that were
//! already dropped — over enough rounds for the edge to pass the early
//! views. Two copies of it step beside the literal every round, which
//! checks envelopes, consumed tallies and admitted bodies: one gets every
//! delivery, the other misses some, and they share one tally memo, so a
//! tally key weaker than the state it digests serves the second a wrong
//! tally. A memo pre-seeded with a wrong tally is caught too.
//!
//! For arbitrary votes the literal's retention rule may change what it
//! reads. For votes whose tips' chains stay retained through the last
//! round that tallies them (views `v` with `2v − 1 ≥ k − η − 4` for a
//! round-`k` vote) it must not: that is the in-model case, where pruning
//! never changes a tally.

#[path = "support/literal.rs"]
mod literal;

use literal::{consumed, Twin};
use proptest::prelude::*;
use st_blocktree::Block;
use st_core::TobConfig;
use st_crypto::Keypair;
use st_ga::GaOutput;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, Params, ProcessId, Round, TxId, View};
use std::collections::BTreeMap;
use std::sync::Arc;

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
/// round trails it. With `in_window = Some(η)` only reads retention
/// cannot change are delivered: a chain whose oldest view is `v` is read
/// by a round-`t` tally or leader choice only if `2v − 1` is at least
/// that round's pruning edge `t − 2η − 5`. A round-`k` vote is read up to
/// round `k + η + 1`, a view-`w` proposal in round `2w − 1`.
fn deliveries(
    keys: &[Keypair],
    rounds: u64,
    parents: &[u64],
    arrivals: &[u64],
    votes: &[u64],
    in_window: Option<u64>,
) -> Vec<Delivery> {
    let keep = |read: u64, v: u64| in_window.is_none_or(|eta| 2 * v + 2 * eta + 4 >= read);
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
        blocks.push(block);
        if !keep(2 * view - 1, oldest[i]) {
            continue;
        }
        out.push((arrival % (rounds + 1), arrival >> 32, env.clone()));
        if arrival >> 63 == 1 {
            out.push(((arrival >> 8) % (rounds + 1), arrival >> 40, env));
        }
    }
    for &word in votes {
        let key = &keys[1 + word as usize % (N - 1)];
        let pick = (word >> 4) % (blocks.len() as u64 + 2);
        let at = (word >> 12) % (rounds + 1);
        let round = at.saturating_sub((word >> 20) % 4).max(1);
        let tip = match pick as usize {
            0 => BlockId::GENESIS,
            k if k <= blocks.len() => {
                if !keep(round + in_window.unwrap_or(0) + 1, oldest[k - 1]) {
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

/// Runs one case: two copies of process 0, the second missing every
/// delivery whose order key is a multiple of 5, stepped beside the
/// literal with one shared tally memo. Returns the deviations the
/// literal's retention rule made.
fn run_case(eta: u64, rounds: u64, plan: &[Delivery]) -> usize {
    let mut twins = copies::<2>(eta);
    let mut next = 0;
    for r in 0..=rounds + 1 {
        step(&mut twins, Round::new(r));
        while next < plan.len() && plan[next].0 == r {
            let (_, order, env) = &plan[next];
            let env = SharedEnvelope::new(env.clone());
            twins[0].deliver(&env);
            if order % 5 != 0 {
                twins[1].deliver(&env);
            }
            next += 1;
        }
    }
    twins.iter().map(|t| t.lit.deviations()).sum()
}

/// `K` copies of process 0 of an `N`-process network.
fn copies<const K: usize>(eta: u64) -> [Twin; K] {
    let params = Params::builder(N).expiration(eta).build().expect("valid");
    let config = TobConfig::new(params, SEED);
    std::array::from_fn(|_| Twin::new(ProcessId::new(0), &config))
}

/// Steps every copy through `round`, sharing tallies through one memo.
fn step(twins: &mut [Twin], round: Round) {
    let mut memo = BTreeMap::new();
    for t in twins.iter_mut() {
        t.tob.share_tally(round, &mut memo);
        t.step(round);
    }
}

fn keys() -> Vec<Keypair> {
    (0..N as u32)
        .map(|i| Keypair::derive(ProcessId::new(i), SEED))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_tree_matches_the_literal(
        eta in 0u64..4,
        rounds in 4u64..24,
        parents in prop::collection::vec(any::<u64>(), 1..16),
        arrivals in prop::collection::vec(any::<u64>(), 1..16),
        votes in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let plan = deliveries(&keys(), rounds, &parents, &arrivals, &votes, None);
        run_case(eta, rounds, &plan);
    }

    #[test]
    fn retention_changes_no_tally_for_votes_in_the_window(
        eta in 0u64..4,
        rounds in 4u64..24,
        parents in prop::collection::vec(any::<u64>(), 1..16),
        arrivals in prop::collection::vec(any::<u64>(), 1..16),
        votes in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let plan = deliveries(&keys(), rounds, &parents, &arrivals, &votes, Some(eta));
        prop_assert_eq!(run_case(eta, rounds, &plan), 0);
    }
}

/// The comparison can fail: a memo holding a tally the process would not
/// have computed is caught, and an honest memo is not.
#[test]
fn a_wrong_shared_tally_is_caught() {
    let mut twins = copies::<3>(2);
    for r in 0..6 {
        step(&mut twins, Round::new(r));
    }
    let round = Round::new(6);
    let t = &mut twins[0];
    let mut poisoned = BTreeMap::from([(t.tob.tally_fingerprint(), Arc::new(GaOutput::empty()))]);
    assert!(t.tob.share_tally(round, &mut poisoned));
    t.tob.step_send(round);
    t.lit.step_send(round);
    assert!(
        t.lit.last_tally().is_some_and(|l| l.m > 0),
        "its own votes are in the window by round 6"
    );
    assert_ne!(consumed(&t.tob).as_ref(), t.lit.last_tally());
    // The second copy misses and publishes, the third hits and consumes
    // the second's tally.
    let mut memo = BTreeMap::new();
    assert!(!twins[1].tob.share_tally(round, &mut memo));
    assert!(twins[2].tob.share_tally(round, &mut memo));
    twins[2].step(round);
}
