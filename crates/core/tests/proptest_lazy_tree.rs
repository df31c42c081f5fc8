//! Lazy admission against an eager tree, under random delivery.
//!
//! A `TobProcess` admits a proposal body to its tree only once a stored
//! vote names it (or a descendant is admitted); everything else it
//! receives waits outside. This property test feeds one process random
//! interleavings of proposals and votes — duplicates, reorders, orphan
//! chains, votes ahead of their bodies, votes for blocks that never
//! arrive — while an eager shadow (`BlockTree` + `BlockBuffer`) takes
//! every body at once, and checks each round that
//!
//! * `tally_fingerprint()` equals `mix64_pair(votes.fingerprint(),
//!   shadow.fingerprint())`: the tally key digests every connected body,
//!   admitted or not;
//! * the tally `step_send` consumes equals `reference_tally` and the
//!   stateless tally of the same vote window over the shadow;
//! * every connected body a stored vote names is in the process's tree.

#[path = "support/eager_shadow.rs"]
mod eager_shadow;

use eager_shadow::Shadowed;
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
/// round trails it.
fn deliveries(
    keys: &[Keypair],
    rounds: u64,
    parents: &[u64],
    arrivals: &[u64],
    votes: &[u64],
) -> Vec<Delivery> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut out: Vec<Delivery> = Vec::new();
    for (i, &word) in parents.iter().enumerate() {
        let pick = (word % (i as u64 + 1)) as usize;
        let parent = if pick == 0 {
            BlockId::GENESIS
        } else {
            blocks[pick - 1].id()
        };
        let key = &keys[1 + (word >> 8) as usize % (N - 1)];
        let view = 1 + (word >> 16) % (rounds / 2 + 1);
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
        let tip = match pick as usize {
            0 => BlockId::GENESIS,
            k if k <= blocks.len() => blocks[k - 1].id(),
            _ => BlockId::new(word | 1),
        };
        let at = (word >> 12) % (rounds + 1);
        let round = at.saturating_sub((word >> 20) % 4).max(1);
        let env = Envelope::sign(
            key,
            Payload::Vote(Vote::new(key.owner(), Round::new(round), tip)),
        );
        out.push((at, word >> 32, env));
    }
    out.sort_by_key(|&(round, order, _)| (round, order));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_tree_tallies_like_an_eager_one(
        eta in 0u64..4,
        rounds in 4u64..14,
        parents in prop::collection::vec(any::<u64>(), 1..16),
        arrivals in prop::collection::vec(any::<u64>(), 1..16),
        votes in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let params = Params::builder(N).expiration(eta).build().expect("valid");
        let config = TobConfig::new(params, SEED);
        let keys: Vec<Keypair> = (0..N as u32)
            .map(|i| Keypair::derive(ProcessId::new(i), SEED))
            .collect();
        let mut h = Shadowed::new(TobProcess::new(ProcessId::new(0), config));
        let plan = deliveries(&keys, rounds, &parents, &arrivals, &votes);
        let mut next = 0;
        for r in 0..=rounds {
            h.step(Round::new(r));
            while next < plan.len() && plan[next].0 == r {
                h.deliver(&plan[next].2);
                next += 1;
            }
            let window = h.p.votes().latest_in_window(Round::ZERO, Round::new(r));
            for (sender, round, tip) in window.iter() {
                prop_assert!(
                    !h.shadow.contains(tip) || h.p.tree().contains(tip),
                    "round {r}: {sender:?}'s round-{round:?} vote names a connected body outside the tree"
                );
            }
        }
        h.step(Round::new(rounds + 1));
        prop_assert_eq!(h.checked as u64, rounds + 1);
    }
}
