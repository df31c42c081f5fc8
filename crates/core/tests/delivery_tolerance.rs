//! Regression suite for the `Protocol::on_receive_shared` delivery
//! contract (DESIGN §2.5): a real transport re-sends on reconnect and
//! interleaves peers arbitrarily, so within a round boundary the protocol
//! must tolerate duplicated and reordered envelopes with **no effect on
//! the decided chain**. A clean lockstep run is the oracle; a run whose
//! per-round streams are shuffled and duplicated must decide identically.
//!
//! The second half pins lazy admission, where a body and the vote that
//! names it arrive in different rounds: a process's tree takes a body only
//! once a stored vote names it, and each test drives one process by hand,
//! checking every step's consumed tally against `reference_tally` and
//! against the stateless tally over an eager shadow tree.

#[path = "support/eager_shadow.rs"]
mod eager_shadow;

use eager_shadow::Shadowed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_blocktree::Block;
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, Params, ProcessId, Round, View};

const N: usize = 4;
const ETA: u64 = 2;
const HORIZON: u64 = 24;
const SEED: u64 = 7;

struct Outcome {
    decisions: Vec<Vec<DecisionEvent>>,
    tips: Vec<u64>,
}

/// Drives a lockstep run; `mangle` rewrites each round's full delivery
/// stream (the concatenation of every sender's envelopes) before it is
/// handed to the receivers.
fn run(mangle: impl Fn(Round, Vec<SharedEnvelope>) -> Vec<SharedEnvelope>) -> Outcome {
    let params = Params::builder(N).expiration(ETA).build().unwrap();
    let config = TobConfig::new(params, SEED);
    let mut procs: Vec<TobProcess> = (0..N)
        .map(|i| TobProcess::new(ProcessId::new(i as u32), config.clone()))
        .collect();
    let mut decisions: Vec<Vec<DecisionEvent>> = vec![Vec::new(); N];
    let mut tx = 0u64;
    for r in 0..=HORIZON {
        let round = Round::new(r);
        if r > 0 && r % 3 == 0 {
            tx += 1;
            for p in procs.iter_mut() {
                p.submit_tx(st_types::TxId::new(tx));
            }
        }
        let mut stream: Vec<SharedEnvelope> = Vec::new();
        for p in procs.iter_mut() {
            for env in p.step_send(round) {
                stream.push(SharedEnvelope::new(env));
            }
        }
        for (i, p) in procs.iter_mut().enumerate() {
            decisions[i].extend(p.drain_decisions());
        }
        let stream = mangle(round, stream);
        for env in &stream {
            for p in procs.iter_mut() {
                p.on_receive_shared(env);
            }
        }
    }
    let tips = procs.iter().map(|p| p.decided_tip().as_u64()).collect();
    Outcome { decisions, tips }
}

#[test]
fn shuffled_and_duplicated_streams_decide_the_same_chain() {
    let clean = run(|_, stream| stream);
    assert!(
        clean.decisions.iter().all(|d| !d.is_empty()),
        "oracle run must actually decide"
    );

    // Duplicate every envelope (every third one twice more — a reconnect
    // replaying a whole batch), then Fisher–Yates shuffle the round's
    // combined stream so senders interleave arbitrarily.
    let mangled = run(|round, stream| {
        let mut rng = StdRng::seed_from_u64(SEED ^ round.as_u64());
        let mut out = Vec::with_capacity(stream.len() * 3);
        for (i, env) in stream.into_iter().enumerate() {
            out.push(env.clone());
            out.push(env.clone());
            if i % 3 == 0 {
                out.push(env.clone());
                out.push(env);
            }
        }
        for i in (1..out.len()).rev() {
            let j = rng.random_range(0..=i);
            out.swap(i, j);
        }
        out
    });

    assert_eq!(clean.tips, mangled.tips, "decided tips diverged");
    for i in 0..N {
        assert_eq!(
            clean.decisions[i], mangled.decisions[i],
            "process {i}: decision log diverged under shuffle+duplication"
        );
    }
}

#[test]
fn reversed_streams_decide_the_same_chain() {
    // Worst-case stable reorder: every round's stream fully reversed, so
    // proposals and votes arrive in the opposite order they were sent.
    let clean = run(|_, stream| stream);
    let reversed = run(|_, mut stream| {
        stream.reverse();
        stream
    });
    assert_eq!(clean.tips, reversed.tips);
    for i in 0..N {
        assert_eq!(clean.decisions[i], reversed.decisions[i]);
    }
}

/// Process 0 of `N`, shadowed, plus the keys to speak for the others.
fn lazy_harness() -> (Shadowed, Vec<Keypair>) {
    let params = Params::builder(N).expiration(ETA).build().unwrap();
    let config = TobConfig::new(params, SEED);
    let keys = (0..N as u32)
        .map(|i| Keypair::derive(ProcessId::new(i), SEED))
        .collect();
    (
        Shadowed::new(TobProcess::new(ProcessId::new(0), config)),
        keys,
    )
}

fn proposal(key: &Keypair, round: u64, view: u64, block: &Block) -> Envelope {
    let (value, proof) = key.vrf_eval(view);
    let prop = Propose::new(
        key.owner(),
        Round::new(round),
        View::new(view),
        block.clone(),
        value,
        proof,
    );
    Envelope::sign(key, Payload::Propose(prop))
}

fn vote(key: &Keypair, round: u64, tip: BlockId) -> Envelope {
    let vote = Vote::new(key.owner(), Round::new(round), tip);
    Envelope::sign(key, Payload::Vote(vote))
}

/// A chain of `len` blocks by `producer` on top of `base`.
fn chain(base: BlockId, len: u64, producer: u32) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    for i in 0..len {
        let parent = out.last().map_or(base, Block::id);
        out.push(Block::build(
            parent,
            View::new(10 + i),
            ProcessId::new(producer),
            vec![st_types::TxId::new(100 * u64::from(producer) + i)],
        ));
    }
    out
}

#[test]
fn vote_ahead_of_its_body_admits_the_body_on_arrival() {
    let (mut h, keys) = lazy_harness();
    let b = &chain(BlockId::GENESIS, 1, 1)[0];
    h.step(Round::new(0));
    h.step(Round::new(1));
    // Round 1: three votes name a body nobody here has seen.
    for key in &keys[1..] {
        h.deliver(&vote(key, 1, b.id()));
    }
    h.step(Round::new(2));
    assert!(!h.p.tree().contains(b.id()));
    // Round 2: the body arrives and enters the tree at once.
    h.deliver(&proposal(&keys[1], 2, 2, b));
    assert!(h.p.tree().contains(b.id()), "a voted body must be admitted");
    h.step(Round::new(3));
    assert!(
        h.p.last_ga_output()
            .is_some_and(|out| out.grade_of(b.id()).is_some()),
        "the late body's votes count once it arrives"
    );
    h.step(Round::new(4));
    assert_eq!(h.checked, 4);
}

#[test]
fn unreferenced_body_waits_outside_the_tree_until_a_vote_names_it() {
    let (mut h, keys) = lazy_harness();
    let b = &chain(BlockId::GENESIS, 1, 2)[0];
    h.step(Round::new(0));
    h.deliver(&proposal(&keys[2], 0, 9, b));
    // Several rounds with the body known but unreferenced: outside the
    // tree, inside the tally key (`step` checks the key every round).
    for r in 1..=5 {
        h.step(Round::new(r));
        assert!(!h.p.tree().contains(b.id()), "round {r}: admitted early");
    }
    assert!(h.shadow.contains(b.id()));
    for key in &keys[1..] {
        h.deliver(&vote(key, 5, b.id()));
    }
    assert!(h.p.tree().contains(b.id()), "a stored vote admits the body");
    for r in 6..=8 {
        h.step(Round::new(r));
    }
    assert_eq!(h.checked, 8);
}

#[test]
fn orphan_chain_connecting_after_the_vote_enters_the_tree_whole() {
    let (mut h, keys) = lazy_harness();
    let c = chain(BlockId::GENESIS, 3, 3);
    h.step(Round::new(0));
    h.step(Round::new(1));
    // Round 1: the tip and its parent, without the chain's root.
    h.deliver(&proposal(&keys[3], 1, 12, &c[2]));
    h.deliver(&proposal(&keys[3], 1, 11, &c[1]));
    h.step(Round::new(2));
    // Round 2: votes for the orphan tip.
    for key in &keys[1..] {
        h.deliver(&vote(key, 2, c[2].id()));
    }
    h.step(Round::new(3));
    assert!(c.iter().all(|b| !h.p.tree().contains(b.id())));
    // Round 3: the root lands; the chain connects and, its tip being
    // named, enters the tree with every ancestor.
    h.deliver(&proposal(&keys[3], 3, 10, &c[0]));
    assert!(c.iter().all(|b| h.p.tree().contains(b.id())));
    h.step(Round::new(4));
    assert!(
        h.p.last_ga_output()
            .is_some_and(|out| out.grade_of(c[2].id()).is_some()),
        "the connected tip's votes count"
    );
    h.step(Round::new(5));
    assert_eq!(h.checked, 5);
}

#[test]
fn vote_from_a_round_not_yet_reached_counts_once_the_window_reaches_it() {
    // A round-2 vote delivered before the process steps round 1 lies
    // above round 1's window; it must still count from round 3 on.
    let (mut h, keys) = lazy_harness();
    h.step(Round::new(0));
    h.deliver(&vote(&keys[1], 2, BlockId::GENESIS));
    for r in 1..=4 {
        h.step(Round::new(r));
    }
    assert_eq!(h.checked, 4);
}
