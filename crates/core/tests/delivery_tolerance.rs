//! Regression suite for the `Protocol::on_receive_shared` delivery
//! contract (DESIGN §2.5): a real transport re-sends on reconnect and
//! interleaves peers arbitrarily, so within a round boundary the protocol
//! must tolerate duplicated and reordered envelopes with **no effect on
//! the decided chain**. A clean lockstep run is the oracle; a run whose
//! per-round streams are shuffled and duplicated must decide identically.
//!
//! The second half pins the two edges of body pruning that outlive the
//! vote store's window: a process drops an unreferenced body once the
//! pruning edge passes its view, so a later vote naming it counts toward
//! `m` and supports nothing, and a body admitted for good must key its
//! tally apart from one that was dropped. Each test drives process 0 by
//! hand beside the literal Algorithm 1 (`support/literal.rs`), which
//! checks every step's envelopes, consumed tally and admitted bodies.
//! Random interleavings of the same kind are `proptest_lazy_tree.rs`.

#[path = "support/literal.rs"]
mod literal;

use literal::{consumed, Twin};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_blocktree::Block;
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, Params, ProcessId, Round, View};
use std::collections::BTreeMap;

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

/// Process 0 of `N` beside the literal, plus the keys to speak for the
/// others.
fn harness() -> (Twin, Vec<Keypair>) {
    let params = Params::builder(N).expiration(ETA).build().unwrap();
    let config = TobConfig::new(params, SEED);
    let keys = (0..N as u32)
        .map(|i| Keypair::derive(ProcessId::new(i), SEED))
        .collect();
    (Twin::new(ProcessId::new(0), &config), keys)
}

fn deliver(h: &mut Twin, env: Envelope) {
    h.deliver(&SharedEnvelope::new(env));
}

/// Steps `h` through `rounds`.
fn steps(h: &mut Twin, rounds: std::ops::RangeInclusive<u64>) {
    for r in rounds {
        h.step(Round::new(r));
    }
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

// With η = 2 the vote store keeps rounds from r − 8 on after stepping
// round r, so a view-v body expires in the step of round 2v + 8, when
// 2v − 1 falls below the edge.

#[test]
fn vote_for_a_dropped_body_counts_toward_m_and_supports_nothing() {
    let (mut h, keys) = harness();
    let x = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(1), vec![]);
    steps(&mut h, 0..=3);
    deliver(&mut h, proposal(&keys[1], 3, 1, &x));
    steps(&mut h, 4..=12);
    assert!(!h.lit.bodies.connected(x.id()), "X expired at round 12");
    for key in &keys[1..] {
        deliver(&mut h, vote(key, 12, x.id()));
    }
    assert!(!h.tob.tree().contains(x.id()));
    h.step(Round::new(13));
    let out = h.tob.last_ga_output().expect("round 13 tallies");
    assert_eq!(out.participation(), N, "the three votes count toward m");
    assert_eq!(out.grade_of(x.id()), None, "and support nothing");
    assert!(
        h.lit.deviations() > 0,
        "the retention rule changed the tally"
    );
    // Re-delivered, the body connects and its name admits it.
    deliver(&mut h, proposal(&keys[1], 13, 1, &x));
    assert!(h.tob.tree().contains(x.id()));
    h.step(Round::new(14));
    assert!(
        h.tob
            .last_ga_output()
            .is_some_and(|out| out.grade_of(x.id()).is_some()),
        "the re-delivered body's votes count"
    );
}

#[test]
fn an_admitted_and_a_pruned_body_key_and_tally_apart() {
    // A and B are the same process fed the same envelopes, except that A
    // also gets a round-1 vote for X after every tally that could read
    // it. A admits X for good; B drops it when its view expires. Once the
    // vote is pruned their vote stores agree, and only X tells their
    // states apart.
    let (mut a, keys) = harness();
    let (mut b, _) = harness();
    let x = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(1), vec![]);
    for h in [&mut a, &mut b] {
        steps(h, 0..=4);
        deliver(h, proposal(&keys[1], 4, 1, &x));
    }
    deliver(&mut a, vote(&keys[1], 1, x.id()));
    assert!(a.tob.tree().contains(x.id()));
    for h in [&mut a, &mut b] {
        steps(h, 5..=12);
    }
    assert_eq!(a.tob.votes().fingerprint(), b.tob.votes().fingerprint());
    assert!(!b.lit.bodies.connected(x.id()));
    assert_ne!(
        a.tob.tally_fingerprint(),
        b.tob.tally_fingerprint(),
        "an admitted body and a pruned one must not share a key"
    );
    // A later vote for X tallies differently at the two, so a memo they
    // share must not serve A's tally to B.
    let round = Round::new(13);
    let mut memo = BTreeMap::new();
    for h in [&mut a, &mut b] {
        for key in &keys[1..] {
            deliver(h, vote(key, 12, x.id()));
        }
        assert!(!h.tob.share_tally(round, &mut memo));
        h.step(round);
    }
    assert_ne!(consumed(&a.tob), consumed(&b.tob));
}
