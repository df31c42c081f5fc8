//! Regression suite for the `Protocol::on_receive_shared` delivery
//! contract (DESIGN §2.5): a real transport re-sends on reconnect and
//! interleaves peers arbitrarily, so within a round boundary the protocol
//! must tolerate duplicated and reordered envelopes with **no effect on
//! the decided chain**. A clean lockstep run is the oracle; a run whose
//! per-round streams are shuffled and duplicated must decide identically.
//!
//! The second half pins lazy admission, where a body and the vote that
//! names it arrive in different rounds: a process's tree takes a body only
//! once a stored vote names it, and drops an unreferenced one once the
//! vote store's pruning edge passes its view. Each test drives one process
//! by hand, checking every step's tally key and consumed tally against the
//! retention rule restated over plain sets (`Retained`), and the tally
//! against `reference_tally`. The first three drop nothing a vote names,
//! so they also run against the eager tree, which drops nothing at all.

#[path = "support/eager_shadow.rs"]
mod eager_shadow;

use eager_shadow::{Mode, Shadowed};
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

/// Process 0 of `N`, shadowed in `mode`, plus the keys to speak for the
/// others.
fn harness(mode: Mode) -> (Shadowed, Vec<Keypair>) {
    let params = Params::builder(N).expiration(ETA).build().unwrap();
    let config = TobConfig::new(params, SEED);
    let keys = (0..N as u32)
        .map(|i| Keypair::derive(ProcessId::new(i), SEED))
        .collect();
    (
        Shadowed::new(TobProcess::new(ProcessId::new(0), config), mode),
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
    for mode in [Mode::Pruned, Mode::Eager] {
        let (mut h, keys) = harness(mode);
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
}

#[test]
fn unreferenced_body_waits_outside_the_tree_until_a_vote_names_it() {
    for mode in [Mode::Pruned, Mode::Eager] {
        let (mut h, keys) = harness(mode);
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
}

#[test]
fn orphan_chain_connecting_after_the_vote_enters_the_tree_whole() {
    for mode in [Mode::Pruned, Mode::Eager] {
        let (mut h, keys) = harness(mode);
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
}

#[test]
fn vote_from_a_round_not_yet_reached_counts_once_the_window_reaches_it() {
    // A round-2 vote delivered before the process steps round 1 lies
    // above round 1's window; it must still count from round 3 on.
    let (mut h, keys) = harness(Mode::Pruned);
    h.step(Round::new(0));
    h.deliver(&vote(&keys[1], 2, BlockId::GENESIS));
    for r in 1..=4 {
        h.step(Round::new(r));
    }
    assert_eq!(h.checked, 4);
}

// With η = 2 the vote store keeps rounds from r − 8 on after stepping
// round r, so a view-v body expires in the step of round 2v + 8, when
// 2v − 1 falls below the edge.

#[test]
fn expired_body_with_a_loose_child_stays_until_a_vote_admits_both() {
    // X (view 2) is old and unreferenced; Y (view 8) is its child. Both
    // ride stale proposals (proposal view 1), so p0 never votes for them.
    let (mut h, keys) = harness(Mode::Pruned);
    let x = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(1), vec![]);
    let y = Block::build(x.id(), View::new(8), ProcessId::new(2), vec![]);
    for r in 0..=3 {
        h.step(Round::new(r));
    }
    h.deliver(&proposal(&keys[1], 3, 1, &x));
    for r in 4..=9 {
        h.step(Round::new(r));
    }
    h.deliver(&proposal(&keys[2], 9, 1, &y));
    // The edge passes X's view at round 12; its loose child keeps it.
    for r in 10..=14 {
        h.step(Round::new(r));
    }
    assert!(h.retained.connected(y.id()));
    assert!(!h.p.tree().contains(x.id()));
    for key in &keys[1..] {
        h.deliver(&vote(key, 14, y.id()));
    }
    assert!(h.p.tree().contains(x.id()) && h.p.tree().contains(y.id()));
    h.step(Round::new(15));
    assert!(
        h.p.last_ga_output()
            .is_some_and(|out| out.grade_of(y.id()).is_some()),
        "the votes for Y count"
    );
    h.step(Round::new(16));
    assert_eq!(h.checked, 16);
}

#[test]
fn vote_for_a_dropped_body_counts_toward_m_and_supports_nothing() {
    let (mut h, keys) = harness(Mode::Pruned);
    let x = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(1), vec![]);
    for r in 0..=3 {
        h.step(Round::new(r));
    }
    h.deliver(&proposal(&keys[1], 3, 1, &x));
    for r in 4..=12 {
        h.step(Round::new(r));
    }
    assert!(!h.retained.connected(x.id()), "X expired at round 12");
    for key in &keys[1..] {
        h.deliver(&vote(key, 12, x.id()));
    }
    assert!(!h.p.tree().contains(x.id()));
    h.step(Round::new(13));
    let out = h.p.last_ga_output().expect("round 13 tallies");
    assert_eq!(out.participation(), N, "the three votes count toward m");
    assert_eq!(out.grade_of(x.id()), None, "and support nothing");
    // Re-delivered, the body connects and its name admits it.
    h.deliver(&proposal(&keys[1], 13, 1, &x));
    assert!(h.p.tree().contains(x.id()));
    h.step(Round::new(14));
    assert!(
        h.p.last_ga_output()
            .is_some_and(|out| out.grade_of(x.id()).is_some()),
        "the re-delivered body's votes count"
    );
    assert_eq!(h.checked, 14);
}

#[test]
fn an_admitted_and_a_pruned_body_key_and_tally_apart() {
    // A and B are the same process fed the same envelopes, except that A
    // also gets a round-1 vote for X after every tally that could read
    // it. A admits X for good; B drops it when its view expires. Once the
    // vote is pruned their vote stores agree, and only X tells their
    // states apart.
    let (mut a, keys) = harness(Mode::Pruned);
    let (mut b, _) = harness(Mode::Pruned);
    let x = Block::build(BlockId::GENESIS, View::new(2), ProcessId::new(1), vec![]);
    for r in 0..=4 {
        a.step(Round::new(r));
        b.step(Round::new(r));
    }
    for h in [&mut a, &mut b] {
        h.deliver(&proposal(&keys[1], 4, 1, &x));
    }
    a.deliver(&vote(&keys[1], 1, x.id()));
    assert!(a.p.tree().contains(x.id()));
    for r in 5..=12 {
        a.step(Round::new(r));
        b.step(Round::new(r));
    }
    assert_eq!(a.p.votes().fingerprint(), b.p.votes().fingerprint());
    assert!(!b.retained.connected(x.id()));
    assert_ne!(
        a.p.tally_fingerprint(),
        b.p.tally_fingerprint(),
        "an admitted body and a pruned one must not share a key"
    );
    for h in [&mut a, &mut b] {
        for key in &keys[1..] {
            h.deliver(&vote(key, 12, x.id()));
        }
    }
    assert_ne!(
        a.p.reference_tally(Round::new(13)),
        b.p.reference_tally(Round::new(13)),
        "a later vote for X tallies differently at the two"
    );
    a.step(Round::new(13));
    b.step(Round::new(13));
}
