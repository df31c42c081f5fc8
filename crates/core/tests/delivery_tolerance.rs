//! Regression suite for the `Protocol::on_receive_shared` delivery
//! contract (DESIGN §2.5): a real transport re-sends on reconnect and
//! interleaves peers arbitrarily, so within a round boundary the protocol
//! must tolerate duplicated and reordered envelopes with **no effect on
//! the decided chain**. A clean lockstep run is the oracle; a run whose
//! per-round streams are shuffled and duplicated must decide identically.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_messages::SharedEnvelope;
use st_types::{Params, ProcessId, Round};

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
