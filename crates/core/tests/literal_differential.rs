//! `TobProcess` against the literal Algorithm 1 (`support/literal.rs`),
//! whole machine against whole machine.
//!
//! `n` pairs of pure machines run side by side, each `TobProcess` sharing
//! its tally through one round-scoped memo as st-sim's runner does, and
//! every pair is fed the same envelopes in the same order. Every round
//! each pair must send byte-equal envelopes, consume an equal tally
//! (graded set and `m`) and drain equal decisions. The inputs are:
//!
//! * sleep schedules that satisfy Eq. 1 (at most `γ = 1/4` of the
//!   processes awake in `[r − η, r − 1]` are asleep at `r`);
//! * an asynchronous window of `π` rounds in which every receiver gets an
//!   arbitrary subset of what is pending, everything else arriving in a
//!   shuffled order once it ends, so votes come ahead of their bodies and
//!   children ahead of their parents;
//! * up to `β·n` equivocators, which vote for two different known blocks
//!   every round, each to a random half and tagged up to two rounds
//!   ahead, and now and then propose a fork.
//!
//! In the model (`π < η`, no Byzantine sender) the literal's one
//! deviation, body retention, must never change what it reads.

#[path = "support/literal.rs"]
mod literal;

use literal::{consumed, lockstep, Twin};
use proptest::prelude::*;
use st_blocktree::Block;
use st_core::TobConfig;
use st_crypto::Keypair;
use st_ga::GaOutput;
use st_messages::wire::encode_envelope;
use st_messages::{Envelope, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, Params, ProcessId, Round, TxId, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// splitmix64: the case's one source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

struct Case {
    n: usize,
    eta: u64,
    rounds: u64,
    /// Equivocators: the last `byz` ids.
    byz: usize,
    /// The asynchronous window `[from, from + pi)`; `pi = 0` for none.
    from: u64,
    pi: u64,
    seed: u64,
}

impl Case {
    fn in_model(&self) -> bool {
        self.byz == 0 && self.pi < self.eta.max(1)
    }
}

/// Honest awake sets, one per round: random sleep, then as many sleepers
/// woken (lowest id first) as Eq. 1 requires, and never nobody.
fn schedule(case: &Case, honest: usize, rng: &mut Rng) -> Vec<Vec<bool>> {
    let mut awake: Vec<Vec<bool>> = Vec::new();
    for r in 0..=case.rounds {
        let mut now: Vec<bool> = (0..honest).map(|_| rng.below(4) != 0).collect();
        let lo = r.saturating_sub(case.eta) as usize;
        let recent: Vec<usize> = (0..honest)
            .filter(|&i| awake[lo..r as usize].iter().any(|a| a[i]))
            .collect();
        let budget = recent.len() / 4;
        for &i in &recent {
            if recent.iter().filter(|&&j| !now[j]).count() <= budget {
                break;
            }
            now[i] = true;
        }
        if !now.contains(&true) {
            now[0] = true;
        }
        awake.push(now);
    }
    awake
}

/// What the equivocators send in `round`.
fn equivocate(
    keys: &[Keypair],
    round: Round,
    known: &[BlockId],
    n: usize,
    rng: &mut Rng,
) -> Vec<(Envelope, Vec<bool>)> {
    let mut out = Vec::new();
    let half: Vec<bool> = (0..n).map(|_| rng.below(2) == 0).collect();
    let other: Vec<bool> = half.iter().map(|&b| !b).collect();
    for key in keys {
        let pick = |rng: &mut Rng| known[rng.below(known.len() as u64) as usize];
        let (a, b) = (pick(rng), pick(rng));
        // Tagged up to two rounds ahead: votes from rounds a receiver
        // has not reached yet.
        let ahead = Round::new(round.as_u64() + rng.below(3));
        for (tip, to) in [(a, &half), (b, &other)] {
            let vote = Vote::new(key.owner(), ahead, tip);
            out.push((Envelope::sign(key, Payload::Vote(vote)), to.clone()));
        }
        if rng.below(4) == 0 {
            let view = View::new(round.as_u64() / 2 + 1);
            let fork = Block::build(pick(rng), view, key.owner(), vec![TxId::new(rng.below(16))]);
            let (value, proof) = key.vrf_eval(view.as_u64());
            let prop = Propose::new(key.owner(), round, view, fork, value, proof);
            out.push((Envelope::sign(key, Payload::Propose(prop)), half.clone()));
        }
    }
    out
}

/// Runs one case; returns the number of decisions compared.
fn run(case: &Case) -> usize {
    let params = Params::builder(case.n)
        .expiration(case.eta)
        .build()
        .expect("valid params");
    let config = TobConfig::new(params, case.seed);
    let honest = case.n - case.byz;
    let mut rng = Rng(case.seed);
    let awake = schedule(case, honest, &mut rng);
    let mut twins: Vec<Twin> = (0..honest as u32)
        .map(|i| Twin::new(ProcessId::new(i), &config))
        .collect();
    let byz_keys: Vec<Keypair> = (honest..case.n)
        .map(|i| Keypair::derive(ProcessId::new(i as u32), case.seed))
        .collect();
    let mut known = vec![BlockId::GENESIS, BlockId::new(0xDEAD)];
    // Every message sent, with the receivers it is still pending for.
    let mut pool: Vec<(SharedEnvelope, Vec<bool>)> = Vec::new();
    for r in 0..=case.rounds {
        let round = Round::new(r);
        let tx = rng.below(32);
        twins[tx as usize % honest].submit(TxId::new(tx % 16));

        // Send phase: the runner's order, memo first.
        let up: Vec<usize> = (0..honest).filter(|&i| awake[r as usize][i]).collect();
        let mut memo = BTreeMap::new();
        for &i in &up {
            twins[i].tob.share_tally(round, &mut memo);
        }
        let mut sent: Vec<(Envelope, Vec<bool>)> = Vec::new();
        for &i in &up {
            let all = vec![true; honest];
            sent.extend(twins[i].step(round).into_iter().map(|e| (e, all.clone())));
        }
        if r > 0 {
            sent.extend(equivocate(&byz_keys, round, &known, honest, &mut rng));
        }
        for (env, to) in sent {
            if let Payload::Propose(p) = env.payload() {
                known.push(p.tip());
            }
            pool.push((SharedEnvelope::new(env), to));
        }

        // Receive phase: an awake receiver gets everything pending, or an
        // arbitrary subset of it inside the window, in a shuffled order.
        let asynchronous = (case.from..case.from + case.pi).contains(&r);
        for j in (0..honest).filter(|&j| awake[r as usize][j]) {
            let mut batch: Vec<usize> = (0..pool.len())
                .filter(|&k| pool[k].1[j])
                .filter(|_| !asynchronous || rng.below(3) == 0)
                .collect();
            for k in (1..batch.len()).rev() {
                batch.swap(k, rng.below(k as u64 + 1) as usize);
            }
            for k in batch {
                pool[k].1[j] = false;
                twins[j].deliver(&pool[k].0);
            }
        }
    }
    if case.in_model() {
        for t in &twins {
            assert_eq!(
                t.lit.deviations(),
                0,
                "{:?}: retention changed a read",
                t.tob.id()
            );
        }
    }
    twins.iter().map(|t| t.decided).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tob_process_matches_the_literal_algorithm(
        n in 4usize..8,
        eta in 0u64..5,
        rounds in 12u64..36,
        byz in 0usize..3,
        from in 4u64..16,
        pi in 0u64..6,
        seed in any::<u64>(),
    ) {
        let case = Case { n, eta, rounds, byz: byz.min(n / 3), from, pi, seed };
        run(&case);
    }
}

/// The comparison is not vacuous: a synchronous case decides in most
/// views, and one with a long window and equivocators still decides.
#[test]
fn the_differential_compares_decisions() {
    let sync = Case {
        n: 5,
        eta: 2,
        rounds: 30,
        byz: 0,
        from: 0,
        pi: 0,
        seed: 3,
    };
    assert!(run(&sync) > 5 * 10, "too few decisions under synchrony");
    let hostile = Case {
        n: 7,
        eta: 1,
        rounds: 30,
        byz: 2,
        from: 6,
        pi: 4,
        seed: 4,
    };
    assert!(run(&hostile) > 0);
}

fn lockstep_twins(eta: u64, rounds: u64, seed: u64) -> Vec<Twin> {
    let config = TobConfig::new(Params::builder(4).expiration(eta).build().unwrap(), seed);
    let mut twins: Vec<Twin> = (0..4)
        .map(|i| Twin::new(ProcessId::new(i), &config))
        .collect();
    for r in 0..=rounds {
        lockstep(&mut twins, Round::new(r));
    }
    twins
}

/// The comparison can fail: a memo holding a tally the process would not
/// have computed is caught, and an honest memo is not.
#[test]
fn a_wrong_shared_tally_is_caught() {
    let mut twins = lockstep_twins(2, 5, 17);
    let round = Round::new(6);
    let t = &mut twins[0];
    let mut poisoned = BTreeMap::from([(t.tob.tally_fingerprint(), Arc::new(GaOutput::empty()))]);
    assert!(t.tob.share_tally(round, &mut poisoned));
    t.tob.step_send(round);
    t.lit.step_send(round);
    assert!(
        t.lit.last_tally().is_some_and(|l| l.m > 0),
        "votes are in flight by round 6"
    );
    assert_ne!(consumed(&t.tob).as_ref(), t.lit.last_tally());
    // p1 misses and publishes, p2 hits and consumes p1's tally.
    let mut memo = BTreeMap::new();
    assert!(!twins[1].tob.share_tally(round, &mut memo));
    assert!(twins[2].tob.share_tally(round, &mut memo));
    twins[2].step(round);
}

/// Facts of Algorithm 1 worked out by hand for 4 processes under
/// synchrony, which the comparison carries over to `TobProcess`: view 0
/// only proposes `[b₀]` for view 1; in every odd round all vote for one
/// block, and in the next even round `2v` all vote for it again and
/// propose for view `v + 1` on it; nobody decides before round 3; and `η`
/// changes no byte of the trace.
#[test]
fn synchronous_views_match_a_hand_run() {
    let mut traces = Vec::new();
    for eta in [0, 6] {
        let config = TobConfig::new(Params::builder(4).expiration(eta).build().unwrap(), 7);
        let mut twins: Vec<Twin> = (0..4)
            .map(|i| Twin::new(ProcessId::new(i), &config))
            .collect();
        let (mut elected, mut trace) = (BlockId::GENESIS, Vec::new());
        for r in 0..=10u64 {
            let sent = lockstep(&mut twins, Round::new(r));
            let (mut votes, mut proposals) = (Vec::new(), Vec::new());
            for env in &sent {
                trace.push(encode_envelope(env));
                match env.payload() {
                    Payload::Vote(v) => votes.push(v.tip()),
                    Payload::Propose(p) => proposals.push((p.view().as_u64(), p.block().parent())),
                }
            }
            if r % 2 == 1 {
                elected = votes[0];
                assert_eq!((votes, proposals.len()), (vec![elected; 4], 0), "round {r}");
            } else if r > 0 {
                assert_eq!(votes, vec![elected; 4], "round {r}");
                assert_eq!(proposals, vec![(r / 2 + 1, elected); 4], "round {r}");
            } else {
                assert_eq!(
                    (votes.len(), proposals),
                    (0, vec![(1, BlockId::GENESIS); 4])
                );
            }
            let decided: usize = twins.iter().map(|t| t.decided).sum();
            assert_eq!(decided > 0, r >= 3, "round {r}");
        }
        traces.push(trace);
    }
    assert!(traces[0] == traces[1], "η changed a synchronous trace");
}
