//! Tier-1 guards on the two stateful shortcuts behind `step_send`, both
//! checked against the literal Algorithm 1
//! (`crates/core/tests/support/literal.rs`).
//!
//! * The shared tally: a cell's `Simulation` runs with a recorder on, and
//!   the literal replays what each process submitted, stepped and
//!   received (`crates/sim/tests/support/replay.rs`). Every tally a
//!   process consumed (usually adopted from the round's shared memo) must
//!   equal the literal's, and so must its decided tip, its admitted bodies
//!   and, for an honest process, its sends (byte for byte) and decisions.
//!   The golden grid and the 400-case property test live in
//!   `crates/sim/tests/determinism_equivalence.rs`.
//! * The transaction pool: a proposal on a parent off the proposer's
//!   decided chain must carry what the literal's from-genesis payload rule
//!   says, checked on one process beside the literal (a `Twin`) with
//!   transactions submitted out of id order, which no simulated workload
//!   does. Simulated forks are replayed by `crates/sim/tests/chaos_replay.rs`,
//!   re-submission by `crates/core/tests/payload_oracle.rs`.
//!
//! These cells keep the facade-only test command tripping when either
//! shortcut does.

#[path = "../crates/sim/tests/support/replay.rs"]
mod replay;

use replay::literal::Twin;
use sleepy_tob::crypto::Keypair;
use sleepy_tob::messages::SharedEnvelope;
use sleepy_tob::prelude::*;

/// `config`'s run under `adversary`, replayed by the literal.
fn run_replayed(
    config: SimConfig,
    adversary: impl Adversary + 'static,
    label: &str,
) -> replay::Replayed {
    let builder = SimBuilder::from_config(config)
        .workload_spec(WorkloadSpec::txs_every(4))
        .adversary(adversary);
    replay::replay(builder, label)
}

/// Full participation: every (process, round ≥ 1) tally is compared, and
/// nearly all were adopted from the memo (one computed tally per round,
/// `n − 1` hits), so the clean verdict is about shared tallies.
#[test]
fn full_participation_shares_tallies_without_a_mismatch() {
    let (n, horizon) = (8, 24);
    let params = Params::builder(n).expiration(2).build().unwrap();
    let config = SimConfig::new(params, 1).horizon(horizon);
    let replayed = run_replayed(config, SilentAdversary, "full participation");
    assert_eq!(replayed.compared, n * horizon as usize);
    assert_eq!(replayed.deviations, 0);
    let rate = replayed.report.timeline.tally_cache_hit_rate();
    assert!(rate > 0.8, "hit rate {rate} under full participation");
}

/// PR 14's counterexample (DESIGN.md §2.4): after a blackout every
/// process has received the same stream but holds its own votes from the
/// window, so a memo keyed by the received stream serves stale tallies in
/// round 9. Keyed by content, it serves none.
#[test]
fn blackout_counterexample_serves_no_stale_tally() {
    let (n, horizon) = (13, 20);
    let params = Params::builder(n).expiration(0).build().unwrap();
    let config = SimConfig::new(params, 1)
        .horizon(horizon)
        .timeline(Timeline::synchronous().asynchronous(Round::new(6), 3));
    run_replayed(config, BlackoutAdversary, "blackout");
}

/// A proposal on a parent off the proposer's decided chain, on one
/// process beside the literal (every step compares the sends byte for
/// byte). Process 0 of four, at `η = 0`, runs alone until `a` is decided.
/// A fork holding `y` on the parent of `a`'s block arrives as p3's signed
/// proposal, sixteen transactions are submitted in descending id order,
/// and in the next first round of a view forged votes for the fork
/// outnumber p0's own. Its next proposal extends the fork, so it must
/// carry `a` again, not `y`, and then the sixteen in submission order,
/// which the pool's id-sorted index gives only if it sorts.
#[test]
fn forked_proposal_matches_the_reference_payload() {
    let seed = 7;
    let params = Params::builder(4).expiration(0).build().unwrap();
    let mut p0 = Twin::new(ProcessId::new(0), &TobConfig::new(params, seed));
    let key = |j| Keypair::derive(ProcessId::new(j), seed);
    let signed = |j, payload| SharedEnvelope::new(Envelope::sign(&key(j), payload));
    let [a, y] = [TxId::new(1), TxId::new(2)];
    let solo: Vec<TxId> = (3..19).rev().map(TxId::new).collect();
    let on_chain = |p: &TobProcess| p.tree().log_transactions(p.decided_tip()).contains(&a);
    p0.tob.submit_tx(a);
    p0.lit.submit_tx(a);
    let mut r = 0;
    while !on_chain(&p0.tob) {
        p0.step(Round::new(r));
        r += 1;
        assert!(r < 20, "a was never decided");
    }
    let tree = p0.tob.tree();
    let carrier = (tree.chain(p0.tob.decided_tip()))
        .find(|&b| tree.block(b).is_some_and(|b| b.payload().contains(&a)));
    let parent = tree.parent(carrier.unwrap()).unwrap();
    let view = View::new(1_000);
    let fork = Block::build(parent, view, ProcessId::new(3), vec![y]);
    let (rho, proof) = key(3).vrf_eval(view.as_u64());
    let at = Round::new(1_999);
    let propose = Propose::new(ProcessId::new(3), at, view, fork.clone(), rho, proof);
    p0.deliver(&signed(3, Payload::Propose(propose)));
    for tx in std::iter::once(y).chain(solo.iter().copied()) {
        p0.tob.submit_tx(tx);
        p0.lit.submit_tx(tx);
    }
    while !matches!(RoundKind::of(Round::new(r)), RoundKind::ViewFirst(_)) {
        p0.step(Round::new(r));
        r += 1;
    }
    p0.step(Round::new(r));
    for j in 1..4 {
        let vote = Vote::new(ProcessId::new(j), Round::new(r), fork.id());
        p0.deliver(&signed(j, Payload::Vote(vote)));
    }
    let mut off_decided = Vec::new();
    for r in r + 1..r + 8 {
        for env in p0.step(Round::new(r)) {
            let tob = &p0.tob;
            if let Payload::Propose(p) = env.payload() {
                let parent = p.block().parent();
                if !tob.tree().is_ancestor(tob.decided_tip(), parent) {
                    off_decided.push(p.block().payload().to_vec());
                }
            }
        }
    }
    let expected: Vec<TxId> = std::iter::once(a).chain(solo).collect();
    assert_eq!(off_decided.first(), Some(&expected));
}
