//! Tier-1 guards on the two stateful shortcuts behind `step_send`.
//!
//! * The shared tally: `TallyOracle` compares, per process and round, the
//!   tally `step_send` consumed (usually adopted from the round's shared
//!   memo) with the stateless window tally over that process's own state.
//!   The full grid and the 400-case property test live in
//!   `crates/sim/tests/determinism_equivalence.rs`.
//! * The transaction pool: every proposal's payload is compared with the
//!   stateless rule (submitted, in order, minus the log being extended).
//!   The other cases and a property test live in
//!   `crates/core/tests/payload_oracle.rs`.
//!
//! These cells keep the facade-only test command tripping when either
//! oracle does.

#[path = "../crates/core/tests/support/oracle_net.rs"]
mod oracle_net;

use sleepy_tob::prelude::*;
use sleepy_tob::sim::{TallyCheck, TallyOracle};

fn run_with_oracle(sim: SimBuilder) -> (SimReport, TallyCheck) {
    let (oracle, log) = TallyOracle::new();
    let report = sim.observer(oracle).run();
    let check = log.borrow().clone();
    (report, check)
}

/// Full participation: every (process, round ≥ 1) step is checked, none
/// diverges, and nearly all were adopted from the memo (one computed
/// tally per round, `n − 1` hits), so the clean verdict is about shared
/// tallies.
#[test]
fn full_participation_shares_tallies_without_a_mismatch() {
    let (n, horizon) = (8, 24);
    let params = Params::builder(n).expiration(2).build().unwrap();
    let config = SimConfig::new(params, 1).horizon(horizon);
    let (report, check) =
        run_with_oracle(SimBuilder::from_config(config).workload_spec(WorkloadSpec::txs_every(4)));
    assert_eq!(check.checked, n * horizon as usize);
    assert!(check.mismatches.is_empty(), "{:?}", check.mismatches);
    let rate = report.timeline.tally_cache_hit_rate();
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
    let (_, check) = run_with_oracle(SimBuilder::from_config(config).adversary(BlackoutAdversary));
    assert!(check.checked > 0, "the oracle checked nothing");
    assert!(check.mismatches.is_empty(), "{:?}", check.mismatches);
}

/// A proposal whose parent conflicts with the proposer's decided tip: the
/// pool's from-genesis arm re-proposes the decided-elsewhere transaction
/// and leaves out the one on the forked branch.
#[test]
fn forked_proposal_matches_the_reference_payload() {
    let (net, [a, _], solo) = oracle_net::forked_lockstep(7);
    let procs: &[TobProcess] = &net.procs;
    assert!(procs.iter().all(|p| p.decided_tip() != BlockId::GENESIS));
    assert!(net.checked > 0);
    let expected: Vec<TxId> = std::iter::once(a).chain(solo).collect();
    assert_eq!(net.off_decided.first(), Some(&expected));
}
