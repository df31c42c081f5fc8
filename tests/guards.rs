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
//! * The transaction pool: a proposal on a forked parent must carry what
//!   the literal's from-genesis payload rule says. The other cases live in
//!   `crates/core/tests/payload_oracle.rs` and `literal_differential.rs`.
//!
//! These cells keep the facade-only test command tripping when either
//! shortcut does.

#[path = "../crates/sim/tests/support/replay.rs"]
mod replay;

use replay::literal::forked_lockstep;
use sleepy_tob::prelude::*;

/// `config`'s run under `adversary`, replayed by the literal.
fn run_replayed(
    config: SimConfig,
    adversary: impl Adversary + 'static,
    label: &str,
) -> (SimReport, usize) {
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
    let (report, checked) = run_replayed(config, SilentAdversary, "full participation");
    assert_eq!(checked, n * horizon as usize);
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
    run_replayed(config, BlackoutAdversary, "blackout");
}

/// A proposal whose parent conflicts with the proposer's decided tip: the
/// pool's from-genesis arm re-proposes the decided-elsewhere transaction
/// and leaves out the one on the forked branch.
#[test]
fn forked_proposal_matches_the_reference_payload() {
    let (twins, [a, _], solo, off_decided) = forked_lockstep(7);
    assert!(twins
        .iter()
        .all(|t| t.tob.decided_tip() != BlockId::GENESIS));
    let expected: Vec<TxId> = std::iter::once(a).chain(solo).collect();
    assert_eq!(off_decided.first(), Some(&expected));
}
