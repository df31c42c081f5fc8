//! Tier-1 guards on the two stateful shortcuts behind `step_send`, both
//! checked against the literal Algorithm 1
//! (`crates/core/tests/support/literal.rs`).
//!
//! * The shared tally: a cell runs as `Simulation<TobProcess>` and as
//!   `Simulation<LiteralProcess>` in lockstep. Every tally a process
//!   consumed (usually adopted from the round's shared memo) must equal
//!   the literal's, and the reports must agree but for the memo's hit and
//!   miss counts. The golden grid and the 400-case property test live in
//!   `crates/sim/tests/determinism_equivalence.rs`.
//! * The transaction pool: a proposal on a forked parent must carry what
//!   the literal's from-genesis payload rule says. The other cases live in
//!   `crates/core/tests/payload_oracle.rs` and `literal_differential.rs`.
//!
//! These cells keep the facade-only test command tripping when either
//! shortcut does.

#[path = "../crates/sim/tests/support/lockstep.rs"]
mod lockstep;

use lockstep::literal::{forked_lockstep, LiteralProcess};
use lockstep::lockstep;
use sleepy_tob::prelude::*;

/// `config`'s run under `adversary`, in lockstep with the literal.
fn run_in_lockstep<A>(config: SimConfig, adversary: A, label: &str) -> (SimReport, usize)
where
    A: Adversary<TobProcess> + Adversary<LiteralProcess> + Clone + 'static,
{
    let tob = SimBuilder::<TobProcess>::for_protocol_config(config.clone())
        .workload_spec(WorkloadSpec::txs_every(4))
        .adversary(adversary.clone())
        .build()
        .expect("valid sim");
    let lit = SimBuilder::<LiteralProcess>::for_protocol_config(config)
        .workload_spec(WorkloadSpec::txs_every(4))
        .adversary(adversary)
        .build()
        .expect("valid sim");
    lockstep(tob, lit, label)
}

/// Full participation: every (process, round ≥ 1) tally is compared, and
/// nearly all were adopted from the memo (one computed tally per round,
/// `n − 1` hits), so the clean verdict is about shared tallies.
#[test]
fn full_participation_shares_tallies_without_a_mismatch() {
    let (n, horizon) = (8, 24);
    let params = Params::builder(n).expiration(2).build().unwrap();
    let config = SimConfig::new(params, 1).horizon(horizon);
    let (report, checked) = run_in_lockstep(config, SilentAdversary, "full participation");
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
    let (_, checked) = run_in_lockstep(config, BlackoutAdversary, "blackout");
    assert!(checked > 0, "nothing was compared");
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
