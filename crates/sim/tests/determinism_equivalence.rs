//! Guards for the simulator's single execution path.
//!
//! * **Replayed by the literal Algorithm 1** — the paper's one rule
//!   ("tally the latest unexpired votes from `[r − 1 − η, r − 1]`") is
//!   computed in production once per distinct tally state per round (a
//!   memo keyed by a digest of the vote store and the block tree), from a
//!   process's incremental `SupportIndex`. Every grid cell here runs once,
//!   on the zero-copy path the benchmarks run, with a recorder on; st-core's
//!   `LiteralProcess` (`tests/support/literal.rs`, which shares and
//!   memoises nothing) replays what each process submitted, stepped and
//!   received (`support/replay.rs`). After every round each process's
//!   consumed tally, decided tip and admitted bodies equal its literal
//!   twin's, and an honest process's sends and decisions are equal too,
//!   the sends byte for byte. (A memo pre-seeded with a wrong tally is
//!   caught by st-core's `proptest_lazy_tree.rs`; `chaos_replay.rs`
//!   replays a seeded grid under a chaos adversary.)
//! * **Byte identity** — spellings that must not change a report byte:
//!   with vs without user observers (the recorder among them),
//!   `WorkloadSpec::txs_every` vs the equivalent open-loop workload.
//!   (`step()` vs `run()`: the golden cells here are stepped and must
//!   match digests the facade's `golden_reports.rs` computes with
//!   `run()`; `stepping_equivalence.rs` draws random split points.)
//! * **Golden digests** — every cell of the golden table
//!   (`support::golden_cells`), replayed by the literal, digests to its
//!   line in the committed `golden/report_digests.txt`. A change to any
//!   report byte fails here and prints the whole new file.
//!   `hasher_perturbation.rs` checks the same table under perturbed
//!   FxHash seeds, and the facade's Tier-1 `tests/golden_reports.rs`
//!   without the literal.

#[path = "support/replay.rs"]
mod replay;
mod support;

use replay::{replay, Recorder, Replayed};
use st_sim::{ChurnOptions, ConstantRate, Schedule, SimBuilder, SimConfig, Timeline, WorkloadSpec};
use st_types::{ProcessId, Round};
use support::{
    adversary, assert_golden, golden_cells, golden_line, guard_config, guard_grid, params, schedule,
};

const ADVERSARIES: [&str; 7] = [
    "silent",
    "blackout",
    "partition",
    "reorg",
    "equivocator",
    "withhold",
    "junk",
];

/// Per-round sleep probabilities the sharing property draws from.
const CHURN_RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.3];

/// Cases of the sharing property: as many as keep this file under ~10 s
/// in a debug build.
const CASES: u32 = 400;

/// Runs one cell, with one transaction every `txs_every` rounds, replayed
/// by the literal.
fn run_replayed(config: SimConfig, txs_every: u64, sched: Schedule, adv: &str) -> Replayed {
    let builder = SimBuilder::from_config(config)
        .workload_spec(WorkloadSpec::txs_every(txs_every))
        .schedule(sched)
        .adversary_boxed(adversary(adv));
    replay(builder, adv)
}

/// **Production ≡ literal** on every cell of the golden table, and the
/// report digests to its committed line. Churn, corruption windows,
/// multi-window asynchrony, bounded delay and partitions all make states
/// diverge, so both memo hits and misses are exercised.
#[test]
fn golden_cells_match_the_literal_replay() {
    let mut lines = Vec::new();
    for cell in golden_cells() {
        let replayed = replay(cell.builder(), &cell.label);
        lines.push(golden_line(&cell.label, &replayed.report));
    }
    assert_golden(&lines);
}

/// The two adversaries outside the golden table, over the guard grid's
/// schedules, replayed: `WithholdingLeader` (proposals extending the
/// tallest honest vote, shown to half the processes) and `JunkVoter`
/// (every corrupted process votes for one block off genesis, every round).
#[test]
fn withholding_and_junk_adversaries_match_the_literal_replay() {
    for adv in ["withhold", "junk"] {
        for (_, sched, eta, t, seed) in guard_grid() {
            let config = guard_config(eta, &t, seed);
            let label = format!("{adv}/{sched}/eta{eta}/seed{seed}");
            let builder = SimBuilder::from_config(config)
                .workload_spec(WorkloadSpec::txs_every(4))
                .schedule(schedule(sched, 10, 28))
                .adversary_boxed(adversary(adv));
            replay(builder, &label);
        }
    }
}

/// An explicitly all-synchronous timeline is the same run as the seed's
/// window-less configuration.
#[test]
fn all_synchronous_timeline_matches_seed_sync_run() {
    for sched in ["full", "mass-sleep", "churn", "byz-window"] {
        let horizon = 24;
        let seed_cfg = SimConfig::new(params(10, 2), 41).horizon(horizon);
        let explicit = seed_cfg.clone().timeline(Timeline::synchronous());
        let a = SimBuilder::from_config(seed_cfg)
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule(sched, 10, horizon))
            .adversary_boxed(adversary("silent"))
            .run();
        let b = SimBuilder::from_config(explicit)
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule(sched, 10, horizon))
            .adversary_boxed(adversary("silent"))
            .run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "explicit synchronous timeline diverged from the default ({sched})"
        );
    }
}

// ---------------------------------------------------------------------------
// API-redesign guards: the event-driven runner must not change a byte.
// ---------------------------------------------------------------------------

/// A user observer that counts everything it sees (including per-envelope
/// delivery events, which force the runner off the closure-based delivery
/// fast path and onto the event-generating one).
#[derive(Default)]
struct CountingProbe {
    events: usize,
    deliveries: usize,
}

impl st_sim::Observer for CountingProbe {
    fn wants_delivery_events(&self) -> bool {
        true
    }

    fn on_event(
        &mut self,
        _ctx: &st_sim::ObsCtx<'_>,
        event: &st_sim::SimEvent,
        _emit: &mut Vec<st_sim::SimEvent>,
    ) {
        self.events += 1;
        if matches!(event, st_sim::SimEvent::EnvelopeDelivered { .. }) {
            self.deliveries += 1;
        }
    }
}

/// **Observer-vs-seed equivalence**: registering user observers — even
/// ones that opt into the per-envelope events, forcing the
/// event-generating send and delivery paths, and the replay's recorder,
/// which keeps every event — must not change a single report byte
/// relative to the observer-less run (the seed behaviour).
#[test]
fn user_observers_do_not_change_the_report() {
    for (adv, sched, eta, t, seed) in guard_grid() {
        let config = guard_config(eta, &t, seed);
        let bare = SimBuilder::from_config(config.clone())
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .run();
        let observed = SimBuilder::from_config(config)
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .observer(CountingProbe::default())
            .observer(Recorder::default())
            .run();
        assert_eq!(
            serde_json::to_string(&bare).unwrap(),
            serde_json::to_string(&observed).unwrap(),
            "a passive user observer changed the report for adversary={adv} schedule={sched} eta={eta}"
        );
    }
}

/// **Non-vacuity**: on a full-participation cell every (process,
/// round ≥ 1) tally was compared, and almost all of them were adopted
/// from the round's memo (one computed tally per round, `n − 1` hits) —
/// a clean verdict above really is about shared tallies.
#[test]
fn replay_checks_every_step_and_the_cache_actually_shares() {
    let (n, horizon) = (8, 30);
    let config = SimConfig::new(params(n, 2), 1).horizon(horizon);
    let replayed = run_replayed(config, 4, Schedule::full(n, horizon), "silent");
    assert_eq!(replayed.compared, n * horizon as usize);
    assert_eq!(replayed.deviations, 0);
    let rate = replayed.report.timeline.tally_cache_hit_rate();
    assert!(
        rate > 0.8,
        "expected near-(n-1)/n cache hit rate under full participation, got {rate}"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(CASES))]

    /// **Sharing property**: whatever the delivery history, a process
    /// only ever consumes the tally the literal Algorithm 1 computes from
    /// its *own* state. The regime is the one in which delivery history
    /// and state come apart: every adversary, every kind of disruption
    /// (in particular the first synchronous round after a blackout, when
    /// every process has received the same stream but holds its own
    /// votes from the window), churn up to 0.3 per round, and up to two
    /// corruption windows (a corrupted machine's sends never reach the
    /// pool, so its state is not a function of anything delivered). A
    /// memo key that is weaker than content equality — the vote store
    /// alone, or a constant — fails here.
    #[test]
    fn memo_never_serves_a_stale_tally(
        n in 6usize..16,
        eta in 0u64..7,
        seed in 0u64..500,
        adv in 0usize..ADVERSARIES.len(),
        disruption in 0usize..5,
        window_from in 6u64..16,
        window_len in 1u64..5,
        churn in 0usize..CHURN_RATES.len(),
        churn_seed in 0u64..500,
        corruptions in 0usize..3,
        corrupt_target in 0usize..6,
        corrupt_from in 4u64..14,
        corrupt_len in 1u64..6,
    ) {
        let horizon = 30;
        let mut sched = Schedule::random_churn(
            n,
            horizon,
            CHURN_RATES[churn],
            churn_seed,
            &ChurnOptions { max_dropped_frac: 1.0, ..ChurnOptions::default() },
        );
        for k in 0..corruptions as u64 {
            sched = sched.with_corrupted_window(
                ProcessId::new(((corrupt_target + 3 * k as usize) % n) as u32),
                Round::new(corrupt_from + 5 * k),
                Round::new(corrupt_from + 5 * k + corrupt_len),
            );
        }
        let evens: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() % 2 == 0).collect();
        let from = Round::new(window_from);
        let timeline = match disruption {
            0 => Timeline::synchronous(),
            1 => Timeline::synchronous().asynchronous(from, window_len),
            2 => Timeline::synchronous().bounded_delay(from, 2 * window_len, 2),
            3 => Timeline::synchronous().partition(from, window_len, vec![evens]),
            _ => Timeline::synchronous()
                .asynchronous(from, window_len)
                .bounded_delay(Round::new(window_from + window_len + 2), 4, 2),
        };
        let config = SimConfig::new(params(n, eta), seed)
            .horizon(horizon)
            .timeline(timeline);
        run_replayed(config, 3, sched, ADVERSARIES[adv]);
    }
}

/// **txs_every-vs-workload equivalence**: [`WorkloadSpec::txs_every`]
/// is `ConstantRate::every(k)` with unbounded admission and batch plus
/// one rule of its own — an arrival in a round with no honest process
/// awake is dropped, not queued. Spelling the same traffic as an explicit
/// open-loop workload must produce a byte-identical report on every
/// guard-grid cell: the grid's schedules all keep some honest process
/// awake every round, so the drop rule never fires and the two spellings
/// coincide exactly. (`tests/cross_validation.rs` runs the drop rule
/// against st-node's plan.)
#[test]
fn txs_every_matches_explicit_constant_rate_workload() {
    for (adv, sched, eta, t, seed) in guard_grid() {
        let config = guard_config(eta, &t, seed);
        let named = SimBuilder::from_config(config.clone())
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .run();
        let explicit = SimBuilder::from_config(config)
            .workload_spec(
                WorkloadSpec::new(ConstantRate::every(4))
                    .capacity(usize::MAX)
                    .batch(usize::MAX),
            )
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .run();
        assert_eq!(
            serde_json::to_string(&named).unwrap(),
            serde_json::to_string(&explicit).unwrap(),
            "WorkloadSpec::txs_every diverged from the explicit ConstantRate workload for \
             adversary={adv} schedule={sched} eta={eta}"
        );
    }
}
