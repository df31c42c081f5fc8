//! Property-based stepping-equivalence guard: interleaving
//! [`st_sim::Simulation::step`] and [`st_sim::Simulation::run_until`] at
//! **arbitrary** split points must be invisible — the finished
//! [`st_sim::SimReport`] serialises byte-identically to the one-shot
//! [`st_sim::Simulation::run`] across the (adversary × timeline × η)
//! grid, quantified over random split schedules. (The golden cells,
//! stepped in `determinism_equivalence.rs`, must also digest as the
//! one-shot runs of the facade's `golden_reports.rs` do.)

use proptest::prelude::*;
use st_sim::adversary::{
    Adversary, BlackoutAdversary, PartitionAttacker, ReorgAttacker, SilentAdversary,
};
use st_sim::{Schedule, SimBuilder, SimConfig, Timeline, WorkloadSpec};
use st_types::{Params, Round};

const N: usize = 10;
const HORIZON: u64 = 24;

fn adversary(idx: usize) -> Box<dyn Adversary> {
    match idx {
        0 => Box::new(SilentAdversary),
        1 => Box::new(BlackoutAdversary),
        2 => Box::new(PartitionAttacker::new()),
        _ => Box::new(ReorgAttacker::new()),
    }
}

fn schedule(adv_idx: usize) -> Schedule {
    let schedule = Schedule::full(N, HORIZON);
    if adv_idx == 3 {
        // The reorg attack needs a Byzantine minority to vote for X.
        schedule.with_static_byzantine(3)
    } else {
        schedule
    }
}

fn timeline(idx: usize) -> Timeline {
    match idx {
        0 => Timeline::synchronous(),
        1 => Timeline::synchronous().asynchronous(Round::new(10), 3),
        2 => Timeline::synchronous()
            .asynchronous(Round::new(8), 2)
            .asynchronous(Round::new(16), 2),
        _ => Timeline::synchronous().bounded_delay(Round::new(9), 8, 2),
    }
}

fn builder(adv_idx: usize, timeline_idx: usize, eta: u64, seed: u64) -> SimBuilder {
    let params = Params::builder(N).expiration(eta).build().expect("valid");
    let config = SimConfig::new(params, seed)
        .horizon(HORIZON)
        .timeline(timeline(timeline_idx));
    SimBuilder::from_config(config)
        .workload_spec(WorkloadSpec::txs_every(4))
        .schedule(schedule(adv_idx))
        .adversary_boxed(adversary(adv_idx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of `step()` and `run_until()` — including
    /// backwards (no-op) and beyond-horizon targets — finishes with a
    /// report byte-identical to `run()`.
    #[test]
    fn arbitrary_split_points_match_one_shot_run(
        adv_idx in 0usize..4,
        timeline_idx in 0usize..4,
        eta in 0u64..7,
        seed in 1u64..500,
        splits in prop::collection::vec(0u64..(HORIZON + 4), 0..6),
        extra_steps in prop::collection::vec(any::<bool>(), 6),
    ) {
        let one_shot = builder(adv_idx, timeline_idx, eta, seed).run();

        let mut sim = builder(adv_idx, timeline_idx, eta, seed)
            .build()
            .expect("valid sim");
        for (i, &split) in splits.iter().enumerate() {
            sim.run_until(Round::new(split));
            if extra_steps[i % extra_steps.len().max(1)] {
                sim.step();
            }
            // The cursor only moves forward, never past the horizon.
            if let Some(next) = sim.next_round() {
                prop_assert!(next.as_u64() <= HORIZON);
            }
        }
        while sim.step().is_some() {}
        prop_assert!(sim.is_done());
        prop_assert!(sim.next_round().is_none());
        let stepped = sim.finish();

        prop_assert_eq!(
            serde_json::to_string(&one_shot).expect("serialise"),
            serde_json::to_string(&stepped).expect("serialise"),
            "split schedule {:?} changed the report (adv {}, timeline {}, eta {})",
            splits, adv_idx, timeline_idx, eta
        );
    }
}
