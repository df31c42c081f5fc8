//! The hasher-perturbation check: no report depends on `FastMap` /
//! `FastSet` bucket order.
//!
//! stlint's N1/iterorder rule flags unordered-map iteration whose order
//! syntactically reaches an ordered sink; no token-level analysis can
//! prove there is no other leak. This test is the dynamic complement. It
//! replays the guard grid, plus four open-loop workload cells, under
//! perturbed FxHash seeds ([`set_hasher_seed`]), which scramble every
//! table's bucket order in the process. Every report must still digest to
//! its line in `golden/report_digests.txt`, which records the seed-0 runs.
//!
//! The seed is process-global and read on every hash, so this file is a
//! test binary of its own with exactly one `#[test]`.

mod support;

use st_sim::{ConstantRate, Diurnal, FlashCrowd, SimBuilder, SimConfig, WorkloadSpec};
use st_types::fasthash::{set_hasher_seed, FastSet};
use support::{adversary, assert_golden, golden_line, guard_config, guard_grid, params, schedule};

/// Well-mixed odd constants, plus one single-bit seed for leaks that only
/// surface under near-degenerate bucket layouts.
const PERTURBED_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0x5851_f42d_4c95_7f2d,
    0xdead_beef_cafe_f00d,
    0x0000_0000_0000_0001,
];

/// Open-loop workload cells: `(workload, adversary, schedule, seed)` at
/// η = 2. A tight mempool (capacity 16, batch 2) keeps the admission,
/// drop and hold-over paths busy, so a map-order leak in the workload
/// observers or the tx-ledger join reaches the serialised summary and
/// `TxRecord`s.
const WORKLOAD_CELLS: [(&str, &str, &str, u64); 4] = [
    ("steady", "silent", "churn", 61),
    ("flash-crowd", "blackout", "mass-sleep", 62),
    ("diurnal", "silent", "full", 63),
    ("steady", "equivocator", "byz-window", 64),
];

fn workload_spec(kind: &str) -> WorkloadSpec {
    let spec = match kind {
        "steady" => WorkloadSpec::new(ConstantRate::per_round(3).clients(3)),
        "flash-crowd" => WorkloadSpec::new(FlashCrowd::new(1).clients(3).burst(8, 6, 10).jitter(7)),
        "diurnal" => WorkloadSpec::new(Diurnal::new(4, 0.25, 10).clients(3)),
        other => panic!("unknown workload {other}"),
    };
    spec.capacity(16).batch(2)
}

/// Every cell's golden line, each simulation built after the seed is set.
fn golden_lines() -> Vec<String> {
    let guard = guard_grid().into_iter().map(|(adv, sched, eta, t, seed)| {
        let report = SimBuilder::from_config(guard_config(eta, &t, seed))
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .run();
        golden_line(&format!("guard/{adv}/{sched}/eta{eta}/seed{seed}"), &report)
    });
    let workload = WORKLOAD_CELLS.into_iter().map(|(w, adv, sched, seed)| {
        let report = SimBuilder::from_config(SimConfig::new(params(10, 2), seed).horizon(28))
            .workload_spec(workload_spec(w))
            .schedule(schedule(sched, 10, 28))
            .adversary_boxed(adversary(adv))
            .run();
        golden_line(
            &format!("guard-workload/{w}/{adv}/{sched}/eta2/seed{seed}"),
            &report,
        )
    });
    guard.chain(workload).collect()
}

/// The iteration order of a `FastSet` built under the current seed.
fn set_order() -> Vec<u64> {
    let set: FastSet<u64> = (0..64).collect();
    set.into_iter().collect()
}

#[test]
fn reports_match_golden_under_perturbed_hasher_seeds() {
    let unperturbed = set_order();
    for seed in PERTURBED_SEEDS {
        set_hasher_seed(seed);
        assert_ne!(
            set_order(),
            unperturbed,
            "hasher seed {seed:#x} left FastSet iteration order unchanged"
        );
        assert_golden(&golden_lines());
    }
    set_hasher_seed(0);
}
