//! The hasher-perturbation check: no report depends on the FxHash seed.
//!
//! `FastMap` and `FastSet` offer no walk in bucket order, so a leak can
//! come only through a path the types do not see: a std table hashed
//! with `FxHasher`, or a hash value itself reaching an output. This test
//! is the dynamic check. It replays the golden table (the timeline grids,
//! the guard grid and four open-loop workload cells behind a tight
//! mempool, whose admission, drop and hold-over paths reach the
//! serialised summary and `TxRecord`s) under perturbed FxHash seeds
//! ([`set_hasher_seed`]), which scramble every table's bucket order in
//! the process. Every report must still digest to its line in
//! `golden/report_digests.txt`, which records the seed-0 runs.
//!
//! The seed is process-global and read on every hash, so this file is a
//! test binary of its own with exactly one `#[test]`.

mod support;

use st_types::fasthash::{set_hasher_seed, FxHasher};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use support::{assert_golden, golden_cells, golden_line};

/// Well-mixed odd constants, plus one single-bit seed for leaks that only
/// surface under near-degenerate bucket layouts.
const PERTURBED_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0x5851_f42d_4c95_7f2d,
    0xdead_beef_cafe_f00d,
    0x0000_0000_0000_0001,
];

/// Every cell's golden line, each simulation built after the seed is set.
fn golden_lines() -> Vec<String> {
    golden_cells()
        .iter()
        .map(|cell| golden_line(&cell.label, &cell.builder().run()))
        .collect()
}

/// The bucket order of a std set hashed, as `FastSet` is, with
/// `FxHasher` under the current seed. `FastSet` itself cannot show it.
fn set_order() -> Vec<u64> {
    let set: HashSet<u64, BuildHasherDefault<FxHasher>> = (0..64).collect();
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
            "hasher seed {seed:#x} left the FxHash bucket order unchanged"
        );
        assert_golden(&golden_lines());
    }
    set_hasher_seed(0);
}
