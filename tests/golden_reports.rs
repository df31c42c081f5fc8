//! Report bytes under Tier-1: recomputes the digest of every cell of the
//! golden table (`crates/sim/tests/support/mod.rs`) and compares the
//! result with the committed `crates/sim/tests/golden/report_digests.txt`.
//! On a mismatch it prints the whole new file; a PR that means to change
//! report bytes pastes it there.

#[path = "../crates/sim/tests/support/mod.rs"]
mod support;

#[test]
fn every_golden_cell_reproduces_its_committed_digest() {
    let lines: Vec<String> = support::golden_cells()
        .iter()
        .map(|cell| support::golden_line(&cell.label, &cell.builder().run()))
        .collect();
    support::assert_golden(&lines);
}
