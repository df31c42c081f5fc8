//! `Simulation<TobProcess>` and `Simulation<LiteralProcess>` stepped in
//! lockstep: the literal Algorithm 1 (st-core's
//! `tests/support/literal.rs`) as the production simulator's oracle.
//! Shared by `determinism_equivalence.rs` and the facade's Tier-1
//! `tests/guards.rs` (included by path).

#[path = "../../../core/tests/support/literal.rs"]
pub mod literal;

use literal::{consumed, LiteralProcess};
use serde::{Serialize, Value};
use st_core::TobProcess;
use st_sim::{SimReport, Simulation};
use st_types::Round;

/// A report as a value tree without the tally memo's hit and miss
/// counts, the one thing the literal (which shares nothing) reports
/// differently.
fn without_memo_counts(report: &SimReport) -> Value {
    fn strip(v: &mut Value) {
        match v {
            Value::Map(entries) => {
                entries.retain(|(k, _)| !k.starts_with("tally_cache_"));
                entries.iter_mut().for_each(|(_, v)| strip(v));
            }
            Value::Seq(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut value = report.to_value();
    strip(&mut value);
    value
}

/// Steps a cell's two simulations in lockstep: after every round each
/// process consumed an equal tally on both sides, and the finished
/// reports agree but for the memo counts. Returns the production report
/// and the number of tallies compared.
pub fn lockstep(
    mut tob: Simulation<TobProcess>,
    mut lit: Simulation<LiteralProcess>,
    label: &str,
) -> (SimReport, usize) {
    let mut checked = 0;
    while let Some(round) = tob.step() {
        assert_eq!(lit.step(), Some(round), "{label}");
        if round == Round::ZERO {
            continue;
        }
        for (t, l) in tob.processes().iter().zip(lit.processes()) {
            let id = t.id();
            assert_eq!(
                consumed(t).as_ref(),
                l.last_tally(),
                "{label}: {id:?} in {round:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(lit.step(), None, "{label}");
    let (tob, lit) = (tob.finish(), lit.finish());
    assert!(
        without_memo_counts(&tob) == without_memo_counts(&lit),
        "{label}: reports differ"
    );
    (tob, checked)
}
