//! `st-lint` — the workspace's offline determinism & layering analyzer.
//!
//! Every claim the repro makes rests on simulation runs being **pure
//! functions of their seed**: the timeline-shim, step-vs-run,
//! observer, protocol-alias and sim-vs-cluster suites all assert
//! byte-identical [`SimReport`]s across structurally different
//! executions. Nothing in the compiler enforces the discipline that
//! makes those suites meaningful — `std::collections::HashMap`
//! iteration order is randomized per process, `std::time` reads the
//! wall clock, and a bare `unwrap()` is an invariant nobody wrote down.
//! `stlint` enforces all of it statically, with file/line diagnostics,
//! at CI time.
//!
//! [`SimReport`]: ../st_sim/struct.SimReport.html
//!
//! # Rule families
//!
//! | id | slug      | scope                         | what it rejects |
//! |----|-----------|-------------------------------|-----------------|
//! | D1 | hashmap   | protocol crates, non-test     | `std::collections::{HashMap,HashSet}` |
//! | D2 | wallclock | all but `st-bench`, non-test  | `std::time::{Instant,SystemTime}`, OS entropy |
//! | P1 | panic     | protocol crates, non-test     | `unwrap`/`expect`/`panic!`/`unreachable!` without allow-with-reason |
//! | U1 | unsafe    | everywhere but `third_party/` | the `unsafe` keyword |
//! | L1 | layering  | every workspace `Cargo.toml`  | upward dependencies, `st-bench` as a dependency, `st-node` outside its two consumers, unknown externals |
//! | A1 | allow     | everywhere scanned            | malformed `stlint::allow` annotations |
//! | N1 | iterorder | protocol crates, non-test     | unordered-map iteration feeding an ordered sink (loop `push`/send, chain `collect`/`fold`) |
//! | DP | deadpub   | crate `src/`, gating          | `pub fn` with zero workspace references (item-graph resolved) |
//!
//! The analyzer is a **hand-rolled lexer plus a brace-matched item
//! tree** ([`itemtree`]), not a `syn` parse: the offline `third_party/`
//! policy applies to the linter too. Lexical accuracy (strings, raw
//! strings, doc comments, `#[cfg(test)]` regions) serves the token
//! rules; the item tree adds the structure the nondeterminism-flow rule
//! needs — per-function bodies, `for`-loop headers, method-call chains,
//! and the file's unordered-map bindings. What the structural
//! approximation cannot see, the hasher-perturbation test
//! (`crates/sim/tests/hasher_perturbation.rs`) falsifies dynamically by
//! replaying the guard grid under perturbed FxHash seeds.
//!
//! # Escape hatch
//!
//! A finding that is actually an invariant gets suppressed in place,
//! with the invariant written down — the reason is mandatory, and a
//! reason-less annotation is itself a diagnostic (A1):
//!
//! ```rust,ignore
//! let e = map.get_mut(&cur).expect("counted chain"); // stlint::allow(panic, reason = "every block on the walk was counted on insert")
//! ```
//!
//! # Driving it
//!
//! ```text
//! cargo run -p st-lint -- check            # lint the workspace, exit 1 on findings
//! cargo run -p st-lint -- check --json     # machine-readable findings
//! cargo run -p st-lint -- rules            # the rule table
//! cargo run -p st-lint -- deadpub          # gating dead-public-API check
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod diag;
pub mod itemtree;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod workspace;

pub use diag::{Diagnostic, RuleId, ALL_RULES};
pub use itemtree::ItemTree;
pub use rules::{lint_source, FileCtx, PROTOCOL_CRATES};
pub use workspace::{check_workspace, dead_public_diagnostics, find_workspace_root, CheckReport};
