//! `st-lint` — the workspace's offline layering & iteration-order analyzer.
//!
//! Every claim the repro makes rests on simulation runs being **pure
//! functions of their seed**: the timeline-shim, step-vs-run,
//! observer, protocol-alias and sim-vs-cluster suites all assert
//! byte-identical [`SimReport`]s across structurally different
//! executions. Most of the discipline that makes those suites meaningful
//! is compiler-enforced (root `clippy.toml`, the workspace `[lints]`
//! table and each crate root's `deny` list); `stlint` checks what the
//! compiler cannot: crate layering, whether a hash map's bucket order
//! escapes into an ordered value, and public API that production code
//! never reaches.
//!
//! [`SimReport`]: ../st_sim/struct.SimReport.html
//!
//! # Rule families
//!
//! | id | slug      | scope                         | what it rejects |
//! |----|-----------|-------------------------------|-----------------|
//! | L1 | layering  | every workspace `Cargo.toml`  | upward dependencies, `st-bench` as a dependency, `st-node` outside its two consumers, unknown externals |
//! | A1 | allow     | everywhere scanned            | malformed `stlint::allow` annotations |
//! | N1 | iterorder | protocol crates, non-test     | unordered-map iteration feeding an ordered sink (loop `push`/send, chain `collect`/`fold`) |
//! | DP | deadpub   | crate `src/`, gating          | `pub fn` no production code reaches: only production occurrences count, not tests, `#[cfg(test)]` code or `pub use` re-exports (item-graph resolved) |
//!
//! The token rules it used to carry (D1 `hashmap`, D2 `wallclock`, P1
//! `panic`, U1 `unsafe`) are compiler lints now; DESIGN.md §6 maps each
//! to its lint.
//!
//! The analyzer is a **hand-rolled lexer plus a brace-matched item
//! tree** ([`itemtree`]), not a `syn` parse: the offline `third_party/`
//! policy applies to the linter too. Lexical accuracy (strings, raw
//! strings, doc comments, `#[cfg(test)]` regions) keeps quoted code
//! inert; the item tree adds the structure the nondeterminism-flow rule
//! needs — per-function bodies, `for`-loop headers, method-call chains,
//! and the file's unordered-map bindings. What the structural
//! approximation cannot see, the hasher-perturbation test
//! (`crates/sim/tests/hasher_perturbation.rs`) falsifies dynamically by
//! replaying the guard grid under perturbed FxHash seeds.
//!
//! # Escape hatch
//!
//! An N1 or DP finding that is actually an invariant gets suppressed in
//! place, with the invariant written down — the reason is mandatory, and
//! a reason-less annotation is itself a diagnostic (A1):
//!
//! ```rust,ignore
//! // stlint::allow(iterorder, reason = "xor-fold is commutative; bucket order cannot reach the result")
//! let digest = seen.iter().fold(0, |acc, x| acc ^ x);
//! ```
//!
//! Compiler lints are suppressed with `#[expect(lint, reason = "…")]`,
//! which also warns once its lint stops firing.
//!
//! # Driving it
//!
//! ```text
//! cargo run -p st-lint -- check            # lint the workspace, exit 1 on findings
//! cargo run -p st-lint -- check --json     # machine-readable findings
//! cargo run -p st-lint -- rules            # the rule table
//! cargo run -p st-lint -- deadpub          # gating check: pub fns production never reaches
//! ```

// No wall clock or OS entropy (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
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
