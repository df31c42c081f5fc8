//! `st-lint` — the workspace's offline layering & allow-hygiene analyzer.
//!
//! Every claim the repro makes rests on simulation runs being **pure
//! functions of their seed**: the timeline-shim, step-vs-run,
//! observer, protocol-alias and sim-vs-cluster suites all assert
//! byte-identical [`SimReport`]s across structurally different
//! executions. Most of the discipline that makes those suites meaningful
//! is compiler-enforced (root `clippy.toml`, the workspace `[lints]`
//! table, each crate root's `deny` list, and `st_types::FastMap`/
//! `FastSet`, which offer no walk in bucket order); `stlint` checks what
//! the compiler cannot: crate layering, and public API that production
//! code never reaches.
//!
//! [`SimReport`]: ../st_sim/struct.SimReport.html
//!
//! # Rule families
//!
//! | id | slug      | scope                         | what it rejects |
//! |----|-----------|-------------------------------|-----------------|
//! | L1 | layering  | every workspace `Cargo.toml`  | upward dependencies, `st-bench` as a dependency, `st-node` outside its two consumers, unknown externals |
//! | A1 | allow     | everywhere scanned            | malformed `stlint::allow` annotations, and those naming an unknown or retired rule |
//! | DP | deadpub   | crate `src/`, gating          | `pub fn` no production code reaches: only production occurrences count, not tests, `#[cfg(test)]` code or `pub use` re-exports (item-graph resolved) |
//!
//! The token rules it used to carry (D1 `hashmap`, D2 `wallclock`, P1
//! `panic`, U1 `unsafe`) are compiler lints now, and its iteration-order
//! rule (N1) is a type: DESIGN.md §6 maps each to what replaced it.
//!
//! The analyzer is a **hand-rolled lexer plus the file's `fn` items**
//! ([`itemtree`]), not a `syn` parse: the offline `third_party/` policy
//! applies to the linter too. Lexical accuracy (strings, raw strings,
//! doc comments, `#[cfg(test)]` regions) keeps quoted code inert; the
//! `fn` items with their brace-matched bodies let deadpub tell a
//! function's own body from a reference to it.
//!
//! # Escape hatch
//!
//! A DP finding that is public on purpose gets suppressed in place, with
//! the reason written down — the reason is mandatory, and a reason-less
//! annotation is itself a diagnostic (A1):
//!
//! ```rust,ignore
//! pub fn set_hasher_seed(seed: u64) {
//!     // stlint::allow(deadpub, reason = "the hasher-perturbation test's seed switch")
//!     HASHER_SEED.store(seed, Ordering::Relaxed);
//! }
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
pub mod workspace;

pub use allow::lint_source;
pub use diag::{Diagnostic, RuleId, ALL_RULES};
pub use workspace::{check_workspace, dead_public_diagnostics, find_workspace_root, CheckReport};
