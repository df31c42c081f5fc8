//! `st-lint` — the workspace's dead-public-API gate.
//!
//! Every claim the repro makes rests on simulation runs being **pure
//! functions of their seed**, and on public API being what production
//! code actually runs. The compiler enforces the first (root
//! `clippy.toml`, the workspace `[lints]` table, each crate root's
//! `deny` list, and `st_types::FastMap`/`FastSet`, which offer no walk in
//! bucket order), and Cargo's own graph plus the facade's
//! `tests/workspace_graph.rs` keep the crate layering. `stlint` checks
//! the one thing neither can: a `pub fn` that no production code
//! reaches.
//!
//! # The one rule
//!
//! `stlint deadpub` reports, with file/line/column:
//!
//! * a `pub fn` in crate `src/` that no production code names — only a
//!   package's `src/` (bins included) and `examples/` count, not
//!   `tests/`, `#[cfg(test)]` code or `pub use` re-exports (item-graph
//!   resolved: occurrences inside the function's own body don't count);
//! * a malformed `stlint::allow` annotation, which suppresses nothing.
//!
//! The token rules it used to carry (D1 `hashmap`, D2 `wallclock`, P1
//! `panic`, U1 `unsafe`) are compiler lints now, its iteration-order
//! rule (N1) is a type, and its layering rule (L1) is Cargo's graph:
//! DESIGN.md §6 maps each to what replaced it.
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
//! A function that is public on purpose gets kept in place, with the
//! reason written down — the reason is mandatory, and a reason-less
//! annotation is itself a finding:
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
//! cargo run -p st-lint -- deadpub [--root DIR]   # exit 1 on findings, 2 if nothing was scanned
//! ```

// No wall clock or OS entropy (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

use std::fmt;

pub mod allow;
pub mod itemtree;
pub mod lexer;
pub mod workspace;

pub use workspace::{deadpub, find_workspace_root, Report};

/// One finding: location, and a message saying what to do instead.
/// Findings sort by `(file, line, col, message)`, so a report is
/// byte-stable across runs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column (1 for an annotation finding).
    pub col: u32,
    /// Human message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [deadpub] {}",
            self.file, self.line, self.col, self.message
        )
    }
}
