//! The per-file rule N1: unordered-map iteration order flowing into
//! ordered sinks. It walks the token stream of one file with its
//! test-region mask, the file's crate context and its [`ItemTree`], and
//! emits [`Diagnostic`]s that the caller filters through the allow
//! annotations.

use crate::allow::{collect_allows, suppressed};
use crate::diag::{Diagnostic, RuleId};
use crate::itemtree::{chain_methods, for_loops, ItemTree};
use crate::lexer::{lex, test_mask, Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose non-test code carries the determinism discipline: the
/// protocol/sim stack whose byte-equivalence suites assume runs are pure
/// functions of the seed. N1 covers exactly these; each of their
/// `lib.rs` roots also denies the clippy determinism and panic lints.
pub const PROTOCOL_CRATES: [&str; 7] = [
    "st-types",
    "st-crypto",
    "st-ga",
    "st-messages",
    "st-blocktree",
    "st-core",
    "st-sim",
];

/// Per-file lint context, decoupled from the workspace walker so fixture
/// tests can lint a file *as if* it belonged to any crate.
#[derive(Clone, Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path used in diagnostics.
    pub rel_path: &'a str,
    /// Cargo package name of the owning crate (e.g. `st-core`).
    pub crate_name: &'a str,
    /// Whether the whole file is test code (under `tests/`, `benches/`,
    /// or `examples/`).
    pub test_file: bool,
}

impl FileCtx<'_> {
    fn is_protocol(&self) -> bool {
        PROTOCOL_CRATES.contains(&self.crate_name)
    }
}

/// Lints one file's source, returning the diagnostics that survive its
/// allow annotations (malformed annotations surface as `A1`).
pub fn lint_source(ctx: &FileCtx<'_>, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let (allows, mut diags) = collect_allows(ctx.rel_path, &lexed.comments, &lexed.tokens);

    let mut raw = Vec::new();
    if ctx.is_protocol() {
        rule_n1(ctx, &lexed.tokens, &mask, &mut raw);
    }

    diags.extend(
        raw.into_iter()
            .filter(|d| !suppressed(&allows, d.rule, d.line)),
    );
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Methods that begin iteration over an unordered map (N1).
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminators that materialize or observe the iteration *order*
/// (N1): once one of these runs downstream of an unordered iteration,
/// the hasher's bucket order has escaped into an ordered value.
const ORDER_SINKS: [&str; 13] = [
    "collect",
    "for_each",
    "fold",
    "reduce",
    "scan",
    "last",
    "position",
    "find",
    "find_map",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
];

/// Order-sensitive effects inside a `for`-loop body (N1): pushing,
/// extending or sending into anything sequenced means the sequence now
/// encodes bucket order. (`insert` counts: into a Vec it shifts by
/// index, into an ordered map it is harmless but rare enough to
/// annotate.)
const LOOP_EFFECTS: [&str; 7] = [
    "push",
    "push_back",
    "extend",
    "insert",
    "append",
    "send",
    "emit",
];

/// N1: unordered-map iteration whose order can escape into an ordered
/// sink, in protocol-crate non-test code. Two shapes are flagged:
///
/// * `for … in …map… { body }` where the body performs an
///   order-sensitive effect ([`LOOP_EFFECTS`] as method calls);
/// * `map.iter()…` method chains that reach an order-materializing
///   terminator ([`ORDER_SINKS`]).
///
/// The canonical fix is `st_types::fasthash::{iter_sorted,
/// set_into_sorted_vec}` — free functions, so routed call sites no
/// longer match either shape. A
/// genuinely order-insensitive effect keeps the map iteration and
/// states its invariant via `stlint::allow(iterorder, reason = "…")`.
fn rule_n1(ctx: &FileCtx<'_>, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    let tree = ItemTree::build(tokens);
    if tree.map_bindings.is_empty() {
        return;
    }
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut report = |name: &Token, how: String, out: &mut Vec<Diagnostic>| {
        if reported.insert((name.line, name.col)) {
            out.push(Diagnostic::new(
                RuleId::N1,
                ctx.rel_path,
                name.line,
                name.col,
                format!(
                    "iteration order of unordered map `{}` {how}; route through \
                     st_types::fasthash::iter_sorted/set_into_sorted_vec, or state the \
                     order-insensitivity invariant via \
                     `// stlint::allow(iterorder, reason = \"…\")`",
                    name.text,
                ),
            ));
        }
    };
    for f in &tree.fns {
        let Some(body) = f.body else { continue };
        if mask.get(f.fn_idx).copied().unwrap_or(true) {
            continue;
        }
        // Shape 1: for-loops over a map whose body has ordered effects.
        for l in for_loops(tokens, body) {
            let Some(name_idx) = iterated_map(tokens, l.expr, &tree) else {
                continue;
            };
            if let Some(effect) = ordered_effect_in(tokens, mask, l.body, &tree) {
                report(
                    &tokens[name_idx],
                    format!("escapes through `.{effect}(…)` inside the loop body"),
                    out,
                );
            }
        }
        // Shape 2: map.iter()… chains ending in an order sink.
        for i in body.0 + 1..body.1 {
            if mask[i] || tokens[i].kind != TokenKind::Ident || !tree.is_map(&tokens[i].text) {
                continue;
            }
            let starts_iter = tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && tokens
                    .get(i + 2)
                    .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct('('));
            if !starts_iter {
                continue;
            }
            if let Some(sink) = chain_methods(tokens, i + 3)
                .into_iter()
                .find(|m| ORDER_SINKS.contains(&m.as_str()))
            {
                report(
                    &tokens[i],
                    format!("is materialized by `.{sink}(…)` at the end of the chain"),
                    out,
                );
            }
        }
    }
}

/// Resolves the map a `for`-loop header iterates, if any: either the
/// expression *ends* with a known map binding (`&map`, `&mut self.map`)
/// or it contains `binding.<iter-method>(` anywhere.
fn iterated_map(tokens: &[Token], expr: (usize, usize), tree: &ItemTree) -> Option<usize> {
    let (start, end) = expr;
    // `… in map.iter()` / `… in self.map.drain()`.
    for i in start..end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && tree.is_map(&t.text)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|t| i + 2 < end && ITER_METHODS.contains(&t.text.as_str()))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            return Some(i);
        }
    }
    // `… in &map` / `… in &mut self.map`: the expression's last token is
    // the binding itself (IntoIterator on the reference).
    let last = end.checked_sub(1)?;
    if tokens[last].kind == TokenKind::Ident && tree.is_map(&tokens[last].text) {
        return Some(last);
    }
    None
}

/// First order-sensitive effect (`.push(…)` &c) in a loop body, if any.
/// `insert`/`extend`/`append` *into another unordered map* is
/// commutative and deliberately not an effect — only sequenced
/// receivers encode arrival order.
fn ordered_effect_in(
    tokens: &[Token],
    mask: &[bool],
    body: (usize, usize),
    tree: &ItemTree,
) -> Option<String> {
    for i in body.0 + 1..body.1 {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || !LOOP_EFFECTS.contains(&t.text.as_str())
            || i < 1
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let commutative_receiver = matches!(t.text.as_str(), "insert" | "extend" | "append")
            && i >= 2
            && tokens[i - 2].kind == TokenKind::Ident
            && tree.is_map(&tokens[i - 2].text);
        if !commutative_receiver {
            return Some(t.text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &'static str) -> FileCtx<'static> {
        FileCtx {
            rel_path: "x.rs",
            crate_name,
            test_file: false,
        }
    }

    fn rules_fired(ctx: &FileCtx<'_>, src: &str) -> Vec<(RuleId, u32)> {
        lint_source(ctx, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn n1_catches_for_loop_push_over_map_ref() {
        let src = "fn f(support: &FastMap<u64, u32>) -> Vec<u64> {\n    let mut out = Vec::new();\n    for (&b, _) in support {\n        out.push(b);\n    }\n    out\n}\n";
        let fired = rules_fired(&ctx("st-ga"), src);
        assert_eq!(fired, vec![(RuleId::N1, 3)]);
    }

    #[test]
    fn n1_catches_iter_collect_chain() {
        let src =
            "fn f(seen: &FastSet<u64>) -> Vec<u64> {\n    seen.iter().copied().collect()\n}\n";
        let fired = rules_fired(&ctx("st-ga"), src);
        assert_eq!(fired, vec![(RuleId::N1, 2)]);
    }

    #[test]
    fn n1_ignores_commutative_accumulation() {
        // `+=` into locals and insertion into another unordered map are
        // order-insensitive.
        let src = "fn f(tally: &FastMap<u64, u32>, mirror: &mut FastSet<u64>) -> u32 {\n    let mut sum = 0;\n    for (&k, &v) in tally {\n        sum += v;\n        mirror.insert(k);\n    }\n    sum\n}\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
    }

    #[test]
    fn n1_ignores_vec_iteration_and_sorted_adapters() {
        let src = "fn f(rows: &Vec<u64>, m: &FastMap<u64, u32>) -> Vec<u64> {\n    let mut out = Vec::new();\n    for r in rows {\n        out.push(*r);\n    }\n    for (k, _) in iter_sorted(m) {\n        out.push(*k);\n    }\n    out\n}\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
    }

    #[test]
    fn n1_allow_with_reason_suppresses() {
        let src = "fn f(seen: &FastSet<u64>) -> u64 {\n    // stlint::allow(iterorder, reason = \"fold is a commutative sum\")\n    seen.iter().fold(0, |a, b| a + b)\n}\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
    }

    #[test]
    fn n1_skips_test_files_and_non_protocol_crates() {
        let src = "fn f(seen: &FastSet<u64>) -> Vec<u64> { seen.iter().copied().collect() }\n";
        assert!(rules_fired(&ctx("st-load"), src).is_empty());
        let test_ctx = FileCtx {
            rel_path: "x.rs",
            crate_name: "st-core",
            test_file: true,
        };
        assert!(rules_fired(&test_ctx, src).is_empty());
    }
}
