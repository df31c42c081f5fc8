//! The per-file rule families: D1 (hash maps), D2 (wall clock &
//! entropy), P1 (panic family), U1 (unsafe), and the structural N1
//! (unordered-map iteration order flowing into ordered sinks).
//!
//! Each rule walks the token stream of one file with its test-region
//! mask and the file's crate context — N1 additionally consults the
//! [`ItemTree`] — and emits [`Diagnostic`]s that the caller filters
//! through the allow annotations.

use crate::allow::{collect_allows, suppressed};
use crate::diag::{Diagnostic, RuleId};
use crate::itemtree::{chain_methods, for_loops, ItemTree};
use crate::lexer::{lex, test_mask, Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose non-test code carries the determinism discipline: the
/// protocol/sim stack whose byte-equivalence suites assume runs are pure
/// functions of the seed.
pub const PROTOCOL_CRATES: [&str; 7] = [
    "st-types",
    "st-crypto",
    "st-ga",
    "st-messages",
    "st-blocktree",
    "st-core",
    "st-sim",
];

/// Identifiers whose mere presence means OS entropy (D2). `rand` in this
/// workspace is the deterministic `third_party/` stand-in, so seeded use
/// is fine — these are the APIs that reach outside the seed.
const ENTROPY_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "getrandom",
];

/// Panicking method calls (`.name(`) covered by P1.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Panicking macros (`name!`) covered by P1.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

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

    /// Whether D2 (wall clock & entropy) is waived for this file.
    /// `st-bench` is exempt wholesale (it measures time); `st-node` is
    /// exempt in exactly one file — its socket I/O module, where backoff
    /// and liveness ages are inherently wall-clock concerns. The rest of
    /// st-node (plan arithmetic, round barrier, cluster harness) must
    /// stay deterministic, so the exemption is scoped by path, not crate.
    fn d2_exempt(&self) -> bool {
        self.crate_name == "st-bench"
            || (self.crate_name == "st-node" && self.rel_path.ends_with("src/io.rs"))
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
        rule_d1(ctx, &lexed.tokens, &mask, &mut raw);
        rule_p1(ctx, &lexed.tokens, &mask, &mut raw);
        rule_n1(ctx, &lexed.tokens, &mask, &mut raw);
    }
    if !ctx.d2_exempt() {
        rule_d2(ctx, &lexed.tokens, &mask, &mut raw);
    }
    rule_u1(ctx, &lexed.tokens, &mut raw);

    diags.extend(
        raw.into_iter()
            .filter(|d| !suppressed(&allows, d.rule, d.line)),
    );
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Matches `lhs :: rhs` ending at index `i` of `rhs`: returns whether
/// tokens `i-3..i` are `Ident(lhs) : :`.
fn path_prefix_is(tokens: &[Token], i: usize, lhs: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(lhs)
}

/// After `prefix ::` at position `i` (the token following the second
/// `:`), collects the banned identifiers named by the path tail: either
/// a single segment (`HashMap`) or a brace group
/// (`{HashMap, hash_map::Entry, HashSet}`).
fn banned_in_path_tail<'t>(tokens: &'t [Token], i: usize, banned: &[&str]) -> Vec<&'t Token> {
    let mut hits = Vec::new();
    match tokens.get(i) {
        Some(t) if t.kind == TokenKind::Ident && banned.contains(&t.text.as_str()) => {
            hits.push(t);
        }
        Some(t) if t.is_punct('{') => {
            let mut depth = 1usize;
            let mut j = i + 1;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident && banned.contains(&t.text.as_str()) {
                    hits.push(t);
                }
                j += 1;
            }
        }
        _ => {}
    }
    hits
}

/// D1: `std::collections::{HashMap,HashSet}` (imports or qualified
/// paths) in protocol-crate non-test code. Flagging the import/path is
/// sufficient — bare `HashMap` uses require one of these to exist.
fn rule_d1(ctx: &FileCtx<'_>, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || !t.is_ident("collections") || !path_prefix_is(tokens, i, "std") {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        for hit in banned_in_path_tail(tokens, i + 3, &["HashMap", "HashSet"]) {
            out.push(Diagnostic::new(
                RuleId::D1,
                ctx.rel_path,
                hit.line,
                hit.col,
                format!(
                    "std::collections::{} iterates in randomized order, which breaks \
                     byte-reproducibility; use st_types::fasthash::{} (or a BTreeMap \
                     when iteration order is observable)",
                    hit.text,
                    if hit.text == "HashMap" {
                        "FastMap"
                    } else {
                        "FastSet"
                    },
                ),
            ));
        }
    }
}

/// D2: `std::time::{Instant,SystemTime}` paths/imports and OS-entropy
/// identifiers outside `st-bench` and tests.
fn rule_d2(ctx: &FileCtx<'_>, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if t.is_ident("time") && path_prefix_is(tokens, i, "std") {
            if !(tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':')))
            {
                continue;
            }
            for hit in banned_in_path_tail(tokens, i + 3, &["Instant", "SystemTime"]) {
                out.push(Diagnostic::new(
                    RuleId::D2,
                    ctx.rel_path,
                    hit.line,
                    hit.col,
                    format!(
                        "std::time::{} reads the wall clock; simulation state must be a pure \
                         function of the seed — timing belongs in st-bench",
                        hit.text,
                    ),
                ));
            }
        } else if t.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(Diagnostic::new(
                RuleId::D2,
                ctx.rel_path,
                t.line,
                t.col,
                format!(
                    "`{}` draws OS entropy; every random choice must derive from the run seed",
                    t.text,
                ),
            ));
        }
    }
}

/// P1: panic-family calls in protocol-crate non-test code. These are
/// undocumented invariants — either convert to a fallible return or
/// annotate with `stlint::allow(panic, reason = "<the invariant>")`.
fn rule_p1(ctx: &FileCtx<'_>, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_method = PANIC_METHODS.contains(&name)
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let is_macro =
            PANIC_MACROS.contains(&name) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if is_method || is_macro {
            let shown = if is_macro {
                format!("{name}!")
            } else {
                format!(".{name}()")
            };
            out.push(Diagnostic::new(
                RuleId::P1,
                ctx.rel_path,
                t.line,
                t.col,
                format!(
                    "`{shown}` in protocol code is an undocumented invariant: return an error, \
                     or state the invariant via `// stlint::allow(panic, reason = \"…\")`",
                ),
            ));
        }
    }
}

/// U1: the `unsafe` keyword, anywhere outside `third_party/` (which the
/// walker never scans) — tests included; every `st-*` crate also carries
/// `#![forbid(unsafe_code)]`, so this is the lint-time mirror of that
/// guarantee.
fn rule_u1(ctx: &FileCtx<'_>, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for t in tokens {
        if t.is_ident("unsafe") {
            out.push(Diagnostic::new(
                RuleId::U1,
                ctx.rel_path,
                t.line,
                t.col,
                "`unsafe` is forbidden outside third_party/; the whole workspace builds under \
                 #![forbid(unsafe_code)]",
            ));
        }
    }
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
/// into_sorted_vec, set_iter_sorted, set_into_sorted_vec}` — free
/// functions, so routed call sites no longer match either shape. A
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
                     st_types::fasthash::iter_sorted/into_sorted_vec, or state the \
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
    fn d1_catches_import_group_and_qualified_path() {
        let src = "use std::collections::{HashMap, BTreeMap, HashSet};\nfn f() -> std::collections::HashMap<u8, u8> { Default::default() }\n";
        let fired = rules_fired(&ctx("st-core"), src);
        assert_eq!(
            fired,
            vec![(RuleId::D1, 1), (RuleId::D1, 1), (RuleId::D1, 2)]
        );
    }

    #[test]
    fn d1_ignores_non_protocol_crates_and_tests() {
        let src = "use std::collections::HashMap;\n";
        assert!(rules_fired(&ctx("st-bench"), src).is_empty());
        assert!(rules_fired(&ctx("st-lint"), src).is_empty());
        let masked = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rules_fired(&ctx("st-core"), masked).is_empty());
    }

    #[test]
    fn d2_catches_time_and_entropy_everywhere_but_bench() {
        let src = "use std::time::Instant;\nfn f() { let _ = rand::thread_rng(); }\n";
        let fired = rules_fired(&ctx("st-load"), src);
        assert_eq!(fired, vec![(RuleId::D2, 1), (RuleId::D2, 2)]);
        assert!(rules_fired(&ctx("st-bench"), src).is_empty());
    }

    #[test]
    fn d2_allows_duration() {
        let src = "use std::time::Duration;\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
    }

    #[test]
    fn p1_catches_methods_and_macros() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    if x.is_none() { panic!(\"no\"); }\n    x.unwrap()\n}\n";
        let fired = rules_fired(&ctx("st-messages"), src);
        assert_eq!(fired, vec![(RuleId::P1, 2), (RuleId::P1, 3)]);
    }

    #[test]
    fn p1_allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // stlint::allow(panic, reason = \"caller checked is_some\")\n}\n";
        assert!(rules_fired(&ctx("st-messages"), src).is_empty());
    }

    #[test]
    fn p1_allow_without_reason_reports_a1_and_keeps_p1() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // stlint::allow(panic)\n}\n";
        let fired = rules_fired(&ctx("st-messages"), src);
        assert!(fired.contains(&(RuleId::A1, 2)));
        assert!(fired.contains(&(RuleId::P1, 2)));
    }

    #[test]
    fn p1_ignores_identifier_lookalikes() {
        // `unwrap` as a plain ident (no `.` receiver, no call) and
        // `should_panic` attributes are not panic sites.
        let src = "fn unwrap() {}\nfn g() { unwrap(); }\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
    }

    #[test]
    fn u1_fires_even_in_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
        let fired = rules_fired(&ctx("st-bench"), src);
        assert_eq!(fired, vec![(RuleId::U1, 3)]);
    }

    #[test]
    fn u1_ignores_strings_and_comments() {
        let src = "// unsafe in prose\nconst S: &str = \"unsafe\";\n";
        assert!(rules_fired(&ctx("st-core"), src).is_empty());
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
