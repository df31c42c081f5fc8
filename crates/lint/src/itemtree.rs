//! A brace-matched item tree over the token stream — the structural
//! layer the v2 rules stand on.
//!
//! The lexer gives rules *lexical* accuracy (strings and doc comments
//! are inert, `#[cfg(test)]` regions are masked); this module adds the
//! *structural* facts the nondeterminism-flow rule family needs without
//! pulling in `syn`:
//!
//! * every `fn` item with its name and brace-matched body span, so rules
//!   can reason per function body instead of per file;
//! * `for`-loop headers (pattern / iterated expression / loop body
//!   spans) inside those bodies;
//! * method-call chains (`recv.a().b().c()`), walked call by call with
//!   argument parentheses and turbofish matched, so a rule can ask
//!   "does this iteration feed an order-sensitive sink?";
//! * the file's unordered-map bindings: every name declared (as a
//!   field, `let`, or parameter) with a `FastMap`/`FastSet`/`HashMap`/
//!   `HashSet` type, or assigned from one of their constructors.
//!
//! Everything is an approximation of real name/type resolution — a name
//! declared as a map anywhere in a file is treated as a map everywhere
//! in that file — but it is a *conservative-enough* one for a codebase
//! whose protocol crates deny `std` maps (`clippy::disallowed_types`),
//! and the hasher-perturbation test
//! (`crates/sim/tests/hasher_perturbation.rs`) dynamically falsifies
//! whatever the approximation misses.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// The unordered-map type names whose bindings are tracked.
pub const MAP_TYPES: [&str; 4] = ["FastMap", "FastSet", "HashMap", "HashSet"];

/// One `fn` item discovered in the token stream.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token index of the name identifier.
    pub name_idx: usize,
    /// Whether the definition is `pub` (exactly `pub fn`, not
    /// `pub(crate) fn`, mirroring what counts as public API).
    pub is_pub: bool,
    /// Brace-matched body as inclusive token indices of `{` and `}`;
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// The item tree of one file: its functions plus the file's
/// unordered-map bindings.
#[derive(Clone, Debug, Default)]
pub struct ItemTree {
    /// Every `fn` item, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Names known to be bound to an unordered map somewhere in the
    /// file (struct fields, `let` bindings, parameters, assignments
    /// from a map constructor).
    pub map_bindings: BTreeSet<String>,
}

impl ItemTree {
    /// Builds the tree for one token stream.
    pub fn build(tokens: &[Token]) -> ItemTree {
        ItemTree {
            fns: collect_fns(tokens),
            map_bindings: collect_map_bindings(tokens),
        }
    }

    /// Whether `name` is a tracked unordered-map binding.
    pub fn is_map(&self, name: &str) -> bool {
        self.map_bindings.contains(name)
    }
}

/// Index of the `}` matching the `{` at `open`, or `None` when the file
/// is truncated mid-block.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
pub fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn collect_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(u8) -> u8` function-pointer type, not an item
        }
        let is_pub = i >= 1 && tokens[i - 1].is_ident("pub");
        // Scan the signature for the body `{` (or a `;` for bodyless
        // trait methods) at parenthesis/bracket depth 0. Braces cannot
        // appear in a signature before the body in the subset of Rust
        // this workspace uses.
        let mut body = None;
        let mut depth = 0usize;
        let mut j = i + 2;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                body = matching_brace(tokens, j).map(|end| (j, end));
                break;
            }
            j += 1;
        }
        fns.push(FnItem {
            name: name_tok.text.clone(),
            fn_idx: i,
            name_idx: i + 1,
            is_pub,
            body,
        });
    }
    fns
}

/// Collects names bound to unordered-map types anywhere in the file:
/// `name: [&][mut] [path::]FastMap<…>` (fields, params, annotated lets)
/// and `[let [mut]] name = [path::]FastMap::…` (constructor
/// assignments).
fn collect_map_bindings(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !MAP_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Walk back over a `path::` prefix (`st_types::FastMap`,
        // `std::collections::HashMap`).
        let mut j = i;
        while j >= 3
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && tokens[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // Type-annotation position: skip `&`, `mut` and lifetimes
        // between the `:` and the type.
        let mut k = j - 1;
        while k > 0
            && (tokens[k].is_punct('&')
                || tokens[k].is_ident("mut")
                || tokens[k].kind == TokenKind::Lifetime)
        {
            k -= 1;
        }
        if tokens[k].is_punct(':') && k >= 1 && !tokens[k - 1].is_punct(':') {
            if tokens[k - 1].kind == TokenKind::Ident {
                names.insert(tokens[k - 1].text.clone());
            }
            continue;
        }
        // Constructor-assignment position: `name = FastMap::default()`.
        if tokens[j - 1].is_punct('=')
            && j >= 2
            && !tokens[j - 2].is_punct('=')
            && !tokens[j - 2].is_punct('!')
            && !tokens[j - 2].is_punct('<')
            && !tokens[j - 2].is_punct('>')
            && tokens[j - 2].kind == TokenKind::Ident
        {
            names.insert(tokens[j - 2].text.clone());
        }
    }
    names
}

/// One `for … in expr { body }` loop found inside a function body.
#[derive(Clone, Debug)]
pub struct ForLoop {
    /// Token index of the `for` keyword.
    pub for_idx: usize,
    /// Iterated expression as a half-open token range (after `in`, up to
    /// the body `{`).
    pub expr: (usize, usize),
    /// Loop body as inclusive `{`/`}` token indices.
    pub body: (usize, usize),
}

/// Finds the `for` loops inside one body span (inclusive brace
/// indices). `impl Trait for Type` headers never appear inside fn
/// bodies, so every `for` here is a loop (or an HRTB `for<…>`, which is
/// skipped because it has no `in`).
pub fn for_loops(tokens: &[Token], body: (usize, usize)) -> Vec<ForLoop> {
    let mut loops = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        if tokens[i].is_ident("for") {
            if let Some(l) = parse_for(tokens, i, body.1) {
                i += 1; // nested loops inside this body still scanned
                loops.push(l);
                continue;
            }
        }
        i += 1;
    }
    loops
}

fn parse_for(tokens: &[Token], for_idx: usize, limit: usize) -> Option<ForLoop> {
    // Locate `in` at bracket depth 0 (a pattern may contain tuples).
    let mut depth = 0usize;
    let mut j = for_idx + 1;
    let in_idx = loop {
        if j >= limit {
            return None;
        }
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_ident("in") {
            break j;
        } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return None; // `for<'a>` HRTB or malformed — not a loop
        }
        j += 1;
    };
    // The iterated expression runs to the body `{` at depth 0. A struct
    // literal cannot appear un-parenthesised in a `for` header, so the
    // first depth-0 `{` is the body.
    depth = 0;
    let mut k = in_idx + 1;
    let open = loop {
        if k >= limit {
            return None;
        }
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('{') {
            break k;
        }
        k += 1;
    };
    let close = matching_brace(tokens, open)?;
    Some(ForLoop {
        for_idx,
        expr: (in_idx + 1, open),
        body: (open, close),
    })
}

/// Walks a method-call chain starting at the call-open parenthesis
/// `open` (the `(` of the first call): returns every *subsequent*
/// method name in the chain (`recv.iter().map(...).collect()` starting
/// at `iter`'s `(` yields `["map", "collect"]`). Turbofish
/// (`.collect::<Vec<_>>()`) and `?` are stepped over.
pub fn chain_methods(tokens: &[Token], open: usize) -> Vec<String> {
    let mut methods = Vec::new();
    let mut pos = match matching_paren(tokens, open) {
        Some(close) => close + 1,
        None => return methods,
    };
    loop {
        // Optional `?` after the previous call.
        if tokens.get(pos).is_some_and(|t| t.is_punct('?')) {
            pos += 1;
        }
        if !tokens.get(pos).is_some_and(|t| t.is_punct('.')) {
            return methods;
        }
        let Some(name) = tokens.get(pos + 1) else {
            return methods;
        };
        if name.kind != TokenKind::Ident {
            return methods; // tuple index `.0`
        }
        let mut next = pos + 2;
        // Turbofish: `::<…>` between the name and the call parens.
        if tokens.get(next).is_some_and(|t| t.is_punct(':'))
            && tokens.get(next + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(next + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut angle = 0isize;
            let mut m = next + 2;
            loop {
                let Some(t) = tokens.get(m) else {
                    return methods;
                };
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                m += 1;
            }
            next = m + 1;
        }
        if !tokens.get(next).is_some_and(|t| t.is_punct('(')) {
            // Field access mid-chain (`a.b.iter()` reached from `a`):
            // not a call — stop here; the scan restarts at later tokens.
            return methods;
        }
        methods.push(name.text.clone());
        pos = match matching_paren(tokens, next) {
            Some(close) => close + 1,
            None => return methods,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn collects_fns_with_bodies_and_visibility() {
        let src = "
pub fn alpha(x: u8) -> u8 { x + 1 }
fn beta() { if true { } }
pub(crate) fn gamma();
trait T { fn delta(&self); fn epsilon(&self) { } }
";
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed.tokens);
        let names: Vec<(&str, bool, bool)> = tree
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.body.is_some()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha", true, true),
                ("beta", false, true),
                ("gamma", false, false),
                ("delta", false, false),
                ("epsilon", false, true),
            ]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn real(cb: fn(u8) -> u8) -> u8 { cb(1) }";
        let tree = ItemTree::build(&lex(src).tokens);
        assert_eq!(tree.fns.len(), 1);
        assert_eq!(tree.fns[0].name, "real");
    }

    #[test]
    fn map_bindings_cover_fields_lets_params_and_ctors() {
        let src = "
struct S {
    seen: FastSet<u64>,
    index: st_types::FastMap<u64, u32>,
    plain: Vec<u64>,
}
fn f(tally: &FastMap<u8, u8>, v: &[u8]) {
    let mut local = FastSet::default();
    let annotated: std::collections::HashMap<u8, u8> = Default::default();
    let not_a_map = Vec::new();
    let _ = (local.len(), annotated.len(), not_a_map.len(), v.len());
}
";
        let tree = ItemTree::build(&lex(src).tokens);
        for name in ["seen", "index", "tally", "local", "annotated"] {
            assert!(tree.is_map(name), "missing binding {name}");
        }
        for name in ["plain", "not_a_map", "v", "S", "f"] {
            assert!(!tree.is_map(name), "false binding {name}");
        }
    }

    #[test]
    fn tuple_nested_map_types_do_not_bind_the_outer_name() {
        // `decided: Vec<(BlockId, FastSet<TxId>)>` — the Vec iterates in
        // insertion order; `decided` must not be treated as a map.
        let src = "struct S { decided: Vec<(BlockId, FastSet<TxId>)> }";
        let tree = ItemTree::build(&lex(src).tokens);
        assert!(!tree.is_map("decided"));
    }

    #[test]
    fn for_loops_are_found_with_expr_and_body_spans() {
        let src = "
fn f(m: &FastMap<u8, u8>) {
    for (k, v) in m.iter() {
        for x in 0..*v {
            use_it(*k, x);
        }
    }
}
";
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed.tokens);
        let body = tree.fns[0].body.unwrap();
        let loops = for_loops(&lexed.tokens, body);
        assert_eq!(loops.len(), 2);
        let (es, ee) = loops[0].expr;
        let expr: Vec<&str> = lexed.tokens[es..ee]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(expr, vec!["m", ".", "iter", "(", ")"]);
        assert!(loops[1].body.0 > loops[0].body.0);
        assert!(loops[1].body.1 < loops[0].body.1);
    }

    #[test]
    fn chain_methods_walk_calls_turbofish_and_question_marks() {
        let src = "fn f() { m.iter().map(|(a, b)| (b, a)).collect::<Vec<_>>().first()?.check(); }";
        let lexed = lex(src);
        // Find the `(` after `iter`.
        let iter_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("iter"))
            .unwrap();
        let methods = chain_methods(&lexed.tokens, iter_idx + 1);
        assert_eq!(methods, vec!["map", "collect", "first", "check"]);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f() { let g: Box<dyn for<'a> Fn(&'a u8)> = mk(); g(&1); }";
        let lexed = lex(src);
        let tree = ItemTree::build(&lexed.tokens);
        let loops = for_loops(&lexed.tokens, tree.fns[0].body.unwrap());
        assert!(loops.is_empty(), "{loops:?}");
    }
}
