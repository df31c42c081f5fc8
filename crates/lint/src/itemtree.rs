//! The `fn` items of a token stream, with brace-matched bodies: the
//! structure deadpub's item graph stands on.
//!
//! The lexer gives rules *lexical* accuracy (strings and doc comments
//! are inert, `#[cfg(test)]` regions are masked); this module adds every
//! `fn` item with its name, visibility and body span without pulling in
//! `syn`, so deadpub can tell a function's own body from a reference to
//! it.

use crate::lexer::{Token, TokenKind};

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

/// Index of the `}` matching the `{` at `open`, or `None` when the file
/// is truncated mid-block.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
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

/// Every `fn` item in the token stream, in source order (nested fns
/// included).
pub fn collect_fns(tokens: &[Token]) -> Vec<FnItem> {
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
        let fns = collect_fns(&lex(src).tokens);
        let names: Vec<(&str, bool, bool)> = fns
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
        let fns = collect_fns(&lex(src).tokens);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }
}
