//! A hand-rolled Rust tokenizer — just enough fidelity for lint rules.
//!
//! The offline `third_party/` policy rules out `syn`; none of the rules
//! need a parse tree anyway. What they do need, and what a regex sweep
//! cannot provide, is *lexical* accuracy: a `fn` name quoted in a string
//! literal is no reference for deadpub, and an allow annotation quoted
//! there is no directive.
//! So the lexer does full string/char/comment/raw-literal recognition
//! and throws literal *contents* away, keeping only identifiers,
//! punctuation and source lines.
//!
//! Comments are preserved separately (with position info) because the
//! `stlint::allow(...)` escape hatch lives in them — see
//! [`crate::allow`].

/// What a token is. Literal contents are discarded: no rule inspects
/// them, and discarding is what makes string-embedded keywords inert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (raw identifiers are unescaped: `r#fn` → `fn`).
    Ident,
    /// A single punctuation character; multi-char operators arrive as
    /// consecutive tokens (`::` is two `:`).
    Punct,
    /// String, char, byte or numeric literal (contents dropped).
    Literal,
    /// A lifetime such as `'a` (disambiguated from char literals).
    Lifetime,
}

/// One lexed token with its 1-based source line and column.
#[derive(Clone, Debug)]
pub struct Token {
    /// Kind of token.
    pub kind: TokenKind,
    /// Identifier text, or the punctuation character; empty for literals
    /// and lifetimes.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// 1-based byte column the token starts on — diagnostics sort by
    /// `(path, line, col, rule)`, so two findings on one line keep a
    /// stable order.
    pub col: u32,
}

impl Token {
    /// Whether this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }
}

/// One comment (line or block) with position info, for allow-annotation
/// extraction.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text including its `//` / `/*` introducer.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
    /// Whether only whitespace precedes the comment on its start line —
    /// an own-line comment annotates the *next* code line, a trailing
    /// comment annotates its own.
    pub own_line: bool,
}

/// Lexer output: the token stream plus the comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated literals/comments are tolerated (the
/// rest of the file is swallowed into the literal) — the linter must
/// never panic on weird input, and rustc will reject such files anyway.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Byte offset of the current line's first byte, for column tracking.
    line_start: usize,
    out: Lexed,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        b
    }

    /// 1-based byte column of the current position.
    fn cur_col(&self) -> u32 {
        (self.pos - self.line_start + 1) as u32
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.quoted_string(false),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ => {
                    let line = self.line;
                    let col = self.cur_col();
                    let c = self.bump();
                    self.push(TokenKind::Punct, (c as char).to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn slice_line_start_is_blank(&self, start: usize) -> bool {
        // Walk backwards from `start` to the previous newline: all
        // whitespace means the comment owns its line.
        let mut i = start;
        while i > 0 {
            let b = self.src[i - 1];
            if b == b'\n' {
                return true;
            }
            if b != b' ' && b != b'\t' && b != b'\r' {
                return false;
            }
            i -= 1;
        }
        true
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        let own_line = self.slice_line_start_is_blank(start);
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.src[start..self.pos]).into_owned(),
            line,
            end_line: line,
            own_line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        let own_line = self.slice_line_start_is_blank(start);
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.src[start..self.pos]).into_owned(),
            line,
            end_line: self.line,
            own_line,
        });
    }

    /// A `"`-delimited string; `raw` disables backslash escapes.
    fn quoted_string(&mut self, raw: bool) {
        let line = self.line;
        let col = self.cur_col();
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            let b = self.bump();
            if b == b'"' {
                break;
            }
            if b == b'\\' && !raw {
                self.bump(); // escaped char (covers \" and \\)
            }
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    /// A raw string after its `r##…` prefix: `hashes` is the number of
    /// `#` marks; consumes through the matching `"##…` terminator.
    fn raw_string(&mut self, hashes: usize) {
        let line = self.line;
        let col = self.cur_col();
        self.bump(); // opening quote
        'outer: while self.pos < self.src.len() {
            if self.bump() == b'"' {
                for i in 0..hashes {
                    if self.peek(i) != b'#' {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let col = self.cur_col();
        self.bump(); // '\''
        let b = self.peek(0);
        if b == b'\\' {
            // Escaped char literal: '\n', '\'', '\u{…}'.
            self.bump();
            self.bump();
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump(); // closing quote
            self.push(TokenKind::Literal, String::new(), line, col);
        } else if is_ident_start(b) {
            // Could be 'a' (char) or 'a-lifetime. Consume the ident run,
            // then decide by whether a closing quote follows.
            let mut len = 1;
            while is_ident_continue(self.peek(len)) {
                len += 1;
            }
            if self.peek(len) == b'\'' {
                for _ in 0..=len {
                    self.bump();
                }
                self.push(TokenKind::Literal, String::new(), line, col);
            } else {
                for _ in 0..len {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, String::new(), line, col);
            }
        } else if b == b'\'' {
            // `''` — malformed; consume and move on.
            self.bump();
            self.push(TokenKind::Literal, String::new(), line, col);
        } else {
            // Plain char literal like '+' or '0'.
            self.bump();
            if self.peek(0) == b'\'' {
                self.bump();
            }
            self.push(TokenKind::Literal, String::new(), line, col);
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let col = self.cur_col();
        self.bump();
        loop {
            let b = self.peek(0);
            if is_ident_continue(b) {
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                // `1.5` continues the literal; `1..n` does not.
                self.bump();
            } else if (b == b'+' || b == b'-')
                && matches!(
                    self.src.get(self.pos.wrapping_sub(1)),
                    Some(&b'e') | Some(&b'E')
                )
            {
                // Exponent sign in `1.0e-9`.
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let col = self.cur_col();
        let start = self.pos;
        while is_ident_continue(self.peek(0)) {
            self.pos += 1; // idents contain no '\n'
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let next = self.peek(0);
        match (text.as_str(), next) {
            // String-literal prefixes: b"…", c"…" keep escapes; r"…" is raw.
            ("b" | "c", b'"') => self.quoted_string(false),
            ("r", b'"') => self.quoted_string(true),
            ("br" | "cr", b'"') => self.quoted_string(true),
            ("r" | "br" | "cr", b'#') => {
                // Count hashes; a quote after them opens a raw string,
                // otherwise (`r#ident`) it is a raw identifier.
                let mut hashes = 0;
                while self.peek(hashes) == b'#' {
                    hashes += 1;
                }
                if self.peek(hashes) == b'"' {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    self.raw_string(hashes);
                } else if text == "r" && is_ident_start(self.peek(1)) {
                    self.bump(); // '#'
                    let istart = self.pos;
                    while is_ident_continue(self.peek(0)) {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.src[istart..self.pos]).into_owned();
                    self.push(TokenKind::Ident, raw, line, col);
                } else {
                    self.push(TokenKind::Ident, text, line, col);
                }
            }
            ("b", b'\'') => {
                // Byte literal b'x'.
                self.char_or_lifetime();
            }
            _ => self.push(TokenKind::Ident, text, line, col),
        }
    }
}

/// Marks which tokens sit inside test-only code: any item annotated
/// `#[test]` or `#[cfg(test)]` (including `cfg(any(test, …))` — a
/// conservative over-approximation that can only suppress, never add,
/// diagnostics).
///
/// Region extent: from the attribute to the end of the annotated item —
/// the matching `}` of its first brace block, or the first `;` if one
/// appears before any brace (e.g. `#[cfg(test)] use …;`).
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(end) = test_attr_item_end(tokens, i) {
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If a test attribute starts at `i`, returns the index of the last
/// token of the annotated item.
fn test_attr_item_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens[i].is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    // Find the attribute's closing ']' and check it mentions `test` in a
    // testing position: `#[test]`, `#[tokio::test]`, `#[cfg(test…)]`.
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut is_test = false;
    let mut saw_cfg = false;
    loop {
        let t = tokens.get(j)?;
        if t.is_punct('[') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "cfg" && depth == 1 {
                saw_cfg = true;
            } else if t.text == "test" && (depth == 1 || saw_cfg) {
                is_test = true;
            }
        }
        j += 1;
    }
    if !is_test {
        return None;
    }
    // Skip any further attributes between this one and the item.
    let mut k = j + 1;
    while tokens.get(k)?.is_punct('#') && tokens.get(k + 1)?.is_punct('[') {
        let mut d = 0usize;
        k += 1;
        loop {
            let t = tokens.get(k)?;
            if t.is_punct('[') || t.is_punct('(') {
                d += 1;
            } else if t.is_punct(']') || t.is_punct(')') {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            k += 1;
        }
        k += 1;
    }
    // The item runs to its first top-level `;`, or through its first
    // brace block.
    let mut d = 0usize;
    loop {
        let t = tokens.get(k)?;
        if d == 0 && t.is_punct(';') {
            return Some(k);
        }
        if t.is_punct('{') {
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
            if d == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_keywords() {
        let src = r##"
            let s = "unsafe { panic!() }";
            // unsafe in a line comment
            /* unsafe /* nested */ still comment */
            let r = r#"unsafe "quoted" raw"#;
            let b = b"unsafe bytes";
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unsafe" || i == "panic"));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(chars, 1);
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "fn"]);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "let a = \"two\nlines\";\nunsafe {}";
        let lexed = lex(src);
        let u = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("unsafe"))
            .expect("unsafe token");
        assert_eq!(u.line, 3);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..n { x(1.5e-3); }";
        let ids = idents(src);
        assert!(ids.contains(&"n".to_string()));
        assert!(ids.contains(&"x".to_string()));
    }

    #[test]
    fn cfg_test_region_masks_module() {
        let src = "
fn live() { a.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { b.unwrap(); }
}
fn live2() { c.unwrap(); }
";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwraps: Vec<(u32, bool)> = lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(t, m)| (t.line, *m))
            .collect();
        assert_eq!(unwraps, vec![(2, false), (5, true), (7, false)]);
    }

    #[test]
    fn test_attr_on_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { x.unwrap(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwrap_masked = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .expect("unwrap token");
        assert!(!unwrap_masked);
        let hashmap_masked = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("HashMap"))
            .map(|(_, m)| *m)
            .expect("HashMap token");
        assert!(hashmap_masked);
    }

    #[test]
    fn cfg_any_test_is_conservatively_test() {
        let src = "#[cfg(any(test, feature = \"slow\"))]\nfn helper() { x.unwrap(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn own_line_vs_trailing_comments() {
        let src = "let a = 1; // trailing\n// own line\nlet b = 2;";
        let lexed = lex(src);
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].own_line);
    }
}
