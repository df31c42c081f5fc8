//! The `stlint::allow` escape hatch.
//!
//! Grammar (inside any `//` or `/* … */` comment):
//!
//! ```text
//! stlint::allow(deadpub, reason = "<non-empty text>")
//! ```
//!
//! The reason is **mandatory**: an annotation without one, or naming
//! anything but `deadpub` (such as a retired rule), does not suppress
//! anything and is itself a deadpub finding — the whole point of the
//! hatch is that every kept function states why it is public. Compiler
//! lints take `#[expect(lint, reason = "…")]` instead.
//!
//! Placement: a trailing comment targets its own line; a comment alone
//! on its line targets the next code line. A function is kept by an
//! annotation targeting any line of it, signature or body. Example:
//!
//! ```text
//! pub fn set_hasher_seed(seed: u64) {
//!     // stlint::allow(deadpub, reason = "the hasher-perturbation test's seed switch")
//!     HASHER_SEED.store(seed, Ordering::Relaxed);
//! }
//! ```

use crate::lexer::{Comment, Token};
use crate::Diagnostic;

/// The lines a file's well-formed allow annotations target. Malformed
/// annotations come back as findings instead.
///
/// `tokens` supplies the "next code line" for own-line comments.
pub fn collect_allows(
    file: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<u32>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Doc comments are documentation, not directives: a `///` code
        // example showing the annotation grammar must neither suppress
        // anything nor be reported as malformed.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("stlint::allow") else {
            continue;
        };
        match parse_allow(&c.text[at..]) {
            Ok(()) => {
                let target_line = if c.own_line {
                    tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.end_line)
                        .unwrap_or(c.end_line + 1)
                } else {
                    c.line
                };
                allows.push(target_line);
            }
            Err(why) => {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: c.line,
                    col: 1,
                    message: format!(
                        "malformed stlint::allow annotation ({why}); it suppresses nothing"
                    ),
                });
            }
        }
    }
    (allows, diags)
}

/// Checks `stlint::allow(deadpub, reason = "…")…` at the start of `s`.
fn parse_allow(s: &str) -> Result<(), String> {
    let rest = s
        .strip_prefix("stlint::allow")
        .expect("caller located the prefix");
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after stlint::allow".to_string());
    };
    let Some(close) = find_closing_paren(rest) else {
        return Err("missing closing `)`".to_string());
    };
    let body = &rest[..close];
    let (rule_part, reason_part) = match body.find(',') {
        Some(i) => (&body[..i], Some(&body[i + 1..])),
        None => (body, None),
    };
    let rule_name = rule_part.trim();
    if rule_name != "deadpub" {
        return Err(format!(
            "unknown rule `{rule_name}`; the only rule is `deadpub`"
        ));
    }
    let Some(reason_part) = reason_part else {
        return Err("missing `reason = \"…\"` — every allow must state its invariant".to_string());
    };
    let reason_part = reason_part.trim();
    let Some(value) = reason_part.strip_prefix("reason") else {
        return Err("expected `reason = \"…\"` after the rule".to_string());
    };
    let value = value.trim_start();
    let Some(value) = value.strip_prefix('=') else {
        return Err("expected `=` after `reason`".to_string());
    };
    let value = value.trim_start();
    let Some(value) = value.strip_prefix('"') else {
        return Err("reason must be a quoted string".to_string());
    };
    let Some(end) = value.find('"') else {
        return Err("unterminated reason string".to_string());
    };
    if value[..end].trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok(())
}

/// Index of the `)` closing the annotation body, respecting quoted
/// strings (a `)` inside the reason does not close the call).
fn find_closing_paren(s: &str) -> Option<usize> {
    let mut in_string = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ')' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_file(src: &str) -> (Vec<u32>, Vec<Diagnostic>) {
        let lexed = lex(src);
        collect_allows("f.rs", &lexed.comments, &lexed.tokens)
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let (allows, diags) = parse_file(
            "pub fn f() {} // stlint::allow(deadpub, reason = \"driven by the oracle test\")\n",
        );
        assert!(diags.is_empty());
        assert_eq!(allows, [1]);
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "// stlint::allow(deadpub, reason = \"kept for the socket runtime\")\n// more prose\npub fn f() {}\n";
        let (allows, diags) = parse_file(src);
        assert!(diags.is_empty());
        assert_eq!(allows, [3]);
    }

    #[test]
    fn missing_reason_is_rejected_and_reported() {
        let (allows, diags) = parse_file("pub fn f() {} // stlint::allow(deadpub)\n");
        assert!(allows.is_empty());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("missing `reason"));
    }

    #[test]
    fn empty_reason_is_rejected() {
        let (allows, diags) =
            parse_file("// stlint::allow(deadpub, reason = \"  \")\npub fn f() {}\n");
        assert!(allows.is_empty());
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn unknown_rule_is_rejected() {
        // `panic` was a rule until clippy took it over, N1 until the hash
        // tables lost their unordered walks, and `DP` was deadpub's alias;
        // all are unknown now.
        for rule in ["Z9", "panic", "N1", "DP"] {
            let (allows, diags) = parse_file(&format!(
                "// stlint::allow({rule}, reason = \"whatever\")\nf();\n"
            ));
            assert!(allows.is_empty());
            assert!(diags[0].message.contains("unknown rule"));
        }
    }

    #[test]
    fn reason_may_contain_parens() {
        let (allows, diags) =
            parse_file("f(); // stlint::allow(deadpub, reason = \"see fn docs (above)\")\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(allows, [1]);
    }

    #[test]
    fn doc_comments_are_inert() {
        let src = "/// stlint::allow(deadpub, reason = \"doc example\")\n//! stlint::allow(bogus)\nfn f() {}\n";
        let (allows, diags) = parse_file(src);
        assert!(allows.is_empty());
        assert!(diags.is_empty());
    }
}
