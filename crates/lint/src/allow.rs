//! The `stlint::allow` escape hatch.
//!
//! Grammar (inside any `//` or `/* … */` comment):
//!
//! ```text
//! stlint::allow(<rule>, reason = "<non-empty text>")
//! ```
//!
//! `<rule>` is a rule id (`N1`) or slug (`iterorder`). The reason is
//! **mandatory**: an annotation without one does not suppress anything
//! and is itself reported as an `A1` diagnostic — the whole point of
//! the hatch is that every suppressed site states the invariant that
//! makes it safe. Only N1 and DP findings are suppressible this way;
//! compiler lints take `#[expect(lint, reason = "…")]` instead.
//!
//! Placement: a trailing comment suppresses its own line; a comment
//! alone on its line suppresses the next code line. Example:
//!
//! ```text
//! // stlint::allow(iterorder, reason = "xor-fold is commutative")
//! let digest = seen.iter().fold(0, |acc, x| acc ^ x);
//! ```

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Comment, Token};

/// A parsed, well-formed allow annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule being suppressed.
    pub rule: RuleId,
    /// The stated reason (non-empty by construction).
    pub reason: String,
    /// The source line whose diagnostics this annotation suppresses.
    pub target_line: u32,
}

/// Extracts allow annotations from a file's comments. Malformed
/// annotations are returned as `A1` diagnostics instead of [`Allow`]s.
///
/// `tokens` supplies the "next code line" for own-line comments.
pub fn collect_allows(
    file: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<Allow>, Vec<Diagnostic>) {
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
            Ok((rule, reason)) => {
                let target_line = if c.own_line {
                    tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.end_line)
                        .unwrap_or(c.end_line + 1)
                } else {
                    c.line
                };
                allows.push(Allow {
                    rule,
                    reason,
                    target_line,
                });
            }
            Err(why) => {
                diags.push(Diagnostic::new(
                    RuleId::A1,
                    file,
                    c.line,
                    1,
                    format!("malformed stlint::allow annotation ({why}); it suppresses nothing"),
                ));
            }
        }
    }
    (allows, diags)
}

/// Parses `stlint::allow(rule, reason = "…")…` from the start of `s`.
fn parse_allow(s: &str) -> Result<(RuleId, String), String> {
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
    let Some(rule) = RuleId::parse(rule_name) else {
        return Err(format!("unknown rule `{rule_name}`"));
    };
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
    let reason = value[..end].trim();
    if reason.is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule, reason.to_string()))
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

/// Whether `allows` suppresses `rule` at `line`.
pub fn suppressed(allows: &[Allow], rule: RuleId, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && a.target_line == line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_file(src: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
        let lexed = lex(src);
        collect_allows("f.rs", &lexed.comments, &lexed.tokens)
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let (allows, diags) = parse_file(
            "let v: Vec<_> = m.keys().collect(); // stlint::allow(iterorder, reason = \"sorted below\")\n",
        );
        assert!(diags.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, RuleId::N1);
        assert_eq!(allows[0].target_line, 1);
        assert_eq!(allows[0].reason, "sorted below");
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "// stlint::allow(DP, reason = \"kept for the socket runtime\")\n// more prose\npub fn f() {}\n";
        let (allows, diags) = parse_file(src);
        assert!(diags.is_empty());
        assert_eq!(allows[0].target_line, 3);
    }

    #[test]
    fn missing_reason_is_rejected_and_reported() {
        let (allows, diags) = parse_file("pub fn f() {} // stlint::allow(deadpub)\n");
        assert!(allows.is_empty());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::A1);
        assert!(diags[0].message.contains("missing `reason"));
    }

    #[test]
    fn empty_reason_is_rejected() {
        let (allows, diags) = parse_file("// stlint::allow(N1, reason = \"  \")\nm.keys();\n");
        assert!(allows.is_empty());
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn unknown_rule_is_rejected() {
        // `panic` was a rule until clippy took it over; it is unknown now.
        for rule in ["Z9", "panic"] {
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
        assert!(diags.is_empty());
        assert_eq!(allows[0].reason, "see fn docs (above)");
    }

    #[test]
    fn doc_comments_are_inert() {
        let src = "/// stlint::allow(iterorder, reason = \"doc example\")\n//! stlint::allow(bogus)\nfn f() {}\n";
        let (allows, diags) = parse_file(src);
        assert!(allows.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn suppression_is_rule_and_line_scoped() {
        let allows = vec![Allow {
            rule: RuleId::N1,
            reason: "r".into(),
            target_line: 4,
        }];
        assert!(suppressed(&allows, RuleId::N1, 4));
        assert!(!suppressed(&allows, RuleId::N1, 5));
        assert!(!suppressed(&allows, RuleId::DP, 4));
    }
}
