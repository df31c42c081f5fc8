//! Diagnostics: rule identities, reporting, and `--json` serialization.

use std::fmt;

/// The rule families `stlint` enforces. Each has a short id (used in
/// reports) and a mnemonic slug (accepted interchangeably in
/// `stlint::allow(...)` annotations). The retired ids D1, D2, P1 and U1
/// are compiler lints now (see the crate docs), so an annotation naming
/// them is an unknown rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `Cargo.toml` layering: dependencies must point strictly down the
    /// crate stack; nothing depends on `st-bench`; only `st-bench` and
    /// `sleepy-tob` depend on `st-node`; externals restricted to the
    /// offline `third_party/` set.
    L1,
    /// Allow-annotation hygiene: `stlint::allow(...)` must name a known
    /// rule and carry a non-empty `reason = "..."`. Lint attributes are
    /// held to the same standard by `clippy::allow_attributes_without_reason`.
    A1,
    /// Nondeterminism flow: iterating a `FastMap`/`FastSet`/`HashMap`/
    /// `HashSet` in protocol-crate non-test code where the iteration
    /// order can reach an ordered sink (`push`/`extend`/`insert`/send
    /// inside the loop body, or a `collect`/`fold`-style chain) — route
    /// through `st_types::fasthash::{iter_sorted, set_into_sorted_vec}` or
    /// state the order-insensitivity invariant in an allow.
    N1,
    /// Dead public API: a `pub fn` in crate `src/` that no production code
    /// names — a package's `src/` (bins included) or `examples/`, outside
    /// `#[cfg(test)]` regions and `pub use` re-exports (item-graph
    /// resolved: occurrences inside the defining function's own body don't
    /// count).
    DP,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 4] = [RuleId::L1, RuleId::A1, RuleId::N1, RuleId::DP];

impl RuleId {
    /// Short id, e.g. `"N1"`.
    pub fn key(self) -> &'static str {
        match self {
            RuleId::L1 => "L1",
            RuleId::A1 => "A1",
            RuleId::N1 => "N1",
            RuleId::DP => "DP",
        }
    }

    /// Mnemonic slug, e.g. `"iterorder"`.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::L1 => "layering",
            RuleId::A1 => "allow",
            RuleId::N1 => "iterorder",
            RuleId::DP => "deadpub",
        }
    }

    /// One-line description for `stlint rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::L1 => "Cargo.toml dependency layering and offline third_party policy",
            RuleId::A1 => "stlint::allow annotations must name a known rule and give a reason",
            RuleId::N1 => {
                "unordered-map iteration feeding an ordered sink in protocol non-test code \
                 (use st_types::fasthash::iter_sorted/set_into_sorted_vec)"
            }
            RuleId::DP => "pub fn no production code reaches (tests and re-exports do not count)",
        }
    }

    /// Resolves an id or slug as written in an allow annotation.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES
            .into_iter()
            .find(|r| r.key().eq_ignore_ascii_case(s) || r.slug() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.key(), self.slug())
    }
}

/// One finding: rule, location, and a message saying what to do instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column (1 when the finding has no finer location,
    /// e.g. manifest-level L1). Part of the stable sort key.
    pub col: u32,
    /// Human message.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        rule: RuleId,
        file: impl Into<String>,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            col,
            message: message.into(),
        }
    }

    /// The byte-stable ordering every report surface uses:
    /// (path, line, col, rule).
    pub fn sort_key(&self) -> (&str, u32, u32, RuleId) {
        (&self.file, self.line, self.col, self.rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a check run as a JSON object (`--json`): schema version,
/// scan summary, and the diagnostics array. Hand-rolled — the linter is
/// dependency-free by design.
pub fn to_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"slug\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            d.rule.key(),
            d.rule.slug(),
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_accepts_id_and_slug() {
        assert_eq!(RuleId::parse("N1"), Some(RuleId::N1));
        assert_eq!(RuleId::parse("n1"), Some(RuleId::N1));
        assert_eq!(RuleId::parse("iterorder"), Some(RuleId::N1));
        assert_eq!(RuleId::parse("panic"), None);
        assert_eq!(RuleId::parse("nonsense"), None);
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic::new(RuleId::N1, "a\"b.rs", 3, 5, "say \"no\"")];
        let json = to_json(&diags, 7);
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\"col\": 5"));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("say \\\"no\\\""));
    }

    #[test]
    fn empty_diags_render_empty_array() {
        let json = to_json(&[], 0);
        assert!(json.contains("\"diagnostics\": []"));
    }
}
