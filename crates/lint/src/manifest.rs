//! L1: `Cargo.toml` dependency layering and the offline third-party
//! policy, over a hand-rolled TOML subset.
//!
//! The legal dependency direction is strictly down the stack:
//!
//! ```text
//! st-types / st-load → st-crypto → st-blocktree → st-messages
//!          → st-ga → st-core → st-sim → st-node
//!          → st-bench / sleepy-tob
//! ```
//!
//! plus three side conditions: nothing depends on `st-bench` (it is the
//! top of the stack and the only crate allowed wall-clock time); only
//! `st-bench` and `sleepy-tob` depend on `st-node`; and external
//! dependencies are restricted to the offline `third_party/` set
//! (`proptest` dev-only).

use crate::diag::{Diagnostic, RuleId};

/// Stack position of each workspace package. A package may depend (in
/// `[dependencies]`) only on packages with a strictly smaller layer.
pub const LAYERS: [(&str, u8); 12] = [
    ("st-types", 0),
    // Dependency-free workload vocabulary (generators, mempool,
    // histogram): sits at the bottom so st-sim and st-bench can both
    // consume it without a cycle.
    ("st-load", 0),
    ("st-crypto", 1),
    ("st-blocktree", 2),
    ("st-messages", 3),
    ("st-ga", 4),
    ("st-core", 5),
    ("st-sim", 6),
    ("st-node", 7),
    ("st-bench", 8),
    ("sleepy-tob", 8),
    // The linter polices the graph, so it sits outside it: layer 0 with
    // no st-* dependencies at all.
    ("st-lint", 0),
];

/// External crates the offline `third_party/` tree provides. Anything
/// else in a dependency table cannot resolve without a registry.
pub const ALLOWED_EXTERNALS: [&str; 5] =
    ["serde", "serde_derive", "serde_json", "rand", "proptest"];

fn layer_of(name: &str) -> Option<u8> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l)
}

/// One `name = …` entry from a dependency table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEntry {
    /// Dependency name (the table key).
    pub name: String,
    /// 1-based line of the entry.
    pub line: u32,
    /// Whether it came from `[dev-dependencies]`.
    pub dev: bool,
}

/// The slice of a `Cargo.toml` the layering rule needs.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// `package.name`, if present (virtual workspace roots have none).
    pub package_name: Option<String>,
    /// Entries of `[dependencies]`, `[dev-dependencies]` and
    /// `[build-dependencies]` (build-deps are treated like deps).
    pub deps: Vec<DepEntry>,
}

/// Parses the subset of TOML that dependency tables use: `[section]`
/// headers, `key = value` lines, `#` comments. Inline-table values are
/// not inspected — only the key matters.
pub fn parse_manifest(src: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = (i + 1) as u32;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let end = rest.find(']').unwrap_or(rest.len());
            section = rest[..end].trim().to_string();
            // `[dependencies.foo]` names a dependency in the header.
            for (table, dev) in [
                ("dependencies.", false),
                ("dev-dependencies.", true),
                ("build-dependencies.", false),
            ] {
                if let Some(dep) = section.strip_prefix(table) {
                    m.deps.push(DepEntry {
                        name: unquote(dep),
                        line: lineno,
                        dev,
                    });
                }
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            continue;
        };
        let key = unquote(line[..eq].trim());
        let value = line[eq + 1..].trim();
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = Some(unquote(value));
            }
            "dependencies" | "build-dependencies" => {
                m.deps.push(DepEntry {
                    name: key,
                    line: lineno,
                    dev: false,
                });
            }
            "dev-dependencies" => {
                m.deps.push(DepEntry {
                    name: key,
                    line: lineno,
                    dev: true,
                });
            }
            _ => {}
        }
    }
    m
}

fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

/// Runs the L1 checks over one parsed manifest. `rel_path` is the
/// workspace-relative `Cargo.toml` path used in diagnostics.
pub fn check_layering(rel_path: &str, m: &Manifest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(name) = m.package_name.as_deref() else {
        return out; // virtual workspace root: nothing to check
    };
    let Some(my_layer) = layer_of(name) else {
        out.push(Diagnostic::new(
            RuleId::L1,
            rel_path,
            1,
            1,
            format!(
                "package `{name}` has no layer assignment; add it to st_lint::manifest::LAYERS \
                 so the dependency direction stays explicit",
            ),
        ));
        return out;
    };
    for dep in &m.deps {
        let dep_name = dep.name.as_str();
        if dep_name == "st-bench" {
            out.push(Diagnostic::new(
                RuleId::L1,
                rel_path,
                dep.line,
                1,
                "nothing may depend on st-bench: it is the top of the stack and the only \
                 crate allowed wall-clock time",
            ));
            continue;
        }
        if dep_name == "st-node" && !matches!(name, "st-bench" | "sleepy-tob") {
            out.push(Diagnostic::new(
                RuleId::L1,
                rel_path,
                dep.line,
                1,
                "only st-bench and sleepy-tob may depend on st-node: the socket runtime is a \
                 deployment leaf, and letting protocol or simulator crates reach it would pull \
                 real I/O back under the deterministic layers",
            ));
            continue;
        }
        if let Some(dep_layer) = layer_of(dep_name) {
            if !dep.dev && dep_layer >= my_layer {
                out.push(Diagnostic::new(
                    RuleId::L1,
                    rel_path,
                    dep.line,
                    1,
                    format!(
                        "`{name}` (layer {my_layer}) may only depend on crates strictly below \
                         it, but `{dep_name}` is layer {dep_layer}; the legal direction is \
                         types → crypto → blocktree → messages → ga → core → sim → \
                         node → bench",
                    ),
                ));
            }
        } else if dep_name == "proptest" {
            if !dep.dev {
                out.push(Diagnostic::new(
                    RuleId::L1,
                    rel_path,
                    dep.line,
                    1,
                    "proptest is a test-only dependency; move it to [dev-dependencies]",
                ));
            }
        } else if !ALLOWED_EXTERNALS.contains(&dep_name) {
            out.push(Diagnostic::new(
                RuleId::L1,
                rel_path,
                dep.line,
                1,
                format!(
                    "external dependency `{dep_name}` is not in the offline third_party/ set \
                     ({}); the build environment has no registry access",
                    ALLOWED_EXTERNALS.join(", "),
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Diagnostic> {
        check_layering("Cargo.toml", &parse_manifest(src))
    }

    #[test]
    fn parses_sections_and_keys() {
        let m = parse_manifest(
            "[package]\nname = \"st-core\"\n[dependencies]\nst-types = { workspace = true }\n[dev-dependencies]\nproptest = { workspace = true }\n",
        );
        assert_eq!(m.package_name.as_deref(), Some("st-core"));
        assert_eq!(m.deps.len(), 2);
        assert!(!m.deps[0].dev);
        assert!(m.deps[1].dev);
    }

    #[test]
    fn dotted_dependency_headers_count() {
        let m = parse_manifest(
            "[package]\nname = \"st-core\"\n[dependencies.st-types]\npath = \"../types\"\n",
        );
        assert_eq!(m.deps.len(), 1);
        assert_eq!(m.deps[0].name, "st-types");
    }

    #[test]
    fn downward_deps_are_legal() {
        let diags = check(
            "[package]\nname = \"st-sim\"\n[dependencies]\nst-types = {}\nst-core = {}\nserde = {}\n[dev-dependencies]\nproptest = {}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn upward_dep_fires() {
        let diags = check("[package]\nname = \"st-types\"\n[dependencies]\nst-sim = {}\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("strictly below"));
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn nothing_depends_on_bench() {
        let diags = check("[package]\nname = \"sleepy-tob\"\n[dev-dependencies]\nst-bench = {}\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("st-bench"));
    }

    #[test]
    fn st_node_is_restricted_to_its_two_consumers() {
        let ok = check("[package]\nname = \"st-bench\"\n[dependencies]\nst-node = {}\n");
        assert!(ok.is_empty(), "{ok:?}");
        let ok2 = check("[package]\nname = \"sleepy-tob\"\n[dependencies]\nst-node = {}\n");
        assert!(ok2.is_empty(), "{ok2:?}");
        // Even a consumer below st-node's layer is rejected: the
        // restriction is by name, not layer.
        let bad = check("[package]\nname = \"st-sim\"\n[dependencies]\nst-node = {}\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("deployment leaf"));
        // dev-dependencies don't escape the restriction either.
        let bad2 = check("[package]\nname = \"st-core\"\n[dev-dependencies]\nst-node = {}\n");
        assert_eq!(bad2.len(), 1);
    }

    #[test]
    fn st_node_sits_above_core_below_bench() {
        let ok = check(
            "[package]\nname = \"st-node\"\n[dependencies]\nst-types = {}\nst-messages = {}\nst-core = {}\nserde = {}\nserde_json = {}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = check("[package]\nname = \"st-node\"\n[dependencies]\nst-sim = {}\n");
        assert!(bad.is_empty(), "sim (6) is below node (7): {bad:?}");
        let bad2 = check("[package]\nname = \"st-node\"\n[dependencies]\nsleepy-tob = {}\n");
        assert_eq!(
            bad2.len(),
            1,
            "the facade (8) is not strictly below node (7)"
        );
        assert!(bad2[0].message.contains("strictly below"));
    }

    #[test]
    fn st_load_sits_below_sim_both_directions() {
        // st-sim consuming st-load is the legal direction…
        let ok =
            check("[package]\nname = \"st-sim\"\n[dependencies]\nst-load = {}\nst-core = {}\n");
        assert!(ok.is_empty(), "{ok:?}");
        // …and st-bench may reach it too (layer 0 is below everything).
        let ok2 = check("[package]\nname = \"st-bench\"\n[dependencies]\nst-load = {}\n");
        assert!(ok2.is_empty(), "{ok2:?}");
        // st-load itself is dependency-free: any st-* dependency — even
        // the bottom layer — fails the strictly-below rule.
        let bad = check("[package]\nname = \"st-load\"\n[dependencies]\nst-sim = {}\n");
        assert_eq!(bad.len(), 1, "upward dep must fire");
        assert!(bad[0].message.contains("strictly below"));
        let bad2 = check("[package]\nname = \"st-load\"\n[dependencies]\nst-types = {}\n");
        assert_eq!(bad2.len(), 1, "same layer is not strictly below");
    }

    #[test]
    fn proptest_must_be_dev() {
        let bad = check("[package]\nname = \"st-ga\"\n[dependencies]\nproptest = {}\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("dev-dependencies"));
    }

    #[test]
    fn unknown_external_fires_offline_policy() {
        let bad = check("[package]\nname = \"st-core\"\n[dependencies]\ntokio = \"1\"\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("no registry access"));
    }

    #[test]
    fn unknown_package_needs_layer_assignment() {
        let bad = check("[package]\nname = \"st-mystery\"\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("layer assignment"));
    }
}
