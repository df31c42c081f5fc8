//! Fixture-driven self-tests: passing and failing specimens for L1, N1
//! and A1, with exact file/line assertions, synthetic workspaces for
//! deadpub's item graph and its production-reference rule, plus the
//! meta-test that the live workspace is lint-clean.
//!
//! The fixtures live under `tests/fixtures/`, which the workspace walker
//! deliberately skips — they exist to be linted *by hand* with a chosen
//! [`FileCtx`], as if they belonged to any crate.

use st_lint::manifest::{check_layering, parse_manifest};
use st_lint::{check_workspace, find_workspace_root, lint_source, Diagnostic, FileCtx, RuleId};

fn protocol_ctx(rel_path: &str) -> FileCtx<'_> {
    FileCtx {
        rel_path,
        crate_name: "st-core",
        test_file: false,
    }
}

fn lines_of(diags: &[Diagnostic], rule: RuleId) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn a1_rejects_reasonless_allows_and_keeps_the_finding() {
    let src = include_str!("fixtures/a1_no_reason.rs");
    let diags = lint_source(&protocol_ctx("fixtures/a1_no_reason.rs"), src);
    // Each of the three bad annotations (no reason, empty reason,
    // unknown rule) earns an A1 — and suppresses nothing, so the
    // underlying N1 finding on the same line survives.
    assert_eq!(lines_of(&diags, RuleId::A1), vec![6, 10, 14]);
    assert_eq!(lines_of(&diags, RuleId::N1), vec![6, 10, 14]);
    assert_eq!(diags.len(), 6, "{diags:?}");
}

#[test]
fn l1_fixture_fails_on_every_illegal_dependency() {
    let m = parse_manifest(include_str!("fixtures/layering_bad.toml"));
    assert_eq!(m.package_name.as_deref(), Some("st-types"));
    let diags = check_layering("fixtures/layering_bad.toml", &m);
    // st-core (upward), st-bench (forbidden target), regex (unknown
    // external), st-node (outside its two consumers), proptest
    // (non-dev) — one finding each, on the dependency's own line.
    assert_eq!(lines_of(&diags, RuleId::L1), vec![8, 9, 10, 11, 12]);
    assert!(diags.iter().any(|d| d.message.contains("strictly below")));
    assert!(diags.iter().any(|d| d.message.contains("st-bench")));
    assert!(diags.iter().any(|d| d.message.contains("`regex`")));
    assert!(diags.iter().any(|d| d.message.contains("deployment leaf")));
    assert!(diags.iter().any(|d| d.message.contains("dev-dependencies")));
}

#[test]
fn l1_fixture_passes_a_conforming_manifest() {
    let m = parse_manifest(include_str!("fixtures/layering_good.toml"));
    let diags = check_layering("fixtures/layering_good.toml", &m);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn live_workspace_is_lint_clean() {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&here).expect("test runs inside the workspace");
    let report = check_workspace(&root);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must stay lint-clean; run `cargo run -p st-lint -- check`:\n{:#?}",
        report.diagnostics
    );
    // Sanity: the walk actually visited the tree (all ten st-* crates
    // plus the facade contribute sources).
    assert!(report.files_scanned > 50, "{}", report.files_scanned);
}

#[test]
fn n1_fixture_fails_on_loop_and_chain_escapes() {
    let src = include_str!("fixtures/n1_fail.rs");
    let diags = lint_source(&protocol_ctx("fixtures/n1_fail.rs"), src);
    // Line 7: `support` iterated by a for-loop whose body pushes; line
    // 14: `seen.iter()…collect()` chain. The diagnostic anchors on the
    // map's name token.
    assert_eq!(lines_of(&diags, RuleId::N1), vec![7, 14]);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].message.contains("`support`"));
    assert!(diags[0].message.contains("iter_sorted"));
    assert!(diags[1].message.contains("`seen`"));
}

#[test]
fn n1_fixture_passes_adapters_commutative_and_allowed_sites() {
    let src = include_str!("fixtures/n1_pass.rs");
    let diags = lint_source(&protocol_ctx("fixtures/n1_pass.rs"), src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn n1_is_silent_in_test_files() {
    let src = include_str!("fixtures/n1_fail.rs");
    let ctx = FileCtx {
        rel_path: "fixtures/n1_fail.rs",
        crate_name: "st-core",
        test_file: true,
    };
    assert!(lines_of(&lint_source(&ctx, src), RuleId::N1).is_empty());
}

/// Builds a throwaway one-crate workspace on disk so the deadpub item
/// graph can be exercised end to end (it resolves references across the
/// whole tree, so `lint_source` alone cannot drive it). `files` are
/// paths relative to the crate directory, with their contents.
fn synthetic_workspace(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("stlint-deadpub-{}-{tag}", std::process::id()));
    let krate = root.join("crates/foo");
    std::fs::create_dir_all(&krate).unwrap();
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/foo\"]\n",
    )
    .unwrap();
    std::fs::write(krate.join("Cargo.toml"), "[package]\nname = \"st-foo\"\n").unwrap();
    for (path, contents) in files {
        let path = krate.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }
    root
}

/// The function names deadpub reports, in diagnostic order.
fn dead_names(root: &std::path::Path) -> Vec<String> {
    let diags = st_lint::dead_public_diagnostics(root);
    assert!(diags.iter().all(|d| d.rule == RuleId::DP));
    diags
        .iter()
        .map(|d| {
            let start = d.message.find('`').unwrap() + 1;
            d.message[start..start + d.message[start..].find('`').unwrap()].to_string()
        })
        .collect()
}

#[test]
fn deadpub_resolves_references_across_the_item_graph() {
    let root = synthetic_workspace(
        "graph",
        &[(
            "src/lib.rs",
            concat!(
        "pub fn used() -> u64 { 1 }\n",
        "pub fn dead() -> u64 { dead_helper() }\n",
        "fn dead_helper() -> u64 { 2 }\n",
        "pub fn kept() -> u64 { 3 } // stlint::allow(deadpub, reason = \"fixture survivor\")\n",
        "pub fn recursive_only(n: u64) -> u64 { if n == 0 { 0 } else { recursive_only(n - 1) } }\n",
        "fn caller() -> u64 { used() }\n",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::caller(), 1); }\n}\n",
            ),
        )],
    );
    let names = dead_names(&root);
    std::fs::remove_dir_all(&root).ok();
    // `used` is referenced, `kept` is allowed with a reason, `caller` is
    // private; `dead` has no callers (calling a private helper does not
    // save it) and `recursive_only`'s only mention is its own body.
    assert_eq!(names, ["dead", "recursive_only"]);
}

#[test]
fn deadpub_counts_only_production_references() {
    let root = synthetic_workspace(
        "origins",
        &[
            (
                "src/lib.rs",
                concat!(
                    "pub fn only_tests() {}\n",
                    "pub fn only_unit_tests() {}\n",
                    "pub fn only_reexported() {}\n",
                    "pub fn from_bin() {}\n",
                    "pub fn from_example() {}\n",
                    "pub fn allowed() {} // stlint::allow(deadpub, reason = \"fixture oracle\")\n",
                    "pub mod api {\n    pub use super::only_reexported;\n}\n",
                    "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::only_unit_tests(); }\n}\n",
                ),
            ),
            ("src/bin/tool.rs", "fn main() { st_foo::from_bin(); }\n"),
            ("examples/demo.rs", "fn main() { st_foo::from_example(); }\n"),
            (
                "tests/it.rs",
                "#[test]\nfn it() { st_foo::only_tests(); st_foo::api::only_reexported(); }\n",
            ),
        ],
    );
    let names = dead_names(&root);
    std::fs::remove_dir_all(&root).ok();
    // A test file, a `#[cfg(test)]` module and a `pub use` do not keep a
    // function alive; a bin, an example and a reasoned allow do.
    assert_eq!(names, ["only_tests", "only_unit_tests", "only_reexported"]);
}

#[test]
fn diagnostics_sort_and_json_are_byte_stable() {
    // Construct findings deliberately out of order across every sort
    // component: path, then line, then column, then rule.
    let mk = |rule, file: &str, line, col| {
        Diagnostic::new(rule, file, line, col, format!("{file}:{line}:{col}"))
    };
    let mut diags = vec![
        mk(RuleId::DP, "crates/b/src/lib.rs", 4, 9),
        mk(RuleId::N1, "crates/a/src/lib.rs", 10, 1),
        mk(RuleId::A1, "crates/b/src/lib.rs", 4, 2),
        mk(RuleId::L1, "crates/a/src/lib.rs", 2, 5),
        mk(RuleId::N1, "crates/b/src/lib.rs", 4, 2),
    ];
    let expect: Vec<String> = vec![
        "crates/a/src/lib.rs:2:5".into(),
        "crates/a/src/lib.rs:10:1".into(),
        "crates/b/src/lib.rs:4:2".into(), // A1 before N1 at the same spot
        "crates/b/src/lib.rs:4:2".into(),
        "crates/b/src/lib.rs:4:9".into(),
    ];
    for _ in 0..3 {
        diags.rotate_left(2); // different starting permutations
        let mut sorted = diags.clone();
        sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let got: Vec<String> = sorted.iter().map(|d| d.message.clone()).collect();
        assert_eq!(got, expect);
        assert_eq!(sorted[2].rule, RuleId::A1);
        assert_eq!(sorted[3].rule, RuleId::N1);
        // The JSON rendering of the sorted set is byte-deterministic.
        assert_eq!(
            st_lint::diag::to_json(&sorted, 5),
            st_lint::diag::to_json(&sorted.clone(), 5)
        );
    }
}

#[test]
fn workspace_check_output_is_byte_stable_across_runs() {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&here).expect("test runs inside the workspace");
    let a = check_workspace(&root);
    let b = check_workspace(&root);
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(
        st_lint::diag::to_json(&a.diagnostics, a.files_scanned),
        st_lint::diag::to_json(&b.diagnostics, b.files_scanned),
        "two identical scans must render byte-identical stlint.json"
    );
    assert!(
        a.diagnostics
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key()),
        "check_workspace must return diagnostics in canonical order"
    );
}
