//! Self-tests for `stlint deadpub`: the malformed-annotation fixture
//! with exact line assertions, synthetic workspaces for deadpub's item
//! graph, its production-reference rule and its empty-scan guard, plus
//! the meta-test that the live workspace is clean.
//!
//! The fixtures live under `tests/fixtures/`, which the workspace walker
//! deliberately skips — they exist to be linted *by hand*.

use st_lint::{deadpub, find_workspace_root, Report};
use std::process::Command;

#[test]
fn live_workspace_is_lint_clean() {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&here).expect("test runs inside the workspace");
    let report = deadpub(&root);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must stay deadpub-clean; run `cargo run -p st-lint -- deadpub`:\n{:#?}",
        report.diagnostics
    );
    // Sanity: the walk actually visited the tree (all the st-* crates
    // plus the facade contribute sources).
    assert!(report.files_scanned > 50, "{}", report.files_scanned);
    // Two scans of the same tree give the same report.
    assert_eq!(deadpub(&root), report);
}

/// Builds a throwaway one-crate workspace on disk so the deadpub item
/// graph can be exercised end to end (it resolves references across the
/// whole tree, so one file alone cannot drive it). `files` are paths
/// relative to the crate directory, with their contents.
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

/// The function names a report holds, in finding order. Malformed
/// annotation findings are left out; `malformed_lines` has those.
fn dead_names(report: &Report) -> Vec<String> {
    report
        .diagnostics
        .iter()
        .filter_map(|d| d.message.strip_prefix("pub fn `"))
        .map(|rest| rest[..rest.find('`').unwrap()].to_string())
        .collect()
}

/// The lines of a report's malformed-annotation findings.
fn malformed_lines(report: &Report) -> Vec<u32> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.message.starts_with("malformed stlint::allow"))
        .map(|d| d.line)
        .collect()
}

#[test]
fn a1_rejects_bad_allows_and_keeps_the_finding() {
    let root = synthetic_workspace(
        "a1",
        &[("src/lib.rs", include_str!("fixtures/a1_no_reason.rs"))],
    );
    let report = deadpub(&root);
    std::fs::remove_dir_all(&root).ok();
    // No reason, an empty reason, an unknown rule and the retired
    // iteration-order rule are each a finding on their own line...
    assert_eq!(malformed_lines(&report), [4, 6, 8, 10]);
    assert_eq!(report.diagnostics.len(), 8, "{:#?}", report.diagnostics);
    assert!(report.diagnostics[4].message.contains("unknown rule"));
    assert!(report.diagnostics[6].message.contains("unknown rule"));
    // ...and suppress nothing: every function is still reported dead.
    assert_eq!(dead_names(&report), ["first", "second", "third", "fourth"]);
}

#[test]
fn deadpub_refuses_a_scan_of_no_files() {
    // A root whose packages hold no `.rs` file, such as a standalone
    // manifest deeper in the tree, must not pass as clean.
    let root = synthetic_workspace("empty", &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_stlint"))
        .args(["deadpub", "--root"])
        .arg(&root)
        .output()
        .expect("run stlint");
    std::fs::remove_dir_all(&root).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&root.display().to_string()), "{stderr}");
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
    let names = dead_names(&deadpub(&root));
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
    let names = dead_names(&deadpub(&root));
    std::fs::remove_dir_all(&root).ok();
    // A test file, a `#[cfg(test)]` module and a `pub use` do not keep a
    // function alive; a bin, an example and a reasoned allow do.
    assert_eq!(names, ["only_tests", "only_unit_tests", "only_reexported"]);
}
