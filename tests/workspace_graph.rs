//! The crate layering, read from Cargo's own dependency graph.
//!
//! The protocol crates form a chain in which each depends directly on
//! the one below it (types ← crypto ← blocktree ← messages ← ga ← core
//! ← sim), so any upward edge among them is a cycle, and Cargo rejects
//! cycles. These tests assert only what Cargo does not: that the chain
//! stays whole, that socket I/O (st-node) and wall-clock time (st-bench)
//! stay out from under the deterministic simulator, and that every
//! external crate is an offline `third_party/` stand-in.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// One dependency edge as `cargo metadata` reports it.
struct Dep {
    name: String,
    /// `None` for a normal dependency, else `"dev"` or `"build"`.
    kind: Option<String>,
    /// The dependency's directory; `None` for a registry crate.
    path: Option<PathBuf>,
}

struct Package {
    name: String,
    deps: Vec<Dep>,
}

struct Graph {
    root: PathBuf,
    packages: Vec<Package>,
}

impl Graph {
    fn package(&self, name: &str) -> &Package {
        self.packages
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no workspace package {name}"))
    }

    /// The packages with an edge into `target`, of any kind, sorted.
    fn dependents_of(&self, target: &str) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .packages
            .iter()
            .filter(|p| p.deps.iter().any(|d| d.name == target))
            .map(|p| p.name.as_str())
            .collect();
        names.sort_unstable();
        names
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn seq_field<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        _ => panic!("cargo metadata: `{key}` is not an array"),
    }
}

/// The workspace graph, from one `cargo metadata` run per test binary.
fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let out = Command::new(env!("CARGO"))
            .args([
                "metadata",
                "--offline",
                "--no-deps",
                "--format-version",
                "1",
                "--manifest-path",
                concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
            ])
            .output()
            .expect("run cargo metadata");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "cargo metadata failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let meta: Value = serde_json::from_str(&stdout).expect("cargo metadata prints JSON");
        let packages = seq_field(&meta, "packages")
            .iter()
            .map(|p| Package {
                name: str_field(p, "name").expect("package name").to_string(),
                deps: seq_field(p, "dependencies")
                    .iter()
                    .map(|d| Dep {
                        name: str_field(d, "name").expect("dependency name").to_string(),
                        kind: str_field(d, "kind").map(str::to_string),
                        path: str_field(d, "path").map(PathBuf::from),
                    })
                    .collect(),
            })
            .collect();
        Graph {
            root: PathBuf::from(str_field(&meta, "workspace_root").expect("workspace_root")),
            packages,
        }
    })
}

/// (f) Every workspace package, so that a new crate must state its
/// place here.
const PACKAGES: [&str; 17] = [
    "sleepy-tob",
    "st-types",
    "st-load",
    "st-crypto",
    "st-blocktree",
    "st-messages",
    "st-ga",
    "st-core",
    "st-sim",
    "st-node",
    "st-bench",
    "st-lint",
    "serde",
    "serde_derive",
    "serde_json",
    "rand",
    "proptest",
];

/// (a) The protocol chain, each crate with the one directly below it.
const CHAIN: [(&str, &str); 6] = [
    ("st-crypto", "st-types"),
    ("st-blocktree", "st-crypto"),
    ("st-messages", "st-blocktree"),
    ("st-ga", "st-messages"),
    ("st-core", "st-ga"),
    ("st-sim", "st-core"),
];

#[test]
fn the_workspace_has_exactly_the_named_packages() {
    let mut got: Vec<&str> = graph().packages.iter().map(|p| p.name.as_str()).collect();
    let mut want = PACKAGES.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "a new or renamed crate must state its place in PACKAGES and in DESIGN.md §1"
    );
}

#[test]
fn the_protocol_chain_is_whole_so_an_upward_edge_is_a_cycle() {
    for (from, to) in CHAIN {
        assert!(
            graph()
                .package(from)
                .deps
                .iter()
                .any(|d| d.name == to && d.kind.is_none()),
            "{from} must depend directly on {to}: with the chain whole, Cargo's cycle \
             check rejects every upward edge"
        );
    }
}

#[test]
fn the_bottom_crates_and_the_linter_depend_on_no_workspace_crate() {
    for name in ["st-types", "st-load", "st-lint"] {
        let inner: Vec<&str> = graph()
            .package(name)
            .deps
            .iter()
            .filter(|d| d.name.starts_with("st-") && d.kind.as_deref() != Some("dev"))
            .map(|d| d.name.as_str())
            .collect();
        assert!(inner.is_empty(), "{name} depends on {inner:?}");
    }
}

#[test]
fn only_the_bench_and_the_facade_reach_the_socket_runtime() {
    // st-node depends on st-core, not st-sim, so an edge from the
    // simulator to the socket runtime would not be a cycle.
    assert_eq!(
        graph().dependents_of("st-node"),
        ["sleepy-tob", "st-bench"],
        "st-node is a deployment leaf: real I/O stays out from under the simulator"
    );
}

#[test]
fn nothing_depends_on_the_bench() {
    // st-bench has no lib target, so Cargo only warns about a dependency
    // on it ("ignoring invalid dependency") and builds on.
    assert!(
        graph().dependents_of("st-bench").is_empty(),
        "st-bench is the top of the stack: its wall-clock timing reaches no other crate"
    );
}

#[test]
fn externals_are_offline_stand_ins_and_proptest_is_dev_only() {
    let g = graph();
    let third_party = g.root.join("third_party");
    for p in &g.packages {
        for d in &p.deps {
            let under = |dir: &Path| d.path.as_deref().is_some_and(|path| path.starts_with(dir));
            if d.name.starts_with("st-") {
                assert!(under(&g.root.join("crates")), "{}: {}", p.name, d.name);
            } else {
                assert!(
                    under(&third_party),
                    "{} depends on {}, which is not under third_party/: the build has no \
                     registry",
                    p.name,
                    d.name
                );
            }
            if d.name == "proptest" {
                assert_eq!(d.kind.as_deref(), Some("dev"), "{}: proptest", p.name);
            }
        }
    }
}

/// No plain (unquoted) value in the CI workflow holds `": "`: YAML reads
/// it as a second mapping, the file does not parse, and no CI step runs.
/// Block scalars (`run: |`) are shell, not YAML, and are skipped.
#[test]
fn ci_plain_scalars_hold_no_colon_space() {
    let path = graph().root.join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).expect("read ci.yml");
    let mut block: Option<usize> = None;
    for (number, line) in text.lines().enumerate() {
        let indent = line.len() - line.trim_start().len();
        let entry = line.trim_start().trim_start_matches("- ");
        if block.is_some_and(|key| indent > key || entry.is_empty()) || entry.starts_with('#') {
            continue;
        }
        block = None;
        let Some((_, value)) = entry.split_once(": ") else {
            continue;
        };
        let value = value.trim();
        if value.starts_with(['|', '>']) {
            block = Some(indent);
        } else if !value.starts_with(['"', '\'', '[', '{']) {
            assert!(
                !value.contains(": "),
                "ci.yml:{}: quote the value, YAML reads its \": \" as a mapping: {line}",
                number + 1
            );
        }
    }
}
