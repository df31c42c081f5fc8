//! Workspace discovery and the full `check` / `deadpub` drivers.

use crate::allow::{collect_allows, lint_source};
use crate::diag::{Diagnostic, RuleId};
use crate::itemtree::collect_fns;
use crate::lexer::{lex, test_mask, Token, TokenKind};
use crate::manifest::{check_layering, parse_manifest};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned: generated output, the vendored stand-ins
/// (external code in all but location), VCS internals, and lint fixture
/// corpora (deliberate violations).
const SKIP_DIRS: [&str; 5] = ["target", "third_party", ".git", "fixtures", "node_modules"];

/// A source file queued for linting.
#[derive(Clone, Debug)]
struct SourceFile {
    path: PathBuf,
    rel_path: String,
    test_file: bool,
    /// Code a build of the workspace runs: `src/` (bins included) and
    /// `examples/`. Only these files keep a `pub fn` alive (deadpub).
    production: bool,
}

/// Result of a full workspace check.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Diagnostics across all files and manifests, sorted by path/line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Ascends from `start` to the enclosing workspace root: the nearest
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Enumerates the workspace's own packages: `crates/*` plus the root
/// facade package. `third_party/` members are external stand-ins and are
/// deliberately out of scope.
fn enumerate_packages(root: &Path) -> Vec<(String, PathBuf)> {
    let mut packages = Vec::new();
    if let Some(name) = package_name(&root.join("Cargo.toml")) {
        packages.push((name, root.to_path_buf()));
    }
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    for dir in dirs {
        if let Some(name) = package_name(&dir.join("Cargo.toml")) {
            packages.push((name, dir));
        }
    }
    packages
}

fn package_name(manifest: &Path) -> Option<String> {
    parse_manifest(&fs::read_to_string(manifest).ok()?).package_name
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Collects the `.rs` files of one package. Files under `tests/`,
/// `benches/` or `examples/` are test files; `src/` is live code (its
/// `#[cfg(test)]` regions are masked token-wise instead). `src/` and
/// `examples/` are production: what a user of the workspace runs.
fn package_sources(root: &Path, dir: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for (sub, test_file, production) in [
        ("src", false, true),
        ("tests", true, false),
        ("benches", true, false),
        ("examples", true, true),
    ] {
        // For the root facade this scans only its own src/tests/examples
        // dirs; crates/ members are handled per package.
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        let mut stack = vec![base];
        while let Some(d) = stack.pop() {
            let Ok(rd) = fs::read_dir(&d) else { continue };
            let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
            entries.sort();
            for p in entries {
                let name = p
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                if p.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_str()) {
                        stack.push(p);
                    }
                } else if name.ends_with(".rs") {
                    files.push(SourceFile {
                        rel_path: rel(root, &p),
                        path: p,
                        test_file,
                        production,
                    });
                }
            }
        }
    }
    files
}

/// Runs every rule family over the whole workspace.
pub fn check_workspace(root: &Path) -> CheckReport {
    let mut report = CheckReport::default();
    for (_, dir) in enumerate_packages(root) {
        let manifest_path = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest_path) {
            report.diagnostics.extend(check_layering(
                &rel(root, &manifest_path),
                &parse_manifest(&text),
            ));
        }
        for f in package_sources(root, &dir) {
            let Ok(src) = fs::read_to_string(&f.path) else {
                continue;
            };
            report.files_scanned += 1;
            report.diagnostics.extend(lint_source(&f.rel_path, &src));
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    report
}

/// Gating dead-public-API check (DP/deadpub): a `pub fn` defined in
/// non-test `src/` code is dead when production code never names it.
///
/// Every identifier occurrence is classified by where it appears:
/// * **production** — a package's `src/` (bins included) or `examples/`,
///   outside `#[cfg(test)]`/`#[test]` regions;
/// * **test** — `tests/`, `benches/` and those masked regions;
/// * **re-export** — a token inside a `pub use …;`, which forwards
///   reachability but is not itself a use.
///
/// Only production occurrences outside the defining item's own token
/// span (signature plus brace-matched body) keep a function alive, so
/// self-recursion does not, and `fn name` definition sites never count as
/// references to another crate's function of the same name. Resolution
/// is by name (the linter has no type information): a same-named
/// function called from production keeps every definition of that name
/// alive, which errs towards keeping. A function that is public on
/// purpose without a production caller (an oracle or simulator API the
/// paper-claim tests drive) carries `stlint::allow(deadpub, reason = "…")`
/// anywhere within its span.
pub fn dead_public_diagnostics(root: &Path) -> Vec<Diagnostic> {
    struct Def {
        crate_name: String,
        name: String,
        file: String,
        line: u32,
        col: u32,
        /// Token span of the whole item in its file: `fn` keyword
        /// through closing brace (or name, when bodyless).
        span: (usize, usize),
        suppressed: bool,
    }
    let mut defs: Vec<Def> = Vec::new();
    // name → production occurrences as (file, token index), excluding
    // `fn name` definition sites.
    let mut refs: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for (crate_name, dir) in enumerate_packages(root) {
        for f in package_sources(root, &dir) {
            let Ok(src) = fs::read_to_string(&f.path) else {
                continue;
            };
            let lexed = lex(&src);
            let mask = test_mask(&lexed.tokens);
            let (allows, _) = collect_allows(&f.rel_path, &lexed.comments, &lexed.tokens);
            if !f.test_file {
                for item in collect_fns(&lexed.tokens) {
                    // `pub fn` only (not `pub(crate) fn`): restricted
                    // visibility is not public API. Masked (cfg(test))
                    // and `main` items are out of scope.
                    if !item.is_pub
                        || mask[item.fn_idx]
                        || item.name == "main"
                        || item.name.starts_with('_')
                    {
                        continue;
                    }
                    let name_tok = &lexed.tokens[item.name_idx];
                    let span_end = item.body.map(|(_, e)| e).unwrap_or(item.name_idx);
                    // An allow(deadpub) anywhere within the item — the
                    // signature line or inside the body — suppresses it.
                    // Span-based rather than definition-line-based so
                    // rustfmt rewrapping a long signature cannot detach
                    // the annotation from the item it vouches for.
                    let first_line = lexed.tokens[item.fn_idx].line;
                    let last_line = lexed.tokens[span_end].line;
                    let kept = allows.iter().any(|a| {
                        a.rule == RuleId::DP
                            && a.target_line >= first_line
                            && a.target_line <= last_line
                    });
                    defs.push(Def {
                        crate_name: crate_name.clone(),
                        name: item.name,
                        file: f.rel_path.clone(),
                        line: name_tok.line,
                        col: name_tok.col,
                        span: (item.fn_idx, span_end),
                        suppressed: kept,
                    });
                }
            }
            if !f.production {
                continue;
            }
            let reexport = reexport_mask(&lexed.tokens);
            for (i, t) in lexed.tokens.iter().enumerate() {
                let is_def_site = i >= 1 && lexed.tokens[i - 1].is_ident("fn");
                if t.kind == TokenKind::Ident && !is_def_site && !mask[i] && !reexport[i] {
                    refs.entry(t.text.clone())
                        .or_default()
                        .push((f.rel_path.clone(), i));
                }
            }
        }
    }
    let mut out: Vec<Diagnostic> = defs
        .iter()
        .filter(|d| !d.suppressed)
        .filter(|d| {
            let empty = Vec::new();
            let occ = refs.get(&d.name).unwrap_or(&empty);
            !occ.iter()
                .any(|(file, i)| *file != d.file || *i < d.span.0 || *i > d.span.1)
        })
        .map(|d| {
            Diagnostic::new(
                RuleId::DP,
                d.file.clone(),
                d.line,
                d.col,
                format!(
                    "pub fn `{}` in {} is not reached from production code (tests and \
                     `pub use` re-exports do not count); remove it, reduce its visibility, \
                     move it into test support, or keep it with \
                     `// stlint::allow(deadpub, reason = \"…\")`",
                    d.name, d.crate_name,
                ),
            )
        })
        .collect();
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out.dedup();
    out
}

/// Marks the tokens of every `pub use …;`, from `pub` through the
/// closing `;`.
fn reexport_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let is_reexport =
            tokens[i].is_ident("pub") && tokens.get(i + 1).is_some_and(|t| t.is_ident("use"));
        if !is_reexport {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        while j < tokens.len() && !tokens[j].is_punct(';') {
            j += 1;
        }
        let end = j.min(tokens.len() - 1);
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        find_workspace_root(&here).expect("lint crate lives inside the workspace")
    }

    #[test]
    fn finds_workspace_root_from_nested_dir() {
        let root = repo_root();
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }

    #[test]
    fn enumerates_facade_and_members() {
        let names: Vec<String> = enumerate_packages(&repo_root())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"sleepy-tob".to_string()));
        assert!(names.contains(&"st-core".to_string()));
        assert!(names.contains(&"st-lint".to_string()));
        assert!(!names.iter().any(|n| n.contains("serde")));
    }

    #[test]
    fn scan_skips_fixtures_and_third_party() {
        let root = repo_root();
        for (_, dir) in enumerate_packages(&root) {
            for f in package_sources(&root, &dir) {
                assert!(!f.rel_path.contains("fixtures/"), "{}", f.rel_path);
                assert!(!f.rel_path.starts_with("third_party/"), "{}", f.rel_path);
            }
        }
    }
}
