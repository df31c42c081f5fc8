//! Workspace discovery and the deadpub driver.

use crate::allow::collect_allows;
use crate::itemtree::collect_fns;
use crate::lexer::{lex, test_mask, Token, TokenKind};
use crate::Diagnostic;
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

/// Result of a deadpub scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings across all files, sorted.
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

/// The directories of the workspace's own packages: the root facade,
/// then every `crates/*` with a `Cargo.toml`. `third_party/` members are
/// external stand-ins and are deliberately out of scope.
fn package_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    dirs.insert(0, root.to_path_buf());
    dirs
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

/// The gating dead-public-API check: a `pub fn` defined in non-test
/// `src/` code is dead when production code never names it, and a
/// malformed allow annotation is a finding of its own.
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
pub fn deadpub(root: &Path) -> Report {
    struct Def {
        name: String,
        file: String,
        line: u32,
        col: u32,
        /// Token span of the whole item in its file: `fn` keyword
        /// through closing brace (or name, when bodyless).
        span: (usize, usize),
    }
    let mut report = Report::default();
    let mut defs: Vec<Def> = Vec::new();
    // name → production occurrences as (file, token index), excluding
    // `fn name` definition sites.
    let mut refs: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for dir in package_dirs(root) {
        for f in package_sources(root, &dir) {
            let Ok(src) = fs::read_to_string(&f.path) else {
                continue;
            };
            report.files_scanned += 1;
            let lexed = lex(&src);
            let mask = test_mask(&lexed.tokens);
            let (allows, malformed) = collect_allows(&f.rel_path, &lexed.comments, &lexed.tokens);
            report.diagnostics.extend(malformed);
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
                    if allows.iter().any(|l| (first_line..=last_line).contains(l)) {
                        continue;
                    }
                    defs.push(Def {
                        name: item.name,
                        file: f.rel_path.clone(),
                        line: name_tok.line,
                        col: name_tok.col,
                        span: (item.fn_idx, span_end),
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
    let empty = Vec::new();
    report.diagnostics.extend(
        defs.into_iter()
            .filter(|d| {
                !refs
                    .get(&d.name)
                    .unwrap_or(&empty)
                    .iter()
                    .any(|(file, i)| *file != d.file || *i < d.span.0 || *i > d.span.1)
            })
            .map(|d| Diagnostic {
                message: format!(
                    "pub fn `{}` is not reached from production code (tests and `pub use` \
                     re-exports do not count); remove it, reduce its visibility, move it \
                     into test support, or keep it with \
                     `// stlint::allow(deadpub, reason = \"…\")`",
                    d.name,
                ),
                file: d.file,
                line: d.line,
                col: d.col,
            }),
    );
    report.diagnostics.sort();
    report.diagnostics.dedup();
    report
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
        let root = repo_root();
        let dirs = package_dirs(&root);
        assert_eq!(dirs[0], root);
        assert!(dirs.contains(&root.join("crates/core")));
        assert!(dirs.contains(&root.join("crates/lint")));
        assert!(!dirs.iter().any(|d| d.starts_with(root.join("third_party"))));
    }

    #[test]
    fn scan_skips_fixtures_and_third_party() {
        let root = repo_root();
        for dir in package_dirs(&root) {
            for f in package_sources(&root, &dir) {
                assert!(!f.rel_path.contains("fixtures/"), "{}", f.rel_path);
                assert!(!f.rel_path.starts_with("third_party/"), "{}", f.rel_path);
            }
        }
    }
}
