//! `stlint` — CLI for the workspace layering & allow-hygiene analyzer.
//!
//! ```text
//! stlint check [--json] [--out FILE] [--root DIR]   lint the workspace; exit 1 on findings
//! stlint rules                                      print the rule table
//! stlint deadpub [--root DIR]                       dead-public-API check; exit 1 on findings
//! ```

// A crate attribute in lib.rs does not reach this bin target.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use st_lint::{check_workspace, dead_public_diagnostics, diag, find_workspace_root, ALL_RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: stlint <check|rules|deadpub> [--json] [--out FILE] [--root DIR]");
        return ExitCode::from(2);
    };
    let mut json = false;
    let mut out_file: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a file path");
                    return ExitCode::from(2);
                };
                out_file = Some(PathBuf::from(v));
            }
            "--root" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root_arg = Some(PathBuf::from(v));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    match cmd.as_str() {
        "rules" => {
            println!("stlint rule families:");
            for r in ALL_RULES {
                println!("  {:<14} {}", format!("{r}"), r.describe());
            }
            println!();
            println!("escape hatch: // stlint::allow(<rule>, reason = \"<the invariant>\")");
            println!("(reason is mandatory; a reason-less allow suppresses nothing and is an A1)");
            println!("(std maps, wall clock, panics, unsafe: clippy.toml + root [lints])");
            ExitCode::SUCCESS
        }
        "check" => {
            let Some(root) = resolve_root(root_arg) else {
                return ExitCode::from(2);
            };
            let report = check_workspace(&root);
            let rendered_json = diag::to_json(&report.diagnostics, report.files_scanned);
            if let Some(path) = &out_file {
                if let Err(e) = std::fs::write(path, &rendered_json) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if json {
                print!("{rendered_json}");
            } else {
                for d in &report.diagnostics {
                    println!("{d}");
                }
                println!(
                    "stlint: {} diagnostic{} across {} file{} ({} files scanned)",
                    report.diagnostics.len(),
                    plural(report.diagnostics.len()),
                    distinct_files(&report),
                    plural(distinct_files(&report)),
                    report.files_scanned,
                );
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "deadpub" => {
            let Some(root) = resolve_root(root_arg) else {
                return ExitCode::from(2);
            };
            let diags = dead_public_diagnostics(&root);
            for d in &diags {
                println!("{d}");
            }
            println!(
                "stlint deadpub: {} pub fn{} no production code reaches",
                diags.len(),
                plural(diags.len()),
            );
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown subcommand `{other}`; try check, rules or deadpub");
            ExitCode::from(2)
        }
    }
}

fn resolve_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    let start = match explicit {
        Some(p) => p,
        None => std::env::current_dir().ok()?,
    };
    match find_workspace_root(&start) {
        Some(root) => Some(root),
        None => {
            eprintln!(
                "no workspace root found above {} (looked for a Cargo.toml with [workspace])",
                start.display()
            );
            None
        }
    }
}

fn distinct_files(report: &st_lint::CheckReport) -> usize {
    let mut files: Vec<&str> = report.diagnostics.iter().map(|d| d.file.as_str()).collect();
    files.dedup();
    files.len()
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
