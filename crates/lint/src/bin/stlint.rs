//! `stlint` — CLI for the workspace's dead-public-API gate.
//!
//! ```text
//! stlint deadpub [--root DIR]   exit 1 on findings, 2 on a usage error or an empty scan
//! ```

// A crate attribute in lib.rs does not reach this bin target.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use st_lint::{deadpub, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let start = match args[..] {
        ["deadpub"] => std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
        ["deadpub", "--root", dir] => PathBuf::from(dir),
        _ => {
            eprintln!("usage: stlint deadpub [--root DIR]");
            return ExitCode::from(2);
        }
    };
    let Some(root) = find_workspace_root(&start) else {
        eprintln!(
            "no workspace root found above {} (looked for a Cargo.toml with [workspace])",
            start.display()
        );
        return ExitCode::from(2);
    };
    let report = deadpub(&root);
    if report.files_scanned == 0 {
        eprintln!(
            "stlint deadpub: no .rs file found in the packages of {}; pass the workspace \
             root with --root",
            root.display()
        );
        return ExitCode::from(2);
    }
    for d in &report.diagnostics {
        println!("{d}");
    }
    let n = report.diagnostics.len();
    println!(
        "stlint deadpub: {n} finding{} in {} files scanned",
        if n == 1 { "" } else { "s" },
        report.files_scanned,
    );
    if n == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
