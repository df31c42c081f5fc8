//! The `stob` command line rejects bad input with a message and exit
//! code 2, never with a panic.

use std::process::Command;

/// Runs `stob <args>` and asserts a usage error: exit code 2, a message
/// on stderr, and no panic.
fn rejects(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_stob"))
        .args(args)
        .output()
        .expect("run stob");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stob {args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stob {args:?}:\n{stderr}");
    assert!(!stderr.trim().is_empty(), "stob {args:?} gave no message");
}

#[test]
fn run_rejects_an_empty_asynchronous_window() {
    rejects(&["run", "--async-at", "5", "--pi", "0"]);
}

#[test]
fn explore_rejects_an_empty_asynchronous_window() {
    rejects(&["explore", "--pi", "0"]);
}
