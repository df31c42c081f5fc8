//! The `stob` command line rejects bad input with a message and exit
//! code 2, never with a panic, and accepts every combination it
//! documents.

use std::process::Command;

/// Runs `stob <args>` and asserts a usage error: exit code 2, no panic,
/// and a message on stderr that `says` what went wrong.
fn rejects(args: &[&str], says: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_stob"))
        .args(args)
        .output()
        .expect("run stob");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stob {args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stob {args:?}:\n{stderr}");
    assert!(
        stderr.contains(says),
        "stob {args:?} should say {says:?}:\n{stderr}"
    );
}

#[test]
fn run_rejects_an_empty_asynchronous_window() {
    rejects(&["run", "--async-at", "5", "--pi", "0"], "--pi must be ≥ 1");
}

#[test]
fn explore_rejects_an_empty_asynchronous_window() {
    rejects(&["explore", "--pi", "0"], "1 ≤ π ≤ 2");
}

#[test]
fn run_rejects_a_value_it_cannot_parse() {
    rejects(&["run", "--n", "abc"], "invalid value for --n: \"abc\"");
    rejects(
        &["run", "--async-at", "abc"],
        "invalid value for --async-at",
    );
    rejects(&["run", "--async-at", "0"], "--async-at must be ≥ 1");
}

#[test]
fn run_rejects_a_run_with_no_honest_process() {
    rejects(&["run", "--n", "4", "--byz", "4"], "no honest process");
    rejects(&["run", "--n", "4", "--byz", "10"], "no honest process");
}

#[test]
fn run_rejects_a_churn_rate_outside_the_unit_interval() {
    rejects(&["run", "--churn", "1.5"], "--churn must lie in [0, 1)");
    rejects(&["run", "--churn", "nan"], "--churn must lie in [0, 1)");
}

#[test]
fn run_rejects_a_window_length_without_a_window() {
    rejects(&["run", "--pi", "3"], "give --async-at too");
}

#[test]
fn curve_and_check_reject_what_params_rejects() {
    rejects(
        &["curve", "--beta", "5"],
        "failure ratio β must lie in (0, 1/2]",
    );
    rejects(
        &["curve", "--beta", "nan"],
        "failure ratio β must lie in (0, 1/2]",
    );
    rejects(&["check", "--n", "0"], "at least one process");
    rejects(
        &["check", "--gamma", "nan"],
        "churn rate γ must lie in [0, 1)",
    );
    rejects(
        &["check", "--sleep", "2"],
        "--sleep is a per-round probability",
    );
    rejects(
        &["check", "--sleep", "nan"],
        "--sleep is a per-round probability",
    );
}

#[test]
fn attack_is_not_a_command() {
    // The Section-1 attack runs as `stob scenario partition-vanilla` and
    // `stob scenario partition-extended`.
    rejects(&["attack"], "unknown command \"attack\"");
}

/// The fixed-quorum baseline is the sleepy protocol with a fixed
/// denominator, so every adversary, `--eta` and `--byz` apply to it.
#[test]
fn run_drives_the_quorum_baseline_against_any_adversary() {
    let args = [
        "run",
        "--protocol",
        "quorum",
        "--eta",
        "0",
        "--adversary",
        "reorg",
        "--byz",
        "1",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_stob"))
        .args(args)
        .output()
        .expect("run stob");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stob {args:?}:\n{stderr}");
    assert!(
        stdout.contains("protocol             : quorum"),
        "stob {args:?}:\n{stdout}"
    );
}
