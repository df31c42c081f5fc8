//! The socket runtime at `tick 0`, where rounds are far shorter than a
//! harness poll: `stob cluster` spawns real `stob serve` processes over
//! localhost TCP, kills and restarts one of them, partitions them, and
//! byte-compares every node's decided chain against the simulation.
//!
//! Each cluster listens below 32768: Linux hands out client ports from
//! 32768–60999, so a listener there can collide with some connection's
//! local port.

use std::process::Command;

/// Runs `stob cluster <extra> --tick 0` on `base_port..base_port + n` and
/// asserts exit 0, a MATCH for each of the `n` nodes, and the restart.
fn cluster_matches(extra: &[&str], base_port: u16, n: usize) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cluster_tick0_{base_port}"));
    let out = Command::new(env!("CARGO_BIN_EXE_stob"))
        .arg("cluster")
        .args(extra)
        .args(["--tick", "0", "--base-port", &base_port.to_string()])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run stob cluster");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "stob cluster {extra:?} failed:\n{stdout}\n{stderr}"
    );
    let verdicts: Vec<&str> = stdout
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("node "))
        .collect();
    assert_eq!(verdicts.len(), n, "{stdout}");
    assert!(verdicts.iter().all(|l| l.contains(": MATCH")), "{stdout}");
    assert_eq!(
        verdicts.iter().filter(|l| l.contains("restarts 1")).count(),
        1,
        "the victim was killed and restarted once:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_cluster_at_tick_0_matches_the_simulation() {
    cluster_matches(&["--smoke"], 23700, 3);
}

#[test]
fn full_cluster_at_tick_0_matches_the_simulation() {
    cluster_matches(&[], 23710, 5);
}
