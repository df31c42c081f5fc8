//! What one benchmark pass produces: the correctness checks it ran and
//! the metrics it measured.

use crate::stats::Summary;
use std::path::PathBuf;

/// Every output check a pass performs goes through here, so the final
/// JSON line can say how many were attempted and how many failed.
#[derive(Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failures: Vec<String>,
}

impl Checks {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One measured metric. `over_reps` says the samples behind it are
/// per-repetition estimates of one quantity (so their spread is noise).
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) summary: Summary,
    pub(crate) over_reps: bool,
}

#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) checks: Checks,
    pub(crate) metrics: Vec<Metric>,
}

impl Outcome {
    pub(crate) fn push(&mut self, name: &'static str, summary: Summary, over_reps: bool) {
        self.metrics.push(Metric {
            name,
            summary,
            over_reps,
        });
    }

    #[cfg(test)]
    pub(crate) fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.value)
    }
}

/// Where the benchmark writes: trace files, result files and the
/// cluster's working directories. Next to the executable, so inside the
/// build directory — inside the checkout, ignored by git, and the same
/// place whatever the working directory is.
pub(crate) fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("stbench-out")))
        .unwrap_or_else(|| PathBuf::from("target/stbench-out"))
}

/// `VmHWM` (peak resident set) of this process in MB, read from
/// `/proc/self/status`.
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_kb(&status, "VmHWM:").map(|kb| kb / 1024.0)
}

/// The numeric value of a `Key:   123 kB` line of a `/proc` status file.
pub(crate) fn status_field_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_fields() {
        let status = "Name:\tstbench\nPPid:\t41\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(20480.0));
        assert_eq!(status_field_kb(status, "PPid:"), Some(41.0));
        assert_eq!(status_field_kb(status, "VmSwap:"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn checks_count_attempts_and_keep_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "second".into());
        assert_eq!(c.attempted, 2);
        assert_eq!(c.failures, ["second"]);
    }
}
