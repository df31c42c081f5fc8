//! Shared plumbing for the bench binaries that write committed sections
//! (`exp_timeline`, `exp_baseline_head_to_head`, `exp_cluster`,
//! `exp_workload`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Serialize, Value};
use std::path::Path;

/// A simple column-aligned table that prints paper-style rows to stdout.
///
/// ```
/// use st_bench::Table;
/// let mut t = Table::new(vec!["cell", "p99 latency"]);
/// t.row(vec!["steady".into(), "5".into()]);
/// assert!(t.render().contains("p99 latency"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders a column-aligned textual table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Prints a titled table to stdout.
pub fn emit(experiment_id: &str, title: &str, table: &Table) {
    println!("\n=== {experiment_id}: {title} ===\n");
    print!("{}", table.render());
}

/// Upserts one experiment's report into `BENCH_sim.json` in the working
/// directory, preserving every other experiment's section. The file is a
/// top-level JSON object keyed by experiment id, so `exp_scale` and
/// `exp_timeline` (and future benchmark families) feed one committed
/// artifact without clobbering each other. A legacy single-report file
/// (the pre-merge format, recognisable by its top-level `"experiment"`
/// field) is migrated by nesting it under its own id first.
pub fn write_bench_section(section: &str, report: &impl Serialize) -> std::io::Result<()> {
    write_bench_section_at(Path::new("BENCH_sim.json"), section, report)
}

/// The `BENCH_sim.json` section id for a run of experiment `base`.
/// Smoke runs (`--smoke`, the reduced CI grids) land in a separate
/// `<base>_smoke` section so they can never overwrite the committed
/// full-grid numbers — before this, a CI smoke pass on a dirty checkout
/// would silently clobber `exp_scale` et al. with reduced-grid data.
pub fn bench_section(base: &str, smoke: bool) -> String {
    if smoke {
        format!("{base}_smoke")
    } else {
        base.to_string()
    }
}

/// [`write_bench_section`] against an explicit path (tests and tools).
pub fn write_bench_section_at(
    path: &Path,
    section: &str,
    report: &impl Serialize,
) -> std::io::Result<()> {
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
    {
        Some(Value::Map(entries)) => {
            let legacy_id = match entries.iter().find(|(k, _)| k == "experiment") {
                Some((_, Value::Str(id))) => Some(id.clone()),
                _ => None,
            };
            match legacy_id {
                Some(id) => vec![(id, Value::Map(entries))],
                None => entries,
            }
        }
        _ => Vec::new(),
    };
    let value = report.to_value();
    match entries.iter_mut().find(|(k, _)| k == section) {
        Some((_, slot)) => *slot = value,
        None => entries.push((section.to_string(), value)),
    }
    let json = serde_json::to_string_pretty(&Value::Map(entries))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, json)
}

/// Formats a fraction as a fixed-width ratio string (`0.333`).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an optional value, rendering `None` as `—`.
pub fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "—".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.0 / 3.0), "0.333");
        assert_eq!(opt(Some(3)), "3");
        assert_eq!(opt::<u64>(None), "—");
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["22".into(), "y".into()]);
        assert_eq!(
            t.render(),
            "a   long-header\n---------------\n1   x\n22  y\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[derive(serde::Serialize)]
    struct Fake {
        x: u64,
    }

    #[test]
    fn smoke_runs_get_their_own_section() {
        assert_eq!(bench_section("exp_scale", false), "exp_scale");
        assert_eq!(bench_section("exp_scale", true), "exp_scale_smoke");
        // End to end: a smoke write must leave the full-grid section alone.
        let dir = std::env::temp_dir().join(format!("bench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sim.json");
        write_bench_section_at(&path, &bench_section("exp_scale", false), &Fake { x: 64 }).unwrap();
        write_bench_section_at(&path, &bench_section("exp_scale", true), &Fake { x: 8 }).unwrap();
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(matches!(
            v.get("exp_scale").and_then(|s| s.get("x")),
            Some(Value::U64(64))
        ));
        assert!(matches!(
            v.get("exp_scale_smoke").and_then(|s| s.get("x")),
            Some(Value::U64(8))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_sections_merge_and_migrate() {
        let dir = std::env::temp_dir().join(format!("bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sim.json");
        // Legacy single-report file → migrated under its experiment id.
        std::fs::write(&path, r#"{"experiment": "exp_scale", "runs": [1, 2]}"#).unwrap();
        write_bench_section_at(&path, "exp_timeline", &Fake { x: 7 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(v.get("exp_scale").and_then(|s| s.get("runs")).is_some());
        assert!(v.get("exp_timeline").is_some());
        // Re-writing a section replaces it without touching the other.
        write_bench_section_at(&path, "exp_timeline", &Fake { x: 9 }).unwrap();
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(matches!(
            v.get("exp_timeline").and_then(|s| s.get("x")),
            Some(Value::U64(9))
        ));
        assert!(v.get("exp_scale").is_some());
        // A missing or corrupt file starts fresh.
        std::fs::write(&path, "not json").unwrap();
        write_bench_section_at(&path, "exp_timeline", &Fake { x: 1 }).unwrap();
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(v.get("exp_timeline").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
