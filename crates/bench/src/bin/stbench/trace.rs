//! Spans recorded from the benchmark's own files around calls into each
//! layer: kept in memory, written as JSON lines when the pass ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span. `parent` is the id (line number, 0-based) of the span that
/// caused it; `count` is the work done inside it (deliveries, envelopes,
/// votes) so that ns/op is measured where the work happens.
pub(crate) struct Span {
    name: &'static str,
    round: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    count: u64,
}

pub(crate) struct Trace {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub(crate) fn new(workload: &'static str) -> Trace {
        Trace {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span and returns its id.
    pub(crate) fn open(&mut self, name: &'static str, round: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round,
            start_ns,
            end_ns: start_ns,
            parent,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`, recording `count` units of work; returns its
    /// duration in nanoseconds.
    pub(crate) fn close(&mut self, id: usize, count: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        end_ns - span.start_ns
    }

    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub(crate) fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{}}}",
                s.name, self.workload, s.round, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_as_json_lines() {
        let mut t = Trace::new("w");
        let root = t.open("probe", 0, None);
        let child = t.open("core.step_send", 3, Some(root));
        t.close(child, 2);
        t.close(root, 1);
        let dir = crate::outcome::out_dir().join("trace-test");
        let path = dir.join("w.trace.jsonl");
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<serde::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("each line is JSON"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&serde::Value::Null));
        assert_eq!(lines[1].get("parent"), Some(&serde::Value::U64(0)));
        assert_eq!(lines[1].get("round"), Some(&serde::Value::U64(3)));
        assert_eq!(lines[1].get("count"), Some(&serde::Value::U64(2)));
        assert_eq!(
            lines[1].get("name"),
            Some(&serde::Value::Str("core.step_send".into()))
        );
    }
}
