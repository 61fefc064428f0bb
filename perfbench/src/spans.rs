//! The benchmark's own spans: one per call it makes into a layer's public
//! functions during a traced run.  Spans stay in memory and are written out
//! once, when the run ends.

use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::report::json_str;

/// One timed call: its layer-qualified name, its interval relative to the
/// recorder's origin, and the request it belongs to (spans of one request
/// share `trace`).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub trace: u64,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.  A disabled recorder runs the closures
/// without timing them, so untimed and timed code paths are the same code.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; `close` with the returned id ends it.  Returns `None`
    /// when disabled.
    pub fn open(&mut self, name: &str, trace: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u64 + 1;
        let now = self.origin.elapsed();
        self.spans.push(Span {
            id,
            trace,
            name: name.to_string(),
            start: now,
            end: now,
        });
        Some(id)
    }

    pub fn close(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            let now = self.origin.elapsed();
            self.spans[(id - 1) as usize].end = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, trace: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, trace);
        let result = f();
        self.close(id);
        result
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Write every span as one JSON object per line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"trace\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.trace,
                json_str(&s.name),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("a", 0, || 7), 7);
        assert!(spans.durations("a").is_empty());
    }

    #[test]
    fn spans_cover_their_call() {
        let mut spans = Spans::new(true);
        let outer = spans.open("request", 1);
        let inner = spans.time("compile", 1, || 7);
        spans.close(outer);
        assert_eq!(inner, 7);
        assert!(spans.spans[0].duration() >= spans.spans[1].duration());
        assert_eq!(spans.durations("compile").len(), 1);
    }
}
