//! In-memory spans for the traced run, written out as JSON lines when
//! the run ends.
//!
//! Spans are recorded only around calls the benchmark itself makes
//! into a layer's public API; nothing inside the simulator is
//! instrumented. Each line is `{id, parent, name, layer, start_ns,
//! end_ns, calls}`: `id` is the replay I/O the span belongs to (0 for
//! whole-phase spans, which cover every call of the phase), `parent`
//! is the enclosing span's name, and times are host nanoseconds since
//! the trace began.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use afa_stats::Json;

/// Every Nth replay I/O also gets a span of its own.
pub const SAMPLE_EVERY: usize = 1024;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<String>,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

impl Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::u64(self.id)),
            ("parent", self.parent.as_ref().map_or(Json::Null, Json::str)),
            ("name", Json::str(&self.name)),
            ("layer", Json::str(self.layer)),
            ("start_ns", Json::u64(self.start_ns)),
            ("end_ns", Json::u64(self.end_ns)),
            ("calls", Json::u64(self.calls)),
        ])
    }
}

/// Collects spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Host nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<&str>,
        name: &str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) {
        self.spans.push(Span {
            id,
            parent: parent.map(str::to_owned),
            name: name.to_owned(),
            layer,
            start_ns,
            end_ns,
            calls,
        });
    }

    /// Records a whole-phase span under the `workload` root, from
    /// `start` (a [`Tracer::now`] reading) until now.
    pub fn close(&mut self, start: u64, name: &str, layer: &'static str, calls: u64) {
        let end = self.now();
        self.record(0, Some("workload"), name, layer, start, end, calls);
    }

    /// Runs `call` once per input as one timed phase named `name` under
    /// `parent`, sampling every [`SAMPLE_EVERY`]th call into a span of
    /// its own (`<name>.call`, id = the input's 1-based index). Returns
    /// host nanoseconds per call: the phase span's duration over its
    /// calls. The sampled calls pay two clock reads each, under 0.1 ns
    /// per call when spread over the phase.
    pub fn phase<I>(
        &mut self,
        parent: &str,
        name: &str,
        layer: &'static str,
        inputs: &[I],
        mut call: impl FnMut(&I),
    ) -> f64 {
        assert!(!inputs.is_empty(), "a phase needs at least one call");
        let sample_name = format!("{name}.call");
        let mut samples = Vec::with_capacity(inputs.len() / SAMPLE_EVERY + 1);
        let start = self.now();
        for (k, input) in inputs.iter().enumerate() {
            if k % SAMPLE_EVERY == 0 {
                let s = self.now();
                call(input);
                samples.push((k as u64 + 1, s, self.now()));
            } else {
                call(input);
            }
        }
        let end = self.now();
        self.record(
            0,
            Some(parent),
            name,
            layer,
            start,
            end,
            inputs.len() as u64,
        );
        for (id, s, e) in samples {
            self.record(id, Some(name), &sample_name, layer, s, e, 1);
        }
        (end - start) as f64 / inputs.len() as f64
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(out, "{}", span.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_records_one_span_plus_samples() {
        let mut tracer = Tracer::default();
        let inputs: Vec<u64> = (0..(2 * SAMPLE_EVERY as u64 + 1)).collect();
        let mut sum = 0;
        let per_call = tracer.phase("replay.x", "x.op", "afa-x", &inputs, |&v| sum += v);
        assert!(per_call >= 0.0);
        assert_eq!(sum, inputs.iter().sum::<u64>());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1 + 3);
        assert_eq!(spans[0].name, "x.op");
        assert_eq!(spans[0].parent.as_deref(), Some("replay.x"));
        assert_eq!(spans[0].calls, inputs.len() as u64);
        let ids: Vec<u64> = spans[1..].iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            vec![1, 1 + SAMPLE_EVERY as u64, 1 + 2 * SAMPLE_EVERY as u64]
        );
        for s in &spans[1..] {
            assert_eq!(s.parent.as_deref(), Some("x.op"));
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
        }
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut tracer = Tracer::default();
        tracer.record(0, None, "workload", "afabench", 1, 9, 3);
        let dir = std::env::temp_dir().join(format!("afabench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let line = crate::json::parse(text.trim()).unwrap();
        assert_eq!(line.get("parent"), Some(&Json::Null));
        assert_eq!(line.get("calls"), Some(&Json::u64(3)));
    }
}
