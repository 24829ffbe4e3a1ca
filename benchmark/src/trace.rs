//! The external trace: spans recorded from the benchmark's own code,
//! around its calls into each layer and rebuilt from the per-job reports
//! the program hands back. Kept in memory, written out when the run ends.
//!
//! One line per span: `{trace, span, parent, start_ns, end_ns}`. `trace`
//! is the identifier all spans of one request share (`run` for the
//! harness's own spans), `parent` names the span that caused this one,
//! times are ns since the process started. A span's self time is its
//! duration minus what its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    trace: String,
    span: &'static str,
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    /// Jobs that may still get full spans.
    job_budget: usize,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
            job_budget: crate::spec::MAX_TRACED_JOBS,
        }
    }

    /// ns since the process started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// How many of a round's `want` jobs get full spans: none unless the
    /// round records `spans`, else as many as the run's budget still has;
    /// takes them off the budget.
    pub fn take_job_budget(&mut self, spans: bool, want: usize) -> usize {
        let n = if spans { want.min(self.job_budget) } else { 0 };
        self.job_budget -= n;
        n
    }

    /// Record one span of request `trace`.
    pub fn record(
        &mut self,
        trace: impl FnOnce() -> String,
        span: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                trace: trace(),
                span,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as a harness span.
    pub fn span<R>(
        &mut self,
        span: &'static str,
        parent: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.record(|| "run".to_string(), span, parent, start, end);
        out
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            // Trace ids and span names are the benchmark's own ASCII
            // identifiers; none needs escaping.
            writeln!(
                out,
                "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.span, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
