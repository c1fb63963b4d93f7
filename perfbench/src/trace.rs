//! Spans recorded in the benchmark's own code around the public calls that
//! make up a job. The program's own `Recorder` stays off; these spans are
//! the only tracing, and only the traced run records them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    /// Spans of one job share this identifier.
    job: u64,
    name: &'static str,
    /// The span that caused this one (`None` for a job's root span).
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        job: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            job,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        job: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(job, name, parent, start, Instant::now());
        out
    }

    /// Seconds spent in spans named `name`, summed per job.
    pub fn per_job(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut by_job: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_job.entry(s.job).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        by_job
    }

    /// Writes every span as one JSON object per line to
    /// `<WORK_DIR>/spans-<label>.jsonl`.
    pub fn write(&self, label: &str) -> Result<(), String> {
        let path = Path::new(crate::WORK_DIR).join(format!("spans-{label}.jsonl"));
        self.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(crate::WORK_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"job":{},"name":"{}","parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.job,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
