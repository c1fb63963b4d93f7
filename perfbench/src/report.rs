//! The result of one benchmark run: metrics by name and unit, the exact
//! counts, host metadata, and the one-line JSON result.

use crate::stats::Tail;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("modelled_speedup_geomean", "x"),
];

/// Per-layer metrics, named by crate, in output order, with their units.
/// Every workload reports every one; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("compile.s", "s"),
    ("analysis.s", "s"),
    ("analysis.loops", "count"),
    ("profile.s", "s"),
    ("profile.slowdown", "x"),
    ("schedule.s", "s"),
    ("schedule.selected_loops", "count"),
    ("schedule.bytes", "B"),
    ("vm.s", "s"),
    ("vm.minst_per_s", "Minst/s"),
    ("dbm.prepare_s", "s"),
    ("dbm.run_s", "s"),
    ("dbm.minst_per_s", "Minst/s"),
    ("dbm.parallel_s", "s"),
    ("dbm.sequential_s", "s"),
    ("dbm.parallel_invocations", "count"),
    ("dbm.sequential_fallbacks", "count"),
    ("dbm.blocks_translated", "count"),
    ("dbm.block_executions", "count"),
    ("dbm.merge_pages_merged", "count"),
    ("dbm.merge_pages_skipped", "count"),
    ("dbm.cycles", "cycles"),
    ("dbm.os_threads", "count"),
    ("spec.race_s", "s"),
    ("spec.rest_s", "s"),
    ("spec.iterations", "count"),
    ("spec.executions", "count"),
    ("spec.aborts", "count"),
    ("spec.validations", "count"),
    ("spec.fallbacks", "count"),
    ("spec.useful_ratio", "ratio"),
    ("serve.submit_s", "s"),
    ("serve.service_s", "s"),
    ("serve.hit_service_s", "s"),
    ("serve.miss_service_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.builds", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Counts the program makes deterministically: equal for a given seed
/// across runs and between the traced and untraced runs.
pub const EXACT: [&str; 6] = [
    "dbm.cycles",
    "schedule.selected_loops",
    "schedule.bytes",
    "analysis.loops",
    "serve.builds",
    "serve.cache_hit_ratio",
];

#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub tail: Option<Tail>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness or exact-count failures, one line each.
    pub errors: Vec<String>,
    /// Workload-specific facts printed beside the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Prints the human-readable lines (prefixed `#`) and, last, the JSON
    /// result. With `trace` the result carries the per-layer metrics,
    /// otherwise the end-to-end ones.
    pub fn print(&self, meta: &str, trace: bool) {
        println!("# host {meta}");
        for note in &self.notes {
            println!("# {note}");
        }
        for (table, values) in [
            (&END_TO_END[..], &self.end_to_end),
            (&PER_LAYER[..], &self.layers),
        ] {
            for (name, unit) in table {
                if let Some(v) = values.get(name) {
                    println!("# {name} = {v} {unit}");
                }
            }
        }
        // Printed, not bounded: the speculative pool's allocations make the
        // peak move by over a quarter between runs of the same seed.
        println!("# peak_rss_mb = {} MB", peak_rss_mb());
        if let Some(t) = self.tail {
            println!(
                "# job_tail_s is p{:.1} of {} samples, median over {} such blocks",
                t.percentile, t.samples, t.blocks
            );
        }
        println!(
            "# failed_frac = {} ({} of {} jobs)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let exact: Vec<String> = EXACT
            .iter()
            .filter_map(|n| self.layers.get(n).map(|v| format!("\"{n}\":{v}")))
            .collect();
        println!("# exact {{{}}}", exact.join(","));
        for e in &self.errors {
            println!("# error: {e}");
        }
        let (table, values) = if trace {
            (&PER_LAYER[..], &self.layers)
        } else {
            (&END_TO_END[..], &self.end_to_end)
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#
            );
        }
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host metadata recorded with every result, as a JSON object.
pub fn host_meta(workload: &str, backend: &str, threads: u32, callers: usize) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // Only a checkout that is itself a git repository names its commit; a
    // parent directory's repository would name the wrong one.
    let git_sha = if std::path::Path::new(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        r#"{{"workload":"{workload}","nproc":{},"rustc":"{}","git_sha":"{git_sha}","backend":"{backend}","threads":{threads},"callers":{callers}}}"#,
        nproc(),
        command("rustc", &["--version"]).replace('"', "'"),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Refuses a load that would run more OS threads than the host has cores:
/// `callers` concurrent jobs, each using `os_threads_per_job`.
pub fn check_load(callers: usize, os_threads_per_job: usize) -> Result<(), String> {
    let load = callers * os_threads_per_job;
    if load > nproc() {
        return Err(format!(
            "load needs {callers} x {os_threads_per_job} OS threads but nproc is {}",
            nproc()
        ));
    }
    Ok(())
}
