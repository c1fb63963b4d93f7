//! The Janus benchmark: whole-job latency and throughput of the pipeline
//! and of the serving layer, with per-layer timings taken from outside.
//! See README.md in this directory for the workloads, the metrics and how
//! to make the traced run.

mod job;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Scratch directory, relative to the directory the benchmark runs in:
/// the span files of traced runs.
pub const WORK_DIR: &str = ".perfbench_work";

/// Set-ups per run; `setup_s` is their median. Several, because the host's
/// speed swings by half within a second or two.
pub const SETUPS: usize = 9;

const USAGE: &str = "usage: perfbench --workload <pipeline-doall|pipeline-spec|serve-churn> \
--seed <n> --seconds <n> --trace <0|1> [--tiny] [--inject-mismatch]";

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Smoke-test size: training-scale programs, few jobs, one set-up.
    pub tiny: bool,
    /// Corrupts one reference output, so the run must report failures.
    pub inject_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut inject_mismatch) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--inject-mismatch" => inject_mismatch = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        inject_mismatch,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "pipeline-doall" => pipeline::run(&args, &pipeline::DOALL),
        "pipeline-spec" => pipeline::run(&args, &pipeline::SPEC),
        "serve-churn" => serve::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok((report, meta)) => {
            report.print(&meta, args.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
