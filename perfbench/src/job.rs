//! One guest program: its plain-VM reference run, the direct pipeline run
//! (`Janus::run_with_inputs`, or the same public calls one by one when
//! traced), and the checks every job's output must pass.

use crate::stats::median;
use crate::trace::Spans;
use janus::core::{
    BackendKind, DbmConfig, Janus, JanusConfig, OptimisationMode, PreparedDbm, SpecCommitMode,
};
use janus::dbm::DbmStats;
use janus::ir::JBinary;
use janus::obs::Recorder;
use janus::vm::{Process, Vm};
use std::collections::BTreeMap;
use std::time::Instant;

/// A paralleliser with every choice that changes what is measured pinned,
/// so `JANUS_BACKEND` / `JANUS_ADAPTIVE` in the environment cannot change a
/// run: `DbmConfig::default` reads both, so each is overridden here.
pub fn pinned_janus(backend: BackendKind, threads: u32) -> Janus {
    let dbm = DbmConfig {
        threads,
        backend,
        enable_runtime_checks: true,
        enable_speculation: true,
        spec_commit: SpecCommitMode::Deterministic,
        adaptive: false,
        ..DbmConfig::default()
    };
    Janus::with_config(JanusConfig {
        threads,
        backend,
        mode: OptimisationMode::Full,
        speculation: true,
        adaptive: false,
        dbm,
        trace: Recorder::default(),
        ..JanusConfig::default()
    })
}

/// The output of a plain `janus_vm::Vm` run, made at set-up.
#[derive(Debug, Clone)]
pub struct Reference {
    pub exit_code: i64,
    pub ints: Vec<i64>,
    pub floats: Vec<f64>,
}

impl Reference {
    pub fn of(binary: &JBinary) -> Result<Reference, String> {
        let mut vm = Vm::new(Process::load(binary).map_err(|e| e.to_string())?);
        let run = vm.run().map_err(|e| format!("reference run: {e}"))?;
        Ok(Reference {
            exit_code: run.exit_code,
            ints: vm.output_ints().to_vec(),
            floats: vm.output_floats().to_vec(),
        })
    }

    /// Exit code and integers must be equal. Floats must be bit-equal or
    /// within 1e-9 relative: parallel float reductions sum in chunk order,
    /// so their low bits legitimately differ from the serial run. This is
    /// the rule `Janus::run_with_inputs` applies to its own outputs.
    pub fn check(&self, exit_code: i64, ints: &[i64], floats: &[f64]) -> Result<(), String> {
        if exit_code != self.exit_code {
            return Err(format!(
                "exit code {exit_code}, reference {}",
                self.exit_code
            ));
        }
        if ints != self.ints.as_slice() {
            return Err("integer outputs differ from the reference".into());
        }
        let close =
            |a: f64, b: f64| a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        if floats.len() != self.floats.len()
            || !self.floats.iter().zip(floats).all(|(&a, &b)| close(a, b))
        {
            return Err("float outputs differ from the reference".into());
        }
        Ok(())
    }

    /// Corrupts the first output value, so every later check of this
    /// program must fail (the smoke test's injected mismatch).
    pub fn corrupt(&mut self) {
        if let Some(f) = self.floats.first_mut() {
            *f = *f * 2.0 + 1.0;
        } else if let Some(i) = self.ints.first_mut() {
            *i = i.wrapping_add(1);
        } else {
            self.exit_code = self.exit_code.wrapping_add(1);
        }
    }
}

/// Everything a run of one program makes deterministically. Every run of
/// the same program must reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub exit_code: i64,
    pub ints: Vec<i64>,
    pub float_bits: Vec<u64>,
    pub memory_digest: u64,
    pub cycles: u64,
    pub selected_loops: usize,
    pub schedule_bytes: u64,
    /// Known only when the analysis ran as its own call (traced runs).
    pub analysis_loops: Option<usize>,
}

impl Fingerprint {
    /// Compares two fingerprints, `analysis_loops` only where both know it.
    pub fn drift(&self, other: &Fingerprint) -> Option<String> {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.analysis_loops.is_none() || b.analysis_loops.is_none() {
            a.analysis_loops = None;
            b.analysis_loops = None;
        }
        (a != b).then(|| format!("{a:?} then {b:?}"))
    }
}

/// The result of one direct pipeline run.
#[derive(Debug, Clone)]
pub struct Direct {
    pub fingerprint: Fingerprint,
    pub floats: Vec<f64>,
    pub native_cycles: u64,
    pub native_retired: u64,
    pub stats: DbmStats,
}

/// One `Janus::run_with_inputs` call with empty train and reference inputs.
pub fn run_untraced(janus: &Janus, binary: &JBinary) -> Result<Direct, String> {
    let report = janus
        .run_with_inputs(binary, &[], &[])
        .map_err(|e| e.to_string())?;
    let p = report.parallel;
    Ok(Direct {
        fingerprint: Fingerprint {
            exit_code: p.exit_code,
            ints: p.output_ints,
            float_bits: p.output_floats.iter().map(|f| f.to_bits()).collect(),
            memory_digest: p.memory_digest,
            cycles: p.cycles,
            selected_loops: report.selected_loops.len(),
            schedule_bytes: report.schedule_size,
            analysis_loops: None,
        },
        floats: p.output_floats,
        native_cycles: report.native.cycles,
        native_retired: report.native.retired,
        stats: p.stats,
    })
}

/// The same public calls `Janus::run_with_inputs` makes, in the same order,
/// each inside a span of job `job`: `analyze`, `profile`, `select_loops` +
/// `generate_schedule`, the native `Vm::run`, then `PreparedDbm::new` +
/// `execute`.
pub fn run_traced(
    janus: &Janus,
    binary: &JBinary,
    spans: &mut Spans,
    job: u64,
) -> Result<Direct, String> {
    let start = Instant::now();
    let parent = Some("job");
    let analysis = spans
        .time(job, "analysis", parent, || janus.analyze(binary))
        .map_err(|e| e.to_string())?;
    let profile = spans
        .time(job, "profile", parent, || {
            janus.profile(binary, &analysis, &[])
        })
        .map_err(|e| e.to_string())?;
    let (selected, schedule) = spans.time(job, "schedule", parent, || {
        let selected = janus.select_loops(&analysis, Some(&profile));
        let schedule = janus.generate_schedule(binary, &analysis, &selected);
        (selected, schedule)
    });
    let (process, native) = spans
        .time(job, "vm", parent, || {
            let process = Process::load(binary)?;
            let mut vm = Vm::new(process.clone());
            vm.set_input(&[]);
            vm.run().map(|run| (process, run))
        })
        .map_err(|e| e.to_string())?;
    let prepared = spans.time(job, "dbm.prepare", parent, || {
        PreparedDbm::new(process, &schedule, janus.dbm_config())
    });
    let p = spans
        .time(job, "dbm.run", parent, || prepared.execute(&[]))
        .map_err(|e| e.to_string())?;
    spans.record(job, "job", None, start, Instant::now());
    Ok(Direct {
        fingerprint: Fingerprint {
            exit_code: p.exit_code,
            ints: p.output_ints,
            float_bits: p.output_floats.iter().map(|f| f.to_bits()).collect(),
            memory_digest: p.memory_digest,
            cycles: p.cycles,
            selected_loops: selected.len(),
            schedule_bytes: schedule.byte_size(),
            analysis_loops: Some(analysis.loops.len()),
        },
        floats: p.output_floats,
        native_cycles: native.cycles,
        native_retired: native.retired,
        stats: p.stats,
    })
}

/// Reads one count off a direct run.
type Count = fn(&Direct) -> u64;

/// Per-layer counts summed over distinct programs, one direct run each.
pub fn count_layers(layers: &mut BTreeMap<&'static str, f64>, runs: &[&Direct]) {
    let counts: [(&'static str, Count); 15] = [
        ("dbm.cycles", |d| d.fingerprint.cycles),
        ("schedule.selected_loops", |d| {
            d.fingerprint.selected_loops as u64
        }),
        ("schedule.bytes", |d| d.fingerprint.schedule_bytes),
        ("dbm.parallel_invocations", |d| d.stats.parallel_invocations),
        ("dbm.sequential_fallbacks", |d| d.stats.sequential_fallbacks),
        ("dbm.blocks_translated", |d| d.stats.blocks_translated),
        ("dbm.block_executions", |d| d.stats.block_executions),
        ("dbm.merge_pages_merged", |d| d.stats.merge_pages_merged),
        ("dbm.merge_pages_skipped", |d| d.stats.merge_pages_skipped),
        ("spec.iterations", |d| d.stats.spec_iterations),
        ("spec.executions", |d| d.stats.spec_executions),
        ("spec.aborts", |d| d.stats.spec_aborts),
        ("spec.validations", |d| d.stats.spec_validations),
        ("spec.fallbacks", |d| d.stats.spec_fallbacks),
        ("analysis.loops", |d| {
            d.fingerprint.analysis_loops.unwrap_or(0) as u64
        }),
    ];
    for (name, count) in counts {
        layers.insert(name, runs.iter().map(|d| count(d)).sum::<u64>() as f64);
    }
    // The loop count is known only when every run made the analysis call.
    if runs.iter().any(|d| d.fingerprint.analysis_loops.is_none()) {
        layers.remove("analysis.loops");
    }
    let os_threads = runs.iter().map(|d| d.stats.os_threads_used).max();
    layers.insert("dbm.os_threads", os_threads.unwrap_or(0) as f64);
    let (iterations, executions) = (layers["spec.iterations"], layers["spec.executions"]);
    let useful = if executions > 0.0 {
        iterations / executions
    } else {
        0.0
    };
    layers.insert("spec.useful_ratio", useful);
}

/// Per-layer stage times: medians over the traced direct runs `runs`
/// (keyed by job) of their spans and of rates derived from them.
pub fn stage_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    spans: &Spans,
    runs: &[(u64, &Direct)],
) {
    for (span, metric) in [
        ("analysis", "analysis.s"),
        ("profile", "profile.s"),
        ("schedule", "schedule.s"),
        ("vm", "vm.s"),
        ("dbm.prepare", "dbm.prepare_s"),
        ("dbm.run", "dbm.run_s"),
    ] {
        let per_job: Vec<f64> = spans.per_job(span).into_values().collect();
        layers.insert(metric, median(&per_job));
    }
    let (profile, vm, run) = (
        spans.per_job("profile"),
        spans.per_job("vm"),
        spans.per_job("dbm.run"),
    );
    let mut derived: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(job, d) in runs {
        let (Some(&profile_s), Some(&vm_s), Some(&run_s)) =
            (profile.get(&job), vm.get(&job), run.get(&job))
        else {
            continue;
        };
        let parallel_s = d.stats.parallel_wall_nanos as f64 * 1e-9;
        let mut push = |k, v| derived.entry(k).or_default().push(v);
        push("profile.slowdown", profile_s / vm_s);
        push("vm.minst_per_s", d.native_retired as f64 / vm_s * 1e-6);
        push("dbm.minst_per_s", d.stats.retired as f64 / run_s * 1e-6);
        push("dbm.parallel_s", parallel_s);
        push("dbm.sequential_s", run_s - parallel_s);
        if d.stats.spec_invocations > 0 {
            push("spec.race_s", parallel_s);
            push("spec.rest_s", run_s - parallel_s);
        }
    }
    for (k, v) in derived {
        layers.insert(k, median(&v));
    }
}
