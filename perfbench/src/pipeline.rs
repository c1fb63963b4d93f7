//! `pipeline-doall` and `pipeline-spec`: one caller in a closed loop runs
//! `Janus::run_with_inputs` over a fixed, weighted mix of suite programs at
//! reference scale, in an order the seed shuffles.

use crate::job::Reference;
use crate::job::{count_layers, pinned_janus, run_traced, run_untraced, stage_layers, Direct};
use crate::report::{self, Report};
use crate::stats::{geomean, median, tail, Rng};
use crate::trace::Spans;
use crate::{Args, SETUPS};
use janus::compile::Compiler;
use janus::core::{BackendKind, Janus};
use janus::ir::JBinary;
use janus::workloads::workload;
use std::time::Instant;

/// Guest threads per job. With one caller and the native backend this is
/// also the number of OS threads the load runs.
const THREADS: u32 = 2;

/// A fixed program mix. Weights place each reported latency rank inside one
/// program's share of the samples, never on the boundary between two.
#[derive(Debug)]
pub struct Mix {
    pub name: &'static str,
    /// `(program, jobs per pass)`.
    pub programs: &'static [(&'static str, usize)],
    /// The warm-up job's program: the same for every seed.
    pub warmup: &'static str,
    /// Nominal seconds of one pass on the reference host. A run makes
    /// `round(seconds / nominal_pass_s)` passes, so a seed always gets the
    /// same jobs and the same ranks however fast the program is.
    pub nominal_pass_s: f64,
}

/// The nine programs the paper parallelises, one job each per pass: with an
/// odd count the median falls in the middle program's share. At 7 passes
/// (`run_seconds` 20) the tail rank, the 11th slowest of 63 jobs, falls in
/// the middle of the second slowest program's share.
pub const DOALL: Mix = Mix {
    name: "pipeline-doall",
    programs: &[
        ("410.bwaves", 1),
        ("433.milc", 1),
        ("436.cactusADM", 1),
        ("437.leslie3d", 1),
        ("459.GemsFDTD", 1),
        ("462.libquantum", 1),
        ("464.h264ref", 1),
        ("470.lbm", 1),
        ("482.sphinx3", 1),
    ],
    warmup: "462.libquantum",
    nominal_pass_s: 2.9,
};

/// The four speculative programs. With equal weights the median would sit
/// exactly between the second and third fastest; sparse-update (the middle
/// one by job time) carries three of six jobs, so the median and the tail
/// both fall inside its share.
pub const SPEC: Mix = Mix {
    name: "pipeline-spec",
    programs: &[
        ("spec.histogram", 1),
        ("spec.sparse-update", 3),
        ("spec.gather-scatter", 1),
        ("spec.doacross-window", 1),
    ],
    warmup: "spec.doacross-window",
    nominal_pass_s: 3.5,
};

struct Program {
    name: &'static str,
    binary: JBinary,
    reference: Reference,
}

/// Compiles the mix, computes the reference outputs and runs the warm-up
/// job. `tiny` uses the training-scale programs.
fn setup(
    janus: &Janus,
    mix: &Mix,
    tiny: bool,
    compile_s: &mut Vec<f64>,
) -> Result<Vec<Program>, String> {
    let mut programs = Vec::new();
    for &(name, _) in mix.programs {
        let w = workload(name).ok_or_else(|| format!("unknown program {name}"))?;
        let source = if tiny { &w.train_program } else { &w.program };
        let start = Instant::now();
        let binary = Compiler::new()
            .compile(source)
            .map_err(|e| format!("{name}: {e}"))?;
        compile_s.push(start.elapsed().as_secs_f64());
        let reference = Reference::of(&binary).map_err(|e| format!("{name}: {e}"))?;
        programs.push(Program {
            name,
            binary,
            reference,
        });
    }
    let warm = programs
        .iter()
        .find(|p| p.name == mix.warmup)
        .ok_or("warm-up program is not in the mix")?;
    let d = run_untraced(janus, &warm.binary)?;
    warm.reference
        .check(d.fingerprint.exit_code, &d.fingerprint.ints, &d.floats)
        .map_err(|e| format!("warm-up {}: {e}", warm.name))?;
    Ok(programs)
}

pub fn run(args: &Args, mix: &Mix) -> Result<(Report, String), String> {
    report::check_load(1, THREADS as usize)?;
    let meta = report::host_meta(mix.name, BackendKind::NativeThreads.label(), THREADS, 1);
    let janus = pinned_janus(BackendKind::NativeThreads, THREADS);

    let mut compile_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..if args.tiny { 1 } else { SETUPS } {
        let start = Instant::now();
        programs = setup(&janus, mix, args.tiny, &mut compile_s)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    if args.inject_mismatch {
        programs[0].reference.corrupt();
    }

    let mut passes = if args.tiny {
        1
    } else {
        ((args.seconds as f64 / mix.nominal_pass_s).round() as usize).max(1)
    };
    if args.trace {
        // Untraced and traced passes alternate; both kinds must run.
        passes = passes.max(2);
    }
    let mut rng = Rng::new(args.seed, mix.name);
    let mut spans = Spans::new();
    let mut report = Report::default();
    // Per program: the first run, whose fingerprint every run must repeat.
    let mut first: Vec<Option<Direct>> = vec![None; programs.len()];
    let mut traced_runs: Vec<(u64, Direct)> = Vec::new();
    let mut latencies = Vec::new();
    let mut by_program: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    // Index 0: untraced passes, 1: traced passes.
    let mut window_s = [0.0f64; 2];
    let mut jobs = [0usize; 2];
    let mut job = 0u64;

    for pass in 0..passes {
        let traced = args.trace && pass % 2 == 1;
        let mut order: Vec<usize> = mix
            .programs
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, weight))| std::iter::repeat_n(i, weight))
            .collect();
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        for &p in &order {
            let program = &programs[p];
            let start = Instant::now();
            let result = if traced {
                run_traced(&janus, &program.binary, &mut spans, job)
            } else {
                run_untraced(&janus, &program.binary)
            };
            let latency = start.elapsed().as_secs_f64();
            report.attempted += 1;
            if !traced {
                latencies.push(latency);
                by_program[p].push(latency);
            }
            let d = match result {
                Ok(d) => d,
                Err(e) => {
                    report.fail(format!("{}: {e}", program.name));
                    job += 1;
                    continue;
                }
            };
            let f = &d.fingerprint;
            if let Err(e) = program.reference.check(f.exit_code, &f.ints, &d.floats) {
                report.fail(format!("{}: {e}", program.name));
            } else if let Some(drift) = first[p].as_ref().and_then(|e| e.fingerprint.drift(f)) {
                report.fail(format!("{}: exact counts drifted: {drift}", program.name));
            }
            let known = &mut first[p].get_or_insert_with(|| d.clone()).fingerprint;
            known.analysis_loops = known.analysis_loops.or(f.analysis_loops);
            if traced {
                traced_runs.push((job, d));
            }
            job += 1;
        }
        window_s[usize::from(traced)] += pass_start.elapsed().as_secs_f64();
        jobs[usize::from(traced)] += order.len();
    }

    let untraced_jps = jobs[0] as f64 / window_s[0];
    let t = tail(&latencies, latencies.len());
    let firsts: Vec<&Direct> = first.iter().flatten().collect();
    let speedups: Vec<f64> = firsts
        .iter()
        .map(|d| d.native_cycles as f64 / d.fingerprint.cycles.max(1) as f64)
        .collect();
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("jobs_per_s", untraced_jps);
    e2e.insert("job_p50_s", median(&latencies));
    e2e.insert("job_tail_s", t.value);
    e2e.insert("modelled_speedup_geomean", geomean(&speedups));
    report.tail = Some(t);
    // Each program's share of the samples and its median job time: the
    // reported ranks must fall inside one program's share.
    let mut shares: Vec<(f64, &str, usize)> = (0..programs.len())
        .map(|p| {
            (
                median(&by_program[p]),
                programs[p].name,
                by_program[p].len(),
            )
        })
        .collect();
    shares.sort_by(|a, b| a.0.total_cmp(&b.0));
    let shares: Vec<String> = shares
        .iter()
        .map(|(m, name, n)| format!("{name} {n} x {m:.4} s"))
        .collect();
    report
        .notes
        .push(format!("mix by job time: {}", shares.join(", ")));

    let layers = &mut report.layers;
    layers.insert("compile.s", median(&compile_s));
    count_layers(layers, &firsts);
    if args.trace {
        let runs: Vec<(u64, &Direct)> = traced_runs.iter().map(|(j, d)| (*j, d)).collect();
        stage_layers(layers, &spans, &runs);
        let traced_jps = jobs[1] as f64 / window_s[1];
        layers.insert("obs.trace_overhead_frac", 1.0 - traced_jps / untraced_jps);
        spans.write(&format!("{}-seed{}", mix.name, args.seed))?;
    }
    Ok((report, meta))
}
