//! `serve-churn`: one `janus.serve` session (2 workers, virtual backend,
//! in-memory artifact cache) driven by a closed loop with two jobs
//! outstanding, submitted and joined in rounds. About half the jobs are
//! first sightings of generated programs; the rest repeat a hot set.
//!
//! The session has no disk store: each store write ends in an `fsync`, and
//! on a shared disk its latency swings several-fold within minutes, which
//! no regression bound can absorb.

use crate::job::Reference;
use crate::job::{count_layers, pinned_janus, run_traced, run_untraced, stage_layers, Direct};
use crate::report::{self, Report};
use crate::stats::{geomean, median, tail, Rng};
use crate::trace::Spans;
use crate::{Args, SETUPS};
use janus::compile::Compiler;
use janus::core::{BackendKind, Janus};
use janus::ir::JBinary;
use janus::serve::{JobSpec, ServeConfig, ServeHandle, ServeSession, ServeStats};
use janus::workloads::ProgramSpec;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
/// Guest threads per job. The virtual backend runs them on the worker's
/// own OS thread, so the load is `WORKERS` OS threads.
const THREADS: u32 = 2;
/// Jobs outstanding per round: `join` is the only completion signal the
/// public API offers, so the loop is closed and joins in rounds.
const OUTSTANDING: usize = 2;
/// Programs in the hot set, and the cache capacity that keeps it resident:
/// a hot program would have to go unused for about 2 × 512 jobs to become
/// least recently used.
const HOT: usize = 16;
const CACHE_CAPACITY: usize = 512;
/// Jobs per second of `--seconds` on the reference host. The job count is
/// fixed from it, so a seed always gets the same jobs and exact counts.
const NOMINAL_JOBS_PER_S: f64 = 1000.0;
/// Jobs per tail block. Over a whole run the highest percentile with ten
/// samples beyond it would be p99.95, set by a handful of stalls; the
/// median over 500-job blocks of each block's one (p97.8) is steady.
const TAIL_BLOCK: usize = 500;
const TINY_HOT: usize = 4;
const TINY_JOBS: usize = 16;
/// Span job ids of direct pipeline runs start here, apart from served jobs.
const DIRECT_JOB_BASE: u64 = 1 << 32;

struct Program {
    binary: Arc<JBinary>,
    reference: Reference,
    /// The same program run directly (`Janus::run_with_inputs`, or its
    /// calls one by one when traced) with the session's configuration:
    /// every served run must reproduce it bit for bit.
    direct: Result<Direct, String>,
    /// The direct run's span job id.
    direct_job: u64,
    first_sighting: bool,
}

/// Draws generated programs from the seed, each with a content digest not
/// seen before in this run, and prepares their references.
struct Programs {
    janus: Janus,
    rng: Rng,
    seen: HashSet<u64>,
    trace: bool,
    direct_runs: u64,
    compile_s: Vec<f64>,
}

impl Programs {
    fn new(seed: u64, trace: bool) -> Programs {
        Programs {
            janus: pinned_janus(BackendKind::VirtualTime, THREADS),
            rng: Rng::new(seed, "serve-churn programs"),
            seen: HashSet::new(),
            trace,
            direct_runs: 0,
            compile_s: Vec::new(),
        }
    }

    fn next(&mut self, first_sighting: bool, spans: &mut Spans) -> Result<Program, String> {
        let binary = loop {
            let spec = ProgramSpec::generate(self.rng.next_u64());
            let start = Instant::now();
            let binary = Compiler::new()
                .compile(&spec.lower())
                .map_err(|e| format!("generated program {}: {e}", spec.seed))?;
            self.compile_s.push(start.elapsed().as_secs_f64());
            if self.seen.insert(binary.content_digest()) {
                break binary;
            }
        };
        let reference = Reference::of(&binary)?;
        let direct_job = DIRECT_JOB_BASE + self.direct_runs;
        self.direct_runs += 1;
        let direct = if self.trace {
            run_traced(&self.janus, &binary, spans, direct_job)
        } else {
            run_untraced(&self.janus, &binary)
        };
        Ok(Program {
            binary: Arc::new(binary),
            reference,
            direct,
            direct_job,
            first_sighting,
        })
    }
}

/// Checks one served job against its program's direct run (bit for bit)
/// and plain-VM reference.
fn check(program: &Program, r: &janus::serve::JobReport) -> Result<(), String> {
    let direct = program.direct.as_ref()?;
    program
        .reference
        .check(r.exit_code, &r.output_ints, &r.output_floats)?;
    let f = &direct.fingerprint;
    let float_bits: Vec<u64> = r.output_floats.iter().map(|v| v.to_bits()).collect();
    if (
        r.exit_code,
        &r.output_ints,
        &float_bits,
        r.memory_digest,
        r.cycles,
    ) != (
        f.exit_code,
        &f.ints,
        &f.float_bits,
        f.memory_digest,
        f.cycles,
    ) {
        return Err("served run differs from the direct run".into());
    }
    Ok(())
}

struct Session {
    handle: ServeHandle,
    hot: Vec<Program>,
    programs: Programs,
    after_warmup: ServeStats,
}

/// Compiles the hot set, computes its references, opens the session and
/// warms it with one job per hot program.
fn setup(args: &Args, spans: &mut Spans) -> Result<Session, String> {
    let mut programs = Programs::new(args.seed, args.trace);
    let hot_count = if args.tiny { TINY_HOT } else { HOT };
    let hot = (0..hot_count)
        .map(|_| programs.next(false, spans))
        .collect::<Result<Vec<_>, _>>()?;
    let handle = programs
        .janus
        .try_serve(ServeConfig {
            workers: WORKERS,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("opening the session: {e}"))?;
    for p in &hot {
        handle
            .submit(JobSpec::new(p.binary.clone()))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    for ((_, outcome), p) in handle.join().into_iter().zip(&hot) {
        let r = outcome.map_err(|e| format!("warm-up: {e}"))?;
        check(p, &r).map_err(|e| format!("warm-up: {e}"))?;
    }
    let after_warmup = handle.stats();
    Ok(Session {
        handle,
        hot,
        programs,
        after_warmup,
    })
}

/// A job's program: one of the hot set, or a first sighting.
enum Pick {
    Hot(usize),
    Fresh(Box<Program>),
}

/// One served job's raw samples.
struct Sample {
    latency_s: f64,
    submit_s: f64,
    service_s: f64,
    first_sighting: bool,
    traced: bool,
}

pub fn run(args: &Args) -> Result<(Report, String), String> {
    report::check_load(WORKERS, 1)?;
    let meta = report::host_meta(
        "serve-churn",
        BackendKind::VirtualTime.label(),
        THREADS,
        WORKERS,
    );
    let mut spans = Spans::new();
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..if args.tiny { 1 } else { SETUPS } {
        // Shut the previous session down before timing the next set-up.
        drop(session.take());
        // Only the kept set-up's direct runs belong in the trace.
        spans = Spans::new();
        let start = Instant::now();
        session = Some(setup(args, &mut spans)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up ran");
    if args.inject_mismatch {
        for p in &mut session.hot {
            p.reference.corrupt();
        }
    }

    let jobs_total = if args.tiny {
        TINY_JOBS
    } else {
        let n = (args.seconds as f64 * NOMINAL_JOBS_PER_S).round() as usize;
        (n / (2 * OUTSTANDING)).max(1) * 2 * OUTSTANDING
    };
    let mut choices = Rng::new(args.seed, "serve-churn jobs");
    let mut report = Report::default();
    let mut samples: Vec<Sample> = Vec::new();
    // Direct runs of every distinct program this run served.
    let mut distinct: Vec<(u64, Direct)> = session
        .hot
        .iter()
        .filter_map(|p| Some((p.direct_job, p.direct.as_ref().ok()?.clone())))
        .collect();
    let mut first_sightings = 0u64;
    // Index 0: untraced rounds, 1: traced rounds.
    let mut window_s = [0.0f64; 2];
    let mut jobs = [0usize; 2];

    for round in 0..jobs_total / OUTSTANDING {
        let traced = args.trace && round % 2 == 1;
        // Draw and prepare this round's programs; not timed.
        let mut picks = Vec::new();
        for _ in 0..OUTSTANDING {
            picks.push(if choices.below(2) == 0 {
                Pick::Fresh(Box::new(session.programs.next(true, &mut spans)?))
            } else {
                Pick::Hot(choices.below(session.hot.len()))
            });
        }
        let round_programs: Vec<&Program> = picks
            .iter()
            .map(|pick| match pick {
                Pick::Hot(i) => &session.hot[*i],
                Pick::Fresh(p) => p,
            })
            .collect();

        let round_start = Instant::now();
        let mut submitted = Vec::new();
        for p in &round_programs {
            let start = Instant::now();
            let id = session.handle.submit(JobSpec::new(p.binary.clone()));
            submitted.push((start, Instant::now(), id));
        }
        let mut outcomes: BTreeMap<_, _> = session.handle.join().into_iter().collect();
        let done = Instant::now();
        window_s[usize::from(traced)] += done.duration_since(round_start).as_secs_f64();
        jobs[usize::from(traced)] += OUTSTANDING;

        for (k, (p, (start, submit_end, id))) in round_programs.iter().zip(submitted).enumerate() {
            report.attempted += 1;
            let job = (round * OUTSTANDING + k) as u64;
            if traced {
                spans.record(job, "serve.submit", Some("serve.job"), start, submit_end);
                spans.record(job, "serve.job", None, start, done);
            }
            let outcome = match id {
                Ok(id) => outcomes.remove(&id),
                Err(e) => Some(Err(e)),
            };
            let r = match outcome {
                Some(Ok(r)) => r,
                Some(Err(e)) => {
                    report.fail(format!("job {job}: {e}"));
                    continue;
                }
                None => {
                    report.fail(format!("job {job}: no outcome from join"));
                    continue;
                }
            };
            if let Err(e) = check(p, &r) {
                report.fail(format!("job {job}: {e}"));
                continue;
            }
            samples.push(Sample {
                latency_s: done.duration_since(start).as_secs_f64(),
                submit_s: submit_end.duration_since(start).as_secs_f64(),
                service_s: r.wall_nanos as f64 * 1e-9,
                first_sighting: p.first_sighting,
                traced,
            });
        }
        for pick in picks {
            if let Pick::Fresh(p) = pick {
                first_sightings += 1;
                if let Ok(d) = p.direct {
                    distinct.push((p.direct_job, d));
                }
            }
        }
    }

    // Exact cache counts: every first sighting builds once, every other
    // lookup is served without a build.
    let stats = session.handle.stats();
    let w = &session.after_warmup;
    let builds = stats.cache_misses - w.cache_misses;
    let amortised = (stats.cache_hits + stats.cache_inflight_waits + stats.disk_hits)
        - (w.cache_hits + w.cache_inflight_waits + w.disk_hits);
    let expected_amortised = jobs_total as u64 - first_sightings;
    if (builds, amortised) != (first_sightings, expected_amortised) {
        report.errors.push(format!(
            "cache counts drifted: {builds} builds and {amortised} served without a build, \
             expected {first_sightings} and {expected_amortised}"
        ));
    }
    let _ = session.handle.shutdown();
    let compile_s = session.programs.compile_s;

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let latencies: Vec<f64> = untraced.iter().map(|s| s.latency_s).collect();
    let t = tail(&latencies, TAIL_BLOCK);
    let untraced_jps = jobs[0] as f64 / window_s[0];
    let speedups: Vec<f64> = distinct
        .iter()
        .map(|(_, d)| d.native_cycles as f64 / d.fingerprint.cycles.max(1) as f64)
        .collect();
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("jobs_per_s", untraced_jps);
    e2e.insert("job_p50_s", median(&latencies));
    e2e.insert("job_tail_s", t.value);
    e2e.insert("modelled_speedup_geomean", geomean(&speedups));
    report.tail = Some(t);

    let layers = &mut report.layers;
    layers.insert("compile.s", median(&compile_s));
    let refs: Vec<&Direct> = distinct.iter().map(|(_, d)| d).collect();
    count_layers(layers, &refs);
    layers.insert("serve.builds", builds as f64);
    layers.insert(
        "serve.cache_hit_ratio",
        amortised as f64 / (amortised + builds).max(1) as f64,
    );
    if args.trace {
        let runs: Vec<(u64, &Direct)> = distinct.iter().map(|(j, d)| (*j, d)).collect();
        stage_layers(layers, &spans, &runs);
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
        let m = |f: &dyn Fn(&Sample) -> Option<f64>| {
            median(&traced.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
        };
        layers.insert("serve.submit_s", m(&|s| Some(s.submit_s)));
        layers.insert("serve.service_s", m(&|s| Some(s.service_s)));
        layers.insert(
            "serve.hit_service_s",
            m(&|s| (!s.first_sighting).then_some(s.service_s)),
        );
        layers.insert(
            "serve.miss_service_s",
            m(&|s| s.first_sighting.then_some(s.service_s)),
        );
        layers.insert("serve.wait_s", m(&|s| Some(s.latency_s - s.service_s)));
        let traced_jps = jobs[1] as f64 / window_s[1];
        layers.insert("obs.trace_overhead_frac", 1.0 - traced_jps / untraced_jps);
        spans.write(&format!("serve-churn-seed{}", args.seed))?;
    }
    Ok((report, meta))
}
