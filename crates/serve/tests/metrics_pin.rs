//! Pins the shape of a default serving session's telemetry.
//!
//! One default session (only a worker count and an ephemeral telemetry
//! port set) runs a mixed multi-tenant batch with deadlines; the test then
//! scrapes `/metrics` and `/statusz` and compares the parsed output — not
//! the bytes, family order is free — against a golden table: every family
//! with its `TYPE` and `HELP`, every series' label set, and the serving
//! counters' values. Every serving counter must also equal its
//! `ServeStats` field, and every DBM counter the sum of the per-job
//! `DbmStats` the batch returned.
//!
//! This file holds a single test on purpose: the DBM meters into the
//! process-global registry, so no other session may run in this process.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, Janus, JanusConfig};
use janus_ir::JBinary;
use janus_obs::json::Value;
use janus_obs::metrics::parse_exposition;
use janus_serve::{JobReport, JobSpec, ServeConfig, ServeSession};
use janus_workloads::workload;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn train_binary(name: &str) -> Arc<JBinary> {
    let w = workload(name).expect("known workload");
    Arc::new(
        Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("workload compiles"),
    )
}

/// One blocking HTTP/1.0 GET over a raw socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("telemetry endpoint accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: janus\r\n\r\n").expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    (status, body.to_string())
}

/// Families, `HELP` texts and series label sets of the scrape, one line
/// each. Counter values are included for the serving families only: the
/// DBM's depend on the backend and are reconciled separately.
const GOLDEN_METRICS: &str = "\
family janus_dbm_chunk_wall_nanos histogram Wall-clock nanoseconds per parallel region (chunk batch or speculative invocation); zeros under the virtual backend.
family janus_dbm_guest_cycles_total counter Modelled guest cycles consumed by completed runs.
family janus_dbm_merge_pages_merged_total counter Guest pages the overlay merge actually visited.
family janus_dbm_merge_pages_skipped_total counter Guest pages the page-aware overlay merge skipped untouched.
family janus_dbm_parallel_invocations_total counter Loop invocations executed in parallel (chunked).
family janus_dbm_run_failures_total counter DBM runs that ended in an error (fault or cycle limit).
family janus_dbm_run_wall_nanos histogram End-to-end wall-clock nanoseconds per completed DBM run.
family janus_dbm_runs_total counter Guest programs run to completion under DBM control.
family janus_dbm_sequential_fallbacks_total counter Parallel-candidate invocations that fell back to sequential execution (failed bounds check or too few iterations).
family janus_dbm_tune_parallel_decisions_total counter Adaptive-tuner decisions that chose or kept parallel execution.
family janus_dbm_tune_sequential_decisions_total counter Adaptive-tuner decisions that forced the sequential path.
family janus_process_rss_bytes gauge Resident set size in bytes (/proc/self/statm; 0 where unavailable).
family janus_process_threads gauge OS threads in this process (/proc/self/status; 0 where unavailable).
family janus_process_uptime_seconds gauge Seconds since this process registered its telemetry.
family janus_serve_cache_entries gauge Distinct artifacts resident in the in-memory cache.
family janus_serve_cache_evictions_total counter Artifacts evicted by the in-memory LRU capacity bound.
family janus_serve_cache_hits_total counter Artifact-cache lookups served from a ready in-memory entry.
family janus_serve_cache_inflight_waits_total counter Lookups that blocked on another submission's in-progress build.
family janus_serve_cache_misses_total counter Artifact-cache lookups that ran a full pipeline build.
family janus_serve_deadline_hit_total counter Completed deadline-carrying jobs that finished within budget.
family janus_serve_deadline_missed_total counter Completed deadline-carrying jobs that overran their budget (admitted jobs are never killed; overruns are counted).
family janus_serve_in_flight_max gauge High-water mark of in-flight jobs (pending + running).
family janus_serve_job_execute_nanos histogram Guest execution alone, excluding artifact resolution.
family janus_serve_job_queue_wait_nanos histogram Queue wait: submission to dequeue by a worker.
family janus_serve_job_wall_nanos histogram End-to-end job latency: dequeue through execution, including artifact resolution.
family janus_serve_jobs_completed_total counter Jobs that finished (successfully or not).
family janus_serve_jobs_failed_total counter Jobs that finished with an error.
family janus_serve_jobs_rejected_total counter Submissions rejected by admission control, by reason.
family janus_serve_jobs_running gauge Jobs currently executing on a worker.
family janus_serve_jobs_submitted_total counter Jobs accepted by admission control.
family janus_serve_queue_depth gauge Jobs queued, not yet picked up by a worker.
family janus_serve_tenant_deadline_hit_total counter The tenant's completed deadline-carrying jobs that finished within budget.
family janus_serve_tenant_deadline_missed_total counter The tenant's completed deadline-carrying jobs that overran.
family janus_serve_tenant_deficit_tokens gauge Deficit-round-robin balance of the tenant (1 token ~ 1 ms of estimated service time).
family janus_serve_tenant_pending gauge Jobs currently queued for the tenant.
family janus_serve_tenant_served_total counter Jobs started (dequeued by the fair scheduler) for the tenant.
family janus_spec_aborts_total counter Speculative aborts (failed validations, estimate stalls, retried faults). Abort rate = aborts / executions.
family janus_spec_executions_total counter Iteration incarnations executed to completion.
family janus_spec_fallbacks_total counter Speculative invocations abandoned and re-run sequentially.
family janus_spec_invocations_total counter Loop invocations executed under iteration-level speculation.
family janus_spec_retries_total counter Conflict-driven iteration re-executions beyond the first incarnation.
family janus_spec_validations_total counter Validation tasks performed by the speculative engine.
family janus_store_bytes gauge Bytes occupied by the disk store's indexed entries.
family janus_store_entries gauge Entries indexed in the persistent disk store.
series janus_dbm_chunk_wall_nanos_count{backend=native}
series janus_dbm_chunk_wall_nanos_count{backend=virtual}
series janus_dbm_chunk_wall_nanos_sum{backend=native}
series janus_dbm_chunk_wall_nanos_sum{backend=virtual}
series janus_dbm_guest_cycles_total{backend=native}
series janus_dbm_guest_cycles_total{backend=virtual}
series janus_dbm_merge_pages_merged_total{backend=native}
series janus_dbm_merge_pages_merged_total{backend=virtual}
series janus_dbm_merge_pages_skipped_total{backend=native}
series janus_dbm_merge_pages_skipped_total{backend=virtual}
series janus_dbm_parallel_invocations_total{backend=native}
series janus_dbm_parallel_invocations_total{backend=virtual}
series janus_dbm_run_failures_total{backend=native}
series janus_dbm_run_failures_total{backend=virtual}
series janus_dbm_run_wall_nanos_count{backend=native}
series janus_dbm_run_wall_nanos_count{backend=virtual}
series janus_dbm_run_wall_nanos_sum{backend=native}
series janus_dbm_run_wall_nanos_sum{backend=virtual}
series janus_dbm_runs_total{backend=native}
series janus_dbm_runs_total{backend=virtual}
series janus_dbm_sequential_fallbacks_total{backend=native}
series janus_dbm_sequential_fallbacks_total{backend=virtual}
series janus_dbm_tune_parallel_decisions_total{backend=native}
series janus_dbm_tune_parallel_decisions_total{backend=virtual}
series janus_dbm_tune_sequential_decisions_total{backend=native}
series janus_dbm_tune_sequential_decisions_total{backend=virtual}
series janus_process_rss_bytes{}
series janus_process_threads{}
series janus_process_uptime_seconds{}
series janus_serve_cache_entries{}
series janus_serve_cache_evictions_total{} = 0
series janus_serve_cache_hits_total{} = 4
series janus_serve_cache_inflight_waits_total{} = 0
series janus_serve_cache_misses_total{} = 2
series janus_serve_deadline_hit_total{} = 4
series janus_serve_deadline_missed_total{} = 0
series janus_serve_in_flight_max{}
series janus_serve_job_execute_nanos_count{}
series janus_serve_job_execute_nanos_sum{}
series janus_serve_job_queue_wait_nanos_count{}
series janus_serve_job_queue_wait_nanos_sum{}
series janus_serve_job_wall_nanos_count{}
series janus_serve_job_wall_nanos_sum{}
series janus_serve_jobs_completed_total{} = 6
series janus_serve_jobs_failed_total{} = 0
series janus_serve_jobs_rejected_total{reason=deadline} = 0
series janus_serve_jobs_rejected_total{reason=saturated} = 0
series janus_serve_jobs_rejected_total{reason=tenant-quota} = 0
series janus_serve_jobs_running{}
series janus_serve_jobs_submitted_total{} = 6
series janus_serve_queue_depth{}
series janus_serve_tenant_deadline_hit_total{tenant=alpha} = 2
series janus_serve_tenant_deadline_hit_total{tenant=beta} = 1
series janus_serve_tenant_deadline_hit_total{tenant=default} = 1
series janus_serve_tenant_deadline_missed_total{tenant=alpha} = 0
series janus_serve_tenant_deadline_missed_total{tenant=beta} = 0
series janus_serve_tenant_deadline_missed_total{tenant=default} = 0
series janus_serve_tenant_deficit_tokens{tenant=alpha}
series janus_serve_tenant_deficit_tokens{tenant=beta}
series janus_serve_tenant_deficit_tokens{tenant=default}
series janus_serve_tenant_pending{tenant=alpha}
series janus_serve_tenant_pending{tenant=beta}
series janus_serve_tenant_pending{tenant=default}
series janus_serve_tenant_served_total{tenant=alpha} = 3
series janus_serve_tenant_served_total{tenant=beta} = 2
series janus_serve_tenant_served_total{tenant=default} = 1
series janus_spec_aborts_total{backend=native}
series janus_spec_aborts_total{backend=virtual}
series janus_spec_executions_total{backend=native}
series janus_spec_executions_total{backend=virtual}
series janus_spec_fallbacks_total{backend=native}
series janus_spec_fallbacks_total{backend=virtual}
series janus_spec_invocations_total{backend=native}
series janus_spec_invocations_total{backend=virtual}
series janus_spec_retries_total{backend=native}
series janus_spec_retries_total{backend=virtual}
series janus_spec_validations_total{backend=native}
series janus_spec_validations_total{backend=virtual}
series janus_store_bytes{}
series janus_store_entries{}
";

/// Every key path of the `/statusz` document (array elements share `[]`).
const GOLDEN_STATUSZ: &str = "\
cache
cache.entries
cache.evictions
cache.hits
cache.inflight_waits
cache.misses
deadline_attainment
jobs
jobs.completed
jobs.deadline_hit
jobs.deadline_missed
jobs.failed
jobs.max_in_flight_seen
jobs.pending
jobs.rejected_deadline
jobs.rejected_quota
jobs.rejected_saturated
jobs.running
jobs.submitted
latency_nanos
latency_nanos.execute
latency_nanos.execute.count
latency_nanos.execute.max
latency_nanos.execute.p50
latency_nanos.execute.p90
latency_nanos.execute.p99
latency_nanos.job_wall
latency_nanos.job_wall.count
latency_nanos.job_wall.max
latency_nanos.job_wall.p50
latency_nanos.job_wall.p90
latency_nanos.job_wall.p99
latency_nanos.queue_wait
latency_nanos.queue_wait.count
latency_nanos.queue_wait.max
latency_nanos.queue_wait.p50
latency_nanos.queue_wait.p90
latency_nanos.queue_wait.p99
max_in_flight
queue_depth
store
store.bytes
store.corrupt
store.entries
store.evicted_bytes
store.hits
store.misses
tenants
tenants[].deadline_hit
tenants[].deadline_missed
tenants[].deficit
tenants[].pending
tenants[].quantum
tenants[].served
tenants[].tenant
workers
";

/// The canonical shape of an exposition document (see [`GOLDEN_METRICS`]).
fn metrics_shape(body: &str) -> String {
    let doc = parse_exposition(body).expect("exposition parses");
    let mut lines = BTreeSet::new();
    for (name, kind) in &doc.families {
        let help = doc.help.get(name).map_or("", String::as_str);
        lines.insert(format!("family {name} {kind} {help}"));
    }
    for s in &doc.samples {
        if s.name.ends_with("_bucket") {
            continue; // bucket bounds follow the measured latencies
        }
        let mut labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        labels.sort();
        let serving = s.name.starts_with("janus_serve_") || s.name.starts_with("janus_store_");
        let counter = doc.families.get(&s.name).map(String::as_str) == Some("counter");
        let value = if serving && counter {
            format!(" = {}", s.value)
        } else {
            String::new()
        };
        lines.insert(format!("series {}{{{}}}{value}", s.name, labels.join(",")));
    }
    lines.into_iter().map(|l| l + "\n").collect()
}

fn key_paths(value: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        Value::Obj(fields) => {
            for (key, v) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                key_paths(v, &path, out);
            }
        }
        Value::Arr(items) => {
            for v in items {
                key_paths(v, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn default_session_telemetry_matches_the_pinned_shape() {
    let lbm = train_binary("470.lbm");
    let mcf = train_binary("429.mcf");
    let janus = Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::from_env(),
        ..JanusConfig::default()
    });
    // One worker makes the cache counters exact: each binary's first
    // dequeue is the miss, every later one a hit.
    let handle = janus.serve(ServeConfig {
        workers: 1,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = handle.telemetry_addr().expect("endpoint is live");
    let generous = Duration::from_secs(600);
    let batch = [
        (&lbm, Some("alpha"), true),
        (&mcf, Some("beta"), false),
        (&lbm, Some("alpha"), true),
        (&lbm, Some("beta"), true),
        (&mcf, Some("alpha"), false),
        (&mcf, None, true),
    ];
    for (binary, tenant, deadline) in batch {
        let mut job = JobSpec::new(Arc::clone(binary));
        if let Some(tenant) = tenant {
            job = job.with_tenant(tenant);
        }
        if deadline {
            job = job.with_deadline(generous);
        }
        handle.submit(job).unwrap();
    }
    let reports: Vec<JobReport> = handle
        .join()
        .into_iter()
        .map(|(_, r)| r.expect("job succeeds"))
        .collect();
    assert_eq!(reports.len(), batch.len());
    let stats = handle.stats();

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metrics_shape(&body), GOLDEN_METRICS, "scrape:\n{body}");

    // Each serving counter is its ServeStats field.
    let doc = parse_exposition(&body).unwrap();
    let value = |name: &str, labels: &[(&str, &str)]| {
        doc.value(name, labels)
            .unwrap_or_else(|| panic!("series {name}{labels:?} present"))
    };
    for (name, labels, expected) in [
        (
            "janus_serve_jobs_submitted_total",
            &[][..],
            stats.jobs_submitted,
        ),
        (
            "janus_serve_jobs_completed_total",
            &[],
            stats.jobs_completed,
        ),
        ("janus_serve_jobs_failed_total", &[], stats.jobs_failed),
        (
            "janus_serve_jobs_rejected_total",
            &[("reason", "saturated")],
            stats.jobs_rejected,
        ),
        (
            "janus_serve_jobs_rejected_total",
            &[("reason", "deadline")],
            stats.jobs_deadline_rejected,
        ),
        (
            "janus_serve_jobs_rejected_total",
            &[("reason", "tenant-quota")],
            stats.jobs_quota_rejected,
        ),
        (
            "janus_serve_deadline_hit_total",
            &[],
            stats.jobs_deadline_hit,
        ),
        (
            "janus_serve_deadline_missed_total",
            &[],
            stats.jobs_deadline_missed,
        ),
        ("janus_serve_cache_hits_total", &[], stats.cache_hits),
        ("janus_serve_cache_misses_total", &[], stats.cache_misses),
        (
            "janus_serve_cache_inflight_waits_total",
            &[],
            stats.cache_inflight_waits,
        ),
        (
            "janus_serve_cache_evictions_total",
            &[],
            stats.cache_evictions,
        ),
        (
            "janus_serve_job_wall_nanos_count",
            &[],
            stats.job_wall.count,
        ),
        (
            "janus_serve_job_queue_wait_nanos_count",
            &[],
            stats.job_queue_wait.count,
        ),
        (
            "janus_serve_job_execute_nanos_count",
            &[],
            stats.job_execute.count,
        ),
    ] {
        assert_eq!(value(name, labels), expected as f64, "{name}{labels:?}");
    }
    for t in handle.tenant_stats() {
        let labels = [("tenant", t.tenant.as_str())];
        for (name, expected) in [
            ("janus_serve_tenant_served_total", t.served),
            ("janus_serve_tenant_deadline_hit_total", t.deadline_hit),
            (
                "janus_serve_tenant_deadline_missed_total",
                t.deadline_missed,
            ),
            ("janus_serve_tenant_pending", t.pending),
            ("janus_serve_tenant_deficit_tokens", t.deficit),
        ] {
            assert_eq!(value(name, &labels), expected as f64, "{name}{labels:?}");
        }
    }

    // Each DBM counter is the sum over the batch's runs, on the backend
    // that ran them; the other backend's series stay at zero.
    let ran = reports[0].backend.label();
    assert!(reports.iter().all(|r| r.backend.label() == ran));
    let sum = |f: fn(&JobReport) -> u64| reports.iter().map(f).sum::<u64>();
    for (name, total) in [
        ("janus_dbm_runs_total", reports.len() as u64),
        ("janus_dbm_run_failures_total", 0),
        ("janus_dbm_guest_cycles_total", sum(|r| r.cycles)),
        (
            "janus_dbm_parallel_invocations_total",
            sum(|r| r.stats.parallel_invocations),
        ),
        (
            "janus_dbm_sequential_fallbacks_total",
            sum(|r| r.stats.sequential_fallbacks),
        ),
        (
            "janus_dbm_tune_parallel_decisions_total",
            sum(|r| r.stats.tune_parallel_decisions),
        ),
        (
            "janus_dbm_tune_sequential_decisions_total",
            sum(|r| r.stats.tune_sequential_decisions),
        ),
        (
            "janus_dbm_merge_pages_skipped_total",
            sum(|r| r.stats.merge_pages_skipped),
        ),
        (
            "janus_dbm_merge_pages_merged_total",
            sum(|r| r.stats.merge_pages_merged),
        ),
        (
            "janus_spec_invocations_total",
            sum(|r| r.stats.spec_invocations),
        ),
        (
            "janus_spec_executions_total",
            sum(|r| r.stats.spec_executions),
        ),
        (
            "janus_spec_validations_total",
            sum(|r| r.stats.spec_validations),
        ),
        ("janus_spec_aborts_total", sum(|r| r.stats.spec_aborts)),
        ("janus_spec_retries_total", sum(|r| r.stats.spec_retries())),
        (
            "janus_spec_fallbacks_total",
            sum(|r| r.stats.spec_fallbacks),
        ),
    ] {
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            let label = backend.label();
            let expected = if label == ran { total } else { 0 };
            assert_eq!(
                value(name, &[("backend", label)]),
                expected as f64,
                "{name}{{backend={label}}}"
            );
        }
    }

    let (status, body) = http_get(addr, "/statusz");
    assert_eq!(status, 200);
    let doc = janus_obs::json::parse(&body).expect("statusz is valid JSON");
    let mut paths = BTreeSet::new();
    key_paths(&doc, "", &mut paths);
    let paths: String = paths.into_iter().map(|p| p + "\n").collect();
    assert_eq!(paths, GOLDEN_STATUSZ, "statusz:\n{body}");
}
