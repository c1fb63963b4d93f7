//! Every workload at a tiny size: every metric named in `BENCHMARK.json` is
//! emitted with its unit, the exact counts agree between the untraced and
//! traced runs, and an injected output mismatch fails the run.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["pipeline-doall", "pipeline-spec", "serve-churn"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

fn string_field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("field is present");
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("value is a string") + 1;
    let close = open + rest[open..].find('"').expect("string is closed");
    rest[open..close].to_string()
}

struct Run {
    success: bool,
    stdout: String,
}

impl Run {
    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    fn exact(&self) -> Vec<String> {
        let line = self
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("# exact {"))
            .expect("an exact-count line");
        line.trim_end_matches('}')
            .split(',')
            .map(str::to_string)
            .collect()
    }
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    Run {
        success: out.status.success(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
    }
}

fn assert_metrics(run: &Run, section: &str) {
    let result = run.result();
    assert!(
        result.starts_with(r#"{"correct": true, "attempted": "#),
        "{result}"
    );
    assert!(result.contains(r#""failed": 0, "#), "{result}");
    for (name, unit) in declared(section) {
        let metric = format!(r#""{name}": {{"value": "#);
        let at = result
            .find(&metric)
            .unwrap_or_else(|| panic!("{name} missing: {result}"));
        let rest = &result[at + metric.len()..];
        assert!(
            rest.split_once('}')
                .is_some_and(|(m, _)| m.ends_with(&format!(r#""unit": "{unit}""#))),
            "{name} lacks unit {unit}: {result}"
        );
    }
    assert_eq!(
        result.matches(r#""unit""#).count(),
        declared(section).len(),
        "{result}"
    );
}

#[test]
fn every_metric_is_emitted_and_exact_counts_agree() {
    for workload in WORKLOADS {
        let untraced = run(workload, 0, &[]);
        assert!(untraced.success, "{workload}:\n{}", untraced.stdout);
        assert_metrics(&untraced, "end_to_end");
        let traced = run(workload, 1, &[]);
        assert!(traced.success, "{workload}:\n{}", traced.stdout);
        assert_metrics(&traced, "per_layer");
        let traced_exact = traced.exact();
        for count in untraced.exact() {
            assert!(
                traced_exact.contains(&count),
                "{workload}: untraced {count} not in traced {traced_exact:?}"
            );
        }
    }
}

#[test]
fn an_injected_output_mismatch_fails_the_run() {
    for workload in WORKLOADS {
        let run = run(workload, 0, &["--inject-mismatch"]);
        assert!(
            !run.success,
            "{workload} passed a wrong output:\n{}",
            run.stdout
        );
        let result = run.result();
        assert!(result.starts_with(r#"{"correct": false, "#), "{result}");
        assert!(!result.contains(r#""failed": 0, "#), "{result}");
    }
}
