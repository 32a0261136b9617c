//! Smoke-scale self-tests of the benchmark binary: every metric that
//! `BENCHMARK.json` names is printed with its unit, and a wrong answer
//! fails the run.
//!
//! Run from anywhere with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seed", "3", "--seconds", "1"])
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark starts")
}

/// Every `"name": "<n>", "unit": "<u>"` pair in one array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start
        ..json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("array end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// The `(name, unit)` pairs of one result line, in printed order.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object")..];
    metrics
        .split("{\"value\": ")
        .zip(metrics.split("{\"value\": ").skip(1))
        .map(|(before, after)| {
            let name = before.rsplit('"').nth(1).expect("metric name").to_string();
            let unit = after
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("metric unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn result_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&["--workload", "all", "--trace", trace]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "trace {trace} run failed:\n{stderr}");
        let want = declared(section);
        assert!(!want.is_empty());
        let lines = result_lines(&out);
        assert_eq!(lines.len(), 3, "one result line per workload");
        for line in &lines {
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            assert_eq!(printed(line), want, "trace {trace}: {line}");
        }
        let last = String::from_utf8_lossy(&out.stdout);
        assert_eq!(last.lines().last(), lines.last().map(String::as_str));
    }
}

#[test]
fn a_member_answered_false_fails_the_run() {
    for workload in ["query-small", "mutate-mix"] {
        let out = run(&["--workload", workload, "--trace", "0", "--corrupt-answer"]);
        assert_eq!(out.status.code(), Some(1), "{workload} must fail");
        let lines = result_lines(&out);
        assert!(lines[0].starts_with("{\"correct\": false"), "{}", lines[0]);
        assert!(String::from_utf8_lossy(&out.stderr).contains("GATE FAILED"));
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"][..], &[][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(result_lines(&out).is_empty());
    }
}
