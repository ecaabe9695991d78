//! Tiny-budget runs of every workload in both modes, checked against the
//! metric names `BENCHMARK.json` declares.

use reap_obs::json::{self, Value};
use std::path::Path;
use std::process::Command;

/// `(end_to_end, per_layer)` metric names from the benchmark manifest.
fn declared_metrics() -> (Vec<String>, Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let manifest = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| match manifest.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("named")
                    .to_owned()
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks {key}"),
    };
    (names("end_to_end"), names("per_layer"))
}

fn last_line(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--accesses", "3000"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let (end_to_end, per_layer) = declared_metrics();
    for workload in ["sweep_cold", "explore_warm", "explore_cold"] {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = last_line(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").expect("metrics");
            for name in expected {
                let value = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} missing"
                );
            }
        }
    }
}

#[test]
fn unknown_flags_are_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "sweep_cold", "--bogus", "1"])
        .status()
        .expect("benchmark starts");
    assert_eq!(status.code(), Some(2));
}
