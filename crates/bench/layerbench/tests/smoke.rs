//! The benchmark at smoke scale: every workload prints every metric
//! `BENCHMARK.json` names for its mode, finite and in the listed unit, on
//! two seeds; the traced driver reproduces the untraced result of every
//! lineup design (`trace.result_match = 1`); and every stage share,
//! remainder included, lies in [0, 1].

use banshee_layerbench::workload::QUICK_SECONDS;
use serde::Value;
use std::path::Path;
use std::process::Command;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::parse_value(&json).expect("BENCHMARK.json parses")
}

/// Run one smoke-scale invocation and parse its last line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(["--workload", workload, "--scale", "smoke"])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::parse_value(last).expect("the last line is JSON")
}

fn check_workloads(seed: u64) {
    let spec = spec();
    for workload in items(field(&spec, "workloads")) {
        let name = text(field(workload, "name"));
        for (trace, listed) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(name, seed, trace);
            assert!(
                matches!(field(&result, "correct"), Value::Bool(true)),
                "{name}"
            );
            assert_eq!(number(field(&result, "failed")), 0.0, "{name}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{name}");
            let metrics = field(&result, "metrics");
            let Value::Object(emitted) = metrics else {
                panic!("{name}: metrics is not an object");
            };
            let expected = items(field(&spec, listed));
            assert_eq!(emitted.len(), expected.len(), "{name} trace={trace}");
            for m in expected {
                let metric = text(field(m, "name"));
                let got = field(metrics, metric);
                assert!(number(field(got, "value")).is_finite(), "{name}: {metric}");
                assert_eq!(
                    text(field(got, "unit")),
                    text(field(m, "unit")),
                    "{name}: {metric}"
                );
            }
            if trace {
                assert_eq!(
                    number(field(field(metrics, "trace.result_match"), "value")),
                    1.0
                );
            }
        }
    }
}

#[test]
fn every_workload_emits_every_metric_on_the_default_seed() {
    check_workloads(42);
}

#[test]
fn every_workload_emits_every_metric_on_a_second_seed() {
    check_workloads(7);
}

#[test]
fn every_share_lies_between_zero_and_one() {
    let result = run("mcf-thrash", 42, true);
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    let shares: Vec<(&String, f64)> = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("share."))
        .map(|(name, m)| (name, number(field(m, "value"))))
        .collect();
    assert_eq!(shares.len(), 8);
    for (name, share) in shares {
        assert!((0.0..=1.0).contains(&share), "{name} = {share}");
    }
}

#[test]
fn the_default_run_length_is_the_declared_one() {
    assert_eq!(number(field(&spec(), "run_seconds")), QUICK_SECONDS as f64);
}

#[test]
fn a_bad_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
