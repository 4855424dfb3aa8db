//! Every workload at tiny sizes, untraced and traced, through the built
//! benchmark binary: each run must pass its own checks and print the
//! declared metrics on its last line.

use std::process::Command;
use std::time::{Duration, Instant};

use serde::Value;

const WORKLOADS: [&str; 4] = ["paper-batch", "scale-hier", "serve-churn", "serve-large"];

fn run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace])
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn metric_count(result: &Value) -> usize {
    result.field("metrics").and_then(Value::as_map).expect("metrics").len()
}

#[test]
fn smoke_runs_of_all_four_workloads_pass_their_checks_quickly() {
    let started = Instant::now();
    for workload in WORKLOADS {
        let result = run(workload, "0");
        assert_eq!(result.field("correct"), Ok(&Value::Bool(true)), "{workload}");
        assert_eq!(metric_count(&result), 6, "{workload}: end-to-end metrics");
    }
    let untraced = started.elapsed();
    assert!(untraced < Duration::from_secs(20), "untraced smoke took {untraced:?}");
    for workload in WORKLOADS {
        let result = run(workload, "1");
        assert_eq!(result.field("correct"), Ok(&Value::Bool(true)), "{workload} traced");
        assert_eq!(metric_count(&result), 31, "{workload}: per-layer metrics");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
