//! End-to-end checks of the benchmark binary: every named metric is
//! emitted with its unit, names are well formed, `BENCHMARK.json` lists
//! exactly the binary's metrics, an injected output mismatch is counted
//! as a failure, and the traced run writes `trace_event` JSON.
//!
//! `paper_suite` needs the suite's release binaries (`run_all`, `e01_*`…)
//! in `<target>/release`, which `benchmark/run.sh` builds; its cases are
//! skipped with a note when they are absent.

use std::path::{Path, PathBuf};
use std::process::Command;

use stellar_benchmark::json::{self, Value};
use stellar_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = [
    "paper_suite",
    "design_flow",
    "sparse_sweep",
    "dataflow_search",
];

fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("target dir")
        .to_path_buf()
}

fn suite_exe_dir() -> Option<PathBuf> {
    let dir = target_dir().join("release");
    dir.join("run_all").is_file().then_some(dir)
}

struct Run {
    result: Value,
    out_dir: PathBuf,
}

fn run(workload: &str, seed: u64, seconds: &str, trace: bool, extra: &[&str]) -> Run {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{seed}-{trace}-{}", extra.len()));
    let exe_dir = suite_exe_dir().unwrap_or_else(target_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_stellar-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--exe-dir")
        .arg(&exe_dir)
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Run {
        result: json::parse(last)
            .unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}")),
        out_dir,
    }
}

fn assert_metrics(workload: &str, r: &Value, table: &[(&str, &str)]) {
    let Value::Obj(top) = r else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        r.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{workload}"
    );
    let Some(Value::Obj(metrics)) = r.get("metrics") else {
        panic!("{workload}: no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for ((name, m), (_, unit)) in metrics.iter().zip(table) {
        assert!(valid_name(name), "{workload}: {name}");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(*unit),
            "{workload}: {name}"
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{workload}: {name}"
        );
    }
}

fn assert_correct(workload: &str, r: &Value) {
    assert_eq!(
        r.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {}",
        r.render()
    );
    assert_eq!(
        r.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
}

/// Seconds per run: long enough for `design_flow` to cover its digest deck.
fn seconds(workload: &str) -> &'static str {
    if workload == "design_flow" {
        "1"
    } else {
        "0.1"
    }
}

fn runnable(workload: &str) -> bool {
    if workload == "paper_suite" && suite_exe_dir().is_none() {
        eprintln!(
            "skipping paper_suite: suite binaries not built in {}",
            target_dir().join("release").display()
        );
        return false;
    }
    true
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = bench.get(key) else {
            panic!("{key} missing")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{key}: no {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let Some(Value::Arr(workloads)) = bench.get("workloads") else {
        panic!("workloads missing")
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in WORKLOADS.into_iter().filter(|w| runnable(w)) {
        let r = run(w, 0, seconds(w), false, &[]);
        assert_metrics(w, &r.result, END_TO_END);
        assert_correct(w, &r.result);
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_a_trace_file() {
    for w in WORKLOADS.into_iter().filter(|w| runnable(w)) {
        let seed = 3;
        let r = run(w, seed, seconds(w), true, &[]);
        assert_metrics(w, &r.result, PER_LAYER);
        assert_correct(w, &r.result);
        let path = r.out_dir.join(format!("trace-{w}-{seed}.json"));
        let trace = json::parse(&std::fs::read_to_string(&path).expect("trace file"))
            .expect("trace is JSON");
        let Some(Value::Arr(events)) = trace.get("traceEvents") else {
            panic!("{w}: no traceEvents")
        };
        assert!(!events.is_empty(), "{w}: empty trace");
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"), "{w}");
            assert!(
                e.get("ts").and_then(Value::as_f64).is_some()
                    && e.get("dur").and_then(Value::as_f64).is_some(),
                "{w}"
            );
            assert!(
                e.get("name")
                    .and_then(Value::as_str)
                    .is_some_and(valid_name),
                "{w}"
            );
        }
    }
}

#[test]
fn injected_mismatch_counts_as_a_failure() {
    for (w, seed) in [
        ("design_flow", 0),
        ("design_flow", 11),
        ("sparse_sweep", 0),
        ("dataflow_search", 5),
        ("paper_suite", 0),
    ] {
        if !runnable(w) {
            continue;
        }
        let r = run(w, seed, seconds(w), false, &["--inject-mismatch"]);
        assert_metrics(w, &r.result, END_TO_END);
        assert_eq!(
            r.result.get("correct"),
            Some(&Value::Bool(false)),
            "{w}/{seed}"
        );
        let failed = r.result.get("failed").and_then(Value::as_f64).unwrap();
        assert!(failed >= 1.0, "{w}/{seed}: {}", r.result.render());
    }
}
