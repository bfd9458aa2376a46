//! Runs every workload at smoke scale through the real binary, untraced
//! and traced, and holds what it prints against `BENCHMARK.json`: the same
//! workloads, the same metric names and units, every value finite, and
//! output the repository's own JSON parser accepts.

use std::path::PathBuf;
use std::process::Command;

use matgnn::telemetry::json::{parse, Json};

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).expect("BENCHMARK.json parses")
}

fn entries(doc: &Json, key: &str) -> Vec<Json> {
    match doc.get(key) {
        Some(Json::Arr(v)) => v.clone(),
        other => panic!("BENCHMARK.json: `{key}` is {other:?}, not an array"),
    }
}

fn text(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {j:?}"))
        .to_string()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs `perf run` at smoke scale and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited with {:?}\n{stdout}{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line does not parse: {e}\n{last}"));
    match &doc {
        Json::Obj(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
        }
        other => panic!("{workload}: result is {other:?}"),
    }
    assert_eq!(
        doc.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert!(
        doc.get("attempted").and_then(Json::as_num).unwrap() >= 1.0,
        "{workload}"
    );
    doc
}

/// Asserts the result carries exactly the declared metrics, in order, with
/// the declared units and finite values.
fn assert_metrics(workload: &str, result: &Json, declared: &[Json], positive: bool) {
    let Some(Json::Obj(got)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<String> = declared.iter().map(|d| text(d, "name")).collect();
    assert_eq!(
        got_names, want_names,
        "{workload}: metric names differ from BENCHMARK.json"
    );
    for ((name, value), decl) in got.iter().zip(declared) {
        assert!(name_ok(name), "{workload}: bad metric name `{name}`");
        assert_eq!(
            text(value, "unit"),
            text(decl, "unit"),
            "{workload}: unit of {name}"
        );
        let v = value
            .get("value")
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{workload}: {name} is not a finite number");
        if positive {
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let doc = manifest();
    let end_to_end = entries(&doc, "end_to_end");
    let per_layer = entries(&doc, "per_layer");
    let workloads: Vec<String> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads.len(), 7);
    for workload in &workloads {
        assert_metrics(workload, &run(workload, false), &end_to_end, true);
        assert_metrics(workload, &run(workload, true), &per_layer, false);
    }
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("manifest")
        .output()
        .expect("perf runs");
    assert!(output.status.success());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        on_disk,
        "regenerate with `perf manifest`"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec!["run", "--workload", "no_such_workload", "--seconds", "0.1"],
        vec!["run", "--workload", "ingest", "--trace", "2"],
        vec!["run", "--workload", "ingest", "--typo", "1"],
        vec!["run"],
        vec![],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(&args)
            .output()
            .expect("perf runs");
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
