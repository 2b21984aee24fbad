//! Smoke test of the benchmark command: every workload, traced and not,
//! in the short `--smoke` mode.

use std::process::Command;

use wavefuse_trace::JsonValue;

const WORKLOADS: [&str; 3] = ["paper-adaptive", "vga-pooled", "fleet-8"];

/// Runs the benchmark binary and returns its parsed last stdout line.
fn run(args: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_wavebench"))
        .args(args)
        .args(["--smoke", "--seconds", "0.5"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    let last = stdout.lines().last().expect("at least one line");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_no_failure() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let result = run(&["--workload", workload, "--seed", "7", "--trace", trace]);
            let ctx = format!("{workload} --trace {trace}");
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{ctx}");
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_f64),
                Some(0.0),
                "{ctx}"
            );
            let attempted = result.get("attempted").and_then(JsonValue::as_f64);
            assert!(
                attempted.is_some_and(|a| a >= 1.0),
                "{ctx}: attempted {attempted:?}"
            );
            let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
                panic!("{ctx}: metrics is not an object");
            };
            assert_eq!(metrics.len(), want.len(), "{ctx}: metric count");
            for (name, unit) in &want {
                let m = result.get("metrics").and_then(|ms| ms.get(name));
                let m = m.unwrap_or_else(|| panic!("{ctx}: {name} missing"));
                let value = m.get("value").and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{ctx}: {name} = {value:?}"
                );
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{ctx}: {name}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_reference_digest_is_reported() {
    for workload in WORKLOADS {
        let result = run(&["--workload", workload, "--corrupt-reference"]);
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(false)),
            "{workload}"
        );
        let failed = result.get("failed").and_then(JsonValue::as_f64);
        assert!(
            failed.is_some_and(|f| f >= 1.0),
            "{workload}: failed {failed:?}"
        );
    }
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_wavebench"))
        .arg("--map")
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let map = JsonValue::parse(String::from_utf8(out.stdout).expect("utf-8").trim())
        .expect("map is JSON");
    for section in ["end_to_end", "per_layer"] {
        let listed: Vec<(String, String)> = map
            .get(section)
            .and_then(JsonValue::as_arr)
            .expect(section)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(listed, declared(section), "{section}");
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "fleet-8", "--trace", "2"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wavebench"))
            .args(args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
