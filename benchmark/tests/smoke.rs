//! Runs every workload in smoke mode through the real binary and pins
//! what it prints to `BENCHMARK.json`; the negative tests prove the
//! output checks can fail.

use std::path::{Path, PathBuf};
use std::process::Command;

use bluedbm_benchmark::spec;
use bluedbm_trace::json::{self, Json};

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    let rows = contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` array"));
    rows.iter()
        .map(|r| {
            r.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the benchmark binary; returns (exit code, parsed last stdout line).
fn run(workload: &str, extra: &[&str]) -> (i32, Json) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{workload}"));
    let output = Command::new(env!("CARGO_BIN_EXE_bluedbm-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "0.2",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    let result = json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    (output.status.code().expect("exit code"), result)
}

fn metric_keys(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("`metrics` object expected, got {other:?}"),
    }
}

#[test]
fn committed_contract_is_generated_from_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `bluedbm-benchmark spec > BENCHMARK.json`"
    );
}

#[test]
fn contract_is_inside_the_drivers_limits() {
    let c = contract();
    let Json::Obj(fields) = &c else {
        panic!("object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for n in names(&c, key) {
            assert!(name_ok(&n), "bad name `{n}`");
            assert!(!seen.contains(&n), "name `{n}` used twice");
            seen.push(n);
        }
    }
    assert!((2..=8).contains(&names(&c, "workloads").len()));
    assert!((1..=16).contains(&names(&c, "end_to_end").len()));
    assert!((1..=128).contains(&names(&c, "per_layer").len()));
    for w in c
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {} chars",
            why.len()
        );
    }
    let e2e = c
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    for m in e2e.iter().chain(
        c.get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer"),
    ) {
        assert!(unit_ok(m.get("unit").and_then(Json::as_str).expect("unit")));
        assert!(matches!(
            m.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
    }
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let seconds = c
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn every_workload_prints_exactly_the_contract_names() {
    let c = contract();
    let workloads = names(&c, "workloads");
    let listed: Vec<String> = spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, listed);
    for w in &workloads {
        let (code, plain) = run(w, &["--trace", "0"]);
        assert_eq!(code, 0, "{w}: plain pass exit code");
        assert_eq!(
            metric_keys(&plain),
            names(&c, "end_to_end"),
            "{w}: end-to-end names"
        );
        assert_eq!(plain.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(plain.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
        assert!(
            plain
                .get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0,
            "{w}"
        );
        for (name, value) in match plain.get("metrics") {
            Some(Json::Obj(fields)) => fields,
            _ => unreachable!(),
        } {
            let v = value
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{w}/{name}: value"));
            assert!(
                v > 0.0 && v.is_finite(),
                "{w}/{name} = {v}: end-to-end metrics are never 0"
            );
        }

        let (code, layers) = run(w, &["--trace", "1"]);
        assert_eq!(code, 0, "{w}: layers pass exit code");
        assert_eq!(
            metric_keys(&layers),
            names(&c, "per_layer"),
            "{w}: per-layer names"
        );
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{w}"));
        for file in [format!("layers-{w}.json"), format!("spans-{w}.json")] {
            let text =
                std::fs::read_to_string(out.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}

/// A corrupted oracle value, page pattern or needle count must fail the
/// check, raise the failed count and turn the exit code non-zero.
#[test]
fn corrupted_expectation_fails_the_check() {
    for w in [
        spec::KV_MIXED,
        spec::MESH_SCATTER,
        spec::GC_CHURN,
        spec::EXHIBITS,
    ] {
        let (code, result) = run(w, &["--fault"]);
        assert_eq!(code, 1, "{w}: a failed check exits 1");
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
        let failed = result.get("failed").and_then(Json::as_f64).expect("failed");
        let attempted = result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted");
        assert!(
            failed >= 1.0 && failed / attempted > 0.0,
            "{w}: fail_share must rise"
        );
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let status = Command::new(env!("CARGO_BIN_EXE_bluedbm-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("runs");
    assert_eq!(status.status.code(), Some(2));
    assert!(status.stdout.is_empty(), "no result line on a usage error");
}
