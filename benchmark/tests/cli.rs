//! Drives the built binary the way the contract's driver does: smoke
//! passes of every workload with and without `--trace`, the catalogue
//! against `BENCHMARK.json`, and `check` on real result files.

use rai_benchmark::catalogue::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use rai_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rai-benchmark"))
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run one smoke pass and return the contract's result object.
fn smoke(workload: &str, seed: u64, trace: bool, out: Option<&Path>) -> Json {
    let mut cmd = binary();
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--smoke",
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    let Output {
        status,
        stdout,
        stderr,
    } = cmd.output().expect("spawn the benchmark");
    let stdout = String::from_utf8(stdout).expect("utf-8 output");
    assert!(
        status.success(),
        "{workload} seed {seed} trace {trace}: {}",
        String::from_utf8_lossy(&stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// The result object has exactly the contract's keys, and exactly the
/// catalogue's metrics, each a finite value with the catalogue's unit.
fn assert_contract(result: &Json, expected: &[(&str, &str)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    let failed = result.get("failed").and_then(Json::as_f64).expect("failed");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0 && failed >= 0.0);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let emitted: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} has no numeric value"));
            assert!(value.is_finite(), "{name} = {value}");
            (
                name.as_str(),
                m.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect();
    assert_eq!(emitted, expected);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
            .unwrap();
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `rai-benchmark catalogue > BENCHMARK.json`"
    );
    let printed = binary()
        .arg("catalogue")
        .output()
        .expect("spawn the benchmark");
    assert_eq!(
        Json::parse(&String::from_utf8(printed.stdout).unwrap()).unwrap(),
        committed
    );
}

#[test]
fn smoke_untraced_emits_every_end_to_end_metric() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        // 2016 has committed fingerprints to reproduce; 408 must pass
        // every gate that does not depend on the seed.
        for seed in [2016, 408] {
            let result = smoke(w.name, seed, false, None);
            assert_contract(&result, &expected);
            let metric = |name: &str| {
                result
                    .get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            };
            assert!(
                metric("submissions_per_s") > 0.0
                    && metric("payload_mib_per_s") > 0.0
                    && metric("setup_s") > 0.0
            );
            assert_eq!(metric("succeeded_share"), 1.0, "{} seed {seed}", w.name);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        }
    }
}

#[test]
fn smoke_traced_emits_every_per_layer_metric_and_reconciles() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let result = smoke(w.name, 2016, true, None);
        assert_contract(&result, &expected);
        let metric = |name: &str| {
            result
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        // The phases must explain the traced wall (the issue's gate is
        // 0.95; a smoke pass on a loaded test host gets some slack).
        let share = metric("core.phase_sum_share");
        assert!(
            (0.90..=1.0).contains(&share),
            "{}: phase sum share {share}",
            w.name
        );
        // Only the durable workload journals.
        assert_eq!(
            metric("wal.appends_n") > 0.0,
            w.name == "durable_chaos",
            "{}",
            w.name
        );
        assert_eq!(
            metric("faults.injected_n") > 0.0,
            w.name == "durable_chaos",
            "{}",
            w.name
        );
        let spans =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{}.json", w.name));
        let doc = Json::parse(&std::fs::read_to_string(&spans).expect("span log written")).unwrap();
        let first = &doc.get("spans").and_then(Json::as_array).expect("spans")[0];
        for key in ["name", "start_ns", "end_ns", "parent", "job"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }
}

#[test]
fn check_accepts_a_file_against_itself_and_refuses_garbage() {
    let a = tmp("check-a.json");
    smoke("durable_chaos", 2016, false, Some(&a));
    let file = Json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    for key in ["nproc", "rustc", "commit"] {
        assert!(
            file.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key} recorded"
        );
    }
    assert_eq!(file.get("seed").and_then(Json::as_f64), Some(2016.0));
    let report = file
        .get("workloads")
        .and_then(|w| w.get("durable_chaos"))
        .expect("the report");
    assert!(report.get("iterations").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(report.get("warmups").and_then(Json::as_f64).unwrap() >= 1.0);
    // The speed the timed metrics were normalised by is on record.
    let speed = report
        .get("host_speed")
        .and_then(|s| s.get("value"))
        .and_then(Json::as_f64)
        .expect("host_speed");
    assert!(speed > 0.0 && speed.is_finite());

    let same = binary().arg("check").arg(&a).arg(&a).output().unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("submissions_per_s"));

    let garbage = tmp("check-garbage.json");
    std::fs::write(&garbage, "{}").unwrap();
    assert!(!binary()
        .arg("check")
        .arg(&a)
        .arg(&garbage)
        .output()
        .unwrap()
        .status
        .success());
    assert!(!binary()
        .arg("check")
        .arg(&a)
        .output()
        .unwrap()
        .status
        .success());
    assert!(!binary()
        .args(["run", "--workload", "nonesuch"])
        .output()
        .unwrap()
        .status
        .success());
}
