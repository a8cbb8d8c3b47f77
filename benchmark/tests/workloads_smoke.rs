//! Smoke test of the benchmark: `workloads run --quick` end to end, and
//! trace replay rejecting a corrupted counterexample. Builds a release
//! `smc` from this checkout first; run it with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use smc_obs::Json;
use smc_workloads::metrics::{self, Better, Def};
use smc_workloads::{gen, output, replay::Interp};

/// `target/` of the harness under test.
fn target_dir() -> PathBuf {
    let exe = Path::new(env!("CARGO_BIN_EXE_workloads"));
    exe.parent().and_then(Path::parent).expect("binary sits in target/<profile>/").to_path_buf()
}

/// A release `smc`, built into a target directory of its own so the
/// build never waits on the one running this test.
fn smc() -> &'static Path {
    static SMC: OnceLock<PathBuf> = OnceLock::new();
    SMC.get_or_init(|| {
        let target = target_dir().join("smoke-smc");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--quiet", "--bin", "smc", "--manifest-path"])
            .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building smc failed");
        target.join("release/smc")
    })
}

/// The metric list of `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<Json> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    match json.get(section) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn field<'a>(metric: &'a Json, key: &str) -> &'a str {
    metric.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("metric without {key}"))
}

/// `BENCHMARK.json` declares exactly the metrics the harness reports.
fn assert_matches_code(section: &str, defs: &[Def]) {
    let items = declared(section);
    assert_eq!(items.len(), defs.len(), "{section}: BENCHMARK.json and the harness differ");
    for (item, def) in items.iter().zip(defs) {
        assert_eq!(field(item, "name"), def.name);
        assert_eq!(field(item, "unit"), def.unit, "{}", def.name);
        let better = if def.better == Better::Lower { "lower" } else { "higher" };
        assert_eq!(field(item, "better"), better, "{}", def.name);
        if let Some(bound) = item.get("bound") {
            assert_eq!(bound.as_f64(), Some(def.bound), "{}", def.name);
        }
    }
}

/// `smc check --stats` counters: (created nodes, computed-table lookups).
fn stats_counters(stdout: &str) -> (f64, f64) {
    let number_before = |line: &str, word: &str| -> f64 {
        let words: Vec<&str> = line.split_whitespace().collect();
        let at = words.iter().position(|w| w.trim_end_matches(',') == word).expect("word present");
        words[at - 1].parse().expect("a count")
    };
    let nodes = stdout.lines().find(|l| l.starts_with("nodes ")).expect("nodes line");
    let table = stdout.lines().find(|l| l.starts_with("computed table")).expect("table line");
    (number_before(nodes, "created"), number_before(table, "lookups"))
}

#[test]
fn quick_run_reports_every_declared_metric_and_checks_its_outputs() {
    let status = Command::new(env!("CARGO_BIN_EXE_workloads"))
        .args(["run", "--quick", "--seed", "1", "--smc"])
        .arg(smc())
        .status()
        .expect("the harness runs");
    assert!(status.success(), "workloads run --quick failed");
    assert_matches_code("end_to_end", &metrics::END_TO_END);
    assert_matches_code("per_layer", &metrics::PER_LAYER);

    let results = target_dir().join("bench-out/quick-seed-1.json");
    let reports = metrics::read_run(results.to_str().expect("utf-8 path")).expect("run results");
    assert_eq!(reports.len(), 4);
    for report in &reports {
        assert_eq!(report.failed, 0, "{}: {:?}", report.workload, report.failures);
        assert!(report.attempted > 0);
        for (section, values) in
            [("end_to_end", &report.end_to_end), ("per_layer", &report.per_layer)]
        {
            for item in declared(section) {
                let name = field(&item, "name");
                let value =
                    values.get(name).unwrap_or_else(|| panic!("{}: no {name}", report.workload));
                assert!(value.value.is_finite(), "{}: {name} = {}", report.workload, value.value);
            }
        }
        for def in &metrics::END_TO_END {
            assert!(
                report.end_to_end[def.name].value > 0.0,
                "{}: {} is 0",
                report.workload,
                def.name
            );
        }
    }

    // The quick witness pass is the Seitz arbiter alone, so the traced
    // pass must have done exactly the work of `smc check --trace`.
    let witness = reports.iter().find(|r| r.workload == "witness").expect("witness report");
    let model = target_dir().join("bench-work/witness-seed-1/arbiter2.smv");
    let out = Command::new(smc())
        .args(["check", "--trace", "--stats"])
        .arg(&model)
        .output()
        .expect("smc runs");
    let (created, lookups) = stats_counters(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(witness.per_layer["bdd.created_nodes"].value, created);
    assert_eq!(witness.per_layer["bdd.cache_lookups"].value, lookups);
}

#[test]
fn replay_rejects_a_trace_with_one_corrupted_state() {
    let key = gen::answer_key();
    let model = &gen::witness_models(&key, 1, true)[0];
    let dir = target_dir().join("smoke-replay");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join(format!("{}.smv", model.name));
    std::fs::write(&path, &model.source).expect("model written");
    let out = Command::new(smc()).args(["check", "--trace"]).arg(&path).output().expect("smc runs");
    let specs =
        output::parse_check(&String::from_utf8_lossy(&out.stdout)).expect("parseable output");
    let interp = Interp::new(&model.source).expect("model parses");
    let trace = specs.iter().find_map(|s| s.trace.clone()).expect("a trace");
    interp.check(&trace.states, trace.loopback).expect("the printed trace replays");

    let mut corrupted = trace.states.clone();
    let k = corrupted.len() / 2;
    corrupted[k] = if corrupted[k].contains("=TRUE") {
        corrupted[k].replacen("=TRUE", "=FALSE", 1)
    } else {
        corrupted[k].replacen("=FALSE", "=TRUE", 1)
    };
    assert!(interp.check(&corrupted, trace.loopback).is_err(), "state {k} corrupted yet accepted");
}
