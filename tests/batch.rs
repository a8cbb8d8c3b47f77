//! End-to-end tests for `smc batch`: determinism under parallelism
//! (worker count must never change a verdict, trace line, or the output
//! order), worst-of exit codes, per-job budget trips, and the JSON
//! report.

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn smc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smc"))
}

/// Writes `contents` to a fresh temp file. The per-process counter in
/// the name keeps two tests that pass the same `name` apart under the
/// parallel test runner.
fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("smc_batch_test_{name}_{}_{n}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

/// One passing and one failing spec; the failing `AG x` carries a
/// counterexample from the initial state.
const TOGGLE: &str = "MODULE main\nVAR x : boolean;\nASSIGN\n  init(x) := FALSE;\n  \
                      next(x) := !x;\nSPEC AG (AF x)\nSPEC AG x\n";

/// A free boolean whose `AF x` fails with a lasso counterexample.
const FREEBIT: &str = "MODULE main\nVAR x : boolean;\nSPEC AF x\n";

/// A 3-bit counter whose specs all hold — a pure pass job.
const COUNTER: &str = "MODULE main\nVAR b0 : boolean; b1 : boolean;\nASSIGN\n  \
                       init(b0) := FALSE; init(b1) := FALSE;\n  next(b0) := !b0;\n  \
                       next(b1) := (b0 & !b1) | (!b0 & b1);\nSPEC AG (EF (b0 & b1))\nSPEC AF b0\n";

struct Fixture {
    models: Vec<std::path::PathBuf>,
    manifest: std::path::PathBuf,
}

impl Fixture {
    /// Six jobs (two rounds over the three models) so the workers of a
    /// 4-worker pool take jobs from a queue that is still non-empty.
    fn new(tag: &str) -> Fixture {
        let models = vec![
            write_temp(&format!("{tag}_toggle"), TOGGLE),
            write_temp(&format!("{tag}_freebit"), FREEBIT),
            write_temp(&format!("{tag}_counter"), COUNTER),
        ];
        let mut manifest = String::from("# determinism drill\n");
        for _ in 0..2 {
            for m in &models {
                manifest.push_str(&format!("{}\n", m.display()));
            }
        }
        let manifest = write_temp(&format!("{tag}_manifest"), &manifest);
        Fixture { models, manifest }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for m in &self.models {
            std::fs::remove_file(m).ok();
        }
        std::fs::remove_file(&self.manifest).ok();
    }
}

#[test]
fn worker_count_never_changes_a_byte_of_output() {
    let fx = Fixture::new("det");
    let run = |jobs: &str| {
        smc()
            .args(["batch", "--jobs", jobs, "--trace", "--no-cache"])
            .arg(&fx.manifest)
            .output()
            .expect("runs")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial.status.code(), Some(1), "failing specs exit 1");
    assert_eq!(parallel.status.code(), serial.status.code());
    assert_eq!(
        String::from_utf8_lossy(&parallel.stdout),
        String::from_utf8_lossy(&serial.stdout),
        "verdicts, traces and ordering must be bit-identical across worker counts"
    );
}

#[test]
fn batch_blocks_match_serial_check_line_for_line() {
    let fx = Fixture::new("serial");
    let batch = smc()
        .args(["batch", "--jobs", "4", "--trace", "--no-cache"])
        .arg(&fx.manifest)
        .output()
        .expect("runs");
    let batch_out = String::from_utf8_lossy(&batch.stdout);
    for model in &fx.models {
        let serial = smc().args(["check", "--trace"]).arg(model).output().expect("runs");
        let block =
            format!("== {} ==\n{}", model.display(), String::from_utf8_lossy(&serial.stdout));
        assert!(
            batch_out.contains(&block),
            "batch block for {} must equal the serial `smc check` output;\n\
             expected block:\n{block}\nbatch output:\n{batch_out}",
            model.display()
        );
    }
}

#[test]
fn budget_trips_are_per_job_and_exit_3() {
    let fx = Fixture::new("budget");
    // One fixpoint iteration is never enough for the counter model, so
    // its jobs trip; the freebit jobs (1 reach iteration... also
    // tripped?) — every job gets the same governor, but each trip is
    // confined to its own job and the batch still reports all six.
    let out = smc()
        .args(["batch", "--jobs", "2", "--max-iters", "1"])
        .arg(&fx.manifest)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "exhausted is the worst class");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6 jobs"), "all jobs are reported: {stdout}");
}

#[test]
fn missing_model_is_reported_in_place_not_fatal() {
    let good = write_temp("inplace_good", COUNTER);
    let manifest =
        write_temp("inplace_manifest", &format!("/nonexistent_model.smv\n{}\n", good.display()));
    let out = smc().arg("batch").arg(&manifest).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The unreadable entry holds its manifest slot and the good job
    // still runs; input error outranks the pass for the exit code.
    assert_eq!(out.status.code(), Some(2));
    let missing = stdout.find("== /nonexistent_model.smv ==").expect("missing entry reported");
    let good_at = stdout.find(&format!("== {} ==", good.display())).expect("good job reported");
    assert!(missing < good_at, "manifest order preserved: {stdout}");
    assert!(stdout.contains("1 passed"), "{stdout}");
    assert!(stdout.contains("1 errors"), "{stdout}");
    std::fs::remove_file(good).ok();
    std::fs::remove_file(manifest).ok();
}

#[test]
fn json_report_carries_outcomes_counters_and_summary() {
    let fx = Fixture::new("json");
    // One worker: with a parallel schedule a duplicate source can race
    // its twin past the cache (both compile before either publishes),
    // so only the serial schedule makes `cache_hit` deterministic.
    let out =
        smc().args(["batch", "--jobs", "1", "--json"]).arg(&fx.manifest).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"schema\":2,\"jobs\":["), "{stdout}");
    assert!(stdout.contains("\"outcome\":\"pass\""), "{stdout}");
    assert!(stdout.contains("\"outcome\":\"fail\""), "{stdout}");
    assert!(stdout.contains("\"reach_iters\":"), "{stdout}");
    assert!(stdout.contains("\"cache_hit\":true"), "cache on by default: {stdout}");
    assert!(stdout.contains("\"summary\":{\"jobs\":6,"), "{stdout}");
    assert!(stdout.contains("\"exit\":1}"), "{stdout}");
    // Schema 2 = schema 1 plus a trace_id per job; every job has one.
    assert_eq!(stdout.matches("\"trace_id\":\"").count(), 6, "{stdout}");
}

#[test]
fn json_schema_bump_is_backward_compatible_for_v1_readers() {
    // A v1 reader knows name/outcome/exit_class/... and ignores unknown
    // keys. Walk the schema-2 report with exactly that discipline: every
    // v1 field must still be present, under its v1 name, with its v1
    // shape — the trace_id addition must not displace or rename anything.
    let fx = Fixture::new("compat");
    let out =
        smc().args(["batch", "--jobs", "1", "--json"]).arg(&fx.manifest).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v1_job_keys = [
        "\"name\":\"",
        "\"outcome\":\"",
        "\"exit_class\":",
        "\"wall_us\":",
        "\"cache_hit\":",
        "\"reach_iters\":",
        "\"cache_lookups\":",
        "\"created_nodes\":",
    ];
    for key in v1_job_keys {
        assert_eq!(stdout.matches(key).count(), 6, "v1 key {key} on all 6 jobs: {stdout}");
    }
    // The v1 envelope is intact: jobs array then summary object.
    assert!(stdout.contains("\"jobs\":["), "{stdout}");
    assert!(stdout.contains("\"summary\":{"), "{stdout}");
    // trace_id never collides with a v1 name and is a plain string, so a
    // tolerant v1 parser (ignore-unknown-keys) parses schema 2 unchanged.
    for piece in stdout.split("\"trace_id\":\"").skip(1) {
        let id = piece.split('"').next().expect("closing quote");
        assert_eq!(id.len(), 16, "derived ids are 16 hex chars: {id:?}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id:?}");
    }
}

#[test]
fn trace_ids_are_deterministic_across_runs_and_worker_counts() {
    let fx = Fixture::new("traceids");
    let ids = |jobs: &str| {
        let out = smc()
            .args(["batch", "--jobs", jobs, "--json", "--no-cache"])
            .arg(&fx.manifest)
            .output()
            .expect("runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .split("\"trace_id\":\"")
            .skip(1)
            .map(|p| p.split('"').next().expect("closing quote").to_string())
            .collect::<Vec<_>>()
    };
    let first = ids("1");
    assert_eq!(first.len(), 6);
    assert_eq!(first, ids("1"), "same manifest, same run → same ids");
    assert_eq!(first, ids("4"), "worker count must not change id assignment");
    // Rounds repeat the same three sources; ids still differ because the
    // manifest slot is part of the derivation.
    let mut dedup = first.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), 6, "duplicate sources get distinct ids per slot: {first:?}");
}

#[test]
fn warm_start_reuses_compiled_artifacts_within_a_batch() {
    let fx = Fixture::new("warm");
    let run = |extra: &[&str]| {
        let out = smc().arg("batch").args(extra).arg(&fx.manifest).output().expect("runs");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cached = run(&["--json"]);
    // Six jobs over three distinct sources: exactly three warm starts.
    assert_eq!(cached.matches("\"cache_hit\":true").count(), 3, "{cached}");
    assert_eq!(cached.matches("\"reach_iters\":0,").count(), 3, "warm jobs skip reach: {cached}");
    let uncached = run(&["--json", "--no-cache"]);
    assert_eq!(uncached.matches("\"cache_hit\":true").count(), 0, "{uncached}");
    assert_eq!(uncached.matches("\"reach_iters\":0,").count(), 0, "{uncached}");
}

/// A warm job compiles the cached module without the totality check
/// and never builds the reachable set, so its verdicts and traces must
/// be exactly the cold job's: every bundled model twice, and an
/// exported arbiter, whose free input installs event guards.
#[test]
fn warm_starts_print_the_uncached_text_byte_for_byte() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut arbiter = smc::circuits::arbiter::arbiter(2).netlist.to_smv();
    arbiter.push_str("SPEC AG !(meo1 & meo2)\nSPEC AG (tr1 -> AF ta1)\nSPEC AG (ur2 -> AF ua2)\n");
    let arbiter = write_temp("warm_text_arbiter", &arbiter);
    let mut models: Vec<String> = std::fs::read_dir(format!("{root}/models"))
        .expect("models dir")
        .map(|e| e.expect("dir entry").path().display().to_string())
        .filter(|p| p.ends_with(".smv"))
        .collect();
    models.sort();
    models.push(arbiter.display().to_string());
    let manifest = write_temp("warm_text_manifest", &(models.join("\n") + "\n").repeat(2));
    let run = |extra: &[&str]| {
        smc().args(["batch", "--jobs", "1", "--trace"]).args(extra).arg(&manifest).output()
    };
    let warm = run(&[]).expect("runs");
    let cold = run(&["--no-cache"]).expect("runs");
    std::fs::remove_file(&arbiter).ok();
    std::fs::remove_file(&manifest).ok();
    // Every model that compiles hits the cache the second time round
    // (lint_demo.smv deadlocks, so it is never cached); the summary
    // line's hit count is the only text that may differ.
    let hits = format!(", {} cache hits\n", models.len() - 1);
    let warm_stdout = String::from_utf8_lossy(&warm.stdout).replace(&hits, ", 0 cache hits\n");
    assert_eq!(warm_stdout, String::from_utf8_lossy(&cold.stdout));
    assert_eq!(String::from_utf8_lossy(&warm.stderr), String::from_utf8_lossy(&cold.stderr));
    assert_eq!(warm.status.code(), cold.status.code());
}

#[test]
fn empty_or_missing_manifest_is_usage_error() {
    let empty = write_temp("empty_manifest", "# nothing here\n");
    let out = smc().arg("batch").arg(&empty).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(empty).ok();
    let out = smc().arg("batch").arg("/nonexistent_manifest").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = smc().args(["batch", "--jobs", "0", "/x"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "--jobs 0 is rejected");
}
