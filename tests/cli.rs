//! Integration tests for the `smc` command-line tool.

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
        std::env::temp_dir().join(format!("smc_cli_test_{name}_{}_{n}.smv", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const TOGGLE: &str = r#"
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
SPEC AG (AF x)
SPEC AG x
"#;

#[test]
fn check_reports_verdicts_and_exit_code() {
    let path = write_temp("check", TOGGLE);
    let out = smc().arg("check").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SPEC 0: holds"), "{stdout}");
    assert!(stdout.contains("SPEC 1: FAILS"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "failing spec exits 1");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_with_trace_prints_counterexample() {
    let path = write_temp("trace", TOGGLE);
    let out = smc().arg("check").arg("--trace").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counterexample"), "{stdout}");
    // AG x fails already in the initial state x=FALSE.
    assert!(stdout.contains("x=FALSE"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn spec_checks_ad_hoc_formulas() {
    let path = write_temp("spec", TOGGLE);
    let ok = smc().arg("spec").arg(&path).arg("EF x").output().expect("runs");
    assert_eq!(ok.status.code(), Some(0));
    let bad = smc().arg("spec").arg(&path).arg("EG x").output().expect("runs");
    assert_eq!(bad.status.code(), Some(1));
    std::fs::remove_file(path).ok();
}

#[test]
fn reach_prints_statistics() {
    let path = write_temp("reach", TOGGLE);
    let out = smc().arg("reach").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reachable states: 2"), "{stdout}");
    assert!(stdout.contains("state bits      : 1"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = smc().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = smc().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = smc().arg("check").arg("/nonexistent.smv").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out =
        smc().arg("check").arg("--strategy").arg("bogus").arg("x.smv").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn strategy_flag_is_accepted() {
    let path = write_temp("strategy", TOGGLE);
    for strategy in ["restart", "stayset"] {
        let out = smc()
            .arg("check")
            .arg("--trace")
            .arg("--strategy")
            .arg(strategy)
            .arg(&path)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(1), "{strategy}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn dot_exports_graphviz() {
    let path = write_temp("dot", TOGGLE);
    for what in ["init", "trans", "reach"] {
        let out = smc().arg("dot").arg(&path).arg(what).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "{what}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("digraph bdd {"), "{what}: {stdout}");
    }
    let bad = smc().arg("dot").arg(&path).arg("nope").output().expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_file(path).ok();
}

#[test]
fn bundled_models_check_as_documented() {
    let root = env!("CARGO_MANIFEST_DIR");
    // counter8: every spec holds -> exit 0.
    let out = smc().arg("check").arg(format!("{root}/models/counter8.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    // mutex: safety holds, liveness holds (alternating turn).
    let out = smc().arg("check").arg(format!("{root}/models/mutex.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    // retry_protocol: the AF spec fails with a lasso counterexample.
    let out = smc()
        .arg("check")
        .arg("--trace")
        .arg(format!("{root}/models/retry_protocol.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SPEC 0: FAILS"), "{stdout}");
    assert!(stdout.contains("SPEC 1: holds"), "{stdout}");
    assert!(stdout.contains("loop back"), "{stdout}");
    assert!(stdout.contains("sender=sending"), "{stdout}");
}

#[test]
fn exported_arbiter_round_trips_through_the_cli() {
    // export_smv | smc check: the exported circuit must show the paper's
    // verdicts (safety holds, liveness fails).
    let arb_source = {
        // Rebuild the exported text without spawning the example binary.
        let arb = smc::circuits::arbiter::seitz_arbiter();
        let mut s = arb.netlist.to_smv();
        s.push_str("SPEC AG !(meo1 & meo2)\nSPEC AG (tr1 -> AF ta1)\n");
        s
    };
    let path = write_temp("arbiter_export", &arb_source);
    let out = smc().arg("check").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SPEC 0: holds"), "{stdout}");
    assert!(stdout.contains("SPEC 1: FAILS"), "{stdout}");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(path).ok();
}

#[test]
fn help_is_available() {
    let out = smc().arg("help").output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn budget_flags_are_accepted_when_generous() {
    let path = write_temp("budget_ok", TOGGLE);
    // Generous budgets must not change verdicts or exit codes.
    let out = smc()
        .arg("check")
        .arg("--timeout")
        .arg("60")
        .arg("--node-limit")
        .arg("1000000")
        .arg("--max-iters")
        .arg("100000")
        .arg(&path)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SPEC 0: holds"), "{stdout}");
    assert!(stdout.contains("SPEC 1: FAILS"), "{stdout}");
    assert_eq!(out.status.code(), Some(1));
    let out = smc()
        .arg("reach")
        .arg("--timeout")
        .arg("60")
        .arg("--node-limit")
        .arg("1000000")
        .arg(&path)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(path).ok();
}

#[test]
fn node_limit_exhaustion_exits_3_with_diagnostics() {
    let path = write_temp("budget_nodes", TOGGLE);
    let out = smc().arg("reach").arg("--node-limit").arg("1").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(3), "resource exhaustion exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    assert!(stderr.contains("partial progress"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn circuit_traces_keep_their_pinned_digests() {
    // Digests of `smc check --trace` stdout, recorded before closing arcs
    // raced a forward search against the backward rings: which direction
    // decides a close must never change a lasso.
    use smc::circuits::families::{c_element_ring, inverter_ring, muller_pipeline};
    let circuits = [
        ("ring7", inverter_ring(7), ["EG TRUE", "EF (inv0 & inv1)", "AG AF inv0"]),
        ("pipe6", muller_pipeline(6), ["AG AF c1", "EF (c1 & c2)", "EG !c1"]),
        ("cring6", c_element_ring(6), ["AG AF c0", "EF (c0 & c1)", "AG !(c0 & c1)"]),
    ];
    let mut got = Vec::new();
    for (name, net, specs) in circuits {
        let mut source = net.to_smv();
        for spec in specs {
            source += &format!("SPEC {spec}\n");
        }
        let path = write_temp(name, &source);
        for strategy in ["restart", "stayset"] {
            let out = smc()
                .args(["check", "--trace", "--strategy", strategy])
                .arg(&path)
                .output()
                .expect("runs");
            let code = out.status.code().expect("exit code");
            got.push(format!("{name} {strategy} {code} {:016x}", fnv1a(&out.stdout)));
        }
        std::fs::remove_file(path).ok();
    }
    let want = [
        "ring7 restart 0 34762bc93f48789d",
        "ring7 stayset 0 faa7cdffc655dec4",
        "pipe6 restart 1 13f63c57c9faa94d",
        "pipe6 stayset 1 c3c236bc35953136",
        "cring6 restart 1 62f69c1ec02a78ea",
        "cring6 stayset 1 62f69c1ec02a78ea",
    ];
    assert_eq!(got, want);
}

#[test]
fn gc_under_a_node_limit_keeps_an_exported_circuit_trace_identical() {
    // The free scheduler input `sel` gives the exported circuit a
    // two-part transition partition. This limit forces a garbage
    // collection at many checkpoints (but no reordering), and each must
    // keep the partition's quantification cubes alive.
    let mut source = smc::circuits::families::c_element_ring(5).to_smv();
    source.push_str("SPEC AG AF c0\nSPEC EF (c0 & c1)\nSPEC AG !(c0 & c1)\n");
    let path = write_temp("gc_export", &source);
    let free = smc().args(["check", "--trace"]).arg(&path).output().expect("runs");
    let governed = smc()
        .args(["check", "--trace", "--stats", "--node-limit", "600"])
        .arg(&path)
        .output()
        .expect("runs");
    assert_eq!(free.status.code(), Some(1));
    assert_eq!(governed.status.code(), Some(1));
    let governed = String::from_utf8_lossy(&governed.stdout);
    let (verdicts, stats) = governed.split_once("-- bdd manager stats --").expect("stats");
    assert_eq!(verdicts, String::from_utf8_lossy(&free.stdout));
    assert!(!stats.contains("gc              : 0 runs"), "the limit must force a collection");
    std::fs::remove_file(path).ok();
}

#[test]
fn gc_under_a_node_limit_keeps_chained_reachability_and_the_trace() {
    // The exported arbiter's reachable set is chained over one event per
    // `sel` value. At this limit the ladder collects at sweep
    // checkpoints, with the event parts rooted only by their protection,
    // and never sifts: the output is the unbudgeted one.
    let mut source = smc::circuits::arbiter::arbiter(2).netlist.to_smv();
    source.push_str("SPEC AG !(meo1 & meo2)\nSPEC AG (tr1 -> AF ta1)\nSPEC AG (ur2 -> AF ua2)\n");
    let path = write_temp("gc_events", &source);
    let free = smc().args(["check", "--trace"]).arg(&path).output().expect("runs");
    let governed = smc()
        .args(["check", "--trace", "--profile", "--node-limit", "12000"])
        .arg(&path)
        .output()
        .expect("runs");
    assert_eq!(free.status.code(), Some(1));
    assert_eq!(governed.status.code(), Some(1));
    let governed = String::from_utf8_lossy(&governed.stdout);
    let (verdicts, profile) = governed.split_once("-- profile report").expect("profile");
    assert_eq!(verdicts, String::from_utf8_lossy(&free.stdout));
    let gc = profile.lines().find(|l| l.starts_with("gc: ")).expect("gc line");
    assert!(!gc.starts_with("gc: 0 runs"), "the limit must force a collection: {gc}");
    assert!(gc.contains("ladder: gc; trips: none"), "collect only: {gc}");
    std::fs::remove_file(path).ok();
}

#[test]
fn a_reachability_trip_reports_the_sweeps_and_nodes_it_got_to() {
    let path = write_temp("reach_trip", &smc::circuits::arbiter::arbiter(2).netlist.to_smv());
    let out = smc().args(["reach", "--max-iters", "3"]).arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fixpoint iteration 4 exceeds the cap of 3"), "{stderr}");
    let partial =
        stderr.lines().find_map(|l| l.strip_prefix("partial progress: ")).expect("{stderr}");
    assert!(partial.starts_with("3 iterations, "), "{partial}");
    // "…; L live / P peak nodes, C created"
    let counts = partial.split_once("; ").expect("counts").1;
    let numbers: Vec<u64> = counts.split(' ').filter_map(|w| w.parse().ok()).collect();
    assert_eq!(numbers.len(), 3, "{counts}");
    assert!(numbers.iter().all(|&n| n > 0), "{counts}");
    std::fs::remove_file(path).ok();
}

#[test]
fn iteration_cap_exhaustion_exits_3() {
    let path = write_temp("budget_iters", TOGGLE);
    let out = smc().arg("reach").arg("--max-iters").arg("1").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("iteration"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn expired_timeout_exits_3_on_check_and_spec() {
    let path = write_temp("budget_timeout", TOGGLE);
    let out = smc().arg("check").arg("--timeout").arg("0").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    let out =
        smc().arg("spec").arg("--timeout").arg("0").arg(&path).arg("EF x").output().expect("runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn profile_flag_writes_versioned_trace_and_prints_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let trace =
        std::env::temp_dir().join(format!("smc_cli_test_profile_{}.jsonl", std::process::id()));
    let out = smc()
        .arg("check")
        .arg("--trace")
        .arg("--profile")
        .arg(&trace)
        .arg(format!("{root}/models/arbiter2.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The in-memory aggregator renders the per-phase table after the run.
    assert!(stdout.contains("-- profile report (schema v1) --"), "{stdout}");
    for span in ["compile", "reach", "check_eu", "fair_eg", "witness"] {
        assert!(stdout.contains(span), "missing span {span:?} in report:\n{stdout}");
    }
    assert!(stdout.contains("witness search:"), "{stdout}");
    // The trace file carries schema-versioned JSON lines with the full
    // event stream: spans, per-iteration fixpoint events, witness hops.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.lines().count() > 20, "suspiciously short trace:\n{text}");
    for line in text.lines() {
        assert!(line.starts_with("{\"v\":1,"), "unversioned line: {line}");
    }
    for kind in ["span_start", "span_end", "fixpoint_iter", "witness_hop", "cycle_close"] {
        assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "missing {kind:?} events in trace");
    }
    assert!(text.contains("\"frontier_size\":"), "no frontier sizes in trace");

    // The recorded trace round-trips through `smc profile report`.
    let out = smc().arg("profile").arg("report").arg(&trace).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("-- profile report (schema v1) --"), "{report}");
    assert!(report.contains("compile"), "{report}");
    std::fs::remove_file(trace).ok();
}

#[test]
fn profile_report_rejects_garbage_input() {
    let path =
        std::env::temp_dir().join(format!("smc_cli_test_garbage_{}.jsonl", std::process::id()));
    std::fs::write(&path, "this is not json\n").expect("write");
    let out = smc().arg("profile").arg("report").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(path).ok();
}

#[test]
fn progress_flag_reports_phases_on_stderr() {
    let path = write_temp("progress", TOGGLE);
    let out = smc().arg("check").arg("--progress").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[reach]"), "{stderr}");
    assert!(stderr.contains("frontier="), "{stderr}");
    std::fs::remove_file(path).ok();
}

const SATURATING: &str = r#"
MODULE main
VAR n : 0..15;
ASSIGN
  init(n) := 15;
  next(n) := case n = 15 : 15; TRUE : (n + 1) mod 16; esac;
SPEC EF n = 15
"#;

#[test]
fn stats_print_on_the_exit_3_path() {
    // Reachability converges immediately (init sits on the fixed point)
    // but the backward EU fixpoint needs 15 iterations, so the cap trips
    // mid-check — after the model loaded. --stats must still print.
    let path = write_temp("stats_exit3", SATURATING);
    let out = smc()
        .arg("check")
        .arg("--max-iters")
        .arg("6")
        .arg("--stats")
        .arg(&path)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- bdd manager stats --"), "{stdout}");
    assert!(stdout.contains("peak"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SPEC 0: not decided"), "{stderr}");
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn stats_report_per_op_hit_rates_and_peak() {
    let path = write_temp("stats_fmt", TOGGLE);
    let out = smc().arg("check").arg("--stats").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("peak"), "{stdout}");
    // Per-op lines carry a percentage.
    assert!(stdout.contains("%)"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_budget_values_exit_2() {
    let path = write_temp("budget_bad", TOGGLE);
    for flags in [["--timeout", "soon"], ["--node-limit", "many"], ["--max-iters", "-3"]] {
        let out = smc().arg("check").args(flags).arg(&path).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
    }
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------- lint

/// Repo-relative path to a bundled model.
fn model(name: &str) -> String {
    format!("{}/models/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lint_reports_seeded_diagnostics_and_exits_1() {
    let out = smc().arg("lint").arg(model("lint_demo.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "warnings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in ["W001", "W002", "W003", "W005", "W010", "W011", "W020", "W021", "W022"] {
        assert!(stdout.contains(&format!("warning[{code}]")), "{code} missing:\n{stdout}");
    }
    // Human rendering: location, snippet gutter, caret, summary line.
    assert!(stdout.contains("lint_demo.smv:21:3"), "{stdout}");
    assert!(stdout.contains("^"), "{stdout}");
    assert!(stdout.contains("0 errors, 12 warnings"), "{stdout}");
    // The vacuity finding names the leaf and shows its witness.
    assert!(stdout.contains("`ack`"), "{stdout}");
    assert!(stdout.contains("interesting witness"), "{stdout}");
}

#[test]
fn lint_clean_model_exits_0_silently() {
    let out = smc().arg("lint").arg(model("mutex.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "clean model exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
}

#[test]
fn lint_json_is_machine_readable() {
    let out = smc().arg("lint").arg("--json").arg(model("lint_demo.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One JSON array per invocation, one object per file — even for a
    // single file, so consumers parse one shape.
    let doc = smc::obs::Json::parse(stdout.trim()).expect("valid JSON document");
    let smc::obs::Json::Arr(files) = &doc else { panic!("top level must be an array: {stdout}") };
    assert_eq!(files.len(), 1);
    let v = &files[0];
    assert_eq!(v.get("warnings").and_then(|w| w.as_u64()), Some(12), "{stdout}");
    assert_eq!(v.get("errors").and_then(|e| e.as_u64()), Some(0));
    match v.get("diagnostics") {
        Some(smc::obs::Json::Arr(items)) => {
            assert_eq!(items.len(), 12);
            assert!(items.iter().all(|d| d.get("code").and_then(|c| c.as_str()).is_some()));
        }
        other => panic!("diagnostics array missing: {other:?}"),
    }
}

#[test]
fn lint_json_multi_file_emits_one_array_keyed_by_path() {
    let out = smc()
        .arg("lint")
        .arg("--json")
        .arg(model("mutex.smv"))
        .arg(model("lint_demo.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "worst outcome wins: clean + warnings = 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = smc::obs::Json::parse(stdout.trim()).expect("valid JSON document");
    let smc::obs::Json::Arr(files) = &doc else { panic!("top level must be an array: {stdout}") };
    assert_eq!(files.len(), 2);
    let file_of = |v: &smc::obs::Json| v.get("file").and_then(|f| f.as_str().map(String::from));
    assert!(file_of(&files[0]).is_some_and(|f| f.ends_with("mutex.smv")), "{stdout}");
    assert!(file_of(&files[1]).is_some_and(|f| f.ends_with("lint_demo.smv")), "{stdout}");
    assert_eq!(files[0].get("warnings").and_then(|w| w.as_u64()), Some(0));
    assert_eq!(files[1].get("warnings").and_then(|w| w.as_u64()), Some(12));
}

#[test]
fn lint_multiple_files_exits_with_the_worst_code() {
    let out = smc()
        .arg("lint")
        .arg(model("mutex.smv"))
        .arg(model("lint_demo.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "clean + warnings = 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mutex.smv: 0 errors, 0 warnings"), "{stdout}");
    assert!(stdout.contains("lint_demo.smv: 0 errors, 12 warnings"), "{stdout}");
}

#[test]
fn lint_syntax_error_prints_code_span_snippet_and_exits_2() {
    let path = write_temp("lint_parse_err", "MODULE main\nVAR x boolean;\n");
    let out = smc().arg("lint").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "errors exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[E001]"), "{stdout}");
    assert!(stdout.contains(":2:7"), "span points at the offending token: {stdout}");
    assert!(stdout.contains("VAR x boolean;"), "snippet shown: {stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_rejects_a_too_wide_range_with_a_caret_on_the_declaration() {
    let path = write_temp("wide_range", "MODULE main\nVAR x : 0..4000000000;\nSPEC AG x >= 0\n");
    let out = smc().arg("check").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "a semantic error is an input error");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("error[E002]"), "{text}");
    assert!(text.contains(":2:5"), "span points at the declaration: {text}");
    assert!(text.contains("    ^^^^^^^^^^^^^^^^^^"), "caret under `x : 0..4000000000;`: {text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_routes_load_errors_through_diagnostics() {
    let path = write_temp("check_diag", "MODULE main\nVAR x : boolean;\nSPEC EF ghost\n");
    let out = smc().arg("check").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "load error exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error["), "diagnostic code shown: {stderr}");
    assert!(stderr.contains("-->"), "location arrow shown: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn too_deep_syntax_is_a_coded_parse_error_not_a_stack_overflow() {
    let model = "MODULE main\nVAR x : boolean;\n";
    let chain = vec!["x"; 200_000].join(" & ");
    let parens = format!("{}x{}", "(".repeat(2_000), ")".repeat(2_000));
    for (name, spec) in [("chain", chain), ("parens", parens)] {
        let path = write_temp(&format!("deep_{name}"), &format!("{model}SPEC {spec}\n"));
        let out = smc().arg("check").arg(&path).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{name}: parse error exits 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error[E001]"), "{name}: {stderr}");
        assert!(stderr.contains("nested deeper than 512 levels"), "{name}: {stderr}");
        std::fs::remove_file(path).ok();
    }
    // The same bound guards an ad-hoc CTL formula.
    let path = write_temp("deep_formula", model);
    let nots = format!("{}x", "!".repeat(50_000));
    let out = smc().arg("spec").arg(&path).arg(&nots).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "bad formula exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nested deeper than 512 levels"));
    std::fs::remove_file(path).ok();
}

/// A model whose SPEC atom `d{n}` expands through a chain of `n`
/// DEFINEs, each two levels above the next.
fn define_chain(n: usize) -> String {
    let mut s = String::from("MODULE main\nVAR x : boolean;\nDEFINE d0 := x;\n");
    for i in 1..=n {
        s.push_str(&format!("DEFINE d{i} := d{} & x;\n", i - 1));
    }
    s + &format!("SPEC AG (d{n} -> x)\n")
}

#[test]
fn deep_expressions_check_and_deep_define_expansions_are_coded_errors() {
    // Every operand of `&` adds a level, so these are deep without a
    // single DEFINE, yet well inside the parser's 512 levels.
    let trans = vec!["next(x) != x"; 100].join(" & ");
    let toggle = format!(
        "MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE;\nTRANS {trans}\n\
         SPEC AG (x -> AX !x)\n"
    );
    let ring = smc::circuits::families::inverter_ring(30).to_smv() + "SPEC EF inv0\n";
    for (name, source) in [("trans100", toggle), ("ring30", ring)] {
        let path = write_temp(name, &source);
        let out = smc().arg("check").arg(&path).output().expect("runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stdout.contains("SPEC 0: holds"), "{name}: {stdout}{stderr}");
        assert_eq!(out.status.code(), Some(0), "{name}");
        std::fs::remove_file(path).ok();
    }
    // Expanded, d256 is 514 levels high.
    let path = write_temp("define_chain", &define_chain(256));
    let out = smc().arg("check").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "load error exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[E002]"), "{stderr}");
    assert!(stderr.contains("nested deeper than 512 levels once DEFINEs are expanded"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// A model whose one `next` computes `i64::MIN mod -1`: its quotient
/// leaves `i64`.
const MOD_MINUS_ONE: &str = "MODULE main\nVAR x : 0..3;\n\
    ASSIGN init(x) := 0; next(x) := (-9223372036854775807 - 1) mod -1;\nSPEC AG x = 0\n";

#[test]
fn integer_overflow_is_a_coded_error_not_a_wrapped_value_or_a_panic() {
    let models = [
        (
            "add",
            "MODULE main\nVAR x : boolean;\nDEFINE d := 9223372036854775807;\n\
             ASSIGN init(x) := FALSE; next(x) := x;\nSPEC AG (d + d > 0)\n",
            "integer overflow in +",
        ),
        (
            "mul",
            "MODULE main\nVAR x : 0..3;\n\
             ASSIGN init(x) := 0; next(x) := 4611686018427387904 * 4;\nSPEC AG x = 0\n",
            "integer overflow in *",
        ),
        ("mod", MOD_MINUS_ONE, "integer overflow in mod"),
    ];
    for (name, source, message) in models {
        let path = write_temp(&format!("overflow_{name}"), source);
        let out = smc().arg("check").arg(&path).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("error[E002]"), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name}: no verdict: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn deps_and_lint_survive_an_overflowing_constant() {
    // Constant propagation takes the overflow for "not a constant": deps
    // prints the graph, and lint reports the compiler's E002.
    let path = write_temp("overflow_analyses", MOD_MINUS_ONE);
    let deps = smc().arg("deps").arg(&path).output().expect("runs");
    assert_eq!(deps.status.code(), Some(0), "{}", String::from_utf8_lossy(&deps.stderr));
    let stdout = String::from_utf8_lossy(&deps.stdout);
    assert!(stdout.contains("frozen constants:\n  (none)"), "{stdout}");
    let lint = smc().arg("lint").arg(&path).output().expect("runs");
    let report = String::from_utf8_lossy(&lint.stdout);
    assert_eq!(lint.status.code(), Some(2), "{report}{}", String::from_utf8_lossy(&lint.stderr));
    assert!(report.contains("error[E002]"), "{report}");
    assert!(report.contains("integer overflow in mod"), "{report}");
    std::fs::remove_file(path).ok();
}

#[test]
fn define_chains_that_use_each_link_twice_check() {
    // Every link uses the previous one twice: expanded, the chain would
    // be 2^40 evaluations.
    let mut source = String::from("MODULE main\nVAR x : boolean; y : boolean;\nDEFINE d0 := x;\n");
    for i in 1..=40 {
        source += &format!("DEFINE d{i} := (d{p} | y) & (d{p} | x);\n", p = i - 1);
    }
    source += "SPEC AG (d40 <-> x)\n";
    let path = write_temp("define_doubling", &source);
    let out = smc().arg("check").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "SPEC 0: holds\n");
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_and_lint_survive_a_long_define_chain() {
    // 30,000 links, one macro per link: longer than a thread's stack
    // allows a recursive walk. deps prints the one variable's graph;
    // lint reports the compiler's E002 for the expanded depth.
    let path = write_temp("long_define_chain", &define_chain(30_000));
    let deps = smc().arg("deps").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&deps.stdout);
    assert_eq!(deps.status.code(), Some(0), "{}", String::from_utf8_lossy(&deps.stderr));
    assert!(stdout.contains("spec 0: 1/1 — x"), "{stdout}");
    let lint = smc().arg("lint").arg(&path).output().expect("runs");
    let report = String::from_utf8_lossy(&lint.stdout);
    assert_eq!(lint.status.code(), Some(2), "{report}{}", String::from_utf8_lossy(&lint.stderr));
    assert!(report.contains("nested deeper than 512 levels once DEFINEs are expanded"), "{report}");
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_survives_a_long_next_chain() {
    // `next(v_i) := next(v_{i+1})` over 50,000 links: the W004 cycle
    // search walks the whole chain in one path.
    let links = 50_000;
    let mut source = String::from("MODULE main\nVAR\n");
    for i in 0..=links {
        source += &format!("  v{i} : boolean;\n");
    }
    source += "ASSIGN\n";
    for i in 0..links {
        source += &format!("  next(v{i}) := next(v{});\n", i + 1);
    }
    let path = write_temp("long_next_chain", &source);
    let lint = smc().arg("lint").arg(&path).output().expect("runs");
    let report = String::from_utf8_lossy(&lint.stdout);
    assert_eq!(lint.status.code(), Some(2), "{}", String::from_utf8_lossy(&lint.stderr));
    let summary = report.lines().last().unwrap_or_default();
    assert!(summary.contains(&format!(": {links} errors,")), "{summary}");
    std::fs::remove_file(path).ok();
}

#[test]
fn iff_chains_past_the_size_bound_are_refused_in_time() {
    // A left-deep `<->` chain doubles at every link once desugared: 24
    // atoms would be ~134M nodes, so the checker would never finish.
    let chain = |atom: &str, n: usize| vec![atom; n].join(" <-> ");
    let started = std::time::Instant::now();
    let spec = smc().arg("spec").arg(model("counter8.smv")).arg(chain("carry", 24)).output();
    let spec = spec.expect("runs");
    assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    assert_eq!(spec.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&spec.stderr).contains("expands past 65536 nodes"));
    // In a SPEC, the bound holds over the whole formula: each part of
    // these passes it alone. The nested form copies a 65k-node operand
    // about 10^10 times once desugared.
    let wrapped = format!("(y | ({})) <-> {}", chain("x", 14), chain("x", 13));
    let nested = format!("(y | ({wrapped})) <-> {}", chain("x", 13));
    let conj = vec![format!("({})", chain("x", 14)); 8].join(" & ");
    for (name, formula) in
        [("chain", chain("x", 24)), ("wrapped", wrapped), ("nested", nested), ("conj", conj)]
    {
        let path = write_temp(
            &format!("iff_{name}"),
            &format!("MODULE main\nVAR x : boolean; y : boolean;\nSPEC {formula}\n"),
        );
        let started = std::time::Instant::now();
        let check = smc().arg("check").arg(&path).output().expect("runs");
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{name}");
        assert_eq!(check.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&check.stderr);
        assert!(stderr.contains("error[E001]"), "{name}: {stderr}");
        assert!(stderr.contains("SPEC expands past 65536 nodes"), "{name}: {stderr}");
        // At the SPEC keyword.
        assert!(stderr.contains(&format!("{}:3:1\n", path.display())), "{name}: {stderr}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn check_with_lint_flag_keeps_verdicts_identical() {
    let path = write_temp("check_lint", TOGGLE);
    let plain = smc().arg("check").arg(&path).output().expect("runs");
    let linted = smc().arg("check").arg("--lint").arg(&path).output().expect("runs");
    // Verdicts (stdout) are bit-identical; lint findings go to stderr.
    assert_eq!(plain.stdout, linted.stdout, "--lint must not change check output");
    assert_eq!(plain.status.code(), linted.status.code());
    std::fs::remove_file(path).ok();
}

#[test]
fn spec_with_lint_flag_reports_findings_on_stderr() {
    let path = write_temp("spec_lint", TOGGLE);
    let out = smc().arg("spec").arg("--lint").arg(&path).arg("EF x").output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "formula still holds");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("holds"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_unreadable_file_exits_2() {
    let out = smc().arg("lint").arg("/nonexistent/nope.smv").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nope.smv"), "{stderr}");
}

// ------------------------------------------------------------- metrics

#[test]
fn metrics_flag_exposes_prometheus_on_stdout() {
    let path = write_temp("metrics_prom", TOGGLE);
    let out = smc().arg("check").arg("--metrics").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Direct instrumentation (manager + model snapshots).
    assert!(stdout.contains("# TYPE smc_bdd_created_nodes_total counter"), "{stdout}");
    assert!(stdout.contains("smc_model_state_bits 1"), "{stdout}");
    assert!(stdout.contains("smc_model_reachable_states 2"), "{stdout}");
    assert!(stdout.contains("smc_cache_lookups_total{op=\"ite\"}"), "{stdout}");
    // Event-folded series (fixpoint loop telemetry, histograms).
    assert!(stdout.contains("# TYPE smc_fixpoint_iterations_total counter"), "{stdout}");
    assert!(stdout.contains("smc_fixpoint_iterations_total{phase=\"reach\"}"), "{stdout}");
    assert!(stdout.contains("smc_fixpoint_frontier_nodes_bucket"), "{stdout}");
    assert!(stdout.contains("# HELP smc_span_wall_us"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn metrics_json_file_is_schema_versioned_and_parseable() {
    let path = write_temp("metrics_json", TOGGLE);
    let mfile =
        std::env::temp_dir().join(format!("smc_cli_test_metrics_{}.json", std::process::id()));
    let out = smc().arg("check").arg("--metrics").arg(&mfile).arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("smc_bdd"), "file mode keeps stdout clean: {stdout}");
    let text = std::fs::read_to_string(&mfile).expect("metrics file written");
    let v = smc::obs::Json::parse(text.trim()).expect("valid JSON exposition");
    assert_eq!(v.get("schema").and_then(|s| s.as_u64()), Some(1));
    for section in ["counters", "gauges", "histograms"] {
        match v.get(section) {
            Some(smc::obs::Json::Arr(items)) => assert!(!items.is_empty(), "{section} empty"),
            other => panic!("{section} missing: {other:?}"),
        }
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(mfile).ok();
}

#[test]
fn metrics_trace_and_witness_series_populate_with_traces() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = smc()
        .arg("check")
        .arg("--trace")
        .arg("--metrics")
        .arg(format!("{root}/models/retry_protocol.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The failing AF spec produced a lasso counterexample: its shape
    // lands in the witness histograms.
    assert!(stdout.contains("smc_witness_trace_states_count"), "{stdout}");
    assert!(stdout.contains("smc_witness_cycle_states_count"), "{stdout}");
    assert!(stdout.contains("smc_witness_hops_total"), "{stdout}");
}

#[test]
fn stats_and_metrics_agree_on_the_counters() {
    // One source of truth: the created-nodes figure in the --stats table
    // must equal the smc_bdd_created_nodes_total series verbatim.
    let path = write_temp("stats_metrics_agree", TOGGLE);
    let out = smc().arg("check").arg("--stats").arg("--metrics").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let created_stats = stdout
        .lines()
        .find(|l| l.starts_with("nodes"))
        .and_then(|l| l.split(',').nth(2))
        .and_then(|f| f.trim().split(' ').next())
        .expect("stats table has a created field")
        .to_string();
    let created_metrics = stdout
        .lines()
        .find(|l| l.starts_with("smc_bdd_created_nodes_total"))
        .and_then(|l| l.split(' ').nth(1))
        .expect("metric series present")
        .to_string();
    assert_eq!(created_stats, created_metrics, "{stdout}");
    std::fs::remove_file(path).ok();
}

// --------------------------------------------------------------- bench

#[test]
fn bench_gates_against_a_ledger_and_appends_history() {
    let ledger =
        std::env::temp_dir().join(format!("smc_cli_test_bench_{}.json", std::process::id()));
    std::fs::remove_file(&ledger).ok();
    // Walls are best-of-5 on both sides of the gate: one repetition of
    // the sub-millisecond `mutex` phases against another tripped the
    // 400% tolerance whenever the host was busy.
    let base = || {
        let mut cmd = smc();
        cmd.arg("bench")
            .arg("--reps")
            .arg("5")
            .arg("--families")
            .arg("mutex")
            .arg("--baseline")
            .arg(&ledger)
            .arg("--commit")
            .arg("testrun");
        cmd
    };
    // 1. Gating against a missing ledger is a harness error with advice.
    let out = base().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--update"));
    // 2. --update creates the baseline.
    let out = base().arg("--update").output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // 3. A clean run passes the gate and appends to history.
    let out = base().arg("--tolerance").arg("400").output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("appended to history"));
    let text = std::fs::read_to_string(&ledger).expect("ledger exists");
    assert_eq!(text.matches("\"commit\":\"testrun\"").count(), 3, "baseline + 2 history:\n{text}");
    // 4. An injected 1000% slowdown trips the gate: exit 1, no append.
    let out = base()
        .arg("--tolerance")
        .arg("400")
        .arg("--inject-slowdown")
        .arg("1000")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSION mutex/"), "{stderr}");
    assert!(stderr.contains("tolerance 400%"), "{stderr}");
    let after = std::fs::read_to_string(&ledger).expect("ledger exists");
    assert_eq!(after, text, "a regressed run must not touch the ledger");
    // 5. --no-gate leaves the file alone and always exits 0.
    let out = base().arg("--no-gate").arg("--inject-slowdown").arg("1000").output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_file(ledger).ok();
}

#[test]
fn bench_rejects_unknown_families_and_bad_flags() {
    let out = smc().arg("bench").arg("--families").arg("warp_core").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("warp_core"));
    let out = smc().arg("bench").arg("--frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = smc().arg("bench").arg("--update").arg("--no-gate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

// ------------------------------------------------------ profile export

/// Records an arbiter2 check trace for the export/report tests.
fn record_trace(tag: &str) -> std::path::PathBuf {
    let root = env!("CARGO_MANIFEST_DIR");
    let trace =
        std::env::temp_dir().join(format!("smc_cli_test_{tag}_{}.jsonl", std::process::id()));
    let out = smc()
        .arg("check")
        .arg("--trace")
        .arg("--profile")
        .arg(&trace)
        .arg(format!("{root}/models/arbiter2.smv"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    trace
}

#[test]
fn profile_export_writes_chrome_and_speedscope_documents() {
    let trace = record_trace("export");
    // Chrome trace-event format to stdout.
    let out =
        smc().arg("profile").arg("export").arg(&trace).arg("--chrome").output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = smc::obs::Json::parse(stdout.trim()).expect("valid chrome JSON");
    match v.get("traceEvents") {
        Some(smc::obs::Json::Arr(events)) => {
            assert!(events.len() > 20, "suspiciously few events");
            assert!(events.iter().any(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("compile")
                    && e.get("ph").and_then(|p| p.as_str()) == Some("B")
            }));
        }
        other => panic!("traceEvents missing: {other:?}"),
    }
    // Speedscope format through --out.
    let ss = std::env::temp_dir().join(format!("smc_cli_test_ss_{}.json", std::process::id()));
    let out = smc()
        .arg("profile")
        .arg("export")
        .arg(&trace)
        .arg("--speedscope")
        .arg("--out")
        .arg(&ss)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&ss).expect("speedscope file written");
    let v = smc::obs::Json::parse(text.trim()).expect("valid speedscope JSON");
    assert!(v.get("$schema").and_then(|s| s.as_str()).unwrap_or("").contains("speedscope"));
    assert!(matches!(v.get("profiles"), Some(smc::obs::Json::Arr(p)) if !p.is_empty()));
    // A format must be chosen.
    let out = smc().arg("profile").arg("export").arg(&trace).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(ss).ok();
}

#[test]
fn profile_report_supports_json_and_top() {
    let trace = record_trace("report_opts");
    let out = smc()
        .arg("profile")
        .arg("report")
        .arg(&trace)
        .arg("--json")
        .arg("--top")
        .arg("2")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = smc::obs::Json::parse(stdout.trim()).expect("valid report JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_u64()), Some(1));
    match v.get("spans") {
        Some(smc::obs::Json::Arr(spans)) => assert_eq!(spans.len(), 2, "--top 2 honored"),
        other => panic!("spans missing: {other:?}"),
    }
    assert!(v.get("hidden_spans").and_then(|h| h.as_u64()).unwrap_or(0) > 0);
    // Human rendering notes the hidden rows.
    let out = smc()
        .arg("profile")
        .arg("report")
        .arg(&trace)
        .arg("--top")
        .arg("2")
        .output()
        .expect("runs");
    assert!(String::from_utf8_lossy(&out.stdout).contains("hidden by --top 2"));
    std::fs::remove_file(trace).ok();
}

// ---------------------------------------------------------------- deps

#[test]
fn deps_prints_the_dependency_graph_and_cones() {
    let out = smc().arg("deps").arg(model("pipeline.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("variables : 6"), "{stdout}");
    assert!(stdout.contains("buf <- buf produced"), "{stdout}");
    assert!(stdout.contains("spec 3: 1/6"), "{stdout}");
    assert!(stdout.contains("frozen constants:"), "{stdout}");
    // beat reads only itself: its own little SCC, in no cone.
    assert!(stdout.contains("beat <- beat"), "{stdout}");
}

/// Every macro on a `DEFINE` cycle reads the cycle's union, whichever
/// macro the walk meets first: `b` reads `x` through `a`.
#[test]
fn deps_give_every_macro_on_a_define_cycle_the_cycles_support() {
    let path = write_temp(
        "define_cycle",
        "MODULE main\nVAR x : boolean; y : boolean; z : boolean;\n\
         DEFINE a := b | x;\nDEFINE b := a | y;\nASSIGN\n  next(z) := a;\n  next(x) := b;\n",
    );
    let out = smc().arg("deps").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("  x <- x y\n"), "{stdout}");
    assert!(stdout.contains("  z <- x y\n"), "{stdout}");
    let out = smc().arg("check").arg(&path).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error[E002]"), "{stderr}");
    assert!(stderr.contains("DEFINE a expands to itself"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_dot_writes_graphviz() {
    let out = smc().arg("deps").arg("--dot").arg(model("pipeline.smv")).output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph deps {"), "{stdout}");
    assert!(stdout.contains("\"consumed\" -> \"buf\""), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
}

/// `--coi` is an unknown flag on every checking command: a script that
/// passes it fails with a usage error instead of running without it.
#[test]
fn coi_flag_is_refused_by_every_command() {
    let pipeline = model("pipeline.smv");
    let manifest = write_temp("coi_manifest", &format!("{pipeline}\n"));
    let manifest = manifest.to_string_lossy().into_owned();
    let runs: [&[&str]; 4] = [
        &["check", "--coi", &pipeline],
        &["spec", "--coi", &pipeline, "EF blink"],
        &["batch", "--coi", &manifest],
        &["serve", "--coi"],
    ];
    for args in runs {
        let out = smc().args(args).stdin(std::process::Stdio::null()).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(r#"unknown flag "--coi""#), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    std::fs::remove_file(manifest).ok();
}

/// `--strategy` chooses how `smc check` closes witness cycles; batch
/// and serve check without it and refuse the flag.
#[test]
fn strategy_flag_is_refused_by_batch_and_serve() {
    let pipeline = model("pipeline.smv");
    let manifest = write_temp("strategy_manifest", &format!("{pipeline}\n"));
    let manifest = manifest.to_string_lossy().into_owned();
    let runs: [&[&str]; 2] =
        [&["batch", "--strategy", "stayset", &manifest], &["serve", "--strategy", "stayset"]];
    for args in runs {
        let out = smc().args(args).stdin(std::process::Stdio::null()).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(r#"unknown flag "--strategy""#), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    std::fs::remove_file(manifest).ok();
}

/// Every command that loads a model reports a load error the same way:
/// `smc dot` prints the diagnostic `smc check` prints, with exit 2.
#[test]
fn dot_prints_load_diagnostics_as_check_does() {
    let path = write_temp("dot_diag", "MODULE main\nVAR x : boolean;\nSPEC EF ghost\n");
    let check = smc().arg("check").arg(&path).output().expect("runs");
    let dot = smc().arg("dot").arg(&path).arg("init").output().expect("runs");
    let stderr = String::from_utf8_lossy(&dot.stderr);
    assert!(stderr.starts_with("error[E002]"), "{stderr}");
    assert_eq!(dot.status.code(), Some(2));
    assert_eq!(dot.status.code(), check.status.code());
    assert_eq!(stderr, String::from_utf8_lossy(&check.stderr));
    assert!(dot.stdout.is_empty());
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_routes_load_errors_through_diagnostics() {
    let path = write_temp("deps_err", "MODULE main\nVAR x boolean;\n");
    let out = smc().arg("deps").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[E001]"));
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------- inspect + --heap

/// `smc inspect --json` must emit one schema-versioned snapshot whose
/// per-level counts sum to the live heap, whose non-empty table loads
/// are bounded, and which round-trips byte-for-byte through the
/// library parser — on every bundled model.
#[test]
fn inspect_json_round_trips_on_every_bundled_model() {
    use smc::obs::{HeapSnapshot, Json, HEAP_SCHEMA_VERSION};
    let dir = format!("{}/models", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("models dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("smv") {
            continue;
        }
        let out = smc().arg("inspect").arg(&path).arg("--json").output().expect("runs");
        if out.status.code() == Some(2) {
            // lint_demo is deliberately broken (it exists to exercise
            // the analyzer); inspect must route its load failure
            // through the rendered diagnostics, not a panic.
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("error["), "{path:?}: {stderr}");
            continue;
        }
        assert_eq!(
            out.status.code(),
            Some(0),
            "{path:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.trim();
        let doc = Json::parse(line).unwrap_or_else(|| panic!("{path:?}: invalid JSON: {line}"));
        assert_eq!(doc.get("heap_schema").and_then(|v| v.as_u64()), Some(HEAP_SCHEMA_VERSION));
        let snap = HeapSnapshot::from_json(&doc)
            .unwrap_or_else(|| panic!("{path:?}: snapshot does not parse: {line}"));
        let level_sum: u64 = snap.levels.iter().map(|l| l.nodes).sum();
        assert_eq!(level_sum + snap.terminals, snap.live_nodes, "{path:?}: levels must sum");
        for l in &snap.levels {
            if l.nodes > 0 {
                assert!(
                    l.load > 0.0 && l.load <= 1.0,
                    "{path:?} level {} load {} out of (0,1]",
                    l.level,
                    l.load
                );
            }
        }
        assert_eq!(snap.sift.len() + 1, snap.levels.len(), "{path:?}: one gain per adjacent pair");
        assert_eq!(snap.to_json(), line, "{path:?}: snapshot does not round-trip");
        checked += 1;
    }
    assert!(checked >= 5, "expected the bundled models, saw {checked}");
}

#[test]
fn inspect_human_report_names_the_inspection_point() {
    for at in ["reach", "check"] {
        let out = smc()
            .arg("inspect")
            .arg(model("pipeline.smv"))
            .arg("--at")
            .arg(at)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "--at {at}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("inspected at    : {at}")), "--at {at}: {stdout}");
        assert!(stdout.contains("-- heap snapshot --"), "--at {at}: {stdout}");
        assert!(stdout.contains("unique tables"), "--at {at}: {stdout}");
    }
    // Loading already runs reachability, so there is no earlier point.
    let compile = smc()
        .arg("inspect")
        .arg(model("pipeline.smv"))
        .arg("--at")
        .arg("compile")
        .output()
        .expect("runs");
    assert_eq!(compile.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&compile.stderr).contains("--at expects 'reach' or 'check'"),
        "{}",
        String::from_utf8_lossy(&compile.stderr)
    );
    // --spec selects one formula and implies --at check...
    let out = smc()
        .arg("inspect")
        .arg(model("pipeline.smv"))
        .arg("--spec")
        .arg("0")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("inspected at    : check"));
    // ...and is rejected at earlier points and out of range.
    let bad = smc()
        .arg("inspect")
        .arg(model("pipeline.smv"))
        .arg("--spec")
        .arg("0")
        .arg("--at")
        .arg("reach")
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    let oob = smc()
        .arg("inspect")
        .arg(model("pipeline.smv"))
        .arg("--spec")
        .arg("99")
        .output()
        .expect("runs");
    assert_eq!(oob.status.code(), Some(2));
}

/// `--heap` appends the snapshot to `smc check` without touching the
/// verdict lines or the exit code.
#[test]
fn check_heap_appends_the_snapshot_without_changing_verdicts() {
    let plain = smc().arg("check").arg(model("counter8.smv")).output().expect("runs");
    let heap = smc().arg("check").arg("--heap").arg(model("counter8.smv")).output().expect("runs");
    assert_eq!(plain.status.code(), heap.status.code());
    let plain_out = String::from_utf8_lossy(&plain.stdout);
    let heap_out = String::from_utf8_lossy(&heap.stdout);
    assert!(!plain_out.contains("-- heap snapshot --"), "{plain_out}");
    assert!(heap_out.contains("-- heap snapshot --"), "{heap_out}");
    assert!(heap_out.starts_with(plain_out.as_ref()), "--heap must only append:\n{heap_out}");
}

// ---------------------------------------------------- debug dump

#[test]
fn debug_dump_diagnoses_truncated_headers_and_reads_stdin() {
    use std::process::Stdio;
    let dump = |input: &[u8]| {
        let mut child = smc()
            .arg("debug")
            .arg("dump")
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        child.stdin.as_mut().expect("stdin").write_all(input).expect("write");
        drop(child.stdin.take());
        child.wait_with_output().expect("runs")
    };

    // Empty input: a rendered diagnostic and the input-error exit class,
    // not a panic.
    let out = dump(b"");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("empty dump"));

    // A first line truncated mid-header: the diagnostic shows the
    // offending bytes and explains what a dump starts with.
    let out = dump(b"{\"dump_sch");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("first line is not a dump header"), "{stderr}");
    assert!(stderr.contains("{\"dump_sch"), "{stderr}");
    assert!(stderr.contains("dump_schema"), "{stderr}");

    // A well-formed header through stdin renders, including the heap
    // brief carried in the header.
    let out = dump(
        b"{\"dump_schema\":1,\"trace_id\":\"feedface00000000\",\"job\":\"m.smv\",\
          \"worker\":1,\"reason\":\"panic\",\"events\":0,\"dropped\":0,\"captured\":0,\
          \"heap\":{\"live_nodes\":120,\"free_nodes\":8,\"widest_level\":3,\
          \"widest_width\":40,\"table_len\":118,\"table_slots\":256}}\n",
    );
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace_id    : feedface00000000"), "{stdout}");
    assert!(
        stdout.contains(
            "heap        : 120 live nodes (8 free), widest level 3 (40 nodes), unique tables 118/256"
        ),
        "{stdout}"
    );
}
