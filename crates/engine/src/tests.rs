//! Engine unit tests: manifest parsing, pool correctness, per-job
//! governors, warm-start behavior (memory and disk), determinism across
//! worker counts, the fleet metrics series, and the serve protocol
//! (admission, quotas, watchdog, quarantine, drain, fault campaigns).

use smc_obs::Metrics;

use crate::{
    parse_manifest, run_batch, source_key, worst_exit, ArtifactCache, EngineConfig, Job,
    JobOutcome, JobResult, Limits, ManifestEntry,
};

/// Limits that cap fixpoint iterations at `n` and nothing else.
fn max_iters(n: u64) -> Limits {
    Limits { max_iters: Some(n), ..Limits::default() }
}

const COUNTER8: &str = include_str!("../../../models/counter8.smv");
const MUTEX: &str = include_str!("../../../models/mutex.smv");

/// A free boolean: `AF x` fails with a lasso counterexample (stay at
/// `x = 0` forever), giving the tests a deterministic failing spec.
const FREEBIT: &str = "MODULE main\nVAR x : boolean;\nSPEC AF x\n";

fn job(name: &str, source: &str) -> Job {
    Job { name: name.to_string(), source: source.to_string(), spec: None }
}

/// The comparable core of a result: everything except wall time.
fn fingerprint(r: &JobResult) -> (usize, String, JobOutcome, u64, u64) {
    (r.index, r.name.clone(), r.outcome.clone(), r.cache_lookups, r.created_nodes)
}

#[test]
fn manifest_skips_comments_and_takes_rest_of_line_formulas() {
    let text = "\
# a comment
models/a.smv

models/b.smv   AG (EF carry)
  # indented comment
models/c.smv\n";
    let manifest = parse_manifest(text).expect("valid manifest");
    assert_eq!(
        manifest.entries,
        vec![
            ManifestEntry { path: "models/a.smv".into(), formula: None },
            ManifestEntry { path: "models/b.smv".into(), formula: Some("AG (EF carry)".into()) },
            ManifestEntry { path: "models/c.smv".into(), formula: None },
        ]
    );
    assert!(manifest.warnings.is_empty());
}

#[test]
fn empty_manifest_is_an_error() {
    let err = parse_manifest("# nothing\n\n").expect_err("empty manifest");
    assert!(err.to_string().contains("no jobs"), "{err}");
    assert!(parse_manifest("").is_err());
}

#[test]
fn manifest_rejects_embedded_control_characters() {
    // `str::lines` strips a line-terminating \r, but one embedded
    // mid-line (CRLF damage, binary garbage) is a hard error with the
    // offending line number.
    let err = parse_manifest("models/a.smv\nmodels/b.smv AG\rx\n").expect_err("embedded CR");
    assert_eq!(err.line, 2);
    assert!(err.to_string().contains("U+000D"), "{err}");
    let err = parse_manifest("bad\u{0000}path.smv\n").expect_err("embedded NUL");
    assert_eq!(err.line, 1);
    assert!(err.to_string().contains("U+0000"), "{err}");
    // A *line-terminating* \r (a plain CRLF file) is not an error.
    let ok = parse_manifest("models/a.smv\r\nmodels/b.smv\r\n").expect("CRLF manifest parses");
    assert_eq!(ok.entries.len(), 2);
    assert_eq!(ok.entries[0].path, "models/a.smv");
}

#[test]
fn manifest_warns_on_duplicate_jobs_but_keeps_them() {
    let text = "models/a.smv\nmodels/b.smv\nmodels/a.smv\nmodels/a.smv AG x\n";
    let manifest = parse_manifest(text).expect("valid manifest");
    // Duplicates still run (the cache makes them cheap) ...
    assert_eq!(manifest.entries.len(), 4);
    // ... but the exact (path, formula) repeat is called out, naming
    // both lines; the same path under a different formula is not.
    assert_eq!(manifest.warnings.len(), 1);
    assert!(manifest.warnings[0].contains("line 3"), "{}", manifest.warnings[0]);
    assert!(manifest.warnings[0].contains("line 1"), "{}", manifest.warnings[0]);
}

#[test]
fn single_job_verdicts_match_the_model() {
    let results = run_batch(vec![job("counter8", COUNTER8)], &EngineConfig::default());
    assert_eq!(results.len(), 1);
    let JobOutcome::Checked { specs } = &results[0].outcome else {
        panic!("expected Checked, got {:?}", results[0].outcome);
    };
    // counter8's three SPECs all hold.
    assert_eq!(specs.iter().map(|s| s.holds).collect::<Vec<_>>(), vec![true, true, true]);
    assert_eq!(worst_exit(&results), 0);
    assert!(!results[0].cache_hit, "first sight of a source is never a hit");
    assert!(results[0].reach_iters > 0, "cold job runs the reach fixpoint");
}

#[test]
fn failing_specs_map_to_exit_class_one() {
    let results = run_batch(vec![job("freebit", FREEBIT)], &EngineConfig::default());
    let JobOutcome::Checked { specs } = &results[0].outcome else {
        panic!("expected Checked, got {:?}", results[0].outcome);
    };
    assert!(!specs[0].holds, "AF x fails on a free bit");
    assert_eq!(worst_exit(&results), 1);
}

#[test]
fn adhoc_formula_replaces_model_specs() {
    let mut j = job("counter8", COUNTER8);
    j.spec = Some("AG (EF carry)".to_string());
    let results = run_batch(vec![j], &EngineConfig::default());
    let JobOutcome::Checked { specs } = &results[0].outcome else {
        panic!("expected Checked, got {:?}", results[0].outcome);
    };
    assert_eq!(specs.len(), 1);
    assert!(specs[0].holds);
}

#[test]
fn traces_render_states_and_loopbacks() {
    let cfg = EngineConfig { want_trace: true, ..EngineConfig::default() };
    let results = run_batch(vec![job("freebit", FREEBIT)], &cfg);
    let JobOutcome::Checked { specs } = &results[0].outcome else {
        panic!("expected Checked, got {:?}", results[0].outcome);
    };
    // The failing liveness spec carries a lasso counterexample.
    let trace = specs[0].trace.as_ref().expect("counterexample for a failing spec");
    assert!(!trace.states.is_empty());
    assert!(trace.loopback.is_some(), "AF counterexample is a lasso");
    assert!(trace.states[0].contains('x'), "states render as text: {:?}", trace.states[0]);
}

#[test]
fn input_errors_are_per_job_not_fatal() {
    let jobs = vec![job("bad", "MODULE main\nVAR x : bool"), job("good", COUNTER8)];
    let results = run_batch(jobs, &EngineConfig::default());
    assert_eq!(results.len(), 2);
    assert!(matches!(results[0].outcome, JobOutcome::InputError { .. }));
    assert!(matches!(results[1].outcome, JobOutcome::Checked { .. }));
    assert_eq!(worst_exit(&results), 2);
}

#[test]
fn limits_govern_only_when_bounded_and_tighten_to_the_smaller() {
    use std::time::Duration;
    assert!(Limits::default().budget().is_none(), "an unlimited run is ungoverned");
    assert!(max_iters(5).budget().is_some());
    let cap = Limits { node_limit: Some(100), max_iters: Some(10), ..Limits::default() };
    let request = Limits {
        timeout: Some(Duration::from_millis(5)),
        node_limit: Some(1_000),
        max_iters: Some(3),
    };
    assert_eq!(
        cap.tighten(request),
        Limits {
            timeout: Some(Duration::from_millis(5)),
            node_limit: Some(100),
            max_iters: Some(3)
        }
    );
    assert_eq!(cap.tighten(Limits::default()), cap, "an empty request keeps the caps");
}

#[test]
fn a_tripped_governor_is_that_jobs_outcome_only() {
    // One iteration is never enough to reach the counter's fixpoint, so
    // the governed job trips during load-time reachability; the other
    // job (same batch, own manager, own budget) is unaffected.
    let cfg = EngineConfig { limits: max_iters(1), ..EngineConfig::default() };
    let results = run_batch(vec![job("governed", COUNTER8)], &cfg);
    let JobOutcome::Exhausted { phase, reason, .. } = &results[0].outcome else {
        panic!("expected Exhausted, got {:?}", results[0].outcome);
    };
    assert!(phase.contains("reach"), "tripped during reachability: {phase}");
    assert!(!reason.is_empty());
    assert_eq!(worst_exit(&results), 3);

    let ungoverned = run_batch(vec![job("free", COUNTER8)], &EngineConfig::default());
    assert!(matches!(ungoverned[0].outcome, JobOutcome::Checked { .. }));
}

#[test]
fn warm_start_skips_the_reach_fixpoint() {
    // Two identical jobs, one worker: the second must hit the cache and
    // run zero reachability iterations, with identical verdicts.
    let jobs = vec![job("cold", COUNTER8), job("warm", COUNTER8)];
    let results = run_batch(jobs, &EngineConfig::default());
    assert!(!results[0].cache_hit && results[0].reach_iters > 0);
    assert!(results[1].cache_hit, "second identical source hits the cache");
    assert_eq!(results[1].reach_iters, 0, "warm start runs zero reach iterations");
    assert_eq!(results[0].outcome, results[1].outcome, "verdicts are unaffected");
}

#[test]
fn cache_disabled_never_reports_hits() {
    let cfg = EngineConfig { use_cache: false, ..EngineConfig::default() };
    let results = run_batch(vec![job("a", COUNTER8), job("b", COUNTER8)], &cfg);
    assert!(results.iter().all(|r| !r.cache_hit));
    assert!(results.iter().all(|r| r.reach_iters > 0));
}

#[test]
fn results_come_back_in_job_order_for_any_worker_count() {
    let mix = vec![job("m0", MUTEX), job("c1", COUNTER8), job("m2", MUTEX), job("c3", COUNTER8)];
    for workers in [1, 2, 4, 9] {
        let cfg = EngineConfig { workers, use_cache: false, ..EngineConfig::default() };
        let results = run_batch(mix.clone(), &cfg);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(results[0].name, "m0");
        assert_eq!(results[3].name, "c3");
    }
}

#[test]
fn verdicts_and_counters_are_identical_across_worker_counts() {
    let mix = vec![
        job("mutex-a", MUTEX),
        job("counter-a", COUNTER8),
        job("freebit-a", FREEBIT),
        job("counter-b", COUNTER8),
    ];
    // Caching off: a hit legitimately changes a job's work counters, so
    // the bit-exact cross-schedule comparison runs on the uncached path.
    let cfg1 = EngineConfig { workers: 1, use_cache: false, ..EngineConfig::default() };
    let cfg4 =
        EngineConfig { workers: 4, use_cache: false, want_trace: true, ..EngineConfig::default() };
    let cfg1t =
        EngineConfig { workers: 1, use_cache: false, want_trace: true, ..EngineConfig::default() };
    let serial = run_batch(mix.clone(), &cfg1t);
    let parallel = run_batch(mix.clone(), &cfg4);
    let s: Vec<_> = serial.iter().map(fingerprint).collect();
    let p: Vec<_> = parallel.iter().map(fingerprint).collect();
    assert_eq!(s, p, "N workers must not change any verdict, trace or work counter");
    // And without traces the verdict set still matches.
    let bare = run_batch(mix, &cfg1);
    for (b, t) in bare.iter().zip(&serial) {
        assert_eq!(b.outcome.exit_class(), t.outcome.exit_class());
    }
}

#[test]
fn fleet_metrics_land_in_the_shared_registry() {
    let metrics = Metrics::new();
    let cfg = EngineConfig { workers: 2, metrics: metrics.clone(), ..EngineConfig::default() };
    let jobs = vec![job("a", COUNTER8), job("b", COUNTER8), job("f", FREEBIT)];
    let results = run_batch(jobs, &cfg);
    assert_eq!(results.len(), 3);
    let pass = metrics.counter("smc_batch_jobs_total", &[("outcome", "pass")]);
    let fail = metrics.counter("smc_batch_jobs_total", &[("outcome", "fail")]);
    assert_eq!(pass + fail, 3, "every job is tallied");
    assert_eq!(fail, 1, "the free bit's AF fails");
    let (wall_count, wall_sum) =
        metrics.histogram("smc_batch_job_wall_us", &[]).expect("wall histogram");
    assert_eq!(wall_count, 3);
    assert!(wall_sum > 0);
    let hits = metrics.counter("smc_batch_cache_hits_total", &[]);
    let misses = metrics.counter("smc_batch_cache_misses_total", &[]);
    // Every job is a lookup; whether the duplicate counter8 job hits
    // depends on the schedule (its twin may still be compiling), so
    // only the total and the guaranteed first-sight misses are pinned.
    assert_eq!(hits + misses, 3);
    assert!(misses >= 2, "two distinct sources always miss at first sight");
    assert_eq!(metrics.gauge("smc_batch_queue_depth", &[]), Some(0.0), "queue drained");
    assert_eq!(metrics.gauge("smc_batch_jobs_in_flight", &[]), Some(0.0), "no stragglers");
}

#[test]
fn no_specs_is_a_clean_pass() {
    let src = "MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := !x;\n";
    let results = run_batch(vec![job("quiet", src)], &EngineConfig::default());
    assert!(matches!(results[0].outcome, JobOutcome::NoSpecs));
    assert_eq!(worst_exit(&results), 0);
}

#[test]
fn source_keys_are_content_hashes() {
    assert_eq!(source_key(COUNTER8), source_key(COUNTER8));
    assert_ne!(source_key(COUNTER8), source_key(MUTEX));
    // FNV-1a of the empty string is the offset basis — a stable anchor
    // for the on-disk artifact identity.
    assert_eq!(source_key(""), 0xcbf2_9ce4_8422_2325);
}

#[test]
fn empty_batch_returns_no_results() {
    assert!(run_batch(Vec::new(), &EngineConfig::default()).is_empty());
}

// ---------------------------------------------------------------------------
// Persistent cache: crash-safe writes, verified loads, LRU cap.

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("smc-engine-test-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn files_with_ext(&self, ext: &str) -> Vec<std::path::PathBuf> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.0).expect("read temp dir") {
            let p = entry.expect("dir entry").path();
            if p.extension().and_then(|e| e.to_str()) == Some(ext) {
                found.push(p);
            }
        }
        found
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn disk_cfg(dir: &std::path::Path, cap: usize, metrics: Metrics) -> EngineConfig {
    EngineConfig {
        cache_dir: Some(dir.to_path_buf()),
        cache_cap: cap,
        metrics,
        ..EngineConfig::default()
    }
}

#[test]
fn disk_cache_warm_starts_a_restarted_process() {
    let dir = TempDir::new("restart");
    // "Process" 1: cold compile, artifact persisted.
    let cold =
        run_batch(vec![job("counter8", COUNTER8)], &disk_cfg(dir.path(), 8, Metrics::disabled()));
    assert!(!cold[0].cache_hit);
    assert!(cold[0].reach_iters > 0);
    assert_eq!(dir.files_with_ext("smcart").len(), 1, "artifact persisted");
    assert!(dir.files_with_ext("tmp").is_empty(), "no temp files survive a clean write");
    // "Process" 2: a fresh config (fresh in-memory cache) over the same
    // directory warm-starts — zero reach iterations, identical verdict.
    let warm =
        run_batch(vec![job("counter8", COUNTER8)], &disk_cfg(dir.path(), 8, Metrics::disabled()));
    assert!(warm[0].cache_hit, "restart hits the persisted artifact");
    assert_eq!(warm[0].reach_iters, 0, "warm start skips the reach fixpoint");
    assert_eq!(cold[0].outcome, warm[0].outcome, "verdicts are unaffected");
}

/// Publishes counter8's artifact in `dir`; returns its path and bytes.
fn counter8_artifact(dir: &TempDir) -> (std::path::PathBuf, Vec<u8>) {
    run_batch(vec![job("counter8", COUNTER8)], &disk_cfg(dir.path(), 8, Metrics::disabled()));
    let files = dir.files_with_ext("smcart");
    assert_eq!(files.len(), 1);
    let bytes = std::fs::read(&files[0]).expect("read artifact");
    (files[0].clone(), bytes)
}

/// Puts `bytes` under counter8's artifact name and asserts that a fresh
/// cache over the directory misses, deletes the file and counts it as
/// corrupt once.
fn assert_rejected(dir: &TempDir, path: &std::path::Path, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).expect("write artifact");
    let metrics = Metrics::new();
    let cache = ArtifactCache::with_dir(dir.path(), 8, metrics.clone()).expect("open cache dir");
    assert!(cache.get(source_key(COUNTER8)).is_none(), "{what} must be a miss");
    assert!(!path.exists(), "{what} must be deleted, not retried forever");
    assert_eq!(metrics.counter("smc_batch_cache_corrupt_total", &[]), 1, "{what}");
}

#[test]
fn truncated_artifact_is_a_miss_and_is_deleted() {
    let dir = TempDir::new("corrupt");
    // A crash mid-write-without-rename or disk corruption: every proper
    // prefix of the artifact, the empty file included.
    let (path, bytes) = counter8_artifact(&dir);
    for len in 0..bytes.len() {
        assert_rejected(&dir, &path, &bytes[..len], &format!("a {len}-byte truncation"));
    }

    // And through the engine: the job recovers by recompiling cold, then
    // re-publishes a good artifact.
    run_batch(vec![job("counter8", COUNTER8)], &disk_cfg(dir.path(), 8, Metrics::disabled()));
    let again =
        run_batch(vec![job("counter8", COUNTER8)], &disk_cfg(dir.path(), 8, Metrics::disabled()));
    assert!(again[0].cache_hit, "republished artifact warm-starts again");
}

#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let dir = TempDir::new("bitflip");
    // Every byte, header and source alike, with its low bit and with all
    // of its bits flipped.
    let (path, bytes) = counter8_artifact(&dir);
    for at in 0..bytes.len() {
        for mask in [0x01, 0xFF] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            assert_rejected(&dir, &path, &flipped, &format!("byte {at} xor {mask:#04x}"));
        }
    }
}

#[test]
fn a_version_1_artifact_is_a_miss_and_is_deleted() {
    let dir = TempDir::new("v1");
    let (path, _) = counter8_artifact(&dir);
    // The previous format: the source followed by the serialized
    // reachable set, with both lengths and a checksum over both.
    let reach = b"reachable-set bytes\n";
    let key = source_key(COUNTER8);
    let checksum = crate::cache::fnv_update(key, reach);
    let mut v1 =
        format!("smcart 1 {key:016x} {} {} {checksum:016x}\n", COUNTER8.len(), reach.len())
            .into_bytes();
    v1.extend_from_slice(COUNTER8.as_bytes());
    v1.extend_from_slice(reach);
    assert_rejected(&dir, &path, &v1, "a version-1 artifact");
}

#[test]
fn lru_cap_bounds_memory_and_disk() {
    let dir = TempDir::new("lru");
    let metrics = Metrics::new();
    let jobs = vec![job("a", COUNTER8), job("b", MUTEX), job("c", FREEBIT)];
    let results = run_batch(jobs, &disk_cfg(dir.path(), 2, metrics.clone()));
    assert_eq!(results.len(), 3);
    // Three distinct sources through a cap of two: something was evicted,
    // and the directory is bounded by the cap.
    assert!(metrics.counter("smc_batch_cache_evictions_total", &[]) >= 1);
    assert!(dir.files_with_ext("smcart").len() <= 2, "disk obeys the LRU cap");
}

// ---------------------------------------------------------------------------
// The serve protocol: parsing, admission, quotas, watchdog, quarantine,
// drain, and fault campaigns — all in-process through `serve` itself.

use std::sync::{Arc, Mutex};

use smc_obs::Json;

use crate::{parse_request, serve, CheckRequest, Request, Responder, ServerConfig};

#[test]
fn request_lines_parse_and_misparse() {
    let req = parse_request(r#"{"op":"check","source":"MODULE main","id":"r1","trace":true,"timeout_ms":50,"node_limit":1000,"max_iters":9}"#)
        .expect("valid check");
    let Request::Check(req) = req else { panic!("expected Check, got {req:?}") };
    assert_eq!(
        *req,
        CheckRequest {
            id: Some("r1".into()),
            source: Some("MODULE main".into()),
            path: None,
            spec: None,
            trace: true,
            timeout_ms: Some(50),
            node_limit: Some(1000),
            max_iters: Some(9),
            hold_ms: None,
            trace_id: None,
        }
    );
    // "check" is the default op.
    assert!(matches!(parse_request(r#"{"path":"m.smv"}"#), Ok(Request::Check(_))));
    assert!(matches!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics)));
    assert!(matches!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown)));

    assert!(parse_request("not json").is_err());
    assert!(parse_request("42").is_err(), "a JSON scalar is not a request");
    let err = |line: &str| parse_request(line).expect_err("line must misparse");
    assert!(err(r#"{"op":"evaporate"}"#).contains("unknown op"));
    assert!(err(r#"{"op":"check"}"#).contains("source"));
    assert!(err(r#"{"op":"check","source":"x","path":"y"}"#).contains("mutually exclusive"));
    assert!(err(r#"{"op":"check","source":"x","trace":1}"#).contains("boolean"));
}

/// Runs one in-process serve session over the given request lines,
/// returning the exit class and every response line in write order.
fn serve_lines(lines: &[String], cfg: &ServerConfig) -> (u8, Vec<String>) {
    let input = std::io::Cursor::new(lines.join("\n"));
    let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let out: Responder = sink.clone();
    let code = serve(input, out, cfg);
    let bytes = sink.lock().expect("sink lock").clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    (code, text.lines().map(str::to_string).collect())
}

/// A paced input: line N+1 is not delivered until N responses have been
/// written, serializing request handling for tests whose assertions
/// depend on one request's outcome being recorded before the next is
/// admitted (quarantine).
struct Paced {
    lines: Vec<Vec<u8>>,
    next: usize,
    sink: Arc<Mutex<Vec<u8>>>,
}

impl std::io::Read for Paced {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.next >= self.lines.len() {
            return Ok(0);
        }
        while self.sink.lock().expect("sink lock").iter().filter(|&&b| b == b'\n').count()
            < self.next
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let line = &self.lines[self.next];
        assert!(line.len() <= buf.len(), "test request lines fit one read");
        buf[..line.len()].copy_from_slice(line);
        self.next += 1;
        Ok(line.len())
    }
}

fn serve_paced(lines: &[String], cfg: &ServerConfig) -> (u8, Vec<String>) {
    let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let paced = Paced {
        lines: lines.iter().map(|l| format!("{l}\n").into_bytes()).collect(),
        next: 0,
        sink: sink.clone(),
    };
    let out: Responder = sink.clone();
    let code = serve(std::io::BufReader::new(paced), out, cfg);
    let bytes = sink.lock().expect("sink lock").clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    (code, text.lines().map(str::to_string).collect())
}

fn check_line(source: &str, extra: &str) -> String {
    format!(r#"{{"op":"check","source":"{}"{extra}}}"#, crate::json_escape(source))
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|| panic!("response is not JSON: {line}"))
}

fn str_field<'j>(j: &'j Json, key: &str) -> &'j str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key}: {j:?}"))
}

#[test]
fn serve_answers_checks_and_drains_on_eof() {
    let cfg = ServerConfig::default();
    let (code, lines) = serve_lines(
        &[
            check_line(COUNTER8, r#","id":"pass-1""#),
            check_line(FREEBIT, r#","id":"fail-2","trace":true"#),
        ],
        &cfg,
    );
    assert_eq!(lines.len(), 3, "two responses + drained: {lines:?}");
    let a = parsed(&lines[0]);
    assert_eq!(a.get("schema").and_then(Json::as_u64), Some(1));
    assert_eq!(a.get("seq").and_then(Json::as_u64), Some(0));
    assert_eq!(str_field(&a, "id"), "pass-1");
    assert_eq!(str_field(&a, "outcome"), "pass");
    assert_eq!(a.get("exit_class").and_then(Json::as_u64), Some(0));
    assert_eq!(a.get("cache_hit").and_then(Json::as_bool), Some(false));
    let b = parsed(&lines[1]);
    assert_eq!(b.get("seq").and_then(Json::as_u64), Some(1));
    assert_eq!(str_field(&b, "outcome"), "fail");
    // Per-request trace: the failing AF carries a lasso counterexample.
    assert!(lines[1].contains("\"trace\":{\"loopback\":"), "{}", lines[1]);
    let d = parsed(&lines[2]);
    assert_eq!(str_field(&d, "op"), "drained");
    assert_eq!(d.get("served").and_then(Json::as_u64), Some(2));
    assert_eq!(d.get("rejected").and_then(Json::as_u64), Some(0));
    assert_eq!(code, 1, "worst executed outcome: the failing spec");
}

#[test]
fn serve_reports_input_errors_in_band() {
    let cfg = ServerConfig::default();
    let (code, lines) = serve_lines(
        &[
            check_line("MODULE main\nVAR x : bool", r#","id":"broken""#),
            r#"{"op":"check","path":"/nonexistent/no-such-model.smv","id":"gone"}"#.to_string(),
            "this is not json".to_string(),
        ],
        &cfg,
    );
    assert_eq!(lines.len(), 4);
    // The unreadable path and the bad line answer from the reader
    // thread while the broken model runs on a worker, so the three
    // responses may interleave — find each by id (or by reason).
    let by = |pred: &dyn Fn(&Json) -> bool| {
        lines
            .iter()
            .map(|l| parsed(l))
            .find(|j| pred(j))
            .unwrap_or_else(|| panic!("no matching response: {lines:?}"))
    };
    let broken = by(&|j| j.get("id").and_then(Json::as_str) == Some("broken"));
    assert_eq!(str_field(&broken, "outcome"), "input_error");
    assert_eq!(broken.get("exit_class").and_then(Json::as_u64), Some(2));
    let gone = by(&|j| j.get("id").and_then(Json::as_str) == Some("gone"));
    assert_eq!(str_field(&gone, "outcome"), "input_error");
    assert!(str_field(&gone, "error").contains("cannot read"));
    let bad = by(&|j| j.get("reason").is_some());
    assert_eq!(str_field(&bad, "outcome"), "rejected");
    assert_eq!(str_field(&bad, "reason"), "bad_request");
    let drained = parsed(&lines[3]);
    // The unreadable path and the broken model executed (served); the
    // unparseable line was rejected.
    assert_eq!(drained.get("served").and_then(Json::as_u64), Some(2));
    assert_eq!(drained.get("rejected").and_then(Json::as_u64), Some(1));
    assert_eq!(code, 2, "input errors are exit class 2; rejections don't fold in");
}

#[test]
fn serve_metrics_and_shutdown_ops_answer_inline() {
    let metrics = Metrics::new();
    let cfg = ServerConfig {
        engine: EngineConfig { metrics: metrics.clone(), ..EngineConfig::default() },
        ..ServerConfig::default()
    };
    let (code, lines) = serve_paced(
        &[
            check_line(COUNTER8, ""),
            r#"{"op":"metrics"}"#.to_string(),
            r#"{"op":"shutdown"}"#.to_string(),
            // After shutdown the reader stops; this line is never read.
            check_line(COUNTER8, r#","id":"late""#),
        ],
        &cfg,
    );
    assert_eq!(code, 0);
    assert_eq!(lines.len(), 4, "check + metrics + shutdown ack + drained: {lines:?}");
    let m = parsed(&lines[1]);
    assert_eq!(str_field(&m, "op"), "metrics");
    assert!(m.get("metrics").is_some(), "embedded registry exposition");
    assert!(lines[1].contains("smc_serve_requests_total"), "{}", lines[1]);
    let s = parsed(&lines[2]);
    assert_eq!(str_field(&s, "op"), "shutdown");
    assert_eq!(s.get("draining").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(&parsed(&lines[3]), "op"), "drained");
    assert_eq!(metrics.counter("smc_serve_admitted_total", &[]), 1);
    assert_eq!(metrics.counter("smc_serve_drains_total", &[]), 1);
}

#[test]
fn overload_is_rejected_with_a_retry_hint() {
    let metrics = Metrics::new();
    let cfg = ServerConfig {
        engine: EngineConfig { metrics: metrics.clone(), ..EngineConfig::default() },
        max_queue: 0, // capacity = workers = 1
        retry_after_ms: 111,
        ..ServerConfig::default()
    };
    let (code, lines) = serve_lines(
        &[
            // Holds its worker long enough for the second line to be read.
            check_line(COUNTER8, r#","id":"slow","hold_ms":400"#),
            check_line(COUNTER8, r#","id":"shed""#),
        ],
        &cfg,
    );
    // The rejection is written immediately (while "slow" still holds the
    // worker), so it is the first line out.
    let shed = parsed(&lines[0]);
    assert_eq!(str_field(&shed, "id"), "shed");
    assert_eq!(str_field(&shed, "outcome"), "rejected");
    assert_eq!(str_field(&shed, "reason"), "overload");
    assert_eq!(shed.get("retry_after_ms").and_then(Json::as_u64), Some(111));
    let slow = parsed(&lines[1]);
    assert_eq!(str_field(&slow, "outcome"), "pass");
    assert_eq!(code, 0, "load shedding is not a failure");
    assert_eq!(metrics.counter("smc_serve_rejected_total", &[("reason", "overload")]), 1);
}

#[test]
fn per_request_quotas_tighten_against_server_caps() {
    // Server allows plenty of iterations; the request asks for one —
    // the request's tighter quota wins and the job exhausts.
    let cfg = ServerConfig {
        engine: EngineConfig { limits: max_iters(1_000_000), ..EngineConfig::default() },
        ..ServerConfig::default()
    };
    let (code, lines) = serve_lines(&[check_line(COUNTER8, r#","max_iters":1"#)], &cfg);
    let r = parsed(&lines[0]);
    assert_eq!(str_field(&r, "outcome"), "exhausted");
    assert_eq!(code, 3);

    // And the other direction: the server cap stays in force however
    // much the request asks for.
    let tight = ServerConfig {
        engine: EngineConfig { limits: max_iters(1), ..EngineConfig::default() },
        quarantine_after: 0,
        ..ServerConfig::default()
    };
    let (code, lines) = serve_lines(&[check_line(COUNTER8, r#","max_iters":1000000"#)], &tight);
    assert_eq!(str_field(&parsed(&lines[0]), "outcome"), "exhausted");
    assert_eq!(code, 3);
}

#[test]
fn watchdog_cancels_a_hung_request() {
    let metrics = Metrics::new();
    let cfg = ServerConfig {
        engine: EngineConfig { metrics: metrics.clone(), ..EngineConfig::default() },
        watchdog: Some(std::time::Duration::from_millis(30)),
        ..ServerConfig::default()
    };
    // The hold pins the request in its slot well past the watchdog
    // limit; the cancelled token trips the governor at the first poll.
    let (code, lines) = serve_lines(&[check_line(COUNTER8, r#","id":"hung","hold_ms":300"#)], &cfg);
    let r = parsed(&lines[0]);
    assert_eq!(str_field(&r, "outcome"), "exhausted", "{lines:?}");
    assert!(str_field(&r, "reason").contains("cancel"), "{lines:?}");
    assert_eq!(code, 3);
    assert!(metrics.counter("smc_serve_watchdog_trips_total", &[]) >= 1);
}

#[test]
fn poisonous_sources_are_quarantined_with_their_diagnostic() {
    let metrics = Metrics::new();
    let cfg = ServerConfig {
        engine: EngineConfig {
            limits: max_iters(1), // every run of this source trips
            metrics: metrics.clone(),
            ..EngineConfig::default()
        },
        quarantine_after: 2,
        ..ServerConfig::default()
    };
    let poison = check_line(COUNTER8, "");
    // Paced: each strike is recorded before the next line is admitted.
    let (code, lines) =
        serve_paced(&[poison.clone(), poison.clone(), poison.clone(), poison], &cfg);
    assert_eq!(str_field(&parsed(&lines[0]), "outcome"), "exhausted");
    assert_eq!(str_field(&parsed(&lines[1]), "outcome"), "exhausted");
    for line in &lines[2..4] {
        let r = parsed(line);
        assert_eq!(str_field(&r, "outcome"), "rejected", "{line}");
        assert_eq!(str_field(&r, "reason"), "quarantined");
        assert!(
            str_field(&r, "error").contains("resource budget exhausted"),
            "cached diagnostic: {line}"
        );
    }
    assert_eq!(code, 3, "the strikes themselves executed");
    assert_eq!(metrics.counter("smc_serve_quarantine_hits_total", &[]), 2);

    // A recovered source clears its strikes: same source, no governor.
    let clean = ServerConfig {
        engine: EngineConfig { metrics: Metrics::disabled(), ..EngineConfig::default() },
        quarantine_after: 2,
        ..ServerConfig::default()
    };
    let ok = check_line(COUNTER8, "");
    let (code, lines) = serve_paced(&[ok.clone(), ok.clone(), ok], &clean);
    assert_eq!(code, 0);
    for line in &lines[..3] {
        assert_eq!(str_field(&parsed(line), "outcome"), "pass");
    }
}

#[test]
fn drain_timeout_flushes_the_queue_and_cancels_in_flight() {
    let cfg = ServerConfig {
        max_queue: 8,
        drain_timeout: Some(std::time::Duration::from_millis(40)),
        ..ServerConfig::default()
    };
    let (code, lines) = serve_lines(
        &[
            check_line(COUNTER8, r#","id":"inflight","hold_ms":400"#),
            check_line(COUNTER8, r#","id":"queued""#),
        ],
        &cfg,
    );
    // EOF starts the drain immediately; 40ms later the queued request is
    // flushed with a draining rejection and the in-flight one cancelled.
    assert_eq!(lines.len(), 3, "{lines:?}");
    let by_id = |id: &str| {
        lines
            .iter()
            .find(|l| parsed(l).get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}: {lines:?}"))
            .clone()
    };
    let queued = parsed(&by_id("queued"));
    assert_eq!(str_field(&queued, "outcome"), "rejected");
    assert_eq!(str_field(&queued, "reason"), "draining");
    let inflight = parsed(&by_id("inflight"));
    assert_eq!(str_field(&inflight, "outcome"), "exhausted");
    assert!(str_field(&inflight, "reason").contains("cancel"));
    assert_eq!(code, 3);
}

#[test]
fn job_json_escapes_a_carriage_return_as_backslash_r() {
    let batch = run_batch(vec![job("a\rb", COUNTER8)], &EngineConfig::default());
    let fields = crate::job_json_fields(&batch[0]);
    assert!(fields.starts_with(r#""name":"a\rb","#), "{fields}");
}

#[test]
fn serve_verdicts_match_the_batch_engine_bit_for_bit() {
    let cfg = ServerConfig::default();
    let (_, lines) = serve_lines(&[check_line(FREEBIT, r#","trace":true"#)], &cfg);
    let served = parsed(&lines[0]);

    let batch_cfg = EngineConfig { want_trace: true, ..EngineConfig::default() };
    let batch = run_batch(vec![job("x", FREEBIT)], &batch_cfg);
    let expected = crate::job_json_fields(&batch[0]);
    // The per-spec verdicts and rendered traces are byte-identical; only
    // name/wall/counters legitimately differ between the two runs.
    let specs_of = |s: &str| {
        let at = s.find("\"specs\":").unwrap_or_else(|| panic!("no specs in {s}"));
        s[at..].to_string()
    };
    assert_eq!(
        specs_of(&lines[0]),
        specs_of(&format!("{{{expected}}}")).trim_end_matches('}').to_string() + "}"
    );
    assert_eq!(str_field(&served, "outcome"), "fail");
}

#[test]
fn fault_campaign_never_kills_the_server_and_recovery_is_identical() {
    // The clean reference verdict.
    let clean = run_batch(vec![job("ref", COUNTER8)], &EngineConfig::default());
    let JobOutcome::Checked { specs: want } = &clean[0].outcome else {
        panic!("reference run must check out");
    };

    for (round, plan) in smc_bdd::FaultPlan::campaign(0xC0FFEE, 6, 64).into_iter().enumerate() {
        let cfg = ServerConfig {
            engine: EngineConfig {
                use_cache: false, // every round compiles under its faults
                fault_plan: Some(plan),
                ..EngineConfig::default()
            },
            quarantine_after: 0,
            ..ServerConfig::default()
        };
        let (_, lines) = serve_lines(&[check_line(COUNTER8, "")], &cfg);
        // Whatever the fault did, the server answered and drained — it
        // never died and never went silent.
        assert_eq!(lines.len(), 2, "round {round}: {lines:?}");
        let r = parsed(&lines[0]);
        let outcome = str_field(&r, "outcome");
        assert!(
            outcome == "pass" || outcome == "exhausted",
            "round {round}: injected faults are pass or exhausted, got {outcome}"
        );
        assert_eq!(str_field(&parsed(&lines[1]), "op"), "drained");
        // A wiped computed table must never change a verdict.
        if outcome == "pass" {
            let JobOutcome::Checked { .. } = &clean[0].outcome else { unreachable!() };
            assert!(lines[0].contains("\"holds\":true"), "round {round}: {r:?}");
        }
    }

    // Recovery: a clean server after the whole campaign returns the
    // reference verdicts exactly.
    let (code, lines) = serve_lines(&[check_line(COUNTER8, "")], &ServerConfig::default());
    assert_eq!(code, 0);
    let healthy = parsed(&lines[0]);
    assert_eq!(str_field(&healthy, "outcome"), "pass");
    assert!(want.iter().all(|s| s.holds));
}

#[test]
fn metrics_endpoint_serves_the_prometheus_exposition() {
    let metrics = Metrics::new();
    metrics.counter_add("smc_serve_requests_total", &[("outcome", "pass")], 7);
    let addr = match crate::spawn_metrics_endpoint("127.0.0.1:0", metrics, None) {
        Ok(addr) => addr,
        // Sandboxed environments without loopback sockets skip, not fail.
        Err(e) => {
            eprintln!("skipping metrics endpoint test: cannot bind loopback: {e}");
            return;
        }
    };
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    std::io::Write::write_all(&mut stream, b"GET /metrics HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    std::io::Read::read_to_string(&mut stream, &mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    assert!(response.contains("smc_serve_requests_total"), "{response}");
    assert!(response.contains("# HELP smc_serve_requests_total"), "{response}");
}

// ---------------------------------------------------------------------------
// Trace context, the flight recorder's black box, and the status board.

use crate::{derive_trace_id, StatusBoard};

#[test]
fn derived_trace_ids_are_stable_and_slot_sensitive() {
    let key = source_key(COUNTER8);
    let id = derive_trace_id(key, 0);
    assert_eq!(id, derive_trace_id(key, 0), "pure function of (source, slot)");
    assert_eq!(id.len(), 16);
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
    assert_ne!(id, derive_trace_id(key, 1), "slot is part of the derivation");
    assert_ne!(id, derive_trace_id(source_key(MUTEX), 0), "so is the source");

    // The batch engine stamps exactly this derivation into its results,
    // so two runs of one manifest agree id-for-id.
    let jobs = vec![job("a", COUNTER8), job("b", MUTEX), job("a2", COUNTER8)];
    let results = run_batch(jobs, &EngineConfig::default());
    for r in &results {
        assert_eq!(r.trace_id, derive_trace_id(source_key(&COUNTER8_OR(&r.name)), r.index as u64));
    }
}

/// Maps the test job names of `derived_trace_ids_are_stable_and_slot_sensitive`
/// back to their sources.
#[allow(non_snake_case)]
fn COUNTER8_OR(name: &str) -> String {
    if name == "b" {
        MUTEX.to_string()
    } else {
        COUNTER8.to_string()
    }
}

#[test]
fn hostile_client_trace_ids_fall_back_to_derived() {
    let cfg = ServerConfig::default();
    let (_, lines) = serve_lines(
        &[
            check_line(COUNTER8, r#","id":"evil","trace_id":"../../etc/passwd""#),
            check_line(COUNTER8, r#","id":"good","trace_id":"req-7F.alpha_9""#),
        ],
        &cfg,
    );
    let by_id = |id: &str| {
        lines
            .iter()
            .map(|l| parsed(l))
            .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}: {lines:?}"))
    };
    let evil = by_id("evil");
    let evil_id = str_field(&evil, "trace_id");
    assert!(!evil_id.contains('/') && !evil_id.contains(".."), "{evil_id}");
    assert_eq!(evil_id.len(), 16, "fell back to the derived id: {evil_id}");
    // A well-formed client id (alnum plus -_.) is echoed verbatim.
    assert_eq!(str_field(&by_id("good"), "trace_id"), "req-7F.alpha_9");
}

#[test]
fn governor_trips_dump_the_flight_recorder_ring() {
    let dir = TempDir::new("dumps");
    let metrics = Metrics::new();
    let cfg = ServerConfig {
        engine: EngineConfig { metrics: metrics.clone(), ..EngineConfig::default() },
        dump_dir: Some(dir.path().to_path_buf()),
        ..ServerConfig::default()
    };
    let (code, lines) = serve_lines(
        &[check_line(COUNTER8, r#","id":"tight","max_iters":1,"trace_id":"blackbox-drill""#)],
        &cfg,
    );
    assert_eq!(code, 3);
    let tight = parsed(&lines[0]);
    assert_eq!(str_field(&tight, "outcome"), "exhausted");
    let dump_path = str_field(&tight, "dump");
    assert!(dump_path.ends_with("blackbox-drill.dump.jsonl"), "{dump_path}");
    let text = std::fs::read_to_string(dump_path).expect("dump file");
    let mut lines = text.lines();
    let header = parsed(lines.next().expect("header"));
    assert_eq!(header.get("dump_schema").and_then(Json::as_u64), Some(1));
    assert_eq!(str_field(&header, "trace_id"), "blackbox-drill");
    assert!(str_field(&header, "reason").starts_with("exhausted during"), "{header:?}");
    let events = header.get("events").and_then(Json::as_u64).expect("events count");
    assert!(events > 0, "the ring captured the trip's telemetry");
    // Every body line is a schema-v1 event carrying the trace context.
    let mut body = 0;
    for line in lines {
        let (ctx, _) = smc_obs::Event::from_json_line(line)
            .unwrap_or_else(|| panic!("unparseable dump line: {line}"));
        let tag = ctx.trace.expect("dumped events carry the trace tag");
        assert_eq!(&*tag.trace_id, "blackbox-drill");
        body += 1;
    }
    assert_eq!(body, events, "header count matches the body");
    assert_eq!(metrics.counter("smc_recorder_dumps_total", &[]), 1);
    assert!(metrics.counter("smc_recorder_events_total", &[]) > 0);
}

#[test]
fn dump_directory_is_pruned_to_the_cap() {
    let dir = TempDir::new("dumpcap");
    let cfg = ServerConfig {
        dump_dir: Some(dir.path().to_path_buf()),
        dump_cap: 2,
        ..ServerConfig::default()
    };
    let requests: Vec<String> = (0..4)
        .map(|i| check_line(COUNTER8, &format!(r#","trace_id":"drill-{i}","max_iters":1"#)))
        .collect();
    let (_, lines) = serve_lines(&requests, &cfg);
    assert_eq!(lines.len(), 5, "{lines:?}");
    let kept = dir.files_with_ext("jsonl");
    assert!(kept.len() <= 2, "cap holds: {kept:?}");
}

#[test]
fn status_board_mirrors_the_session_and_survives_drain() {
    let board = StatusBoard::new();
    let cfg = ServerConfig {
        quarantine_after: 2,
        status: Some(board.clone()),
        ..ServerConfig::default()
    };
    let (_, lines) = serve_lines(
        &[
            r#"{"op":"status"}"#.to_string(),
            check_line(COUNTER8, r#","id":"a""#),
            check_line(COUNTER8, r#","id":"tight","max_iters":1"#),
        ],
        &cfg,
    );
    // The in-band snapshot and the board the HTTP endpoint would serve
    // render through the same code path.
    let in_band = lines.iter().find(|l| l.contains(r#""op":"status""#)).expect("status response");
    assert!(in_band.contains(r#""status":{"status_schema":1,"#), "{in_band}");
    let after = board.render();
    let j = parsed(&after);
    assert_eq!(j.get("status_schema").and_then(Json::as_u64), Some(1));
    assert_eq!(j.get("served").and_then(Json::as_u64), Some(2), "{after}");
    assert_eq!(j.get("in_flight").and_then(Json::as_u64), Some(0), "{after}");
    assert!(after.contains(r#""draining":true"#), "EOF drain is visible: {after}");
    // The exhausted source sits in the strike table with one strike.
    assert!(after.contains(r#""strikes":1"#), "{after}");
    assert!(after.contains("resource budget exhausted"), "{after}");
}
