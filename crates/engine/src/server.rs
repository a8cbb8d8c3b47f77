//! `smc serve` — the long-running checking service.
//!
//! A persistent queue fed by line-delimited JSON requests (stdin or a
//! TCP listener), dispatching into the same per-job machinery as
//! [`run_batch`](crate::run_batch) and streaming one NDJSON response
//! per request. The robustness envelope is the feature set:
//!
//! - **Admission control.** Outstanding work (queued + in flight) is
//!   bounded by `max_queue + workers`; requests beyond that are
//!   answered immediately with `{"outcome":"rejected","reason":
//!   "overload","retry_after_ms":…}` instead of buffering without
//!   bound.
//! - **Per-request quotas.** A request may carry `timeout_ms`,
//!   `node_limit` and `max_iters`; each is *tightened* against the
//!   server-wide cap ([`Limits::tighten`]) and layered on a per-request
//!   [`CancelToken`](smc_bdd::CancelToken).
//! - **Watchdog.** A server-wide watchdog scans the worker slots and
//!   cancels any job running past the configured limit; the governor
//!   turns the cancellation into that request's
//!   [`Exhausted`](crate::JobOutcome::Exhausted) response — a hung
//!   request costs one structured response, not a stuck worker.
//! - **Poison quarantine.** A source (by content hash) whose jobs trip
//!   the governor or panic [`ServerConfig::quarantine_after`] times in
//!   a row is refused at admission with its cached diagnostic; a
//!   successful run clears the strikes.
//! - **Graceful drain.** On stdin EOF, `{"op":"shutdown"}`, or listener
//!   close, the server stops admitting (late requests get
//!   `reason:"draining"`), finishes queued and in-flight work (or
//!   cancels it once [`ServerConfig::drain_timeout`] expires), emits a
//!   final `{"op":"drained",…}` summary line, and returns the worst-of
//!   exit class over everything it executed.
//! - **Crash-only workers.** Job bodies run under `catch_unwind`; a
//!   panic becomes a structured `"outcome":"panic"` response (exit
//!   class 2) and a quarantine strike, never a dead worker thread.
//!
//! Rejections are flow control, not verdicts: they do not fold into the
//! exit code (a server that sheds load correctly has not failed).
//! Responses to *executed* requests carry the exact per-job JSON shape
//! of `smc batch --json` ([`job_json_fields`]), so batch and service
//! clients share one parser.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use smc_bdd::CancelToken;
use smc_obs::{DumpMeta, Json, Metrics, Recorder, DEFAULT_RECORDER_CAP, STATUS_SCHEMA_VERSION};

use crate::cache::{source_key, ArtifactCache};
use crate::job::{derive_trace_id, run_job_with, EngineConfig, Job, JobOutcome, Limits, TraceCtx};
use crate::pool::{lock, spawn_worker};
use crate::wire::{job_json_fields, json_escape};

/// Schema version stamped into every serve response line.
pub const SERVE_SCHEMA: u64 = 1;

/// Maximum black-box dump files kept under the dump directory; older
/// dumps are pruned when a new one would exceed this.
pub const DEFAULT_DUMP_CAP: usize = 32;

/// Where responses go: shared, line-buffered, lock-per-line so worker
/// threads interleave whole lines, never bytes.
pub type Responder = Arc<Mutex<dyn Write + Send>>;

/// Configuration of a serve session.
#[derive(Debug)]
pub struct ServerConfig {
    /// The pool/job configuration (workers, server-wide budget caps,
    /// cache, metrics).
    pub engine: EngineConfig,
    /// Requests allowed to wait beyond the in-flight workers; total
    /// admitted-but-unfinished work is bounded by `max_queue + workers`.
    pub max_queue: usize,
    /// Consecutive governor trips (or panics) by one source before it
    /// is quarantined; `0` disables quarantine.
    pub quarantine_after: u32,
    /// Wall-clock limit after which the watchdog cancels an in-flight
    /// job; `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// How long a drain waits for in-flight/queued work before
    /// cancelling it; `None` waits indefinitely.
    pub drain_timeout: Option<Duration>,
    /// Backoff hint stamped into overload/draining rejections.
    pub retry_after_ms: u64,
    /// Directory black-box dumps are written to on a strike (governor
    /// trip, watchdog cancellation, panic); `None` disables dumping.
    pub dump_dir: Option<std::path::PathBuf>,
    /// Maximum dump files kept; oldest are pruned past this.
    pub dump_cap: usize,
    /// Live-introspection surface shared with the HTTP `/status`
    /// endpoint ([`spawn_metrics_endpoint`]); created internally when
    /// the caller does not supply one.
    pub status: Option<StatusBoard>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            max_queue: 64,
            quarantine_after: 3,
            watchdog: None,
            drain_timeout: None,
            retry_after_ms: 250,
            dump_dir: None,
            dump_cap: DEFAULT_DUMP_CAP,
            status: None,
        }
    }
}

/// One `{"op":"check"}` request, decoded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckRequest {
    /// Client correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// Client-supplied trace id (sanitized at admission); absent derives
    /// one deterministically from the source key + request sequence.
    pub trace_id: Option<String>,
    /// Inline SMV source (exclusive with `path`).
    pub source: Option<String>,
    /// Path of a model file the server reads (exclusive with `source`).
    pub path: Option<String>,
    /// Ad-hoc CTL formula; absent checks the model's `SPEC` sections.
    pub spec: Option<String>,
    /// Render counterexamples/witnesses into the response.
    pub trace: bool,
    /// Per-request wall-clock quota, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request live-node quota.
    pub node_limit: Option<usize>,
    /// Per-request fixpoint iteration quota.
    pub max_iters: Option<u64>,
    /// Drill hook: hold the worker this long before executing, so
    /// overload and watchdog behavior is deterministic under test.
    pub hold_ms: Option<u64>,
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Check a model (the workload).
    Check(Box<CheckRequest>),
    /// Return the metrics registry as JSON.
    Metrics,
    /// Return the live introspection snapshot (queue, workers, phases,
    /// quarantine, cache) — the in-band sibling of HTTP `/status`.
    Status,
    /// Begin a graceful drain.
    Shutdown,
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// A human-readable description of the defect (unknown op, missing or
/// conflicting fields, type mismatches); the server answers these with
/// `reason:"bad_request"` rather than dying.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line).ok_or("request is not a JSON object")?;
    if !matches!(json, Json::Obj(_)) {
        return Err("request is not a JSON object".to_string());
    }
    let op = match json.get("op") {
        None => "check",
        Some(v) => v.as_str().ok_or("\"op\" must be a string")?,
    };
    match op {
        "metrics" => Ok(Request::Metrics),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "check" => {
            let req = CheckRequest {
                id: opt_str(&json, "id")?,
                trace_id: opt_str(&json, "trace_id")?,
                source: opt_str(&json, "source")?,
                path: opt_str(&json, "path")?,
                spec: opt_str(&json, "spec")?,
                trace: match json.get("trace") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("\"trace\" must be a boolean")?,
                },
                timeout_ms: opt_num(&json, "timeout_ms")?,
                node_limit: opt_num(&json, "node_limit")?.map(|n| n as usize),
                max_iters: opt_num(&json, "max_iters")?,
                hold_ms: opt_num(&json, "hold_ms")?,
            };
            match (&req.source, &req.path) {
                (None, None) => Err("check needs \"source\" or \"path\"".to_string()),
                (Some(_), Some(_)) => {
                    Err("\"source\" and \"path\" are mutually exclusive".to_string())
                }
                _ => Ok(Request::Check(Box::new(req))),
            }
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn opt_str(json: &Json, key: &str) -> Result<Option<String>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{key:?} must be a string")),
    }
}

fn opt_num(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| format!("{key:?} must be a number")),
    }
}

/// What the status surface shows of one busy worker slot.
#[derive(Clone)]
struct WorkerStatus {
    name: String,
    trace_id: String,
    started: Instant,
    recorder: Recorder,
}

/// One quarantine row as the status surface renders it.
#[derive(Clone)]
struct QuarantineRow {
    source: String,
    strikes: u32,
    diagnostic: String,
}

/// The live introspection surface of a serve session: an `Arc`-shared
/// board the session's core updates at the same points it updates the
/// metrics registry, readable at any moment by the detached HTTP
/// `/status` thread ([`spawn_metrics_endpoint`]) and the in-band
/// `{"op":"status"}` request — both render through [`StatusBoard::render`],
/// so the two surfaces can never drift apart.
///
/// The snapshot schema (`status_schema`, the key vocabulary) is pinned
/// by `smc_obs::STATUS_REQUIRED_KEYS` and the golden test in
/// `crates/obs/tests/schema.rs`; fields are append-only.
#[derive(Clone, Default)]
pub struct StatusBoard {
    inner: Arc<BoardInner>,
}

#[derive(Default)]
struct BoardInner {
    draining: AtomicBool,
    queue_depth: AtomicUsize,
    in_flight: AtomicUsize,
    served: AtomicU64,
    rejected: AtomicU64,
    workers: Mutex<Vec<Option<WorkerStatus>>>,
    quarantine: Mutex<Vec<QuarantineRow>>,
    cache: Mutex<Option<ArtifactCache>>,
}

impl std::fmt::Debug for StatusBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StatusBoard({} in flight, {} queued)",
            self.inner.in_flight.load(Ordering::Relaxed),
            self.inner.queue_depth.load(Ordering::Relaxed)
        )
    }
}

impl StatusBoard {
    /// A fresh, empty board (what a serve session builds when the
    /// caller did not wire one to an HTTP endpoint).
    pub fn new() -> StatusBoard {
        StatusBoard::default()
    }

    /// Sizes the worker table and attaches the session's cache handle.
    /// Called once when the serve session starts.
    fn attach(&self, workers: usize, cache: Option<ArtifactCache>) {
        *lock(&self.inner.workers) = (0..workers).map(|_| None).collect();
        *lock(&self.inner.cache) = cache;
    }

    fn slot_busy(&self, slot: usize, status: WorkerStatus) {
        let mut workers = lock(&self.inner.workers);
        if let Some(w) = workers.get_mut(slot) {
            *w = Some(status);
        }
    }

    fn slot_idle(&self, slot: usize) {
        let mut workers = lock(&self.inner.workers);
        if let Some(w) = workers.get_mut(slot) {
            *w = None;
        }
    }

    /// Age in microseconds of the oldest in-flight request, or 0 when
    /// every slot is idle — the `smc_serve_inflight_age_us` gauge.
    fn oldest_inflight_age_us(&self) -> u64 {
        lock(&self.inner.workers)
            .iter()
            .flatten()
            .map(|w| w.started.elapsed().as_micros() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Renders the snapshot. The shape is the published status schema:
    /// top-level keys per `smc_obs::STATUS_REQUIRED_KEYS`, one object
    /// per *busy* worker slot (`STATUS_WORKER_KEYS`), one per
    /// quarantined source (`STATUS_QUARANTINE_KEYS`).
    pub fn render(&self) -> String {
        let i = &self.inner;
        let mut s = format!(
            "{{\"status_schema\":{STATUS_SCHEMA_VERSION},\"draining\":{},\"queue_depth\":{},\"in_flight\":{},\"served\":{},\"rejected\":{}",
            i.draining.load(Ordering::Acquire),
            i.queue_depth.load(Ordering::Acquire),
            i.in_flight.load(Ordering::Acquire),
            i.served.load(Ordering::Acquire),
            i.rejected.load(Ordering::Acquire),
        );
        s.push_str(",\"workers\":[");
        let mut first = true;
        for (slot, w) in lock(&i.workers).iter().enumerate() {
            let Some(w) = w else { continue };
            if !first {
                s.push(',');
            }
            first = false;
            // Heap numbers come from the job's last HeapSample on the
            // slot recorder; (0, 0) until the job emits one.
            let (live_nodes, widest_level) = w.recorder.heap_brief().unwrap_or((0, 0));
            s.push_str(&format!(
                "{{\"slot\":{slot},\"name\":\"{}\",\"trace_id\":\"{}\",\"elapsed_us\":{},\"phase\":\"{}\",\"live_nodes\":{live_nodes},\"widest_level\":{widest_level}}}",
                json_escape(&w.name),
                json_escape(&w.trace_id),
                w.started.elapsed().as_micros() as u64,
                w.recorder.phase(),
            ));
        }
        s.push_str("],\"quarantine\":[");
        for (j, row) in lock(&i.quarantine).iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"source\":\"{}\",\"strikes\":{},\"diagnostic\":\"{}\"}}",
                json_escape(&row.source),
                row.strikes,
                json_escape(&row.diagnostic),
            ));
        }
        s.push_str("],\"cache\":");
        match lock(&i.cache).as_ref() {
            Some(c) => s.push_str(&format!("{{\"enabled\":true,\"entries\":{}}}", c.len())),
            None => s.push_str("{\"enabled\":false,\"entries\":0}"),
        }
        s.push('}');
        s
    }
}

/// An admitted request, parked in the queue until a worker takes it.
struct Admitted {
    seq: u64,
    id: Option<String>,
    trace_id: String,
    job: Job,
    key: u64,
    /// The request's quotas, tightened against the server-wide caps.
    limits: Limits,
    want_trace: bool,
    hold_ms: u64,
    out: Responder,
}

/// What the watchdog sees of a busy worker slot.
struct Running {
    started: Instant,
    cancel: CancelToken,
}

/// Strike bookkeeping for one source key.
struct Strikes {
    trips: u32,
    diagnostic: String,
}

enum Outcome {
    /// Governor trip or panic — counts toward quarantine.
    Strike(String),
    /// Deterministic input problem: neither a strike nor a recovery.
    Neutral,
    /// The source behaved; clears its strikes.
    Clear,
}

/// Result of feeding one input line to the server.
#[derive(Debug, PartialEq, Eq)]
enum Flow {
    Continue,
    Shutdown,
}

/// Shared state of one serve session.
struct Core<'a> {
    cfg: &'a ServerConfig,
    cache: Option<ArtifactCache>,
    queue: Mutex<VecDeque<Admitted>>,
    ready: Condvar,
    /// Set once: no further admissions. Checked by workers (exit when
    /// idle), connection threads, and the TCP accept loop.
    draining: AtomicBool,
    /// Admitted but not yet answered (queued + in flight) — the
    /// admission-control denominator, invariant under the queue→worker
    /// handoff.
    outstanding: AtomicUsize,
    in_flight: AtomicUsize,
    /// One slot per worker, populated while a job runs — the watchdog's
    /// scan surface and drain's cancellation lever.
    slots: Vec<Mutex<Option<Running>>>,
    quarantine: Mutex<HashMap<u64, Strikes>>,
    worst: AtomicU8,
    seq: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    /// Stops the watchdog thread after drain.
    stop_watchdog: AtomicBool,
    /// The live introspection surface (shared with the HTTP `/status`
    /// thread when the caller wired one in).
    status: StatusBoard,
}

/// Writes one response line (lock, write, flush). I/O errors are
/// swallowed: a client that hung up forfeits its responses, the server
/// keeps serving everyone else.
fn respond(out: &Responder, line: &str) {
    let mut w = lock(out);
    let _ = w.write_all(line.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

/// `{"schema":…,"seq":…,["id":…,]"op":"…"` — the response envelope
/// every line starts with.
fn head(seq: u64, id: Option<&str>, op: &str) -> String {
    let mut s = format!("{{\"schema\":{SERVE_SCHEMA},\"seq\":{seq},");
    if let Some(id) = id {
        s.push_str(&format!("\"id\":\"{}\",", json_escape(id)));
    }
    s.push_str(&format!("\"op\":\"{op}\""));
    s
}

impl<'a> Core<'a> {
    fn new(cfg: &'a ServerConfig) -> Core<'a> {
        let workers = cfg.engine.workers.max(1);
        let cache = cfg.engine.use_cache.then(|| cfg.engine.build_cache());
        let status = cfg.status.clone().unwrap_or_default();
        status.attach(workers, cache.clone());
        Core {
            cfg,
            cache,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            quarantine: Mutex::new(HashMap::new()),
            worst: AtomicU8::new(0),
            seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            stop_watchdog: AtomicBool::new(false),
            status,
        }
    }

    /// The serve flight-recorder capacity: the configured per-job cap,
    /// defaulting (recording is always on in serve) rather than
    /// disabling when unset.
    fn recorder_cap(&self) -> usize {
        if self.cfg.engine.recorder_cap > 0 {
            self.cfg.engine.recorder_cap
        } else {
            DEFAULT_RECORDER_CAP
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.cfg.engine.metrics
    }

    fn note_exit(&self, class: u8) {
        self.worst.fetch_max(class, Ordering::AcqRel);
    }

    /// Sends a rejection response and tallies it. Rejections are flow
    /// control: they never fold into the exit code.
    #[allow(clippy::too_many_arguments)]
    fn reject(
        &self,
        out: &Responder,
        seq: u64,
        id: Option<&str>,
        trace_id: Option<&str>,
        reason: &str,
        error: Option<&str>,
        retry: bool,
    ) {
        self.rejected.fetch_add(1, Ordering::AcqRel);
        self.status.inner.rejected.fetch_add(1, Ordering::AcqRel);
        self.metrics().counter_add("smc_serve_rejected_total", &[("reason", reason)], 1);
        let mut line = head(seq, id, "check");
        if let Some(t) = trace_id {
            line.push_str(&format!(",\"trace_id\":\"{}\"", json_escape(t)));
        }
        line.push_str(&format!(",\"outcome\":\"rejected\",\"reason\":\"{reason}\""));
        if retry {
            line.push_str(&format!(",\"retry_after_ms\":{}", self.cfg.retry_after_ms));
        }
        if let Some(e) = error {
            line.push_str(&format!(",\"error\":\"{}\"", json_escape(e)));
        }
        line.push('}');
        respond(out, &line);
    }

    /// Handles one input line end to end (parse, admit or reject,
    /// answer metadata ops inline).
    fn admit_line(&self, raw: &str, out: &Responder) -> Flow {
        let line = raw.trim();
        if line.is_empty() {
            return Flow::Continue;
        }
        let seq = self.seq.fetch_add(1, Ordering::AcqRel);
        match parse_request(line) {
            Err(e) => {
                self.reject(out, seq, None, None, "bad_request", Some(&e), false);
                Flow::Continue
            }
            Ok(Request::Metrics) => {
                let mut line = head(seq, None, "metrics");
                line.push_str(",\"metrics\":");
                line.push_str(&self.metrics().render_json());
                line.push('}');
                respond(out, &line);
                Flow::Continue
            }
            Ok(Request::Status) => {
                let mut line = head(seq, None, "status");
                line.push_str(",\"status\":");
                line.push_str(&self.status.render());
                line.push('}');
                respond(out, &line);
                Flow::Continue
            }
            Ok(Request::Shutdown) => {
                // Stop admitting immediately; the caller runs the drain.
                self.draining.store(true, Ordering::Release);
                self.status.inner.draining.store(true, Ordering::Release);
                self.ready.notify_all();
                let mut line = head(seq, None, "shutdown");
                line.push_str(",\"draining\":true}");
                respond(out, &line);
                Flow::Shutdown
            }
            Ok(Request::Check(req)) => {
                self.admit_check(*req, seq, out);
                Flow::Continue
            }
        }
    }

    fn admit_check(&self, req: CheckRequest, seq: u64, out: &Responder) {
        let id = req.id.clone();
        if self.draining.load(Ordering::Acquire) {
            self.reject(out, seq, id.as_deref(), None, "draining", None, true);
            return;
        }
        // Resolve the source; an unreadable path is an in-band input
        // error (the request *ran* into bad input, it was not shed).
        let (name, source) = match (&req.source, &req.path) {
            (Some(s), _) => {
                (id.clone().unwrap_or_else(|| format!("inline-{:016x}", source_key(s))), s.clone())
            }
            (None, Some(p)) => match std::fs::read_to_string(p) {
                Ok(s) => (p.clone(), s),
                Err(e) => {
                    self.note_exit(2);
                    self.served.fetch_add(1, Ordering::AcqRel);
                    self.status.inner.served.fetch_add(1, Ordering::AcqRel);
                    self.metrics().counter_add(
                        "smc_serve_requests_total",
                        &[("outcome", "input_error")],
                        1,
                    );
                    let trace_id = req
                        .trace_id
                        .as_deref()
                        .and_then(sanitize_trace_id)
                        .unwrap_or_else(|| derive_trace_id(source_key(p), seq));
                    let mut line = head(seq, id.as_deref(), "check");
                    line.push_str(&format!(
                        ",\"name\":\"{}\",\"trace_id\":\"{}\",\"outcome\":\"input_error\",\"exit_class\":2,\"error\":\"cannot read {}: {}\"}}",
                        json_escape(p),
                        json_escape(&trace_id),
                        json_escape(p),
                        json_escape(&e.to_string())
                    ));
                    respond(out, &line);
                    return;
                }
            },
            (None, None) => unreachable!("parse_request enforces source xor path"),
        };
        let key = source_key(&source);
        // The request's correlation key: the client's id when supplied
        // (sanitized — it names the dump file on a strike), else derived
        // deterministically from the source key + request sequence.
        let trace_id = req
            .trace_id
            .as_deref()
            .and_then(sanitize_trace_id)
            .unwrap_or_else(|| derive_trace_id(key, seq));
        // Quarantine gate: a poisonous source is refused with the
        // diagnostic its last trip produced — no worker time spent.
        if self.cfg.quarantine_after > 0 {
            let quarantined = lock(&self.quarantine)
                .get(&key)
                .filter(|s| s.trips >= self.cfg.quarantine_after)
                .map(|s| s.diagnostic.clone());
            if let Some(diag) = quarantined {
                self.metrics().counter_add("smc_serve_quarantine_hits_total", &[], 1);
                self.reject(
                    out,
                    seq,
                    id.as_deref(),
                    Some(&trace_id),
                    "quarantined",
                    Some(&diag),
                    false,
                );
                return;
            }
        }
        // Admission control on outstanding work. `outstanding` counts
        // queued + in-flight, so the bound is schedule-independent.
        let capacity = self.cfg.max_queue + self.slots.len();
        if self.outstanding.load(Ordering::Acquire) >= capacity {
            self.reject(out, seq, id.as_deref(), Some(&trace_id), "overload", None, true);
            return;
        }
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.metrics().counter_add("smc_serve_admitted_total", &[], 1);
        let item = Admitted {
            seq,
            id,
            trace_id,
            job: Job { name, source, spec: req.spec.clone() },
            key,
            limits: self.cfg.engine.limits.tighten(Limits {
                timeout: req.timeout_ms.map(Duration::from_millis),
                node_limit: req.node_limit,
                max_iters: req.max_iters,
            }),
            want_trace: req.trace || self.cfg.engine.want_trace,
            hold_ms: req.hold_ms.unwrap_or(0),
            out: Arc::clone(out),
        };
        let depth = {
            let mut q = lock(&self.queue);
            q.push_back(item);
            q.len()
        };
        self.metrics().gauge_set("smc_serve_queue_depth", &[], depth as f64);
        self.status.inner.queue_depth.store(depth, Ordering::Release);
        self.ready.notify_one();
    }

    /// Executes one admitted request on worker `slot`.
    fn run_one(&self, slot: usize, item: Admitted) {
        let metrics = self.metrics();
        let running = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.status.inner.in_flight.store(running, Ordering::Release);
        metrics.gauge_set("smc_serve_in_flight", &[], running as f64);
        let cancel = CancelToken::new();
        let recorder = Recorder::new(self.recorder_cap());
        // Register the slot before the drill hold so the watchdog sees
        // (and can cancel) a held request exactly like a hung one, and
        // the status surface shows it as in flight from admission.
        *lock(&self.slots[slot]) =
            Some(Running { started: Instant::now(), cancel: cancel.clone() });
        self.status.slot_busy(
            slot,
            WorkerStatus {
                name: item.job.name.clone(),
                trace_id: item.trace_id.clone(),
                started: Instant::now(),
                recorder: recorder.clone(),
            },
        );
        if item.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(item.hold_ms.min(10_000)));
        }
        // Always governed: the per-request cancel token (the watchdog's
        // and drain's lever) is installed even when no quota applies.
        let budget = item.limits.budget().unwrap_or_default().with_cancel_token(&cancel);
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job_with(
                0,
                &item.job,
                &self.cfg.engine,
                self.cache.as_ref(),
                Some(budget),
                item.want_trace,
                &TraceCtx {
                    trace_id: &item.trace_id,
                    worker: slot as u64,
                    recorder: Some(&recorder),
                },
            )
        }));
        *lock(&self.slots[slot]) = None;
        self.status.slot_idle(slot);
        metrics.observe(
            "smc_serve_request_wall_us",
            &[],
            started.elapsed().as_micros().max(1) as u64,
        );
        let line = match &result {
            Ok(r) => {
                metrics.counter_add(
                    "smc_serve_requests_total",
                    &[("outcome", r.outcome.label())],
                    1,
                );
                self.note_exit(r.outcome.exit_class());
                let mut dump = None;
                self.note_outcome(
                    item.key,
                    match &r.outcome {
                        JobOutcome::Exhausted { phase, reason, .. } => {
                            dump = self.write_dump(
                                &recorder,
                                &item,
                                slot,
                                &format!("exhausted during {phase}: {reason}"),
                            );
                            Outcome::Strike(format!(
                                "resource budget exhausted during {phase}: {reason}"
                            ))
                        }
                        JobOutcome::InputError { .. } => Outcome::Neutral,
                        _ => Outcome::Clear,
                    },
                );
                let mut line = head(item.seq, item.id.as_deref(), "check");
                line.push(',');
                line.push_str(&job_json_fields(r));
                if let Some(path) = dump {
                    line.push_str(&format!(",\"dump\":\"{}\"", json_escape(&path)));
                }
                line.push('}');
                line
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                metrics.counter_add("smc_serve_requests_total", &[("outcome", "panic")], 1);
                self.note_exit(2);
                self.note_outcome(item.key, Outcome::Strike(format!("worker panicked: {msg}")));
                let dump = self.write_dump(&recorder, &item, slot, &format!("panic: {msg}"));
                let mut line = head(item.seq, item.id.as_deref(), "check");
                line.push_str(&format!(
                    ",\"name\":\"{}\",\"trace_id\":\"{}\",\"outcome\":\"panic\",\"exit_class\":2,\"error\":\"worker panicked: {}\"",
                    json_escape(&item.job.name),
                    json_escape(&item.trace_id),
                    json_escape(&msg)
                ));
                if let Some(path) = dump {
                    line.push_str(&format!(",\"dump\":\"{}\"", json_escape(&path)));
                }
                line.push('}');
                line
            }
        };
        respond(&item.out, &line);
        self.served.fetch_add(1, Ordering::AcqRel);
        self.status.inner.served.fetch_add(1, Ordering::AcqRel);
        let running = self.in_flight.fetch_sub(1, Ordering::AcqRel) - 1;
        self.status.inner.in_flight.store(running, Ordering::Release);
        metrics.gauge_set("smc_serve_in_flight", &[], running as f64);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// Writes the flight recorder's black-box dump for a struck request
    /// (atomically: temp file, fsync, rename), prunes the dump directory
    /// past [`ServerConfig::dump_cap`], and returns the dump path for
    /// the response line. `None` when dumping is off or the write fails
    /// — the dump is forensics, never worth failing the response over.
    fn write_dump(
        &self,
        recorder: &Recorder,
        item: &Admitted,
        slot: usize,
        reason: &str,
    ) -> Option<String> {
        let dir = self.cfg.dump_dir.as_ref()?;
        let body = recorder.dump_jsonl(&DumpMeta {
            trace_id: &item.trace_id,
            job: &item.job.name,
            worker: slot as u64,
            reason,
        });
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let path = dir.join(format!("{}.dump.jsonl", item.trace_id));
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), item.seq));
        let written = std::fs::write(&tmp, &body).is_ok()
            && std::fs::File::open(&tmp).and_then(|f| f.sync_all()).is_ok()
            && std::fs::rename(&tmp, &path).is_ok();
        if !written {
            let _ = std::fs::remove_file(&tmp);
            return None;
        }
        self.metrics().counter_add("smc_recorder_dumps_total", &[], 1);
        prune_dumps(dir, self.cfg.dump_cap);
        Some(path.display().to_string())
    }

    fn note_outcome(&self, key: u64, outcome: Outcome) {
        if self.cfg.quarantine_after == 0 {
            return;
        }
        let mut q = lock(&self.quarantine);
        match outcome {
            Outcome::Strike(diagnostic) => {
                let entry = q.entry(key).or_insert(Strikes { trips: 0, diagnostic: String::new() });
                entry.trips += 1;
                entry.diagnostic = diagnostic;
            }
            Outcome::Clear => {
                q.remove(&key);
            }
            Outcome::Neutral => {}
        }
        // Mirror the strike table onto the status surface (sorted by
        // key so the snapshot is deterministic for a given table).
        let mut rows: Vec<(u64, QuarantineRow)> = q
            .iter()
            .map(|(k, s)| {
                (
                    *k,
                    QuarantineRow {
                        source: format!("{k:016x}"),
                        strikes: s.trips,
                        diagnostic: s.diagnostic.clone(),
                    },
                )
            })
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        *lock(&self.status.inner.quarantine) = rows.into_iter().map(|(_, r)| r).collect();
    }

    /// Stops admissions and waits for outstanding work to finish. Past
    /// the drain timeout, queued requests are rejected and in-flight
    /// tokens cancelled (the governor turns that into `Exhausted`).
    fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.status.inner.draining.store(true, Ordering::Release);
        self.ready.notify_all();
        let deadline = self.cfg.drain_timeout.map(|d| Instant::now() + d);
        let mut expired = false;
        while self.outstanding.load(Ordering::Acquire) > 0 {
            if let Some(at) = deadline {
                if !expired && Instant::now() >= at {
                    expired = true;
                    let dropped: Vec<Admitted> = lock(&self.queue).drain(..).collect();
                    for item in dropped {
                        self.reject(
                            &item.out,
                            item.seq,
                            item.id.as_deref(),
                            Some(&item.trace_id),
                            "draining",
                            Some("server drain timeout"),
                            true,
                        );
                        self.outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                    for slot in &self.slots {
                        if let Some(r) = lock(slot).as_ref() {
                            r.cancel.cancel();
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stop_watchdog.store(true, Ordering::Release);
        self.metrics().gauge_set("smc_serve_queue_depth", &[], 0.0);
        self.metrics().counter_add("smc_serve_drains_total", &[], 1);
    }

    fn drained_line(&self) -> String {
        format!(
            "{{\"schema\":{SERVE_SCHEMA},\"op\":\"drained\",\"served\":{},\"rejected\":{},\"worst_exit\":{}}}",
            self.served.load(Ordering::Acquire),
            self.rejected.load(Ordering::Acquire),
            self.worst.load(Ordering::Acquire)
        )
    }
}

/// Sanitizes a client-supplied trace id: ASCII alphanumerics, `-`, `_`
/// and `.` survive (it names the dump file on a strike), capped at 64
/// chars. `None` (fall back to the derived id) when nothing survives.
fn sanitize_trace_id(raw: &str) -> Option<String> {
    let cleaned: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        .take(64)
        .collect();
    (!cleaned.is_empty() && !cleaned.starts_with('.')).then_some(cleaned)
}

/// Removes the oldest `*.dump.jsonl` files in `dir` until at most `cap`
/// remain. Best-effort: pruning failures cost disk, never a response.
fn prune_dumps(dir: &std::path::Path, cap: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut dumps: Vec<(std::time::SystemTime, std::path::PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".dump.jsonl"))
        .filter_map(|e| {
            let modified = e.metadata().and_then(|m| m.modified()).ok()?;
            Some((modified, e.path()))
        })
        .collect();
    if dumps.len() <= cap {
        return;
    }
    dumps.sort_by_key(|(t, _)| *t);
    let excess = dumps.len() - cap;
    for (_, path) in dumps.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(core: &Core<'_>, slot: usize) {
    loop {
        let item = {
            let mut q = lock(&core.queue);
            loop {
                if let Some(item) = q.pop_front() {
                    core.metrics().gauge_set("smc_serve_queue_depth", &[], q.len() as f64);
                    core.status.inner.queue_depth.store(q.len(), Ordering::Release);
                    break item;
                }
                if core.draining.load(Ordering::Acquire) {
                    return;
                }
                q = core.ready.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        core.run_one(slot, item);
    }
}

/// The in-flight sentinel: always running (watchdog configured or not),
/// it refreshes the `smc_serve_inflight_age_us` gauge every scan and —
/// when a watchdog limit is set — cancels any job running past it. The
/// cancelled job's governor trips at its next checkpoint and the request
/// is answered `Exhausted` — a hung job never wedges a worker.
fn watchdog_loop(core: &Core<'_>) {
    let limit = core.cfg.watchdog;
    while !core.stop_watchdog.load(Ordering::Acquire) {
        core.metrics().gauge_set(
            "smc_serve_inflight_age_us",
            &[],
            core.status.oldest_inflight_age_us() as f64,
        );
        if let Some(limit) = limit {
            for slot in &core.slots {
                if let Some(r) = lock(slot).as_ref() {
                    if r.started.elapsed() > limit && !r.cancel.is_cancelled() {
                        r.cancel.cancel();
                        core.metrics().counter_add("smc_serve_watchdog_trips_total", &[], 1);
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    core.metrics().gauge_set("smc_serve_inflight_age_us", &[], 0.0);
}

/// Serves NDJSON requests from `input` until EOF or `{"op":"shutdown"}`,
/// writing one response line per request to `output`, then drains and
/// emits the final `{"op":"drained",…}` summary. Returns the worst-of
/// exit class (3 exhausted > 2 input error/panic > 1 failing spec > 0)
/// over every *executed* request; rejections don't count.
pub fn serve(mut input: impl BufRead, output: Responder, cfg: &ServerConfig) -> u8 {
    let core = Core::new(cfg);
    std::thread::scope(|scope| {
        for slot in 0..core.slots.len() {
            let core = &core;
            spawn_worker(scope, move || worker_loop(core, slot));
        }
        {
            let core = &core;
            scope.spawn(move || watchdog_loop(core));
        }
        let mut line = String::new();
        loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if core.admit_line(&line, &output) == Flow::Shutdown {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        core.drain();
        respond(&output, &core.drained_line());
    });
    core.worst.load(Ordering::Acquire)
}

/// Serves NDJSON requests over TCP: one cooperative thread per
/// connection, all feeding the shared queue/worker pool. A
/// `{"op":"shutdown"}` from any connection (or the listener erroring
/// out) begins the drain; connection threads notice within their read
/// timeout and exit. Returns like [`serve`].
///
/// # Errors
///
/// Only listener *setup* problems (switching to non-blocking accept);
/// per-connection I/O failures cost that connection its responses,
/// nothing else.
pub fn serve_tcp(listener: TcpListener, cfg: &ServerConfig) -> std::io::Result<u8> {
    listener.set_nonblocking(true)?;
    let core = Core::new(cfg);
    std::thread::scope(|scope| {
        for slot in 0..core.slots.len() {
            let core = &core;
            spawn_worker(scope, move || worker_loop(core, slot));
        }
        {
            let core = &core;
            scope.spawn(move || watchdog_loop(core));
        }
        loop {
            if core.draining.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let core = &core;
                    scope.spawn(move || handle_connection(core, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        core.drain();
    });
    Ok(core.worst.load(Ordering::Acquire))
}

/// One TCP connection: cooperative line reader with a short read
/// timeout, so a drain (triggered elsewhere) is noticed promptly and an
/// idle connection never pins the scope open past shutdown.
fn handle_connection(core: &Core<'_>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let out: Responder = Arc::new(Mutex::new(write_half));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(150)));
    let mut reader = std::io::BufReader::new(stream);
    let mut buf = String::new();
    loop {
        if core.draining.load(Ordering::Acquire) {
            return;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => return,
            Ok(_) => {
                let flow = core.admit_line(&buf, &out);
                buf.clear();
                if flow == Flow::Shutdown {
                    return;
                }
            }
            // Timeout mid-line: bytes read so far stay in `buf`; loop
            // (checking the drain flag) and keep accumulating.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Binds `addr` and spawns a detached thread answering HTTP requests:
/// `/status` (when a [`StatusBoard`] is wired in) returns the live
/// introspection snapshot as JSON; every other path returns the
/// Prometheus text exposition of `metrics` — the pull-based siblings of
/// the in-band `{"op":"status"}` and `{"op":"metrics"}` requests.
/// Returns the bound address (useful with port 0).
///
/// # Errors
///
/// Bind/spawn failures; serving errors after that cost one scrape.
pub fn spawn_metrics_endpoint(
    addr: &str,
    metrics: Metrics,
    status: Option<StatusBoard>,
) -> std::io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new().name("smc-metrics".to_string()).spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            // Read the request head best-effort; only the path of the
            // request line is consulted.
            let mut buf = [0u8; 1024];
            let n = std::io::Read::read(&mut stream, &mut buf).unwrap_or(0);
            let head = String::from_utf8_lossy(&buf[..n]);
            let path = head.split_whitespace().nth(1).unwrap_or("/");
            let (body, content_type) = match (&status, path) {
                (Some(board), p) if p == "/status" || p.starts_with("/status?") => {
                    (board.render(), "application/json; charset=utf-8")
                }
                _ => (
                    metrics.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                ),
            };
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                content_type,
                body.len(),
                body
            );
            let _ = stream.write_all(response.as_bytes());
        }
    })?;
    Ok(local)
}
