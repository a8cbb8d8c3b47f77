#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # smc-obs — structured telemetry for the checking stack
//!
//! A zero-cost-when-disabled observability layer: phases of a
//! model-checking run open [`SpanKind`] **spans** (compile, reach, the
//! CTL fixpoints, fair-ring computation, witness construction) and emit
//! **events** ([`Event`]) for per-iteration fixpoint telemetry, the
//! Section 6 witness search's decisions (nearest-constraint hops,
//! cycle-closure attempts, SCC-descent restarts), garbage collection,
//! degradation-ladder steps and governor trips.
//!
//! The [`Telemetry`] handle is the only type the instrumented layers
//! touch. Disabled (the default) it is a `None` behind one pointer:
//! every emit is a single predictable branch, no clock is read, no BDD
//! is sized. Enabled, it fans events out to any number of [`Sink`]s:
//!
//! - [`JsonlSink`] — a versioned JSON-lines trace (see the schema
//!   contract on [`Event`]),
//! - [`ProgressSink`] — a live one-line progress display for stderr,
//! - [`ProfileAggregator`] — an in-memory aggregator rendering a
//!   post-run profile report (wall/self time, iterations, peak nodes,
//!   cache hit rate per span).
//!
//! This crate is dependency-free (std only) so it can sit *below*
//! `smc-bdd`: the BDD manager itself carries a `Telemetry` handle, and
//! every layer above reaches it through the manager.
//!
//! ## Example
//!
//! ```
//! use smc_obs::{Event, JsonlSink, SpanKind, StatsSnapshot, Telemetry};
//!
//! let tele = Telemetry::new();
//! tele.add_sink(Box::new(JsonlSink::new(Vec::new())));
//! let span = tele.span_start(SpanKind::Reach, None, StatsSnapshot::default());
//! tele.emit(Event::WitnessHop { constraint: 0, ring: 3 });
//! tele.span_end(span, StatsSnapshot::default());
//! tele.flush();
//! ```

mod event;
mod export;
mod heap;
mod json;
mod ledger;
mod metrics;
mod profile;
mod progress;
mod recorder;
mod sink;

pub use event::{Event, FixKind, SpanKind, SPAN_KINDS};
pub use export::{export_chrome, export_speedscope};
pub use heap::{
    HeapCacheOp, HeapComputed, HeapLevel, HeapSnapshot, HeapUnique, HeapWidest, SiftGain,
    HEAP_SAMPLE_CADENCE, HEAP_SCHEMA_VERSION, HEAP_SNAPSHOT_KEYS,
};
pub use json::{json_escape, Json, MAX_JSON_DEPTH};
pub use ledger::{FamilyRecord, Ledger, PhaseRecord, RunRecord, LEDGER_SCHEMA_VERSION};
pub use metrics::{metric_help, Metrics, METRICS_SCHEMA_VERSION};
pub use profile::{report_from_jsonl, report_from_jsonl_with, ProfileAggregator};
pub use progress::ProgressSink;
pub use recorder::{DumpMeta, Recorder, DEFAULT_RECORDER_CAP, DUMP_SCHEMA_VERSION};
pub use sink::{EventCtx, JsonlSink, Sink, TraceTag};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Locks a mutex, recovering the data from a poisoned lock: a sink that
/// panicked mid-record must not take the whole telemetry pipeline (and
/// every other worker thread sharing it) down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Version stamped into every JSON-lines record as `"v"`. Bumped only
/// when a required key is removed or changes meaning; adding optional
/// keys is a compatible change (see DESIGN.md §8).
pub const SCHEMA_VERSION: u64 = 1;

/// Version stamped into every live-introspection snapshot (`/status`
/// over HTTP and the in-band `{"op":"status"}` serve request) as
/// `"status_schema"`. The key vocabulary below is append-only: fields
/// may be added at any time, but removing or re-typing one bumps this.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// Required top-level keys of a status snapshot (append-only contract;
/// pinned by the golden test in `tests/schema.rs`).
pub const STATUS_REQUIRED_KEYS: &[&str] = &[
    "status_schema",
    "draining",
    "queue_depth",
    "in_flight",
    "served",
    "rejected",
    "workers",
    "quarantine",
    "cache",
];

/// Required keys of each entry in the status `workers` array.
/// `live_nodes` / `widest_level` carry the worker's latest heap sample
/// (0 until its job emits one) — an append-only addition.
pub const STATUS_WORKER_KEYS: &[&str] =
    &["slot", "name", "trace_id", "elapsed_us", "phase", "live_nodes", "widest_level"];

/// Required keys of each entry in the status `quarantine` array.
pub const STATUS_QUARANTINE_KEYS: &[&str] = &["source", "strikes", "diagnostic"];

/// A point-in-time copy of the BDD manager's workload counters, taken at
/// span boundaries so every span carries the *delta* of cache traffic,
/// allocation and GC work it caused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Live (unique-table) nodes right now.
    pub live_nodes: u64,
    /// High-water mark of the node pool.
    pub peak_nodes: u64,
    /// Total nodes ever created.
    pub created_nodes: u64,
    /// Computed-table lookups (all operations).
    pub cache_lookups: u64,
    /// Computed-table hits (all operations).
    pub cache_hits: u64,
    /// Computed-table evictions.
    pub cache_evictions: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection.
    pub gc_reclaimed: u64,
}

/// The change in cumulative counters between two [`StatsSnapshot`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Nodes created within the span.
    pub created_nodes: u64,
    /// Computed-table lookups within the span.
    pub cache_lookups: u64,
    /// Computed-table hits within the span.
    pub cache_hits: u64,
    /// Computed-table evictions within the span.
    pub cache_evictions: u64,
    /// Garbage collections within the span.
    pub gc_runs: u64,
    /// Nodes reclaimed within the span.
    pub gc_reclaimed: u64,
}

impl StatsSnapshot {
    /// Counter movement since `since`. Saturating: a transaction
    /// rollback can make `created_nodes` step backwards briefly.
    pub fn delta_since(&self, since: &StatsSnapshot) -> StatsDelta {
        StatsDelta {
            created_nodes: self.created_nodes.saturating_sub(since.created_nodes),
            cache_lookups: self.cache_lookups.saturating_sub(since.cache_lookups),
            cache_hits: self.cache_hits.saturating_sub(since.cache_hits),
            cache_evictions: self.cache_evictions.saturating_sub(since.cache_evictions),
            gc_runs: self.gc_runs.saturating_sub(since.gc_runs),
            gc_reclaimed: self.gc_reclaimed.saturating_sub(since.gc_reclaimed),
        }
    }
}

/// Opaque handle to an open span, returned by [`Telemetry::span_start`]
/// and consumed by [`Telemetry::span_end`]. The zero id is the "no span"
/// sentinel a disabled telemetry hands out, so disabled span bookkeeping
/// is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The sentinel returned when telemetry is disabled.
    pub const NONE: SpanId = SpanId(0);
}

struct OpenSpan {
    id: u64,
    kind: SpanKind,
    t_us: u64,
    at: StatsSnapshot,
}

struct Inner {
    start: Instant,
    sinks: Mutex<Vec<Box<dyn Sink + Send>>>,
    seq: AtomicU64,
    next_span: AtomicU64,
    stack: Mutex<Vec<OpenSpan>>,
    metrics: Mutex<Metrics>,
    /// Request-scoped context stamped into every event, when installed.
    trace: Mutex<Option<TraceTag>>,
}

/// The telemetry handle threaded through the checking stack.
///
/// Cloning is cheap (an `Option<Arc>`); all clones share the same sinks,
/// clock and span stack. The handle is `Send + Sync`, so a whole
/// checking session (BDD manager included) can move to a worker thread.
/// Each parallel session should own its **own** handle — the span stack
/// is shared per handle, so interleaving spans from concurrent sessions
/// through one handle would mispair them. The default handle is
/// **disabled**: every method is a no-op behind a single
/// [`enabled`](Telemetry::enabled) branch, so instrumentation left in
/// hot paths costs one predictable branch per call site. Hot loops
/// should guard any data gathering (BDD sizing, stats snapshots) behind
/// `enabled()` themselves.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => {
                write!(f, "Telemetry(enabled, {} events)", i.seq.load(Ordering::Relaxed))
            }
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// An enabled handle with no sinks yet (attach with
    /// [`add_sink`](Telemetry::add_sink)). The trace clock starts here.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                sinks: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
                metrics: Mutex::new(Metrics::disabled()),
                trace: Mutex::new(None),
            })),
        }
    }

    /// The disabled (no-op) handle; same as `Telemetry::default()`.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Is any sink attached to an enabled handle going to see events?
    /// The fast guard for hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a sink. No-op on a disabled handle.
    pub fn add_sink(&self, sink: Box<dyn Sink + Send>) {
        if let Some(inner) = &self.inner {
            lock(&inner.sinks).push(sink);
        }
    }

    /// Attaches a metrics registry: every subsequent event folds into it
    /// ([`Metrics::fold_event`]), and instrumented layers can reach it
    /// through [`metrics`](Telemetry::metrics) for direct recording.
    /// No-op on a disabled handle.
    pub fn set_metrics(&self, metrics: Metrics) {
        if let Some(inner) = &self.inner {
            *lock(&inner.metrics) = metrics;
        }
    }

    /// The attached metrics registry handle (a cheap clone sharing the
    /// same registry), or a disabled handle when none is attached.
    pub fn metrics(&self) -> Metrics {
        match &self.inner {
            Some(inner) => lock(&inner.metrics).clone(),
            None => Metrics::disabled(),
        }
    }

    /// Installs a request-scoped trace context: every subsequent event
    /// carries `trace_id` + `worker` in its [`EventCtx`] (and on the
    /// JSON-lines wire as optional keys — a schema-compatible addition).
    /// No-op on a disabled handle. Install before the job starts; the
    /// per-event cost afterwards is one `Arc` clone.
    pub fn set_trace(&self, trace_id: &str, worker: u64) {
        if let Some(inner) = &self.inner {
            *lock(&inner.trace) = Some(TraceTag { trace_id: Arc::from(trace_id), worker });
        }
    }

    /// Emits one event to every sink, stamping sequence number and
    /// microseconds since the handle was created.
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        inner.record(&event);
    }

    /// Opens a span: emits [`Event::SpanStart`] and remembers the start
    /// time and stats snapshot so [`span_end`](Telemetry::span_end) can
    /// report wall time and counter deltas. Returns [`SpanId::NONE`]
    /// when disabled. `at` should be the manager's counters right now;
    /// callers on hot paths should only compute it when
    /// [`enabled`](Telemetry::enabled).
    pub fn span_start(&self, kind: SpanKind, label: Option<&str>, at: StatsSnapshot) -> SpanId {
        let Some(inner) = &self.inner else { return SpanId::NONE };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let t_us = inner.now_us();
        lock(&inner.stack).push(OpenSpan { id, kind, t_us, at });
        inner.record(&Event::SpanStart { id, kind, label: label.map(str::to_string) });
        SpanId(id)
    }

    /// Closes a span: emits [`Event::SpanEnd`] with the wall time and
    /// the stats delta since the matching [`span_start`](Telemetry::span_start).
    /// Spans abandoned by an error path between `id` and the top of the
    /// stack are closed too (with the same end snapshot), so the stack
    /// stays balanced even when a fixpoint trips mid-flight.
    pub fn span_end(&self, id: SpanId, at: StatsSnapshot) {
        let Some(inner) = &self.inner else { return };
        if id == SpanId::NONE {
            return;
        }
        let now = inner.now_us();
        loop {
            let Some(open) = lock(&inner.stack).pop() else { return };
            inner.record(&Event::SpanEnd {
                id: open.id,
                kind: open.kind,
                wall_us: now.saturating_sub(open.t_us),
                live_nodes: at.live_nodes,
                peak_nodes: at.peak_nodes,
                delta: at.delta_since(&open.at),
            });
            if open.id == id.0 {
                return;
            }
        }
    }

    /// Flushes every sink (progress lines are cleared, trace files
    /// drained to disk). Call once at the end of a run.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in lock(&inner.sinks).iter_mut() {
                sink.flush();
            }
        }
    }
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn record(&self, event: &Event) {
        // The sink lock is taken before the sequence number is drawn, so
        // concurrent emitters through one shared handle produce strictly
        // seq-ordered trace lines (no torn ordering in the JSONL file).
        let mut sinks = lock(&self.sinks);
        let ctx = EventCtx {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.now_us(),
            trace: lock(&self.trace).clone(),
        };
        lock(&self.metrics).fold_event(event);
        for sink in sinks.iter_mut() {
            sink.record(&ctx, event);
        }
    }
}

/// Tracks per-iteration cache-counter deltas for a fixpoint loop:
/// holds the previous iteration's snapshot so each
/// [`Event::FixpointIter`] reports the traffic of *that* iteration, not
/// the cumulative totals.
#[derive(Debug)]
pub struct IterTracker {
    last: StatsSnapshot,
}

impl IterTracker {
    /// Starts tracking from `at` (the counters just before iteration 1).
    pub fn new(at: StatsSnapshot) -> IterTracker {
        IterTracker { last: at }
    }

    /// Builds one iteration event and advances the tracker to `at`.
    #[allow(clippy::too_many_arguments)]
    pub fn event(
        &mut self,
        phase: FixKind,
        iteration: u64,
        frontier_size: u64,
        approx_size: u64,
        at: StatsSnapshot,
    ) -> Event {
        let d = at.delta_since(&self.last);
        self.last = at;
        Event::FixpointIter {
            phase,
            iteration,
            frontier_size,
            approx_size,
            live_nodes: at.live_nodes,
            peak_nodes: at.peak_nodes,
            d_lookups: d.cache_lookups,
            d_hits: d.cache_hits,
        }
    }
}

/// Compile-time `Send`/`Sync` assertions for the session types: the
/// parallel engine moves whole checking sessions (telemetry handle
/// included) onto worker threads and shares one metrics registry across
/// the fleet, so these bounds are part of this crate's public contract.
/// A regression (an `Rc` or `RefCell` reintroduced anywhere inside)
/// fails compilation here rather than at a distant spawn site.
#[allow(dead_code)]
mod send_assertions {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    fn session_types_are_send_and_sync() {
        assert_send::<crate::Telemetry>();
        assert_sync::<crate::Telemetry>();
        assert_send::<crate::Metrics>();
        assert_sync::<crate::Metrics>();
        assert_send::<crate::ProfileAggregator>();
        assert_sync::<crate::ProfileAggregator>();
        assert_send::<crate::JsonlSink<std::io::Sink>>();
        assert_send::<crate::ProgressSink<std::io::Stderr>>();
        assert_send::<Box<dyn crate::Sink + Send>>();
        assert_send::<crate::Recorder>();
        assert_sync::<crate::Recorder>();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A Write that appends into a shared buffer, so tests can read what
    /// a sink owned by the telemetry wrote.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        /// The accumulated bytes, copied out.
        pub(crate) fn contents(&self) -> Vec<u8> {
            lock(&self.0).clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tele = Telemetry::disabled();
        assert!(!tele.enabled());
        let span = tele.span_start(SpanKind::Reach, None, StatsSnapshot::default());
        assert_eq!(span, SpanId::NONE);
        tele.emit(Event::WitnessHop { constraint: 0, ring: 1 });
        tele.span_end(span, StatsSnapshot::default());
        tele.flush();
    }

    #[test]
    fn spans_report_wall_and_deltas() {
        let buf = SharedBuf::default();
        let tele = Telemetry::new();
        tele.add_sink(Box::new(JsonlSink::new(buf.clone())));
        let start = StatsSnapshot { cache_lookups: 10, cache_hits: 4, ..Default::default() };
        let end = StatsSnapshot {
            cache_lookups: 110,
            cache_hits: 54,
            live_nodes: 7,
            ..Default::default()
        };
        let span = tele.span_start(SpanKind::CheckEu, Some("E[a U b]"), start);
        tele.span_end(span, end);
        tele.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span_start\""));
        assert!(lines[0].contains("\"label\":\"E[a U b]\""));
        assert!(lines[1].contains("\"kind\":\"span_end\""));
        assert!(lines[1].contains("\"d_lookups\":100"));
        assert!(lines[1].contains("\"d_hits\":50"));
        assert!(lines[1].contains("\"live_nodes\":7"));
    }

    #[test]
    fn abandoned_inner_spans_are_closed() {
        let buf = SharedBuf::default();
        let tele = Telemetry::new();
        tele.add_sink(Box::new(JsonlSink::new(buf.clone())));
        let outer = tele.span_start(SpanKind::FairEg, None, StatsSnapshot::default());
        let _inner = tele.span_start(SpanKind::CheckEu, None, StatsSnapshot::default());
        // Error path: the inner span was never ended explicitly.
        tele.span_end(outer, StatsSnapshot::default());
        tele.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        let ends = text.lines().filter(|l| l.contains("span_end")).count();
        assert_eq!(ends, 2, "both spans must be closed: {text}");
    }

    #[test]
    fn iter_tracker_reports_per_iteration_deltas() {
        let mut tr = IterTracker::new(StatsSnapshot { cache_lookups: 5, ..Default::default() });
        let e1 = tr.event(
            FixKind::Reach,
            1,
            3,
            3,
            StatsSnapshot { cache_lookups: 15, cache_hits: 2, ..Default::default() },
        );
        let Event::FixpointIter { d_lookups, d_hits, .. } = e1 else { panic!("wrong kind") };
        assert_eq!((d_lookups, d_hits), (10, 2));
        let e2 = tr.event(
            FixKind::Reach,
            2,
            4,
            7,
            StatsSnapshot { cache_lookups: 18, cache_hits: 3, ..Default::default() },
        );
        let Event::FixpointIter { d_lookups, d_hits, .. } = e2 else { panic!("wrong kind") };
        assert_eq!((d_lookups, d_hits), (3, 1));
    }
}
