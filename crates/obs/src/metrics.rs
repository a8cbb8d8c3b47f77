//! The metrics registry: counters, gauges and log-bucketed histograms
//! with JSON and Prometheus text-format exposition.
//!
//! A [`Metrics`] handle is the write side: cheap to clone (all clones
//! share one registry), free when disabled (the default), and attached
//! to a [`Telemetry`](crate::Telemetry) handle so the span/event stream
//! folds into it automatically ([`Metrics::fold_event`]). Layers that
//! know numbers the event stream does not carry (the BDD manager's
//! per-operation cache counters, the model's reachable-state count, a
//! finished witness trace's length) record them directly.
//!
//! ## Series model
//!
//! A series is a metric name plus an ordered label set, e.g.
//! `smc_fixpoint_iterations_total{phase="reach"}`. Three kinds:
//!
//! - **counter** — monotonically increasing `u64` (rendered with the
//!   `_total` suffix convention),
//! - **gauge** — a point-in-time `f64`,
//! - **histogram** — log-2-bucketed distribution (`le` bounds 1, 2, 4,
//!   8, …) with sum and count, the cheap fixed-size shape for values
//!   spanning orders of magnitude (BDD sizes, hop distances, GC pauses).
//!
//! Exposition is deterministic: series are sorted by name, then labels.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::esc;
use crate::{lock, Event};

/// Version stamped into the JSON exposition as `"schema"`.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// A series key: metric name plus ordered label pairs.
type SeriesKey = (String, Vec<(String, String)>);

/// Number of log-2 buckets a histogram carries (`le` 1 … 2^63, +Inf).
const HIST_BUCKETS: usize = 64;

#[derive(Debug, Clone)]
struct Hist {
    /// `counts[i]` tallies values in `(2^(i-1), 2^i]`; bucket 0 is
    /// `[0, 1]`.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: vec![0; HIST_BUCKETS], sum: 0, count: 0 }
    }
}

impl Hist {
    fn observe(&mut self, v: u64) {
        let idx = if v <= 1 { 0 } else { (64 - (v - 1).leading_zeros()) as usize };
        self.counts[idx.min(HIST_BUCKETS - 1)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.count += 1;
    }

    /// Highest bucket index holding a value (0 when empty).
    fn top_bucket(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    hists: BTreeMap<SeriesKey, Hist>,
}

/// Help strings for the metric vocabulary, emitted as `# HELP` lines.
/// Append-only: external scrape configs may reference these names.
const HELP: &[(&str, &str)] = &[
    ("smc_spans_total", "Spans closed, by phase."),
    ("smc_span_wall_us", "Span wall time in microseconds, by phase."),
    ("smc_fixpoint_iterations_total", "Fixpoint iterations completed, by loop."),
    ("smc_fixpoint_frontier_nodes", "Frontier BDD size per fixpoint iteration, by loop."),
    ("smc_fixpoint_approx_nodes", "Approximation BDD size per fixpoint iteration, by loop."),
    ("smc_witness_hops_total", "Witness-search hops toward a fairness constraint."),
    ("smc_witness_hop_ring", "EU ring distance of each witness hop."),
    ("smc_witness_cycle_attempts_total", "Cycle-closure attempts, by outcome."),
    ("smc_witness_cycle_arc_states", "States on each closed cycle arc."),
    ("smc_witness_restarts_total", "Witness-search restarts, by exit kind."),
    ("smc_witness_trace_states", "States in each finished witness or counterexample trace."),
    ("smc_witness_cycle_states", "Cycle states in each finished lasso trace."),
    ("smc_gc_runs_total", "Garbage collections run."),
    ("smc_gc_reclaimed_nodes_total", "Nodes reclaimed by garbage collection."),
    ("smc_gc_pause_us", "Garbage-collection pause in microseconds."),
    ("smc_governor_ladder_steps_total", "Degradation-ladder escalations, by stage."),
    ("smc_governor_trips_total", "Resource-governor trips."),
    ("smc_diagnostics_total", "Lint diagnostics reported, by severity."),
    ("smc_bdd_live_nodes", "Live BDD nodes at snapshot time."),
    ("smc_bdd_peak_nodes", "High-water mark of the BDD node pool."),
    ("smc_bdd_created_nodes_total", "Total BDD nodes ever created."),
    ("smc_cache_lookups_total", "Computed-table lookups, by operation."),
    ("smc_cache_hits_total", "Computed-table hits, by operation."),
    ("smc_cache_evictions_total", "Computed-table evictions, by operation."),
    ("smc_bdd_cache_capacity", "Computed-table capacity in entries."),
    ("smc_model_state_bits", "State variables (bits) of the model."),
    ("smc_model_fairness_constraints", "Fairness constraints of the model."),
    ("smc_model_reachable_states", "Reachable states (when computed)."),
    ("smc_model_trans_nodes", "BDD size of the transition relation."),
    ("smc_batch_jobs_total", "Batch jobs finished, by outcome."),
    ("smc_batch_job_wall_us", "Per-job wall time in microseconds."),
    ("smc_batch_queue_depth", "Jobs waiting in the batch job queue."),
    ("smc_batch_jobs_in_flight", "Jobs currently executing on workers."),
    ("smc_batch_cache_hits_total", "Warm-start artifact cache hits."),
    ("smc_batch_cache_misses_total", "Warm-start artifact cache misses."),
    ("smc_batch_cache_evictions_total", "Warm-start artifacts evicted by the LRU size cap."),
    (
        "smc_batch_cache_corrupt_total",
        "Persisted artifacts that failed verification and were deleted.",
    ),
    ("smc_serve_requests_total", "Serve requests executed, by outcome."),
    ("smc_serve_request_wall_us", "Per-request execution wall time in microseconds."),
    ("smc_serve_queue_depth", "Admitted requests waiting for a worker."),
    ("smc_serve_in_flight", "Requests currently executing on serve workers."),
    ("smc_serve_admitted_total", "Requests admitted to the serve queue."),
    ("smc_serve_rejected_total", "Requests rejected at admission, by reason."),
    ("smc_serve_drains_total", "Graceful drains completed."),
    ("smc_serve_watchdog_trips_total", "In-flight jobs cancelled by the serve watchdog."),
    ("smc_serve_quarantine_hits_total", "Requests refused because their source is quarantined."),
    ("smc_serve_inflight_age_us", "Age in microseconds of the oldest in-flight serve request."),
    ("smc_recorder_events_total", "Telemetry events captured by flight recorders."),
    ("smc_recorder_dropped_total", "Flight-recorder events overwritten because a ring was full."),
    ("smc_recorder_dumps_total", "Flight-recorder black-box dumps written."),
    ("smc_bdd_level_nodes", "Live BDD nodes per variable level, by level."),
    ("smc_bdd_table_load", "Unique-table load factor (entries over slots of non-empty tables)."),
    ("smc_bdd_longest_probe", "Longest unique-table probe chain (slots from home)."),
    ("smc_bdd_probe_length", "Unique-table probe distances at snapshot time."),
];

/// The first metric name registered more than once in `table`, if any.
/// Split out from [`help_table`] so the rejection logic itself has a
/// unit test against a deliberately bad table.
fn duplicate_help_name<'a>(table: &[(&'a str, &str)]) -> Option<&'a str> {
    table
        .iter()
        .enumerate()
        .find(|(i, (name, _))| table[..*i].iter().any(|(n, _)| n == name))
        .map(|(_, (name, _))| *name)
}

/// The HELP table, validated once per process: a duplicate metric name
/// is rejected at registration time (first use panics naming the
/// offender) instead of silently emitting two `# HELP` lines for one
/// series and leaving scrapers to pick a winner.
fn help_table() -> &'static [(&'static str, &'static str)] {
    static CHECKED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    CHECKED.get_or_init(|| {
        if let Some(name) = duplicate_help_name(HELP) {
            panic!("duplicate HELP registration for metric {name:?}");
        }
    });
    HELP
}

fn help_for(name: &str) -> Option<&'static str> {
    help_table().iter().find(|(n, _)| *n == name).map(|(_, h)| *h)
}

/// The registered help string for a metric name, if the name is part of
/// the stable vocabulary. Public so schema tests (and external tooling)
/// can pin the vocabulary without scraping an exposition.
pub fn metric_help(name: &str) -> Option<&'static str> {
    help_for(name)
}

/// The metrics write handle. Disabled (the default) every method is a
/// no-op behind one branch; enabled, all clones share one registry.
/// The handle is `Send + Sync`: one registry can collect fleet-level
/// series from many worker threads at once (each write takes a short
/// mutex critical section).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<Registry>>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    (name.to_string(), labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect())
}

impl Metrics {
    /// An enabled handle with an empty registry.
    pub fn new() -> Metrics {
        Metrics { inner: Some(Arc::new(Mutex::new(Registry::default()))) }
    }

    /// The disabled (no-op) handle; same as `Metrics::default()`.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// Will recorded values be kept? The fast guard for call sites whose
    /// payload is expensive to compute (BDD sizing, state counting).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds to a counter series (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let Some(inner) = &self.inner {
            *lock(inner).counters.entry(key(name, labels)).or_insert(0) += v;
        }
    }

    /// Sets a counter series to an absolute value — for end-of-run
    /// snapshots of counters owned elsewhere (the BDD manager's), which
    /// are authoritative over any incrementally folded approximation.
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).counters.insert(key(name, labels), v);
        }
    }

    /// Sets a gauge series.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(inner) = &self.inner {
            lock(inner).gauges.insert(key(name, labels), v);
        }
    }

    /// Records one observation into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).hists.entry(key(name, labels)).or_default().observe(v);
        }
    }

    /// Reads a counter back (0 when absent); for tests and reports.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| lock(i).counters.get(&key(name, labels)).copied())
            .unwrap_or(0)
    }

    /// Reads a gauge back; for tests and reports.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.inner.as_ref().and_then(|i| lock(i).gauges.get(&key(name, labels)).copied())
    }

    /// Reads a histogram's `(count, sum)` back; for tests and reports.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<(u64, u64)> {
        self.inner
            .as_ref()
            .and_then(|i| lock(i).hists.get(&key(name, labels)).map(|h| (h.count, h.sum)))
    }

    /// Folds one telemetry event into the registry. Called by the
    /// [`Telemetry`](crate::Telemetry) handle for every event, so a
    /// metrics-enabled run derives its iteration counts, size
    /// distributions and witness-search tallies from the same stream
    /// the trace file records.
    pub fn fold_event(&self, event: &Event) {
        if !self.enabled() {
            return;
        }
        match event {
            Event::SpanStart { .. } => {}
            Event::SpanEnd { kind, wall_us, .. } => {
                let span = [("span", kind.name())];
                self.counter_add("smc_spans_total", &span, 1);
                self.observe("smc_span_wall_us", &span, *wall_us);
            }
            Event::FixpointIter { phase, frontier_size, approx_size, .. } => {
                let phase = [("phase", phase.name())];
                self.counter_add("smc_fixpoint_iterations_total", &phase, 1);
                self.observe("smc_fixpoint_frontier_nodes", &phase, *frontier_size);
                self.observe("smc_fixpoint_approx_nodes", &phase, *approx_size);
            }
            Event::WitnessHop { ring, .. } => {
                self.counter_add("smc_witness_hops_total", &[], 1);
                self.observe("smc_witness_hop_ring", &[], *ring);
            }
            Event::CycleClose { closed, arc_len } => {
                let outcome = [("closed", if *closed { "true" } else { "false" })];
                self.counter_add("smc_witness_cycle_attempts_total", &outcome, 1);
                if *closed {
                    self.observe("smc_witness_cycle_arc_states", &[], *arc_len);
                }
            }
            Event::Restart { stay_exit, .. } => {
                let exit = [("stay_exit", if *stay_exit { "true" } else { "false" })];
                self.counter_add("smc_witness_restarts_total", &exit, 1);
            }
            Event::Gc { reclaimed, pause_us, .. } => {
                self.counter_add("smc_gc_runs_total", &[], 1);
                self.counter_add("smc_gc_reclaimed_nodes_total", &[], *reclaimed);
                self.observe("smc_gc_pause_us", &[], *pause_us);
            }
            Event::HeapSample {
                live_nodes,
                widest_level,
                widest_width,
                table_len,
                table_slots,
                ..
            } => {
                self.gauge_set("smc_bdd_live_nodes", &[], *live_nodes as f64);
                if *table_slots > 0 {
                    self.gauge_set(
                        "smc_bdd_table_load",
                        &[],
                        *table_len as f64 / *table_slots as f64,
                    );
                }
                let level = widest_level.to_string();
                self.gauge_set(
                    "smc_bdd_level_nodes",
                    &[("level", level.as_str())],
                    *widest_width as f64,
                );
            }
            Event::Ladder { stage } => {
                self.counter_add("smc_governor_ladder_steps_total", &[("stage", stage)], 1);
            }
            Event::Trip { .. } => {
                self.counter_add("smc_governor_trips_total", &[], 1);
            }
            Event::Diagnostic { severity, .. } => {
                self.counter_add("smc_diagnostics_total", &[("severity", severity)], 1);
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, one series per
    /// line, histograms as cumulative `_bucket{le=…}` series plus
    /// `_sum` / `_count`. Deterministic: series sort by name, then
    /// labels.
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else { return String::new() };
        let r = lock(inner);
        let mut out = String::new();
        let mut names: Vec<(&String, &str)> = Vec::new();
        names.extend(r.counters.keys().map(|(n, _)| (n, "counter")));
        names.extend(r.gauges.keys().map(|(n, _)| (n, "gauge")));
        names.extend(r.hists.keys().map(|(n, _)| (n, "histogram")));
        names.sort();
        names.dedup();
        for (name, ty) in names {
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP {name} {help}\n"));
            }
            out.push_str(&format!("# TYPE {name} {ty}\n"));
            match ty {
                "counter" => {
                    for ((n, labels), v) in r.counters.range(range_of(name)) {
                        debug_assert_eq!(n, name);
                        out.push_str(&format!("{name}{} {v}\n", render_labels(labels, None)));
                    }
                }
                "gauge" => {
                    for ((_, labels), v) in r.gauges.range(range_of(name)) {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            fmt_f64(*v)
                        ));
                    }
                }
                _ => {
                    for ((_, labels), h) in r.hists.range(range_of(name)) {
                        let top = h.top_bucket();
                        let mut cumulative = 0;
                        for (i, c) in h.counts.iter().enumerate().take(top + 1) {
                            cumulative += c;
                            let le = if i == 0 { 1u64 } else { 1u64 << i };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                render_labels(labels, Some(&le.to_string()))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            render_labels(labels, Some("+Inf")),
                            h.count
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, None),
                            h.sum
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, None),
                            h.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object (schema-versioned), the
    /// machine-readable sibling of [`render_prometheus`](Self::render_prometheus).
    pub fn render_json(&self) -> String {
        let Some(inner) = &self.inner else { return "{}".to_string() };
        let r = lock(inner);
        let mut out = String::from("{");
        out.push_str(&format!("\"schema\":{METRICS_SCHEMA_VERSION},\"counters\":["));
        let mut first = true;
        for ((name, labels), v) in &r.counters {
            push_sep(&mut out, &mut first);
            out.push_str(&format!("{{{},\"value\":{v}}}", json_series(name, labels)));
        }
        out.push_str("],\"gauges\":[");
        let mut first = true;
        for ((name, labels), v) in &r.gauges {
            push_sep(&mut out, &mut first);
            out.push_str(&format!("{{{},\"value\":{}}}", json_series(name, labels), fmt_f64(*v)));
        }
        out.push_str("],\"histograms\":[");
        let mut first = true;
        for ((name, labels), h) in &r.hists {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{{},\"count\":{},\"sum\":{},\"buckets\":[",
                json_series(name, labels),
                h.count,
                h.sum
            ));
            let top = h.top_bucket();
            let mut first_bucket = true;
            let mut cumulative = 0;
            for (i, c) in h.counts.iter().enumerate().take(top + 1) {
                cumulative += c;
                push_sep(&mut out, &mut first_bucket);
                let le = if i == 0 { 1u64 } else { 1u64 << i };
                out.push_str(&format!("{{\"le\":{le},\"count\":{cumulative}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the human `--stats` table from the registry — the same
    /// series [`render_prometheus`](Self::render_prometheus) exposes, so
    /// `--stats` and `--metrics` report from one source of truth.
    pub fn render_stats(&self) -> String {
        let pct = |hits: u64, lookups: u64| {
            if lookups == 0 {
                0.0
            } else {
                100.0 * hits as f64 / lookups as f64
            }
        };
        let mut out = String::from("-- bdd manager stats --\n");
        out.push_str(&format!(
            "nodes           : {} live, {} peak, {} created\n",
            fmt_f64(self.gauge("smc_bdd_live_nodes", &[]).unwrap_or(0.0)),
            fmt_f64(self.gauge("smc_bdd_peak_nodes", &[]).unwrap_or(0.0)),
            self.counter("smc_bdd_created_nodes_total", &[])
        ));
        // Per-op cache traffic; the aggregate line is the sum over ops.
        let ops = self.label_values("smc_cache_lookups_total", "op");
        let mut totals = (0u64, 0u64, 0u64);
        let mut op_lines = String::new();
        for op in &ops {
            let labels = [("op", op.as_str())];
            let lookups = self.counter("smc_cache_lookups_total", &labels);
            let hits = self.counter("smc_cache_hits_total", &labels);
            let evictions = self.counter("smc_cache_evictions_total", &labels);
            totals = (totals.0 + lookups, totals.1 + hits, totals.2 + evictions);
            if lookups == 0 {
                continue;
            }
            op_lines.push_str(&format!(
                "  {op:<11}: {lookups} lookups, {hits} hits ({:.1}%), {evictions} evictions\n",
                pct(hits, lookups)
            ));
        }
        out.push_str(&format!(
            "computed table  : {} lookups, {} hits ({:.1}%), {} evictions\n",
            totals.0,
            totals.1,
            pct(totals.1, totals.0),
            totals.2
        ));
        out.push_str(&op_lines);
        if let Some(capacity) = self.gauge("smc_bdd_cache_capacity", &[]) {
            out.push_str(&format!("cache capacity  : {} entries\n", fmt_f64(capacity)));
        }
        // Unique-table health, present once a heap snapshot populated
        // the gauges (the manager's end-of-run record is authoritative).
        if let Some(load) = self.gauge("smc_bdd_table_load", &[]) {
            out.push_str(&format!("unique tables   : {load:.3} load factor\n"));
            out.push_str(&format!(
                "longest probe   : {} slots from home\n",
                fmt_f64(self.gauge("smc_bdd_longest_probe", &[]).unwrap_or(0.0))
            ));
        }
        out.push_str(&format!(
            "gc              : {} runs, {} nodes reclaimed\n",
            self.counter("smc_gc_runs_total", &[]),
            self.counter("smc_gc_reclaimed_nodes_total", &[])
        ));
        out
    }

    /// The distinct values label `label` takes on series of `name`, in
    /// registry (sorted) order.
    fn label_values(&self, name: &str, label: &str) -> Vec<String> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let r = lock(inner);
        let mut vals: Vec<String> = r
            .counters
            .range(range_of(name))
            .filter_map(|((_, labels), _)| {
                labels.iter().find(|(k, _)| k == label).map(|(_, v)| v.clone())
            })
            .collect();
        vals.dedup();
        vals
    }
}

/// The range of series keys whose name is exactly `name`.
fn range_of(name: &str) -> std::ops::RangeInclusive<SeriesKey> {
    (name.to_string(), Vec::new())
        ..=(name.to_string(), vec![(String::from("\u{10FFFF}"), String::new())])
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// `{k="v",…}` with an optional trailing `le`; empty label set with no
/// `le` renders as the empty string.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        push_sep(&mut out, &mut first);
        out.push_str(k);
        out.push_str("=\"");
        esc(&mut out, v);
        out.push('"');
    }
    if let Some(le) = le {
        push_sep(&mut out, &mut first);
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// `"name":"…","labels":{…}` for the JSON exposition.
fn json_series(name: &str, labels: &[(String, String)]) -> String {
    let mut out = String::from("\"name\":\"");
    esc(&mut out, name);
    out.push_str("\",\"labels\":{");
    let mut first = true;
    for (k, v) in labels {
        push_sep(&mut out, &mut first);
        out.push('"');
        esc(&mut out, k);
        out.push_str("\":\"");
        esc(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Gauges are f64 but almost always hold integral values; render those
/// without a fractional part so the exposition (and the heap snapshot's
/// JSON) stays diff-friendly.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::FixKind;

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        m.counter_add("x", &[], 1);
        m.observe("y", &[], 5);
        assert_eq!(m.counter("x", &[]), 0);
        assert_eq!(m.render_prometheus(), "");
        assert_eq!(m.render_json(), "{}");
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.counter_add("smc_witness_hops_total", &[], 2);
        m2.counter_add("smc_witness_hops_total", &[], 3);
        assert_eq!(m.counter("smc_witness_hops_total", &[]), 5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let m = Metrics::new();
        for v in [0, 1, 2, 3, 4, 5, 1000] {
            m.observe("smc_witness_hop_ring", &[], v);
        }
        assert_eq!(m.histogram("smc_witness_hop_ring", &[]), Some((7, 1015)));
        let text = m.render_prometheus();
        // 0 and 1 land in le="1"; 2 in le="2"; 3 and 4 in le="4";
        // 5 in le="8"; 1000 in le="1024". Buckets are cumulative.
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"4\"} 5"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"8\"} 6"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"1024\"} 7"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_bucket{le=\"+Inf\"} 7"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_sum 1015"), "{text}");
        assert!(text.contains("smc_witness_hop_ring_count 7"), "{text}");
    }

    #[test]
    fn fold_event_derives_series_from_the_stream() {
        let m = Metrics::new();
        m.fold_event(&Event::FixpointIter {
            phase: FixKind::Reach,
            iteration: 1,
            frontier_size: 12,
            approx_size: 30,
            live_nodes: 100,
            peak_nodes: 120,
            d_lookups: 5,
            d_hits: 2,
        });
        m.fold_event(&Event::WitnessHop { constraint: 0, ring: 3 });
        m.fold_event(&Event::CycleClose { closed: true, arc_len: 7 });
        m.fold_event(&Event::Gc { reclaimed: 10, live_before: 30, live_after: 20, pause_us: 55 });
        assert_eq!(m.counter("smc_fixpoint_iterations_total", &[("phase", "reach")]), 1);
        assert_eq!(m.counter("smc_witness_hops_total", &[]), 1);
        assert_eq!(m.counter("smc_witness_cycle_attempts_total", &[("closed", "true")]), 1);
        assert_eq!(m.counter("smc_gc_reclaimed_nodes_total", &[]), 10);
        assert_eq!(m.histogram("smc_gc_pause_us", &[]), Some((1, 55)));
        assert_eq!(
            m.histogram("smc_fixpoint_frontier_nodes", &[("phase", "reach")]),
            Some((1, 12))
        );
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_typed() {
        let m = Metrics::new();
        m.counter_add("smc_cache_lookups_total", &[("op", "or")], 7);
        m.counter_add("smc_cache_lookups_total", &[("op", "and")], 3);
        m.gauge_set("smc_bdd_live_nodes", &[], 42.0);
        let text = m.render_prometheus();
        let expected = "\
# HELP smc_bdd_live_nodes Live BDD nodes at snapshot time.
# TYPE smc_bdd_live_nodes gauge
smc_bdd_live_nodes 42
# HELP smc_cache_lookups_total Computed-table lookups, by operation.
# TYPE smc_cache_lookups_total counter
smc_cache_lookups_total{op=\"and\"} 3
smc_cache_lookups_total{op=\"or\"} 7
";
        assert_eq!(text, expected);
        assert_eq!(text, m.render_prometheus(), "rendering must be stable");
    }

    #[test]
    fn json_exposition_parses_back() {
        let m = Metrics::new();
        m.counter_add("smc_witness_hops_total", &[], 4);
        m.gauge_set("smc_model_state_bits", &[], 9.0);
        m.observe("smc_span_wall_us", &[("span", "reach")], 100);
        let j = crate::Json::parse(&m.render_json()).unwrap();
        assert_eq!(j.get("schema").unwrap().as_u64(), Some(METRICS_SCHEMA_VERSION));
        let crate::Json::Arr(counters) = j.get("counters").unwrap() else { panic!("counters") };
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(4));
        let crate::Json::Arr(hists) = j.get("histograms").unwrap() else { panic!("histograms") };
        assert_eq!(hists[0].get("sum").unwrap().as_u64(), Some(100));
        assert_eq!(hists[0].get("labels").unwrap().get("span").unwrap().as_str(), Some("reach"));
    }

    #[test]
    fn help_registration_rejects_duplicate_names() {
        // The shipped table must be clean (this also primes the
        // OnceLock so every later lookup is a plain linear scan)…
        assert_eq!(duplicate_help_name(help_table()), None);
        // …and the checker itself must catch a duplicate registration
        // instead of letting two HELP lines ship for one series.
        let bad = [
            ("smc_a_total", "first"),
            ("smc_b_total", "fine"),
            ("smc_a_total", "second registration"),
        ];
        assert_eq!(duplicate_help_name(&bad), Some("smc_a_total"));
    }

    #[test]
    fn recorder_and_inflight_series_have_pinned_help() {
        for name in [
            "smc_serve_inflight_age_us",
            "smc_recorder_events_total",
            "smc_recorder_dropped_total",
            "smc_recorder_dumps_total",
        ] {
            assert!(metric_help(name).is_some(), "missing HELP for {name}");
        }
    }

    #[test]
    fn stats_table_reports_from_the_registry() {
        let m = Metrics::new();
        m.gauge_set("smc_bdd_live_nodes", &[], 10.0);
        m.gauge_set("smc_bdd_peak_nodes", &[], 20.0);
        m.counter_set("smc_bdd_created_nodes_total", &[], 30);
        m.counter_set("smc_cache_lookups_total", &[("op", "and")], 100);
        m.counter_set("smc_cache_hits_total", &[("op", "and")], 40);
        m.counter_set("smc_cache_evictions_total", &[("op", "and")], 1);
        m.counter_set("smc_cache_lookups_total", &[("op", "xor")], 0);
        m.counter_set("smc_gc_runs_total", &[], 2);
        m.counter_set("smc_gc_reclaimed_nodes_total", &[], 500);
        m.gauge_set("smc_bdd_table_load", &[], 0.625);
        m.gauge_set("smc_bdd_longest_probe", &[], 3.0);
        let text = m.render_stats();
        assert!(text.contains("-- bdd manager stats --"), "{text}");
        assert!(text.contains("10 live, 20 peak, 30 created"), "{text}");
        assert!(text.contains("100 lookups, 40 hits (40.0%), 1 evictions"), "{text}");
        assert!(!text.contains("xor"), "zero-traffic ops are hidden: {text}");
        assert!(text.contains("2 runs, 500 nodes reclaimed"), "{text}");
        assert!(text.contains("unique tables   : 0.625 load factor"), "{text}");
        assert!(text.contains("longest probe   : 3 slots from home"), "{text}");
    }

    #[test]
    fn heap_sample_folds_into_the_table_gauges() {
        let m = Metrics::new();
        m.fold_event(&Event::HeapSample {
            live_nodes: 120,
            free_nodes: 8,
            widest_level: 3,
            widest_width: 40,
            table_len: 118,
            table_slots: 236,
        });
        assert_eq!(m.gauge("smc_bdd_live_nodes", &[]), Some(120.0));
        assert_eq!(m.gauge("smc_bdd_table_load", &[]), Some(0.5));
        assert_eq!(m.gauge("smc_bdd_level_nodes", &[("level", "3")]), Some(40.0));
    }
}
