//! The event taxonomy and its JSON-lines wire format.
//!
//! ## Schema contract
//!
//! Every record is one JSON object per line with the common required
//! keys `v` (schema version, [`crate::SCHEMA_VERSION`]), `seq`
//! (monotonic sequence number), `t_us` (microseconds since the handle
//! was created) and `kind`. Each kind then carries its own required
//! keys, pinned by the golden test in `tests/schema.rs`:
//!
//! | kind            | required keys |
//! |-----------------|---------------|
//! | `span_start`    | `span`, `name` (+ optional `label`) |
//! | `span_end`      | `span`, `name`, `wall_us`, `live_nodes`, `peak_nodes`, `d_created`, `d_lookups`, `d_hits`, `d_evictions`, `d_gc_runs`, `d_gc_reclaimed` |
//! | `fixpoint_iter` | `phase`, `iteration`, `frontier_size`, `approx_size`, `live_nodes`, `peak_nodes`, `d_lookups`, `d_hits` |
//! | `witness_hop`   | `constraint`, `ring` |
//! | `cycle_close`   | `closed`, `arc_len` |
//! | `restart`       | `count`, `stay_exit`, `frontier` |
//! | `gc`            | `reclaimed`, `live_before`, `live_after` (+ optional `pause_us`) |
//! | `heap_sample`   | `live_nodes`, `free_nodes`, `widest_level`, `widest_width`, `table_len`, `table_slots` |
//! | `ladder`        | `stage` |
//! | `trip`          | `reason` |
//! | `diagnostic`    | `code`, `severity` |
//!
//! Removing or re-typing a required key bumps `v`; new optional keys
//! may appear at any time and consumers must ignore unknown keys.
//!
//! Since 0.9 every record may additionally carry the optional common
//! keys `trace_id` (string) and `worker` (number) — the request-scoped
//! context installed via [`Telemetry::set_trace`](crate::Telemetry::set_trace).
//! Both are optional-by-contract: pre-0.9 traces lack them, and
//! consumers must treat their absence as "no trace context".

use crate::json::Json;
use crate::sink::{EventCtx, TraceTag};
use crate::{StatsDelta, SCHEMA_VERSION};

/// The phases that open spans. One span per invocation: nested calls
/// (an `EU` inside a fair `EG` inside a witness construction) nest
/// their spans, and the profile aggregator attributes self time
/// accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// SMV parse + BDD compilation + load-time totality check.
    Compile,
    /// The reachability fixpoint.
    Reach,
    /// One `Check` evaluation of a specification (ENF dispatch).
    Check,
    /// A `CheckEU` least fixpoint (it records its rings).
    CheckEu,
    /// A `CheckEG` greatest fixpoint (no fairness).
    CheckEg,
    /// The fair-`EG` nested fixpoint (outer loop).
    FairEg,
    /// A post-fixpoint pass that re-recorded the fair-`EG` onion rings.
    /// No longer emitted (the fixpoint saves its own rings); kept so
    /// traces written by older builds still parse.
    FairRings,
    /// Witness / counterexample construction (Section 6).
    Witness,
    /// One static-analysis (lint) pass over a model.
    Lint,
}

/// Every span kind, for consumers that enumerate the taxonomy.
pub const SPAN_KINDS: [SpanKind; 9] = [
    SpanKind::Compile,
    SpanKind::Reach,
    SpanKind::Check,
    SpanKind::CheckEu,
    SpanKind::CheckEg,
    SpanKind::FairEg,
    SpanKind::FairRings,
    SpanKind::Witness,
    SpanKind::Lint,
];

impl SpanKind {
    /// The stable wire name (`"name"` key of span records).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::Reach => "reach",
            SpanKind::Check => "check",
            SpanKind::CheckEu => "check_eu",
            SpanKind::CheckEg => "check_eg",
            SpanKind::FairEg => "fair_eg",
            SpanKind::FairRings => "fair_rings",
            SpanKind::Witness => "witness",
            SpanKind::Lint => "lint",
        }
    }

    /// Inverse of [`name`](SpanKind::name).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SPAN_KINDS.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which fixpoint loop an iteration event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixKind {
    /// The reachability frontier loop.
    Reach,
    /// A `CheckEU` frontier loop (plain or ring-recording).
    Eu,
    /// A `CheckEG` candidate loop.
    Eg,
    /// The outer gfp loop of fair `EG`.
    FairEgOuter,
}

impl FixKind {
    /// The stable wire name (`"phase"` key of iteration records).
    pub fn name(self) -> &'static str {
        match self {
            FixKind::Reach => "reach",
            FixKind::Eu => "eu",
            FixKind::Eg => "eg",
            FixKind::FairEgOuter => "fair_eg_outer",
        }
    }

    /// Inverse of [`name`](FixKind::name).
    pub fn from_name(name: &str) -> Option<FixKind> {
        [FixKind::Reach, FixKind::Eu, FixKind::Eg, FixKind::FairEgOuter]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

impl std::fmt::Display for FixKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One telemetry event. See the module docs for the wire schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A phase opened.
    SpanStart {
        /// Span id, unique within one telemetry handle.
        id: u64,
        /// The phase.
        kind: SpanKind,
        /// Free-form annotation (e.g. the formula being checked).
        label: Option<String>,
    },
    /// A phase closed.
    SpanEnd {
        /// Span id matching the corresponding [`Event::SpanStart`].
        id: u64,
        /// The phase.
        kind: SpanKind,
        /// Wall time the span was open, in microseconds.
        wall_us: u64,
        /// Live nodes at close.
        live_nodes: u64,
        /// Node-pool high-water mark at close.
        peak_nodes: u64,
        /// Counter movement while the span was open.
        delta: StatsDelta,
    },
    /// One iteration of a governed fixpoint loop.
    FixpointIter {
        /// Which loop.
        phase: FixKind,
        /// 1-based iteration index.
        iteration: u64,
        /// BDD size of the frontier / newest ring.
        frontier_size: u64,
        /// BDD size of the current approximation.
        approx_size: u64,
        /// Live nodes after the iteration.
        live_nodes: u64,
        /// Node-pool high-water mark after the iteration.
        peak_nodes: u64,
        /// Computed-table lookups this iteration issued.
        d_lookups: u64,
        /// Computed-table hits this iteration scored.
        d_hits: u64,
    },
    /// The witness search hopped toward the nearest pending fairness
    /// constraint (Section 6 step 2).
    WitnessHop {
        /// Index of the chosen constraint.
        constraint: u64,
        /// Ring index hopped into — the constraint's EU distance.
        ring: u64,
    },
    /// A cycle-closure attempt resolved (Section 6 step 3).
    CycleClose {
        /// Did the closing arc exist?
        closed: bool,
        /// States on the closing arc (0 when not closed).
        arc_len: u64,
    },
    /// The witness search restarted from the frontier state, descending
    /// the SCC DAG (Figure 2); `count` doubles as the descent depth.
    Restart {
        /// Restart number (1-based) = SCC descent depth.
        count: u64,
        /// Did the stay-set strategy cut the attempt short?
        stay_exit: bool,
        /// The frontier state restarted from, as a bit string.
        frontier: String,
    },
    /// A garbage collection ran.
    Gc {
        /// Nodes reclaimed.
        reclaimed: u64,
        /// Live nodes before the collection.
        live_before: u64,
        /// Live nodes after the collection.
        live_after: u64,
        /// Wall time the collection took, in microseconds. Optional on
        /// the wire (absent in pre-0.6 traces, read back as 0).
        pause_us: u64,
    },
    /// A cadence-gated structural heap sample: the cheap (`O(levels)`)
    /// brief the manager can afford at fixpoint-iteration and GC
    /// checkpoints. Deep scans (probe histograms, sift gains) are
    /// on-demand only and never ride the event stream.
    HeapSample {
        /// Live nodes, terminals included.
        live_nodes: u64,
        /// Dead slots on the free list.
        free_nodes: u64,
        /// Level with the most nodes (ties to the upper level).
        widest_level: u64,
        /// Node count of that level.
        widest_width: u64,
        /// Total unique-table entries across every level.
        table_len: u64,
        /// Total unique-table slots across non-empty levels.
        table_slots: u64,
    },
    /// The governor's degradation ladder escalated one step.
    Ladder {
        /// `"gc"`, `"sift"` or `"cache_shrink"`.
        stage: &'static str,
    },
    /// The resource governor tripped.
    Trip {
        /// Human-readable trip reason.
        reason: String,
    },
    /// A static-analysis pass reported a diagnostic.
    Diagnostic {
        /// Stable diagnostic code (`E0xx` / `W0xx`).
        code: String,
        /// `"error"` or `"warning"`.
        severity: &'static str,
    },
}

use crate::json::esc;

impl Event {
    /// The record's `kind` key.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::FixpointIter { .. } => "fixpoint_iter",
            Event::WitnessHop { .. } => "witness_hop",
            Event::CycleClose { .. } => "cycle_close",
            Event::Restart { .. } => "restart",
            Event::Gc { .. } => "gc",
            Event::HeapSample { .. } => "heap_sample",
            Event::Ladder { .. } => "ladder",
            Event::Trip { .. } => "trip",
            Event::Diagnostic { .. } => "diagnostic",
        }
    }

    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self, ctx: &EventCtx) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(&format!("{{\"v\":{SCHEMA_VERSION},\"seq\":{},\"t_us\":{}", ctx.seq, ctx.t_us));
        if let Some(tag) = &ctx.trace {
            s.push_str(",\"trace_id\":\"");
            esc(&mut s, &tag.trace_id);
            s.push_str(&format!("\",\"worker\":{}", tag.worker));
        }
        s.push_str(&format!(",\"kind\":\"{}\"", self.kind_name()));
        match self {
            Event::SpanStart { id, kind, label } => {
                s.push_str(&format!(",\"span\":{id},\"name\":\"{}\"", kind.name()));
                if let Some(l) = label {
                    s.push_str(",\"label\":\"");
                    esc(&mut s, l);
                    s.push('"');
                }
            }
            Event::SpanEnd { id, kind, wall_us, live_nodes, peak_nodes, delta } => {
                s.push_str(&format!(
                    ",\"span\":{id},\"name\":\"{}\",\"wall_us\":{wall_us},\
                     \"live_nodes\":{live_nodes},\"peak_nodes\":{peak_nodes},\
                     \"d_created\":{},\"d_lookups\":{},\"d_hits\":{},\
                     \"d_evictions\":{},\"d_gc_runs\":{},\"d_gc_reclaimed\":{}",
                    kind.name(),
                    delta.created_nodes,
                    delta.cache_lookups,
                    delta.cache_hits,
                    delta.cache_evictions,
                    delta.gc_runs,
                    delta.gc_reclaimed,
                ));
            }
            Event::FixpointIter {
                phase,
                iteration,
                frontier_size,
                approx_size,
                live_nodes,
                peak_nodes,
                d_lookups,
                d_hits,
            } => {
                s.push_str(&format!(
                    ",\"phase\":\"{}\",\"iteration\":{iteration},\
                     \"frontier_size\":{frontier_size},\"approx_size\":{approx_size},\
                     \"live_nodes\":{live_nodes},\"peak_nodes\":{peak_nodes},\
                     \"d_lookups\":{d_lookups},\"d_hits\":{d_hits}",
                    phase.name()
                ));
            }
            Event::WitnessHop { constraint, ring } => {
                s.push_str(&format!(",\"constraint\":{constraint},\"ring\":{ring}"));
            }
            Event::CycleClose { closed, arc_len } => {
                s.push_str(&format!(",\"closed\":{closed},\"arc_len\":{arc_len}"));
            }
            Event::Restart { count, stay_exit, frontier } => {
                s.push_str(&format!(
                    ",\"count\":{count},\"stay_exit\":{stay_exit},\"frontier\":\""
                ));
                esc(&mut s, frontier);
                s.push('"');
            }
            Event::Gc { reclaimed, live_before, live_after, pause_us } => {
                s.push_str(&format!(
                    ",\"reclaimed\":{reclaimed},\"live_before\":{live_before},\
                     \"live_after\":{live_after},\"pause_us\":{pause_us}"
                ));
            }
            Event::HeapSample {
                live_nodes,
                free_nodes,
                widest_level,
                widest_width,
                table_len,
                table_slots,
            } => {
                s.push_str(&format!(
                    ",\"live_nodes\":{live_nodes},\"free_nodes\":{free_nodes},\
                     \"widest_level\":{widest_level},\"widest_width\":{widest_width},\
                     \"table_len\":{table_len},\"table_slots\":{table_slots}"
                ));
            }
            Event::Ladder { stage } => {
                s.push_str(&format!(",\"stage\":\"{stage}\""));
            }
            Event::Trip { reason } => {
                s.push_str(",\"reason\":\"");
                esc(&mut s, reason);
                s.push('"');
            }
            Event::Diagnostic { code, severity } => {
                s.push_str(",\"code\":\"");
                esc(&mut s, code);
                s.push_str(&format!("\",\"severity\":\"{severity}\""));
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSON-lines record back into an event and its context.
    /// Returns `None` for malformed lines, unknown kinds or a schema
    /// version newer than this crate understands.
    pub fn from_json_line(line: &str) -> Option<(EventCtx, Event)> {
        let j = Json::parse(line)?;
        if j.get("v")?.as_u64()? > SCHEMA_VERSION {
            return None;
        }
        let mut ctx = EventCtx::new(j.get("seq")?.as_u64()?, j.get("t_us")?.as_u64()?);
        if let Some(id) = j.get("trace_id").and_then(Json::as_str) {
            ctx.trace = Some(TraceTag {
                trace_id: id.into(),
                worker: j.get("worker").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        let u = |key: &str| j.get(key).and_then(Json::as_u64);
        let event = match j.get("kind")?.as_str()? {
            "span_start" => Event::SpanStart {
                id: u("span")?,
                kind: SpanKind::from_name(j.get("name")?.as_str()?)?,
                label: j.get("label").and_then(Json::as_str).map(str::to_string),
            },
            "span_end" => Event::SpanEnd {
                id: u("span")?,
                kind: SpanKind::from_name(j.get("name")?.as_str()?)?,
                wall_us: u("wall_us")?,
                live_nodes: u("live_nodes")?,
                peak_nodes: u("peak_nodes")?,
                delta: StatsDelta {
                    created_nodes: u("d_created")?,
                    cache_lookups: u("d_lookups")?,
                    cache_hits: u("d_hits")?,
                    cache_evictions: u("d_evictions")?,
                    gc_runs: u("d_gc_runs")?,
                    gc_reclaimed: u("d_gc_reclaimed")?,
                },
            },
            "fixpoint_iter" => Event::FixpointIter {
                phase: FixKind::from_name(j.get("phase")?.as_str()?)?,
                iteration: u("iteration")?,
                frontier_size: u("frontier_size")?,
                approx_size: u("approx_size")?,
                live_nodes: u("live_nodes")?,
                peak_nodes: u("peak_nodes")?,
                d_lookups: u("d_lookups")?,
                d_hits: u("d_hits")?,
            },
            "witness_hop" => Event::WitnessHop { constraint: u("constraint")?, ring: u("ring")? },
            "cycle_close" => {
                Event::CycleClose { closed: j.get("closed")?.as_bool()?, arc_len: u("arc_len")? }
            }
            "restart" => Event::Restart {
                count: u("count")?,
                stay_exit: j.get("stay_exit")?.as_bool()?,
                frontier: j.get("frontier")?.as_str()?.to_string(),
            },
            "gc" => Event::Gc {
                reclaimed: u("reclaimed")?,
                live_before: u("live_before")?,
                live_after: u("live_after")?,
                pause_us: u("pause_us").unwrap_or(0),
            },
            "heap_sample" => Event::HeapSample {
                live_nodes: u("live_nodes")?,
                free_nodes: u("free_nodes")?,
                widest_level: u("widest_level")?,
                widest_width: u("widest_width")?,
                table_len: u("table_len")?,
                table_slots: u("table_slots")?,
            },
            "ladder" => Event::Ladder {
                stage: match j.get("stage")?.as_str()? {
                    "gc" => "gc",
                    "sift" => "sift",
                    "cache_shrink" => "cache_shrink",
                    _ => return None,
                },
            },
            "trip" => Event::Trip { reason: j.get("reason")?.as_str()?.to_string() },
            "diagnostic" => Event::Diagnostic {
                code: j.get("code")?.as_str()?.to_string(),
                severity: match j.get("severity")?.as_str()? {
                    "error" => "error",
                    "warning" => "warning",
                    _ => return None,
                },
            },
            _ => return None,
        };
        Some((ctx, event))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn roundtrip(event: Event) {
        let ctx = EventCtx::new(7, 1234);
        let line = event.to_json_line(&ctx);
        let (ctx2, back) =
            Event::from_json_line(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
        assert_eq!((ctx2.seq, ctx2.t_us), (7, 1234), "{line}");
        assert_eq!(ctx2.trace, None, "{line}");
        assert_eq!(back, event, "{line}");
    }

    #[test]
    fn trace_context_round_trips_and_is_optional() {
        let event = Event::WitnessHop { constraint: 2, ring: 5 };
        let tagged = EventCtx::new(9, 88).with_trace("deadbeef01234567".into(), 3);
        let line = event.to_json_line(&tagged);
        assert!(line.contains("\"trace_id\":\"deadbeef01234567\""), "{line}");
        assert!(line.contains("\"worker\":3"), "{line}");
        let (ctx, back) = Event::from_json_line(&line).unwrap();
        assert_eq!(ctx, tagged, "{line}");
        assert_eq!(back, event);
        // Untagged lines (every pre-0.9 trace) still parse, trace-less.
        let (plain, _) = Event::from_json_line(&event.to_json_line(&EventCtx::new(9, 88))).unwrap();
        assert_eq!(plain.trace, None);
    }

    #[test]
    fn every_event_kind_round_trips() {
        roundtrip(Event::SpanStart { id: 3, kind: SpanKind::Compile, label: None });
        roundtrip(Event::SpanStart {
            id: 4,
            kind: SpanKind::Check,
            label: Some("AG \"x\" \\ y".into()),
        });
        roundtrip(Event::SpanEnd {
            id: 3,
            kind: SpanKind::FairRings,
            wall_us: 99,
            live_nodes: 1000,
            peak_nodes: 2000,
            delta: StatsDelta {
                created_nodes: 1,
                cache_lookups: 2,
                cache_hits: 3,
                cache_evictions: 4,
                gc_runs: 5,
                gc_reclaimed: 6,
            },
        });
        roundtrip(Event::FixpointIter {
            phase: FixKind::FairEgOuter,
            iteration: 12,
            frontier_size: 34,
            approx_size: 56,
            live_nodes: 78,
            peak_nodes: 90,
            d_lookups: 11,
            d_hits: 10,
        });
        roundtrip(Event::WitnessHop { constraint: 2, ring: 5 });
        roundtrip(Event::CycleClose { closed: true, arc_len: 7 });
        roundtrip(Event::Restart { count: 1, stay_exit: true, frontier: "0101".into() });
        roundtrip(Event::Gc { reclaimed: 100, live_before: 300, live_after: 200, pause_us: 42 });
        roundtrip(Event::HeapSample {
            live_nodes: 120,
            free_nodes: 8,
            widest_level: 3,
            widest_width: 40,
            table_len: 118,
            table_slots: 256,
        });
        roundtrip(Event::Ladder { stage: "cache_shrink" });
        roundtrip(Event::Trip { reason: "deadline expired after 1s".into() });
        roundtrip(Event::Diagnostic { code: "W010".into(), severity: "warning" });
    }

    #[test]
    fn span_names_are_bijective() {
        for kind in SPAN_KINDS {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }
}
