//! The traced in-process pass: the work one `smc check` does, called
//! layer by layer through each crate's public API, with a span around
//! every call and the BDD manager's counters read at each boundary.
//!
//! The sequence parse -> flatten -> compile (deadlock check deferred)
//! -> reachable -> check_total -> per spec: check, then witness or
//! counterexample is exactly what `smc check [--trace]` runs, so its
//! work counters equal `smc check --stats`.

use std::collections::BTreeMap;
use std::time::Instant;

use smc_bdd::BddManagerStats;
use smc_checker::Checker;
use smc_logic::Ctl;
use smc_obs::Telemetry;
use smc_smv::{compile_module_with_options, flatten, parse, CompileOptions};

use crate::gen::Model;
use crate::metrics::Value;
use crate::stats::median;

/// Spans in memory, written out as a Chrome trace when the pass ends.
pub struct Tracer {
    origin: Instant,
    events: Vec<String>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), events: Vec::new() }
    }

    /// Records one complete span; `parent` names the span that caused it.
    pub fn span(
        &mut self,
        name: &str,
        parent: &str,
        start: Instant,
        end: Instant,
        args: &[(&str, f64)],
    ) {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut fields = format!("\"parent\":\"{}\"", smc_engine::json_escape(parent));
        for (k, v) in args {
            fields.push_str(&format!(",\"{k}\":{v}"));
        }
        let layer = name.split('.').next().unwrap_or(name);
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{{fields}}}}}",
            smc_engine::json_escape(name),
            us(start),
            us(end) - us(start),
        ));
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", self.events.join(",\n"));
        std::fs::write(path, body)
    }
}

/// Per-op kernel counters that gate the image and the boolean algebra.
const OPS: [&str; 6] = ["and", "or", "not", "ite", "and_exists", "exists"];

/// Per-layer totals over a traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub parse_s: f64,
    pub flatten_s: f64,
    pub compile_s: f64,
    pub compile_nodes: u64,
    pub trans_nodes: u64,
    pub reach_s: f64,
    pub reach_created: u64,
    pub reach_lookups: u64,
    pub totality_s: f64,
    pub check_s: f64,
    pub check_created: u64,
    pub check_lookups: u64,
    pub trace_s: f64,
    pub trace_created: u64,
    pub trace_lookups: u64,
    pub trace_states: u64,
    pub cycle_states: u64,
    pub restarts: u64,
    pub created: u64,
    pub lookups: u64,
    pub hits: u64,
    pub evictions: u64,
    pub peak_nodes: u64,
    pub gc_runs: u64,
    pub gc_reclaimed: u64,
    /// Per op of [`OPS`]: (lookups, hits).
    pub ops: [(u64, u64); OPS.len()],
    /// In-process time of everything above.
    pub total_s: f64,
}

/// Traced passes per run: their counters repeat exactly, their times are
/// reported as the median.
pub const PASSES: usize = 3;

/// Runs the traced pass [`PASSES`] times and returns its totals, each
/// time the median over the passes.
pub fn repeat(mut pass: impl FnMut(&mut Layers) -> Result<(), String>) -> Result<Layers, String> {
    let mut runs = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let mut layers = Layers::default();
        pass(&mut layers)?;
        runs.push(layers);
    }
    let mut out = runs[PASSES - 1].clone();
    let times: [fn(&mut Layers) -> &mut f64; 8] = [
        |l| &mut l.parse_s,
        |l| &mut l.flatten_s,
        |l| &mut l.compile_s,
        |l| &mut l.reach_s,
        |l| &mut l.totality_s,
        |l| &mut l.check_s,
        |l| &mut l.trace_s,
        |l| &mut l.total_s,
    ];
    for field in times {
        let samples: Vec<f64> = runs.iter_mut().map(|l| *field(l)).collect();
        *field(&mut out) = median(&samples);
    }
    Ok(out)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// The per-layer metrics this pass measured, by name.
    pub fn metrics(&self) -> BTreeMap<String, Value> {
        let mut m: BTreeMap<String, f64> = [
            ("smv.parse_s", self.parse_s),
            ("smv.flatten_s", self.flatten_s),
            ("smv.compile_s", self.compile_s),
            ("smv.compile_nodes", self.compile_nodes as f64),
            ("smv.trans_nodes", self.trans_nodes as f64),
            ("kripke.reach_s", self.reach_s),
            ("kripke.reach_created_nodes", self.reach_created as f64),
            ("kripke.reach_cache_lookups", self.reach_lookups as f64),
            ("kripke.totality_s", self.totality_s),
            ("checker.check_s", self.check_s),
            ("checker.check_created_nodes", self.check_created as f64),
            ("checker.check_cache_lookups", self.check_lookups as f64),
            ("witness.trace_s", self.trace_s),
            ("witness.trace_created_nodes", self.trace_created as f64),
            ("witness.trace_cache_lookups", self.trace_lookups as f64),
            ("witness.trace_states", self.trace_states as f64),
            ("witness.cycle_states", self.cycle_states as f64),
            ("witness.restarts", self.restarts as f64),
            ("bdd.created_nodes", self.created as f64),
            ("bdd.cache_lookups", self.lookups as f64),
            ("bdd.cache_hit_ratio", ratio(self.hits, self.lookups)),
            ("bdd.cache_evictions", self.evictions as f64),
            ("bdd.peak_nodes", self.peak_nodes as f64),
            ("bdd.gc_runs", self.gc_runs as f64),
            ("bdd.gc_reclaimed", self.gc_reclaimed as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (name, (lookups, hits)) in OPS.iter().zip(self.ops) {
            m.insert(format!("bdd.{name}.lookups"), lookups as f64);
            m.insert(format!("bdd.{name}.hit_ratio"), ratio(hits, lookups));
        }
        m.into_iter().map(|(k, v)| (k, Value::exact(v))).collect()
    }

    /// Folds in the manager's counters at the end of one model.
    fn add_manager(&mut self, s: &BddManagerStats) {
        self.created += s.created_nodes;
        self.lookups += s.cache_lookups;
        self.hits += s.cache_hits;
        self.evictions += s.cache_evictions;
        self.peak_nodes = self.peak_nodes.max(s.peak_nodes as u64);
        self.gc_runs += s.gc_runs;
        self.gc_reclaimed += s.gc_reclaimed;
        for (name, c) in s.per_op() {
            if let Some(k) = OPS.iter().position(|&o| o == name) {
                self.ops[k].0 += c.lookups;
                self.ops[k].1 += c.hits;
            }
        }
    }
}

/// Does the formula contain a temporal operator (so a holding spec gets
/// a witness, as in `Checker::check_with_trace`)?
fn has_temporal(f: &Ctl) -> bool {
    match f {
        Ctl::True | Ctl::False | Ctl::Atom(_) => false,
        Ctl::Not(a) => has_temporal(a),
        Ctl::And(a, b) | Ctl::Or(a, b) | Ctl::Implies(a, b) | Ctl::Iff(a, b) => {
            has_temporal(a) || has_temporal(b)
        }
        _ => true,
    }
}

/// Counter deltas between two readings of one manager.
fn delta(before: &BddManagerStats, after: &BddManagerStats) -> (u64, u64) {
    (after.created_nodes - before.created_nodes, after.cache_lookups - before.cache_lookups)
}

/// Runs `smc check [--trace]`'s work on one model, layer by layer.
pub fn trace_model(
    model: &Model,
    want_trace: bool,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let parent = format!("check {}", model.name);
    let start = Instant::now();

    let t0 = Instant::now();
    let program = parse(&model.source).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let module = flatten(&program).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    // The totality check is timed on its own below, so compile defers it.
    let opts = CompileOptions { allow_deadlock: true, record_branches: false };
    let mut compiled = compile_module_with_options(&module, None, Telemetry::disabled(), opts)
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let after_compile = compiled.model.manager().stats();
    let trans = compiled.model.trans();
    let trans_nodes = compiled.model.manager().size(trans) as u64;
    tracer.span("smv.parse", &parent, t0, t1, &[]);
    tracer.span("smv.flatten", &parent, t1, t2, &[]);
    tracer.span(
        "smv.compile",
        &parent,
        t2,
        t3,
        &[
            ("created_nodes", after_compile.created_nodes as f64),
            ("trans_nodes", trans_nodes as f64),
        ],
    );
    layers.parse_s += (t1 - t0).as_secs_f64();
    layers.flatten_s += (t2 - t1).as_secs_f64();
    layers.compile_s += (t3 - t2).as_secs_f64();
    layers.compile_nodes += after_compile.created_nodes;
    layers.trans_nodes += trans_nodes;

    let t4 = Instant::now();
    compiled.model.reachable().map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    let after_reach = compiled.model.manager().stats();
    compiled.model.check_total().map_err(|e| e.to_string())?;
    let t6 = Instant::now();
    let (created, lookups) = delta(&after_compile, &after_reach);
    tracer.span(
        "kripke.reach",
        &parent,
        t4,
        t5,
        &[("created_nodes", created as f64), ("cache_lookups", lookups as f64)],
    );
    tracer.span("kripke.totality", &parent, t5, t6, &[]);
    layers.reach_s += (t5 - t4).as_secs_f64();
    layers.reach_created += created;
    layers.reach_lookups += lookups;
    layers.totality_s += (t6 - t5).as_secs_f64();

    let specs: Vec<Ctl> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    let mut checker = Checker::new(&mut compiled.model);
    for (k, formula) in specs.iter().enumerate() {
        let before = checker.model().manager().stats();
        let t7 = Instant::now();
        let holds = checker.check(formula).map_err(|e| e.to_string())?.holds();
        let t8 = Instant::now();
        let after_check = checker.model().manager().stats();
        let (created, lookups) = delta(&before, &after_check);
        tracer.span(
            &format!("checker.check {k}"),
            &parent,
            t7,
            t8,
            &[("created_nodes", created as f64), ("cache_lookups", lookups as f64)],
        );
        layers.check_s += (t8 - t7).as_secs_f64();
        layers.check_created += created;
        layers.check_lookups += lookups;

        if !want_trace || (holds && !has_temporal(formula)) {
            continue;
        }
        let trace = if holds { checker.witness(formula) } else { checker.counterexample(formula) }
            .map_err(|e| e.to_string())?;
        let t9 = Instant::now();
        let (created, lookups) = delta(&after_check, &checker.model().manager().stats());
        let restarts = checker.last_witness_stats().map_or(0, |s| s.restarts) as u64;
        tracer.span(
            &format!("witness.{} {k}", if holds { "witness" } else { "counterexample" }),
            &parent,
            t8,
            t9,
            &[
                ("created_nodes", created as f64),
                ("cache_lookups", lookups as f64),
                ("states", trace.len() as f64),
                ("cycle", trace.cycle_len() as f64),
                ("restarts", restarts as f64),
            ],
        );
        layers.trace_s += (t9 - t8).as_secs_f64();
        layers.trace_created += created;
        layers.trace_lookups += lookups;
        layers.trace_states += trace.len() as u64;
        layers.cycle_states += trace.cycle_len() as u64;
        layers.restarts += restarts;
    }
    let end = Instant::now();
    layers.add_manager(&checker.model().manager().stats());
    tracer.span(&parent, "pass", start, end, &[]);
    layers.total_s += (end - start).as_secs_f64();
    Ok(())
}
