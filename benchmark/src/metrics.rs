//! Metric definitions, the per-workload report, and `compare`.

use std::collections::BTreeMap;

use smc_obs::Json;

use crate::stats::quantile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Absolute change `compare` always accepts, in the metric's unit.
    pub floor: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, floor: 0.0 }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    def(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of `smc` sees, measured from outside the process with
/// tracing off. An operation is one pass over the eight circuits
/// (`witness`), one `smc check` (`reach`), one `smc batch` manifest
/// (`batch`) or one request (`serve`). The timing bounds are wide
/// because on a shared host the speed of the same work drifts by 10-25%
/// over tens of seconds (see README.md); memory use does not drift.
pub const END_TO_END: [Def; 3] = [
    def("latency_p50_ms", "ms", Lower, 0.25),
    def("peak_rss_mb", "MiB", Lower, 0.10),
    // Set-up takes 3-30 ms, which host noise alone moves by more than
    // the bound between two runs; `compare` ignores changes under 50 ms.
    Def { floor: 0.05, ..def("setup_s", "s", Lower, 0.25) },
];

/// What the traced in-process pass and the client side measure, by
/// layer (named after the crates).
pub const PER_LAYER: [Def; 53] = [
    layer("smv.parse_s", "s", Lower),
    layer("smv.flatten_s", "s", Lower),
    layer("smv.compile_s", "s", Lower),
    layer("smv.compile_nodes", "count", Lower),
    layer("smv.trans_nodes", "count", Lower),
    layer("kripke.reach_s", "s", Lower),
    layer("kripke.reach_created_nodes", "count", Lower),
    layer("kripke.reach_cache_lookups", "count", Lower),
    layer("kripke.totality_s", "s", Lower),
    layer("checker.check_s", "s", Lower),
    layer("checker.check_created_nodes", "count", Lower),
    layer("checker.check_cache_lookups", "count", Lower),
    layer("witness.trace_s", "s", Lower),
    layer("witness.trace_created_nodes", "count", Lower),
    layer("witness.trace_cache_lookups", "count", Lower),
    layer("witness.trace_states", "count", Lower),
    layer("witness.cycle_states", "count", Lower),
    layer("witness.restarts", "count", Lower),
    layer("bdd.created_nodes", "count", Lower),
    layer("bdd.cache_lookups", "count", Lower),
    layer("bdd.cache_hit_ratio", "ratio", Higher),
    layer("bdd.cache_evictions", "count", Lower),
    layer("bdd.peak_nodes", "count", Lower),
    layer("bdd.gc_runs", "count", Lower),
    layer("bdd.gc_reclaimed", "count", Lower),
    layer("bdd.and.lookups", "count", Lower),
    layer("bdd.and.hit_ratio", "ratio", Higher),
    layer("bdd.or.lookups", "count", Lower),
    layer("bdd.or.hit_ratio", "ratio", Higher),
    layer("bdd.not.lookups", "count", Lower),
    layer("bdd.not.hit_ratio", "ratio", Higher),
    layer("bdd.ite.lookups", "count", Lower),
    layer("bdd.ite.hit_ratio", "ratio", Higher),
    layer("bdd.and_exists.lookups", "count", Lower),
    layer("bdd.and_exists.hit_ratio", "ratio", Higher),
    layer("bdd.exists.lookups", "count", Lower),
    layer("bdd.exists.hit_ratio", "ratio", Higher),
    layer("engine.batch_s", "s", Lower),
    layer("engine.job_p50_ms", "ms", Lower),
    layer("engine.cache_hit_ratio", "ratio", Higher),
    layer("engine.reach_iters", "count", Lower),
    layer("engine.pool_idle_share", "ratio", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.latency_p90_ms", "ms", Lower),
    layer("serve.queue_wait_p90_ms", "ms", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.generator_late_ms", "ms", Lower),
    layer("serve.latency_p99_ms", "ms", Lower),
    layer("serve.high_p90_ms", "ms", Lower),
    layer("serve.max_rate_rps", "req/s", Higher),
    layer("process.cpu_per_op_ms", "ms", Lower),
    layer("process.unattributed_s", "s", Lower),
];

/// Counters that repeat exactly on one seed and must not move in a
/// change that claims only speed.
pub fn is_exact_counter(name: &str) -> bool {
    name.ends_with("_created_nodes")
        || name.ends_with("_cache_lookups")
        || name == "bdd.created_nodes"
        || name == "bdd.cache_lookups"
        || name == "witness.trace_states"
        || name == "witness.cycle_states"
        || name == "witness.restarts"
}

/// A metric's value and the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Value {
    /// A single reading.
    pub fn exact(value: f64) -> Value {
        Value { value, n: 1, p25: value, p75: value }
    }

    /// The `p`-quantile of `samples`, with their quartiles, all times
    /// `scale`.
    pub fn quantile(samples: &[f64], p: f64, scale: f64) -> Value {
        Value {
            value: quantile(samples, p) * scale,
            n: samples.len(),
            p25: quantile(samples, 0.25) * scale,
            p75: quantile(samples, 0.75) * scale,
        }
    }

    /// Quartile spread as a share of the value.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25).abs() / self.value.abs()
        }
    }
}

/// One workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<String, Value>,
    pub per_layer: BTreeMap<String, Value>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name).map_or("", |d| d.unit)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn values_json(values: &BTreeMap<String, Value>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{},\"p25\":{},\"p75\":{}}}",
                unit_of(k),
                num(v.value),
                v.n,
                num(v.p25),
                num(v.p75)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn values_from(json: Option<&Json>) -> Result<BTreeMap<String, Value>, String> {
    let Some(Json::Obj(fields)) = json else { return Err("missing metrics object".into()) };
    fields
        .iter()
        .map(|(k, v)| {
            let f = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let n = v.get("n").and_then(Json::as_u64).unwrap_or(0) as usize;
            Ok((k.clone(), Value { value: f("value"), n, p25: f("p25"), p75: f("p75") }))
        })
        .collect()
}

impl Report {
    pub fn to_json(&self) -> String {
        let failures: Vec<String> =
            self.failures.iter().map(|f| format!("\"{}\"", smc_engine::json_escape(f))).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"end_to_end\":{},\"per_layer\":{}}}",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            failures.join(","),
            values_json(&self.end_to_end),
            values_json(&self.per_layer)
        )
    }

    pub fn from_json(json: &Json) -> Result<Report, String> {
        let field = |k: &str| json.get(k).ok_or_else(|| format!("report without {k}"));
        Ok(Report {
            workload: field("workload")?.as_str().ok_or("bad workload")?.to_string(),
            seed: field("seed")?.as_u64().ok_or("bad seed")?,
            attempted: field("attempted")?.as_u64().ok_or("bad attempted")?,
            failed: field("failed")?.as_u64().ok_or("bad failed")?,
            failures: match field("failures")? {
                Json::Arr(a) => a.iter().filter_map(|f| f.as_str().map(str::to_string)).collect(),
                _ => Vec::new(),
            },
            end_to_end: values_from(json.get("end_to_end"))?,
            per_layer: values_from(json.get("per_layer"))?,
        })
    }

    /// The benchmark's result line: the end-to-end metrics, or with
    /// `traced` the per-layer ones.
    pub fn result_line(&self, traced: bool) -> String {
        let values = if traced { &self.per_layer } else { &self.end_to_end };
        let fields: Vec<String> = values
            .iter()
            .map(|(k, v)| {
                format!("\"{k}\":{{\"value\":{},\"unit\":\"{}\"}}", num(v.value), unit_of(k))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(",")
        )
    }

    /// One `workload name unit value n p25 p75` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|(k, v)| {
                format!(
                    "{:<8} {k:<30} {:<6} {:>14.6} {:>5} {:>14.6} {:>14.6}",
                    self.workload,
                    unit_of(k),
                    v.value,
                    v.n,
                    v.p25,
                    v.p75
                )
            })
            .collect()
    }
}

/// Reads a `run` result file: `{"seed":N,"workloads":[report, ...]}`.
pub fn read_run(path: &str) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    let Some(Json::Arr(items)) = json.get("workloads") else {
        return Err(format!("{path}: no workloads array"));
    };
    items.iter().map(Report::from_json).collect()
}

pub fn write_run(path: &std::path::Path, seed: u64, reports: &[Report]) -> std::io::Result<()> {
    let items: Vec<String> = reports.iter().map(Report::to_json).collect();
    std::fs::write(path, format!("{{\"seed\":{seed},\"workloads\":[\n{}\n]}}\n", items.join(",\n")))
}

/// Compares two `run` results, workload by workload. Returns the table
/// and whether B is acceptable: no end-to-end metric worse than its
/// bound, no failed operation, and (on one seed) every exact counter
/// unchanged.
pub fn compare(a: &[Report], b: &[Report]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    out.push_str(&format!(
        "{:<8} {:<16} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  result\n",
        "workload", "metric", "A median", "A p25-p75", "B median", "B p25-p75", "delta", "bound"
    ));
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            out.push_str(&format!("{}: missing from B\n", ra.workload));
            ok = false;
            continue;
        };
        for d in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.end_to_end.get(d.name), rb.end_to_end.get(d.name))
            else {
                out.push_str(&format!("{:<8} {:<16} missing\n", ra.workload, d.name));
                ok = false;
                continue;
            };
            let change = (vb.value - va.value) / va.value;
            let worse_by = if d.better == Better::Lower { change } else { -change };
            let label = if (vb.value - va.value).abs() <= d.floor {
                "same"
            } else if va.spread().max(vb.spread()) > d.bound {
                "unresolved"
            } else if worse_by > d.bound {
                ok = false;
                "worse"
            } else if worse_by < -d.bound {
                "better"
            } else {
                "same"
            };
            out.push_str(&format!(
                "{:<8} {:<16} {:>12.4} {:>12} {:>12.4} {:>12} {:>+7.1}% {:>5.0}%  {label}\n",
                ra.workload,
                d.name,
                va.value,
                format!("{:.4}-{:.4}", va.p25, va.p75),
                vb.value,
                format!("{:.4}-{:.4}", vb.p25, vb.p75),
                change * 100.0,
                d.bound * 100.0
            ));
        }
        if rb.failed > 0 {
            out.push_str(&format!(
                "{:<8} B failed {} of {} operations\n",
                rb.workload, rb.failed, rb.attempted
            ));
            ok = false;
        }
        if ra.seed != rb.seed {
            out.push_str(&format!(
                "{:<8} seeds differ: exact counters not compared\n",
                ra.workload
            ));
            continue;
        }
        for (name, va) in ra.per_layer.iter().filter(|(k, _)| is_exact_counter(k)) {
            match rb.per_layer.get(name) {
                Some(vb) if vb.value == va.value => {}
                other => {
                    let got = other.map_or_else(|| "missing".to_string(), |v| v.value.to_string());
                    out.push_str(&format!(
                        "{:<8} exact counter {name} moved: {} -> {got}\n",
                        ra.workload, va.value
                    ));
                    ok = false;
                }
            }
        }
    }
    (out, ok)
}
