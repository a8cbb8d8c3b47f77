//! The benchmark observatory behind `smc bench`.
//!
//! Runs a fixed menu of model families — the SMV demo models and the
//! paper's circuit workloads — for N repetitions each, timing the four
//! standard phases (`compile`, `reach`, `check`, `witness`) and
//! snapshotting the deterministic workload counters, and returns
//! [`FamilyRecord`]s in the ledger schema of
//! [`smc_obs::Ledger`]. The caller (the CLI) wraps
//! them in a [`RunRecord`](smc_obs::RunRecord) with the commit hash and
//! timestamp and gates against a stored baseline.
//!
//! The SMV sources are embedded at build time so the benchmark is
//! hermetic: it measures the binary it lives in, never the checkout it
//! happens to run from.

use std::time::Instant;

use smc_checker::Checker;
use smc_circuits::arbiter::seitz_arbiter;
use smc_circuits::families::inverter_ring;
use smc_circuits::FairnessMode;
use smc_kripke::SymbolicModel;
use smc_logic::ctl;
use smc_obs::{FamilyRecord, PhaseRecord, Telemetry};

const MUTEX_SMV: &str = include_str!("../../../models/mutex.smv");
const ARBITER2_SMV: &str = include_str!("../../../models/arbiter2.smv");
const COUNTER8_SMV: &str = include_str!("../../../models/counter8.smv");

/// Every family the observatory knows, in run order: the two SMV demo
/// models, the paper's Seitz arbiter (counterexample-bearing liveness
/// spec), the same circuit exported with `Netlist::to_smv` and compiled
/// by the SMV front end (its free scheduler input `sel` puts the
/// input split of the transition relation on the preimage path), a 9-stage
/// inverter ring (witness-bearing reset spec), and the parallel
/// engine's batch throughput workload.
pub const ALL_FAMILIES: &[&str] = &["mutex", "arbiter2", "seitz", "seitz_smv", "ring9", "batch"];

/// The `seitz` family's liveness spec, shared by the `seitz_smv` export.
const SEITZ_SPEC: &str = "AG (tr1 -> AF ta1)";

/// Jobs in the batch family's manifest. Large enough that every worker
/// of the pool takes several jobs, small enough for a sub-second
/// repetition.
const BATCH_JOBS: usize = 16;

/// Configuration for one observatory run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Repetitions per family (best-of-N gates; the median is recorded
    /// alongside for trend reading).
    pub repetitions: u64,
    /// Attach a live telemetry handle (JSON-lines sink into a null
    /// writer) to every benchmarked manager, measuring the worst-case
    /// enabled path instead of the disabled default.
    pub telemetry: bool,
    /// Attach a flight-recorder ring (the `smc serve` black-box
    /// capture) to every benchmarked manager, so the recorder's
    /// overhead over the disabled default can be gated. Composes with
    /// `telemetry`; the batch family runs its jobs with the engine's
    /// per-job recorder instead.
    pub recorder: bool,
    /// Ask every batch job for a final heap brief
    /// ([`EngineConfig::heap`](smc_engine::EngineConfig)) on top of the
    /// cadence-gated samples that ride any enabled telemetry, so the
    /// batch walls measure the whole heap-observatory lane. Implies
    /// nothing by itself on families that never enable telemetry;
    /// compose with `recorder` for the A/B the stress drill gates.
    pub heap: bool,
    /// Families to run; empty means [`ALL_FAMILIES`].
    pub families: Vec<String>,
    /// Test hook: inflate every measured wall time by this percentage
    /// after measuring, so the regression gate can be exercised without
    /// actually burning time. 0 in real runs.
    pub inject_slowdown_pct: f64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            repetitions: 5,
            telemetry: false,
            recorder: false,
            heap: false,
            families: Vec::new(),
            inject_slowdown_pct: 0.0,
        }
    }
}

/// Wall seconds for the four phases of one repetition.
#[derive(Debug, Clone, Copy, Default)]
struct RepTimes {
    compile: f64,
    reach: f64,
    check: f64,
    witness: f64,
}

/// Runs the configured families and returns one [`FamilyRecord`] per
/// family, in menu order regardless of the order names were given in.
///
/// # Errors
///
/// A description of the failure: an unknown family name, or a model
/// that failed to build or check (both indicate a broken build, not a
/// performance regression — the CLI maps them to exit 2).
pub fn run(config: &BenchConfig) -> Result<Vec<FamilyRecord>, String> {
    let reps = config.repetitions.max(1);
    let selected: Vec<&str> = if config.families.is_empty() {
        ALL_FAMILIES.to_vec()
    } else {
        for name in &config.families {
            if !ALL_FAMILIES.contains(&name.as_str()) {
                return Err(format!(
                    "unknown family '{name}' (known: {})",
                    ALL_FAMILIES.join(", ")
                ));
            }
        }
        ALL_FAMILIES.iter().copied().filter(|f| config.families.iter().any(|n| n == f)).collect()
    };
    let mut out = Vec::with_capacity(selected.len());
    for name in selected {
        if name == "batch" {
            out.push(run_batch_family(reps, config)?);
            continue;
        }
        let mut times = Vec::with_capacity(reps as usize);
        let mut counters = Vec::new();
        for _ in 0..reps {
            let (t, c) = run_family_once(name, config)?;
            times.push(t);
            counters = c;
        }
        let phases = [
            ("compile", times.iter().map(|t| t.compile).collect::<Vec<_>>()),
            ("reach", times.iter().map(|t| t.reach).collect()),
            ("check", times.iter().map(|t| t.check).collect()),
            ("witness", times.iter().map(|t| t.witness).collect()),
        ]
        .into_iter()
        .map(|(phase, walls)| phase_record(phase, &walls, config.inject_slowdown_pct))
        .collect();
        out.push(FamilyRecord {
            name: name.to_string(),
            phases,
            counters,
            throughput_jobs_per_s: None,
        });
    }
    Ok(out)
}

/// The batch family's fixed 16-job manifest: the embedded SMV models in
/// a repeating mix, so neighbouring jobs differ and the pool's workers
/// take uneven units.
fn batch_jobs() -> Vec<smc_engine::Job> {
    let menu = [("mutex", MUTEX_SMV), ("arbiter2", ARBITER2_SMV), ("counter8", COUNTER8_SMV)];
    (0..BATCH_JOBS)
        .map(|i| {
            let (name, source) = menu[i % menu.len()];
            smc_engine::Job {
                name: format!("{name}-{i:02}"),
                source: source.to_string(),
                spec: None,
            }
        })
        .collect()
}

/// One timed pass of the 16-job manifest on `workers` workers, caching
/// off so every job does its full, deterministic amount of work. With
/// `recorder` on, every job carries the serve-default flight-recorder
/// ring, so the batch walls measure the recorder's capture overhead —
/// which, since the ring enables telemetry, includes the cadence-gated
/// heap samples. `heap` additionally requests the per-job heap brief.
fn timed_batch(workers: usize, recorder: bool, heap: bool) -> (f64, Vec<smc_engine::JobResult>) {
    let cfg = smc_engine::EngineConfig {
        workers,
        use_cache: false,
        recorder_cap: if recorder { smc_obs::DEFAULT_RECORDER_CAP } else { 0 },
        heap,
        ..smc_engine::EngineConfig::default()
    };
    let t = Instant::now();
    let results = smc_engine::run_batch(batch_jobs(), &cfg);
    (t.elapsed().as_secs_f64(), results)
}

/// The `batch` family: the manifest at `--jobs 1` and `--jobs 4`,
/// best-of-N walls for both, per-job exact counters, and the derived
/// `throughput_jobs_per_s` metric (jobs over the best parallel wall).
///
/// Every repetition cross-checks the two schedules: any verdict or work
/// counter that differs between one worker and four is a determinism
/// bug and fails the run outright (exit 2 at the CLI), not a gate.
fn run_batch_family(reps: u64, config: &BenchConfig) -> Result<FamilyRecord, String> {
    let mut walls1 = Vec::with_capacity(reps as usize);
    let mut walls4 = Vec::with_capacity(reps as usize);
    let mut counters = Vec::new();
    for _ in 0..reps {
        let (w1, r1) = timed_batch(1, config.recorder, config.heap);
        let (w4, r4) = timed_batch(4, config.recorder, config.heap);
        if r1.len() != BATCH_JOBS || r4.len() != BATCH_JOBS {
            return Err(format!("batch: expected {BATCH_JOBS} results"));
        }
        for (a, b) in r1.iter().zip(&r4) {
            if a.outcome != b.outcome
                || a.cache_lookups != b.cache_lookups
                || a.created_nodes != b.created_nodes
            {
                return Err(format!(
                    "batch: job {} differs between --jobs 1 and --jobs 4 \
                     (determinism bug, not a regression)",
                    a.name
                ));
            }
        }
        walls1.push(w1);
        walls4.push(w4);
        counters = r1
            .iter()
            .flat_map(|r| {
                [
                    (format!("job{:02}_cache_lookups", r.index), r.cache_lookups),
                    (format!("job{:02}_created_nodes", r.index), r.created_nodes),
                ]
            })
            .collect();
    }
    let phases = [("jobs1", walls1), ("jobs4", walls4)]
        .into_iter()
        .map(|(phase, walls)| phase_record(phase, &walls, config.inject_slowdown_pct))
        .collect::<Vec<_>>();
    let throughput = BATCH_JOBS as f64 / phases[1].best_s.max(1e-9);
    Ok(FamilyRecord {
        name: "batch".to_string(),
        phases,
        counters,
        throughput_jobs_per_s: Some(throughput),
    })
}

/// One repetition of one family: a fresh model, the four timed phases,
/// and the end-of-run counter snapshot.
fn run_family_once(
    name: &str,
    config: &BenchConfig,
) -> Result<(RepTimes, Vec<(String, u64)>), String> {
    let instrumented = config.telemetry || config.recorder;
    let mut times = RepTimes::default();
    let model = match name {
        "mutex" | "arbiter2" | "seitz_smv" => {
            let source = match name {
                "mutex" => MUTEX_SMV.to_string(),
                "arbiter2" => ARBITER2_SMV.to_string(),
                _ => seitz_arbiter().netlist.to_smv() + &format!("SPEC {SEITZ_SPEC}\n"),
            };
            let tele = if instrumented { bench_telemetry(config) } else { Telemetry::disabled() };
            let t0 = Instant::now();
            let compiled =
                smc_smv::compile_with(&source, None, tele).map_err(|e| format!("{name}: {e}"))?;
            times.compile = t0.elapsed().as_secs_f64();
            let specs: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
            let mut model = compiled.model;
            times.reach = timed_reach(&mut model, name)?;
            let mut checker = Checker::new(&mut model);
            let t2 = Instant::now();
            for spec in &specs {
                checker.check(spec).map_err(|e| format!("{name}: {e}"))?;
            }
            times.check = t2.elapsed().as_secs_f64();
            let t3 = Instant::now();
            for spec in &specs {
                checker.check_with_trace(spec).map_err(|e| format!("{name}: {e}"))?;
            }
            times.witness = t3.elapsed().as_secs_f64();
            model
        }
        "seitz" | "ring9" => {
            let t0 = Instant::now();
            let mut model = if name == "seitz" {
                seitz_arbiter().build().map_err(|e| format!("{name}: {e}"))?
            } else {
                inverter_ring(9).build(FairnessMode::PerGate).map_err(|e| format!("{name}: {e}"))?
            };
            times.compile = t0.elapsed().as_secs_f64();
            if instrumented {
                model.manager_mut().set_telemetry(bench_telemetry(config));
            }
            let spec = if name == "seitz" {
                ctl::parse(SEITZ_SPEC).map_err(|e| format!("{name}: {e}"))?
            } else {
                ctl::parse("AG (EF inv0)").map_err(|e| format!("{name}: {e}"))?
            };
            times.reach = timed_reach(&mut model, name)?;
            let mut checker = Checker::new(&mut model);
            let t2 = Instant::now();
            checker.check(&spec).map_err(|e| format!("{name}: {e}"))?;
            times.check = t2.elapsed().as_secs_f64();
            let t3 = Instant::now();
            checker.check_with_trace(&spec).map_err(|e| format!("{name}: {e}"))?;
            times.witness = t3.elapsed().as_secs_f64();
            model
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    // Fresh manager per repetition, so the snapshot of any single
    // repetition is the same — counters gate exactly in the ledger.
    let stats = model.manager().stats();
    let counters = vec![
        ("cache_lookups".to_string(), stats.cache_lookups),
        ("created_nodes".to_string(), stats.created_nodes),
    ];
    Ok((times, counters))
}

fn timed_reach(model: &mut SymbolicModel, name: &str) -> Result<f64, String> {
    let t = Instant::now();
    model.reachable_count().map_err(|e| format!("{name}: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// A live telemetry handle carrying the configured instrumentation:
/// with `telemetry`, a JSON-lines sink into a null writer (the full
/// serialization cost is paid, nothing is kept — the worst-case
/// enabled configuration the overhead budget is measured against);
/// with `recorder`, a serve-default flight-recorder ring (the
/// always-on black-box capture whose overhead the stress gate bounds).
fn bench_telemetry(config: &BenchConfig) -> Telemetry {
    let tele = Telemetry::new();
    if config.telemetry {
        tele.add_sink(Box::new(smc_obs::JsonlSink::new(std::io::sink())));
    }
    if config.recorder {
        tele.add_sink(Box::new(smc_obs::Recorder::new(smc_obs::DEFAULT_RECORDER_CAP)));
    }
    tele
}

/// The ledger record of one phase from its repetitions' walls: best and
/// median, inflated by `slowdown_pct` (the `--inject-slowdown` test hook;
/// 0 in real runs).
fn phase_record(phase: &str, walls: &[f64], slowdown_pct: f64) -> PhaseRecord {
    let scale = 1.0 + slowdown_pct / 100.0;
    PhaseRecord {
        phase: phase.to_string(),
        median_s: median(walls) * scale,
        best_s: best(walls) * scale,
    }
}

/// Minimum over repetitions: scheduling and frequency noise only ever
/// inflate a wall time, so the minimum is the most repeatable estimate
/// of the true cost.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median over repetitions (mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unknown_family_is_rejected() {
        let config = BenchConfig { families: vec!["warp_core".into()], ..BenchConfig::default() };
        let err = run(&config).unwrap_err();
        assert!(err.contains("warp_core"), "{err}");
        assert!(err.contains("mutex"), "error lists the known families: {err}");
    }

    #[test]
    fn mutex_family_produces_the_four_phases_and_counters() {
        let config = BenchConfig {
            repetitions: 1,
            families: vec!["mutex".into()],
            ..BenchConfig::default()
        };
        let families = run(&config).unwrap();
        assert_eq!(families.len(), 1);
        let fam = &families[0];
        assert_eq!(fam.name, "mutex");
        let phases: Vec<&str> = fam.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["compile", "reach", "check", "witness"]);
        for p in &fam.phases {
            assert!(p.best_s >= 0.0 && p.best_s.is_finite());
            assert!(p.median_s >= p.best_s - 1e-12, "median never beats the best");
        }
        let names: Vec<&str> = fam.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["cache_lookups", "created_nodes"]);
        assert!(fam.counters.iter().all(|(_, v)| *v > 0), "the workload does real BDD work");
    }

    #[test]
    fn counters_are_deterministic_across_repetitions() {
        let config = BenchConfig {
            repetitions: 1,
            families: vec!["ring9".into()],
            ..BenchConfig::default()
        };
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a[0].counters, b[0].counters);
    }

    #[test]
    fn injected_slowdown_scales_the_recorded_times() {
        // Fixed walls, exactly representable, so ×11 is exact: the
        // scaling is checked apart from any measurement.
        let walls = [0.5, 0.125, 0.25];
        let plain = phase_record("check", &walls, 0.0);
        assert_eq!((plain.best_s, plain.median_s), (0.125, 0.25));
        let slowed = phase_record("check", &walls, 1000.0);
        assert_eq!(slowed.phase, "check");
        assert_eq!((slowed.best_s, slowed.median_s), (1.375, 2.75));
        // An even count takes the mean of the middle two.
        let even = phase_record("jobs1", &[0.5, 0.25], 1000.0);
        assert_eq!((even.best_s, even.median_s), (2.75, 4.125));
    }

    #[test]
    fn batch_family_records_throughput_and_per_job_counters() {
        let config = BenchConfig {
            repetitions: 1,
            families: vec!["batch".into()],
            ..BenchConfig::default()
        };
        let families = run(&config).unwrap();
        assert_eq!(families.len(), 1);
        let fam = &families[0];
        assert_eq!(fam.name, "batch");
        let phases: Vec<&str> = fam.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["jobs1", "jobs4"]);
        let tp = fam.throughput_jobs_per_s.expect("batch carries the derived metric");
        assert!(tp > 0.0 && tp.is_finite());
        // 16 jobs, two exact counters each.
        assert_eq!(fam.counters.len(), 32);
        assert!(fam.counters.iter().all(|(_, v)| *v > 0));
        // A second run reproduces every per-job counter exactly — this
        // is what lets the ledger gate them with no tolerance.
        let again = run(&config).unwrap();
        assert_eq!(fam.counters, again[0].counters);
    }

    #[test]
    fn family_selection_filters_and_keeps_menu_order() {
        let config = BenchConfig {
            repetitions: 1,
            families: vec!["ring9".into(), "mutex".into()],
            ..BenchConfig::default()
        };
        let families = run(&config).unwrap();
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["mutex", "ring9"], "menu order, not request order");
    }
}
