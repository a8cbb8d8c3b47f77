//! `batch`: one `smc batch --jobs 2 --json` over a seeded manifest per
//! operation. Three quarters of the jobs repeat a source (warm-start
//! cache hits after the first), one quarter are unique variants (cold
//! compiles), so the engine pool, the cache and compile dominate while
//! kernel work stays light.

use std::collections::BTreeMap;
use std::time::Instant;

use smc_engine::{run_batch, EngineConfig, JobOutcome};
use smc_obs::Json;

use crate::gen::{self, Job, Model};
use crate::metrics::Value;
use crate::output;
use crate::process::{self, Usage};
use crate::replay::Interp;
use crate::runner::{check_exit, time_setup, timed_loop, Ctx, Measured, Tally};
use crate::stats::median;
use crate::traced::{self, Tracer};

/// Engine workers, in the process and in the traced pass.
const WORKERS: usize = 2;

/// The file the `k`-th job's model is written to. Every job has a file
/// of its own: a repeated source is a copy under another name (still a
/// cache hit, which keys on content), since `smc batch` warns about
/// manifest lines naming the same file twice.
fn file_name(pool: &[Model], job: &Job, k: usize) -> String {
    format!("{}-{k}.smv", pool[job.model].name)
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Measured, String> {
    let total = if ctx.quick { 8 } else { 96 };
    let tag = ctx.seed.to_string();
    let mut pool: Vec<Model> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let setup_s = time_setup(|| {
        pool = gen::pool(&ctx.key);
        jobs = gen::batch_jobs(pool.len(), total, ctx.seed);
        let mut files: Vec<(String, String)> = jobs
            .iter()
            .enumerate()
            .map(|(k, job)| (file_name(&pool, job, k), job.source(&pool, &tag)))
            .collect();
        let manifest: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        let manifest = manifest.join("\n") + "\n";
        files.push(("manifest.txt".to_string(), manifest));
        ctx.write_inputs(files.iter().map(|(k, v)| (k.clone(), v.as_str())))?;
        ctx.probe_check()
    })?;
    let interps: Vec<Interp> =
        pool.iter().map(|m| Interp::new(&m.source)).collect::<Result<_, _>>()?;
    let want_exit =
        jobs.iter().map(|j| output::expected_exit(&j.expected(&pool))).max().unwrap_or(0);

    let mut pass = |usage: &mut Usage| -> Result<f64, String> {
        let run = process::run(ctx.smc().args([
            "batch",
            "--jobs",
            &WORKERS.to_string(),
            "--json",
            "manifest.txt",
        ]))
        .map_err(|e| format!("smc batch: {e}"))?;
        usage.add(run.usage);
        let report = check_exit(&run.status, want_exit).and_then(|()| {
            let json = Json::parse(&run.stdout).ok_or("report is not JSON")?;
            match json.get("jobs") {
                Some(Json::Arr(items)) if items.len() == jobs.len() => Ok(items.clone()),
                _ => Err("report does not list every job".to_string()),
            }
        });
        match report {
            Ok(items) => {
                for (k, (job, got)) in jobs.iter().zip(&items).enumerate() {
                    let result =
                        output::verify_job(&job.expected(&pool), got, &interps[job.model], false);
                    tally.record(&file_name(&pool, job, k), result);
                }
            }
            Err(e) => {
                for (k, job) in jobs.iter().enumerate() {
                    tally.record(&file_name(&pool, job, k), Err(e.clone()));
                }
            }
        }
        Ok(run.wall.as_secs_f64())
    };
    pass(&mut Usage::default())?;
    let mut usage = Usage::default();
    let walls = timed_loop(ctx.seconds, || pass(&mut usage))?;

    let mut layers = BTreeMap::new();
    let mut unattributed_s = None;
    if ctx.traced {
        let mut tracer = Tracer::new();
        let l = traced::repeat(|l| {
            pool.iter().try_for_each(|m| traced::trace_model(m, false, &mut tracer, l))
        })?;
        layers = l.metrics();

        // The manifest's jobs through the engine in process, each run
        // next to a process pass so both are timed at the same speed.
        let engine_jobs: Vec<smc_engine::Job> = jobs
            .iter()
            .enumerate()
            .map(|(k, j)| smc_engine::Job {
                name: file_name(&pool, j, k),
                source: j.source(&pool, &tag),
                spec: None,
            })
            .collect();
        let cfg = EngineConfig { workers: WORKERS, ..EngineConfig::default() };
        let (mut adjacent, mut batch_walls, mut results) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..traced::PASSES {
            adjacent.push(pass(&mut Usage::default())?);
            let start = Instant::now();
            results = run_batch(engine_jobs.clone(), &cfg);
            let end = Instant::now();
            tracer.span("engine.run_batch", "pass", start, end, &[("jobs", results.len() as f64)]);
            batch_walls.push((end - start).as_secs_f64());
        }
        if let Some(r) = results.iter().find(|r| !matches!(r.outcome, JobOutcome::Checked { .. })) {
            return Err(format!("in-process batch: {} ended {}", r.name, r.outcome.label()));
        }
        let batch_s = median(&batch_walls);
        let last_wall = batch_walls[batch_walls.len() - 1];
        let job_walls: Vec<f64> = results.iter().map(|r| r.wall_us as f64 * 1e-6).collect();
        let busy: f64 = job_walls.iter().sum();
        let hits = results.iter().filter(|r| r.cache_hit).count() as f64;
        let reach_iters: u64 = results.iter().map(|r| r.reach_iters).sum();
        ctx.write_trace(&tracer)?;
        for (name, value) in [
            ("engine.batch_s", Value::quantile(&batch_walls, 0.5, 1.0)),
            ("engine.job_p50_ms", Value::quantile(&job_walls, 0.5, 1e3)),
            ("engine.cache_hit_ratio", Value::exact(hits / results.len() as f64)),
            ("engine.reach_iters", Value::exact(reach_iters as f64)),
            ("engine.pool_idle_share", Value::exact(1.0 - busy / (WORKERS as f64 * last_wall))),
        ] {
            layers.insert(name.to_string(), value);
        }
        unattributed_s = Some(median(&adjacent) - batch_s);
    }
    tally.cross_check(&pool, &ctx.cross_checked);
    Ok(Measured { setup_s, ops: walls.len(), walls, usage, unattributed_s, layers })
}
