//! `witness` and `reach`: one client in a closed loop, running one
//! `smc check` process after another.
//!
//! `witness` runs `smc check --trace` over eight circuits per pass, so
//! witness construction dominates. `reach` runs `smc check` (no trace)
//! on the three-user arbiter, so reachability dominates and the witness
//! layer does no work.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::gen::{self, Model};
use crate::output;
use crate::process::{self, Usage};
use crate::replay::Interp;
use crate::runner::{check_exit, time_setup, timed_loop, Ctx, Measured, Tally, Workload};
use crate::stats::median;
use crate::traced::{self, Tracer};

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Measured, String> {
    let with_trace = ctx.workload == Workload::Witness;
    let mut models: Vec<Model> = Vec::new();
    let setup_s = time_setup(|| {
        models = if with_trace {
            gen::witness_models(&ctx.key, ctx.seed, ctx.quick)
        } else {
            vec![gen::reach_model(&ctx.key, ctx.seed, ctx.quick)]
        };
        ctx.write_inputs(models.iter().map(|m| (format!("{}.smv", m.name), m.source.as_str())))?;
        ctx.probe_check()
    })?;
    let interps: Vec<Interp> =
        models.iter().map(|m| Interp::new(&m.source)).collect::<Result<_, _>>()?;
    // Output already verified per model: a byte-identical rerun passes
    // without replaying its traces again.
    let mut verified: Vec<Option<String>> = vec![None; models.len()];

    let mut pass = |usage: &mut Usage| -> Result<f64, String> {
        let start = Instant::now();
        let mut runs = Vec::with_capacity(models.len());
        for m in &models {
            let mut cmd = ctx.smc();
            cmd.arg("check");
            if with_trace {
                cmd.arg("--trace");
            }
            cmd.arg(format!("{}.smv", m.name));
            runs.push(process::run(&mut cmd).map_err(|e| format!("smc check {}: {e}", m.name))?);
        }
        let wall = start.elapsed().as_secs_f64();
        for (k, run) in runs.into_iter().enumerate() {
            usage.add(run.usage);
            let result = if verified[k].as_deref() == Some(run.stdout.as_str()) {
                Ok(())
            } else {
                let expected: Vec<_> = models[k].specs.iter().collect();
                let checked = check_exit(&run.status, output::expected_exit(&expected))
                    .and_then(|()| output::parse_check(&run.stdout))
                    .and_then(|got| output::verify(&expected, &got, &interps[k], with_trace));
                if checked.is_ok() {
                    verified[k] = Some(run.stdout);
                }
                checked
            };
            tally.record(&models[k].name, result);
        }
        Ok(wall)
    };
    pass(&mut Usage::default())?;
    let mut usage = Usage::default();
    let walls = timed_loop(ctx.seconds, || pass(&mut usage))?;

    let mut layers = BTreeMap::new();
    let mut unattributed_s = None;
    if ctx.traced {
        let mut tracer = Tracer::new();
        // A process pass next to each traced pass, so the two are timed
        // at the same machine speed.
        let mut adjacent = Vec::new();
        let l = traced::repeat(|l| {
            adjacent.push(pass(&mut Usage::default())?);
            models.iter().try_for_each(|m| traced::trace_model(m, with_trace, &mut tracer, l))
        })?;
        ctx.write_trace(&tracer)?;
        layers = l.metrics();
        unattributed_s = Some(median(&adjacent) - l.total_s);
    }
    tally.cross_check(&models, &ctx.cross_checked);
    Ok(Measured { setup_s, ops: walls.len(), walls, usage, unattributed_s, layers })
}
