//! Job descriptions, per-job execution, and per-job results.
//!
//! [`run_job`](crate::job::run_job) is the body a worker thread runs:
//! compile (or warm-start) the model on a fresh manager, install a
//! fresh per-job governor, check every requested spec, and map any
//! governor trip or input problem to a structured [`JobOutcome`] — a
//! job never panics the pool and never exits the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_bdd::Budget;
use smc_checker::{CheckError, Checker, CycleStrategy, Phase};
use smc_kripke::KripkeError;
use smc_logic::ctl::Ctl;
use smc_obs::{Event, EventCtx, FixKind, Metrics, Recorder, Sink, Telemetry};
use smc_smv::{
    compile_module_with_options, flatten, parse, CompileOptions, CompiledModel, Module, SmvError,
};

use crate::cache::{fnv_update, source_key, ArtifactCache, DEFAULT_CACHE_CAP};

/// Derives the deterministic trace id a job gets when the client did
/// not supply one: an FNV-1a fold of the sequence number over the
/// source content key, rendered as 16 hex digits. Depends only on
/// (source, seq) — two runs of the same manifest assign identical ids,
/// whatever the worker count or schedule.
pub fn derive_trace_id(source_key: u64, seq: u64) -> String {
    format!("{:016x}", fnv_update(source_key, &seq.to_le_bytes()))
}

/// One unit of work: a model source and what to check in it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (the model path, in CLI use).
    pub name: String,
    /// The SMV source text.
    pub source: String,
    /// Ad-hoc CTL formula; `None` checks the model's `SPEC` sections.
    pub spec: Option<String>,
}

/// The resource limits of one checking run: the CLI budget flags, a
/// batch job's limits, or a serve request's quotas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock budget. A batch or serve job's clock starts when the
    /// job starts executing, not when it was queued.
    pub timeout: Option<Duration>,
    /// Live-node bound.
    pub node_limit: Option<usize>,
    /// Fixpoint iteration cap.
    pub max_iters: Option<u64>,
}

impl Limits {
    /// A fresh budget, deadline clock starting now, or `None` when
    /// nothing is limited: an ungoverned run pays nothing for the
    /// governor.
    // Inline for the same reason as `check_formulas`: `smc reach` calls
    // nothing else in the engine.
    #[inline]
    pub fn budget(&self) -> Option<Budget> {
        if *self == Limits::default() {
            return None;
        }
        let mut budget = Budget::default();
        if let Some(t) = self.timeout {
            budget = budget.with_timeout(t);
        }
        if let Some(n) = self.node_limit {
            budget = budget.with_node_limit(n);
        }
        if let Some(n) = self.max_iters {
            budget = budget.with_max_iterations(n);
        }
        Some(budget)
    }

    /// Each limit tightened by the request's: the smaller of the two,
    /// where `None` on a side means unlimited from that side. A serve
    /// client can ask for less than the server allows, never more.
    pub fn tighten(self, request: Limits) -> Limits {
        fn min<T: Ord>(cap: Option<T>, requested: Option<T>) -> Option<T> {
            match (cap, requested) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            }
        }
        Limits {
            timeout: min(self.timeout, request.timeout),
            node_limit: min(self.node_limit, request.node_limit),
            max_iters: min(self.max_iters, request.max_iters),
        }
    }
}

/// Pool-wide configuration. One instance is shared (by reference)
/// across all workers; per-job state (budgets, managers, telemetry) is
/// built fresh inside each job.
#[derive(Debug)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Produce a counterexample/witness trace per spec.
    pub want_trace: bool,
    /// Enable the warm-start artifact cache.
    pub use_cache: bool,
    /// Per-job limits (serve: the caps its request quotas tighten).
    pub limits: Limits,
    /// Shared registry for fleet-level series; disabled is free.
    pub metrics: Metrics,
    /// Persistence directory for the warm-start cache; `None` keeps it
    /// memory-only (artifacts die with the process).
    pub cache_dir: Option<std::path::PathBuf>,
    /// LRU capacity (distinct artifacts) of the warm-start cache.
    pub cache_cap: usize,
    /// Flight-recorder ring capacity (events) attached to every job;
    /// `0` disables recording. The recorder is an ordinary telemetry
    /// sink, so it cannot perturb verdicts (pinned by the purity tests).
    pub recorder_cap: usize,
    /// Attach a post-run heap brief (live nodes, widest level) to every
    /// job result (`smc batch --heap`). One `O(levels)` read-only fold
    /// per job after its verdicts are in; off by default.
    pub heap: bool,
    /// Deterministic fault plan injected into every job's manager after
    /// compile — the recovery-drill hook for the service tests. Only
    /// compiled for tests or under the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fault_plan: Option<smc_bdd::FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            want_trace: false,
            use_cache: true,
            limits: Limits::default(),
            metrics: Metrics::disabled(),
            cache_dir: None,
            cache_cap: DEFAULT_CACHE_CAP,
            recorder_cap: 0,
            heap: false,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_plan: None,
        }
    }
}

impl EngineConfig {
    /// Builds the warm-start cache this config asks for: disk-backed
    /// when `cache_dir` is set (degrading silently to memory-only if
    /// the directory cannot be created — the cache is an optimization),
    /// memory-only otherwise.
    pub(crate) fn build_cache(&self) -> ArtifactCache {
        match &self.cache_dir {
            Some(dir) => ArtifactCache::with_dir(dir, self.cache_cap, self.metrics.clone())
                .unwrap_or_else(|_| ArtifactCache::with_capacity(self.cache_cap)),
            None => ArtifactCache::with_capacity(self.cache_cap),
        }
    }
}

/// A rendered counterexample or witness: states already decoded to
/// text, so nothing model- or manager-shaped leaves the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedTrace {
    /// One rendered assignment line per state, in execution order.
    pub states: Vec<String>,
    /// Index where the cycle begins, if the trace is a lasso.
    pub loopback: Option<usize>,
}

/// The verdict (and optional trace) of one checked spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecResult {
    /// The formula, rendered.
    pub formula: String,
    /// Does it hold?
    pub holds: bool,
    /// Counterexample (failing spec) or witness (holding spec), when
    /// the run asked for traces.
    pub trace: Option<RenderedTrace>,
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every requested spec was decided.
    Checked {
        /// Per-spec verdicts, in spec order.
        specs: Vec<SpecResult>,
    },
    /// The model compiled but has no `SPEC` sections (and no ad-hoc
    /// formula was given) — vacuously fine, as in `smc check`.
    NoSpecs,
    /// Parse/semantic/model input problems (the exit-2 class).
    InputError {
        /// Rendered diagnostic.
        message: String,
    },
    /// This job's governor tripped (the exit-3 class). The batch keeps
    /// running; only this job is undecided.
    Exhausted {
        /// Pipeline stage that was running.
        phase: String,
        /// Which limit tripped.
        reason: String,
        /// Specs decided before the trip, in spec order.
        decided: Vec<SpecResult>,
    },
}

impl JobOutcome {
    /// The CLI exit-code class this outcome maps to (worst-of over the
    /// batch: 3 exhausted > 2 input error > 1 some spec fails > 0).
    pub fn exit_class(&self) -> u8 {
        match self {
            JobOutcome::Checked { specs } => {
                if specs.iter().all(|s| s.holds) {
                    0
                } else {
                    1
                }
            }
            JobOutcome::NoSpecs => 0,
            JobOutcome::InputError { .. } => 2,
            JobOutcome::Exhausted { .. } => 3,
        }
    }

    /// Stable label for the fleet metrics (`smc_batch_jobs_total`).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Checked { specs } => {
                if specs.iter().all(|s| s.holds) {
                    "pass"
                } else {
                    "fail"
                }
            }
            JobOutcome::NoSpecs => "pass",
            JobOutcome::InputError { .. } => "input_error",
            JobOutcome::Exhausted { .. } => "exhausted",
        }
    }
}

/// The post-run heap brief a job carries when the engine runs with
/// [`EngineConfig::heap`]: the same numbers an
/// [`Event::HeapSample`](smc_obs::Event::HeapSample) reports, taken from
/// the job's manager after its last verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHeap {
    /// Live BDD nodes (terminals included) at job end.
    pub live_nodes: u64,
    /// Level holding the most nodes.
    pub widest_level: u64,
    /// Node count of that level.
    pub widest_width: u64,
}

/// Everything the pool reports back for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Position of the job in the submitted batch (results are returned
    /// sorted by this, whatever order workers finished in).
    pub index: usize,
    /// The job's display name.
    pub name: String,
    /// The job's trace id: client-supplied in serve use, derived from
    /// the source key + batch index otherwise. The correlation key tying
    /// this result line to trace events, dumps and status snapshots.
    pub trace_id: String,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Wall time of the job body, microseconds.
    pub wall_us: u64,
    /// Did the warm-start cache supply the flattened module?
    pub cache_hit: bool,
    /// Reachability fixpoint iterations this job ran. Zero on a warm
    /// start — the acceptance-level observable that the cache skipped
    /// the fixpoint rather than merely speeding it up.
    pub reach_iters: u64,
    /// The job's manager's computed-table lookups (work counter, gated
    /// bit-exact in the determinism tests).
    pub cache_lookups: u64,
    /// The job's manager's total created nodes (work counter, ditto).
    pub created_nodes: u64,
    /// Post-run heap brief; `None` unless the engine ran with
    /// [`EngineConfig::heap`].
    pub heap: Option<JobHeap>,
}

/// Worst-of exit code over a batch (3 exhausted > 2 input error > 1
/// failing spec > 0 all hold) — the process exit `smc batch` maps to.
pub fn worst_exit(results: &[JobResult]) -> u8 {
    results.iter().map(|r| r.outcome.exit_class()).max().unwrap_or(0)
}

/// Counts reachability fixpoint iterations from the event stream: the
/// warm-start acceptance check ("a cache hit runs zero `Reach`
/// iterations") reads this instead of trusting the cache's own word.
struct ReachCounter(Arc<AtomicU64>);

impl Sink for ReachCounter {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        if matches!(event, Event::FixpointIter { phase: FixKind::Reach, .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Maps a compile failure to the job outcome the serial CLI would have
/// exited with: budget trips during load-time reachability are the
/// exit-3 class, everything else is an input diagnostic.
fn compile_failure(e: SmvError) -> JobOutcome {
    match e {
        SmvError::Kripke(KripkeError::Exhausted { reason, .. }) => JobOutcome::Exhausted {
            phase: Phase::Reachability.to_string(),
            reason: reason.to_string(),
            decided: Vec::new(),
        },
        other => JobOutcome::InputError { message: other.to_string() },
    }
}

/// Compiles the job's model — warm from the cache when possible, cold
/// (publishing the flattened module) otherwise. Returns the model and
/// whether the cache supplied it.
fn compile_job(
    job: &Job,
    budget: Option<Budget>,
    tele: Telemetry,
    cache: Option<&ArtifactCache>,
) -> Result<(CompiledModel, bool), JobOutcome> {
    let key = source_key(&job.source);
    if let Some(module) = cache.and_then(|c| c.get(key)) {
        // Warm start: parse and flatten are already done, and skipping
        // the totality check (sound — the module is cached only after a
        // cold compile of this exact source passed it) skips the
        // load-time reachability fixpoint. Nothing after loading reads
        // the reachable set.
        let opts = CompileOptions { allow_deadlock: true, record_branches: false };
        let compiled =
            compile_module_with_options(&module, budget, tele, opts).map_err(compile_failure)?;
        return Ok((compiled, true));
    }
    // Cold: full pipeline, totality check included.
    let program = parse(&job.source).map_err(compile_failure)?;
    let module: Module = flatten(&program).map_err(compile_failure)?;
    let compiled = compile_module_with_options(&module, budget, tele, CompileOptions::default())
        .map_err(compile_failure)?;
    if let Some(cache) = cache {
        cache.insert(key, &job.source, module);
    }
    Ok((compiled, false))
}

/// Request-scoped execution context a worker hands to the job body: the
/// trace id stamped into every telemetry event, the worker slot the job
/// runs on, and (when flight recording is enabled) the recorder ring to
/// attach as a sink.
pub(crate) struct TraceCtx<'a> {
    /// Trace id stamped into every event and echoed in the result.
    pub trace_id: &'a str,
    /// Worker slot the job runs on.
    pub worker: u64,
    /// Flight recorder to attach, when recording is on.
    pub recorder: Option<&'a Recorder>,
}

/// Runs one job start to finish on the calling (worker) thread, with
/// the pool's per-job budget and trace policy. `worker` is the slot the
/// calling thread owns; the trace id is derived from the source content
/// key and the batch index, so it is schedule-independent.
pub(crate) fn run_job(
    index: usize,
    job: &Job,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
    worker: u64,
) -> JobResult {
    let trace_id = derive_trace_id(source_key(&job.source), index as u64);
    let recorder = (cfg.recorder_cap > 0).then(|| Recorder::new(cfg.recorder_cap));
    let ctx = TraceCtx { trace_id: &trace_id, worker, recorder: recorder.as_ref() };
    run_job_with(index, job, cfg, cache, cfg.limits.budget(), cfg.want_trace, &ctx)
}

/// Runs one job with an explicit budget, trace policy and request
/// context — the entry point the server uses to layer per-request
/// quotas, a per-request cancel token and its per-slot flight recorder
/// over the pool configuration.
pub(crate) fn run_job_with(
    index: usize,
    job: &Job,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
    budget: Option<Budget>,
    want_trace: bool,
    ctx: &TraceCtx<'_>,
) -> JobResult {
    let start = Instant::now();
    let reach_iters = Arc::new(AtomicU64::new(0));
    let tele = Telemetry::new();
    tele.set_trace(ctx.trace_id, ctx.worker);
    tele.add_sink(Box::new(ReachCounter(Arc::clone(&reach_iters))));
    let recorder_before = ctx.recorder.map(|r| (r.captured(), r.dropped()));
    if let Some(rec) = ctx.recorder {
        tele.add_sink(Box::new(rec.clone()));
    }

    let mut cache_hit = false;
    let mut counters = (0u64, 0u64);
    let mut heap = None;
    let outcome = match compile_job(job, budget, tele, cache) {
        Err(outcome) => outcome,
        Ok((mut compiled, hit)) => {
            cache_hit = hit;
            #[cfg(any(test, feature = "fault-injection"))]
            if let Some(plan) = &cfg.fault_plan {
                compiled.model.manager_mut().inject_faults(plan.clone());
            }
            let outcome = check_job(job, &mut compiled, want_trace);
            let stats = compiled.model.manager().stats();
            counters = (stats.cache_lookups, stats.created_nodes);
            if cfg.heap {
                if let Event::HeapSample { live_nodes, widest_level, widest_width, .. } =
                    compiled.model.manager().heap_sample()
                {
                    heap = Some(JobHeap { live_nodes, widest_level, widest_width });
                }
            }
            outcome
        }
    };
    // Fold this job's recorder traffic into the fleet series (deltas,
    // so a server-owned recorder shared across jobs counts each once).
    if let (Some(rec), Some((cap0, drop0))) = (ctx.recorder, recorder_before) {
        cfg.metrics.counter_add(
            "smc_recorder_events_total",
            &[],
            rec.captured().saturating_sub(cap0),
        );
        cfg.metrics.counter_add(
            "smc_recorder_dropped_total",
            &[],
            rec.dropped().saturating_sub(drop0),
        );
    }
    JobResult {
        index,
        name: job.name.clone(),
        trace_id: ctx.trace_id.to_string(),
        outcome,
        wall_us: start.elapsed().as_micros() as u64,
        cache_hit,
        reach_iters: reach_iters.load(Ordering::Relaxed),
        cache_lookups: counters.0,
        created_nodes: counters.1,
        heap,
    }
}

/// Maps the job's checking run to its outcome: a bad ad-hoc formula
/// or an error other than a governor trip is an input error, a trip
/// keeps the specs decided before it.
fn check_job(job: &Job, compiled: &mut CompiledModel, want_trace: bool) -> JobOutcome {
    let formulas = match &job.spec {
        Some(text) => match smc_logic::ctl::parse(text) {
            Ok(f) => vec![f],
            Err(e) => {
                return JobOutcome::InputError { message: format!("bad formula {text:?}: {e}") }
            }
        },
        None => compiled.specs.iter().map(|s| s.formula.clone()).collect(),
    };
    if formulas.is_empty() {
        return JobOutcome::NoSpecs;
    }
    match check_formulas(compiled, &formulas, want_trace, CycleStrategy::default()) {
        (specs, None) => JobOutcome::Checked { specs },
        (decided, Some(CheckError::ResourceExhausted { phase, reason, .. })) => {
            JobOutcome::Exhausted { phase: phase.to_string(), reason: reason.to_string(), decided }
        }
        (_, Some(e)) => JobOutcome::InputError { message: e.to_string() },
    }
}

/// The checker loop of every command: checks `formulas` in order on
/// one checker, stopping at the first error, and returns the decided
/// specs with the error that stopped the loop, if any. With
/// `want_trace`, each decided spec carries its counterexample or
/// witness, decoded to text after the checker releases the model;
/// without, the checker is [verdict-only](Checker::verdicts_only).
// Inline, so `smc check`, `spec` and `inspect` run a copy in the CLI's
// own code: a call into the engine's code faults in a 64 KiB window of
// its text, which read as +48 KiB of peak RSS on every `smc check`
// (x86-64 Linux).
#[inline]
pub fn check_formulas(
    compiled: &mut CompiledModel,
    formulas: &[Ctl],
    want_trace: bool,
    strategy: CycleStrategy,
) -> (Vec<SpecResult>, Option<CheckError>) {
    let mut raw = Vec::with_capacity(formulas.len());
    let mut error = None;
    {
        let mut checker = Checker::new(&mut compiled.model).with_strategy(strategy);
        if !want_trace {
            checker = checker.verdicts_only();
        }
        for formula in formulas {
            let outcome = if want_trace {
                checker.check_with_trace(formula).map(|o| (o.verdict.holds(), o.trace))
            } else {
                checker.check(formula).map(|v| (v.holds(), None))
            };
            match outcome {
                Ok(r) => raw.push(r),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
    }
    let results = raw
        .into_iter()
        .zip(formulas)
        .map(|((holds, trace), formula)| SpecResult {
            formula: formula.to_string(),
            holds,
            trace: trace.map(|t| RenderedTrace {
                states: t.states.iter().map(|s| compiled.render_state(s)).collect(),
                loopback: t.loopback,
            }),
        })
        .collect();
    (results, error)
}
