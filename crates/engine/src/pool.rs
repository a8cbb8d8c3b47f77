//! The worker pool: a shared injector queue, per-worker deques, and
//! back-of-queue stealing.
//!
//! All jobs start in the injector. A worker refills its own deque with
//! a chunk of the injector (its share of what remains), works it from
//! the front, and — once the injector is drained — steals single jobs
//! from the **back** of a sibling's deque, so the owner and the thief
//! never contend for the same end. Jobs only ever move injector →
//! local → done; once the injector is empty it stays empty, so a
//! worker that finds every queue empty can exit without a rendezvous.
//!
//! Results are collected into a slot per job and returned in job
//! order: scheduling is nondeterministic, the result vector is not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::job::{run_job, EngineConfig, Job, JobResult};
use crate::ArtifactCache;

/// Poison-recovering lock: queues hold plain data (no invariants that
/// can tear), and one panicked job must not wedge the whole pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Work queues shared by the pool's workers.
struct Queues {
    injector: Mutex<VecDeque<(usize, Job)>>,
    locals: Vec<Mutex<VecDeque<(usize, Job)>>>,
    /// Jobs not yet started — the `smc_batch_queue_depth` gauge.
    pending: AtomicUsize,
    /// Jobs currently executing — the `smc_batch_jobs_in_flight` gauge.
    in_flight: AtomicI64,
}

impl Queues {
    /// Takes the next job for worker `w`: own deque first, then an
    /// injector refill, then a steal. `None` means the batch is drained
    /// (modulo jobs other workers are still running).
    fn take(&self, w: usize) -> Option<(usize, Job, bool)> {
        if let Some((i, job)) = lock(&self.locals[w]).pop_front() {
            return Some((i, job, false));
        }
        {
            let mut injector = lock(&self.injector);
            if !injector.is_empty() {
                // Take this worker's share of what remains (at least
                // one), leaving the rest for siblings to refill from.
                let chunk = (injector.len() / self.locals.len()).max(1);
                let mut local = lock(&self.locals[w]);
                for _ in 0..chunk {
                    match injector.pop_front() {
                        Some(job) => local.push_back(job),
                        None => break,
                    }
                }
                if let Some((i, job)) = local.pop_front() {
                    return Some((i, job, false));
                }
            }
        }
        for off in 1..self.locals.len() {
            let victim = (w + off) % self.locals.len();
            if let Some((i, job)) = lock(&self.locals[victim]).pop_back() {
                return Some((i, job, true));
            }
        }
        None
    }
}

/// Runs `jobs` on [`EngineConfig::workers`] threads and returns every
/// job's result, **in job order**. Jobs never stop the batch: input
/// problems and per-job governor trips come back as that job's
/// [`JobOutcome`](crate::JobOutcome); the process-level worst-of exit
/// is the caller's to compute ([`JobOutcome::exit_class`](crate::JobOutcome::exit_class)).
pub fn run_batch(jobs: Vec<Job>, cfg: &EngineConfig) -> Vec<JobResult> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let total = jobs.len();
    let workers = cfg.workers.clamp(1, total);
    let cache = cfg.use_cache.then(|| cfg.build_cache());
    let queues = Queues {
        injector: Mutex::new(jobs.into_iter().enumerate().collect()),
        locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(total),
        in_flight: AtomicI64::new(0),
    };
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new((0..total).map(|_| None).collect());
    cfg.metrics.gauge_set("smc_batch_queue_depth", &[], total as f64);
    cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], 0.0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let cache = cache.as_ref();
            spawn_worker(scope, move || worker_loop(w, queues, results, cfg, cache));
        }
    });

    let collected = std::mem::take(&mut *lock(&results));
    // Every slot is filled: a job is either run to completion by some
    // worker (run_job returns a result for every outcome) or was never
    // taken — impossible once every worker has observed empty queues.
    collected.into_iter().flatten().collect()
}

/// Stack of every batch and serve worker thread: what a Linux main
/// thread gets, so a job whose syntax tree sits at the depth limit
/// ([`smc_logic::MAX_SYNTAX_DEPTH`]) runs on a worker as it does under
/// `smc check`. In an unoptimised build, checking a 512-term `&` chain
/// with a trace needs more than 4 MiB, twice the 2 MiB default.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Spawns a scoped worker thread with [`WORKER_STACK_BYTES`] of stack.
pub(crate) fn spawn_worker<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    body: impl FnOnce() + Send + 'scope,
) {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn_scoped(scope, body)
        .expect("the OS refused to start a worker thread");
}

fn worker_loop(
    w: usize,
    queues: &Queues,
    results: &Mutex<Vec<Option<JobResult>>>,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
) {
    while let Some((index, job, stolen)) = queues.take(w) {
        let depth = queues.pending.fetch_sub(1, Ordering::Relaxed) - 1;
        let running = queues.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        cfg.metrics.gauge_set("smc_batch_queue_depth", &[], depth as f64);
        cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], running as f64);
        if stolen {
            cfg.metrics.counter_add("smc_batch_steals_total", &[], 1);
        }

        let result = run_job(index, &job, cfg, cache, w as u64);

        cfg.metrics.counter_add("smc_batch_jobs_total", &[("outcome", result.outcome.label())], 1);
        cfg.metrics.observe("smc_batch_job_wall_us", &[], result.wall_us.max(1));
        if cache.is_some() {
            let name = if result.cache_hit {
                "smc_batch_cache_hits_total"
            } else {
                "smc_batch_cache_misses_total"
            };
            cfg.metrics.counter_add(name, &[], 1);
        }
        let running = queues.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], running as f64);
        lock(results)[index] = Some(result);
    }
}
