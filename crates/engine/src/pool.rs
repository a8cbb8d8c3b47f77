//! The worker pool: one shared FIFO of jobs, from which each worker
//! takes the next job when it finishes its last. No job is ever queued
//! again, so a worker that finds the queue empty exits.
//!
//! Results are collected into a slot per job and returned in job order:
//! scheduling is nondeterministic, the result vector is not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::job::{run_job, EngineConfig, Job, JobResult};
use crate::ArtifactCache;

/// Poison-recovering lock for the pool's, the server's and the
/// artifact cache's shared state: it holds plain data (no invariants
/// that can tear), and one panicked job must not wedge the whole pool.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The jobs not yet started, with their batch indices.
type Queue = Mutex<VecDeque<(usize, Job)>>;

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
    let queue: Queue = Mutex::new(jobs.into_iter().enumerate().collect());
    let in_flight = AtomicI64::new(0);
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new((0..total).map(|_| None).collect());
    cfg.metrics.gauge_set("smc_batch_queue_depth", &[], total as f64);
    cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], 0.0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queue, in_flight, results) = (&queue, &in_flight, &results);
            let cache = cache.as_ref();
            spawn_worker(scope, move || worker_loop(w, queue, in_flight, results, cfg, cache));
        }
    });

    let collected = std::mem::take(&mut *lock(&results));
    // Every slot is filled: a job is either run to completion by some
    // worker (run_job returns a result for every outcome) or was never
    // taken — impossible once every worker has observed the empty queue.
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
    queue: &Queue,
    in_flight: &AtomicI64,
    results: &Mutex<Vec<Option<JobResult>>>,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
) {
    loop {
        let (index, job, depth) = {
            let mut q = lock(queue);
            let Some((index, job)) = q.pop_front() else { return };
            (index, job, q.len())
        };
        let running = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        cfg.metrics.gauge_set("smc_batch_queue_depth", &[], depth as f64);
        cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], running as f64);

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
        let running = in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        cfg.metrics.gauge_set("smc_batch_jobs_in_flight", &[], running as f64);
        lock(results)[index] = Some(result);
    }
}
