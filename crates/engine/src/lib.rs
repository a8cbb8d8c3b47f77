#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # smc-engine — the parallel checking engine
//!
//! Runs a batch of independent checking jobs on a small worker pool.
//! The paper's algorithms are single-session by construction (one BDD
//! manager, one model, one checker), so the unit of parallelism here is
//! the **job**: each worker compiles its own model on its own
//! [`BddManager`](smc_bdd::BddManager) and checks it end to end.
//! Nothing BDD-shaped ever crosses a thread boundary — only job
//! descriptions in and rendered results out, which is what keeps every
//! per-job verdict, witness trace and work counter bit-identical to a
//! serial run (`tests in the repo gate exactly this`).
//!
//! Four pieces:
//!
//! - [`check_formulas`] — the checker loop: one checker, verdict-only
//!   unless traces are wanted, the formulas in order, traces decoded to
//!   text. Every job runs it, and so do `smc check`, `smc spec` and
//!   `smc inspect`.
//! - [`run_batch`] — the pool: workers take jobs from one shared job
//!   queue, results come back in job order.
//! - [`ArtifactCache`] — the warm-start cache: keyed by a content hash
//!   of the model source, it holds the flattened module of the first
//!   successful compile, so a repeat job skips parse, flatten and the
//!   compile-time totality check with its reachability fixpoint (its
//!   `Reach` iteration count is zero). The job still builds its own
//!   BDDs.
//! - per-job governors — every job gets its **own**
//!   [`Budget`](smc_bdd::Budget) built from [`Limits`] at job start (so
//!   deadlines are per job, not per batch), and a governor trip
//!   surfaces as that job's [`JobOutcome::Exhausted`] instead of
//!   stopping the fleet.
//!
//! Fleet-level series (queue depth, jobs in flight, cache traffic,
//! per-job wall histograms) land in the caller's shared
//! [`Metrics`](smc_obs::Metrics) registry; the registry is `Send +
//! Sync`, so all workers write to one exposition.
//!
//! On top of the pool sits [`serve`]: a long-running checking service
//! fed by NDJSON requests (stdin or TCP) with admission control, a
//! watchdog, poison-source quarantine, and graceful drain — the same
//! per-job machinery wrapped in a robustness envelope. The cache can be
//! made persistent ([`EngineConfig::cache_dir`]) with crash-safe writes
//! and checksum-verified loads, so a restarted service warm-starts from
//! the artifacts a previous process left behind.

mod cache;
mod job;
mod manifest;
mod pool;
mod server;
mod wire;

pub use cache::{source_key, ArtifactCache, DEFAULT_CACHE_CAP};
pub use job::{
    check_formulas, derive_trace_id, worst_exit, EngineConfig, Job, JobHeap, JobOutcome, JobResult,
    Limits, RenderedTrace, SpecResult,
};
pub use manifest::{parse_manifest, Manifest, ManifestEntry, ManifestError};
pub use pool::run_batch;
pub use server::{
    parse_request, serve, serve_tcp, spawn_metrics_endpoint, CheckRequest, Request, Responder,
    ServerConfig, StatusBoard, DEFAULT_DUMP_CAP, SERVE_SCHEMA,
};
pub use wire::{job_json_fields, json_escape};

/// Compile-time `Send` assertions for everything the pool moves across
/// threads: job descriptions in, results out, the shared cache and
/// registry in between.
#[allow(dead_code)]
mod send_assertions {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    fn engine_types_cross_threads() {
        assert_send::<crate::Job>();
        assert_send::<crate::JobResult>();
        assert_send::<crate::ArtifactCache>();
        assert_sync::<crate::ArtifactCache>();
        assert_sync::<crate::EngineConfig>();
        assert_send::<crate::StatusBoard>();
        assert_sync::<crate::StatusBoard>();
    }
}

#[cfg(test)]
mod tests;
