//! The benchmark of record for `smc`: four seeded workloads run against
//! the `smc` binary with end-to-end metrics timed from outside the
//! process, every output checked against an answer key and an
//! independent trace replay, and a traced in-process pass that splits
//! the same work by layer. See README.md.

pub mod cli;
pub mod gen;
pub mod metrics;
pub mod output;
pub mod replay;

mod batch;
mod check;
mod crosscheck;
mod process;
mod rng;
mod runner;
mod serve;
mod stats;
mod traced;
