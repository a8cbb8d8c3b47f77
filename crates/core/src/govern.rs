//! Glue between the checking layers and the BDD manager's resource
//! governor: safe-point helpers that translate
//! [`BddError::ResourceExhausted`](smc_bdd::BddError) into the checker's
//! structured [`CheckError::ResourceExhausted`] with phase and partial
//! progress attached, plus protection helpers for handle collections
//! that must survive a degradation-ladder garbage collection.

use smc_bdd::{Bdd, BddError};
use smc_kripke::SymbolicModel;

use crate::error::{CheckError, PartialProgress, Phase};

/// A snapshot of how far a governed loop had gotten, for the partial
/// diagnostics of a trip.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Progress {
    pub iterations: u64,
    pub rings: u64,
    /// Last consistent fixpoint approximation (its size goes in the
    /// report). Must be a handle that survives rollback — i.e. one the
    /// loop held *before* the current iteration, or a protected one.
    pub approx: Option<Bdd>,
}

impl Progress {
    pub fn iters(iterations: u64) -> Progress {
        Progress { iterations, ..Progress::default() }
    }
}

/// The checker's error for a BDD-layer error `e` in `phase`: a budget
/// trip becomes [`CheckError::ResourceExhausted`] with `progress`.
pub(crate) fn exhausted(
    model: &SymbolicModel,
    phase: Phase,
    progress: Progress,
    e: BddError,
) -> CheckError {
    let BddError::ResourceExhausted(reason) = e else {
        // check_budget/checkpoint only ever report exhaustion; route
        // anything else through the model-error path unchanged.
        return CheckError::Kripke(smc_kripke::KripkeError::Bdd(e));
    };
    let m = model.manager();
    let stats = m.stats();
    // The failed iteration was rolled back; handles recorded in
    // `progress` predate it, so sizing them here is safe.
    let approx_size = progress.approx.map(|b| m.size(b)).unwrap_or(0);
    CheckError::ResourceExhausted {
        phase,
        reason,
        partial: PartialProgress {
            iterations: progress.iterations,
            rings: progress.rings,
            approx_size,
            live_nodes: stats.live_nodes,
            peak_nodes: m.peak_nodes(),
            created_nodes: stats.created_nodes,
        },
    }
}

/// Full safe point for fixpoint loops: polls the budget, enforces the
/// iteration cap, and under node pressure runs the degradation ladder
/// with `roots` (plus the protected set) as the live handles. Everything
/// the caller still needs that is *not* protected must be in `roots`.
pub(crate) fn checkpoint(
    model: &mut SymbolicModel,
    phase: Phase,
    progress: Progress,
    roots: &[Bdd],
) -> Result<(), CheckError> {
    model
        .manager_mut()
        .checkpoint(progress.iterations, roots)
        .map_err(|e| exhausted(model, phase, progress, e))
}

/// Light safe point: polls the budget and commits/rolls back the
/// allocation transaction, but never collects garbage — safe where loose
/// intermediate handles (ring vectors, trace states) are in flight.
pub(crate) fn poll(
    model: &mut SymbolicModel,
    phase: Phase,
    progress: Progress,
) -> Result<(), CheckError> {
    model.manager_mut().check_budget().map_err(|e| exhausted(model, phase, progress, e))
}

/// Protects every handle in `bdds` (counted; pair with
/// [`unprotect_all`]).
pub(crate) fn protect_all(model: &mut SymbolicModel, bdds: &[Bdd]) {
    let m = model.manager_mut();
    for &b in bdds {
        m.protect(b);
    }
}

/// Releases one protection count on every handle in `bdds`.
pub(crate) fn unprotect_all(model: &mut SymbolicModel, bdds: &[Bdd]) {
    let m = model.manager_mut();
    for &b in bdds {
        m.unprotect(b);
    }
}
