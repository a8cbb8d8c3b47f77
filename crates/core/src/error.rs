//! Error type for the symbolic checker, including the structured
//! resource-exhaustion report with partial progress.

use std::error::Error;
use std::fmt;

use smc_bdd::TripReason;
use smc_kripke::{KripkeError, ReachProgress};

/// Which stage of the checking pipeline was running when a resource
/// budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The reachable-states fixpoint.
    Reachability,
    /// Boolean combination / bookkeeping between fixpoints.
    Check,
    /// The least fixpoint of `E[f U g]`.
    EuFixpoint,
    /// The greatest fixpoint of `EG f` (no fairness).
    EgFixpoint,
    /// The nested fair-`EG` fixpoint.
    FairEg,
    /// The `E(GF/FG)` fairness-class gfp of the CTL* fragment.
    EFairness,
    /// Ring descent while building an `EU` witness prefix.
    WitnessEu,
    /// Cycle construction while building an `EG` witness lasso.
    WitnessEg,
    /// Witness construction for the CTL* fairness class.
    WitnessFairness,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::Reachability => "reachability",
            Phase::Check => "check",
            Phase::EuFixpoint => "EU fixpoint",
            Phase::EgFixpoint => "EG fixpoint",
            Phase::FairEg => "fair EG fixpoint",
            Phase::EFairness => "fairness-class fixpoint",
            Phase::WitnessEu => "EU witness construction",
            Phase::WitnessEg => "EG witness construction",
            Phase::WitnessFairness => "fairness witness construction",
        };
        f.write_str(name)
    }
}

/// What a budget-bounded run had achieved when it was stopped — the
/// partial diagnostics carried by [`CheckError::ResourceExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialProgress {
    /// Completed iterations of the fixpoint that was running.
    pub iterations: u64,
    /// Onion rings recorded so far (EU ring sequences, witness descent).
    pub rings: u64,
    /// BDD size of the last consistent fixpoint approximation.
    pub approx_size: usize,
    /// Live nodes in the manager after rollback.
    pub live_nodes: usize,
    /// High-water mark of the node pool.
    pub peak_nodes: usize,
    /// Total nodes ever created by the manager.
    pub created_nodes: u64,
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} iterations, {} rings, approx of {} nodes; \
             {} live / {} peak nodes, {} created",
            self.iterations,
            self.rings,
            self.approx_size,
            self.live_nodes,
            self.peak_nodes,
            self.created_nodes
        )
    }
}

impl From<ReachProgress> for PartialProgress {
    fn from(p: ReachProgress) -> PartialProgress {
        PartialProgress {
            iterations: p.iterations,
            live_nodes: p.live_nodes,
            peak_nodes: p.peak_nodes,
            created_nodes: p.created_nodes,
            ..PartialProgress::default()
        }
    }
}

/// Errors reported by the symbolic model checker and witness generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An atomic proposition in the formula is not declared in the model.
    UnknownAtom(String),
    /// A model-layer error (deadlock, enumeration bound, ...).
    Kripke(KripkeError),
    /// A witness was requested for a formula that does not hold (or a
    /// counterexample for one that does).
    NothingToExplain,
    /// A CTL* formula is outside the supported fairness class
    /// `E ⋀ (GF p ∨ FG q)`.
    OutsideFairnessClass(String),
    /// Internal invariant violation while constructing a witness. Should
    /// never happen; reported instead of panicking so callers can file
    /// useful bug reports.
    WitnessConstruction(String),
    /// A resource budget (deadline, node/allocation limit, iteration cap,
    /// cancellation) stopped the run. The manager was restored to a
    /// consistent state, so the same query can be retried — under a larger
    /// budget — on the same model.
    ResourceExhausted {
        /// The pipeline stage that was running.
        phase: Phase,
        /// What tripped.
        reason: TripReason,
        /// What the run had achieved (partial diagnostics).
        partial: PartialProgress,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownAtom(name) => {
                write!(f, "unknown atomic proposition {name:?}")
            }
            CheckError::Kripke(e) => write!(f, "model error: {e}"),
            CheckError::NothingToExplain => {
                write!(f, "no witness/counterexample exists for this verdict")
            }
            CheckError::OutsideFairnessClass(s) => {
                write!(f, "formula outside the E(GF/FG) fairness class: {s}")
            }
            CheckError::WitnessConstruction(msg) => {
                write!(f, "internal witness construction failure: {msg}")
            }
            CheckError::ResourceExhausted { phase, reason, partial } => {
                write!(
                    f,
                    "resource budget exhausted during {phase}: {reason} \
                     (partial progress: {partial})"
                )
            }
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Kripke(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KripkeError> for CheckError {
    fn from(e: KripkeError) -> CheckError {
        match e {
            KripkeError::UnknownAtom(name) => CheckError::UnknownAtom(name),
            // Budget trips surfacing through the model layer happen in
            // the reachability fixpoint (the only governed loop there).
            KripkeError::Exhausted { reason, progress } => CheckError::ResourceExhausted {
                phase: Phase::Reachability,
                reason,
                partial: progress.into(),
            },
            other => CheckError::Kripke(other),
        }
    }
}
