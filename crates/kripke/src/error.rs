//! Error type for model construction and queries.

use std::error::Error;
use std::fmt;

use smc_bdd::{BddError, TripReason};

/// Errors reported while building or querying Kripke structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KripkeError {
    /// A state variable with this name already exists.
    DuplicateVar(String),
    /// A label with this name already exists.
    DuplicateLabel(String),
    /// The model has no state variables.
    NoVariables,
    /// The initial-state set is empty (or was never specified).
    EmptyInit,
    /// The transition relation leaves some reachable state with no
    /// successor; CTL semantics require a total relation. Carries a
    /// textual rendering of one deadlocked state.
    Deadlock(String),
    /// An error bubbled up from the BDD layer. Budget trips are
    /// [`Exhausted`](Self::Exhausted) instead.
    Bdd(BddError),
    /// A resource budget stopped the reachability fixpoint or the
    /// totality check after it. The unfinished iteration was rolled back
    /// and nothing was cached, so the query can be retried under a larger
    /// budget.
    Exhausted {
        /// What tripped.
        reason: TripReason,
        /// How far the fixpoint had got.
        progress: ReachProgress,
    },
    /// The referenced atomic proposition is not declared in the model.
    UnknownAtom(String),
    /// Explicit enumeration exceeded the caller-supplied state bound.
    TooManyStates {
        /// The bound that was exceeded.
        bound: usize,
    },
}

impl fmt::Display for KripkeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KripkeError::DuplicateVar(name) => {
                write!(f, "state variable {name:?} already declared")
            }
            KripkeError::DuplicateLabel(name) => write!(f, "label {name:?} already declared"),
            KripkeError::NoVariables => write!(f, "model has no state variables"),
            KripkeError::EmptyInit => write!(f, "initial state set is empty"),
            KripkeError::Deadlock(state) => {
                write!(f, "transition relation is not total: state {state} has no successor")
            }
            KripkeError::Bdd(e) => write!(f, "bdd error: {e}"),
            KripkeError::Exhausted { reason, .. } => {
                write!(f, "bdd error: resource budget exhausted: {reason}")
            }
            KripkeError::UnknownAtom(name) => {
                write!(f, "unknown atomic proposition {name:?}")
            }
            KripkeError::TooManyStates { bound } => {
                write!(f, "explicit enumeration exceeded the bound of {bound} states")
            }
        }
    }
}

impl Error for KripkeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KripkeError::Bdd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BddError> for KripkeError {
    fn from(e: BddError) -> KripkeError {
        KripkeError::Bdd(e)
    }
}

/// What a budget-stopped reachability fixpoint had achieved, with the
/// manager's node counts after the rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachProgress {
    /// Completed iterations: chained sweeps when the model has event
    /// guards, breadth-first iterations otherwise.
    pub iterations: u64,
    /// Live nodes in the manager.
    pub live_nodes: usize,
    /// High-water mark of the node pool.
    pub peak_nodes: usize,
    /// Total nodes ever created by the manager.
    pub created_nodes: u64,
}
