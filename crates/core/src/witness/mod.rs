//! Witness and counterexample construction (Section 6 of the paper).

pub mod eg;
pub mod reach;
pub mod strategy;
pub mod trace;

pub use eg::{witness_eg_fair, WitnessStats};
pub use reach::{witness_eu, witness_ex};
pub use strategy::CycleStrategy;
pub use trace::Trace;

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};

/// Splices a finite path onto a continuation trace whose first state is
/// the path's last state.
///
/// # Panics
///
/// Panics (debug builds) if the endpoints do not match.
pub(crate) fn splice(head: Vec<State>, tail: Trace) -> Trace {
    if head.is_empty() {
        return tail;
    }
    debug_assert_eq!(head.last(), tail.states.first(), "splice endpoints must coincide");
    let head_len = head.len() - 1;
    let mut states = head;
    states.pop();
    states.extend(tail.states);
    Trace { states, loopback: tail.loopback.map(|l| l + head_len) }
}

/// One step down breadth-first rings: a successor of `state`, which lies
/// in ring `j > 0` but not in ring `j − 1`, picked from ring `j − 1`.
///
/// The smallest ring such a state's successors meet is always `j − 1`:
/// it has a successor there, and one in ring `j − 2` would have put the
/// state itself in ring `j − 1`. `None` after a budget trip.
pub(crate) fn ring_below(
    model: &mut SymbolicModel,
    state: &State,
    rings: &[Bdd],
    j: usize,
) -> Option<State> {
    let succ = model.successors(state);
    let cand = model.manager_mut().and(succ, rings[j - 1]);
    debug_assert!(j < 2 || !meets(model, succ, rings[j - 2]), "a successor skips ring {}", j - 1);
    model.pick_state(cand)
}

/// Do `a` and `b` intersect? For debug assertions only: it fills the
/// computed table, and after a budget trip, whose dummy handles may
/// intersect anything, it answers `false`.
pub(crate) fn meets(model: &mut SymbolicModel, a: Bdd, b: Bdd) -> bool {
    let met = model.manager_mut().intersects(a, b);
    met && model.manager().trip_reason().is_none()
}
