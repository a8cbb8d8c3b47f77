#![warn(missing_docs)]

//! # smc-kripke — labeled state-transition systems
//!
//! The model layer for symbolic model checking: Kripke structures
//! `M = (AP, S, L, N, S₀)` (Section 3 of Clarke–Grumberg–McMillan–Zhao,
//! DAC 1995) in two representations:
//!
//! - [`SymbolicModel`]: states are assignments to boolean state variables;
//!   the transition relation `N(v̄, v̄′)`, the initial set and all labels are
//!   BDDs over an interleaved current/next variable order. This is the
//!   representation the symbolic checker operates on. Its images and
//!   preimages switch between the rails inside the kernel's relational
//!   products ([`smc_bdd::BddManager::rel_next`],
//!   [`smc_bdd::BddManager::rel_prev`]); no set is renamed onto the other
//!   rail first.
//! - [`ExplicitModel`]: an adjacency-list graph with per-state label sets.
//!   Used by the explicit-state baseline checker, by the SCC analyses that
//!   explain witness shapes (Figures 1–2 of the paper), and as a
//!   cross-validation oracle for the symbolic engine.
//!
//! [`sccs`] is Tarjan's algorithm over any successor function;
//! [`tarjan_scc`] and [`condensation`] apply it to explicit models.
//!
//! [`SymbolicModelBuilder`] offers a convenient functional-assignment
//! style for building symbolic models;
//! [`enumerate`](SymbolicModel::enumerate) converts small symbolic models
//! to explicit form.
//!
//! ## Example
//!
//! ```
//! use smc_kripke::SymbolicModelBuilder;
//!
//! # fn main() -> Result<(), smc_kripke::KripkeError> {
//! // A 2-bit binary counter.
//! let mut b = SymbolicModelBuilder::new();
//! let lo = b.bool_var("lo")?;
//! let hi = b.bool_var("hi")?;
//! b.init_zero();
//! b.next_fn(lo, |m, cur| m.not(cur[0]));
//! b.next_fn(hi, |m, cur| m.xor(cur[0], cur[1]));
//! let mut model = b.build()?;
//! assert_eq!(model.reachable_count().unwrap(), 4.0);
//! # let _ = (lo, hi);
//! # Ok(())
//! # }
//! ```

mod builder;
mod error;
mod explicit;
mod scc;
mod state;
mod symbolic;

pub use builder::{StateVarId, SymbolicModelBuilder};
pub use error::{KripkeError, ReachProgress};
pub use explicit::ExplicitModel;
pub use scc::{condensation, sccs, tarjan_scc, Condensation};
pub use state::State;
pub use symbolic::SymbolicModel;

#[cfg(test)]
mod tests;

/// Compile-time `Send` assertion: a checking session owns its model and
/// rides onto a worker thread in the parallel engine.
#[allow(dead_code)]
mod send_assertions {
    fn assert_send<T: Send>() {}

    fn session_types_are_send() {
        assert_send::<crate::SymbolicModel>();
        assert_send::<crate::ExplicitModel>();
        assert_send::<crate::State>();
    }
}
