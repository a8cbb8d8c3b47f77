#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # smc-bdd — ordered binary decision diagrams
//!
//! A from-scratch OBDD package in the style of Brace/Rudell/Bryant,
//! providing the representation layer for the symbolic model checker
//! (Section 2 of Clarke–Grumberg–McMillan–Zhao, DAC 1995).
//!
//! ## Design
//!
//! - A [`BddManager`] owns every node. Nodes are hash-consed through
//!   per-variable unique tables, so structural equality of functions is
//!   pointer (id) equality — the constant-time equivalence check the paper
//!   relies on for fixpoint convergence tests.
//! - A [`Bdd`] is a `Copy` handle (a node id) into one manager. Handles
//!   from different managers must not be mixed; every operation is a method
//!   on the manager.
//! - The two-operand connectives ([`BddManager::and`],
//!   [`BddManager::or`], [`BddManager::xor`], [`BddManager::diff`])
//!   share one memoized recursion, each with its own cache tag and, for
//!   the symmetric ones, commutativity-normalized keys; negation
//!   ([`BddManager::not`]) has its own. Irregular shapes route through
//!   the general memoized if-then-else ([`BddManager::ite`]). The computed table is a bounded,
//!   lossy, 2-way set-associative cache (see [`BddManagerStats`] for the
//!   per-operation hit/eviction counters).
//! - Quantification ([`BddManager::exists`], [`BddManager::forall`], one
//!   recursion) and the fused relational product
//!   ([`BddManager::and_exists`]) operate over *cubes* (conjunctions of
//!   variables). Told the current/next variable pairs once
//!   ([`BddManager::set_pairs`]), the manager also switches rails inside
//!   the product: [`BddManager::rel_next`] is `and_exists` generalised to
//!   rename next variables back (an image), [`BddManager::rel_prev`]
//!   reads its set on the next rail (a preimage). One cube says what each
//!   does to each pair. [`BddManager::rename`] is on no image path; the
//!   products compose with it only while reordering splits a pair.
//! - Garbage collection is explicit: protect the roots you need with
//!   [`BddManager::protect`], then call [`BddManager::gc`]. The manager
//!   never collects behind your back.
//! - Dynamic variable reordering by sifting is available through
//!   [`BddManager::sift`]; a target order can be forced with
//!   [`BddManager::reorder`].
//! - Don't-care minimization via the generalized cofactor
//!   ([`BddManager::constrain`]) and Graphviz export
//!   ([`BddManager::to_dot`]) round out the tooling.
//!
//! ## Example
//!
//! ```
//! use smc_bdd::BddManager;
//!
//! # fn main() -> Result<(), smc_bdd::BddError> {
//! let mut m = BddManager::new();
//! let x = m.new_var("x")?;
//! let y = m.new_var("y")?;
//! let fx = m.var(x);
//! let fy = m.var(y);
//! // x XOR y has exactly two satisfying assignments over {x, y}.
//! let f = m.xor(fx, fy);
//! assert_eq!(m.sat_count(f, 2), 2.0);
//! # Ok(())
//! # }
//! ```

mod apply;
mod dot;
mod error;
#[cfg(any(test, feature = "fault-injection"))]
mod faults;
mod gc;
mod governor;
mod heap;
mod manager;
mod node;
mod quant;
mod reorder;
mod sat;
mod subst;
mod validate;

pub use error::BddError;
#[cfg(any(test, feature = "fault-injection"))]
pub use faults::FaultPlan;
pub use governor::{Budget, CancelToken, TripReason};
pub use manager::{BddManager, BddManagerStats, OpCounters, CACHE_OP_NAMES, NUM_CACHE_OPS};
pub use node::{Bdd, Var};
pub use sat::{CubeIter, SatAssignment};

#[cfg(test)]
mod tests;

/// Compile-time `Send` assertions: the parallel engine gives every job
/// its own manager on a worker thread, so the manager (and everything a
/// job carries with it) must stay `Send`. A reintroduced `Rc` fails
/// compilation here rather than at a distant spawn site.
#[allow(dead_code)]
mod send_assertions {
    fn assert_send<T: Send>() {}

    fn session_types_are_send() {
        assert_send::<crate::BddManager>();
        assert_send::<crate::Bdd>();
        assert_send::<crate::Budget>();
        assert_send::<crate::TripReason>();
        assert_send::<crate::BddError>();
    }

    fn cancel_tokens_cross_threads() {
        // Cancellation is signalled from outside the worker.
        fn assert_sync<T: Sync>() {}
        assert_send::<crate::CancelToken>();
        assert_sync::<crate::CancelToken>();
    }
}
