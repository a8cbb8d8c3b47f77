#![warn(missing_docs)]

//! # smc — symbolic model checking with counterexamples and witnesses
//!
//! Umbrella crate for the workspace reproducing Clarke, Grumberg, McMillan
//! and Zhao, *"Efficient Generation of Counterexamples and Witnesses in
//! Symbolic Model Checking"* (DAC 1995).
//!
//! The individual subsystems are re-exported under short module names:
//!
//! - [`bdd`] — the OBDD package (Section 2 of the paper),
//! - [`kripke`] — symbolic and explicit labeled state-transition systems,
//! - [`logic`] — CTL and CTL* syntax, parsing and normalisation,
//! - [`checker`] — the symbolic model checker and the witness generator
//!   (Sections 4–7, the paper's primary contribution),
//! - [`explicit`] — the explicit-state baseline checker,
//! - [`automata`] — ω-automata and language-containment counterexamples
//!   (Section 8),
//! - [`smv`] — an SMV-like modeling frontend,
//! - [`analysis`] — static and symbolic analysis (lint) passes over SMV
//!   models, with structured diagnostics and vacuity detection,
//! - [`obs`] — structured telemetry: span tracing, event streams, the
//!   metrics registry and the profiling report,
//! - [`circuits`] — speed-independent gate-level circuits, including the
//!   Seitz arbiter of the paper's case study,
//! - [`mod@bench`] — workload generators and the benchmark observatory
//!   behind `smc bench`,
//! - [`engine`] — the parallel checking engine behind `smc batch` and
//!   `smc serve`: one shared job queue for the workers, per-job
//!   governors, a warm-start artifact cache, and the checker loop every
//!   checking command runs.
//!
//! ## Quickstart
//!
//! ```
//! use smc::kripke::SymbolicModelBuilder;
//! use smc::logic::ctl;
//! use smc::checker::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-bit counter: bit0 toggles every step, bit1 toggles on carry.
//! let mut b = SymbolicModelBuilder::new();
//! let bit0 = b.bool_var("bit0")?;
//! let bit1 = b.bool_var("bit1")?;
//! b.init_zero();
//! b.next_fn(bit0, |m, cur| m.not(cur[0]));
//! b.next_fn(bit1, |m, cur| m.xor(cur[0], cur[1]));
//! let mut model = b.build()?;
//!
//! // "the counter always eventually returns to zero"
//! let spec = ctl::parse("AG (AF (!bit0 & !bit1))")?;
//! let mut checker = Checker::new(&mut model);
//! let verdict = checker.check(&spec)?;
//! assert!(verdict.holds());
//! # let _ = (bit0, bit1);
//! # Ok(())
//! # }
//! ```

pub use smc_analysis as analysis;
pub use smc_automata as automata;
pub use smc_bdd as bdd;
pub use smc_bench as bench;
pub use smc_checker as checker;
pub use smc_circuits as circuits;
pub use smc_engine as engine;
pub use smc_explicit as explicit;
pub use smc_kripke as kripke;
pub use smc_logic as logic;
pub use smc_obs as obs;
pub use smc_smv as smv;
