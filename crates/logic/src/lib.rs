#![warn(missing_docs)]

//! # smc-logic — CTL and CTL* temporal logic
//!
//! Formula representations for the model checker:
//!
//! - [`ctl`]: Computation Tree Logic (Section 3 of
//!   Clarke–Grumberg–McMillan–Zhao, DAC 1995) with the existential basis
//!   `EX` / `EU` / `EG` plus all the usual universal abbreviations, a
//!   parser and a pretty-printer.
//! - [`ctlstar`]: the CTL* fragment of Section 7 — path formulas under a
//!   single path quantifier — together with the *fairness class*
//!   `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)` classifier the witness generator needs.
//! - [`polarity`]: occurrence polarity analysis and single-occurrence
//!   replacement, the formula-level half of spec vacuity detection.
//!
//! ## Example
//!
//! ```
//! use smc_logic::ctl;
//!
//! # fn main() -> Result<(), smc_logic::ParseError> {
//! let spec = ctl::parse("AG (req -> AF ack)")?;
//! assert_eq!(spec.to_string(), "AG (req -> AF ack)");
//! # Ok(())
//! # }
//! ```

pub mod ctl;
pub mod ctlstar;
mod error;
mod lexer;
mod parser;
pub mod polarity;

pub use ctl::Ctl;
pub use ctlstar::{EFairness, GfFgDisjunct, PathFormula, StateFormula};
pub use error::ParseError;
pub use lexer::RESERVED_WORDS;
pub use parser::{MAX_FORMULA_SIZE, MAX_SYNTAX_DEPTH};
pub use polarity::{atom_occurrences, replace_atom_occurrence, AtomOccurrence, Polarity};

#[cfg(test)]
mod tests;
