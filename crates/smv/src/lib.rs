#![warn(missing_docs)]

//! # smc-smv — an SMV-like modeling language
//!
//! A frontend in the spirit of the SMV system the paper's algorithms
//! were built into: finite-state models are described with variable
//! declarations, functional `ASSIGN`s, raw `INIT`/`TRANS` constraints,
//! `FAIRNESS` constraints and CTL `SPEC`s, then compiled to the symbolic
//! Kripke structures of [`smc_kripke`].
//!
//! Programs may define multiple parameterized modules; instances
//! (`VAR c : cell(arg);`) are flattened into `main` with dotted names
//! (`c.n`) and arguments bound by expression substitution, exactly like
//! SMV. Supported syntax:
//!
//! ```text
//! MODULE counter(inc)
//! VAR n : 0..7;
//! ASSIGN next(n) := case inc : (n + 1) mod 8; TRUE : n; esac;
//!
//! MODULE main
//! VAR
//!   x     : boolean;
//!   state : {idle, busy, done};
//!   count : 0..7;
//!   sub   : counter(x);
//! ASSIGN
//!   init(x)     := FALSE;
//!   next(x)     := !x;
//!   init(state) := idle;
//!   next(state) := case
//!       state = idle & x  : busy;
//!       state = busy      : {busy, done};
//!       TRUE              : idle;
//!     esac;
//! TRANS next(count) = (count + 1) mod 8
//! FAIRNESS state = done
//! SPEC AG (state = busy -> AF state = done)
//! ```
//!
//! Expressions support the boolean connectives, comparisons
//! (`= != < <= > >=`), integer arithmetic (`+ - * mod`), `case … esac`,
//! nondeterministic choice sets `{a, b}`, and `next(…)` inside `TRANS`.
//!
//! ## Example
//!
//! ```
//! use smc_smv::compile;
//! use smc_checker::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!   MODULE main
//!   VAR x : boolean;
//!   ASSIGN
//!     init(x) := FALSE;
//!     next(x) := !x;
//!   SPEC AG (AF x)
//! "#;
//! let mut compiled = compile(src)?;
//! let spec = compiled.specs[0].formula.clone();
//! let mut checker = Checker::new(&mut compiled.model);
//! assert!(checker.check(&spec)?.holds());
//! # Ok(())
//! # }
//! ```

mod ast;
mod compile;
mod error;
mod flatten;
mod lexer;
mod parser;
mod value;

pub use ast::{
    Assign, AssignKind, CaseBranch, Decl, Expr, Module, Program, Section, Span, Spec, VarType,
};
pub use compile::{
    compile, compile_module_with_options, compile_with, compile_with_options, AssignBranch,
    CompileOptions, CompiledModel, CompiledSpec,
};
pub use error::SmvError;
pub use flatten::flatten;
pub use parser::parse;
pub use value::{ArithOp, Value};

#[cfg(test)]
mod tests;

/// Compile-time `Send` assertion: compiled models (and the flattened
/// modules the warm-start cache shares between jobs) cross thread
/// boundaries in the parallel engine.
#[allow(dead_code)]
mod send_assertions {
    fn assert_send<T: Send>() {}

    fn session_types_are_send() {
        assert_send::<crate::CompiledModel>();
        assert_send::<crate::Module>();
        assert_send::<crate::Program>();
    }

    fn shared_artifacts_are_sync() {
        // The cache hands out `Arc<Module>` clones to concurrent jobs.
        fn assert_sync<T: Sync>() {}
        assert_sync::<crate::Module>();
    }
}
