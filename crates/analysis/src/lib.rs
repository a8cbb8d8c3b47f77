#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # smc-analysis — static and symbolic analysis of SMV models
//!
//! A multi-pass analyzer ("lint") producing structured diagnostics with
//! stable codes, severities and source spans:
//!
//! 1. **Syntactic/semantic** (`syntactic`): walks the flattened AST —
//!    undeclared identifiers, duplicate assignments, out-of-domain
//!    constants, shadowed `case` branches, circular `next()`
//!    dependencies, unused and write-only variables.
//! 2. **Dataflow** (`dataflow`): builds the variable dependency graph,
//!    runs the constant-propagation fixpoint, and reports variables
//!    frozen at one value (W021) or outside every spec's cone of
//!    influence (W022). `smc deps` prints the same graph and cones.
//! 3. **Symbolic** (`symbolic`): compiles the model (deadlocks
//!    allowed, branch guards recorded) and checks it with BDDs — a
//!    non-total transition relation with a concrete stuck state,
//!    `case` branches no relevant state ever takes, fairness
//!    constraints no reachable state satisfies.
//! 4. **Vacuity** (`vacuity`): for every passing `SPEC`, strengthens
//!    each atom occurrence by polarity (Beer–Ben-David–Eisner–Rodeh)
//!    and rechecks; a spec that still passes is reported vacuous,
//!    with an *interesting witness* for the strengthened formula.
//!
//! All symbolic work runs under the resource governor: a tripped budget
//! stops the analysis cleanly ([`Report::exhausted`], exit code 3) and
//! keeps the diagnostics gathered so far. Findings are emitted as
//! [`smc_obs::Event::Diagnostic`] telemetry inside a `lint` span.
//!
//! ## Example
//!
//! ```
//! use smc_analysis::{analyze, AnalysisOptions};
//!
//! let report = analyze(
//!     "MODULE main\nVAR x : boolean;\nVAR y : boolean;\nASSIGN next(x) := !x;",
//!     &AnalysisOptions::default(),
//! );
//! assert!(report.diagnostics.iter().any(|d| d.code == "W001")); // y unused
//! ```

mod dataflow;
mod diag;
mod symbolic;
mod syntactic;
mod vacuity;

pub use dataflow::{frozen_constants, ConstVal, DepGraph};
pub use diag::{Diagnostic, Report, Severity};

use smc_bdd::Budget;
use smc_kripke::KripkeError;
use smc_obs::{Event, SpanKind, StatsSnapshot, Telemetry};
use smc_smv::{CompileOptions, SmvError};

/// Knobs for one [`analyze`] run. Every run takes every pass; the
/// default has no budget and telemetry disabled.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Resource budget installed on the model's manager for the
    /// symbolic and vacuity passes.
    pub budget: Option<Budget>,
    /// Telemetry handle; the run opens a `lint` span and emits one
    /// `diagnostic` event per finding.
    pub telemetry: Telemetry,
}

/// Analyzes one SMV source end to end and returns the sorted report.
///
/// Parse and flatten errors become `E001`/`E002` diagnostics; when the
/// syntactic pass finds errors the symbolic passes are skipped (the
/// compile would fail on the same problems anyway).
pub fn analyze(source: &str, opts: &AnalysisOptions) -> Report {
    let tele = opts.telemetry.clone();
    let span = tele.span_start(SpanKind::Lint, None, StatsSnapshot::default());
    let mut report = analyze_inner(source, opts);
    report.sort();
    if tele.enabled() {
        for d in &report.diagnostics {
            tele.emit(Event::Diagnostic {
                code: d.code.to_string(),
                severity: d.severity.as_str(),
            });
        }
    }
    tele.span_end(span, StatsSnapshot::default());
    report
}

fn analyze_inner(source: &str, opts: &AnalysisOptions) -> Report {
    let mut report = Report::new();
    let program = match smc_smv::parse(source) {
        Ok(p) => p,
        Err(e) => {
            report.push(smv_diag(&e));
            return report;
        }
    };
    let module = match smc_smv::flatten(&program) {
        Ok(m) => m,
        Err(e) => {
            report.push(smv_diag(&e));
            return report;
        }
    };

    syntactic::run(&module, &mut report);

    if report.has_errors() {
        return report;
    }
    // Dataflow warnings (W021/W022) are source-level like pass 1, but
    // only meaningful on a module whose names all resolve.
    dataflow::lint(&module, &mut report);

    let compile_opts = CompileOptions { allow_deadlock: true, record_branches: true };
    let mut compiled = match smc_smv::compile_module_with_options(
        &module,
        opts.budget.clone(),
        opts.telemetry.clone(),
        compile_opts,
    ) {
        Ok(c) => c,
        Err(e) => {
            match smv_trip(&e) {
                Some(reason) => report.exhausted = Some(reason),
                None => report.push(smv_diag(&e)),
            }
            return report;
        }
    };

    if let Err(symbolic::Exhausted(reason)) = symbolic::run(&mut compiled, &mut report) {
        report.exhausted = Some(reason);
        return report;
    }
    if let Err(symbolic::Exhausted(reason)) = vacuity::run(&mut compiled, &mut report) {
        report.exhausted = Some(reason);
    }
    report
}

/// Routes a frontend error into the diagnostics vocabulary: `E001` for
/// parse errors, `E002` for static semantics, `E003` for model-layer
/// failures.
pub fn smv_diag(e: &SmvError) -> Diagnostic {
    let code = match e {
        SmvError::Parse { .. } => "E001",
        SmvError::Semantic { .. } => "E002",
        SmvError::Kripke(_) => "E003",
    };
    Diagnostic::error(code, e.to_string(), e.span())
}

/// `Some(reason)` when the frontend error is really a governor trip.
fn smv_trip(e: &SmvError) -> Option<String> {
    match e {
        SmvError::Kripke(KripkeError::Exhausted { reason, .. }) => Some(reason.to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn analyze_full(src: &str) -> Report {
        analyze(src, &AnalysisOptions::default())
    }

    #[test]
    fn clean_model_reports_nothing() {
        let report = analyze_full(
            "MODULE main\n\
             VAR x : boolean;\n\
             ASSIGN init(x) := FALSE; next(x) := !x;\n\
             SPEC AG (AF x)\n",
        );
        assert_eq!(report.diagnostics, vec![], "clean model must stay clean");
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn parse_error_is_e001_with_span() {
        let report = analyze_full("MODULE main\nVAR x boolean;\n");
        assert_eq!(codes(&report), vec!["E001"]);
        assert!(report.diagnostics[0].span.is_some());
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn undeclared_identifier_is_e010() {
        let report =
            analyze_full("MODULE main\nVAR x : boolean;\nASSIGN next(x) := y;\nSPEC EF x\n");
        assert_eq!(codes(&report), vec!["E010"]);
    }

    #[test]
    fn duplicate_assign_is_e011() {
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\n\
             ASSIGN next(x) := TRUE; next(x) := FALSE;\n\
             SPEC AG x\n",
        );
        assert!(codes(&report).contains(&"E011"), "{report:?}");
    }

    #[test]
    fn out_of_range_assignment_is_e012() {
        let report =
            analyze_full("MODULE main\nVAR c : 0..2;\nASSIGN init(c) := 0; next(c) := 5;\n");
        assert!(codes(&report).contains(&"E012"), "{report:?}");
    }

    #[test]
    fn unused_and_write_only_variables() {
        let report = analyze_full(
            "MODULE main\n\
             VAR x : boolean;\n\
             VAR z : boolean;\n\
             VAR wo : boolean;\n\
             ASSIGN next(x) := !x; next(wo) := x;\n\
             SPEC EF x\n",
        );
        let cs = codes(&report);
        assert!(cs.contains(&"W001"), "z unused: {report:?}");
        assert!(cs.contains(&"W002"), "wo write-only: {report:?}");
    }

    #[test]
    fn read_through_define_keeps_variable_live() {
        let report = analyze_full(
            "MODULE main\n\
             VAR x : boolean;\n\
             DEFINE alias := x;\n\
             ASSIGN next(x) := !x;\n\
             SPEC EF alias\n",
        );
        assert_eq!(codes(&report), Vec::<&str>::new(), "{report:?}");
    }

    #[test]
    fn shadowed_case_branch_is_w003() {
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\n\
             ASSIGN next(x) := case TRUE : !x; x : FALSE; esac;\n\
             SPEC AG (EF x)\n",
        );
        assert!(codes(&report).contains(&"W003"), "{report:?}");
    }

    #[test]
    fn circular_next_dependency_is_w004() {
        // next() in an ASSIGN right-hand side is also a placement error,
        // so the cycle coexists with E002.
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\nVAR y : boolean;\n\
             ASSIGN next(x) := next(y); next(y) := next(x);\n",
        );
        let cs = codes(&report);
        assert!(cs.contains(&"W004"), "{report:?}");
        assert!(cs.contains(&"E002"), "{report:?}");
    }

    #[test]
    fn constant_comparison_is_w005() {
        let report = analyze_full(
            "MODULE main\nVAR c : 0..2;\n\
             ASSIGN next(c) := c;\n\
             SPEC AG (c = 5 -> AF c = 0)\n",
        );
        assert!(codes(&report).contains(&"W005"), "{report:?}");
    }

    #[test]
    fn deadlock_is_w010_with_stuck_state() {
        // From x=1 there is no successor: next(x) must be both x (stay)
        // and !x — contradiction via TRANS.
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\n\
             ASSIGN init(x) := FALSE;\n\
             TRANS (!x -> next(x)) & (x -> next(x)) & (x -> !next(x))\n\
             SPEC EF x\n",
        );
        let w010 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W010")
            .unwrap_or_else(|| panic!("no W010 in {report:?}"));
        assert!(
            w010.notes.iter().any(|n| n.contains("stuck state")),
            "W010 must carry evidence: {w010:?}"
        );
    }

    #[test]
    fn unreachable_case_branch_is_w011() {
        // x stays FALSE forever, so the `x : TRUE` branch never fires.
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\nVAR y : boolean;\n\
             ASSIGN\n\
             init(x) := FALSE; next(x) := FALSE;\n\
             next(y) := case x : TRUE; TRUE : !y; esac;\n\
             SPEC AG (EF y)\n",
        );
        assert!(codes(&report).contains(&"W011"), "{report:?}");
    }

    #[test]
    fn unsatisfiable_fairness_is_w012() {
        let report = analyze_full(
            "MODULE main\nVAR x : boolean;\n\
             ASSIGN init(x) := FALSE; next(x) := FALSE;\n\
             FAIRNESS x\n",
        );
        assert!(codes(&report).contains(&"W012"), "{report:?}");
    }

    #[test]
    fn vacuous_spec_is_w020_with_witness() {
        // req is never TRUE, so AG (req -> AF ack) holds vacuously: the
        // `ack` occurrence can be strengthened to FALSE (giving AG !req)
        // without changing the verdict.
        let report = analyze_full(
            "MODULE main\n\
             VAR req : boolean;\nVAR ack : boolean;\n\
             ASSIGN\n\
             init(req) := FALSE; next(req) := FALSE;\n\
             init(ack) := FALSE; next(ack) := {FALSE, TRUE};\n\
             SPEC AG (req -> AF ack)\n",
        );
        let w020 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W020")
            .unwrap_or_else(|| panic!("no W020 in {report:?}"));
        assert!(w020.message.contains("`ack`"), "names the irrelevant leaf: {w020:?}");
        let strengthened = w020
            .notes
            .iter()
            .find(|n| n.contains("still holds"))
            .unwrap_or_else(|| panic!("carries the strengthened formula: {w020:?}"));
        assert!(
            !strengthened.contains("__spec"),
            "labels are substituted back to source text: {strengthened}"
        );
        assert!(
            w020.notes.iter().any(|n| n.contains("state 0:")),
            "carries a witness trace: {w020:?}"
        );
    }

    #[test]
    fn non_vacuous_spec_is_clean() {
        // req is free and ack follows it one step later: strengthening
        // req (AG AF ack) or ack (AG !req) flips the verdict, so both
        // occurrences matter.
        let report = analyze_full(
            "MODULE main\n\
             VAR req : boolean;\nVAR ack : boolean;\n\
             ASSIGN\n\
             init(req) := FALSE; next(req) := {FALSE, TRUE};\n\
             init(ack) := FALSE; next(ack) := req;\n\
             SPEC AG (req -> AF ack)\n",
        );
        assert!(
            !codes(&report).contains(&"W020"),
            "a spec where every atom matters is not vacuous: {report:?}"
        );
    }

    #[test]
    fn budget_trip_reports_exhausted_and_exit_3() {
        let opts = AnalysisOptions {
            budget: Some(Budget::new().with_alloc_limit(1)),
            ..AnalysisOptions::default()
        };
        let report = analyze(
            "MODULE main\nVAR c : 0..7;\n\
             ASSIGN init(c) := 0; next(c) := (c + 1) mod 8;\n\
             SPEC AG (EF c = 0)\n",
            &opts,
        );
        assert!(report.exhausted.is_some(), "{report:?}");
        assert_eq!(report.exit_code(), 3);
    }

    #[test]
    fn telemetry_gets_a_lint_span_and_diagnostic_events() {
        use smc_obs::{EventCtx, Sink};
        use std::sync::{Arc, Mutex};

        struct Collect(Arc<Mutex<Vec<Event>>>);
        impl Sink for Collect {
            fn record(&mut self, _ctx: &EventCtx, event: &Event) {
                self.0.lock().expect("collect lock").push(event.clone());
            }
        }

        let collected: Arc<Mutex<Vec<Event>>> = Arc::default();
        let tele = Telemetry::new();
        tele.add_sink(Box::new(Collect(Arc::clone(&collected))));
        let opts = AnalysisOptions { telemetry: tele, ..AnalysisOptions::default() };
        let report = analyze("MODULE main\nVAR x : boolean;\nVAR y : boolean;\n", &opts);
        assert!(!report.diagnostics.is_empty());
        let events = collected.lock().expect("collect lock");
        assert!(
            events.iter().any(|e| matches!(e, Event::SpanStart { kind: SpanKind::Lint, .. })),
            "lint span missing"
        );
        let diags = events.iter().filter(|e| matches!(e, Event::Diagnostic { .. })).count();
        assert_eq!(diags, report.diagnostics.len());
    }
}
