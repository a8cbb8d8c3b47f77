//! Lint must be a pure observer: running the analyzer over a model's
//! source — including its symbolic and vacuity passes, which compile
//! the model and re-check strengthened specs on their own BDD manager —
//! must not perturb a checking run on that source in any way. Every
//! property here runs the same queries twice on freshly-compiled
//! models, with a full `analyze()` sandwiched between the runs, and
//! asserts the results are bit-identical: same verdicts, same verdict
//! state-set node ids, same EU onion rings, same witness traces.

use proptest::prelude::*;
use smc_analysis::{analyze, AnalysisOptions};
use smc_bdd::Bdd;
use smc_checker::fixpoint::eu_rings;
use smc_checker::{CheckError, Checker, Trace};

/// Everything a checking run produces that a lint could conceivably
/// perturb, in bit-comparable form.
#[derive(Debug, PartialEq)]
struct RunResult {
    /// Per spec: does it hold, the satisfying-set BDD node, the trace.
    outcomes: Vec<(bool, Bdd, Option<Trace>)>,
    /// Onion rings of `E [reachable U init]` — exercises the frontier
    /// fixpoint the witness generator's ring-descent depends on.
    rings: Vec<Bdd>,
}

/// Compiles `source` fresh (own manager) and runs the full query set.
fn run_queries(source: &str) -> RunResult {
    let mut compiled = smc_smv::compile(source).expect("generated model compiles");
    let init = compiled.model.init();
    let reach = compiled.model.reachable().expect("reachable");
    let rings = eu_rings(&mut compiled.model, reach, init).expect("rings");

    let specs = compiled.specs.clone();
    let mut checker = Checker::new(&mut compiled.model);
    let outcomes = specs
        .iter()
        .map(|spec| {
            // Generated FAIRNESS can be unsatisfiable, emptying the fair
            // state set; no trace exists then, which is itself a result
            // the lint must not flip.
            match checker.check_with_trace(&spec.formula) {
                Ok(out) => (out.verdict.holds(), out.verdict.states, out.trace),
                Err(CheckError::NothingToExplain) => {
                    let v = checker.check(&spec.formula).expect("check");
                    (v.holds(), v.states, None)
                }
                Err(e) => panic!("check: {e:?}"),
            }
        })
        .collect();
    RunResult { outcomes, rings }
}

/// One generated `next()` right-hand side for a boolean variable.
#[derive(Debug, Clone, Copy)]
enum NextKind {
    Hold,
    Flip,
    CopyOther,
    Free,
}

fn next_rhs(kind: NextKind, me: &str, other: &str) -> String {
    match kind {
        NextKind::Hold => me.to_string(),
        NextKind::Flip => format!("!{me}"),
        NextKind::CopyOther => other.to_string(),
        NextKind::Free => "{FALSE, TRUE}".to_string(),
    }
}

fn next_kind() -> impl Strategy<Value = NextKind> {
    prop_oneof![
        Just(NextKind::Hold),
        Just(NextKind::Flip),
        Just(NextKind::CopyOther),
        Just(NextKind::Free),
    ]
}

/// A small two-variable model with configurable dynamics, optional
/// fairness, and two specs drawn from shapes the checker handles with
/// different witness machinery (invariant counterexamples, EU/EF
/// witnesses, fair lassos). Always total (pure ASSIGN), so every
/// generated instance compiles.
fn smv_source() -> impl Strategy<Value = String> {
    (
        (any::<bool>(), any::<bool>()),
        (next_kind(), next_kind()),
        any::<bool>(),
        prop_oneof![
            Just("SPEC AG (a -> AF b)"),
            Just("SPEC EF (a & b)"),
            Just("SPEC AG EF a"),
            Just("SPEC EX b"),
            Just("SPEC AG !a"),
        ],
        prop_oneof![Just("SPEC EF b"), Just("SPEC AF a"), Just("SPEC AG (b -> EX a)")],
    )
        .prop_map(|((ia, ib), (ka, kb), fair, s1, s2)| {
            let fmt = |v: bool| if v { "TRUE" } else { "FALSE" };
            format!(
                "MODULE main\nVAR\n  a : boolean;\n  b : boolean;\nASSIGN\n  \
                 init(a) := {};\n  next(a) := {};\n  init(b) := {};\n  next(b) := {};\n{}{s1}\n{s2}\n",
                fmt(ia),
                next_rhs(ka, "a", "b"),
                fmt(ib),
                next_rhs(kb, "b", "a"),
                if fair { "FAIRNESS b\n" } else { "" },
            )
        })
}

proptest! {
    // Each case compiles three models and checks two specs three times
    // (baseline, lint's own vacuity re-checks, re-run); keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central property: verdicts, satisfying-set node ids, witness
    /// traces and EU rings are bit-identical whether or not a full
    /// analyze() — symbolic pass, vacuity re-checking and all — runs in
    /// between.
    #[test]
    fn lint_never_perturbs_checking(source in smv_source()) {
        let baseline = run_queries(&source);

        let report = analyze(&source, &AnalysisOptions::default());
        prop_assert!(
            !report.has_errors(),
            "generated model must lint without errors: {report:#?}\n{source}"
        );

        let after = run_queries(&source);
        prop_assert_eq!(baseline, after, "lint perturbed the checking run\n{}", source);
    }
}
