//! Heap sampling must be a pure observer: the `Event::HeapSample`
//! checkpoints emitted during fixpoint iteration and after collections
//! are read-only folds over the manager, so turning them on must not
//! perturb a checking run in any way. Every property here runs the same
//! query set twice on freshly-compiled models — once with telemetry
//! disabled (the default: sampling is compiled out of the hot path),
//! once with a live telemetry handle and a recording sink — and asserts
//! the results are bit-identical: same verdicts, same verdict state-set
//! node ids, same EU onion rings, same witness traces. It also asserts
//! the instrumented run actually observed heap samples, so a silently
//! disabled sampler can't vacuously pass.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smc_bdd::Bdd;
use smc_checker::fixpoint::eu_rings;
use smc_checker::{CheckError, Checker, Trace};
use smc_obs::{Event, EventCtx, Sink, Telemetry};

/// Everything a checking run produces that heap sampling could
/// conceivably perturb, in bit-comparable form.
#[derive(Debug, PartialEq)]
struct RunResult {
    /// Per spec: does it hold, the satisfying-set BDD node, the trace.
    outcomes: Vec<(bool, Bdd, Option<Trace>)>,
    /// Onion rings of `E [reachable U init]` — exercises the frontier
    /// fixpoint the witness generator's ring-descent depends on.
    rings: Vec<Bdd>,
}

/// Records every event it sees, shared with the test body.
struct Recorder(Arc<Mutex<Vec<Event>>>);

impl Sink for Recorder {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        self.0.lock().expect("recorder lock").push(event.clone());
    }
}

/// Compiles `source` fresh (own manager) and runs the full query set.
/// With `sample` set, a live telemetry handle with a recording sink is
/// attached before any query runs, and the observed events are
/// returned alongside the results.
fn run_queries(source: &str, sample: bool) -> (RunResult, Vec<Event>) {
    let mut compiled = smc_smv::compile(source).expect("generated model compiles");

    let events = Arc::new(Mutex::new(Vec::new()));
    if sample {
        let tele = Telemetry::new();
        tele.add_sink(Box::new(Recorder(events.clone())));
        compiled.model.manager_mut().set_telemetry(tele);
    }
    // The compiler computes reachability eagerly (totality checking),
    // before the sink is attached; drop it so both runs re-walk the
    // frontier fixpoint — the instrumented one under observation.
    compiled.model.forget_reachable();

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
            // the sampler must not flip.
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

    let events = events.lock().expect("recorder lock").clone();
    (RunResult { outcomes, rings }, events)
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
    // Each case compiles two models and runs the full query set twice;
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central property: verdicts, satisfying-set node ids, witness
    /// traces and EU rings are bit-identical whether heap sampling is
    /// off (the default) or on with a live recording sink.
    #[test]
    fn heap_sampling_never_perturbs_checking(source in smv_source()) {
        let (baseline, silent) = run_queries(&source, false);
        prop_assert!(
            silent.is_empty(),
            "telemetry-off run leaked events: {silent:?}\n{source}"
        );

        let (sampled, events) = run_queries(&source, true);
        prop_assert_eq!(
            baseline, sampled,
            "heap sampling perturbed the checking run\n{}", source
        );

        // The sandwich is only meaningful if the instrumented run really
        // sampled the heap: the fixpoint observer emits at iteration 1,
        // so every model with a non-trivial reachability run samples.
        let samples = events
            .iter()
            .filter(|e| matches!(e, Event::HeapSample { .. }))
            .count();
        prop_assert!(samples > 0, "no heap samples among {} events\n{}", events.len(), source);
    }

    /// The sample payload itself is consistent: live nodes can never be
    /// fewer than the widest level's width, and the unique tables never
    /// report more entries than slots.
    #[test]
    fn heap_samples_are_internally_consistent(source in smv_source()) {
        let (_, events) = run_queries(&source, true);
        for e in &events {
            if let Event::HeapSample {
                live_nodes, widest_width, table_len, table_slots, ..
            } = e
            {
                prop_assert!(
                    widest_width <= live_nodes,
                    "widest level wider than the heap: {e:?}\n{source}"
                );
                prop_assert!(
                    table_len <= table_slots,
                    "unique tables over capacity: {e:?}\n{source}"
                );
            }
        }
    }
}
