//! Telemetry must be a pure observer: enabling spans, fixpoint event
//! streams and witness-search events must not perturb the computation.
//! Every property here runs the same query twice on identically-built
//! models — once with telemetry disabled (the default), once with a
//! recording sink attached — and asserts the results are bit-identical:
//! same verdicts, same EU onion-ring node ids, same witness traces.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smc_bdd::Bdd;
use smc_checker::fixpoint::eu_rings;
use smc_checker::{Checker, Trace};
use smc_kripke::{SymbolicModel, SymbolicModelBuilder};
use smc_logic::ctl;
use smc_obs::{Event, EventCtx, Sink, SpanKind, Telemetry};

/// x toggles every step.
fn toggle() -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh var");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.build().expect("valid model")
}

/// x free (may flip or stay), with optional fairness on x=1.
fn free_bit(fair_on_x: bool) -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("x").expect("fresh var");
    b.init_zero();
    if fair_on_x {
        b.fairness_fn(|_, cur| cur[0]);
    }
    b.build().expect("valid model")
}

/// Records every event it sees, shared with the test body.
struct Recorder(Arc<Mutex<Vec<Event>>>);

impl Sink for Recorder {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        self.0.lock().expect("recorder lock").push(event.clone());
    }
}

/// Attaches a live telemetry handle with a recording sink to `model`
/// and returns the shared event log.
fn attach_recorder(model: &mut SymbolicModel) -> Arc<Mutex<Vec<Event>>> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let tele = Telemetry::new();
    tele.add_sink(Box::new(Recorder(events.clone())));
    model.manager_mut().set_telemetry(tele);
    events
}

/// Runs `run` on a plain model and on an instrumented one; asserts the
/// results match bit for bit and that the instrumented run actually
/// observed events (a silent no-op would vacuously pass).
fn assert_observer_is_pure<T>(
    label: &str,
    make_model: impl Fn() -> SymbolicModel,
    mut run: impl FnMut(&mut SymbolicModel) -> T,
) -> Vec<Event>
where
    T: PartialEq + std::fmt::Debug,
{
    let mut plain = make_model();
    let want = run(&mut plain);

    let mut observed = make_model();
    let events = attach_recorder(&mut observed);
    let got = run(&mut observed);

    assert_eq!(got, want, "{label}: telemetry changed the result");
    let events = events.lock().expect("recorder lock").clone();
    assert!(!events.is_empty(), "{label}: no events recorded");
    events
}

#[test]
fn verdict_and_witness_are_bit_identical_with_telemetry() {
    let spec = ctl::parse("AG (AF x)").expect("parse");
    let ef = ctl::parse("EF x").expect("parse");
    let events = assert_observer_is_pure("check+witness", toggle, |m| {
        let mut c = Checker::new(m);
        let v = c.check(&spec).expect("verdict");
        let t = c.witness(&ef).expect("witness");
        (v.holds(), v.states, t)
    });
    // The run must have produced check spans and fixpoint iterations.
    assert!(
        events.iter().any(|e| matches!(e, Event::SpanStart { .. })),
        "no spans among {} events",
        events.len()
    );
    assert!(
        events.iter().any(|e| matches!(e, Event::FixpointIter { .. })),
        "no fixpoint iterations among {} events",
        events.len()
    );
}

#[test]
fn eu_rings_are_bit_identical_with_telemetry() {
    assert_observer_is_pure("eu_rings", toggle, |m| {
        let x = m.ap("x").expect("declared");
        let nx = m.manager_mut().not(x);
        eu_rings(m, nx, x).expect("rings")
    });
}

#[test]
fn fair_lasso_witness_is_bit_identical_with_telemetry() {
    let spec = ctl::parse("EG true").expect("parse");
    let events = assert_observer_is_pure(
        "fair witness",
        || free_bit(true),
        |m| {
            let mut c = Checker::new(m);
            c.witness(&spec).expect("fair lasso")
        },
    );
    // The lasso search must have reported its fairness hops.
    assert!(
        events.iter().any(|e| matches!(e, Event::WitnessHop { .. })),
        "no witness hops among {} events",
        events.len()
    );
    assert!(
        events.iter().any(|e| matches!(e, Event::CycleClose { closed: true, .. })),
        "no successful cycle closure among {} events",
        events.len()
    );
}

#[test]
fn counterexample_is_bit_identical_with_telemetry() {
    let spec = ctl::parse("AG x").expect("parse");
    assert_observer_is_pure("counterexample", toggle, |m| {
        let mut c = Checker::new(m);
        c.counterexample(&spec).expect("counterexample")
    });
}

#[test]
fn each_fair_eg_fixpoint_runs_once_per_formula_node() {
    // (spec, distinct EG nodes the check and its trace need). `EG true`
    // is the fair set: EX and EU targets are restricted to it, and a
    // finite witness is extended by its lasso.
    for (spec, eg_nodes) in [("EG true", 1), ("EX (EG x)", 2), ("E [!x U x]", 1)] {
        let mut m = free_bit(true);
        let events = attach_recorder(&mut m);
        let outcome = Checker::new(&mut m)
            .check_with_trace(&ctl::parse(spec).expect("parse"))
            .expect("checked");
        assert!(outcome.verdict.holds(), "{spec}");
        assert!(outcome.trace.expect("witness").is_lasso(), "{spec}");
        let events = events.lock().expect("recorder lock");
        let spans = |kind: SpanKind| {
            events
                .iter()
                .filter(|e| matches!(e, Event::SpanStart { kind: k, .. } if *k == kind))
                .count()
        };
        assert_eq!(spans(SpanKind::FairEg), eg_nodes, "{spec}: one fair_eg span per EG node");
        assert_eq!(spans(SpanKind::FairRings), 0, "{spec}: no separate ring harvest");
    }
}

/// Uninterrupted plain-run reference used by the property below.
fn reference(formula: &str, fair: bool) -> (bool, Vec<Bdd>, Option<Trace>) {
    run_once(&mut free_or_toggle(fair), formula)
}

fn free_or_toggle(fair: bool) -> SymbolicModel {
    if fair {
        free_bit(true)
    } else {
        toggle()
    }
}

fn run_once(m: &mut SymbolicModel, formula: &str) -> (bool, Vec<Bdd>, Option<Trace>) {
    let x = m.ap("x").expect("declared");
    let nx = m.manager_mut().not(x);
    let rings = eu_rings(m, nx, x).expect("rings");
    let spec = ctl::parse(formula).expect("parse");
    let mut c = Checker::new(m);
    let out = c.check_with_trace(&spec).expect("checked");
    (out.verdict.holds(), rings, out.trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: over a grid of formulas and both model shapes, a run
    /// with telemetry attached returns the same verdict, the same EU
    /// ring node ids, and the same trace states as a plain run.
    #[test]
    fn prop_telemetry_never_perturbs_results(
        formula_idx in 0usize..6,
        fair in any::<bool>(),
    ) {
        let formula = [
            "AG (AF x)",
            "AG x",
            "EF x",
            "EG true",
            "E [!x U x]",
            "AG (x -> EF !x)",
        ][formula_idx];
        let want = reference(formula, fair);

        let mut observed = free_or_toggle(fair);
        let events = attach_recorder(&mut observed);
        let got = run_once(&mut observed, formula);

        prop_assert_eq!(got, want, "telemetry perturbed {} (fair={})", formula, fair);
        prop_assert!(!events.lock().expect("recorder lock").is_empty(), "no events for {}", formula);
    }

    /// Property: the bounded flight-recorder ring with a trace tag set
    /// — the exact configuration `smc serve` runs every job under — is
    /// as pure an observer as the unbounded sink above, at any ring
    /// capacity: same verdicts, same EU ring node ids, same traces.
    /// Every event the ring keeps carries the tag, and the ring never
    /// holds more than its capacity.
    #[test]
    fn prop_flight_recorder_and_trace_tags_never_perturb_results(
        formula_idx in 0usize..6,
        fair in any::<bool>(),
        cap in 1usize..48,
    ) {
        let formula = [
            "AG (AF x)",
            "AG x",
            "EF x",
            "EG true",
            "E [!x U x]",
            "AG (x -> EF !x)",
        ][formula_idx];
        let want = reference(formula, fair);

        let mut observed = free_or_toggle(fair);
        let ring = smc_obs::Recorder::new(cap);
        let tele = Telemetry::new();
        tele.set_trace("prop-drill", 7);
        tele.add_sink(Box::new(ring.clone()));
        observed.manager_mut().set_telemetry(tele);
        let got = run_once(&mut observed, formula);

        prop_assert_eq!(got, want, "recorder perturbed {} (fair={}, cap={})", formula, fair, cap);
        prop_assert!(ring.captured() > 0, "ring saw no events for {}", formula);

        let dump = ring.dump_jsonl(&smc_obs::DumpMeta {
            trace_id: "prop-drill",
            job: "prop",
            worker: 7,
            reason: "purity drill",
        });
        let body: Vec<_> = dump.lines().skip(1).collect();
        prop_assert!(body.len() <= cap, "ring of {} kept {} events", cap, body.len());
        for line in body {
            let (ctx, _) = Event::from_json_line(line)
                .ok_or_else(|| TestCaseError::fail(format!("unparseable dump line: {line}")))?;
            let tag = ctx.trace
                .ok_or_else(|| TestCaseError::fail(format!("untagged dump line: {line}")))?;
            prop_assert_eq!(&*tag.trace_id, "prop-drill");
            prop_assert_eq!(tag.worker, 7);
        }
    }
}
