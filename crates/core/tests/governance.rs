//! Fault-injected recovery across the public `Checker` surface.
//!
//! Every public entry point is driven into an injected mid-computation
//! fault (table-full or spurious cancellation at the Nth allocation) and
//! must (a) return a structured `CheckError::ResourceExhausted` — never
//! panic — and (b) leave the manager so exactly restored that re-running
//! the same query on the *same* model produces results bit-identical to
//! an uninterrupted run on a fresh manager: same verdicts, same witness
//! states, same BDD node ids. Both checkers are driven: `Checker::new`
//! and the verdict-only one, whose `EU`s chain backwards over a model's
//! events (built lazily at the first sweep) and record rings only when a
//! trace walks them. On an exported circuit whose fair `EG` takes
//! several Gauss–Seidel rounds, every allocation of a traced check takes
//! a fault, and so does every allocation of fair cycles' closing arcs
//! that a forward search decides and that the backward rings decide,
//! with or without a collection inside them.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smc_bdd::{Bdd, Budget, FaultPlan, TripReason};
use smc_checker::fixpoint::eu_rings;
use smc_checker::{CheckError, Checker, Trace};
use smc_kripke::{SymbolicModel, SymbolicModelBuilder};
use smc_logic::{ctl, ctlstar};
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

/// Two free bits `s`, `t` pick which of `x`, `y` may flip: `s` flips
/// `x`, `t` flips `y`. Its four guards (the values of `s, t`, one of
/// which only stutters) are analysed by reachability, so a verdict-only
/// checker chains its `EU`s.
fn selected() -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let ids = ["s", "t", "x", "y"].map(|name| b.bool_var(name).expect("fresh var"));
    b.init_zero();
    b.next_fn(ids[2], |m, cur| m.xor(cur[2], cur[0]));
    b.next_fn(ids[3], |m, cur| m.xor(cur[3], cur[1]));
    let mut model = b.build().expect("valid model");
    let s = model.ap("s").expect("declared");
    let t = model.ap("t").expect("declared");
    let m = model.manager_mut();
    let (ns, nt) = (m.not(s), m.not(t));
    let guards = [(s, t), (s, nt), (ns, t), (ns, nt)].map(|(a, b)| m.and(a, b));
    model.set_events(guards.to_vec());
    model.forget_reachable();
    model.reachable().expect("reachable");
    assert!(model.has_event_parts());
    model
}

/// The exported five-stage C-element ring: `AG AF c0` needs the fair
/// `EG !c0` (three outer rounds, the second in reverse order), and its
/// witness the fair `EG TRUE` lasso with its closing arc.
fn c_element_ring_5() -> SymbolicModel {
    let source = smc_circuits::families::c_element_ring(5).to_smv();
    smc_smv::compile(&source).expect("the export compiles").model
}

/// The exported seven-stage inverter ring. The fair `EG TRUE` lasso from
/// its initial state restarts once and then closes; the forward search
/// decides both closing arcs. (The C-element ring's single arc is decided
/// by the backward rings; `witness::eg`'s unit tests pin both.)
fn inverter_ring_7() -> SymbolicModel {
    let source = smc_circuits::families::inverter_ring(7).to_smv();
    smc_smv::compile(&source).expect("the export compiles").model
}

/// `Checker::new`, or its verdict-only form.
fn checker(model: &mut SymbolicModel, verdicts_only: bool) -> Checker<'_> {
    let c = Checker::new(model);
    if verdicts_only {
        c.verdicts_only()
    } else {
        c
    }
}

/// Drives `run`, on both checkers, into faults injected at several
/// allocation counts and checks the recovery contract: a clean
/// structured error, then a retry on the same model matching the
/// uninterrupted reference bit for bit.
fn assert_fault_recovery<T>(
    label: &str,
    make_model: impl Fn() -> SymbolicModel,
    run: impl Fn(&mut Checker) -> Result<T, CheckError>,
) where
    T: PartialEq + std::fmt::Debug,
{
    let points =
        [(1, true), (2, false), (5, true), (9, false), (17, true), (33, false), (65, true)];
    for verdicts_only in [false, true] {
        let want = run(&mut checker(&mut make_model(), verdicts_only))
            .unwrap_or_else(|e| panic!("{label}: uninterrupted run failed: {e}"));
        assert_recovery_at(label, &make_model, &run, verdicts_only, &points, &want);
    }
}

/// [`assert_fault_recovery`] at every allocation of the uninterrupted
/// run, each as a table-full fault and as a cancellation: every
/// checkpoint of every loop, and every step between, takes a trip.
fn assert_fault_recovery_everywhere<T>(
    label: &str,
    make_model: impl Fn() -> SymbolicModel,
    run: impl Fn(&mut Checker) -> Result<T, CheckError>,
) where
    T: PartialEq + std::fmt::Debug,
{
    for verdicts_only in [false, true] {
        let mut reference = make_model();
        let before = reference.manager().stats().created_nodes;
        let want = run(&mut checker(&mut reference, verdicts_only))
            .unwrap_or_else(|e| panic!("{label}: uninterrupted run failed: {e}"));
        let created = reference.manager().stats().created_nodes - before;
        let points: Vec<(u64, bool)> =
            (1..=created + 1).flat_map(|at| [(at, true), (at, false)]).collect();
        assert_recovery_at(label, &make_model, &run, verdicts_only, &points, &want);
    }
}

/// One faulted run per `(allocation, table_full)` point: a clean trip,
/// then a retry on the same model and checker equal to `want`.
fn assert_recovery_at<T>(
    label: &str,
    make_model: &impl Fn() -> SymbolicModel,
    run: &impl Fn(&mut Checker) -> Result<T, CheckError>,
    verdicts_only: bool,
    points: &[(u64, bool)],
    want: &T,
) where
    T: PartialEq + std::fmt::Debug,
{
    let label = format!("{label} (verdicts only: {verdicts_only})");
    for &(at, table_full) in points {
        let mut model = make_model();
        let plan = if table_full {
            FaultPlan { table_full_at: Some(at), ..FaultPlan::new() }
        } else {
            FaultPlan { cancel_at: Some(at), ..FaultPlan::new() }
        };
        model.manager_mut().inject_faults(plan);
        let mut c = checker(&mut model, verdicts_only);
        match run(&mut c) {
            // The fault point lay beyond the run's allocations.
            Ok(v) => assert_eq!(&v, want, "{label}: unfaulted run at {at} diverged"),
            Err(CheckError::ResourceExhausted { reason, .. }) => {
                let expect = if table_full { TripReason::TableFull } else { TripReason::Cancelled };
                assert_eq!(reason, expect, "{label}: wrong trip at {at}");
                // Triggers are one-shot: the retry runs to completion on
                // the very same model and checker.
                let got = run(&mut c)
                    .unwrap_or_else(|e| panic!("{label}: retry after fault at {at} failed: {e}"));
                assert_eq!(&got, want, "{label}: retry after fault at {at} diverged");
            }
            Err(other) => panic!("{label}: unexpected error at {at}: {other}"),
        }
        c.model().manager_mut().clear_faults();
        c.model().manager_mut().validate().unwrap_or_else(|e| {
            panic!("{label}: manager invariants broken after fault at {at}: {e}")
        });
    }
}

#[test]
fn check_recovers_from_faults() {
    let spec = ctl::parse("AG (AF x)").expect("parse");
    assert_fault_recovery("check", toggle, |c| c.check(&spec).map(|v| (v.holds(), v.states)));
}

#[test]
fn check_with_trace_recovers_from_faults() {
    let spec = ctl::parse("AG x").expect("parse");
    assert_fault_recovery("check_with_trace", toggle, |c| {
        c.check_with_trace(&spec).map(|o| (o.verdict.holds(), o.verdict.states, o.trace))
    });
}

#[test]
fn check_states_recovers_from_faults() {
    let spec = ctl::parse("E [!x U x]").expect("parse");
    assert_fault_recovery("check_states", toggle, |c| c.check_states(&spec));
}

#[test]
fn witness_recovers_from_faults() {
    let spec = ctl::parse("EF x").expect("parse");
    assert_fault_recovery("witness", toggle, |c| c.witness(&spec));
}

#[test]
fn counterexample_recovers_from_faults() {
    let spec = ctl::parse("AG x").expect("parse");
    assert_fault_recovery("counterexample", toggle, |c| c.counterexample(&spec));
}

#[test]
fn check_ctlstar_recovers_from_faults() {
    let spec = ctlstar::parse("E (G F x)").expect("parse");
    assert_fault_recovery("check_ctlstar", || free_bit(false), |c| c.check_ctlstar(&spec));
}

#[test]
fn witness_ctlstar_recovers_from_faults() {
    let spec = ctlstar::parse("E (G F x | F G !x)").expect("parse");
    assert_fault_recovery("witness_ctlstar", || free_bit(false), |c| c.witness_ctlstar(&spec));
}

#[test]
fn fair_recovers_from_faults() {
    assert_fault_recovery("fair", || free_bit(true), |c| c.fair());
}

#[test]
fn fair_eg_witness_recovers_from_faults() {
    // The restart-based lasso construction exercises the ring machinery
    // (witness/eg.rs) end to end.
    let spec = ctl::parse("EG true").expect("parse");
    assert_fault_recovery("fair witness", || free_bit(true), |c| c.witness(&spec));
}

#[test]
fn chained_eus_recover_from_faults_at_every_allocation() {
    // Each run is the checker's first, so the backward parts are built
    // inside it, at the first sweep.
    let reach = ctl::parse("E [!x U (x & y)]").expect("parse");
    assert_fault_recovery_everywhere("chained check_states", selected, |c| c.check_states(&reach));
    let spec = ctl::parse("AG (EF (x & y))").expect("parse");
    assert_fault_recovery_everywhere("chained check", selected, |c| {
        c.check(&spec).map(|v| (v.holds(), v.states))
    });
    // The rings a trace walks are recorded on the first walk.
    let spec = ctl::parse("AG !(x & y)").expect("parse");
    assert_fault_recovery_everywhere("chained check_with_trace", selected, |c| {
        c.check_with_trace(&spec).map(|o| (o.verdict.holds(), o.verdict.states, o.trace))
    });
    let spec = ctl::parse("EF (x & y)").expect("parse");
    assert_fault_recovery_everywhere("chained witness", selected, |c| {
        let holds = c.check(&spec)?.holds();
        Ok((holds, c.witness(&spec)?))
    });
    let spec = ctl::parse("AG !(x & y)").expect("parse");
    assert_fault_recovery_everywhere("chained counterexample", selected, |c| {
        let holds = c.check(&spec)?.holds();
        Ok((holds, c.counterexample(&spec)?))
    });
}

#[test]
fn multi_round_fair_eg_recovers_from_faults_at_every_allocation() {
    let spec = ctl::parse("AG AF c0").expect("parse");
    assert_fault_recovery_everywhere("fair check_with_trace", c_element_ring_5, |c| {
        c.check_with_trace(&spec).map(|o| (o.verdict.holds(), o.verdict.states, o.trace))
    });
}

/// Uninterrupted reference for the property below: verdict of
/// `AG (AF x)` and the full EU onion-ring sequence of `E[!x U x]` on the
/// toggle model.
fn toggle_reference() -> (bool, Vec<Bdd>, Trace) {
    let mut m = toggle();
    let x = m.ap("x").expect("declared");
    let nx = m.manager_mut().not(x);
    let rings = eu_rings(&mut m, nx, x).expect("unbudgeted rings");
    let mut c = Checker::new(&mut m);
    let holds = c.check(&ctl::parse("AG (AF x)").expect("parse")).expect("verdict").holds();
    let trace = c.witness(&ctl::parse("EF x").expect("parse")).expect("witness");
    (holds, rings, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: interrupt a check at a random allocation count, confirm
    /// the structured error, re-run to completion on the same manager and
    /// assert the verdict and the EU ring sequence are bit-identical to
    /// an uninterrupted run.
    #[test]
    fn prop_random_interruption_recovers_bit_identically(
        at in 1u64..300,
        table_full in any::<bool>(),
    ) {
        let (want_holds, want_rings, want_trace) = toggle_reference();

        let mut m = toggle();
        let plan = if table_full {
            FaultPlan { table_full_at: Some(at), ..FaultPlan::new() }
        } else {
            FaultPlan { cancel_at: Some(at), ..FaultPlan::new() }
        };
        m.manager_mut().inject_faults(plan);

        // Stage 1: the EU ring sequence. Operand handles derived before a
        // trip are dummies/rolled back, so they are re-derived on retry.
        let rings = {
            let x = m.ap("x").expect("declared");
            let nx = m.manager_mut().not(x);
            match eu_rings(&mut m, nx, x) {
                Ok(r) => r,
                Err(CheckError::ResourceExhausted { .. }) => {
                    let x = m.ap("x").expect("declared");
                    let nx = m.manager_mut().not(x);
                    eu_rings(&mut m, nx, x).expect("one-shot fault cannot re-fire")
                }
                Err(other) => panic!("rings: unexpected error: {other}"),
            }
        };
        prop_assert_eq!(&rings, &want_rings, "ring sequence diverged after fault at {}", at);

        // Stage 2: verdict and witness through the checker on the same
        // manager (the one-shot fault may fire here if it did not above).
        let mut c = Checker::new(&mut m);
        let spec = ctl::parse("AG (AF x)").expect("parse");
        let holds = match c.check(&spec) {
            Ok(v) => v.holds(),
            Err(CheckError::ResourceExhausted { .. }) => {
                c.check(&spec).expect("one-shot fault cannot re-fire").holds()
            }
            Err(other) => panic!("check: unexpected error: {other}"),
        };
        prop_assert_eq!(holds, want_holds, "verdict diverged after fault at {}", at);
        let wit = ctl::parse("EF x").expect("parse");
        let trace = match c.witness(&wit) {
            Ok(t) => t,
            Err(CheckError::ResourceExhausted { .. }) => {
                c.witness(&wit).expect("one-shot fault cannot re-fire")
            }
            Err(other) => panic!("witness: unexpected error: {other}"),
        };
        prop_assert_eq!(trace, want_trace, "witness diverged after fault at {}", at);
    }
}

/// The rings a verdict-only checker records on a trace's first walk are
/// pinned like every memo entry: the ladder's collections later in the
/// same call (the inner `EU`'s rings are recorded by a governed loop)
/// keep the outer `EU`'s, and a second trace walks them again to the
/// same witness. Swept over node limits; a limit the ladder must sift or
/// trip at is skipped, since sifting may change which (equally valid)
/// states a trace picks.
#[test]
fn rings_recorded_on_the_first_walk_survive_collections() {
    let spec = ctl::parse("EF (x & !y & EF (y & !x))").expect("parse");
    let mut reference = selected();
    let want = Checker::new(&mut reference).check_with_trace(&spec).expect("checks");
    assert!(want.verdict.holds());

    let mut collected = 0;
    for limit in (16..400).step_by(2) {
        let mut model = selected();
        let mut c = Checker::new(&mut model).verdicts_only();
        c.check(&spec).expect("checks");
        c.model().manager_mut().set_budget(Budget::new().with_node_limit(limit));
        let walks: Result<Vec<_>, _> = (0..2).map(|_| c.check_with_trace(&spec)).collect();
        let m = c.model().manager();
        let (Ok(walks), 0) = (walks, m.ladder_stage()) else {
            continue;
        };
        m.validate().expect("no dangling protected roots");
        collected += usize::from(m.stats().gc_runs > 1);
        for (walk, got) in walks.iter().enumerate() {
            assert_eq!(got.trace, want.trace, "walk {walk} under a {limit}-node limit");
        }
    }
    assert!(collected >= 8, "only {collected} limits collected more than once");
}

/// What [`ClosingArcs`] saw of the closing arcs: the `check_eu` spans
/// inside witness spans.
#[derive(Default)]
struct ArcLog {
    witness_depth: usize,
    arc_open: bool,
    /// Each arc's node-pool high-water marks at its start and end (exact
    /// while nothing is collected: every allocation adds a slot).
    arcs: Vec<(u64, u64)>,
    /// Collections that ran inside an arc.
    collections: usize,
}

struct ClosingArcs(Arc<Mutex<ArcLog>>);

impl Sink for ClosingArcs {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        let mut log = self.0.lock().expect("log lock");
        match event {
            Event::SpanStart { kind: SpanKind::Witness, .. } => log.witness_depth += 1,
            Event::SpanEnd { kind: SpanKind::Witness, .. } => log.witness_depth -= 1,
            Event::SpanStart { kind: SpanKind::CheckEu, .. } if log.witness_depth > 0 => {
                log.arc_open = true;
            }
            Event::SpanEnd { kind: SpanKind::CheckEu, peak_nodes, delta, .. }
                if log.witness_depth > 0 =>
            {
                log.arc_open = false;
                log.arcs.push((peak_nodes.saturating_sub(delta.created_nodes), *peak_nodes));
            }
            Event::Gc { .. } if log.arc_open => log.collections += 1,
            _ => {}
        }
    }
}

/// Runs `run` on `model` with a [`ClosingArcs`] sink attached.
fn watch_arcs<T>(
    model: &mut SymbolicModel,
    run: impl FnOnce(&mut SymbolicModel) -> T,
) -> (T, ArcLog) {
    let log = Arc::new(Mutex::new(ArcLog::default()));
    let tele = Telemetry::new();
    tele.add_sink(Box::new(ClosingArcs(log.clone())));
    model.manager_mut().set_telemetry(tele);
    let out = run(model);
    model.manager_mut().set_telemetry(Telemetry::disabled());
    let log = std::mem::take(&mut *log.lock().expect("log lock"));
    (out, log)
}

/// Faults `EG TRUE`'s traced check, on both checkers, at every
/// allocation of its closing arc number `arc` (of `arcs`), and one past
/// it.
fn assert_closing_arc_recovery(
    label: &str,
    make_model: fn() -> SymbolicModel,
    arc: usize,
    arcs: usize,
) {
    let spec = ctl::parse("EG TRUE").expect("parse");
    let run = |c: &mut Checker| {
        c.check_with_trace(&spec).map(|o| (o.verdict.holds(), o.verdict.states, o.trace))
    };
    for verdicts_only in [false, true] {
        let mut model = make_model();
        let base = model.manager().peak_nodes() as u64;
        let (want, log) = watch_arcs(&mut model, |m| run(&mut checker(m, verdicts_only)));
        let want = want.expect("uninterrupted run");
        assert_eq!(model.manager().stats().gc_runs, 0, "{label}");
        assert_eq!(log.arcs.len(), arcs, "{label}: closing arcs");
        // Allocation n after injection is the one that lifts the
        // high-water mark to base + n.
        let (start, end) = log.arcs[arc];
        let points: Vec<(u64, bool)> =
            (start - base + 1..=end - base + 1).flat_map(|at| [(at, true), (at, false)]).collect();
        assert!(points.len() >= 400, "{label}: only {} fault points", points.len());
        assert_recovery_at(label, &make_model, &run, verdicts_only, &points, &want);
    }
}

#[test]
fn a_forward_decided_closing_arc_recovers_from_faults_at_every_allocation() {
    // The ring's second arc closes: its forward layers, then the band.
    assert_closing_arc_recovery("forward-decided close", inverter_ring_7, 1, 2);
}

#[test]
fn a_backward_decided_closing_arc_recovers_from_faults_at_every_allocation() {
    assert_closing_arc_recovery("backward-decided close", c_element_ring_5, 0, 1);
}

/// Like [`rings_recorded_on_the_first_walk_survive_collections`], for
/// the closing arcs: under node limits at which the ladder collects
/// inside a race (but never sifts), the lasso is the unbudgeted one.
#[test]
fn collections_inside_a_closing_race_keep_the_lasso() {
    let spec = ctl::parse("EG TRUE").expect("parse");
    for (label, make_model) in [
        ("forward-decided", inverter_ring_7 as fn() -> SymbolicModel),
        ("backward-decided", c_element_ring_5),
    ] {
        let want = Checker::new(&mut make_model()).check_with_trace(&spec).expect("checks").trace;
        let mut collected = 0;
        for limit in (200..3000).step_by(100) {
            let mut model = make_model();
            model.manager_mut().set_budget(Budget::new().with_node_limit(limit));
            let (got, log) = watch_arcs(&mut model, |m| Checker::new(m).check_with_trace(&spec));
            let m = model.manager();
            let (Ok(got), 0) = (got, m.ladder_stage()) else {
                continue;
            };
            m.validate().expect("no dangling protected roots");
            assert_eq!(got.trace, want, "{label} under a {limit}-node limit");
            collected += usize::from(log.collections > 0);
        }
        assert!(collected >= 4, "{label}: only {collected} limits collected inside a closing arc");
    }
}
