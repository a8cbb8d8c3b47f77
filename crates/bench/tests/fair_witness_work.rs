//! The work fair `EG` and its witnesses do, pinned where a silent
//! fallback would show. Outer rounds alternate their constraint order
//! (Gauss–Seidel), so the `witness` workload's rings and pipelines each
//! converge in a handful of rounds; and a checker builds each fair lasso
//! once, so a trace that needs it again does no BDD work for it.

use std::sync::{Arc, Mutex};

use smc_checker::Checker;
use smc_circuits::families::{inverter_ring, muller_pipeline};
use smc_circuits::Netlist;
use smc_logic::ctl;
use smc_obs::{Event, EventCtx, FixKind, Sink, Telemetry};
use smc_smv::compile;

/// Counts the outer rounds of every fair-`EG` fixpoint it sees.
struct OuterRounds(Arc<Mutex<u64>>);

impl Sink for OuterRounds {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        if let Event::FixpointIter { phase: FixKind::FairEgOuter, .. } = event {
            *self.0.lock().expect("counter lock") += 1;
        }
    }
}

/// The outer fair-`EG` rounds of `smc check --trace` on a circuit's
/// export with `specs` appended: one `Checker::new` checks and explains
/// every spec in turn.
fn outer_rounds(net: &Netlist, specs: &[&str]) -> u64 {
    let mut source = net.to_smv();
    for spec in specs {
        source += &format!("SPEC {spec}\n");
    }
    let mut compiled = compile(&source).expect("the export compiles");
    let rounds = Arc::new(Mutex::new(0));
    let tele = Telemetry::new();
    tele.add_sink(Box::new(OuterRounds(rounds.clone())));
    compiled.model.manager_mut().set_telemetry(tele);
    let mut checker = Checker::new(&mut compiled.model);
    for spec in &compiled.specs {
        checker.check_with_trace(&spec.formula).expect("checks");
    }
    let total = *rounds.lock().expect("counter lock");
    total
}

#[test]
fn fair_eg_converges_in_few_outer_rounds_on_rings_and_pipelines() {
    // The `witness` workload's specs. Jacobi rounds took 15 and 21;
    // visiting the constraints forward only, 14 and 5; in reverse only,
    // 4 and 21.
    let ring = outer_rounds(&inverter_ring(13), &["EG TRUE", "EF (inv0 & inv1)", "AG AF inv0"]);
    let pipe = outer_rounds(&muller_pipeline(10), &["AG AF c1", "EF (c1 & c2)", "EG !c1"]);
    assert!(
        ring <= 5 && pipe <= 5,
        "outer rounds: {ring} on inverter_ring(13), {pipe} on muller_pipeline(10)"
    );
}

#[test]
fn a_repeated_fair_lasso_is_built_once() {
    let mut compiled = compile(&inverter_ring(5).to_smv()).expect("the export compiles");
    let mut checker = Checker::new(&mut compiled.model);
    let eg = ctl::parse("EG TRUE").expect("parses");
    let first = checker.check_with_trace(&eg).expect("checks").trace.expect("a witness");
    let first_stats = checker.last_witness_stats();
    assert!(first.is_lasso() && first_stats.is_some());

    // `AG AF inv0` holds; its witness is the start state, extended by the
    // fair `EG TRUE` lasso from there: the one just built.
    let spec = ctl::parse("AG AF inv0").expect("parses");
    assert!(checker.check(&spec).expect("checks").holds());
    let before = checker.model().manager().stats();
    let second = checker.witness(&spec).expect("a witness");
    let after = checker.model().manager().stats();
    assert_eq!(second, first, "the reused lasso");
    assert_eq!(checker.last_witness_stats(), first_stats, "its statistics");
    assert_eq!(after.cache_lookups - before.cache_lookups, 0, "cache lookups");
    assert_eq!(after.created_nodes - before.created_nodes, 0, "created nodes");
}
