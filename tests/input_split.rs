//! The two-part transition relation of SMV models with free inputs is
//! exact: with `N = D_I ∧ R` installed, verdicts, traces and the image
//! operators equal those of the monolithic relation. The event guards
//! the inputs give are exact too: chained reachability over them finds
//! the breadth-first reachable set, and a verdict-only checker, whose
//! `EU`s chain backwards over them, gives `Checker::new`'s traces when
//! asked for them.

use proptest::TestRng;
use smc::bdd::{Bdd, Budget, TripReason};
use smc::checker::{CheckError, Checker, Phase};
use smc::circuits::{arbiter::arbiter, families, Netlist};
use smc::kripke::SymbolicModel;
use smc::logic::Ctl;
use smc::smv::{compile, compile_with_options, CompileOptions};

/// A hand-written model: a free six-valued input (so `D_I` is not
/// `TRUE`), a three-valued state variable and unfair `EG`/`AF`/`EU`
/// specs. The unfair `EG` runs through `preimage_within`.
const SCHEDULED: &str = r#"
MODULE main
VAR
  sel : 0..5;
  phase : 0..2;
  busy : boolean;
DEFINE
  hold := next(busy) <-> busy;
ASSIGN
  init(sel) := 0;
  init(phase) := 0;
  init(busy) := FALSE;
  next(phase) := case
      sel = 0 : phase;
      phase = 2 : 0;
      TRUE : phase + 1;
    esac;
TRANS
  (sel >= 3 -> next(busy)) & (sel = 1 -> !next(busy)) & (sel = 0 | sel = 2 -> hold)
SPEC EG !busy
SPEC EG (phase != 1)
SPEC AF phase = 2
SPEC E [!busy U phase = 2]
SPEC AG (busy -> AF !busy)
SPEC EF (busy & phase = 2)
"#;

/// Small exports of the four circuit families, with specs that produce
/// witnesses and counterexamples of every shape.
fn circuits() -> Vec<(&'static str, String)> {
    let export = |netlist: Netlist, specs: &[&str]| {
        let mut source = netlist.to_smv();
        for spec in specs {
            source.push_str(&format!("SPEC {spec}\n"));
        }
        source
    };
    vec![
        (
            "arbiter2",
            export(
                arbiter(2).netlist,
                &["AG !(meo1 & meo2)", "AG (tr1 -> AF ta1)", "AG (ur2 -> AF ua2)"],
            ),
        ),
        (
            "ring5",
            export(families::inverter_ring(5), &["EG TRUE", "EF (inv0 & inv1)", "AG AF inv0"]),
        ),
        ("pipe4", export(families::muller_pipeline(4), &["AG AF c1", "EF (c1 & c2)", "EG !c1"])),
        (
            "cring5",
            export(families::c_element_ring(5), &["AG AF c0", "EF (c0 & c1)", "AG !(c0 & c1)"]),
        ),
    ]
}

/// A seeded subset of the reachable states: the reachable set cut by
/// a few random current-state literals.
fn seeded_set(model: &mut SymbolicModel, reach: Bdd, rng: &mut TestRng) -> Bdd {
    let mut set = reach;
    for _ in 0..3 {
        let vars = model.cur_vars();
        let var = vars[rng.below(vars.len() as u64) as usize];
        let positive = rng.bool();
        let m = model.manager_mut();
        let lit = m.literal(var, positive);
        set = m.and(set, lit);
    }
    set
}

fn assert_split_is_exact(name: &str, source: &str) {
    let mut shipped = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut mono = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(shipped.model.is_partitioned(), "{name}: a free input installs the split");
    mono.model.set_partition(Vec::new());
    assert!(!mono.model.is_partitioned());

    let specs = shipped.specs.clone();
    let mut split_checker = Checker::new(&mut shipped.model);
    let mut mono_checker = Checker::new(&mut mono.model);
    for (k, spec) in specs.iter().enumerate() {
        let a = split_checker.check_with_trace(&spec.formula).expect("checks");
        let b = mono_checker.check_with_trace(&spec.formula).expect("checks");
        assert_eq!(a.verdict.holds(), b.verdict.holds(), "{name}: verdict of SPEC {k}");
        assert_eq!(a.trace, b.trace, "{name}: trace of SPEC {k}");
    }

    // The operators on seeded state sets, in one manager: the split and
    // the monolithic relation must return the very same BDD handles.
    let model = &mut shipped.model;
    let reach = model.reachable().expect("reachable");
    let mut rng = TestRng::for_case(0);
    let sets: Vec<(Bdd, Bdd)> = (0..24)
        .map(|_| (seeded_set(model, reach, &mut rng), seeded_set(model, reach, &mut rng)))
        .collect();
    let apply = |model: &mut SymbolicModel| -> Vec<[Bdd; 3]> {
        sets.iter()
            .map(|&(s, within)| {
                [model.image(s), model.preimage(s), model.preimage_within(s, within)]
            })
            .collect()
    };
    let split = apply(model);
    model.set_partition(Vec::new());
    let monolithic = apply(model);
    assert_eq!(split, monolithic, "{name}: image/preimage/preimage_within handles");
    let nonempty = split.iter().filter(|ops| ops.iter().all(|b| !b.is_false())).count();
    assert!(nonempty >= 8, "{name}: only {nonempty} seeded sets exercise all three operators");
}

#[test]
fn the_input_split_is_exact_on_a_hand_written_model() {
    assert_split_is_exact("scheduled", SCHEDULED);
}

#[test]
fn the_input_split_is_exact_on_exported_circuits() {
    for (name, source) in circuits() {
        assert_split_is_exact(name, &source);
    }
}

#[test]
fn bundled_models_without_free_inputs_stay_monolithic() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("models/") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "smv") {
            let source = std::fs::read_to_string(&path).expect("readable");
            let opts = CompileOptions { allow_deadlock: true, ..CompileOptions::default() };
            let compiled = compile_with_options(&source, None, Default::default(), opts)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            // The lint demo's unused `z` (its W001) is assigned nowhere:
            // a free input by definition.
            let has_input = path.ends_with("lint_demo.smv");
            assert_eq!(compiled.model.is_partitioned(), has_input, "{}", path.display());
            assert_eq!(compiled.model.has_events(), has_input, "{}", path.display());
            seen += 1;
        }
    }
    assert!(seen >= 6, "every bundled model was compiled");
}

/// The reachable set chained over the compiled model's event guards and,
/// in the same manager, breadth-first after `set_events(vec![])`: the
/// very same BDD.
fn assert_chaining_is_exact(name: &str, source: &str) {
    let opts = CompileOptions { allow_deadlock: true, ..CompileOptions::default() };
    let mut compiled = compile_with_options(source, None, Default::default(), opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let model = &mut compiled.model;
    assert!(model.has_events(), "{name}: a free input installs event guards");
    model.forget_reachable();
    let chained = model.reachable().expect("reachable");
    model.forget_reachable();
    model.set_events(Vec::new());
    assert!(!model.has_events());
    let breadth_first = model.reachable().expect("reachable");
    assert_eq!(chained, breadth_first, "{name}: reachable sets differ");
}

#[test]
fn chained_reachability_is_exact_on_exported_circuits_and_a_hand_written_model() {
    assert_chaining_is_exact("scheduled", SCHEDULED);
    for (name, source) in circuits() {
        assert_chaining_is_exact(name, &source);
    }
    for n in [3, 6] {
        assert_chaining_is_exact(&format!("ring{n}"), &families::inverter_ring(n).to_smv());
        assert_chaining_is_exact(&format!("pipe{n}"), &families::muller_pipeline(n).to_smv());
        assert_chaining_is_exact(&format!("cring{n}"), &families::c_element_ring(n).to_smv());
    }
    assert_chaining_is_exact("arbiter3", &arbiter(3).netlist.to_smv());
}

/// A random model driven by a free selector: a few booleans and one
/// three-valued variable, each updated under some selector values by a
/// random expression over the current state and holding otherwise.
fn random_scheduled(rng: &mut TestRng) -> String {
    let bools = 3 + rng.below(3) as usize;
    let top = 1 + rng.below(bools as u64 + 1);
    let atom = |rng: &mut TestRng| match rng.below(4) {
        0 => format!("sel = {}", rng.below(top + 1)),
        1 => format!("r = {}", rng.below(3)),
        2 => format!("!b{}", rng.below(bools as u64)),
        _ => format!("b{}", rng.below(bools as u64)),
    };
    let expr = |rng: &mut TestRng| {
        let a = atom(rng);
        match rng.below(3) {
            0 => a,
            1 => format!("({a} & {})", atom(rng)),
            _ => format!("({a} | {})", atom(rng)),
        }
    };
    let mut s = format!("MODULE main\nVAR\n  sel : 0..{top};\n  r : 0..2;\n");
    for i in 0..bools {
        s += &format!("  b{i} : boolean;\n");
    }
    s += "ASSIGN\n  init(r) := 0;\n";
    for i in 0..bools {
        let init = if rng.bool() { "TRUE" } else { "FALSE" };
        s += &format!("  init(b{i}) := {init};\n  next(b{i}) := case\n");
        for _ in 0..1 + rng.below(3) {
            let value = expr(rng);
            s += &format!("    sel = {} & {} : {value};\n", rng.below(top + 1), expr(rng));
        }
        s += &format!("    TRUE : b{i};\n  esac;\n");
    }
    let bump = expr(rng);
    s += &format!(
        "  next(r) := case\n    sel = {} & {bump} : (r + 1) mod 3;\n    TRUE : r;\n  esac;\n",
        rng.below(top + 1)
    );
    s
}

#[test]
fn chained_reachability_is_exact_on_random_scheduled_models() {
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let source = random_scheduled(&mut rng);
        assert_chaining_is_exact(&format!("case {case}:\n{source}"), &source);
    }
}

#[test]
fn free_inputs_with_more_joint_values_than_state_bits_install_no_guards() {
    let events = |source: &str| compile(source).expect("compiles").model.has_events();
    // Free booleans alone: four joint values, two state bits.
    assert!(!events("MODULE main\nVAR a : boolean; b : boolean;\nSPEC EF a\n"));
    // A free input wider than the state is not split either.
    assert!(!events("MODULE main\nVAR i : 0..255; x : boolean;\nASSIGN next(x) := i = 3;\n"));
    // Six values on six bits.
    assert!(events(SCHEDULED));
}

/// A verdict-only checker records no rings for its chained `EU`s until
/// a trace walks one. Asked through `check_with_trace`, or through
/// `witness` and `counterexample` after a plain `check`, it gives the
/// traces `Checker::new`'s `check_with_trace` gives, state for state.
fn assert_verdict_only_traces_match(name: &str, source: &str) {
    let opts = CompileOptions { allow_deadlock: true, ..CompileOptions::default() };
    let load = || {
        compile_with_options(source, None, Default::default(), opts)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let (mut eager, mut asked, mut walked) = (load(), load(), load());
    let specs: Vec<Ctl> = eager.specs.iter().map(|s| s.formula.clone()).collect();
    let mut eager = Checker::new(&mut eager.model);
    let mut asked = Checker::new(&mut asked.model).verdicts_only();
    let mut walked = Checker::new(&mut walked.model).verdicts_only();
    for (k, spec) in specs.iter().enumerate() {
        let want = eager.check_with_trace(spec).expect("checks");
        let got = asked.check_with_trace(spec).expect("checks");
        assert_eq!(got.verdict.holds(), want.verdict.holds(), "{name}: verdict of SPEC {k}");
        assert_eq!(got.trace, want.trace, "{name}: check_with_trace of SPEC {k}");
        let holds = walked.check(spec).expect("checks").holds();
        assert_eq!(holds, want.verdict.holds(), "{name}: verdict of SPEC {k}");
        if let Some(want) = want.trace {
            let trace = if holds { walked.witness(spec) } else { walked.counterexample(spec) };
            assert_eq!(trace.expect("explains"), want, "{name}: walked trace of SPEC {k}");
        }
    }
}

#[test]
fn verdict_only_checkers_asked_for_traces_give_checker_news() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("models/") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "smv") {
            let source = std::fs::read_to_string(&path).expect("readable");
            assert_verdict_only_traces_match(&path.display().to_string(), &source);
            seen += 1;
        }
    }
    assert!(seen >= 6, "every bundled model was checked");
    let (name, source) = &circuits()[0];
    assert!(compile(source).expect("compiles").model.has_event_parts(), "{name} chains");
    assert_verdict_only_traces_match(name, source);
    assert_verdict_only_traces_match("scheduled", SCHEDULED);
}

/// An iteration cap between the sweep count and the breadth-first
/// iteration count of a top-level `EU` decides the spec only when the
/// `EU` chains, so a silent fallback to breadth-first search trips.
#[test]
fn only_the_chained_eu_fits_under_an_iteration_cap() {
    let (_, source) = &circuits()[0];
    let spec = &compile(source).expect("compiles").specs[1].formula;
    assert_eq!(spec.to_string(), "AG (__spec1_0 -> AF __spec1_1)");
    // On the exported arbiter(2), the top-level `EF` of this spec takes
    // 11 sweeps chained and 26 iterations breadth-first; no other
    // fixpoint of the check takes more than 6.
    let cap = Budget::new().with_max_iterations(16);
    // Loading computed the reachable set unbudgeted.
    let mut chained = compile(source).expect("compiles");
    chained.model.manager_mut().set_budget(cap.clone());
    let verdict = Checker::new(&mut chained.model).verdicts_only().check(spec);
    assert!(!verdict.expect("decided under the cap").holds(), "the liveness spec fails");

    let mut breadth_first = compile(source).expect("compiles");
    breadth_first.model.manager_mut().set_budget(cap);
    match Checker::new(&mut breadth_first.model).check(spec) {
        Err(CheckError::ResourceExhausted {
            phase: Phase::EuFixpoint,
            reason: TripReason::IterationLimit { iterations: 17, limit: 16 },
            ..
        }) => {}
        other => panic!("breadth-first search should trip the cap: {other:?}"),
    }
}
