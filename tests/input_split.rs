//! The two-part transition relation of SMV models with free inputs is
//! exact: with `N = D_I ∧ R` installed, verdicts, traces and the image
//! operators equal those of the monolithic relation.

use proptest::TestRng;
use smc::bdd::Bdd;
use smc::checker::Checker;
use smc::circuits::{arbiter::arbiter, families, Netlist};
use smc::kripke::SymbolicModel;
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
            seen += 1;
        }
    }
    assert!(seen >= 6, "every bundled model was compiled");
}
