//! Tests for the SMV frontend: lexing/parsing, compilation semantics,
//! and end-to-end checking of compiled specs.

use smc_checker::Checker;
use smc_kripke::State;

use crate::compile::compile;
use crate::error::SmvError;
use crate::parser::parse;
use crate::value::Value;

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

#[test]
fn parse_sections_round_trip() {
    let program = parse(
        r#"
        MODULE main  -- a comment
        VAR
          x : boolean;
          st : {idle, busy};
          n : 0..3;
        DEFINE busy_now := st = busy;
        ASSIGN
          init(x) := FALSE;
          next(x) := !x;
        INIT n = 0
        TRANS next(n) = (n + 1) mod 4
        FAIRNESS x
        SPEC AG (busy_now -> AF x)
        "#,
    )
    .expect("parses");
    assert_eq!(program.modules[0].name, "main");
    // VAR, DEFINE, ASSIGN, INIT, TRANS, FAIRNESS, SPEC.
    assert_eq!(program.modules[0].sections.len(), 7);
}

#[test]
fn parse_errors_have_positions() {
    let err = parse("MODULE main VAR x : boolean").unwrap_err();
    assert!(matches!(err, SmvError::Parse { .. }), "{err}");
    let err = parse("VAR x : boolean;").unwrap_err();
    assert!(matches!(err, SmvError::Parse { .. }));
    let err = parse("MODULE main VAR x : {};").unwrap_err();
    assert!(matches!(err, SmvError::Parse { .. }));
}

#[test]
fn parse_case_and_sets() {
    let program = parse(
        r#"
        MODULE main
        VAR st : {a, b};
        ASSIGN
          next(st) := case
              st = a : {a, b};
              TRUE   : a;
            esac;
        "#,
    )
    .expect("parses");
    assert_eq!(program.modules[0].sections.len(), 2);
}

// ---------------------------------------------------------------------
// Compilation semantics
// ---------------------------------------------------------------------

#[test]
fn toggle_compiles_and_checks() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR x : boolean;
        ASSIGN
          init(x) := FALSE;
          next(x) := !x;
        SPEC AG (AF x)
        SPEC AG x
        "#,
    )
    .expect("compiles");
    assert_eq!(compiled.model.num_state_vars(), 1);
    let specs: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&specs[0]).unwrap().holds());
    assert!(!checker.check(&specs[1]).unwrap().holds());
}

#[test]
fn enum_and_range_encoding() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR
          st : {idle, busy, done};
          n  : 0..4;
        ASSIGN
          init(st) := idle;
          next(st) := case
              st = idle : busy;
              st = busy : done;
              TRUE      : idle;
            esac;
          init(n) := 0;
          next(n) := case
              n < 4 : n + 1;
              TRUE  : 0;
            esac;
        "#,
    )
    .expect("compiles");
    // 3-valued enum uses 2 bits, 5-valued range uses 3 bits.
    assert_eq!(compiled.model.num_state_vars(), 5);
    // Reachable: st cycles through 3 values, n through 5 -> lcm(3,5)=15.
    assert_eq!(compiled.model.reachable_count().unwrap(), 15.0);
    // Decode the initial state.
    let init = compiled.model.init();
    let s0 = compiled.model.pick_state(init).unwrap();
    assert_eq!(compiled.value_of(&s0, "st"), Some(Value::Sym("idle".into())));
    assert_eq!(compiled.value_of(&s0, "n"), Some(Value::Int(0)));
    let rendered = compiled.render_state(&s0);
    assert!(rendered.contains("st=idle"));
    assert!(rendered.contains("n=0"));
}

#[test]
fn nondeterministic_sets_produce_choices() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR st : {a, b, c};
        ASSIGN
          init(st) := a;
          next(st) := case
              st = a : {b, c};
              TRUE   : a;
            esac;
        "#,
    )
    .expect("compiles");
    assert_eq!(compiled.model.reachable_count().unwrap(), 3.0);
    let init = compiled.model.init();
    let s0 = compiled.model.pick_state(init).unwrap();
    let succ = compiled.model.successors(&s0);
    let states = compiled.model.states_in(succ, 8).unwrap();
    let values: Vec<Value> = states.iter().map(|s| compiled.value_of(s, "st").unwrap()).collect();
    assert_eq!(values.len(), 2);
    assert!(values.contains(&Value::Sym("b".into())));
    assert!(values.contains(&Value::Sym("c".into())));
}

#[test]
fn trans_with_next_and_arithmetic() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR n : 0..7;
        INIT n = 0
        TRANS next(n) = (n + 1) mod 8
        SPEC AG (EF n = 7)
        "#,
    )
    .expect("compiles");
    assert_eq!(compiled.model.reachable_count().unwrap(), 8.0);
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds());
}

#[test]
fn fairness_constraints_are_compiled() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR x : boolean;
        INIT !x
        TRANS TRUE
        FAIRNESS x
        SPEC AF x
        "#,
    )
    .expect("compiles");
    assert_eq!(compiled.model.fairness().len(), 1);
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds());
}

#[test]
fn defines_expand() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR n : 0..3;
        DEFINE wrapped := n = 3;
        INIT n = 0
        TRANS next(n) = case
            wrapped : 0;
            TRUE    : n + 1;
          esac
        SPEC AG (wrapped -> AX n = 0)
        "#,
    )
    .expect("compiles");
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds());
}

#[test]
fn counterexample_from_smv_spec() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR st : {ok, bad};
        ASSIGN
          init(st) := ok;
          next(st) := {ok, bad};
        SPEC AG st = ok
        "#,
    )
    .expect("compiles");
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(!checker.check(&spec).unwrap().holds());
    let cx = checker.counterexample(&spec).unwrap();
    let last: &State = cx.states.last().unwrap();
    assert_eq!(compiled.value_of(last, "st"), Some(Value::Sym("bad".into())));
}

// ---------------------------------------------------------------------
// Semantic errors
// ---------------------------------------------------------------------

#[test]
fn semantic_errors_are_reported() {
    // Unknown identifier.
    let err = compile("MODULE main VAR x : boolean; INIT y").unwrap_err();
    assert!(matches!(err, SmvError::Semantic { .. }), "{err}");
    // Value outside domain.
    let err =
        compile("MODULE main VAR n : 0..3; ASSIGN init(n) := 0; next(n) := n + 10;").unwrap_err();
    assert!(matches!(err, SmvError::Semantic { .. }), "{err}");
    // Non-exhaustive case.
    let err = compile("MODULE main VAR x : boolean; ASSIGN next(x) := case x : FALSE; esac;")
        .unwrap_err();
    assert!(format!("{err}").contains("non-exhaustive"), "{err}");
    // next() outside TRANS.
    let err = compile("MODULE main VAR x : boolean; INIT next(x)").unwrap_err();
    assert!(format!("{err}").contains("TRANS"), "{err}");
    // Type mismatch.
    let err = compile("MODULE main VAR x : boolean; VAR n : 0..3; INIT x = n").unwrap_err();
    assert!(format!("{err}").contains("type mismatch"), "{err}");
    // Choice set in a comparison.
    let err = compile("MODULE main VAR n : 0..3; INIT n = {1, 2}").unwrap_err();
    assert!(format!("{err}").contains("choice sets"), "{err}");
    // Double assignment.
    let err =
        compile("MODULE main VAR x : boolean; ASSIGN next(x) := x; next(x) := !x;").unwrap_err();
    assert!(format!("{err}").contains("assigned twice"), "{err}");
    // Modulo by zero.
    let err = compile("MODULE main VAR n : 0..3; INIT n mod 0 = 1").unwrap_err();
    assert!(format!("{err}").contains("modulo"), "{err}");
    // No variables at all.
    let err = compile("MODULE main").unwrap_err();
    assert!(format!("{err}").contains("no variables"), "{err}");
    // Duplicate variable.
    let err = compile("MODULE main VAR x : boolean; x : boolean;").unwrap_err();
    assert!(format!("{err}").contains("twice"), "{err}");
}

#[test]
fn ranges_wider_than_the_limit_are_rejected_at_the_declaration() {
    // 65,536 values is the widest range that compiles; one more is an
    // error pointing at the declaration, raised before any value is listed.
    let src = "MODULE main VAR x : 0..65536; SPEC AG x >= 0";
    let err = compile(src).unwrap_err();
    assert!(matches!(err, SmvError::Semantic { .. }), "{err}");
    let text = format!("{err}");
    assert!(text.contains("65537 values") && text.contains("limit is 65536"), "{text}");
    let span = err.span().expect("the declaration's span");
    assert_eq!(&src[span.start..span.end], "x : 0..65536;");

    // The width of a full-i64 range does not fit in i64.
    let src = "MODULE main VAR x : -9223372036854775807..9223372036854775807;";
    let err = compile(src).unwrap_err();
    assert!(format!("{err}").contains("18446744073709551615 values"), "{err}");
    assert!(err.span().is_some(), "{err}");
}

#[test]
fn exhaustive_case_over_valid_domain_only() {
    // The enum has 3 values in 2 bits; the case covers all three domain
    // values — the invalid 4th encoding must not count as uncovered.
    compile(
        r#"
        MODULE main
        VAR st : {a, b, c};
        ASSIGN
          init(st) := a;
          next(st) := case
              st = a : b;
              st = b : c;
              st = c : a;
            esac;
        "#,
    )
    .expect("case over the full domain is exhaustive");
}

// ---------------------------------------------------------------------
// Module hierarchy (flattening)
// ---------------------------------------------------------------------

#[test]
fn module_instantiation_flattens() {
    let mut compiled = compile(
        r#"
        MODULE cell(inc)
        VAR n : 0..3;
        DEFINE top := n = 3;
        ASSIGN
          init(n) := 0;
          next(n) := case
              inc & !top : n + 1;
              inc & top  : 0;
              TRUE       : n;
            esac;

        MODULE main
        VAR
          tick : boolean;
          c1 : cell(tick);
          c2 : cell(c1.top);
        ASSIGN
          init(tick) := FALSE;
          next(tick) := !tick;
        SPEC AG (EF c1.top)
        SPEC AG (c2.n = 0 -> EF c2.n = 1)
        "#,
    )
    .expect("compiles");
    // tick (1 bit) + two 0..3 counters (2 bits each).
    assert_eq!(compiled.model.num_state_vars(), 5);
    assert!(compiled.var_names().contains(&"c1.n"));
    assert!(compiled.var_names().contains(&"c2.n"));
    let specs: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&specs[0]).unwrap().holds(), "c1 reaches top");
    assert!(checker.check(&specs[1]).unwrap().holds(), "c2 advances on c1.top");
}

#[test]
fn nested_modules_flatten_recursively() {
    let mut compiled = compile(
        r#"
        MODULE bit(inc)
        VAR b : boolean;
        ASSIGN
          init(b) := FALSE;
          next(b) := case inc : !b; TRUE : b; esac;
        DEFINE carry := b & inc;

        MODULE pair(inc)
        VAR lo : bit(inc);
            hi : bit(lo.carry);

        MODULE main
        VAR p : pair(TRUE);
        SPEC AG (EF (p.lo.b & p.hi.b))
        "#,
    )
    .expect("compiles");
    assert!(compiled.var_names().contains(&"p.lo.b"));
    assert!(compiled.var_names().contains(&"p.hi.b"));
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds());
    // The flattened pair is a 2-bit counter: 4 reachable states.
    assert_eq!(checker.model().reachable_count().unwrap(), 4.0);
}

#[test]
fn module_fairness_and_specs_are_inherited() {
    let mut compiled = compile(
        r#"
        MODULE worker
        VAR busy : boolean;
        FAIRNESS !busy
        SPEC AG (busy -> AF !busy)

        MODULE main
        VAR w : worker;
        "#,
    )
    .expect("compiles");
    assert_eq!(compiled.model.fairness().len(), 1);
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds(), "inherited fairness spec");
}

#[test]
fn module_errors_are_reported() {
    // Unknown module.
    let err = compile("MODULE main VAR x : nosuch(TRUE);").unwrap_err();
    assert!(format!("{err}").contains("unknown module"), "{err}");
    // Wrong arity.
    let err = compile("MODULE cell(a) VAR n : boolean;\nMODULE main VAR c : cell(TRUE, FALSE);")
        .unwrap_err();
    assert!(format!("{err}").contains("parameter"), "{err}");
    // Recursive instantiation.
    let err = compile("MODULE a VAR x : a;\nMODULE main VAR y : a;").unwrap_err();
    assert!(format!("{err}").contains("recursive"), "{err}");
    // No main.
    let err = compile("MODULE helper VAR x : boolean;").unwrap_err();
    assert!(format!("{err}").contains("no MODULE main"), "{err}");
    // Parameterized main.
    let err = compile("MODULE main(p) VAR x : boolean;").unwrap_err();
    assert!(format!("{err}").contains("parameters"), "{err}");
    // next() of a non-variable argument.
    let err = compile(
        "MODULE cell(a) VAR n : boolean; TRANS next(a) = n\nMODULE main VAR c : cell(TRUE);",
    )
    .unwrap_err();
    assert!(format!("{err}").contains("non-variable"), "{err}");
}

#[test]
fn parameters_bind_parent_scope_expressions() {
    // The argument `x & y` is evaluated in main's scope.
    let mut compiled = compile(
        r#"
        MODULE latch(set)
        VAR q : boolean;
        ASSIGN
          init(q) := FALSE;
          next(q) := q | set;

        MODULE main
        VAR
          x : boolean;
          y : boolean;
          l : latch(x & y);
        SPEC AG ((l.q) -> AG l.q)
        SPEC AG ((x & y) -> AX l.q)
        "#,
    )
    .expect("compiles");
    let spec = compiled.specs[0].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&spec).unwrap().holds(), "latch is sticky");
}

// ---------------------------------------------------------------------
// A classic: mutual exclusion with a nondeterministic scheduler
// ---------------------------------------------------------------------

#[test]
fn mutex_protocol_end_to_end() {
    let mut compiled = compile(
        r#"
        MODULE main
        VAR
          p1 : {idle, trying, critical};
          p2 : {idle, trying, critical};
          turn : boolean;
        ASSIGN
          init(p1) := idle;
          init(p2) := idle;
          next(p1) := case
              p1 = idle                      : {idle, trying};
              p1 = trying & p2 != critical & !turn : critical;
              p1 = trying                    : trying;
              TRUE                           : idle;
            esac;
          next(p2) := case
              p2 = idle                      : {idle, trying};
              p2 = trying & p1 != critical & turn : critical;
              p2 = trying                    : trying;
              TRUE                           : idle;
            esac;
          next(turn) := !turn;
        SPEC AG !(p1 = critical & p2 = critical)
        SPEC AG (p1 = trying -> AF p1 = critical)
        "#,
    )
    .expect("compiles");
    let safety = compiled.specs[0].formula.clone();
    let liveness = compiled.specs[1].formula.clone();
    let mut checker = Checker::new(&mut compiled.model);
    assert!(checker.check(&safety).unwrap().holds(), "mutual exclusion");
    // Liveness holds here because the alternating `turn` forces progress.
    assert!(checker.check(&liveness).unwrap().holds(), "progress");
}

// ---------------------------------------------------------------------
// Free inputs and the two-part transition relation
// ---------------------------------------------------------------------

#[test]
fn free_inputs_install_the_two_part_split() {
    let split = |src: &str| compile(src).expect("compiles").model.is_partitioned();
    // `sel` is assigned nowhere: a free input.
    assert!(split(
        "MODULE main\nVAR sel : 0..2; x : boolean;\nASSIGN init(x) := FALSE; next(x) := sel = 1;\n"
    ));
    // Every variable is constrained, one of them only through a macro
    // that mentions its `next(·)`.
    assert!(!split(
        "MODULE main\nVAR x : boolean; y : 0..2;\nDEFINE ny := next(y);\n\
         ASSIGN init(x) := FALSE; next(x) := !x;\nTRANS ny = 0 | ny = 1\n"
    ));
    // A cyclic macro terminates the scan; the compiler reports it.
    let cyclic = "MODULE main\nVAR x : boolean;\nDEFINE a := b; b := a;\nTRANS next(x) = a\n";
    assert!(compile(cyclic).is_err());
}

#[test]
fn spec_size_is_bounded_over_the_whole_formula() {
    let source = |spec: &str| format!("MODULE main\nVAR x : boolean; y : boolean;\nSPEC {spec}\n");
    let spec_at = source("").len() - "SPEC \n".len();
    let chain = |n: usize| vec!["x"; n].join(" <-> ");
    // Fourteen chained atoms desugar to 65,529 nodes.
    assert!(parse(&source(&chain(14))).is_ok());
    // A leaf next to a chain counts in full, whatever the leaf: `y | …`
    // and `TRUE | …` are as large as the chain they guard.
    let wrapped = |leaf: &str| format!("({leaf} | ({})) <-> {}", chain(14), chain(13));
    let nest = |n: usize| format!("{}x{}", "A [x U ".repeat(n), "]".repeat(n));
    for hostile in [
        chain(15),
        wrapped("y"),
        wrapped("TRUE"),
        format!("(y | ({})) <-> {}", wrapped("y"), chain(13)),
        format!("({0}) & ({0})", chain(14)),
        nest(9),
    ] {
        match parse(&source(&hostile)) {
            Err(SmvError::Parse { position, message }) => {
                assert_eq!(position, spec_at, "at the SPEC keyword: {hostile}");
                assert!(message.contains("SPEC expands past 65536 nodes"), "{message}");
            }
            other => panic!("{hostile}: {other:?}"),
        }
    }
    assert!(parse(&source(&nest(8))).is_ok());
}

#[test]
fn expression_height_is_bounded_after_define_expansion() {
    // Compiling at the limit recurses a few frames per level, which an
    // unoptimised build cannot fit in a test thread's 2 MiB. Run on the
    // 8 MiB stack `smc` gives its main and worker threads.
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(expanded_depth_checks)
        .expect("spawn the depth checks")
        .join()
        .expect("depth checks pass");
}

/// A model whose SPEC atom `d{n}` expands through a chain of `n`
/// DEFINEs, each two levels above the next: `d{n}` sits 2n + 2 levels
/// above `x` once expanded.
fn define_chain(n: usize) -> String {
    let mut s = String::from("MODULE main\nVAR x : boolean;\nDEFINE d0 := x;\n");
    for i in 1..=n {
        s.push_str(&format!("DEFINE d{i} := d{} & x;\n", i - 1));
    }
    s + &format!("SPEC AG (d{n} -> x)\n")
}

fn expanded_depth_checks() {
    use smc_logic::MAX_SYNTAX_DEPTH as MAX;
    // Every operand adds a level, so a long conjunction is deep without
    // a single DEFINE; 100 conjuncts are far inside the parser's bound.
    let trans = vec!["next(x) != x"; 100].join(" & ");
    let toggle =
        format!("MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE;\nTRANS {trans}\n");
    assert!(compile(&toggle).is_ok());
    // Expanded, d255 is 512 levels high: at the limit. d256 passes it.
    assert_eq!(2 * 255 + 2, MAX);
    assert!(compile(&define_chain(255)).is_ok());
    match compile(&define_chain(256)) {
        Err(SmvError::Semantic { message, .. }) => {
            assert!(message.contains("nested deeper than 512 levels"), "{message}");
            assert!(message.contains("DEFINE"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // A macro evaluated near the root and then used deeper is a memo
    // hit, and the hit refuses what its expansion would: d254 is 510
    // levels high, so it may sit at most 3 levels down.
    let base = define_chain(254);
    assert!(compile(&format!("{base}INIT d254\nINIT ((d254 & x) & x)\n")).is_ok());
    match compile(&format!("{base}INIT d254\nINIT (((d254 & x) & x) & x)\n")) {
        Err(SmvError::Semantic { message, .. }) => {
            assert!(message.contains("nested deeper than 512 levels"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // A DEFINE that expands itself says so, whatever the depth.
    let cyclic = "MODULE main\nVAR x : boolean;\nDEFINE a := b; b := a;\nTRANS next(x) = a\n";
    match compile(cyclic) {
        Err(SmvError::Semantic { message, .. }) => {
            assert_eq!(message, "DEFINE a expands to itself");
        }
        other => panic!("{other:?}"),
    }
}

/// A chain of `n` DEFINEs in which every link uses the previous one
/// twice: expanded, `d{n}` is `2^n` copies of `x`.
fn doubling_chain(n: usize) -> String {
    let mut s = String::from("MODULE main\nVAR x : boolean; y : boolean;\nDEFINE d0 := x;\n");
    for i in 1..=n {
        s.push_str(&format!("DEFINE d{i} := (d{p} | y) & (d{p} | x);\n", p = i - 1));
    }
    s + &format!("SPEC AG (d{n} <-> x)\n")
}

#[test]
fn each_define_body_is_evaluated_once_per_context() {
    let lookups = |n: usize| {
        let compiled = compile(&doubling_chain(n)).expect("compiles");
        compiled.model.manager().stats().cache_lookups
    };
    let (short, long) = (lookups(12), lookups(24));
    assert!(long < 4 * short, "{short} lookups at 12 links, {long} at 24");
    // The context that can change a macro's errors is part of its key: a
    // body that was fine in a TRANS or an ASSIGN is still refused where
    // `next` or a choice set is not allowed.
    let nexts = "MODULE main\nVAR x : boolean;\nDEFINE h := next(x) <-> x;\nTRANS h\nINIT h\n";
    match compile(nexts) {
        Err(SmvError::Semantic { message, .. }) => assert!(message.contains("next"), "{message}"),
        other => panic!("{other:?}"),
    }
    let sets = "MODULE main\nVAR x : boolean;\nDEFINE c := {TRUE, FALSE};\n\
                ASSIGN next(x) := c;\nINIT c\n";
    match compile(sets) {
        Err(SmvError::Semantic { message, .. }) => {
            assert!(message.contains("choice sets"), "{message}");
        }
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------
// Integer arithmetic
// ---------------------------------------------------------------------

/// An integer as SMV source: `i64::MIN` has no literal of its own.
fn int_source(v: i64) -> String {
    if v == i64::MIN {
        "(-9223372036854775807 - 1)".to_string()
    } else {
        v.to_string()
    }
}

mod arithmetic {
    use proptest::prelude::*;

    use super::*;
    use crate::value::ArithOp;

    const OPS: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Mod];

    /// The edge values, small values, and values from all of `i64`
    /// that an SMV literal can write (every one but `i64::MIN`).
    fn operand() -> impl Strategy<Value = i64> {
        prop_oneof![
            prop_oneof![Just(i64::MIN + 1), Just(-1i64), Just(0i64), Just(1i64), Just(i64::MAX)],
            -4i64..=4,
            any::<u64>().prop_map(|u| (u as i64).max(i64::MIN + 1)),
        ]
    }

    /// `a op b` computed exactly.
    fn exact(op: ArithOp, a: i64, b: i64) -> Option<i128> {
        let (a, b) = (i128::from(a), i128::from(b));
        match op {
            ArithOp::Add => Some(a + b),
            ArithOp::Sub => Some(a - b),
            ArithOp::Mul => Some(a * b),
            ArithOp::Mod => (b != 0).then(|| a.rem_euclid(b)),
        }
    }

    proptest! {
        /// The compiler refuses `a op b` with an E002 exactly when the
        /// exact result leaves `i64` or the divisor is 0, and otherwise
        /// computes the exact result.
        #[test]
        fn integer_operations_are_exact_or_refused(
            a in operand(),
            b in operand(),
            which in 0usize..4,
        ) {
            let op = OPS[which];
            let result = exact(op, a, b).and_then(|r| i64::try_from(r).ok());
            // A SPEC leaf that opens with `(` parses as a formula, so
            // the operation and its expected value are DEFINEs.
            let src = format!(
                "MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := x;\n\
                 DEFINE v := ({}) {} ({});\nDEFINE r := {};\nSPEC AG v = r\n",
                int_source(a),
                op.symbol(),
                int_source(b),
                int_source(result.unwrap_or(0)),
            );
            match (compile(&src), result) {
                (Ok(mut compiled), Some(_)) => {
                    let spec = compiled.specs[0].formula.clone();
                    let holds = Checker::new(&mut compiled.model).check(&spec).expect("checks");
                    prop_assert!(holds.holds(), "{src}");
                }
                (Err(SmvError::Semantic { message, span: Some(_) }), None) => {
                    let want = if op == ArithOp::Mod && b == 0 {
                        "modulo by zero".to_string()
                    } else {
                        format!("integer overflow in {}", op.symbol())
                    };
                    prop_assert_eq!(message, want, "{}", src);
                }
                (other, _) => panic!("{src}\nexact result {result:?}, compile gave {other:?}"),
            }
        }
    }

    #[test]
    fn mod_of_the_least_integer_by_minus_one_is_refused_not_a_panic() {
        // Its quotient, 2^63, leaves `i64`; `rem_euclid` would panic.
        assert_eq!(ArithOp::Mod.apply(i64::MIN, -1), None);
        let src = format!(
            "MODULE main\nVAR x : 0..3;\nASSIGN init(x) := 0; next(x) := {} mod -1;\n",
            int_source(i64::MIN)
        );
        match compile(&src) {
            Err(SmvError::Semantic { message, span: Some(_) }) => {
                assert_eq!(message, "integer overflow in mod");
            }
            other => panic!("{other:?}"),
        }
    }
}
