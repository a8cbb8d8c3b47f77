//! Tests for the logic layer: parsing, printing, normalisation and the
//! fairness-class classifier.

use proptest::prelude::*;

use crate::ctl::{self, Ctl};
use crate::ctlstar::{self, PathFormula, StateFormula};

// ---------------------------------------------------------------------
// CTL parsing and printing
// ---------------------------------------------------------------------

#[test]
fn parse_simple_atoms_and_constants() {
    assert_eq!(ctl::parse("p").unwrap(), Ctl::atom("p"));
    assert_eq!(ctl::parse("true").unwrap(), Ctl::True);
    assert_eq!(ctl::parse("false").unwrap(), Ctl::False);
    assert_eq!(ctl::parse("req_1.ack'").unwrap(), Ctl::atom("req_1.ack'"));
}

#[test]
fn parse_precedence() {
    // & binds tighter than |, -> is right associative and loosest but <->.
    let f = ctl::parse("a | b & c").unwrap();
    assert_eq!(
        f,
        Ctl::Or(
            Box::new(Ctl::atom("a")),
            Box::new(Ctl::And(Box::new(Ctl::atom("b")), Box::new(Ctl::atom("c"))))
        )
    );
    let g = ctl::parse("a -> b -> c").unwrap();
    assert_eq!(g, Ctl::implies(Ctl::atom("a"), Ctl::implies(Ctl::atom("b"), Ctl::atom("c"))));
    let h = ctl::parse("!a & b").unwrap();
    assert_eq!(h, Ctl::And(Box::new(Ctl::Not(Box::new(Ctl::atom("a")))), Box::new(Ctl::atom("b"))));
}

#[test]
fn parse_temporal_operators() {
    assert_eq!(ctl::parse("EX p").unwrap(), Ctl::ex(Ctl::atom("p")));
    assert_eq!(ctl::parse("EF p").unwrap(), Ctl::ef(Ctl::atom("p")));
    assert_eq!(ctl::parse("EG p").unwrap(), Ctl::eg(Ctl::atom("p")));
    assert_eq!(ctl::parse("AX p").unwrap(), Ctl::ax(Ctl::atom("p")));
    assert_eq!(ctl::parse("AF p").unwrap(), Ctl::af(Ctl::atom("p")));
    assert_eq!(ctl::parse("AG p").unwrap(), Ctl::ag(Ctl::atom("p")));
    assert_eq!(ctl::parse("E [p U q]").unwrap(), Ctl::eu(Ctl::atom("p"), Ctl::atom("q")));
    assert_eq!(ctl::parse("A [p U q]").unwrap(), Ctl::au(Ctl::atom("p"), Ctl::atom("q")));
}

#[test]
fn parse_the_paper_liveness_spec() {
    // Section 6: AG(tr1 -> AF ta1)
    let f = ctl::parse("AG (tr1 -> AF ta1)").unwrap();
    assert_eq!(f, Ctl::ag(Ctl::implies(Ctl::atom("tr1"), Ctl::af(Ctl::atom("ta1")))));
    assert!(f.is_universal());
    assert_eq!(f.atoms(), vec!["tr1", "ta1"]);
}

#[test]
fn syntax_depth_is_bounded_at_the_crossing_token() {
    // Parsing at the limit recurses about ten frames per level, which an
    // unoptimised build cannot fit in a test thread's 2 MiB. Run on the
    // 8 MiB stack `smc` gives its main and worker threads.
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(depth_checks)
        .expect("spawn the depth checks")
        .join()
        .expect("depth checks pass");
}

fn depth_checks() {
    use crate::MAX_SYNTAX_DEPTH as MAX;
    // A left-deep chain of n atoms is n levels high.
    let chain = |n: usize| vec!["p"; n].join(" & ");
    assert!(ctl::parse(&chain(MAX)).is_ok());
    let err = ctl::parse(&chain(MAX + 1)).unwrap_err();
    assert_eq!(err.position, chain(MAX).len() + 1, "at the '&' past the limit");
    assert!(err.message.contains("nested deeper than 512"), "{err}");
    // Prefix operators and parentheses fail before recursing further.
    assert!(ctl::parse(&format!("{}p", "!".repeat(MAX - 1))).is_ok());
    assert!(ctl::parse(&format!("{}p", "!".repeat(50_000))).is_err());
    let parens = |n: usize| format!("{}p{}", "(".repeat(n), ")".repeat(n));
    assert!(ctl::parse(&parens(MAX)).is_ok());
    assert_eq!(ctl::parse(&parens(MAX + 1)).unwrap_err().position, MAX);
    assert!(ctl::parse(&chain(200_000)).is_err());
    // The same bound holds for CTL*.
    assert!(ctlstar::parse(&format!("E ({})", chain(MAX - 3))).is_ok());
    assert!(ctlstar::parse(&format!("E ({})", chain(MAX - 1))).is_err());
    assert!(ctlstar::parse(&format!("E {}p", "F ".repeat(50_000))).is_err());
    assert!(ctlstar::parse(&format!("{}E p", "!".repeat(50_000))).is_err());
}

#[test]
fn existential_size_bounds_the_rewritten_formula() {
    // An existential-basis formula's size is its node count. Without
    // negations or constants to simplify away the bound is exact.
    for (src, exact) in [
        ("p <-> q <-> r", true),
        ("A [p U A [q U r]] -> AX p", true),
        ("AX !p", false),
        ("E [p U q] <-> AG p", false),
    ] {
        let f = ctl::parse(src).unwrap();
        let built = f.to_existential_form().existential_size();
        assert!(f.existential_size() >= built, "{src}");
        assert_eq!(f.existential_size() == built, exact, "{src}");
    }
}

#[test]
fn desugared_size_is_bounded_over_the_whole_formula() {
    use crate::MAX_FORMULA_SIZE as MAX;
    let refused = |err: crate::ParseError| {
        assert!(err.message.contains(&format!("expands past {MAX} nodes")), "{err}");
        err.position
    };
    // Each `<->` link doubles the chain: 14 atoms desugar to 65,529
    // nodes, 15 to 131,065.
    let chain = |n: usize| vec!["p"; n].join(" <-> ");
    assert_eq!(ctl::parse(&chain(14)).unwrap().existential_size(), 65_529);
    // CTL bounds the finished formula, so the error is at its start.
    assert_eq!(refused(ctl::parse(&chain(15)).unwrap_err()), 0);
    // Parts that pass on their own do not pass together: a conjunction
    // of two accepted chains, an accepted chain behind `q | …` chained
    // on, and that again one and two levels deeper.
    let c14 = format!("({})", chain(14));
    let wrapped = format!("(q | {c14}) <-> {}", chain(13));
    let deeper = format!("(q | ({wrapped})) <-> {}", chain(13));
    let deepest = format!("(q | ({deeper})) <-> {}", chain(13));
    for src in [format!("{c14} & {c14}"), wrapped, deeper, deepest] {
        assert_eq!(refused(ctl::parse(&src).unwrap_err()), 0, "{src}");
    }
    // `A[f U g]` repeats `¬g` three times: eight nested pass, nine do not.
    let nest = |n: usize| format!("{}p{}", "A [p U ".repeat(n), "]".repeat(n));
    assert!(ctl::parse(&nest(8)).is_ok());
    assert_eq!(refused(ctl::parse(&nest(9)).unwrap_err()), 0);
    // CTL* desugars `<->` while parsing, so it is refused at the operator
    // whose copies would pass the bound, before they are built. A state
    // atom is one node, a path atom two.
    assert!(ctlstar::parse(&chain(14)).is_ok());
    assert!(ctlstar::parse(&chain(15)).is_err());
    let path = |body: String| ctlstar::parse(&format!("E ({body})"));
    assert!(path(chain(13)).is_ok());
    let at_13th_iff = "E (".len() + chain(13).len() + 1;
    assert_eq!(refused(path(chain(40)).unwrap_err()), at_13th_iff);
    // The whole tree is bounded, not each link: a long `&` of accepted
    // chains is refused once the second is parsed, at its `)`.
    let conj = vec![format!("({})", chain(13)); 100].join(" & ");
    let second_close = format!("E (({0}) & ({0}", chain(13)).len();
    assert_eq!(refused(path(conj).unwrap_err()), second_close);
}

#[test]
fn parse_errors_carry_positions() {
    let err = ctl::parse("p & ").unwrap_err();
    assert_eq!(err.position, 4);
    let err = ctl::parse("p @ q").unwrap_err();
    assert_eq!(err.position, 2);
    assert!(ctl::parse("E [p q]").is_err());
    assert!(ctl::parse("(p").is_err());
    assert!(ctl::parse("p q").is_err());
}

#[test]
fn display_round_trips_through_the_parser() {
    for src in [
        "AG (tr1 -> AF ta1)",
        "E [p U q & r]",
        "!(a | b) <-> c",
        "EG (p & EX q)",
        "A [true U !p]",
        "AG AF (p | !q)",
    ] {
        let f = ctl::parse(src).unwrap();
        let printed = f.to_string();
        let reparsed = ctl::parse(&printed).unwrap();
        assert_eq!(f, reparsed, "printing {src:?} as {printed:?} changed it");
    }
}

#[test]
fn existential_form_uses_only_the_basis() {
    fn only_basis(f: &Ctl) -> bool {
        match f {
            Ctl::True | Ctl::False | Ctl::Atom(_) => true,
            Ctl::Not(g) | Ctl::Ex(g) | Ctl::Eg(g) => only_basis(g),
            Ctl::And(a, b) | Ctl::Or(a, b) | Ctl::Eu(a, b) => only_basis(a) && only_basis(b),
            _ => false,
        }
    }
    for src in ["AG (tr1 -> AF ta1)", "A [p U q]", "AX (p <-> q)", "EF (p -> q)", "AG AF p"] {
        let f = ctl::parse(src).unwrap().to_existential_form();
        assert!(only_basis(&f), "{src} normalized to {f}");
    }
}

#[test]
fn smart_constructors_simplify() {
    assert_eq!(Ctl::not(Ctl::not(Ctl::atom("p"))), Ctl::atom("p"));
    assert_eq!(Ctl::not(Ctl::True), Ctl::False);
    assert_eq!(Ctl::and(Ctl::True, Ctl::atom("p")), Ctl::atom("p"));
    assert_eq!(Ctl::and(Ctl::False, Ctl::atom("p")), Ctl::False);
    assert_eq!(Ctl::or(Ctl::False, Ctl::atom("p")), Ctl::atom("p"));
    assert_eq!(Ctl::or(Ctl::True, Ctl::atom("p")), Ctl::True);
}

// ---------------------------------------------------------------------
// CTL*
// ---------------------------------------------------------------------

#[test]
fn parse_ctlstar_quantified_paths() {
    let f = ctlstar::parse("E (G F p)").unwrap();
    assert_eq!(
        f,
        StateFormula::exists(PathFormula::Globally(Box::new(PathFormula::Future(Box::new(
            PathFormula::State(Box::new(StateFormula::atom("p")))
        )))))
    );
    // Prefix form without parens.
    let g = ctlstar::parse("E G F p").unwrap();
    assert_eq!(f, g);
}

#[test]
fn parse_ctlstar_until() {
    let f = ctlstar::parse("A (p U q U r)").unwrap();
    // Right associative: p U (q U r).
    let StateFormula::Forall(path) = f else {
        panic!("expected A");
    };
    let PathFormula::Until(_, rest) = *path else {
        panic!("expected U");
    };
    assert!(matches!(*rest, PathFormula::Until(_, _)));
}

#[test]
fn classify_the_fairness_class() {
    let f = ctlstar::parse("E ((G F p | F G q) & G F r & F G s)").unwrap();
    let fair = f.classify_fairness().expect("in the class");
    assert_eq!(fair.conjuncts.len(), 3);
    assert_eq!(fair.conjuncts[0].gf, Some(Ctl::atom("p")));
    assert_eq!(fair.conjuncts[0].fg, Some(Ctl::atom("q")));
    assert_eq!(fair.conjuncts[1].gf, Some(Ctl::atom("r")));
    assert_eq!(fair.conjuncts[1].fg, None);
    assert_eq!(fair.conjuncts[2].gf, None);
    assert_eq!(fair.conjuncts[2].fg, Some(Ctl::atom("s")));
}

#[test]
fn classify_accepts_swapped_disjuncts_and_boolean_atoms() {
    let f = ctlstar::parse("E (F G (q & !s) | G F (p | r))").unwrap();
    let fair = f.classify_fairness().expect("in the class");
    assert_eq!(fair.conjuncts.len(), 1);
    assert!(fair.conjuncts[0].gf.is_some());
    assert!(fair.conjuncts[0].fg.is_some());
}

#[test]
fn classify_rejects_out_of_class_formulas() {
    for src in [
        "A (G F p)",         // universal quantifier
        "E (p U q)",         // until is not in the class
        "E (G F p | G F q)", // GF ∨ GF is not GF ∨ FG
        "E (G F X p)",       // non-propositional body
        "E (G F E (G F p))", // nested quantifier in the body
        "p & q",             // no quantifier at all
    ] {
        let f = ctlstar::parse(src).unwrap();
        assert!(f.classify_fairness().is_none(), "{src} wrongly classified");
    }
}

#[test]
fn ctlstar_display_is_reparsable() {
    for src in ["E ((G F p | F G q) & G F r)", "A (p U q)", "E (X X p)", "!E (G F p) | A (F G q)"] {
        let f = ctlstar::parse(src).unwrap();
        let printed = f.to_string();
        let reparsed = ctlstar::parse(&printed).unwrap();
        assert_eq!(f, reparsed, "printing {src:?} as {printed:?} changed it");
    }
}

#[test]
fn propositional_extraction() {
    let f = ctlstar::parse("p & !q | false").unwrap();
    let p = f.to_propositional().expect("propositional");
    assert_eq!(p.atoms(), vec!["p", "q"]);
    let g = ctlstar::parse("E (G F p)").unwrap();
    assert!(g.to_propositional().is_none());
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

fn arb_ctl() -> impl Strategy<Value = Ctl> {
    let leaf =
        prop_oneof![Just(Ctl::True), Just(Ctl::False), "[a-z][a-z0-9_]{0,4}".prop_map(Ctl::Atom),];
    leaf.prop_recursive(5, 48, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Ctl::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| Ctl::And(Box::new(f), Box::new(g))),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| Ctl::Or(Box::new(f), Box::new(g))),
            (inner.clone(), inner.clone())
                .prop_map(|(f, g)| Ctl::Implies(Box::new(f), Box::new(g))),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| Ctl::Iff(Box::new(f), Box::new(g))),
            inner.clone().prop_map(|f| Ctl::Ex(Box::new(f))),
            inner.clone().prop_map(|f| Ctl::Ef(Box::new(f))),
            inner.clone().prop_map(|f| Ctl::Eg(Box::new(f))),
            inner.clone().prop_map(|f| Ctl::Ax(Box::new(f))),
            inner.clone().prop_map(|f| Ctl::Af(Box::new(f))),
            inner.clone().prop_map(|f| Ctl::Ag(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| Ctl::Eu(Box::new(f), Box::new(g))),
            (inner.clone(), inner).prop_map(|(f, g)| Ctl::Au(Box::new(f), Box::new(g))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pretty-printing any formula and reparsing yields the same AST.
    #[test]
    fn prop_ctl_print_parse_round_trip(f in arb_ctl()) {
        let printed = f.to_string();
        let reparsed = ctl::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// Existential normalisation is idempotent.
    #[test]
    fn prop_existential_form_idempotent(f in arb_ctl()) {
        let once = f.to_existential_form();
        let twice = once.to_existential_form();
        prop_assert_eq!(once, twice);
    }
}
