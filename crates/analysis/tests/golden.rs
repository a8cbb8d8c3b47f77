//! Golden diagnostic tests: every lint code fires exactly where it
//! should, with a stable code and an exact source span, and the healthy
//! models stay clean.
//!
//! `models/lint_demo.smv` seeds one trigger per warning the analyzer
//! can reach on a compilable model (W001, W002, W003, W005, W010, W011,
//! W020). The error codes and the warnings that would poison the demo
//! model (W004's cycle cannot compile; W012 would empty the fair set
//! and starve W020's witness) are pinned on inline sources instead.

use smc_analysis::{analyze, AnalysisOptions, Diagnostic, Report, Severity};
use smc_smv::Span;

fn demo_path(name: &str) -> String {
    format!("{}/../../models/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn analyze_file(name: &str) -> (String, Report) {
    let source = std::fs::read_to_string(demo_path(name)).expect("model file");
    let report = analyze(&source, &AnalysisOptions::default());
    (source, report)
}

/// The byte span of the first occurrence of `needle` in `source`.
fn span_of(source: &str, needle: &str) -> Span {
    let start = source.find(needle).unwrap_or_else(|| panic!("{needle:?} not in source"));
    Span::new(start, start + needle.len())
}

fn find<'r>(report: &'r Report, code: &str) -> &'r Diagnostic {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} in {report:#?}"))
}

#[test]
fn lint_demo_reports_every_seeded_diagnostic() {
    let (source, report) = analyze_file("lint_demo.smv");

    let mut codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    codes.sort_unstable();
    assert_eq!(
        codes,
        vec![
            "W001", "W002", "W003", "W005", "W010", "W011", "W020", "W020", "W021", "W021", "W021",
            "W022"
        ],
        "exactly the seeded warnings, nothing else: {report:#?}"
    );
    assert!(report.exhausted.is_none());
    assert_eq!(report.exit_code(), 1, "warnings only");

    // W001: `z` declared but never used — span of the declaration.
    let w001 = find(&report, "W001");
    assert!(w001.message.contains("`z`"), "{w001:?}");
    assert_eq!(w001.span, Some(span_of(&source, "z    : boolean;")));

    // W002: `wo` assigned but never read — span of the declaration.
    let w002 = find(&report, "W002");
    assert!(w002.message.contains("`wo`"), "{w002:?}");
    assert_eq!(w002.span, Some(span_of(&source, "wo   : boolean;")));

    // W003: the branch after the literal TRUE guard — span of the
    // shadowed branch.
    let w003 = find(&report, "W003");
    assert_eq!(w003.span, Some(span_of(&source, "c = 1 : 2;")));

    // W005: `c = 5` can never hold for c : 0..2 — span of the SPEC
    // statement the comparison sits in.
    let w005 = find(&report, "W005");
    assert!(w005.message.contains("always FALSE"), "{w005:?}");
    assert_eq!(w005.span, Some(span_of(&source, "SPEC AG (c = 5 -> AF c = 0)")));

    // W010: the stop=TRUE states deadlock; concrete evidence attached.
    let w010 = find(&report, "W010");
    assert_eq!(w010.span, None, "deadlock is a whole-model finding");
    assert!(
        w010.notes.iter().any(|n| n.contains("stuck state") && n.contains("stop=TRUE")),
        "W010 must show a concrete stuck state: {w010:?}"
    );

    // W011: the req-guarded branch of next(gate) is never taken — span
    // of that branch.
    let w011 = find(&report, "W011");
    assert_eq!(w011.span, Some(span_of(&source, "req  : TRUE;")));

    // W020 (first spec): AG (req -> AF ack) is vacuous in `ack`; the
    // strengthened formula and an interesting witness ride along.
    let w020 = find(&report, "W020");
    assert_eq!(w020.span, Some(span_of(&source, "SPEC AG (req -> AF ack)")));
    assert!(w020.message.contains("`ack`"), "{w020:?}");
    assert!(
        w020.notes.iter().any(|n| n.contains("AG (req -> AF false)")),
        "strengthened formula rendered with source leaf names: {w020:?}"
    );
    assert!(
        w020.notes.iter().any(|n| n.contains("state 0:")),
        "interesting witness generated: {w020:?}"
    );

    // Both W020s are warnings with spans inside their SPEC statements.
    for d in report.diagnostics.iter().filter(|d| d.code == "W020") {
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.span.is_some());
    }

    // W021: req, c and gate are provably frozen — `req` and `c` stand
    // still directly, `gate` only through the fixpoint over `req`. Each
    // finding sits on its declaration and names the frozen value.
    let w021s: Vec<&Diagnostic> = report.diagnostics.iter().filter(|d| d.code == "W021").collect();
    let expect = [
        ("req", "FALSE", "req  : boolean;"),
        ("c", "0", "c    : 0..2;"),
        ("gate", "FALSE", "gate : boolean;"),
    ];
    for (var, value, needle) in expect {
        let d = w021s
            .iter()
            .find(|d| d.message.contains(&format!("`{var}`")))
            .unwrap_or_else(|| panic!("no W021 for {var}: {report:#?}"));
        assert!(d.message.contains(&format!("`{value}`")), "{d:?}");
        assert_eq!(d.span, Some(span_of(&source, needle)), "{var}");
    }

    // W022: `stop` is read (by the TRANS constraint) but lies in no
    // spec's cone; `z`/`wo` stay W001/W002, `gate` stays W021.
    let w022 = find(&report, "W022");
    assert!(w022.message.contains("`stop`"), "{w022:?}");
    assert_eq!(w022.span, Some(span_of(&source, "stop : boolean;")));
}

#[test]
fn pipeline_reports_exactly_the_heartbeat_w022() {
    // models/pipeline.smv: producer/consumer plus an unrelated blinker;
    // every variable serves some spec except the self-referential
    // heartbeat `beat`.
    let (source, report) = analyze_file("pipeline.smv");
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, vec!["W022"], "only the seeded irrelevant variable: {report:#?}");
    let w022 = find(&report, "W022");
    assert!(w022.message.contains("`beat`"), "{w022:?}");
    assert_eq!(w022.span, Some(span_of(&source, "beat     : boolean;")));
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn healthy_models_have_no_false_positives() {
    let (_, mutex) = analyze_file("mutex.smv");
    assert_eq!(mutex.diagnostics, vec![], "mutex.smv must lint clean");
    assert_eq!(mutex.exit_code(), 0);

    // arbiter2.smv carries one *true* positive: FAIRNESS forces
    // `c1.state = granted` infinitely often on every fair path, so
    // `AG (waiting -> AF granted)` holds no matter what the antecedent
    // does — the classic fairness-subsumes-liveness vacuity.
    let (_, arbiter) = analyze_file("arbiter2.smv");
    let codes: Vec<&str> = arbiter.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        vec!["W020"],
        "arbiter2.smv: only the genuine fairness-vacuity finding: {arbiter:#?}"
    );
    let (_, counter) = analyze_file("counter8.smv");
    assert!(!counter.has_errors(), "counter8.smv must compile: {counter:#?}");
}

fn analyze_src(source: &str) -> Report {
    analyze(source, &AnalysisOptions::default())
}

#[test]
fn e001_syntax_error_with_point_span() {
    let source = "MODULE main\nVAR x boolean;\n";
    let report = analyze_src(source);
    let e = find(&report, "E001");
    assert_eq!(e.severity, Severity::Error);
    let span = e.span.expect("parse errors carry their offending byte");
    assert_eq!(span.start, source.find("boolean").expect("present"));
    assert_eq!(report.exit_code(), 2);
}

#[test]
fn e002_misplaced_next_in_init() {
    let source = "MODULE main\nVAR x : boolean;\nINIT next(x)\nASSIGN next(x) := !x;\n";
    let report = analyze_src(source);
    let e = find(&report, "E002");
    assert_eq!(e.span, Some(span_of(source, "INIT next(x)")));
}

#[test]
fn e010_undeclared_identifier_span_is_the_statement() {
    let source = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := ghost;\nSPEC EF x\n";
    let report = analyze_src(source);
    let e = find(&report, "E010");
    assert!(e.message.contains("`ghost`"), "{e:?}");
    assert_eq!(e.span, Some(span_of(source, "next(x) := ghost;")));
}

#[test]
fn e011_duplicate_assign_span_is_the_second_assign() {
    let source =
        "MODULE main\nVAR x : boolean;\nASSIGN next(x) := TRUE; next(x) := FALSE;\nSPEC EF x\n";
    let report = analyze_src(source);
    let e = find(&report, "E011");
    assert_eq!(e.span, Some(span_of(source, "next(x) := FALSE;")));
}

#[test]
fn e012_out_of_domain_constant() {
    let source = "MODULE main\nVAR c : 0..2;\nASSIGN init(c) := 0; next(c) := 7;\nSPEC EF c = 1\n";
    let report = analyze_src(source);
    let e = find(&report, "E012");
    assert!(e.message.contains('7'), "{e:?}");
    assert_eq!(e.span, Some(span_of(source, "next(c) := 7;")));
}

#[test]
fn w004_circular_next_dependency() {
    // next() inside an ASSIGN right-hand side cannot compile, so the
    // cycle is pinned here rather than in lint_demo.smv; the placement
    // errors (E002) ride along.
    let source = "MODULE main\nVAR x : boolean;\nVAR y : boolean;\n\
                  ASSIGN next(x) := next(y); next(y) := next(x);\n";
    let report = analyze_src(source);
    let w = find(&report, "W004");
    assert!(w.message.contains("next(x)") && w.message.contains("next(y)"), "{w:?}");
    assert!(report.diagnostics.iter().any(|d| d.code == "E002"), "{report:#?}");
}

#[test]
fn w012_unsatisfiable_and_unreachable_fairness() {
    // A FAIRNESS no reachable state satisfies would empty the fair set
    // and break vacuity witnesses, so it lives on an inline model.
    let source = "MODULE main\nVAR x : boolean;\n\
                  ASSIGN init(x) := FALSE; next(x) := FALSE;\n\
                  FAIRNESS x\nSPEC EF x\n";
    let report = analyze_src(source);
    let w = find(&report, "W012");
    assert_eq!(w.span, Some(span_of(source, "FAIRNESS x")));
}

#[test]
fn json_rendering_round_trips_through_the_obs_parser() {
    let (source, report) = analyze_file("lint_demo.smv");
    let json = report.render_json("lint_demo.smv", &source);
    let v = smc_obs::Json::parse(&json).expect("valid JSON");
    let diags = match v.get("diagnostics") {
        Some(smc_obs::Json::Arr(items)) => items,
        other => panic!("diagnostics array missing: {other:?}"),
    };
    assert_eq!(diags.len(), report.diagnostics.len());
    for (d, rendered) in report.diagnostics.iter().zip(diags) {
        assert_eq!(rendered.get("code").and_then(|c| c.as_str()), Some(d.code), "codes in order");
    }
}
