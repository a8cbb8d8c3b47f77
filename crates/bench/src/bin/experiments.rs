//! Regenerates every experiment of the paper's evaluation
//! (EXPERIMENTS.md): paper-reported values next to measured ones.
//!
//! Run with: `cargo run -p smc-bench --release --bin experiments`

use std::time::Instant;

use smc_bench::{
    hamiltonian_instance, scc_chain, single_scc_ring, to_symbolic_with_fairness, witness_shape,
};
use smc_checker::{Checker, CycleStrategy};
use smc_circuits::arbiter::seitz_arbiter;
use smc_circuits::families::{inverter_ring, muller_pipeline};
use smc_circuits::FairnessMode;
use smc_explicit::{greedy_fair_lasso, minimal_fair_lasso, ExplicitChecker};
use smc_logic::{ctl, ctlstar};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    exp1_arbiter()?;
    exp2_exp3_witness_shapes()?;
    exp4_minimal_witness()?;
    exp5_ctlstar()?;
    exp6_containment()?;
    exp7_check_vs_witness()?;
    exp8_symbolic_vs_explicit()?;
    ablation_a1_strategies()?;
    ablation_a3_bdd()?;
    Ok(())
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn row(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} {paper:>14} {measured:>14}");
}

// ---------------------------------------------------------------------

fn exp1_arbiter() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-1  Seitz arbiter case study (Section 6, Figure 3)");
    println!("  {:<44} {:>14} {:>14}", "metric", "paper", "measured");
    let arb = seitz_arbiter();
    let t0 = Instant::now();
    let mut model = arb.build()?;
    let reach = model.reachable_count().expect("unbudgeted reachability cannot trip");
    row("reachable states", "33,633", &format!("{reach}"));

    let mut checker = Checker::new(&mut model);
    let safety = ctl::parse("AG !(meo1 & meo2)")?;
    let safety_holds = checker.check(&safety)?.holds();
    row("AG !(grant1 & grant2)", "holds", verdict(safety_holds));

    let spec = ctl::parse("AG (tr1 -> AF ta1)")?;
    let check_start = Instant::now();
    let v = checker.check(&spec)?;
    let check_time = check_start.elapsed();
    row("AG (tr1 -> AF ta1)", "fails", verdict(v.holds()));

    let cx_start = Instant::now();
    let cx = checker.counterexample(&spec)?;
    let cx_time = cx_start.elapsed();
    row("counterexample length", "78", &format!("{}", cx.len()));
    row("cycle length", "30", &format!("{}", cx.cycle_len()));
    row("total verification time", "~minutes (1994)", &format!("{:.1?}", t0.elapsed()));
    row("  of which: check", "-", &format!("{check_time:.1?}"));
    row("  of which: counterexample", "-", &format!("{cx_time:.1?}"));
    let replay = cx.is_path_of(checker.model());
    row("counterexample replays on model", "-", &format!("{replay}"));
    Ok(())
}

fn exp2_exp3_witness_shapes() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-2/EXP-3  Witness shapes (Figures 1 and 2)");
    println!(
        "  {:<18} {:>8} {:>8} {:>9} {:>10} {:>12}",
        "workload", "length", "cycle", "restarts", "stay-exits", "SCCs spanned"
    );
    for (name, graph, strategy) in [
        ("Fig1 ring(8)", single_scc_ring(8), CycleStrategy::Restart),
        ("Fig2 chain(3)", scc_chain(3), CycleStrategy::Restart),
        ("Fig2 chain(3)+stay", scc_chain(3), CycleStrategy::StaySet),
        ("Fig2 chain(6)", scc_chain(6), CycleStrategy::Restart),
    ] {
        let w = witness_shape(&graph, strategy)?;
        println!(
            "  {:<18} {:>8} {:>8} {:>9} {:>10} {:>12}",
            name, w.length, w.cycle, w.restarts, w.stay_exits, w.sccs_spanned
        );
    }
    println!("  (paper: Fig1 closes in one SCC without restarting; Fig2 spans three SCCs)");
    Ok(())
}

fn exp4_minimal_witness() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-4  Theorem 1: exact minimal witness vs. greedy heuristic");
    println!(
        "  {:<8} {:>12} {:>12} {:>14} {:>14}",
        "n", "minimal len", "greedy len", "exact time", "greedy time"
    );
    for n in [4, 6, 8, 10, 12] {
        let (graph, masks) = hamiltonian_instance(n);
        let body = vec![true; n];
        let t0 = Instant::now();
        let minimal = minimal_fair_lasso(&graph, &masks, 0).expect("ring is fair");
        let exact_time = t0.elapsed();
        let t1 = Instant::now();
        let greedy = greedy_fair_lasso(&graph, &masks, &body, 0).expect("ring is fair");
        let greedy_time = t1.elapsed();
        println!(
            "  {:<8} {:>12} {:>12} {:>14} {:>14}",
            n,
            minimal.len(),
            greedy.len(),
            format!("{exact_time:.1?}"),
            format!("{greedy_time:.1?}")
        );
    }
    println!("  (the exact search pays the NP-complete price: time grows with n·2^k)");
    Ok(())
}

fn exp5_ctlstar() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-5  CTL* fairness-class witnesses (Section 7)");
    let graph = smc_bench::random_fair_graph(24, 7, 2);
    let mut model = to_symbolic_with_fairness(&graph, 0)?;
    for (text, note) in [
        ("E (G F p)", "GF obligation"),
        ("E (F G !p)", "FG obligation"),
        ("E (G F f0 & G F f1)", "two GF obligations"),
        ("E ((G F p | F G !p) & G F f0)", "mixed disjunct"),
    ] {
        let formula = ctlstar::parse(text)?;
        let mut checker = Checker::new(&mut model);
        let (holds, _) = checker.check_ctlstar(&formula)?;
        if holds {
            let t0 = Instant::now();
            let (w, sides) = checker.witness_ctlstar(&formula)?;
            let valid = {
                let model = checker.model();
                w.is_path_of(model)
            };
            println!(
                "  {text:<34} holds; witness len {} cycle {} sides {:?} valid {} ({:.1?})",
                w.len(),
                w.cycle_len(),
                sides,
                valid,
                t0.elapsed()
            );
        } else {
            println!("  {text:<34} fails at init ({note})");
        }
    }
    Ok(())
}

fn exp6_containment() -> Result<(), Box<dyn std::error::Error>> {
    use smc_automata::{
        accepts, check_containment, Acceptance, ContainmentOutcome, OmegaAutomaton,
    };
    header("EXP-6  Streett language containment (Section 8)");
    // "infinitely many a" vs "infinitely many b".
    let alphabet: Vec<String> = vec!["a".into(), "b".into()];
    let mut inf_a = OmegaAutomaton::new(2, 0, alphabet.clone());
    let mut inf_b = OmegaAutomaton::new(2, 0, alphabet);
    for s in 0..2 {
        inf_a.add_transition(s, 0, 1);
        inf_a.add_transition(s, 1, 0);
        inf_b.add_transition(s, 1, 1);
        inf_b.add_transition(s, 0, 0);
    }
    inf_a.set_acceptance(Acceptance::buchi([1]));
    inf_b.set_acceptance(Acceptance::buchi([1]));
    let t0 = Instant::now();
    match check_containment(&inf_a, &inf_b)? {
        ContainmentOutcome::Fails { word, .. } => {
            println!(
                "  L(GF a) ⊆ L(GF b): FAILS with word {} (in L(K): {}, in L(K'): {}) ({:.1?})",
                word.render(inf_a.alphabet()),
                accepts(&inf_a, &word),
                accepts(&inf_b, &word),
                t0.elapsed()
            );
        }
        ContainmentOutcome::Holds => println!("  unexpected: containment holds"),
    }
    match check_containment(&inf_a, &inf_a)? {
        ContainmentOutcome::Holds => println!("  L(GF a) ⊆ L(GF a): holds (reflexivity)"),
        ContainmentOutcome::Fails { .. } => println!("  unexpected failure"),
    }
    Ok(())
}

fn exp7_check_vs_witness() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-7  Witness cost vs. check cost (Section 9 observation)");
    println!("  {:<22} {:>10} {:>12} {:>12} {:>8}", "model", "states", "check", "witness", "ratio");
    for n in [4, 6, 8] {
        let net = muller_pipeline(n);
        let mut model = net.build(FairnessMode::PerGate)?;
        let states = model.reachable_count().expect("unbudgeted reachability cannot trip");
        let spec = ctl::parse("EG true")?;
        let mut checker = Checker::new(&mut model);
        let t0 = Instant::now();
        let _ = checker.check(&spec)?;
        let check = t0.elapsed();
        let t1 = Instant::now();
        let _ = checker.witness(&spec)?;
        let witness = t1.elapsed();
        let ratio = witness.as_secs_f64() / check.as_secs_f64().max(1e-9);
        println!(
            "  {:<22} {:>10} {:>12} {:>12} {:>8.2}",
            format!("muller_pipeline({n})"),
            states,
            format!("{check:.1?}"),
            format!("{witness:.1?}"),
            ratio
        );
    }
    println!(
        "  (paper: \"finding a counterexample can sometimes take most of the execution time\")"
    );
    Ok(())
}

fn exp8_symbolic_vs_explicit() -> Result<(), Box<dyn std::error::Error>> {
    header("EXP-8  Symbolic vs. explicit state enumeration");
    println!("  {:<14} {:>10} {:>14} {:>14}", "circuit", "states", "symbolic", "explicit");
    let spec = ctl::parse("AG (EF inv0)")?;
    for n in [5, 9, 13] {
        let net = inverter_ring(n);
        let mut model = net.build(FairnessMode::PerGate)?;
        let states = model.reachable_count().expect("unbudgeted reachability cannot trip");
        let t0 = Instant::now();
        let mut sym = Checker::new(&mut model);
        let sym_holds = sym.check(&spec)?.holds();
        let sym_time = t0.elapsed();
        let t1 = Instant::now();
        let explicit_result = model.enumerate(200_000).map(|(graph, _)| {
            let mut exp = ExplicitChecker::new(&graph);
            exp.auto_fairness();
            exp.check(&spec).expect("known atoms")
        });
        let exp_time = t1.elapsed();
        match explicit_result {
            Ok(exp_holds) => {
                assert_eq!(sym_holds, exp_holds, "engines disagree");
                println!(
                    "  {:<14} {:>10} {:>14} {:>14}",
                    format!("ring({n})"),
                    states,
                    format!("{sym_time:.1?}"),
                    format!("{exp_time:.1?} (incl. enumeration)")
                );
            }
            Err(_) => {
                println!(
                    "  {:<14} {:>10} {:>14} {:>14}",
                    format!("ring({n})"),
                    states,
                    format!("{sym_time:.1?}"),
                    "state explosion"
                );
            }
        }
    }
    println!("  (paper: the explicit attempt on the arbiter \"failed because the number of states was too large\")");
    Ok(())
}

fn ablation_a1_strategies() -> Result<(), Box<dyn std::error::Error>> {
    header("A1  Cycle-closing strategies: restart vs. precomputed stay set");
    println!(
        "  {:<16} {:>12} {:>8} {:>8} {:>9} {:>10}",
        "workload", "strategy", "length", "cycle", "restarts", "stay-exits"
    );
    for k in [3, 6, 10] {
        for strategy in [CycleStrategy::Restart, CycleStrategy::StaySet] {
            let w = witness_shape(&scc_chain(k), strategy)?;
            println!(
                "  {:<16} {:>12} {:>8} {:>8} {:>9} {:>10}",
                format!("chain({k})"),
                format!("{strategy:?}"),
                w.length,
                w.cycle,
                w.restarts,
                w.stay_exits
            );
        }
    }
    Ok(())
}

fn ablation_a3_bdd() -> Result<(), Box<dyn std::error::Error>> {
    header("A3  BDD machinery: computed table and fused relational product");
    // Cache on/off on the arbiter reachability computation.
    for cache in [true, false] {
        let arb = seitz_arbiter();
        let mut model = arb.build()?;
        model.manager_mut().set_cache_enabled(cache);
        let t0 = Instant::now();
        let spec = ctl::parse("AG !(meo1 & meo2)")?;
        let mut checker = Checker::new(&mut model);
        let _ = checker.check(&spec)?;
        println!(
            "  computed table {}: safety check in {:.1?}",
            if cache { "on " } else { "off" },
            t0.elapsed()
        );
    }
    // Fused and_exists vs. two-pass on the arbiter image computation.
    let arb = seitz_arbiter();
    let mut model = arb.build()?;
    let init = model.init();
    let trans = model.trans();
    let cur: Vec<_> = model.cur_vars().to_vec();
    let m = model.manager_mut();
    let cube = m.cube(&cur);
    let t0 = Instant::now();
    for _ in 0..200 {
        let _ = m.and_exists(init, trans, cube);
        m.clear_cache();
    }
    let fused = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..200 {
        let conj = m.and(init, trans);
        let _ = m.exists(conj, cube);
        m.clear_cache();
    }
    let two_pass = t1.elapsed();
    println!("  relational product fused:    {fused:.1?} / 200 images");
    println!("  relational product two-pass: {two_pass:.1?} / 200 images");
    Ok(())
}

fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "fails"
    }
}
