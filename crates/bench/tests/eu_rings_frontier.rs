//! The frontier-based fixpoints must be *observably indistinguishable*
//! from the textbook full-preimage iterations: the witness generator
//! descends the saved onion rings, so every recorded approximation has to
//! be bit-identical, not merely converge to the same fixpoint.
//!
//! These tests re-implement the textbook recursions inline and compare
//! against the optimized versions on the EXP-2/EXP-3 witness-shape
//! models (single-SCC ring, SCC chain) and the fair-EG nesting, whose
//! Gauss–Seidel rounds must end on the textbook rings of random models
//! too. Backward rings stopped at a stop set, as a closing arc stops
//! them, record a prefix of the full list. The
//! verdict-only checker's chained `EU` records no rings, but its set
//! must be the very BDD of the last ring: on random models over random
//! event guards, and on the exported Seitz arbiter.

use smc_bdd::Bdd;
use smc_bench::{scc_chain, single_scc_ring, to_symbolic_with_fairness};
use smc_checker::fair::fair_eg;
use smc_checker::fixpoint::{check_eg, check_eu, eu_rings, BackwardRings};
use smc_checker::Checker;
use smc_circuits::arbiter::arbiter;
use smc_kripke::{SymbolicModel, SymbolicModelBuilder};
use smc_logic::{ctl, Ctl};
use smc_smv::compile;

/// Textbook `CheckEU` ring recording: preimage of the full accumulated
/// set each round.
fn eu_rings_reference(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Vec<Bdd> {
    let mut rings = vec![g];
    let mut z = g;
    loop {
        let pre = model.preimage(z);
        let step = model.manager_mut().and(f, pre);
        let next = model.manager_mut().or(g, step);
        if next == z {
            return rings;
        }
        rings.push(next);
        z = next;
    }
}

/// Textbook `CheckEG`: `Zₖ₊₁ = f ∧ EX Zₖ` with a full preimage per round.
fn eg_reference(model: &mut SymbolicModel, f: Bdd) -> Bdd {
    let mut z = f;
    loop {
        let pre = model.preimage(z);
        let next = model.manager_mut().and(f, pre);
        if next == z {
            return z;
        }
        z = next;
    }
}

/// Textbook fair EG with ring harvest, no EU seeding.
fn fair_eg_with_rings_reference(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> (Bdd, Vec<Vec<Bdd>>) {
    let mut z = f;
    loop {
        let mut acc = f;
        for &h in constraints {
            if acc.is_false() {
                break;
            }
            let target = model.manager_mut().and(z, h);
            let eu = {
                let mut zz = target;
                loop {
                    let pre = model.preimage(zz);
                    let step = model.manager_mut().and(f, pre);
                    let next = model.manager_mut().or(target, step);
                    if next == zz {
                        break zz;
                    }
                    zz = next;
                }
            };
            let ex = model.preimage(eu);
            acc = model.manager_mut().and(acc, ex);
        }
        if constraints.is_empty() {
            let ex = model.preimage(z);
            acc = model.manager_mut().and(f, ex);
        }
        if acc == z {
            break;
        }
        z = acc;
    }
    let mut rings = Vec::new();
    for &h in constraints {
        let target = model.manager_mut().and(z, h);
        rings.push(eu_rings_reference(model, f, target));
    }
    (z, rings)
}

fn witness_shape_models() -> Vec<(&'static str, SymbolicModel)> {
    vec![
        ("ring(8)", to_symbolic_with_fairness(&single_scc_ring(8), 0).unwrap()),
        ("chain(3)", to_symbolic_with_fairness(&scc_chain(3), 0).unwrap()),
        ("chain(6)", to_symbolic_with_fairness(&scc_chain(6), 0).unwrap()),
    ]
}

#[test]
fn eu_rings_bit_identical_to_full_preimage_iteration() {
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        for (f, g) in [(Bdd::TRUE, p), (np, p), (p, np)] {
            let expected = eu_rings_reference(&mut model, f, g);
            let actual = eu_rings(&mut model, f, g).unwrap();
            assert_eq!(expected.len(), actual.len(), "{name}: ring count diverged");
            for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
                assert_eq!(e, a, "{name}: ring {i} not bit-identical");
            }
            assert_eq!(
                *actual.last().unwrap(),
                check_eu(&mut model, f, g).unwrap(),
                "{name}: last ring must be the EU fixpoint"
            );
        }
    }
}

#[test]
fn frontier_eg_matches_full_preimage_iteration() {
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        for f in [Bdd::TRUE, p, np] {
            let expected = eg_reference(&mut model, f);
            let actual = check_eg(&mut model, f).unwrap();
            assert_eq!(expected, actual, "{name}: EG diverged");
        }
    }
}

#[test]
fn seeded_fair_eg_rings_bit_identical() {
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        // The last set leaves no fair path at all: its fixpoint is empty.
        for constraints in [vec![], vec![p], vec![p, np], vec![p, Bdd::FALSE, np]] {
            let (z_ref, rings_ref) =
                fair_eg_with_rings_reference(&mut model, Bdd::TRUE, &constraints);
            let (z, rings) = fair_eg(&mut model, Bdd::TRUE, &constraints).unwrap();
            assert_eq!(z_ref, z, "{name}: fair EG fixpoint diverged");
            assert_eq!(rings_ref.len(), rings.len(), "{name}: ring lists diverged");
            for (k, (rr, r)) in rings_ref.iter().zip(&rings).enumerate() {
                assert_eq!(rr, r, "{name}: constraint {k} rings not bit-identical");
            }
        }
    }
}

/// A small xorshift generator: each random case is fixed by its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A random total graph on 32 states, one to three successors each.
fn random_model(rng: &mut Rng) -> SymbolicModel {
    const BITS: usize = 5;
    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> = (0..BITS).map(|i| b.bool_var(&format!("x{i}")).unwrap()).collect();
    b.init_zero();
    let cur: Vec<Bdd> = ids.iter().map(|&id| b.cur(id)).collect();
    let nxt: Vec<Bdd> = ids.iter().map(|&id| b.next(id)).collect();
    let m = b.manager_mut();
    let mut trans = Bdd::FALSE;
    for s in 0..1 << BITS {
        for _ in 0..1 + rng.below(3) {
            let from = cube(m, &cur, s);
            let to = cube(m, &nxt, rng.below(1 << BITS));
            let edge = m.and(from, to);
            trans = m.or(trans, edge);
        }
    }
    b.constrain_trans(trans);
    b.build().unwrap()
}

/// The minterm of state `s` over the literals `lits` (bit `k` of `s` is
/// `lits[k]`).
fn cube(m: &mut smc_bdd::BddManager, lits: &[Bdd], s: usize) -> Bdd {
    let mut acc = Bdd::TRUE;
    for (k, &lit) in lits.iter().enumerate() {
        let lit = if s >> k & 1 == 1 { lit } else { m.not(lit) };
        acc = m.and(acc, lit);
    }
    acc
}

/// A random set of the 32 states of a [`random_model`], each state in it
/// with probability `1/one_in`.
fn random_set(model: &mut SymbolicModel, rng: &mut Rng, one_in: usize) -> Bdd {
    let bits: Vec<Bdd> = (0..5).map(|i| model.ap(&format!("x{i}")).unwrap()).collect();
    let m = model.manager_mut();
    let mut set = Bdd::FALSE;
    for s in 0..32 {
        if rng.one_in(one_in) {
            let c = cube(m, &bits, s);
            set = m.or(set, c);
        }
    }
    set
}

#[test]
fn gauss_seidel_fair_eg_ends_on_the_textbook_rings_of_random_models() {
    let mut nonempty = 0;
    for case in 0..400u64 {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut model = random_model(&mut rng);
        let constraints: Vec<Bdd> =
            (0..1 + rng.below(4)).map(|_| random_set(&mut model, &mut rng, 4)).collect();
        let f = random_set(&mut model, &mut rng, 2);
        for body in [f, Bdd::TRUE] {
            let (z_ref, rings_ref) = fair_eg_with_rings_reference(&mut model, body, &constraints);
            let (z, rings) = fair_eg(&mut model, body, &constraints).unwrap();
            assert_eq!(z, z_ref, "case {case}: fixpoint");
            nonempty += usize::from(!z.is_false());
            if z.is_false() {
                assert_eq!(rings, vec![vec![Bdd::FALSE]; constraints.len()], "case {case}");
            } else {
                assert_eq!(rings, rings_ref, "case {case}: rings");
            }
        }
    }
    assert!(nonempty >= 50, "only {nonempty} of 800 fixpoints are non-empty");
}

/// [`BackwardRings`] stepped until its newest ring meets `stop`, as a
/// closing arc steps it until a ring meets the successors it closes
/// from.
fn rings_stopped_at(model: &mut SymbolicModel, f: Bdd, g: Bdd, stop: Bdd) -> Vec<Bdd> {
    let mut back = BackwardRings::new(model, g);
    while !model.manager_mut().intersects(back.frontier(), stop) {
        if !back.step(model, f, &[stop]).unwrap() {
            break;
        }
    }
    back.finish(model).unwrap()
}

#[test]
fn a_stopped_eu_records_the_prefix_through_the_first_ring_meeting_the_stop_set() {
    let mut stopped_early = 0;
    for case in 0..100u64 {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut model = random_model(&mut rng);
        let f = random_set(&mut model, &mut rng, 2);
        let g = random_set(&mut model, &mut rng, 8);
        let full = eu_rings(&mut model, f, g).unwrap();
        assert_eq!(full, eu_rings_reference(&mut model, f, g), "case {case}: unstopped");
        for one_in in [2, 8, 32] {
            let stop = random_set(&mut model, &mut rng, one_in);
            let meets = full.iter().position(|&ring| model.manager_mut().intersects(ring, stop));
            let want = meets.map_or(&full[..], |j| &full[..=j]);
            let got = rings_stopped_at(&mut model, f, g, stop);
            assert_eq!(got, want, "case {case}: stopped at {meets:?}");
            stopped_early += usize::from(got.len() < full.len());
        }
        if !g.is_false() {
            assert_eq!(rings_stopped_at(&mut model, f, g, g), vec![g], "case {case}");
        }
    }
    assert!(stopped_early >= 50, "only {stopped_early} of 300 EUs stopped early");
}

/// How a random case's guards cover the transitions.
#[derive(Debug, Clone, Copy)]
enum Guards {
    /// Disjoint guards covering every state.
    Cover,
    /// Disjoint guards covering every reachable state and leaving some
    /// unreachable ones to the remainder part.
    Uncovered,
    /// Overlapping guards covering every reachable state.
    Overlapping,
}

/// A random total graph on 16 states with labels `f` and `g`, its
/// reachable set analysed over random guards of `kind` (reachability
/// only runs to analyse them). Two states only stutter, and one more
/// guard holds exactly them, so its event is dropped. Returns the model
/// and whether some guard-free state has a transition that changes a
/// bit, which only the remainder part covers.
fn random_event_model(rng: &mut Rng, kind: Guards) -> (SymbolicModel, bool) {
    const BITS: usize = 4;
    const N: usize = 1 << BITS;
    let stutters = [1 + rng.below(N - 1), 1 + rng.below(N - 1)];
    let succ: Vec<Vec<usize>> = (0..N)
        .map(|s| {
            if stutters.contains(&s) {
                return vec![s];
            }
            (0..1 + rng.below(3)).map(|_| rng.below(N)).collect()
        })
        .collect();
    let mut reachable = [false; N];
    let mut stack = vec![0];
    reachable[0] = true;
    while let Some(s) = stack.pop() {
        for &t in &succ[s] {
            if !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }
    // Guard membership of each state; the stuttering states are the
    // last guard's alone.
    let k = 3;
    let member: Vec<Vec<bool>> = (0..N)
        .map(|s| {
            if stutters.contains(&s) {
                return (0..=k).map(|i| i == k).collect();
            }
            let mut row = vec![false; k + 1];
            match kind {
                Guards::Cover => row[rng.below(k)] = true,
                Guards::Uncovered => {
                    if reachable[s] || rng.one_in(2) {
                        row[rng.below(k)] = true;
                    }
                }
                Guards::Overlapping => {
                    for cell in row.iter_mut().take(k) {
                        *cell = rng.one_in(2);
                    }
                    if reachable[s] && !row.contains(&true) {
                        row[rng.below(k)] = true;
                    }
                }
            }
            row
        })
        .collect();
    let uncovered = (0..N).any(|s| !member[s].contains(&true) && succ[s].iter().any(|&t| t != s));

    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> = (0..BITS).map(|i| b.bool_var(&format!("x{i}")).unwrap()).collect();
    b.init_zero();
    let cur: Vec<Bdd> = ids.iter().map(|&id| b.cur(id)).collect();
    let nxt: Vec<Bdd> = ids.iter().map(|&id| b.next(id)).collect();
    let m = b.manager_mut();
    let mut trans = Bdd::FALSE;
    for (s, targets) in succ.iter().enumerate() {
        for &t in targets {
            let from = cube(m, &cur, s);
            let to = cube(m, &nxt, t);
            let edge = m.and(from, to);
            trans = m.or(trans, edge);
        }
    }
    let label = |m: &mut smc_bdd::BddManager, rng: &mut Rng, one_in: usize| {
        let mut set = Bdd::FALSE;
        for s in 0..N {
            if rng.one_in(one_in) {
                let c = cube(m, &cur, s);
                set = m.or(set, c);
            }
        }
        set
    };
    let f = label(m, rng, 2);
    let g = label(m, rng, 6);
    let guards: Vec<Bdd> = (0..=k)
        .map(|i| {
            let mut guard = Bdd::FALSE;
            for s in (0..N).filter(|&s| member[s][i]) {
                let c = cube(m, &cur, s);
                guard = m.or(guard, c);
            }
            guard
        })
        .collect();
    b.constrain_trans(trans);
    b.add_label("f", f);
    b.add_label("g", g);
    let mut model = b.build().unwrap();
    model.set_events(guards);
    model.forget_reachable();
    model.reachable().unwrap();
    assert!(model.has_event_parts());
    (model, uncovered)
}

#[test]
fn chained_eu_equals_the_last_ring_on_random_guarded_models() {
    let mut remainders = 0;
    for case in 0..48u64 {
        for kind in [Guards::Cover, Guards::Uncovered, Guards::Overlapping] {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let (mut model, uncovered) = random_event_model(&mut rng, kind);
            remainders += usize::from(uncovered);
            let f = model.ap("f").unwrap();
            let g = model.ap("g").unwrap();
            let nf = model.manager_mut().not(f);
            let mut want = Vec::new();
            for (lhs, rhs) in [(f, g), (Bdd::TRUE, g), (nf, g)] {
                let rings = eu_rings(&mut model, lhs, rhs).unwrap();
                let textbook = eu_rings_reference(&mut model, lhs, rhs);
                assert_eq!(rings.last(), textbook.last(), "case {case} {kind:?}");
                want.push(rings[rings.len() - 1]);
            }
            let mut checker = Checker::new(&mut model).verdicts_only();
            for (formula, want) in ["E [f U g]", "EF g", "E [!f U g]"].iter().zip(want) {
                let got = checker.check_states(&ctl::parse(formula).unwrap()).unwrap();
                assert_eq!(got, want, "case {case} {kind:?}: {formula}");
            }
        }
    }
    assert!(remainders >= 16, "only {remainders} cases leave transitions to the remainder");
}

/// Every `E[f U g]` node of a formula in existential normal form.
fn eu_nodes(formula: &Ctl, out: &mut Vec<Ctl>) {
    match formula {
        Ctl::Not(f) | Ctl::Ex(f) | Ctl::Eg(f) => eu_nodes(f, out),
        Ctl::And(f, g) | Ctl::Or(f, g) => {
            eu_nodes(f, out);
            eu_nodes(g, out);
        }
        Ctl::Eu(f, g) => {
            eu_nodes(f, out);
            eu_nodes(g, out);
            out.push(formula.clone());
        }
        _ => {}
    }
}

#[test]
fn the_verdict_only_checker_memoizes_the_eu_sets_of_checker_new_on_the_exported_arbiter() {
    let mut source = arbiter(2).netlist.to_smv();
    for spec in ["AG !(meo1 & meo2)", "AG (tr1 -> AF ta1)", "AG (ur2 -> AF ua2)"] {
        source += &format!("SPEC {spec}\n");
    }
    let mut chained = compile(&source).unwrap();
    let mut breadth_first = compile(&source).unwrap();
    assert!(chained.model.has_event_parts(), "loading ran reachability over the events");
    let specs: Vec<Ctl> = chained.specs.iter().map(|s| s.formula.clone()).collect();
    let mut nodes = Vec::new();
    for spec in &specs {
        eu_nodes(&spec.to_existential_form(), &mut nodes);
    }
    assert!(nodes.len() >= 3, "every spec has an EU node");

    let sets = |checker: &mut Checker| -> (Vec<bool>, Vec<Bdd>) {
        let verdicts = specs.iter().map(|s| checker.check(s).unwrap().holds()).collect();
        // Memo hits: the sets the checks stored.
        let sets = nodes.iter().map(|n| checker.check_states(n).unwrap()).collect();
        (verdicts, sets)
    };
    let before = chained.model.manager().stats().created_nodes;
    let verdicts_only = sets(&mut Checker::new(&mut chained.model).verdicts_only());
    let chained_work = chained.model.manager().stats().created_nodes - before;
    let before = breadth_first.model.manager().stats().created_nodes;
    let recorded = sets(&mut Checker::new(&mut breadth_first.model));
    let breadth_first_work = breadth_first.model.manager().stats().created_nodes - before;
    assert_eq!(verdicts_only.0, recorded.0, "verdicts");
    assert!(
        chained_work < breadth_first_work,
        "chaining created {chained_work} nodes, breadth-first search {breadth_first_work}"
    );
    // In the chained run's own manager, `Checker::new` finds the very
    // same handles.
    let same_manager = sets(&mut Checker::new(&mut chained.model));
    assert_eq!(verdicts_only, same_manager, "memoized EU sets");
}
