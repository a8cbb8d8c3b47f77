//! The frontier-based fixpoints must be *observably indistinguishable*
//! from the textbook full-preimage iterations: the witness generator
//! descends the saved onion rings, so every recorded approximation has to
//! be bit-identical, not merely converge to the same fixpoint.
//!
//! These tests re-implement the textbook recursions inline and compare
//! against the optimized versions on the EXP-2/EXP-3 witness-shape
//! models (single-SCC ring, SCC chain) and the fair-EG nesting.

use smc_bdd::Bdd;
use smc_bench::{scc_chain, single_scc_ring, to_symbolic_with_fairness};
use smc_checker::fair::fair_eg;
use smc_checker::fixpoint::{check_eg, check_eu, eu_rings};
use smc_kripke::SymbolicModel;

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
