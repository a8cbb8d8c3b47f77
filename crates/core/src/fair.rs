//! Fair-CTL machinery (Section 5): the nested fixpoint for `EG` under
//! fairness constraints, which saves the approximation rings the witness
//! generator walks (Section 6).

use smc_bdd::Bdd;
use smc_kripke::SymbolicModel;

use crate::error::CheckError;
use crate::fixpoint::{check_eg, check_ex, eu_rings};
use crate::govern::{self, Progress};
use crate::obs::{self, FixObserver};
use crate::Phase;
use smc_obs::{FixKind, SpanKind};

/// The ring sequences saved from the **last** outer iteration of
/// [`fair_eg`], one per fairness constraint.
///
/// `rings[k][i]` is the set of states from which a state in
/// `(EG_fair f) ∧ hₖ` can be reached in `i` or fewer steps while staying
/// inside `f` — the paper's `Q_i^h`. The witness generator probes these
/// for increasing `i` to find the *nearest* constraint and then descends
/// them ring by ring.
pub type FairRings = Vec<Vec<Bdd>>;

/// `CheckFairEG(f)` under constraints `H`:
///
/// ```text
/// gfp Z [ f ∧ ⋀ₖ EX( E[f U (Z ∧ hₖ)] ) ]
/// ```
///
/// Returns the fixpoint together with the rings its inner `EU`s recorded
/// in the last outer iteration — exactly the bookkeeping Section 6
/// prescribes ("in the last iteration of the outer fixpoint, we save the
/// sequence of approximations"). An empty fixpoint has the single ring
/// `[∅]` per constraint.
///
/// The outer rounds are Gauss–Seidel rather than Jacobi: within a round
/// each constraint's `EU` targets the set the constraints before it have
/// just narrowed, and the visiting order alternates between rounds.
/// Chaotic iteration of these monotone conjuncts from `f` reaches the
/// same greatest fixpoint, and never in more rounds: each round's result
/// lies inside the Jacobi round's. The round that ends the loop changes
/// nothing, so its targets are the textbook `Z ∧ hₖ` and its rings the
/// textbook ones.
///
/// With `H` empty the constraint conjunction is vacuous and this degrades
/// to plain `EG f` (every path is fair), with no rings.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn fair_eg(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> Result<(Bdd, FairRings), CheckError> {
    // Without constraints the nested fixpoint degenerates to plain EG,
    // which the candidate-based `check_eg` computes with the same
    // iterates.
    if constraints.is_empty() {
        return Ok((check_eg(model, f)?, Vec::new()));
    }
    // The nested EU fixpoints checkpoint internally; a ladder GC there
    // must not collect this level's working set, so f and the constraints
    // are shielded for the whole computation (and the loop shields its
    // evolving handles around each inner call).
    let mut shield = vec![f];
    shield.extend_from_slice(constraints);
    govern::protect_all(model, &shield);
    let span = obs::span_start(model, SpanKind::FairEg, None);
    let result = fair_eg_inner(model, f, constraints);
    obs::span_end(model, span);
    govern::unprotect_all(model, &shield);
    result
}

fn fair_eg_inner(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> Result<(Bdd, FairRings), CheckError> {
    // `seeds[k]` is constraint k's inner EU result from the previous
    // round. Targets shrink monotonically, so E[f U t] = E[(f ∧ seed) U t],
    // ring by ring: every state on a witnessing prefix for the smaller
    // target already sat in the previous (larger) EU set. Restricting f
    // this way lets the inner fixpoints run over the already-narrowed
    // state space, and the rings of the last iteration are the textbook
    // ones.
    let mut seeds: Vec<Bdd> = vec![f; constraints.len()];
    let mut watch = FixObserver::new(model, FixKind::FairEgOuter);
    let mut z = f;
    let mut outer = 0u64;
    let rings = loop {
        let mut guard = vec![z];
        guard.extend_from_slice(&seeds);
        govern::protect_all(model, &guard);
        // Round 1 visits the constraints forward, round 2 in reverse, and
        // so on, as reachability's sweeps alternate the events.
        let step = fair_eg_step(model, f, constraints, z, &seeds, outer % 2 == 1);
        govern::unprotect_all(model, &guard);
        let (next, rings) = step?;
        for (seed, seq) in seeds.iter_mut().zip(&rings) {
            if let Some(&last) = seq.last() {
                *seed = last;
            }
        }
        outer += 1;
        let mut roots = vec![z, next];
        roots.extend_from_slice(&seeds);
        roots.extend(rings.iter().flatten());
        govern::checkpoint(
            model,
            Phase::FairEg,
            Progress { iterations: outer, rings: 0, approx: Some(z) },
            &roots,
        )?;
        // The outer gfp has no frontier; report the shrinking candidate
        // set for both sizes.
        watch.iter(model, outer, next, next);
        if next == z {
            break rings;
        }
        z = next;
    };
    // Only an empty fixpoint can end on a step cut short by an empty
    // conjunction; its rings are all `[∅]`.
    if z.is_false() {
        return Ok((z, vec![vec![Bdd::FALSE]; constraints.len()]));
    }
    Ok((z, rings))
}

/// One Gauss–Seidel round from `Z`: starting at `acc = Z`, each
/// constraint `k` in turn (in reverse when `reverse`) conjoins
/// `EX(E[f U (acc ∧ hₖ)])` into `acc`, so it sees the set the constraints
/// before it just narrowed. Each inner `EU` is restricted by its seed from
/// the previous round. Returns `acc` and the rings each inner `EU`
/// recorded, in constraint order; the round stops early once `acc` is
/// empty, leaving the rest of the ring lists empty.
fn fair_eg_step(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
    z: Bdd,
    seeds: &[Bdd],
    reverse: bool,
) -> Result<(Bdd, FairRings), CheckError> {
    let n = constraints.len();
    let mut acc = z;
    let mut rings: FairRings = vec![Vec::new(); n];
    let mut shield: Vec<Bdd> = Vec::new();
    let mut step = |model: &mut SymbolicModel, shield: &mut Vec<Bdd>| {
        for i in 0..n {
            let k = if reverse { n - 1 - i } else { i };
            if acc.is_false() {
                break;
            }
            let target = model.manager_mut().and(acc, constraints[k]);
            let f_seeded = model.manager_mut().and(f, seeds[k]);
            // Keep this round's working set, rings included, safe across
            // the later inner EUs' checkpoints (which may run the
            // degradation ladder's GC).
            govern::protect_all(model, &[acc, target, f_seeded]);
            shield.extend([acc, target, f_seeded]);
            let seq = eu_rings(model, f_seeded, target)?;
            govern::protect_all(model, &seq);
            shield.extend_from_slice(&seq);
            let ex = check_ex(model, seq[seq.len() - 1]);
            rings[k] = seq;
            acc = model.manager_mut().and(acc, ex);
        }
        Ok(acc)
    };
    let result: Result<Bdd, CheckError> = step(model, &mut shield);
    govern::unprotect_all(model, &shield);
    Ok((result?, rings))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use smc_kripke::SymbolicModelBuilder;

    /// A free boolean toggler: x may stay or flip each step.
    fn free_bit() -> SymbolicModel {
        let mut b = SymbolicModelBuilder::new();
        b.bool_var("x").unwrap();
        b.init_zero();
        // No next_fn: x is unconstrained.
        b.build().unwrap()
    }

    #[test]
    fn fair_eg_without_constraints_is_plain_eg() {
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let plain = crate::fixpoint::check_eg(&mut m, x).unwrap();
        let (fair, rings) = fair_eg(&mut m, x, &[]).unwrap();
        assert_eq!(plain, fair);
        assert!(rings.is_empty());
        // x can be held at 1 forever, so EG x = {x}.
        assert_eq!(m.state_count(fair), 1.0);
    }

    #[test]
    fn fairness_can_empty_an_eg_set() {
        // EG x under the fairness constraint "¬x holds infinitely often"
        // is empty: any path visiting ¬x infinitely often leaves x.
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let nx = m.manager_mut().not(x);
        let (fair, rings) = fair_eg(&mut m, x, &[nx, x]).unwrap();
        assert!(fair.is_false());
        assert_eq!(rings, vec![vec![Bdd::FALSE]; 2]);
        // Under the constraint "x infinitely often" EG x survives.
        let (fair2, _) = fair_eg(&mut m, x, &[x]).unwrap();
        assert_eq!(m.state_count(fair2), 1.0);
    }

    #[test]
    fn fair_eg_with_unsatisfiable_constraint_is_empty() {
        let mut b = SymbolicModelBuilder::new();
        let x = b.bool_var("x").unwrap();
        b.init_zero();
        b.next_fn(x, |m, cur| m.not(cur[0]));
        b.fairness_fn(|m, _| m.constant(false));
        let mut m = b.build().unwrap();
        let constraints = m.fairness().to_vec();
        assert!(fair_eg(&mut m, Bdd::TRUE, &constraints).unwrap().0.is_false());
    }

    #[test]
    fn rings_reach_every_fair_eg_state() {
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let nx = m.manager_mut().not(x);
        // EG true under constraints {x infinitely often, ¬x infinitely
        // often}: both states qualify (toggle forever).
        let (egf, rings) = fair_eg(&mut m, Bdd::TRUE, &[x, nx]).unwrap();
        assert_eq!(m.state_count(egf), 2.0);
        assert_eq!(rings.len(), 2);
        for ring in &rings {
            // The outermost ring covers all of EG-fair.
            let last = *ring.last().unwrap();
            assert!(m.manager_mut().is_subset(egf, last));
        }
    }
}
