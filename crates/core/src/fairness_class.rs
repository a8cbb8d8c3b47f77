//! Checking and witnessing the CTL* fairness class
//! `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)` (Section 7 of the paper).
//!
//! Checking uses the fixpoint characterisation
//!
//! ```text
//! E ⋀ⱼ (GF pⱼ ∨ FG qⱼ) = EF gfp Y [ ⋀ⱼ ((qⱼ ∧ EX Y) ∨ EX E[Y U (pⱼ ∧ Y)]) ]
//! ```
//!
//! Witness construction follows the paper's case split: resolve each
//! two-sided disjunct by testing whether the formula with that disjunct
//! *fixed to its `FG` side* still holds at the start state; once every
//! conjunct is single-sided the formula equals
//! `EF EG(⋀q)` under the fairness constraints `{p}`, whose witness is a
//! reachability prefix spliced onto a fair-`EG` lasso.

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};

use crate::error::CheckError;
use crate::fair::fair_eg;
use crate::fixpoint::{check_eu, check_ex, eu_rings};
use crate::govern::{self, Progress};
use crate::witness::{splice, witness_eg_fair, witness_eu, CycleStrategy, Trace, WitnessStats};
use crate::Phase;

/// One conjunct `GF p ∨ FG q` with the propositional sides already
/// evaluated to state sets. Either side may be absent (degenerate
/// single-sided conjuncts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessConjunct {
    /// The state set of `p` in `GF p`, if present.
    pub gf: Option<Bdd>,
    /// The state set of `q` in `FG q`, if present.
    pub fg: Option<Bdd>,
}

impl FairnessConjunct {
    /// `GF p` only.
    pub fn gf(p: Bdd) -> FairnessConjunct {
        FairnessConjunct { gf: Some(p), fg: None }
    }

    /// `FG q` only.
    pub fn fg(q: Bdd) -> FairnessConjunct {
        FairnessConjunct { gf: None, fg: Some(q) }
    }

    /// The full disjunct `GF p ∨ FG q`.
    pub fn gf_or_fg(p: Bdd, q: Bdd) -> FairnessConjunct {
        FairnessConjunct { gf: Some(p), fg: Some(q) }
    }
}

/// Which side of a two-sided disjunct the witness construction selected
/// (returned so experiments can inspect the case split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedSide {
    /// `GF p` was used.
    Gf,
    /// `FG q` was used.
    Fg,
}

/// Evaluates `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)`; returns the satisfying state set
/// and the inner greatest fixpoint (the states where the suffix
/// obligations can be discharged forever).
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn check_efairness(
    model: &mut SymbolicModel,
    conjuncts: &[FairnessConjunct],
) -> Result<(Bdd, Bdd), CheckError> {
    // Shield the conjunct sides across the nested EU checkpoints (see
    // the fair-EG machinery for the same pattern).
    let mut shield: Vec<Bdd> = Vec::new();
    for c in conjuncts {
        shield.extend(c.gf);
        shield.extend(c.fg);
    }
    govern::protect_all(model, &shield);
    let result = check_efairness_inner(model, conjuncts);
    govern::unprotect_all(model, &shield);
    result
}

fn check_efairness_inner(
    model: &mut SymbolicModel,
    conjuncts: &[FairnessConjunct],
) -> Result<(Bdd, Bdd), CheckError> {
    let mut y = Bdd::TRUE;
    let mut iters = 0u64;
    loop {
        model.manager_mut().protect(y);
        let step = check_efairness_step(model, conjuncts, y);
        model.manager_mut().unprotect(y);
        let next = step?;
        iters += 1;
        govern::checkpoint(
            model,
            Phase::EFairness,
            Progress { iterations: iters, rings: 0, approx: Some(y) },
            &[y, next],
        )?;
        if next == y {
            break;
        }
        y = next;
    }
    let ef = check_eu(model, Bdd::TRUE, y)?;
    Ok((ef, y))
}

/// One gfp iteration: `⋀ⱼ ((qⱼ ∧ EX Y) ∨ EX E[Y U (pⱼ ∧ Y)])`.
fn check_efairness_step(
    model: &mut SymbolicModel,
    conjuncts: &[FairnessConjunct],
    y: Bdd,
) -> Result<Bdd, CheckError> {
    let mut next = Bdd::TRUE;
    let mut shield: Vec<Bdd> = Vec::new();
    let mut step = |model: &mut SymbolicModel, shield: &mut Vec<Bdd>| {
        for c in conjuncts {
            let mut term = Bdd::FALSE;
            if let Some(q) = c.fg {
                let ex = check_ex(model, y);
                let qex = model.manager_mut().and(q, ex);
                term = model.manager_mut().or(term, qex);
            }
            if let Some(p) = c.gf {
                let py = model.manager_mut().and(p, y);
                // The in-flight accumulators must survive the inner EU's
                // checkpoints (ladder GC keeps only roots + protected).
                govern::protect_all(model, &[next, term]);
                shield.extend([next, term]);
                let eu = check_eu(model, y, py)?;
                let ex = check_ex(model, eu);
                term = model.manager_mut().or(term, ex);
            }
            next = model.manager_mut().and(next, term);
            if next.is_false() {
                break;
            }
        }
        Ok(next)
    };
    let result = step(model, &mut shield);
    govern::unprotect_all(model, &shield);
    result
}

/// Constructs a witness path for `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)` from `start`,
/// returning the lasso, the side chosen for each conjunct, and the
/// fair-`EG` construction statistics.
///
/// # Errors
///
/// [`CheckError::NothingToExplain`] if `start` does not satisfy the
/// formula.
pub fn witness_efairness(
    model: &mut SymbolicModel,
    conjuncts: &[FairnessConjunct],
    start: &State,
    strategy: CycleStrategy,
) -> Result<(Trace, Vec<ResolvedSide>, WitnessStats), CheckError> {
    let (all, _) = check_efairness(model, conjuncts)?;
    if !model.eval_state(all, start) {
        return Err(CheckError::NothingToExplain);
    }
    // Case split (Section 7): for each two-sided disjunct, prefer the FG
    // side if the formula restricted that way still holds at `start`.
    let mut resolved: Vec<FairnessConjunct> = conjuncts.to_vec();
    let mut sides = Vec::with_capacity(conjuncts.len());
    for j in 0..resolved.len() {
        let side = match (resolved[j].gf, resolved[j].fg) {
            (Some(_), None) | (None, None) => ResolvedSide::Gf,
            (None, Some(_)) => ResolvedSide::Fg,
            (Some(p), Some(q)) => {
                let mut trial = resolved.clone();
                trial[j] = FairnessConjunct::fg(q);
                let (set, _) = check_efairness(model, &trial)?;
                if model.eval_state(set, start) {
                    resolved[j] = FairnessConjunct::fg(q);
                    ResolvedSide::Fg
                } else {
                    resolved[j] = FairnessConjunct::gf(p);
                    ResolvedSide::Gf
                }
            }
        };
        sides.push(side);
    }
    // All single-sided now: E(⋀FG q ∧ ⋀GF p) = EF EG(⋀q) under
    // fairness constraints {p}.
    let mut qs = Bdd::TRUE;
    let mut ps: Vec<Bdd> = Vec::new();
    for c in &resolved {
        if let Some(q) = c.fg {
            qs = model.manager_mut().and(qs, q);
        }
        if let Some(p) = c.gf {
            ps.push(p);
        }
    }
    let (egf, rings) = fair_eg(model, qs, &ps)?;
    if egf.is_false() {
        return Err(CheckError::WitnessConstruction(
            "case split selected an unsatisfiable branch".into(),
        ));
    }
    // qs, egf and its rings must survive the checkpoints inside the
    // prefix EU and the lasso construction below.
    let mut shield = vec![qs, egf];
    shield.extend(rings.iter().flatten());
    govern::protect_all(model, &shield);
    let tail: Result<(Trace, WitnessStats), CheckError> = (|| {
        let reach = eu_rings(model, Bdd::TRUE, egf)?;
        let prefix = witness_eu(model, &reach, start)?;
        let entry = prefix
            .last()
            .ok_or_else(|| CheckError::WitnessConstruction("empty EU witness prefix".into()))?
            .clone();
        let (lasso, stats) = witness_eg_fair(model, qs, egf, &rings, &entry, strategy)?;
        Ok((splice(prefix, lasso), stats))
    })();
    govern::unprotect_all(model, &shield);
    let (trace, stats) = tail?;
    Ok((trace, sides, stats))
}
