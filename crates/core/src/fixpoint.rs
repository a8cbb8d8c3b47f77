//! The basic CTL fixpoint operators of Section 4: `CheckEX`, `CheckEU`
//! and `CheckEG`. `CheckEU` has two loops. The breadth-first one records
//! its rings: the witness generator replays them backwards, and callers
//! that need only the fixpoint take the last one. It runs one ring per
//! step, so a fair-`EG` witness can stop it early. The chained one
//! records none and sweeps backwards over the model's events; the
//! verdict-only checker runs it for formula-level `EU`s when the model
//! has event parts.
//!
//! Every fixpoint loop is a governed, fallible computation: each
//! iteration ends at a [`BddManager::checkpoint`](smc_bdd::BddManager)
//! safe point, so an installed [`Budget`](smc_bdd::Budget) can bound the
//! run (and the degradation ladder can collect intermediates that are not
//! passed as roots). A trip surfaces as
//! [`CheckError::ResourceExhausted`] with the fixpoint's phase, completed
//! iteration count and last approximation size attached.

use smc_bdd::Bdd;
use smc_kripke::SymbolicModel;

use crate::error::CheckError;
use crate::govern::{self, Progress};
use crate::obs::{self, FixObserver};
use crate::Phase;
use smc_obs::{FixKind, SpanKind};

/// `CheckEX(f) = ∃v̄′. f(v̄′) ∧ N(v̄, v̄′)` — the states with a successor in
/// `f`.
///
/// A single preimage, no iteration: stays infallible. Callers inside
/// governed loops pick up any trip at their next checkpoint.
pub fn check_ex(model: &mut SymbolicModel, f: Bdd) -> Bdd {
    model.preimage(f)
}

/// `CheckEU(f, g)`: least fixpoint of `λZ. g ∨ (f ∧ EX Z)` — the last
/// ring of [`eu_rings`].
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn check_eu(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Bdd, CheckError> {
    let rings = eu_rings(model, f, g)?;
    Ok(rings[rings.len() - 1])
}

/// `CheckEU` with the increasing approximation sequence `Q₀ ⊆ Q₁ ⊆ …`
/// (the "onion rings"): `Qᵢ` is the set of states that can reach `g` in
/// `i` or fewer steps while passing only through `f`-states. The list is
/// never empty, and its last element is the `E[f U g]` fixpoint.
///
/// Section 6 of the paper saves exactly these sequences (from the last
/// outer fair-`EG` iteration) so witness construction can walk a shortest
/// ring-decreasing path to each fairness constraint.
///
/// Runs [`BackwardRings`] to its fixpoint.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips; the
/// partial report carries the number of rings recorded so far.
pub fn eu_rings(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Vec<Bdd>, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEu, None);
    let result = eu_rings_inner(model, f, g);
    obs::span_end(model, span);
    result
}

fn eu_rings_inner(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Vec<Bdd>, CheckError> {
    let mut back = BackwardRings::new(model, g);
    while back.step(model, f, &[])? {}
    back.finish(model)
}

/// The breadth-first loop of [`eu_rings`], one ring per
/// [`step`](Self::step). The fair-`EG` witness races it against a
/// forward search when it closes a cycle, and stops it at the first ring
/// a successor of the closing state lies in: a stopped list is a prefix
/// of the full one.
///
/// Iterates on the *frontier*: each step takes the preimage of only the
/// states the previous step added. Any `f`-state with a successor in an
/// older ring was itself added in an older step, so every ring is
/// bit-identical to the textbook full-preimage iteration — at the cost of
/// a preimage of the (small) delta instead of the whole set.
pub struct BackwardRings {
    rings: Vec<Bdd>,
    frontier: Bdd,
    iters: u64,
    watch: FixObserver,
}

impl BackwardRings {
    /// Starts at `Q₀ = g`.
    pub fn new(model: &SymbolicModel, g: Bdd) -> BackwardRings {
        let watch = FixObserver::new(model, FixKind::Eu);
        BackwardRings { rings: vec![g], frontier: g, iters: 0, watch }
    }

    /// The rings recorded so far, `Q₀` first.
    pub fn rings(&self) -> &[Bdd] {
        &self.rings
    }

    /// The states the newest ring added (`g` before the first step); `∅`
    /// once the fixpoint is reached. A set the older rings miss meets the
    /// newest ring exactly when it meets this one.
    pub fn frontier(&self) -> Bdd {
        self.frontier
    }

    /// Adds the next ring `Qᵢ₊₁ = Qᵢ ∨ (f ∧ EX frontier)`. Returns
    /// `false`, recording nothing, once it would add no state (the last
    /// ring is then the fixpoint). The step ends at a checkpoint whose
    /// roots are the rings, the step's new sets, `f` and `roots`:
    /// everything else the caller holds must be protected.
    ///
    /// # Errors
    ///
    /// [`CheckError::ResourceExhausted`] if the manager's budget trips.
    pub fn step(
        &mut self,
        model: &mut SymbolicModel,
        f: Bdd,
        roots: &[Bdd],
    ) -> Result<bool, CheckError> {
        if self.frontier.is_false() {
            return Ok(false);
        }
        let z = self.rings[self.rings.len() - 1];
        let ex = check_ex(model, self.frontier);
        let step = model.manager_mut().and(f, ex);
        let add = model.manager_mut().diff(step, z);
        self.iters += 1;
        let progress =
            Progress { iterations: self.iters, rings: self.rings.len() as u64, approx: Some(z) };
        let next = if add.is_false() { z } else { model.manager_mut().or(z, add) };
        // Every recorded ring must survive a ladder GC, so the whole
        // prefix rides along as checkpoint roots (appended to the ring
        // list for the call only).
        let recorded = self.rings.len();
        self.rings.extend([f, next, add]);
        self.rings.extend_from_slice(roots);
        let safe = govern::checkpoint(model, Phase::EuFixpoint, progress, &self.rings);
        self.rings.truncate(recorded);
        safe?;
        self.frontier = add;
        if add.is_false() {
            return Ok(false);
        }
        self.rings.push(next);
        self.watch.iter(model, self.iters, add, next);
        Ok(true)
    }

    /// Reports a step some other search took within this fixpoint's span
    /// through the same observer, so per-iteration counters stay deltas.
    pub(crate) fn observe(
        &mut self,
        model: &SymbolicModel,
        iteration: u64,
        frontier: Bdd,
        approx: Bdd,
    ) {
        self.watch.iter(model, iteration, frontier, approx);
    }

    /// The rings, after a poll: with `g = ∅`, or a caller that stops
    /// before the first step, no checkpoint ran, and a pending trip must
    /// not escape as a bogus `Ok`.
    ///
    /// # Errors
    ///
    /// [`CheckError::ResourceExhausted`] if the manager's budget tripped.
    pub fn finish(self, model: &mut SymbolicModel) -> Result<Vec<Bdd>, CheckError> {
        let z = self.rings[self.rings.len() - 1];
        govern::poll(
            model,
            Phase::EuFixpoint,
            Progress { iterations: self.iters, rings: self.rings.len() as u64, approx: Some(z) },
        )?;
        Ok(self.rings)
    }
}

/// `CheckEU(f, g)` chained: from `Z = g`, each iteration is one
/// [backward sweep](SymbolicModel::sweep_back) over the model's event
/// parts, until a sweep adds nothing. Sweeps alternate the event order,
/// starting in reverse, against the order reachability starts with: on
/// the exported arbiter(3) and arbiter(4) that creates 3–4% fewer nodes
/// than starting forward.
/// The result is the very BDD [`check_eu`] returns; no rings are
/// recorded. Iteration counts (telemetry, the budget's iteration cap)
/// count sweeps.
///
/// The model must have [event parts](SymbolicModel::has_event_parts).
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub(crate) fn eu_chained(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Bdd, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEu, None);
    let result = eu_chained_inner(model, f, g);
    obs::span_end(model, span);
    result
}

fn eu_chained_inner(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Bdd, CheckError> {
    let mut watch = FixObserver::new(model, FixKind::Eu);
    let mut z = g;
    let mut frontier = g;
    let mut iters = 0u64;
    while !frontier.is_false() {
        let progress = Progress { iterations: iters, rings: 0, approx: Some(z) };
        let grown = model
            .sweep_back(f, z, iters.is_multiple_of(2))
            .map_err(|e| govern::exhausted(model, Phase::EuFixpoint, progress, e))?;
        frontier = model.manager_mut().diff(grown, z);
        iters += 1;
        let progress = Progress { iterations: iters, ..progress };
        govern::checkpoint(model, Phase::EuFixpoint, progress, &[f, g, grown, frontier])?;
        z = grown;
        watch.iter(model, iters, frontier, z);
    }
    // As in `eu_rings`: with g = ∅ no checkpoint ran.
    govern::poll(
        model,
        Phase::EuFixpoint,
        Progress { iterations: iters, rings: 0, approx: Some(z) },
    )?;
    Ok(z)
}

/// `CheckEG(f)`: greatest fixpoint of `λZ. f ∧ EX Z` (no fairness).
///
/// After the first full step, iterates on *candidates*: a state drops out
/// of `Z` only if it just lost its last successor in `Z`, i.e. it has a
/// successor among the states removed last round. Only those candidates
/// get their (restricted) preimage re-checked; the rest of `Z` carries
/// over unchanged. The iterates equal the textbook `Zₖ₊₁ = f ∧ EX Zₖ`
/// sequence exactly.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn check_eg(model: &mut SymbolicModel, f: Bdd) -> Result<Bdd, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEg, None);
    let result = check_eg_inner(model, f);
    obs::span_end(model, span);
    result
}

fn check_eg_inner(model: &mut SymbolicModel, f: Bdd) -> Result<Bdd, CheckError> {
    let mut watch = FixObserver::new(model, FixKind::Eg);
    let pre_f = check_ex(model, f);
    let mut z = model.manager_mut().and(f, pre_f);
    let mut prev = f;
    let mut iters = 0u64;
    govern::checkpoint(model, Phase::EgFixpoint, Progress::iters(0), &[f, z])?;
    while z != prev {
        // removed = prev \ z: the states that left Z last round.
        let removed = model.manager_mut().diff(prev, z);
        // Candidates: states of Z with a successor among the removed —
        // every other state keeps a successor in Z and survives as-is.
        let cand = model.preimage_within(removed, z);
        iters += 1;
        let progress = Progress { iterations: iters, rings: 0, approx: Some(z) };
        if cand.is_false() {
            govern::checkpoint(model, Phase::EgFixpoint, progress, &[f, z])?;
            return Ok(z);
        }
        // Which candidates still have some successor in Z?
        let keep = model.preimage_within(z, cand);
        let rest = model.manager_mut().diff(z, cand);
        let next = model.manager_mut().or(rest, keep);
        govern::checkpoint(model, Phase::EgFixpoint, progress, &[f, z, next])?;
        prev = z;
        z = next;
        // The EG loop's "frontier" is the candidate delta re-examined
        // this round.
        watch.iter(model, iters, removed, z);
    }
    Ok(z)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use smc_kripke::SymbolicModelBuilder;

    /// Two-bit counter where bit1 is stuck once set: 00 -> 01 -> 10 -> 11 -> 11.
    fn saturating_counter() -> SymbolicModel {
        let mut b = SymbolicModelBuilder::new();
        let lo = b.bool_var("lo").unwrap();
        let hi = b.bool_var("hi").unwrap();
        b.init_zero();
        b.next_fn(lo, |m, cur| {
            // lo' = !lo unless saturated at 11
            let sat = m.and(cur[0], cur[1]);
            let toggled = m.not(cur[0]);
            m.ite(sat, cur[0], toggled)
        });
        b.next_fn(hi, |m, cur| {
            let sat = m.and(cur[0], cur[1]);
            let carry = m.xor(cur[1], cur[0]);
            m.ite(sat, cur[1], carry)
        });
        b.build().unwrap()
    }

    #[test]
    fn ex_of_saturated_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        // Predecessors of 11 are 10 and 11 itself.
        let pre = check_ex(&mut m, sat);
        let states = m.states_in(pre, 8).unwrap();
        let bits: Vec<String> = states.iter().map(|s| s.to_bit_string()).collect();
        assert_eq!(bits, vec!["01", "11"]); // (lo,hi) bit order: "01" is lo=0,hi=1
    }

    #[test]
    fn eu_reaches_the_saturated_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        let all = check_eu(&mut m, Bdd::TRUE, sat).unwrap();
        // Every state eventually reaches 11.
        assert_eq!(m.state_count(all), 4.0);
    }

    #[test]
    fn eu_rings_grow_monotonically() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        let rings = eu_rings(&mut m, Bdd::TRUE, sat).unwrap();
        // 11 at distance 0; 10 at 1; 01 at 2; 00 at 3.
        assert_eq!(rings.len(), 4);
        for w in rings.windows(2) {
            let (small, big) = (w[0], w[1]);
            assert!(m.manager_mut().is_subset(small, big));
            assert_ne!(small, big);
        }
        assert_eq!(m.state_count(rings[0]), 1.0);
        assert_eq!(m.state_count(rings[3]), 4.0);
        assert_eq!(*rings.last().unwrap(), check_eu(&mut m, Bdd::TRUE, sat).unwrap());
    }

    #[test]
    fn eg_finds_the_absorbing_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        // EG (hi ∧ lo): only the absorbing 11 state loops forever in it.
        let eg = check_eg(&mut m, sat).unwrap();
        assert_eq!(m.state_count(eg), 1.0);
        // EG true = everything (relation is total).
        let all = check_eg(&mut m, Bdd::TRUE).unwrap();
        assert_eq!(m.state_count(all), 4.0);
    }
}
