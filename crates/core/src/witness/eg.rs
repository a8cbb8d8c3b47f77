//! The fair `EG` witness algorithm of Section 6 — the paper's primary
//! contribution.
//!
//! Given a state `s ⊨ EG f` under fairness constraints `H`, construct a
//! lasso (finite prefix + repeating cycle) such that every state satisfies
//! `f` and every constraint in `H` is visited on the cycle:
//!
//! 1. The check evaluated the fair-`EG` fixpoint and saved the inner
//!    `EU` approximation sequences `Q_i^h` of its **last** outer
//!    iteration; the witness only walks them. (The outer rounds are
//!    Gauss–Seidel, but the last one changes nothing, so its rings are
//!    the textbook `E[f U (Z ∧ h)]` ones.)
//! 2. From the current state, probe the saved rings for increasing `i` to
//!    find the *nearest* pending fairness constraint, hop to a successor
//!    in that ring, and descend ring by ring until the constraint is hit.
//!    Repeat until every constraint has been visited; call the final
//!    state `s′` and the first hopped-to state `t` (the cycle anchor).
//! 3. Close the cycle with a witness for `{s′} ∧ EX E[f U {t}]`. Two
//!    breadth-first searches race to decide it:
//!    - *backward*, the `EU` rings from `t`, stopped at the first
//!      ring a successor of `s′` lies in: the arc starts there and only
//!      descends, so it never reads a later ring;
//!    - *forward*, layers through `f` from `F₀ = succ(s′) ∧ f`,
//!      `Fᵢ₊₁ = (f ∧ Img Fᵢ) \ (F₀ ∪ … ∪ Fᵢ)`, stopped at the first
//!      layer `F_k` that holds `t`. The walk then descends the
//!      shortest-path band `R_k = {t}`, `Rᵢ = Fᵢ ∧ Pre(Rᵢ₊₁)`, as its
//!      rings `[R_k, …, R₀]`.
//!
//!    The backward rings step alone until they have spent 3,000
//!    computed-table lookups (`FORWARD_WARMUP`); from then on the side
//!    whose last step took fewer lookups steps next. The rule reads only
//!    the manager's counters, and the first decision ends the race: a
//!    side that reaches its fixpoint proves that no `f`-path leads from a
//!    successor of `s′` to `t`. Then the attempt **restarts** from `s′` —
//!    each restart descends the DAG of strongly connected components
//!    (Figure 2), so the procedure terminates, typically after very few
//!    restarts.
//!
//!    Either way the lasso is the same. A successor at distance `j` from
//!    `t` has forward depth exactly `k − j` (at most that, by the path
//!    through it, and at least, or `t` would lie in an earlier layer), so
//!    for every state `x` the walk visits, `succ(x) ∧ Q_j = succ(x) ∧
//!    R_{k−j}`: both directions offer the walk the very same set, and it
//!    picks the same state.
//!
//! The *stay-set* refinement precomputes `E[(EG f) U {t}]` and restarts
//! the moment the constraint-hopping walk leaves it, detecting doomed
//! cycles early ("a slightly more sophisticated approach" in the paper).
//!
//! The [`Checker`](crate::Checker) builds each lasso once: it keeps the
//! trace and its [`WitnessStats`] by `EG` node and start state.

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};

use crate::error::CheckError;
use crate::fixpoint::{check_eu, eu_rings, BackwardRings};
use crate::govern::{self, Progress};
use crate::obs;
use crate::witness::strategy::CycleStrategy;
use crate::witness::trace::Trace;
use crate::witness::{meets, ring_below};
use crate::Phase;
use smc_obs::{Event, SpanKind};

/// Bookkeeping from one witness construction, for the experiments that
/// compare strategies (ablation A1) and witness shapes (EXP-2/EXP-3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WitnessStats {
    /// Times the procedure restarted from the frontier state (each
    /// restart descends the SCC DAG).
    pub restarts: usize,
    /// Times the stay-set check cut an attempt short (always 0 for
    /// [`CycleStrategy::Restart`]).
    pub stay_exits: usize,
}

/// Hard cap on restarts; the SCC-descent argument bounds restarts by the
/// number of components, so hitting this indicates an internal bug, not a
/// big model.
const MAX_RESTARTS: usize = 1_000_000;

/// Computed-table lookups a closing arc's backward rings spend before the
/// forward search joins the race. Small closes never pay for a forward
/// start; without the warm-up the pipelines' failing closes overshoot
/// forward, and their traced checks do 9–15% more lookups.
const FORWARD_WARMUP: u64 = 3_000;

/// Constructs a fair `EG f` witness lasso starting at `start`.
///
/// `f` is the (already evaluated) state set of the invariant body, and
/// `egf` and `rings` are what [`fair_eg`](crate::fair::fair_eg) returned
/// for it. With no rings (no fairness constraints) the witness is a plain
/// `EG` lasso.
///
/// # Errors
///
/// [`CheckError::NothingToExplain`] if `start` does not satisfy fair
/// `EG f`; [`CheckError::WitnessConstruction`] on internal invariant
/// violations; [`CheckError::ResourceExhausted`] if the manager's budget
/// trips.
pub fn witness_eg_fair(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    start: &State,
    strategy: CycleStrategy,
) -> Result<(Trace, WitnessStats), CheckError> {
    witness_eg_fair_racing(model, f, egf, rings, start, strategy, FORWARD_WARMUP)
}

/// [`witness_eg_fair`] with the closing arcs' forward search joining
/// after `warmup` backward lookups (`u64::MAX`: never).
pub(crate) fn witness_eg_fair_racing(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    start: &State,
    strategy: CycleStrategy,
    warmup: u64,
) -> Result<(Trace, WitnessStats), CheckError> {
    if !model.eval_state(egf, start) {
        return Err(CheckError::NothingToExplain);
    }
    // A plain EG behaves like the single vacuous constraint `true`: the
    // witness still needs a cycle, just not any particular visit, and
    // the rings of that constraint lead back into `EG f` itself.
    let plain;
    let rings = if rings.is_empty() {
        plain = [eu_rings(model, f, egf)?];
        &plain[..]
    } else {
        rings
    };

    // The saved rings (and egf, and f) are probed across the whole
    // restart loop, which runs governed EU fixpoints (stay sets, closing
    // arcs) whose checkpoints may trigger the degradation ladder's GC.
    // Shield all of them for the duration.
    let mut shield = vec![f, egf];
    shield.extend(rings.iter().flatten().copied());
    govern::protect_all(model, &shield);
    let result = witness_eg_fair_inner(model, f, egf, rings, start, strategy, warmup);
    govern::unprotect_all(model, &shield);
    result
}

fn witness_eg_fair_inner(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    start: &State,
    strategy: CycleStrategy,
    warmup: u64,
) -> Result<(Trace, WitnessStats), CheckError> {
    let mut stats = WitnessStats::default();
    let mut prefix: Vec<State> = Vec::new();
    let mut s = start.clone();

    loop {
        let stay_exits_before = stats.stay_exits;
        match attempt_cycle(model, f, egf, rings, &s, strategy, warmup, &mut stats)? {
            AttemptOutcome::Closed { states, anchor_index } => {
                let loopback = prefix.len() + anchor_index;
                prefix.extend(states);
                return Ok((Trace::lasso(prefix, loopback), stats));
            }
            AttemptOutcome::Restart { mut walked, from } => {
                stats.restarts += 1;
                if obs::enabled(model) {
                    obs::emit(
                        model,
                        Event::Restart {
                            count: stats.restarts as u64,
                            stay_exit: stats.stay_exits > stay_exits_before,
                            frontier: from.to_bit_string(),
                        },
                    );
                }
                if stats.restarts > MAX_RESTARTS {
                    let depths: Vec<usize> = rings.iter().map(|r| r.len()).collect();
                    return Err(CheckError::WitnessConstruction(format!(
                        "restart budget exhausted after {} restarts ({} stay exits); \
                         fair_eg rings are inconsistent ({} constraints, ring depths {:?})",
                        stats.restarts,
                        stats.stay_exits,
                        rings.len(),
                        depths,
                    )));
                }
                // The walked states become prefix; the restart state is
                // re-pushed as the head of the next attempt.
                walked.pop();
                prefix.extend(walked);
                s = from;
            }
        }
    }
}

enum AttemptOutcome {
    /// The cycle closed: `states` holds the attempt path plus the closing
    /// arc; the cycle begins at `anchor_index` within `states`.
    Closed { states: Vec<State>, anchor_index: usize },
    /// The cycle could not be closed; restart from `from` (the last
    /// element of `walked`).
    Restart { walked: Vec<State>, from: State },
}

/// One cycle attempt from `s`: visit every constraint, then try to close.
#[allow(clippy::too_many_arguments)]
fn attempt_cycle(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    s: &State,
    strategy: CycleStrategy,
    warmup: u64,
    stats: &mut WitnessStats,
) -> Result<AttemptOutcome, CheckError> {
    // The stay set, once computed, must survive the closing arc's
    // governed EU fixpoint — it rides in a shield for the rest of the
    // attempt, released here on every exit path.
    let mut shield: Vec<Bdd> = Vec::new();
    let result = attempt_cycle_inner(model, f, egf, rings, s, strategy, warmup, stats, &mut shield);
    govern::unprotect_all(model, &shield);
    result
}

#[allow(clippy::too_many_arguments)]
fn attempt_cycle_inner(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    s: &State,
    strategy: CycleStrategy,
    warmup: u64,
    stats: &mut WitnessStats,
    shield: &mut Vec<Bdd>,
) -> Result<AttemptOutcome, CheckError> {
    let total_rings: u64 = rings.iter().map(|r| r.len() as u64).sum();
    let progress = |attempt: &[State]| Progress {
        iterations: attempt.len() as u64,
        rings: total_rings,
        approx: None,
    };
    let mut attempt: Vec<State> = vec![s.clone()];
    let mut current = s.clone();
    let mut anchor: Option<(usize, State)> = None;
    let mut stay: Option<Bdd> = None;
    let mut pending: Vec<usize> = (0..rings.len()).collect();

    loop {
        // Once the walk is on the cycle (anchor chosen), constraints the
        // current state itself satisfies need no extra hop.
        if anchor.is_some() {
            pending.retain(|&k| !model.eval_state(rings[k][0], &current));
        }
        let Some(pos) = nearest_constraint(model, &current, &pending, rings, total_rings)? else {
            break;
        };
        let (k, ring_index, t) = pos;
        obs::emit(model, Event::WitnessHop { constraint: k as u64, ring: ring_index as u64 });
        attempt.push(t.clone());
        if anchor.is_none() {
            anchor = Some((attempt.len() - 1, t.clone()));
            if strategy == CycleStrategy::StaySet {
                // E[(EG f) U {t}]: the states from which the cycle can
                // still be closed.
                let t_bdd = model.state_bdd(&t);
                let set = check_eu(model, egf, t_bdd)?;
                model.manager_mut().protect(set);
                shield.push(set);
                stay = Some(set);
            }
        }
        current = t;
        if let Some(exit) = stay_violation(model, stay, &current) {
            stats.stay_exits += 1;
            return Ok(AttemptOutcome::Restart { walked: attempt, from: exit });
        }
        // Descend the rings of constraint k to a state satisfying it.
        for j in (1..=ring_index).rev() {
            let step = ring_below(model, &current, &rings[k], j);
            // Poll before concluding anything from this step: after a
            // trip the BDDs above are dummies and the budget error must
            // win over a bogus "descent stuck" report. Polls never GC,
            // so the loose ring handles stay valid.
            govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
            let next = step.ok_or_else(|| {
                CheckError::WitnessConstruction(format!(
                    "ring descent stuck at ring {j} of constraint {k}"
                ))
            })?;
            attempt.push(next.clone());
            current = next;
            if let Some(exit) = stay_violation(model, stay, &current) {
                stats.stay_exits += 1;
                return Ok(AttemptOutcome::Restart { walked: attempt, from: exit });
            }
        }
        // `current` now satisfies constraint k (ring 0 = EGf ∧ h_k).
        pending.retain(|&x| x != k);
    }

    let (anchor_index, anchor_state) = anchor
        .ok_or_else(|| CheckError::WitnessConstruction("cycle attempt chose no anchor".into()))?;

    // Close the cycle: a nontrivial f-path current -> anchor.
    let anchor_bdd = model.state_bdd(&anchor_state);
    let succ = model.successors(&current);
    let close_rings = close_arc(model, f, anchor_bdd, succ, warmup)?;
    govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
    if close_rings.is_empty() {
        obs::emit(model, Event::CycleClose { closed: false, arc_len: 0 });
        return Ok(AttemptOutcome::Restart { walked: attempt, from: current });
    }
    let close_start = attempt.len();
    let close_end = walk_arc(model, succ, &close_rings, &mut attempt, progress)?;
    // The lasso edge `last -> anchor` closes the loop implicitly.
    debug_assert_eq!(close_end, anchor_state);
    obs::emit(
        model,
        Event::CycleClose { closed: true, arc_len: (attempt.len() - close_start) as u64 },
    );
    Ok(AttemptOutcome::Closed { states: attempt, anchor_index })
}

/// Finds the nearest pending fairness constraint from `current`: the
/// smallest ring index `i` (over all pending constraints) such that some
/// successor of `current` lies in `Q_i^{h_k}`. Returns the constraint,
/// the ring index and the chosen successor.
fn nearest_constraint(
    model: &mut SymbolicModel,
    current: &State,
    pending: &[usize],
    rings: &[Vec<Bdd>],
    total_rings: u64,
) -> Result<Option<(usize, usize, State)>, CheckError> {
    if pending.is_empty() {
        return Ok(None);
    }
    let succ = model.successors(current);
    let max_rings = pending.iter().map(|&k| rings[k].len()).max().unwrap_or(0);
    for i in 0..max_rings {
        for &k in pending {
            if i >= rings[k].len() {
                continue;
            }
            let cand = model.manager_mut().and(succ, rings[k][i]);
            if let Some(t) = model.pick_state(cand) {
                return Ok(Some((k, i, t)));
            }
        }
    }
    // A tripped budget makes every probe above come back empty; the
    // resource error must win over the invariant-violation report.
    govern::poll(
        model,
        Phase::WitnessEg,
        Progress { iterations: 0, rings: total_rings, approx: None },
    )?;
    Err(CheckError::WitnessConstruction(
        "no pending constraint reachable; state is outside fair EG".into(),
    ))
}

/// With the stay-set strategy active, detects leaving the stay set.
fn stay_violation(model: &SymbolicModel, stay: Option<Bdd>, current: &State) -> Option<State> {
    match stay {
        Some(set) if !model.eval_state(set, current) => Some(current.clone()),
        _ => None,
    }
}

/// Walks a closing arc down the `rings` [`close_arc`] returned: from the
/// successor of `s′` in the last ring, the first one a successor lies in,
/// one ring per step. Pushes the arc's states onto `attempt` and returns
/// the anchor, which ends it.
fn walk_arc(
    model: &mut SymbolicModel,
    succ: Bdd,
    rings: &[Bdd],
    attempt: &mut Vec<State>,
    progress: impl Fn(&[State]) -> Progress,
) -> Result<State, CheckError> {
    let last = rings.len() - 1;
    let first = model.manager_mut().and(succ, rings[last]);
    debug_assert!(last == 0 || !meets(model, succ, rings[last - 1]));
    let picked = model.pick_state(first);
    govern::poll(model, Phase::WitnessEg, progress(attempt))?;
    let mut state =
        picked.ok_or_else(|| CheckError::WitnessConstruction("closing arc lost".into()))?;
    for j in (1..=last).rev() {
        attempt.push(state.clone());
        let step = ring_below(model, &state, rings, j);
        govern::poll(model, Phase::WitnessEg, progress(attempt))?;
        state = step.ok_or_else(|| {
            CheckError::WitnessConstruction("closing arc ring descent stuck".into())
        })?;
    }
    Ok(state)
}

#[cfg(test)]
thread_local! {
    /// Every closing arc decided on this thread: did the forward search
    /// decide it, and did it close?
    static DECISIONS: std::cell::RefCell<Vec<(bool, bool)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Decides the closing arc `{s′} ∧ EX E[f U {t}]` of a fair cycle, given
/// `succ = succ(s′)`, by racing the backward rings from `t` against a
/// forward search from the successors (see the module docs). The forward
/// side joins once the backward one has spent `warmup` lookups. One
/// `check_eu` span.
///
/// Returns the rings the arc's walk descends: `{t}` first, and last the
/// first ring a successor of `s′` lies in. Empty when no `f`-path leads
/// from a successor of `s′` to `t`.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips; each
/// side counts its own steps against the iteration cap.
pub(crate) fn close_arc(
    model: &mut SymbolicModel,
    f: Bdd,
    t: Bdd,
    succ: Bdd,
    warmup: u64,
) -> Result<Vec<Bdd>, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEu, None);
    let result = race(model, f, t, succ, warmup);
    obs::span_end(model, span);
    #[cfg(test)]
    if let Ok((rings, forward)) = &result {
        DECISIONS.with(|d| d.borrow_mut().push((*forward, !rings.is_empty())));
    }
    result.map(|(rings, _)| rings)
}

/// [`close_arc`]'s race; also says whether the forward side decided.
fn race(
    model: &mut SymbolicModel,
    f: Bdd,
    t: Bdd,
    succ: Bdd,
    warmup: u64,
) -> Result<(Vec<Bdd>, bool), CheckError> {
    let lookups = |model: &SymbolicModel| model.manager().stats().cache_lookups;
    let mut back = BackwardRings::new(model, t);
    // Ring 0 first: the one-state arc.
    if model.manager_mut().intersects(t, succ) {
        return Ok((back.finish(model)?, false));
    }
    let mut fwd: Option<Layers> = None;
    let (mut back_spent, mut back_last, mut fwd_last) = (0, 0, 0);
    loop {
        let before = lookups(model);
        if back_spent >= warmup && (fwd.is_none() || fwd_last < back_last) {
            let fwd = fwd.get_or_insert_with(|| Layers::new(model, f, succ));
            let mut roots = back.rings().to_vec();
            roots.extend([back.frontier(), succ]);
            if !fwd.step(model, f, &roots)? {
                return Ok((Vec::new(), true));
            }
            let newest = fwd.layers[fwd.layers.len() - 1];
            back.observe(model, fwd.iterations(), newest, fwd.visited);
            if model.manager_mut().intersects(newest, t) {
                return Ok((fwd.band(model, t)?, true));
            }
            fwd_last = lookups(model) - before;
        } else {
            let mut roots = vec![succ];
            if let Some(fwd) = &fwd {
                roots.extend(&fwd.layers);
                roots.push(fwd.visited);
            }
            if !back.step(model, f, &roots)? {
                return Ok((Vec::new(), false));
            }
            if model.manager_mut().intersects(back.frontier(), succ) {
                return Ok((back.finish(model)?, false));
            }
            back_last = lookups(model) - before;
            back_spent += back_last;
        }
    }
}

/// The forward side of a closing-arc race: breadth-first layers through
/// `f`-states from the successors of `s′`, each holding only states no
/// earlier layer holds.
struct Layers {
    /// `F₀, F₁, …`.
    layers: Vec<Bdd>,
    /// `F₀ ∪ … ∪ Fᵢ`.
    visited: Bdd,
}

impl Layers {
    fn new(model: &mut SymbolicModel, f: Bdd, succ: Bdd) -> Layers {
        let first = model.manager_mut().and(succ, f);
        Layers { layers: vec![first], visited: first }
    }

    /// The image steps taken so far.
    fn iterations(&self) -> u64 {
        self.layers.len() as u64 - 1
    }

    /// Adds the next layer; `false`, adding nothing, at the fixpoint.
    /// The checkpoint roots the layers, the step's new sets, `f` and
    /// `roots`.
    fn step(
        &mut self,
        model: &mut SymbolicModel,
        f: Bdd,
        roots: &[Bdd],
    ) -> Result<bool, CheckError> {
        let newest = self.layers[self.layers.len() - 1];
        let img = model.image(newest);
        let step = model.manager_mut().and(f, img);
        let add = model.manager_mut().diff(step, self.visited);
        let next =
            if add.is_false() { self.visited } else { model.manager_mut().or(self.visited, add) };
        let progress = Progress {
            iterations: self.iterations() + 1,
            rings: self.layers.len() as u64,
            approx: Some(self.visited),
        };
        let mut live = self.layers.clone();
        live.extend([self.visited, f, next, add]);
        live.extend_from_slice(roots);
        govern::checkpoint(model, Phase::EuFixpoint, progress, &live)?;
        if add.is_false() {
            return Ok(false);
        }
        self.layers.push(add);
        self.visited = next;
        Ok(true)
    }

    /// The newest layer `F_k` holds `t`: the shortest-path band
    /// `[R_k, …, R₀]`, `R_k = {t}`, `Rᵢ = Fᵢ ∧ Pre(Rᵢ₊₁)`.
    fn band(&self, model: &mut SymbolicModel, t: Bdd) -> Result<Vec<Bdd>, CheckError> {
        let mut band = vec![t];
        for &layer in self.layers[..self.layers.len() - 1].iter().rev() {
            let pre = model.preimage(band[band.len() - 1]);
            band.push(model.manager_mut().and(layer, pre));
        }
        let progress =
            Progress { iterations: self.iterations(), rings: band.len() as u64, approx: None };
        govern::poll(model, Phase::EuFixpoint, progress)?;
        Ok(band)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fair::fair_eg;
    use smc_kripke::SymbolicModelBuilder;

    /// A small xorshift generator: each random case is fixed by its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    const BITS: usize = 5;

    /// The minterm of state `s` over the literals `lits`.
    fn cube(m: &mut smc_bdd::BddManager, lits: &[Bdd], s: usize) -> Bdd {
        let mut acc = Bdd::TRUE;
        for (k, &lit) in lits.iter().enumerate() {
            let lit = if s >> k & 1 == 1 { lit } else { m.not(lit) };
            acc = m.and(acc, lit);
        }
        acc
    }

    /// A random graph on `n` states, 16 ≤ n ≤ 32, one to three successors
    /// each; the encodings from `n` up only stutter. Returns the model
    /// and `n`.
    fn random_model(rng: &mut Rng) -> (SymbolicModel, usize) {
        let n = 16 + rng.below(17);
        let mut b = SymbolicModelBuilder::new();
        let ids: Vec<_> = (0..BITS).map(|i| b.bool_var(&format!("x{i}")).unwrap()).collect();
        b.init_zero();
        let cur: Vec<Bdd> = ids.iter().map(|&id| b.cur(id)).collect();
        let nxt: Vec<Bdd> = ids.iter().map(|&id| b.next(id)).collect();
        let m = b.manager_mut();
        let mut trans = Bdd::FALSE;
        for s in 0..1 << BITS {
            let targets: Vec<usize> =
                if s < n { (0..1 + rng.below(3)).map(|_| rng.below(n)).collect() } else { vec![s] };
            for t in targets {
                let from = cube(m, &cur, s);
                let to = cube(m, &nxt, t);
                let edge = m.and(from, to);
                trans = m.or(trans, edge);
            }
        }
        b.constrain_trans(trans);
        (b.build().unwrap(), n)
    }

    fn state_set(model: &mut SymbolicModel, states: &[usize]) -> Bdd {
        let bits: Vec<Bdd> = (0..BITS).map(|i| model.ap(&format!("x{i}")).unwrap()).collect();
        let m = model.manager_mut();
        let mut set = Bdd::FALSE;
        for &s in states {
            let c = cube(m, &bits, s);
            set = m.or(set, c);
        }
        set
    }

    /// The closing arc as the backward rings alone decide it: the backward
    /// rings stopped at the first one meeting `succ`, the arc's first
    /// state picked from the smallest ring, each step from the smallest
    /// ring a successor meets. `None`: restart.
    fn reference_arc(model: &mut SymbolicModel, f: Bdd, t: Bdd, succ: Bdd) -> Option<Vec<State>> {
        let full = eu_rings(model, f, t).unwrap();
        let meets = full.iter().position(|&ring| model.manager_mut().intersects(ring, succ))?;
        let rings = &full[..=meets];
        let first = model.manager_mut().and(succ, rings[meets]);
        let smallest = |model: &mut SymbolicModel, set: Bdd, below: usize| {
            (0..below).find_map(|j| {
                let cand = model.manager_mut().and(set, rings[j]);
                model.pick_state(cand).map(|st| (st, j))
            })
        };
        let (mut state, mut j) = smallest(model, first, rings.len()).unwrap();
        let mut arc = Vec::new();
        while j > 0 {
            arc.push(state.clone());
            let succ = model.successors(&state);
            (state, j) = smallest(model, succ, j).unwrap();
        }
        assert_eq!(model.pick_state(t), Some(state), "the reference arc ends at the anchor");
        Some(arc)
    }

    /// One random closing arc on a [`random_model`] with `n` states,
    /// raced with no warm-up and checked against [`reference_arc`]. With
    /// `collect`, the ladder collects at the race's checkpoints whenever
    /// it has built more than a few dozen nodes. Returns whether the
    /// forward side decided, whether the arc closed, and whether anything
    /// was collected; `None` if the case was skipped (no `f`-state, or
    /// the node limit tripped).
    fn race_case(
        model: &mut SymbolicModel,
        rng: &mut Rng,
        n: usize,
        collect: bool,
    ) -> Option<(bool, bool, bool)> {
        let members: Vec<usize> = (0..n).filter(|_| rng.below(3) > 0).collect();
        if members.is_empty() {
            return None;
        }
        let f = state_set(model, &members);
        let t = state_set(model, &[members[rng.below(members.len())]]);
        let from = state_set(model, &[rng.below(n)]);
        let from = model.pick_state(from).unwrap();
        let succ = model.successors(&from);
        let m = model.manager_mut();
        let collections = m.stats().gc_runs;
        if collect {
            m.gc(&[f, t, succ]);
            let limit = m.num_nodes() + 48;
            m.set_budget(smc_bdd::Budget::new().with_node_limit(limit));
        }
        let rings = close_arc(model, f, t, succ, 0);
        let m = model.manager_mut();
        m.clear_budget();
        let collected = m.stats().gc_runs > collections + u64::from(collect);
        // The walk and the reference pick under the same order, so a
        // sift inside the race changes nothing here.
        let Ok(rings) = rings else {
            assert!(collect, "only a node limit may trip");
            return None;
        };
        let (forward, closed) = DECISIONS.with(|d| d.borrow_mut().pop()).unwrap();
        let got = closed.then(|| {
            let mut arc = Vec::new();
            let end = walk_arc(model, succ, &rings, &mut arc, |_| Progress::default());
            assert_eq!(Some(end.unwrap()), model.pick_state(t), "the arc's end");
            arc
        });
        assert_eq!(got, reference_arc(model, f, t, succ), "forward decided: {forward}");
        Some((forward, closed, collected))
    }

    #[test]
    fn races_decide_every_close_as_the_backward_rings_do() {
        // [forward close, forward fixpoint, backward close, backward fixpoint]
        let mut outcomes = [0; 4];
        for case in 0..300u64 {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let (mut model, n) = random_model(&mut rng);
            for _ in 0..4 {
                if let Some((forward, closed, _)) = race_case(&mut model, &mut rng, n, false) {
                    outcomes[2 * usize::from(!forward) + usize::from(!closed)] += 1;
                }
            }
        }
        assert!(outcomes.iter().all(|&n| n >= 25), "too few of some outcome: {outcomes:?}");
    }

    #[test]
    fn races_that_collect_at_their_checkpoints_decide_the_same() {
        // Cases in which a collection ran inside the race, by the side
        // that decided.
        let mut collected = [0; 2];
        for case in 0..400u64 {
            let mut rng = Rng(0x2545_F491_4F6C_DD1D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (mut model, n) = random_model(&mut rng);
            for _ in 0..4 {
                if let Some((forward, _, true)) = race_case(&mut model, &mut rng, n, true) {
                    collected[usize::from(forward)] += 1;
                }
            }
        }
        assert!(collected.iter().all(|&n| n >= 25), "too few collecting races: {collected:?}");
    }

    /// The fair `EG TRUE` lasso of an exported circuit from its initial
    /// state, built with the forward search joining after `warmup`
    /// lookups: the lasso, the closing arcs' decisions and the lookups
    /// the witness took.
    fn fair_lasso(source: &str, warmup: u64) -> (Trace, Vec<(bool, bool)>, u64) {
        let mut model = smc_smv::compile(source).unwrap().model;
        let constraints = model.fairness().to_vec();
        let (egf, rings) = fair_eg(&mut model, Bdd::TRUE, &constraints).unwrap();
        let init = model.init();
        let start = model.pick_state(init).unwrap();
        DECISIONS.with(|d| d.borrow_mut().clear());
        let before = model.manager().stats().cache_lookups;
        let (trace, _) = witness_eg_fair_racing(
            &mut model,
            Bdd::TRUE,
            egf,
            &rings,
            &start,
            CycleStrategy::Restart,
            warmup,
        )
        .unwrap();
        let lookups = model.manager().stats().cache_lookups - before;
        (trace, DECISIONS.with(|d| d.take()), lookups)
    }

    #[test]
    fn racing_closes_take_under_half_the_witness_lookups_of_backward_closes_on_a_ring() {
        let source = smc_circuits::families::inverter_ring(13).to_smv();
        let (race, decided, race_lookups) = fair_lasso(&source, FORWARD_WARMUP);
        let (backward, _, backward_lookups) = fair_lasso(&source, u64::MAX);
        assert_eq!(race, backward, "the lasso");
        assert!(decided.iter().all(|&(forward, _)| forward), "{decided:?}");
        assert!(
            2 * race_lookups <= backward_lookups,
            "racing closes took {race_lookups} lookups, backward ones {backward_lookups}"
        );
    }

    #[test]
    fn the_fault_drill_lassos_close_as_documented() {
        // `crates/core/tests/governance.rs` injects faults into these
        // arcs: the forward side decides the ring's (it restarts once,
        // then closes), the backward rings the C-element ring's.
        let ring = smc_circuits::families::inverter_ring(7).to_smv();
        assert_eq!(fair_lasso(&ring, FORWARD_WARMUP).1, [(true, false), (true, true)]);
        let cring = smc_circuits::families::c_element_ring(5).to_smv();
        assert_eq!(fair_lasso(&cring, FORWARD_WARMUP).1, [(false, true)]);
    }
}
