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
//! 3. Close the cycle with a witness for `{s′} ∧ EX E[f U {t}]`. Its `EU`
//!    stops at the first ring a successor of `s′` lies in: the arc
//!    starts there and only descends, so it never reads a later ring. If
//!    no such path exists (the `EU` runs to its fixpoint without meeting
//!    a successor), **restart** from `s′` — each restart descends the DAG
//!    of strongly connected components (Figure 2), so the procedure
//!    terminates, typically after very few restarts.
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
use crate::fixpoint::{check_eu, eu_rings};
use crate::govern::{self, Progress};
use crate::obs;
use crate::witness::strategy::CycleStrategy;
use crate::witness::trace::Trace;
use crate::Phase;
use smc_obs::Event;

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
    if !model.eval_state(egf, start) {
        return Err(CheckError::NothingToExplain);
    }
    // A plain EG behaves like the single vacuous constraint `true`: the
    // witness still needs a cycle, just not any particular visit, and
    // the rings of that constraint lead back into `EG f` itself.
    let plain;
    let rings = if rings.is_empty() {
        plain = [eu_rings(model, f, egf, Bdd::FALSE)?];
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
    let result = witness_eg_fair_inner(model, f, egf, rings, start, strategy);
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
) -> Result<(Trace, WitnessStats), CheckError> {
    let mut stats = WitnessStats::default();
    let mut prefix: Vec<State> = Vec::new();
    let mut s = start.clone();

    loop {
        let stay_exits_before = stats.stay_exits;
        match attempt_cycle(model, f, egf, rings, &s, strategy, &mut stats)? {
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
fn attempt_cycle(
    model: &mut SymbolicModel,
    f: Bdd,
    egf: Bdd,
    rings: &[Vec<Bdd>],
    s: &State,
    strategy: CycleStrategy,
    stats: &mut WitnessStats,
) -> Result<AttemptOutcome, CheckError> {
    // The stay set, once computed, must survive the closing arc's
    // governed EU fixpoint — it rides in a shield for the rest of the
    // attempt, released here on every exit path.
    let mut shield: Vec<Bdd> = Vec::new();
    let result = attempt_cycle_inner(model, f, egf, rings, s, strategy, stats, &mut shield);
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
        let mut j = ring_index;
        while j > 0 && !model.eval_state(rings[k][0], &current) {
            let succ = model.successors(&current);
            // Greedy: jump to the smallest ring any successor touches.
            let step = (0..j).find_map(|jj| {
                let cand = model.manager_mut().and(succ, rings[k][jj]);
                model.pick_state(cand).map(|st| (jj, st))
            });
            // Poll before concluding anything from this step: after a
            // trip the BDDs above are dummies and the budget error must
            // win over a bogus "descent stuck" report. Polls never GC,
            // so the loose ring handles stay valid.
            govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
            let (jj, next) = step.ok_or_else(|| {
                CheckError::WitnessConstruction(format!(
                    "ring descent stuck at ring {j} of constraint {k}"
                ))
            })?;
            attempt.push(next.clone());
            current = next;
            j = jj;
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

    // Close the cycle: a nontrivial f-path current -> anchor. The arc
    // starts at the successor in the smallest ring, so the rings past the
    // first one a successor lies in are never read: the EU stops there.
    let anchor_bdd = model.state_bdd(&anchor_state);
    let succ = model.successors(&current);
    let close_rings = eu_rings(model, f, anchor_bdd, succ)?;
    govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
    let reach_anchor = *close_rings
        .last()
        .ok_or_else(|| CheckError::WitnessConstruction("closing EU produced no rings".into()))?;
    let first_step = model.manager_mut().and(succ, reach_anchor);
    if first_step.is_false() {
        obs::emit(model, Event::CycleClose { closed: false, arc_len: 0 });
        return Ok(AttemptOutcome::Restart { walked: attempt, from: current });
    }
    // Walk the closing arc, stopping just before re-entering the anchor.
    let close_start = attempt.len();
    let picked = pick_min_ring_state(model, first_step, &close_rings);
    govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
    let mut close_current =
        picked.ok_or_else(|| CheckError::WitnessConstruction("closing arc lost".into()))?;
    while close_current.1 > 0 {
        attempt.push(close_current.0.clone());
        let succ = model.successors(&close_current.0);
        let j = close_current.1;
        let step = (0..j).find_map(|jj| {
            let cand = model.manager_mut().and(succ, close_rings[jj]);
            model.pick_state(cand).map(|st| (st, jj))
        });
        govern::poll(model, Phase::WitnessEg, progress(&attempt))?;
        close_current = step.ok_or_else(|| {
            CheckError::WitnessConstruction("closing arc ring descent stuck".into())
        })?;
    }
    // close_current.1 == 0 means the next state is the anchor itself; the
    // lasso edge `last -> anchor` closes the loop implicitly.
    debug_assert_eq!(close_current.0, anchor_state);
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

/// Picks the state of `set` lying in the smallest ring, together with
/// that ring index.
fn pick_min_ring_state(
    model: &mut SymbolicModel,
    set: Bdd,
    rings: &[Bdd],
) -> Option<(State, usize)> {
    for (j, &ring) in rings.iter().enumerate() {
        let cand = model.manager_mut().and(set, ring);
        if let Some(st) = model.pick_state(cand) {
            return Some((st, j));
        }
    }
    None
}
