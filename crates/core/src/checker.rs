//! The user-facing checker: `Check`/`CheckFair` dispatch (Sections 4–5)
//! and recursive witness/counterexample explanation (Section 6).

use std::collections::HashMap;

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};
use smc_logic::ctlstar::StateFormula;
use smc_logic::Ctl;

use crate::error::CheckError;
use crate::fair::{fair_eg, FairRings};
use crate::fairness_class::{check_efairness, witness_efairness, FairnessConjunct, ResolvedSide};
use crate::fixpoint::{check_ex, eu_chained, eu_rings};
use crate::govern::{self, Progress};
use crate::obs;
use crate::witness::{
    splice, witness_eg_fair, witness_eu, witness_ex, CycleStrategy, Trace, WitnessStats,
};
use crate::Phase;
use smc_obs::SpanKind;

/// The result of checking one specification.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The formula as given by the caller.
    pub formula: Ctl,
    /// The BDD of all states satisfying the formula (under the model's
    /// fairness constraints).
    pub states: Bdd,
    /// Does every initial state satisfy the formula?
    holds: bool,
}

impl Verdict {
    /// Does the specification hold (in every initial state)?
    pub fn holds(&self) -> bool {
        self.holds
    }
}

/// A verdict together with its explanatory trace: a *witness* when an
/// existentially quantified specification holds, a *counterexample* when
/// a universally quantified one fails.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// The demonstration trace, when one is meaningful.
    pub trace: Option<Trace>,
}

/// One memoized sub-formula: its state set and the approximation rings
/// its fixpoint saved — the single ring list of an `EU` node, one list
/// per fairness constraint for a fair `EG` node, none otherwise. Witness
/// construction walks these instead of running the fixpoint again. A
/// verdict-only checker's chained `EU` node saves none until a witness
/// first walks it.
#[derive(Debug, Clone)]
struct Memo {
    set: Bdd,
    rings: FairRings,
}

impl Memo {
    fn handles(&self) -> impl Iterator<Item = Bdd> + '_ {
        std::iter::once(self.set).chain(self.rings.iter().flatten().copied())
    }
}

/// Symbolic CTL model checker with fairness constraints and the witness
/// generator of Clarke–Grumberg–McMillan–Zhao.
///
/// Borrows the model mutably (all BDD work happens in the model's
/// manager). Sub-formula results are memoized per checker instance,
/// together with the rings of every `EU`/`EG` fixpoint, so each fixpoint
/// runs once per formula node. So is every fair lasso, by `EG` node and
/// start state: a trace that needs one again (a repeated spec, or two
/// finite witnesses extended from the same state by the fair `EG true`
/// lasso) reuses it. A [verdict-only](Self::verdicts_only) checker
/// computes its `EU` sets without rings where it can.
///
/// # Examples
///
/// ```
/// use smc_kripke::SymbolicModelBuilder;
/// use smc_logic::ctl;
/// use smc_checker::Checker;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SymbolicModelBuilder::new();
/// let x = b.bool_var("x")?;
/// b.init_zero();
/// b.next_fn(x, |m, cur| m.not(cur[0]));
/// let mut model = b.build()?;
/// let mut checker = Checker::new(&mut model);
/// let verdict = checker.check(&ctl::parse("AG (AF x)")?)?;
/// assert!(verdict.holds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Checker<'m> {
    model: &'m mut SymbolicModel,
    strategy: CycleStrategy,
    cache: HashMap<Ctl, Memo>,
    /// Fair lassos by the body of their `EG` node and start state, with
    /// the statistics of their construction. No BDD handles: a trace is
    /// states.
    lassos: HashMap<(Ctl, State), (Trace, WitnessStats)>,
    last_stats: Option<WitnessStats>,
    pin_depth: u32,
    /// Chain formula-level `EU` fixpoints where the model allows it.
    verdicts_only: bool,
}

impl<'m> Checker<'m> {
    /// Creates a checker over a model, using the default
    /// [`CycleStrategy::Restart`].
    pub fn new(model: &'m mut SymbolicModel) -> Checker<'m> {
        Checker {
            model,
            strategy: CycleStrategy::default(),
            cache: HashMap::new(),
            lassos: HashMap::new(),
            last_stats: None,
            pin_depth: 0,
            verdicts_only: false,
        }
    }

    /// Makes this a verdict-only checker, for callers that print no
    /// trace. On a model whose event guards reachability has already
    /// analysed ([`SymbolicModel::has_event_parts`]), each formula-level
    /// `EU` is then computed by chained backward sweeps over the events
    /// and records no rings. Elsewhere, and for the `EU`s nested in fair
    /// `EG`, nothing changes.
    ///
    /// Verdicts and state sets are the very BDDs [`new`](Self::new)
    /// computes; only the work differs. A trace may still be asked for:
    /// the first walk of a chained `EU` records its rings then, so
    /// witnesses and counterexamples equal those of [`new`](Self::new).
    pub fn verdicts_only(mut self) -> Checker<'m> {
        self.verdicts_only = true;
        self
    }

    /// Runs a public entry point with the memo pinned: every cached state
    /// set and ring is protected so the governor's degradation
    /// ladder — which may GC mid-fixpoint, keeping only roots and
    /// protected nodes — cannot invalidate a memoized handle. Entries
    /// inserted *during* the call, and rings recorded for an entry later,
    /// are protected when stored (see `memo` and `eu_rings_of`); the
    /// outermost exit releases everything, restoring
    /// the unpinned between-calls state. Re-entrant: nested public calls
    /// neither double-pin nor release early.
    fn pinned<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, CheckError>,
    ) -> Result<T, CheckError> {
        if self.pin_depth == 0 {
            for b in self.cache.values().flat_map(Memo::handles) {
                self.model.manager_mut().protect(b);
            }
        }
        self.pin_depth += 1;
        let result = body(self);
        self.pin_depth -= 1;
        if self.pin_depth == 0 {
            for b in self.cache.values().flat_map(Memo::handles) {
                self.model.manager_mut().unprotect(b);
            }
        }
        result
    }

    /// Selects the cycle-closing strategy for fair-`EG` witnesses; fair
    /// lassos built under another one are forgotten.
    pub fn with_strategy(mut self, strategy: CycleStrategy) -> Checker<'m> {
        self.strategy = strategy;
        self.lassos.clear();
        self
    }

    /// The model being checked.
    pub fn model(&mut self) -> &mut SymbolicModel {
        self.model
    }

    /// Statistics of the most recent fair-`EG` witness construction (a
    /// lasso reused from an earlier trace restores its statistics).
    pub fn last_witness_stats(&self) -> Option<WitnessStats> {
        self.last_stats
    }

    /// Reclaims BDD garbage accumulated by the checks so far: drops the
    /// sub-formula memo (whose entries pin their nodes via protection)
    /// and the fair lassos, and collects everything unreachable from the
    /// model's protected structure. Subsequent checks recompute what
    /// they need; however, any [`Verdict::states`] BDD handles from
    /// *earlier* checks become invalid unless the caller protected them
    /// first. Returns the number of reclaimed nodes.
    pub fn gc(&mut self) -> usize {
        self.cache.clear();
        self.lassos.clear();
        self.model.manager_mut().gc(&[])
    }

    /// Checks a specification: evaluates its satisfying state set and
    /// compares against the initial states.
    ///
    /// # Errors
    ///
    /// [`CheckError::UnknownAtom`] for undeclared atomic propositions.
    pub fn check(&mut self, formula: &Ctl) -> Result<Verdict, CheckError> {
        self.pinned(|c| {
            let states = c.check_states(formula)?;
            let init = c.model.init();
            let holds = c.model.manager_mut().is_subset(init, states);
            // A trip makes the subset test meaningless; the resource
            // error must win over a garbage verdict.
            govern::poll(c.model, Phase::Check, Progress::default())?;
            Ok(Verdict { formula: formula.clone(), states, holds })
        })
    }

    /// Checks a specification and, when the verdict calls for one,
    /// attaches a witness (specification holds) or a counterexample
    /// (specification fails).
    pub fn check_with_trace(&mut self, formula: &Ctl) -> Result<CheckOutcome, CheckError> {
        self.pinned(|c| {
            let verdict = c.check(formula)?;
            let trace = if verdict.holds() {
                if has_temporal(formula) {
                    Some(c.witness(formula)?)
                } else {
                    None
                }
            } else {
                Some(c.counterexample(formula)?)
            };
            Ok(CheckOutcome { verdict, trace })
        })
    }

    /// The set of states satisfying a formula under the model's fairness
    /// constraints.
    pub fn check_states(&mut self, formula: &Ctl) -> Result<Bdd, CheckError> {
        let enf = formula.to_existential_form();
        let label = obs::enabled(self.model).then(|| formula.to_string());
        let span = obs::span_start(self.model, SpanKind::Check, label.as_deref());
        let result = self.pinned(|c| c.check_enf(&enf));
        obs::span_end(self.model, span);
        result
    }

    /// Constructs a witness for a formula that holds in some initial
    /// state: a trace demonstrating *why* it holds (Section 6).
    ///
    /// # Errors
    ///
    /// [`CheckError::NothingToExplain`] if no initial state satisfies the
    /// formula.
    pub fn witness(&mut self, formula: &Ctl) -> Result<Trace, CheckError> {
        let enf = formula.to_existential_form();
        self.pinned(|c| {
            let states = c.check_enf(&enf)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, states);
            // Poll before interpreting the pick: a trip leaves
            // `start_set` a dummy and the budget error must beat
            // NothingToExplain.
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, None);
            let result = c.explain(&start, &enf).and_then(|t| c.extend_to_fair_lasso(t));
            obs::span_end(c.model, span);
            let mut trace = result?;
            trace.compress_prefix();
            obs::record_trace_metrics(c.model, &trace);
            Ok(trace)
        })
    }

    /// Constructs a counterexample for a formula that fails in some
    /// initial state: a witness for the negation.
    ///
    /// # Errors
    ///
    /// [`CheckError::NothingToExplain`] if every initial state satisfies
    /// the formula.
    pub fn counterexample(&mut self, formula: &Ctl) -> Result<Trace, CheckError> {
        let negated = Ctl::not(formula.clone()).to_existential_form();
        self.pinned(|c| {
            let states = c.check_enf(&negated)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, states);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, Some("counterexample"));
            let result = c.explain(&start, &negated).and_then(|t| c.extend_to_fair_lasso(t));
            obs::span_end(c.model, span);
            let mut trace = result?;
            trace.compress_prefix();
            obs::record_trace_metrics(c.model, &trace);
            Ok(trace)
        })
    }

    /// Checks a CTL* formula of the fairness class
    /// `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)` (Section 7).
    ///
    /// # Errors
    ///
    /// [`CheckError::OutsideFairnessClass`] if the formula is not in the
    /// class.
    pub fn check_ctlstar(&mut self, formula: &StateFormula) -> Result<(bool, Bdd), CheckError> {
        self.pinned(|c| {
            let conjuncts = c.fairness_conjuncts(formula)?;
            let (set, _) = check_efairness(c.model, &conjuncts)?;
            let init = c.model.init();
            let holds_somewhere = c.model.manager_mut().intersects(init, set);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            Ok((holds_somewhere, set))
        })
    }

    /// Constructs a witness for a fairness-class CTL* formula holding in
    /// some initial state, together with the side chosen for each
    /// disjunct.
    ///
    /// # Errors
    ///
    /// [`CheckError::OutsideFairnessClass`] for formulas outside the
    /// class, [`CheckError::NothingToExplain`] if no initial state
    /// satisfies it.
    pub fn witness_ctlstar(
        &mut self,
        formula: &StateFormula,
    ) -> Result<(Trace, Vec<ResolvedSide>), CheckError> {
        self.pinned(|c| {
            let conjuncts = c.fairness_conjuncts(formula)?;
            let (set, _) = check_efairness(c.model, &conjuncts)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, set);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, Some("ctlstar"));
            let result = witness_efairness(c.model, &conjuncts, &start, c.strategy);
            obs::span_end(c.model, span);
            let (trace, sides, stats) = result?;
            c.last_stats = Some(stats);
            obs::record_trace_metrics(c.model, &trace);
            Ok((trace, sides))
        })
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn fairness_conjuncts(
        &mut self,
        formula: &StateFormula,
    ) -> Result<Vec<FairnessConjunct>, CheckError> {
        let class = formula
            .classify_fairness()
            .ok_or_else(|| CheckError::OutsideFairnessClass(formula.to_string()))?;
        let mut out = Vec::with_capacity(class.conjuncts.len());
        for c in &class.conjuncts {
            let gf = c.gf.as_ref().map(|p| self.check_states(p)).transpose()?;
            let fg = c.fg.as_ref().map(|q| self.check_states(q)).transpose()?;
            out.push(FairnessConjunct { gf, fg });
        }
        Ok(out)
    }

    /// The `fair` state set (`CheckFair(EG true)`): the memo entry of
    /// `EG true`. `true` when the model declares no fairness constraints.
    ///
    /// # Errors
    ///
    /// [`CheckError::ResourceExhausted`] if the manager's budget trips
    /// during the fixpoint.
    pub fn fair(&mut self) -> Result<Bdd, CheckError> {
        if self.model.fairness().is_empty() {
            return Ok(Bdd::TRUE);
        }
        self.pinned(|c| c.check_enf(&Ctl::eg(Ctl::True)))
    }

    /// `Check` over existential-normal-form formulas, with memoization.
    fn check_enf(&mut self, formula: &Ctl) -> Result<Bdd, CheckError> {
        Ok(self.memo(formula)?.set)
    }

    /// The memo entry of an existential-normal-form formula, computing
    /// (and pinning) it on a miss.
    fn memo(&mut self, formula: &Ctl) -> Result<&Memo, CheckError> {
        if !self.cache.contains_key(formula) {
            let memo = self.compute(formula)?;
            // Commit the result's nodes before memoizing — a later trip's
            // transaction rollback must not invalidate a cached handle —
            // and pin them so the degradation ladder's GC keeps every
            // memo entry live. The pin is released when the outermost
            // public call exits (see `pinned`).
            govern::poll(self.model, Phase::Check, Progress::default())?;
            for b in memo.handles() {
                self.model.manager_mut().protect(b);
            }
            self.cache.insert(formula.clone(), memo);
        }
        Ok(&self.cache[formula])
    }

    fn compute(&mut self, formula: &Ctl) -> Result<Memo, CheckError> {
        let set = match formula {
            Ctl::True => Bdd::TRUE,
            Ctl::False => Bdd::FALSE,
            Ctl::Atom(name) => self.model.ap(name)?,
            Ctl::Not(f) => {
                let s = self.check_enf(f)?;
                self.model.manager_mut().not(s)
            }
            Ctl::And(f, g) => {
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                self.model.manager_mut().and(sf, sg)
            }
            Ctl::Or(f, g) => {
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                self.model.manager_mut().or(sf, sg)
            }
            Ctl::Ex(f) => {
                // CheckFairEX(f) = CheckEX(f ∧ fair).
                let sf = self.check_enf(f)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sf, fair);
                check_ex(self.model, target)
            }
            Ctl::Eu(f, g) => {
                let (sf, target) = self.eu_operands(f, g)?;
                if self.verdicts_only && self.model.has_event_parts() {
                    let set = eu_chained(self.model, sf, target)?;
                    return Ok(Memo { set, rings: Vec::new() });
                }
                let rings = eu_rings(self.model, sf, target)?;
                return Ok(Memo { set: rings[rings.len() - 1], rings: vec![rings] });
            }
            Ctl::Eg(f) => {
                let sf = self.check_enf(f)?;
                let constraints = self.model.fairness().to_vec();
                let (set, rings) = fair_eg(self.model, sf, &constraints)?;
                return Ok(Memo { set, rings });
            }
            // Non-basis operators: normalize and recurse (defensive; the
            // public entry points normalize up front).
            other => {
                let enf = other.to_existential_form();
                debug_assert_ne!(&enf, other, "normalisation must make progress");
                return self.memo(&enf).cloned();
            }
        };
        Ok(Memo { set, rings: Vec::new() })
    }

    /// The operands of `CheckEU` for `E[f U g]`:
    /// `CheckFairEU(f, g) = CheckEU(f, g ∧ fair)`.
    fn eu_operands(&mut self, f: &Ctl, g: &Ctl) -> Result<(Bdd, Bdd), CheckError> {
        let sf = self.check_enf(f)?;
        let sg = self.check_enf(g)?;
        let fair = self.fair()?;
        Ok((sf, self.model.manager_mut().and(sg, fair)))
    }

    /// The rings of the memoized `EU` node `formula = E[f U g]`. A chained
    /// entry records them now, by the breadth-first loop, and keeps them
    /// pinned like the rest of the memo.
    fn eu_rings_of(&mut self, formula: &Ctl, f: &Ctl, g: &Ctl) -> Result<Vec<Bdd>, CheckError> {
        if let Some(rings) = self.memo(formula)?.rings.first() {
            return Ok(rings.clone());
        }
        let (sf, target) = self.eu_operands(f, g)?;
        let rings = eu_rings(self.model, sf, target)?;
        for &b in &rings {
            self.model.manager_mut().protect(b);
        }
        if let Some(memo) = self.cache.get_mut(formula) {
            debug_assert_eq!(rings.last(), Some(&memo.set), "the rings end at the chained set");
            memo.rings = vec![rings.clone()];
        }
        Ok(rings)
    }

    /// Recursive trace construction: from a state satisfying `formula`
    /// (in existential normal form), produce a path demonstrating the
    /// outermost temporal operators.
    ///
    /// Conjunctions recurse into their (first) temporal conjunct;
    /// disjunctions into whichever disjunct holds; negations and atoms
    /// contribute the single current state.
    fn explain(&mut self, state: &State, formula: &Ctl) -> Result<Trace, CheckError> {
        match formula {
            Ctl::True | Ctl::False | Ctl::Atom(_) => Ok(Trace::finite(vec![state.clone()])),
            // Push negations through the boolean skeleton so the temporal
            // operators underneath (e.g. the EG inside ¬(¬r ∨ ¬EG ¬a)
            // arising from a failed AG(r → AF a)) stay explainable.
            // Negated temporal operators themselves contribute only the
            // current state: their demonstrations would be universal.
            Ctl::Not(inner) => match inner.as_ref() {
                Ctl::Not(g) => self.explain(state, g),
                Ctl::And(a, b) => {
                    let pushed =
                        Ctl::or(Ctl::not(a.as_ref().clone()), Ctl::not(b.as_ref().clone()));
                    self.explain(state, &pushed)
                }
                Ctl::Or(a, b) => {
                    let pushed =
                        Ctl::and(Ctl::not(a.as_ref().clone()), Ctl::not(b.as_ref().clone()));
                    self.explain(state, &pushed)
                }
                _ => Ok(Trace::finite(vec![state.clone()])),
            },
            Ctl::And(f, g) => match (has_temporal(f), has_temporal(g)) {
                (true, _) => self.explain(state, f),
                (false, true) => self.explain(state, g),
                (false, false) => Ok(Trace::finite(vec![state.clone()])),
            },
            Ctl::Or(f, g) => {
                let sf = self.check_enf(f)?;
                if self.model.eval_state(sf, state) {
                    self.explain(state, f)
                } else {
                    self.explain(state, g)
                }
            }
            Ctl::Ex(f) => {
                let sf = self.check_enf(f)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sf, fair);
                let next = witness_ex(self.model, target, state)?;
                let tail = self.explain(&next, f)?;
                Ok(splice(vec![state.clone(), next], tail))
            }
            Ctl::Eu(f, g) => {
                let rings = self.eu_rings_of(formula, f, g)?;
                let path = witness_eu(self.model, &rings, state)?;
                let last = path
                    .last()
                    .ok_or_else(|| CheckError::WitnessConstruction("empty EU witness path".into()))?
                    .clone();
                let tail = self.explain(&last, g)?;
                Ok(splice(path, tail))
            }
            Ctl::Eg(f) => self.fair_lasso(f, state),
            other => {
                let enf = other.to_existential_form();
                debug_assert_ne!(&enf, other, "normalisation must make progress");
                self.explain(state, &enf)
            }
        }
    }

    /// Witnesses of reachability-style formulas are finite; when the
    /// model has fairness constraints the paper extends them to infinite
    /// fair paths by appending a fair `EG true` lasso.
    fn extend_to_fair_lasso(&mut self, trace: Trace) -> Result<Trace, CheckError> {
        if trace.is_lasso() || self.model.fairness().is_empty() {
            return Ok(trace);
        }
        let last = trace
            .states
            .last()
            .ok_or_else(|| {
                CheckError::WitnessConstruction("cannot fair-extend an empty trace".into())
            })?
            .clone();
        let lasso = self.fair_lasso(&Ctl::True, &last)?;
        Ok(splice(trace.states, lasso))
    }

    /// The fair lasso of `EG body` from `state`, built by the Section 6
    /// walk over the memoized rings on the first call and reused after.
    /// Either way [`last_witness_stats`](Self::last_witness_stats) reports
    /// its construction.
    fn fair_lasso(&mut self, body: &Ctl, state: &State) -> Result<Trace, CheckError> {
        let key = (body.clone(), state.clone());
        if let Some((lasso, stats)) = self.lassos.get(&key) {
            self.last_stats = Some(*stats);
            return Ok(lasso.clone());
        }
        let f = self.check_enf(body)?;
        let Memo { set, rings } = self.memo(&Ctl::eg(body.clone()))?.clone();
        let (lasso, stats) = witness_eg_fair(self.model, f, set, &rings, state, self.strategy)?;
        self.last_stats = Some(stats);
        self.lassos.insert(key, (lasso.clone(), stats));
        Ok(lasso)
    }
}

/// Does the formula contain any temporal operator (so that a trace
/// demonstrates something beyond the current state)?
fn has_temporal(formula: &Ctl) -> bool {
    match formula {
        Ctl::True | Ctl::False | Ctl::Atom(_) => false,
        Ctl::Not(f) => has_temporal(f),
        Ctl::And(f, g) | Ctl::Or(f, g) | Ctl::Implies(f, g) | Ctl::Iff(f, g) => {
            has_temporal(f) || has_temporal(g)
        }
        Ctl::Ex(_)
        | Ctl::Ef(_)
        | Ctl::Eg(_)
        | Ctl::Eu(_, _)
        | Ctl::Ax(_)
        | Ctl::Af(_)
        | Ctl::Ag(_)
        | Ctl::Au(_, _) => true,
    }
}
