//! BDD-represented Kripke structures and the image/preimage operators.

use std::collections::HashMap;

use smc_bdd::{Bdd, BddError, BddManager, Var};

use crate::error::{KripkeError, ReachProgress};
use crate::explicit::ExplicitModel;
use crate::state::State;

/// A Kripke structure in symbolic (BDD) form.
///
/// State variables come in current/next pairs interleaved in the BDD
/// order (`v₀, v₀′, v₁, v₁′, …`), the layout that keeps transition
/// relations of sequential circuits small. The manager is told the
/// pairing, so every image and preimage switches rails inside one
/// relational product ([`BddManager::rel_next`],
/// [`BddManager::rel_prev`]) instead of renaming a set first. The
/// structure owns its [`BddManager`]; all further BDD work (the model
/// checker's fixpoints, witness extraction) goes through
/// [`manager_mut`](Self::manager_mut).
///
/// Construct models with [`SymbolicModelBuilder`](crate::SymbolicModelBuilder),
/// the `smc-smv` language frontend, or the gate-level netlists of
/// `smc-circuits`.
#[derive(Debug)]
pub struct SymbolicModel {
    manager: BddManager,
    names: Vec<String>,
    cur: Vec<Var>,
    nxt: Vec<Var>,
    /// The cube of every current and next variable: the pairs argument
    /// of a product over the whole relation.
    pairs: Bdd,
    init: Bdd,
    trans: Bdd,
    fairness: Vec<Bdd>,
    labels: Vec<(String, Bdd)>,
    label_index: HashMap<String, usize>,
    name_index: HashMap<String, usize>,
    reachable: Option<Bdd>,
    /// Conjunctive partition of `trans` with the early-quantification
    /// schedules for image/preimage; the monolithic relation is the
    /// one-part partition `[trans]`.
    partition: Partition,
    /// Disjunctive event split of `trans` for chained fixpoints.
    events: Events,
}

/// The event split of the transition relation that
/// [`reachable`](SymbolicModel::reachable) and
/// [`sweep_back`](SymbolicModel::sweep_back) chain over. Guards are
/// analysed into event-local parts at the first reachability fixpoint;
/// the backward parts are built from those at the first backward sweep.
#[derive(Debug, Default)]
enum Events {
    /// No guards: every fixpoint is breadth-first over the whole relation.
    #[default]
    None,
    /// Installed guards, not yet analysed.
    Guards(Vec<Bdd>),
    /// The guards' analysed parts.
    Parts {
        /// The forward parts, in guard order. Backward sweeps read them
        /// too.
        parts: Vec<EventPart>,
        /// What backward sweeps add, once the first one asked for it:
        /// the remainder part, or `None` if the remainder changes no bit.
        remainder: Option<Option<EventPart>>,
    },
}

/// One event `trans ∧ guard`, reduced to the bits `W` it can change.
#[derive(Debug)]
struct EventPart {
    /// `∃(next bits outside W). trans ∧ guard`: mentions no next-state
    /// bit outside `W`.
    rel: Bdd,
    /// The current and next variables of `W`. An image quantifies the
    /// current ones and renames the next ones back
    /// ([`BddManager::rel_next`]); a preimage reads the set's `W` on the
    /// next rail and quantifies it ([`BddManager::rel_prev`]).
    pairs: Bdd,
}

impl Events {
    /// Every BDD the split holds: the guards until they are analysed,
    /// then each part's relation and pairs. All of them stay protected
    /// while installed.
    fn roots(&self) -> Vec<Bdd> {
        match self {
            Events::None => Vec::new(),
            Events::Guards(guards) => guards.clone(),
            Events::Parts { parts, remainder } => parts
                .iter()
                .chain(remainder.iter().flatten())
                .flat_map(|p| [p.rel, p.pairs])
                .collect(),
        }
    }
}

/// A conjunctive transition-relation partition `N = D_I′ ∧ ⋀ parts`,
/// with the precomputed early-quantification schedules.
#[derive(Debug, Clone)]
struct Partition {
    parts: Vec<Bdd>,
    /// `img_cubes[i]`: current-state variables quantified right after
    /// conjoining `parts[i]` during image computation (they occur in no
    /// later part). The last one also holds every next-state variable,
    /// which its product renames back onto the current rail.
    img_cubes: Vec<Bdd>,
    /// `pre_cubes[i]`: next-state variables quantified right after
    /// conjoining `parts[i]` during preimage computation. The first one
    /// also holds every current-state variable: its product reads the
    /// set on the next rail.
    pre_cubes: Vec<Bdd>,
    /// The free inputs' validity `D_I` on the current rail, when
    /// [`set_input_split`](SymbolicModel::set_input_split) installed it.
    valid: Option<Bdd>,
    /// The current variables of the bits whose next variable no part
    /// mentions (the free inputs): a preimage quantifies them out of the
    /// set, with `D_I`, before the products.
    inputs: Bdd,
}

impl Partition {
    /// Every BDD the partition holds: the parts, both schedules' cubes,
    /// `D_I` and the inputs' cube. All of them stay protected while the
    /// partition is installed, so a collection cannot reclaim a cube
    /// under a handle.
    fn roots(&self) -> impl Iterator<Item = Bdd> + '_ {
        let parts = self.parts.iter().chain(&self.img_cubes).chain(&self.pre_cubes);
        parts.chain(&self.valid).chain([&self.inputs]).copied()
    }
}

impl SymbolicModel {
    /// Assembles a model from raw parts. Prefer the builder; this exists
    /// for frontends (SMV compiler, circuit netlists) that construct the
    /// BDDs themselves.
    ///
    /// `cur`/`nxt` are the per-variable current/next BDD variables, in the
    /// same order as `names`. All BDDs must live in `manager`.
    ///
    /// # Errors
    ///
    /// - [`KripkeError::NoVariables`] if `names` is empty.
    /// - [`KripkeError::EmptyInit`] if `init` is unsatisfiable.
    /// - [`KripkeError::DuplicateLabel`] if a label name repeats.
    #[allow(clippy::too_many_arguments)] // raw-parts constructor; the builder is the ergonomic path
    pub fn assemble(
        mut manager: BddManager,
        names: Vec<String>,
        cur: Vec<Var>,
        nxt: Vec<Var>,
        init: Bdd,
        trans: Bdd,
        fairness: Vec<Bdd>,
        labels: Vec<(String, Bdd)>,
    ) -> Result<SymbolicModel, KripkeError> {
        if names.is_empty() {
            return Err(KripkeError::NoVariables);
        }
        assert_eq!(names.len(), cur.len());
        assert_eq!(names.len(), nxt.len());
        if init.is_false() {
            return Err(KripkeError::EmptyInit);
        }
        let mut label_index = HashMap::new();
        for (i, (name, _)) in labels.iter().enumerate() {
            if label_index.insert(name.clone(), i).is_some() {
                return Err(KripkeError::DuplicateLabel(name.clone()));
            }
        }
        let name_index = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        manager.set_pairs(&cur, &nxt);
        let pairs = manager.cube(&[cur.as_slice(), &nxt].concat());
        // Keep the long-lived structure BDDs safe across user GCs. The
        // model starts on the one-part partition `[trans]`, whose
        // products switch every pair; like any partition it protects its
        // roots itself, so replacing it leaves these protected.
        for b in [init, trans, pairs] {
            manager.protect(b);
        }
        let partition = Partition {
            parts: vec![trans],
            img_cubes: vec![pairs],
            pre_cubes: vec![pairs],
            valid: None,
            inputs: Bdd::TRUE,
        };
        for b in partition.roots() {
            manager.protect(b);
        }
        for &b in &fairness {
            manager.protect(b);
        }
        for (_, b) in &labels {
            manager.protect(*b);
        }
        Ok(SymbolicModel {
            manager,
            names,
            cur,
            nxt,
            pairs,
            init,
            trans,
            fairness,
            labels,
            label_index,
            name_index,
            reachable: None,
            partition,
            events: Events::None,
        })
    }

    /// Installs a conjunctive partition of the transition relation
    /// (`⋀ parts` must equal [`trans`](Self::trans)) and precomputes the
    /// early-quantification schedules. [`image`](Self::image) and
    /// [`preimage`](Self::preimage) conjoin the parts one at a time: after
    /// each part, every variable that occurs in no later part is
    /// quantified immediately, keeping intermediate BDDs small. A
    /// preimage quantifies the bits whose next variable no part mentions
    /// out of the set before the first product.
    ///
    /// Pass an empty vector to revert to the monolithic relation, the
    /// one-part partition `[trans]` every model starts with. The parts
    /// and cubes of a replaced partition are released to the garbage
    /// collector.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the conjunction of the parts differs
    /// from the stored transition relation.
    pub fn set_partition(&mut self, parts: Vec<Bdd>) {
        let parts = if parts.is_empty() { vec![self.trans] } else { parts };
        self.install_partition(parts, None);
    }

    /// Installs the split `N = D_I′ ∧ R` of a model with free inputs.
    /// `valid` is the inputs' validity `D_I` on the current rail (`TRUE`
    /// when every encoding is valid) and `rest` is `R`, which must
    /// mention no input's next-state bit: the input bits are exactly the
    /// bits whose next variable `R` never mentions.
    ///
    /// An image then conjoins `D_I` after the product with `R`, and a
    /// preimage computes `∃v′. R ∧ (∃inputs. S ∧ D_I)[v := v′]`: the input
    /// bits leave the set on the current rail before the product with
    /// `R`, instead of the product being repeated once per input
    /// cofactor. [`is_partitioned`](Self::is_partitioned) holds from
    /// then on; `set_partition(vec![])` goes back to `[trans]`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `D_I′ ∧ R` differs from the stored
    /// transition relation.
    pub fn set_input_split(&mut self, valid: Bdd, rest: Bdd) {
        self.install_partition(vec![rest], Some(valid));
    }

    /// Installs `N = D_I′ ∧ ⋀ parts` (no `D_I` when `valid` is `None`)
    /// with its schedules, releasing the partition it replaces.
    fn install_partition(&mut self, parts: Vec<Bdd>, valid: Option<Bdd>) {
        for b in self.partition.roots() {
            self.manager.unprotect(b);
        }
        let m = &mut self.manager;
        debug_assert_eq!(
            {
                let cur = m.cube(&self.cur);
                let primed = m.rel_prev(valid.unwrap_or(Bdd::TRUE), Bdd::TRUE, cur);
                m.and_all(parts.iter().copied().chain([primed]))
            },
            self.trans,
            "partition must conjoin to the transition relation"
        );
        // For each part, which current/next variables appear in it.
        let supports: Vec<Vec<Var>> = parts.iter().map(|&p| m.support(p)).collect();
        let last_mention = |v: &Var| (0..parts.len()).rev().find(|&i| supports[i].contains(v));
        // A variable is quantified at the *last* part mentioning it. A
        // current variable that occurs nowhere goes at part 0; a next
        // variable that occurs nowhere is an input bit, quantified out
        // of the set before the products.
        let last = parts.len() - 1;
        let mut img_sched: Vec<Vec<Var>> = vec![Vec::new(); parts.len()];
        let mut pre_sched: Vec<Vec<Var>> = vec![Vec::new(); parts.len()];
        let mut inputs = Vec::new();
        for (&x, &x2) in self.cur.iter().zip(&self.nxt) {
            img_sched[last_mention(&x).unwrap_or(0)].push(x);
            match last_mention(&x2) {
                Some(i) => pre_sched[i].push(x2),
                None => inputs.push(x),
            }
        }
        img_sched[last].extend(&self.nxt);
        pre_sched[0].extend(&self.cur);
        let img_cubes = img_sched.iter().map(|vars| m.cube(vars)).collect();
        let pre_cubes = pre_sched.iter().map(|vars| m.cube(vars)).collect();
        let inputs = m.cube(&inputs);
        let partition = Partition { parts, img_cubes, pre_cubes, valid, inputs };
        for b in partition.roots() {
            m.protect(b);
        }
        self.partition = partition;
    }

    /// Is a partition other than the monolithic `[trans]` installed: more
    /// than one part, or the free-input split?
    pub fn is_partitioned(&self) -> bool {
        self.partition.parts.len() > 1 || self.partition.valid.is_some()
    }

    /// Installs event guards for chained reachability: each guard `g`
    /// names the event `trans ∧ g`, a disjunctive part of the relation
    /// (Burch, Clarke and Long, 1991). With guards installed,
    /// [`reachable`](Self::reachable) applies the events one after
    /// another to the growing set instead of taking breadth-first
    /// images (chaining). Once reachability has analysed them,
    /// [`sweep_back`](Self::sweep_back) chains least fixpoints backwards
    /// over the same parts. Images, preimages and every other fixpoint
    /// keep the whole relation.
    ///
    /// Contract: every transition that leaves a reachable state and
    /// changes some bit satisfies some guard. Transitions that change
    /// nothing may be left out, and guards may overlap. Backward sweeps
    /// need no contract: they also apply the remainder event
    /// `trans ∧ ¬(g₁ ∨ … ∨ gₙ)`, so their parts cover every transition
    /// from every state, unreachable ones included.
    ///
    /// The guards are analysed at the first reachability fixpoint, not
    /// here: for each, the bits `W` that `trans ∧ guard` can change, and
    /// the relation with the other next-state bits quantified away. A
    /// model that never asks for its reachable set never pays for it,
    /// and one that never sweeps backwards never builds the backward
    /// parts. The guards, and later their parts, stay protected while
    /// installed.
    /// Pass an empty vector to go back to breadth-first search; replaced
    /// or removed guards and parts are released to the garbage
    /// collector.
    pub fn set_events(&mut self, guards: Vec<Bdd>) {
        for b in std::mem::take(&mut self.events).roots() {
            self.manager.unprotect(b);
        }
        if guards.is_empty() {
            return;
        }
        for &g in &guards {
            self.manager.protect(g);
        }
        self.events = Events::Guards(guards);
    }

    /// Are event guards installed, so that reachability is chained?
    pub fn has_events(&self) -> bool {
        !matches!(self.events, Events::None)
    }

    /// Has reachability analysed the installed guards into event parts,
    /// so that [`sweep_back`](Self::sweep_back) can chain over them?
    /// False without guards and before the first reachability fixpoint.
    pub fn has_event_parts(&self) -> bool {
        matches!(self.events, Events::Parts { .. })
    }

    /// The BDD manager holding every set and relation of this model.
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Mutable access to the manager, for running BDD operations.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.manager
    }

    /// Number of boolean state variables.
    pub fn num_state_vars(&self) -> usize {
        self.names.len()
    }

    /// Names of the state variables, in declaration order.
    pub fn state_var_names(&self) -> &[String] {
        &self.names
    }

    /// The current-state BDD variable of state bit `i`.
    pub fn cur_var(&self, i: usize) -> Var {
        self.cur[i]
    }

    /// The next-state BDD variable of state bit `i`.
    pub fn nxt_var(&self, i: usize) -> Var {
        self.nxt[i]
    }

    /// All current-state variables.
    pub fn cur_vars(&self) -> &[Var] {
        &self.cur
    }

    /// All next-state variables.
    pub fn nxt_vars(&self) -> &[Var] {
        &self.nxt
    }

    /// The initial-state set `S₀`.
    pub fn init(&self) -> Bdd {
        self.init
    }

    /// The transition relation `N(v̄, v̄′)`.
    pub fn trans(&self) -> Bdd {
        self.trans
    }

    /// The fairness constraints, each a state set required to hold
    /// infinitely often along fair paths (Section 5 of the paper).
    pub fn fairness(&self) -> &[Bdd] {
        &self.fairness
    }

    /// Records model-shape gauges (state bits, fairness count, BDD size
    /// of the transition relation, reachable-state count when already
    /// computed) into a metrics registry, then the manager's counters
    /// via [`BddManager::record_metrics`]. Never triggers computation:
    /// an uncached reachable set is simply not reported.
    pub fn record_metrics(&self, metrics: &smc_obs::Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.gauge_set("smc_model_state_bits", &[], self.names.len() as f64);
        metrics.gauge_set("smc_model_fairness_constraints", &[], self.fairness.len() as f64);
        metrics.gauge_set("smc_model_trans_nodes", &[], self.manager.size(self.trans) as f64);
        if let Some(r) = self.reachable {
            metrics.gauge_set("smc_model_reachable_states", &[], self.state_count(r));
        }
        self.manager.record_metrics(metrics);
    }

    /// Adds a fairness constraint after construction.
    pub fn add_fairness(&mut self, constraint: Bdd) {
        self.manager.protect(constraint);
        self.fairness.push(constraint);
    }

    /// Registered label names followed by the state-variable atoms —
    /// everything [`ap`](Self::ap) can resolve.
    pub fn ap_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.labels.iter().map(|(n, _)| n.clone()).collect();
        for n in &self.names {
            if !self.label_index.contains_key(n) {
                names.push(n.clone());
            }
        }
        names
    }

    /// Resolves an atomic proposition to its state set. Registered labels
    /// take precedence; otherwise a state-variable name denotes the set of
    /// states where that variable is 1.
    ///
    /// # Errors
    ///
    /// [`KripkeError::UnknownAtom`] if the name is neither a label nor a
    /// state variable.
    pub fn ap(&mut self, name: &str) -> Result<Bdd, KripkeError> {
        if let Some(&i) = self.label_index.get(name) {
            return Ok(self.labels[i].1);
        }
        if let Some(&i) = self.name_index.get(name) {
            return Ok(self.manager.var(self.cur[i]));
        }
        Err(KripkeError::UnknownAtom(name.to_string()))
    }

    /// Forward image: the set of successors of `set`,
    /// `Img(S)(v̄) = (∃v̄. S(v̄) ∧ N(v̄, v̄′))[v̄′ := v̄]`.
    ///
    /// Conjoins the [partition](Self::set_partition)'s parts one at a
    /// time with early quantification of current-state variables; the
    /// last product renames the next-state variables back onto the
    /// current rail, and `D_I` is conjoined after it.
    pub fn image(&mut self, set: Bdd) -> Bdd {
        // Split-borrow so the partition is read in place (no clone on the
        // hot path) while the manager runs the products.
        let SymbolicModel { manager, partition: p, .. } = self;
        let last = p.parts.len() - 1;
        let mut acc = set;
        for (&part, &cube) in p.parts[..last].iter().zip(&p.img_cubes) {
            acc = manager.and_exists(acc, part, cube);
        }
        let img = manager.rel_next(acc, p.parts[last], p.img_cubes[last]);
        match p.valid {
            Some(valid) => manager.and(img, valid),
            None => img,
        }
    }

    /// Backward image: the set of predecessors of `set`,
    /// `Pre(S)(v̄) = ∃v̄′. N(v̄, v̄′) ∧ S(v̄′)`.
    ///
    /// This is exactly the paper's `CheckEX`. Conjoins the
    /// [partition](Self::set_partition)'s parts one at a time with early
    /// quantification of next-state variables; the first product reads
    /// `set` on the next rail.
    pub fn preimage(&mut self, set: Bdd) -> Bdd {
        self.pre_product(set, Bdd::TRUE)
    }

    /// Restricted backward image: `within ∧ Pre(set)`, computed with the
    /// transition relation minimized against `within` (Coudert–Madre
    /// [`constrain`](BddManager::constrain)) so only transitions leaving
    /// `within` participate in the product.
    ///
    /// This is the workhorse of the frontier-based `EG` fixpoint: each
    /// iteration only re-examines the (typically few) candidate states
    /// that may have lost their last successor, rather than taking the
    /// preimage of the full accumulated set.
    pub fn preimage_within(&mut self, set: Bdd, within: Bdd) -> Bdd {
        if within.is_false() || set.is_false() {
            return Bdd::FALSE;
        }
        if within.is_true() {
            return self.preimage(set);
        }
        let pre = self.pre_product(set, within);
        self.manager.and(within, pre)
    }

    /// The loop of [`preimage`](Self::preimage) and
    /// [`preimage_within`](Self::preimage_within): the input bits leave
    /// `set ∧ D_I` on the current rail, then each part in turn, each
    /// constrained by `within` unless that is `TRUE`.
    fn pre_product(&mut self, set: Bdd, within: Bdd) -> Bdd {
        let SymbolicModel { manager, partition: p, .. } = self;
        let mut acc = if p.inputs.is_true() {
            set
        } else {
            manager.and_exists(set, p.valid.unwrap_or(Bdd::TRUE), p.inputs)
        };
        // Constraining each part by `within` (current vars only) is
        // sound: the constrained parts agree with the originals on
        // `within`, no next-state variable enters any part's support, so
        // the early-quantification schedule stays valid, and the final
        // conjunction with `within` restores exactness.
        for (i, (&part, &cube)) in p.parts.iter().zip(&p.pre_cubes).enumerate() {
            let part = if within.is_true() { part } else { manager.constrain(part, within) };
            acc = if i == 0 {
                manager.rel_prev(acc, part, cube)
            } else {
                manager.and_exists(acc, part, cube)
            };
        }
        acc
    }

    /// The reachable state set (least fixpoint of `λZ. S₀ ∨ Img(Z)`),
    /// cached after the first call.
    ///
    /// Breadth-first by default. With [event guards](Self::set_events)
    /// installed, each iteration is instead one chained sweep: every
    /// event in turn adds its successors of the set grown so far
    /// (`S := S ∨ Img_e(S)`), in installed order on odd sweeps and in
    /// reverse on even ones (Roig, Cortadella and Pastor, 1995). Both
    /// reach the same least fixpoint; chaining takes fewer and cheaper
    /// steps. Iteration counts (telemetry, the budget's iteration cap)
    /// then count sweeps.
    ///
    /// # Errors
    ///
    /// [`KripkeError::Exhausted`] if the manager's budget trips during
    /// the fixpoint; the partial iteration is rolled back and nothing is
    /// cached, so the call can be retried (e.g. under a larger budget).
    pub fn reachable(&mut self) -> Result<Bdd, KripkeError> {
        if let Some(r) = self.reachable {
            return Ok(r);
        }
        let tele = self.manager.telemetry().clone();
        let span = if tele.enabled() {
            tele.span_start(smc_obs::SpanKind::Reach, None, self.manager.stats_snapshot())
        } else {
            smc_obs::SpanId::NONE
        };
        let result = self.analyse_events().and_then(|()| self.reach_fixpoint(&tele));
        if tele.enabled() {
            tele.span_end(span, self.manager.stats_snapshot());
        }
        let reach = result?;
        self.manager.protect(reach);
        self.reachable = Some(reach);
        Ok(reach)
    }

    /// Turns installed guards into event-local parts. For guard `g`, the
    /// event is `E = trans ∧ g` and `W` the bits it can change
    /// (`E ∧ (x_i ⊕ x_i′) ≠ ∅`). An event with empty `W` only stutters
    /// and is dropped; otherwise its part keeps
    /// `∃(next bits outside W). E` with the pairs of `W`.
    fn analyse_events(&mut self) -> Result<(), KripkeError> {
        let Events::Guards(guards) = &self.events else {
            return Ok(());
        };
        let guards = guards.clone();
        let flips = self.flips();
        let mut parts = Vec::with_capacity(guards.len());
        for &guard in &guards {
            let event = self.manager.and(self.trans, guard);
            parts.extend(self.localise(event, &flips));
        }
        // A safe point before protecting: once committed, a later trip
        // cannot roll the parts back under their handles. On a trip the
        // guards stay installed and a retry analyses them again.
        self.manager.check_budget().map_err(|e| self.exhausted(e, 0))?;
        self.set_events(Vec::new());
        self.events = Events::Parts { parts, remainder: None };
        for b in self.events.roots() {
            self.manager.protect(b);
        }
        Ok(())
    }

    /// `x_i ⊕ x_i′` for every state bit `i`: the transitions that change
    /// bit `i`.
    fn flips(&mut self) -> Vec<Bdd> {
        let m = &mut self.manager;
        (0..self.cur.len())
            .map(|i| {
                let (x, x2) = (m.var(self.cur[i]), m.var(self.nxt[i]));
                m.xor(x, x2)
            })
            .collect()
    }

    /// The event-local part of `event`: its relation with the next
    /// bits it cannot change quantified away, and the pairs of the bits
    /// `W` it can change; `None` when it changes none.
    fn localise(&mut self, event: Bdd, flips: &[Bdd]) -> Option<EventPart> {
        let m = &mut self.manager;
        let (changed, kept): (Vec<usize>, Vec<usize>) =
            (0..self.cur.len()).partition(|&i| m.intersects(event, flips[i]));
        if changed.is_empty() {
            return None;
        }
        let frame: Vec<Var> = kept.iter().map(|&i| self.nxt[i]).collect();
        let frame = m.cube(&frame);
        let rel = m.exists(event, frame);
        let pairs: Vec<Var> = changed.iter().flat_map(|&i| [self.cur[i], self.nxt[i]]).collect();
        Some(EventPart { rel, pairs: m.cube(&pairs) })
    }

    /// Builds the remainder part at the first backward sweep: the
    /// remainder event analysed like a guard (dropped if it changes no
    /// bit). With it, the parts cover every transition but stutters,
    /// which never add a state to a least fixpoint.
    ///
    /// The remainder is `trans` outside the parts' domains `∃W′. rel`,
    /// each `g ∧ ∃x′. trans`: that is `trans ∧ ¬(g₁ ∨ … ∨ gₙ)` plus the
    /// stutters of dropped events, which add no state. So the guards
    /// need not be kept once analysed.
    fn analyse_backward(&mut self) -> Result<(), BddError> {
        let Events::Parts { parts, remainder: None } = &self.events else {
            return Ok(());
        };
        let m = &mut self.manager;
        let mut covered = Bdd::FALSE;
        for p in parts {
            let domain = m.rel_prev(Bdd::TRUE, p.rel, p.pairs);
            covered = m.or(covered, domain);
        }
        let uncovered = m.not(covered);
        let remainder = m.and(self.trans, uncovered);
        let flips = self.flips();
        let part = self.localise(remainder, &flips);
        // Committed before it is kept, as in `analyse_events`.
        self.manager.check_budget()?;
        if let Some(p) = &part {
            self.manager.protect(p.rel);
            self.manager.protect(p.pairs);
        }
        if let Events::Parts { remainder: slot, .. } = &mut self.events {
            *slot = Some(part);
        }
        Ok(())
    }

    /// The loop of [`reachable`](Self::reachable), separated so the
    /// telemetry span closes on the trip path too. Each iteration is a
    /// breadth-first image of the frontier, or one chained sweep when
    /// events are installed; either way `frontier` is what it added.
    fn reach_fixpoint(&mut self, tele: &smc_obs::Telemetry) -> Result<Bdd, KripkeError> {
        let mut tracker =
            tele.enabled().then(|| smc_obs::IterTracker::new(self.manager.stats_snapshot()));
        let chained = self.has_event_parts();
        let mut frontier = self.init;
        let mut reach = self.init;
        let mut iters = 0u64;
        while !frontier.is_false() {
            if chained {
                let grown = self.sweep(reach, iters % 2 == 1);
                frontier = self.manager.diff(grown, reach);
                reach = grown;
            } else {
                let img = self.image(frontier);
                frontier = self.manager.diff(img, reach);
                reach = self.manager.or(reach, frontier);
            }
            iters += 1;
            self.manager
                .checkpoint(iters, &[frontier, reach])
                .map_err(|e| self.exhausted(e, iters - 1))?;
            if let Some(tr) = tracker.as_mut() {
                tele.emit(tr.event(
                    smc_obs::FixKind::Reach,
                    iters,
                    self.manager.size(frontier) as u64,
                    self.manager.size(reach) as u64,
                    self.manager.stats_snapshot(),
                ));
                // Structural heap brief, cadence-gated like the
                // checker's EU/EG loops: iteration 1 anchors the lane,
                // then every eighth keeps sample volume low.
                if iters == 1 || iters.is_multiple_of(smc_obs::HEAP_SAMPLE_CADENCE) {
                    tele.emit(self.manager.heap_sample());
                }
            }
        }
        self.manager.check_budget().map_err(|e| self.exhausted(e, iters))?;
        Ok(reach)
    }

    /// One chained sweep: applies every event part in turn to the set as
    /// it grows, in reverse order when `reversed`. An event's image
    /// quantifies and renames only the bits it changes.
    fn sweep(&mut self, mut reach: Bdd, reversed: bool) -> Bdd {
        let SymbolicModel { manager, events: Events::Parts { parts, .. }, .. } = self else {
            unreachable!("sweeps run over analysed events");
        };
        let mut step = |part: &EventPart| {
            let img = manager.rel_next(reach, part.rel, part.pairs);
            reach = manager.or(reach, img);
        };
        if reversed {
            parts.iter().rev().for_each(&mut step);
        } else {
            parts.iter().for_each(&mut step);
        }
        reach
    }

    /// One chained backward sweep of the least fixpoint
    /// `μZ. g ∨ (f ∧ EX Z)`: every event part in turn adds its
    /// `f`-predecessors of the set grown so far
    /// (`Z := Z ∨ (f ∧ Pre_e(Z))`), in reverse order when `reversed`. An
    /// event's preimage renames and quantifies only the bits it changes.
    /// Repeated from `Z = g` until a sweep adds nothing, it reaches the
    /// same fixpoint as breadth-first preimages, in fewer and cheaper
    /// steps.
    ///
    /// The sweep reads the forward parts; the first call builds the
    /// [remainder event](Self::set_events)'s part, which it adds.
    ///
    /// # Errors
    ///
    /// A budget trip while the remainder part is built; nothing is kept,
    /// so a retry builds it again.
    ///
    /// # Panics
    ///
    /// Panics unless [`has_event_parts`](Self::has_event_parts).
    pub fn sweep_back(&mut self, f: Bdd, mut z: Bdd, reversed: bool) -> Result<Bdd, BddError> {
        self.analyse_backward()?;
        let SymbolicModel {
            manager, events: Events::Parts { parts, remainder: Some(rest) }, ..
        } = self
        else {
            panic!("backward sweeps run over analysed events");
        };
        let mut step = |part: &EventPart| {
            let pre = manager.rel_prev(z, part.rel, part.pairs);
            let add = manager.and(f, pre);
            z = manager.or(z, add);
        };
        let back = parts.iter().chain(rest.iter());
        if reversed {
            back.rev().for_each(&mut step);
        } else {
            back.for_each(&mut step);
        }
        Ok(z)
    }

    /// The error for a budget trip in the reachability layer, carrying
    /// the `iterations` completed and the manager's node counts.
    fn exhausted(&self, e: BddError, iterations: u64) -> KripkeError {
        let BddError::ResourceExhausted(reason) = e else {
            return KripkeError::Bdd(e);
        };
        let stats = self.manager.stats();
        let progress = ReachProgress {
            iterations,
            live_nodes: stats.live_nodes,
            peak_nodes: stats.peak_nodes,
            created_nodes: stats.created_nodes,
        };
        KripkeError::Exhausted { reason, progress }
    }

    /// Drops the cached reachable set (releasing its protection) so the
    /// next reachability query recomputes it — under the manager's
    /// current budget, if one is installed. Model loaders compute
    /// reachability eagerly (totality checking); callers installing a
    /// budget afterwards use this so the governed run actually governs
    /// the fixpoint.
    pub fn forget_reachable(&mut self) {
        if let Some(r) = self.reachable.take() {
            self.manager.unprotect(r);
        }
    }

    /// Number of reachable states (exact below 2^53).
    ///
    /// # Errors
    ///
    /// As [`reachable`](Self::reachable).
    pub fn reachable_count(&mut self) -> Result<f64, KripkeError> {
        let r = self.reachable()?;
        Ok(self.state_count(r))
    }

    /// Number of states in a current-variable state set.
    pub fn state_count(&self, set: Bdd) -> f64 {
        // Count over the current variables only: quantify nothing, just
        // normalize to num_state_vars worth of variables. Because the set
        // may only mention current vars, counting over all manager vars
        // and dividing by 2^{#other vars} is exact.
        let total_vars = self.manager.num_vars();
        let count_all = self.manager.sat_count(set, total_vars);
        count_all / 2f64.powi((total_vars - self.names.len()) as i32)
    }

    /// Picks one concrete state out of a state set, or `None` if empty.
    pub fn pick_state(&self, set: Bdd) -> Option<State> {
        self.manager.one_sat_total(set, &self.cur).map(State::from)
    }

    /// The singleton BDD for a concrete state.
    ///
    /// # Panics
    ///
    /// Panics if the state width differs from the model's.
    pub fn state_bdd(&mut self, state: &State) -> Bdd {
        assert_eq!(state.len(), self.names.len(), "state width mismatch");
        let mut acc = Bdd::TRUE;
        for i in (0..state.len()).rev() {
            let lit = self.manager.literal(self.cur[i], state.bit(i));
            acc = self.manager.and(acc, lit);
        }
        acc
    }

    /// The successor set of one concrete state.
    pub fn successors(&mut self, state: &State) -> Bdd {
        let s = self.state_bdd(state);
        self.image(s)
    }

    /// Renders a state with the model's variable names.
    pub fn render_state(&self, state: &State) -> String {
        state.render(&self.names)
    }

    /// Evaluates a current-variable state set at one concrete state.
    ///
    /// # Panics
    ///
    /// Panics if the state width differs from the model's or if `set`
    /// depends on next-state variables.
    pub fn eval_state(&self, set: Bdd, state: &State) -> bool {
        assert_eq!(state.len(), self.names.len(), "state width mismatch");
        let mut dense = vec![false; self.manager.num_vars()];
        for (i, &bit) in state.0.iter().enumerate() {
            dense[self.cur[i].index()] = bit;
        }
        self.manager.eval(set, &dense)
    }

    /// Checks that every reachable state has at least one successor (CTL
    /// paths are infinite, so the relation must be total on the reachable
    /// part).
    ///
    /// # Errors
    ///
    /// [`KripkeError::Deadlock`] naming one deadlocked state.
    pub fn check_total(&mut self) -> Result<(), KripkeError> {
        let dead = self.deadlocked()?;
        match self.pick_state(dead) {
            None => Ok(()),
            Some(s) => Err(KripkeError::Deadlock(self.render_state(&s))),
        }
    }

    /// The set of *reachable* states with no outgoing transition — the
    /// witness set behind [`check_total`](Self::check_total), exposed so
    /// analyses can report every stuck state rather than fail on the
    /// first. `⊥` iff the reachable part of the relation is total.
    ///
    /// # Errors
    ///
    /// [`KripkeError::Exhausted`] if the resource budget trips during
    /// the reachability fixpoint or the successor check.
    pub fn deadlocked(&mut self) -> Result<Bdd, KripkeError> {
        let reach = self.reachable()?;
        let has_succ = self.manager.rel_prev(Bdd::TRUE, self.trans, self.pairs);
        let dead = self.manager.diff(reach, has_succ);
        self.manager.check_budget().map_err(|e| self.exhausted(e, 0))?;
        Ok(dead)
    }

    /// Enumerates every concrete state in a state set.
    ///
    /// # Errors
    ///
    /// [`KripkeError::TooManyStates`] if more than `bound` states would be
    /// produced.
    pub fn states_in(&self, set: Bdd, bound: usize) -> Result<Vec<State>, KripkeError> {
        let mut out = Vec::new();
        let n = self.names.len();
        for cube in self.manager.cubes(set) {
            // Positions of current vars fixed by the cube.
            let mut fixed: Vec<Option<bool>> = vec![None; n];
            for (v, val) in &cube {
                if let Some(pos) = self.cur.iter().position(|c| c == v) {
                    fixed[pos] = Some(*val);
                }
            }
            let free: Vec<usize> = (0..n).filter(|&i| fixed[i].is_none()).collect();
            let combos = 1usize
                .checked_shl(free.len() as u32)
                .ok_or(KripkeError::TooManyStates { bound })?;
            for bits in 0..combos {
                let mut s = vec![false; n];
                for i in 0..n {
                    if let Some(v) = fixed[i] {
                        s[i] = v;
                    }
                }
                for (k, &i) in free.iter().enumerate() {
                    s[i] = bits >> k & 1 == 1;
                }
                out.push(State(s));
                if out.len() > bound {
                    return Err(KripkeError::TooManyStates { bound });
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Converts the reachable fragment to an explicit Kripke structure,
    /// for the baseline checker and cross-validation. Labels every state
    /// with the atoms of [`ap_names`](Self::ap_names) that hold in it.
    ///
    /// Returns the explicit model plus the concrete state of each explicit
    /// index.
    ///
    /// # Errors
    ///
    /// [`KripkeError::TooManyStates`] if the reachable set exceeds
    /// `bound`.
    pub fn enumerate(&mut self, bound: usize) -> Result<(ExplicitModel, Vec<State>), KripkeError> {
        let reach = self.reachable()?;
        let states = self.states_in(reach, bound)?;
        let index: HashMap<&State, usize> =
            states.iter().enumerate().map(|(i, s)| (s, i)).collect();
        let mut explicit = ExplicitModel::new();
        let ap_names = self.ap_names();
        let ap_sets: Vec<Bdd> = ap_names.iter().map(|n| self.ap(n)).collect::<Result<_, _>>()?;
        let ap_ids: Vec<usize> = ap_names.iter().map(|n| explicit.add_ap(n)).collect();
        for s in &states {
            let labels: Vec<usize> = ap_sets
                .iter()
                .zip(&ap_ids)
                .filter(|(set, _)| self.eval_state(**set, s))
                .map(|(_, id)| *id)
                .collect();
            explicit.add_state(&labels);
        }
        for (i, s) in states.iter().enumerate() {
            let succ_set = self.successors(s);
            let succ_in_reach = self.manager.and(succ_set, reach);
            for t in self.states_in(succ_in_reach, bound)? {
                let j = index[&t];
                explicit.add_edge(i, j);
            }
        }
        let init = self.init;
        let reach_init = self.manager.and(init, reach);
        for s in self.states_in(reach_init, bound)? {
            explicit.add_initial(index[&s]);
        }
        // Fairness constraints carry over as labels named __fair_k.
        for (k, &fc) in self.fairness.clone().iter().enumerate() {
            let ap = explicit.add_ap(&format!("__fair_{k}"));
            for (i, s) in states.iter().enumerate() {
                if self.eval_state(fc, s) {
                    explicit.add_label(i, ap);
                }
            }
        }
        Ok((explicit, states))
    }
}
