//! Compiling SMV programs to symbolic Kripke structures.

use std::collections::{HashMap, HashSet};

use smc_bdd::{Bdd, BddManager, Budget, Var};
use smc_kripke::{State, SymbolicModel};
use smc_logic::{Ctl, MAX_SYNTAX_DEPTH};
use smc_obs::{SpanId, SpanKind, StatsSnapshot, Telemetry};

use crate::ast::{Assign, AssignKind, Expr, Module, Section, Span, Spec};
use crate::error::SmvError;
use crate::flatten::flatten;
use crate::value::{ArithOp, Value};

/// A compiled specification: the original AST and the [`Ctl`] formula
/// whose atoms are labels registered in the model.
#[derive(Debug, Clone)]
pub struct CompiledSpec {
    /// The source text's AST.
    pub source: Spec,
    /// The checkable formula.
    pub formula: Ctl,
    /// Source span of the `SPEC` section.
    pub span: Span,
}

/// Tuning knobs for [`compile_with_options`]. The defaults reproduce
/// [`compile_with`]; the analysis layer relaxes them so that it can
/// diagnose models the strict loader would reject outright.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Skip the load-time totality check, so deadlocked models compile
    /// and the analyzer can report the stuck state as a diagnostic.
    pub allow_deadlock: bool,
    /// Record the guard of every top-level `case` branch on an `ASSIGN`
    /// right-hand side (see [`AssignBranch`]), for symbolic dead-code
    /// analysis. Off by default: the guards are protected BDDs that stay
    /// live for the model's lifetime.
    pub record_branches: bool,
}

/// One top-level `case` branch of an `ASSIGN` right-hand side, with the
/// guard under which the branch — and no earlier branch — applies.
/// Recorded only under [`CompileOptions::record_branches`]; the guard is
/// protected in the model's manager so GC cannot reclaim it.
#[derive(Debug, Clone)]
pub struct AssignBranch {
    /// The assigned (flattened) variable name.
    pub var: String,
    /// Whether the branch belongs to an `init(…)` or `next(…)` assign.
    pub kind: AssignKind,
    /// 0-based index of the branch within its `case`.
    pub index: usize,
    /// Source span of the branch (`condition : value;`).
    pub span: Span,
    /// `condition ∧ ¬(earlier conditions)`, over current-state
    /// variables.
    pub taken: Bdd,
    /// The guard is a literal `TRUE` — a defensive catch-all default,
    /// which dead-branch analysis leaves alone (being unreached is its
    /// job in a correct model).
    pub default: bool,
}

/// Per-variable layout and domain information.
#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    domain: Vec<Value>,
    /// Index of the first state bit in declaration order.
    first_bit: usize,
    nbits: usize,
}

/// The result of compiling a program: the symbolic model plus the
/// compiled `SPEC`s and the value decoding tables.
#[derive(Debug)]
pub struct CompiledModel {
    /// The symbolic Kripke structure (fairness constraints included).
    pub model: SymbolicModel,
    /// The compiled specifications, in source order.
    pub specs: Vec<CompiledSpec>,
    /// Source spans of the `FAIRNESS` sections, index-aligned with
    /// [`SymbolicModel::fairness`](smc_kripke::SymbolicModel::fairness).
    pub fairness_spans: Vec<Span>,
    /// Top-level `ASSIGN` case-branch guards; empty unless compiled
    /// under [`CompileOptions::record_branches`].
    pub branches: Vec<AssignBranch>,
    vars: Vec<VarInfo>,
}

impl CompiledModel {
    /// Decodes one variable's value in a concrete state.
    pub fn value_of(&self, state: &State, var: &str) -> Option<Value> {
        let info = self.vars.iter().find(|v| v.name == var)?;
        let mut index = 0usize;
        for b in 0..info.nbits {
            if state.bit(info.first_bit + b) {
                index |= 1 << b;
            }
        }
        info.domain.get(index).cloned()
    }

    /// Renders a state as `name=value` pairs with decoded enum/range
    /// values (unlike the bit-level rendering of the raw model).
    pub fn render_state(&self, state: &State) -> String {
        self.vars
            .iter()
            .map(|v| {
                let value = self
                    .value_of(state, &v.name)
                    .map_or_else(|| "?".to_string(), |v| v.to_string());
                format!("{}={}", v.name, value)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The declared variable names, in order.
    pub fn var_names(&self) -> Vec<&str> {
        self.vars.iter().map(|v| v.name.as_str()).collect()
    }
}

/// Parses and compiles an SMV program.
///
/// # Errors
///
/// [`SmvError::Parse`] for syntax errors, [`SmvError::Semantic`] for
/// unknown identifiers / type errors / non-exhaustive `case`s / values
/// outside a variable's domain, [`SmvError::Kripke`] if the resulting
/// model is degenerate (empty initial set, deadlock).
pub fn compile(source: &str) -> Result<CompiledModel, SmvError> {
    compile_with(source, None, Telemetry::disabled())
}

/// The fully-instrumented entry point: as [`compile`], with an optional
/// budget and a telemetry handle installed on the model's BDD manager
/// before any compilation work.
///
/// The budget is in place *before* the compile-time totality check, so
/// even the load-time reachability fixpoint runs governed. A budget
/// trip surfaces as [`SmvError::Kripke`] wrapping
/// [`BddError::ResourceExhausted`](smc_bdd::BddError::ResourceExhausted);
/// the budget stays installed for subsequent checking on the model.
/// The whole parse + compile + totality check runs under a `compile`
/// span, and every later phase (reachability, fixpoints, witnesses)
/// reaches the same handle through the manager.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with(
    source: &str,
    budget: Option<Budget>,
    tele: Telemetry,
) -> Result<CompiledModel, SmvError> {
    compile_with_options(source, budget, tele, CompileOptions::default())
}

/// As [`compile_with`], with explicit [`CompileOptions`]. This is the
/// analysis layer's entry point: it compiles deadlocked models without
/// rejecting them and records `case`-branch guards for symbolic
/// dead-code detection.
///
/// # Errors
///
/// As [`compile`], minus the deadlock rejection when
/// [`CompileOptions::allow_deadlock`] is set.
pub fn compile_with_options(
    source: &str,
    budget: Option<Budget>,
    tele: Telemetry,
    opts: CompileOptions,
) -> Result<CompiledModel, SmvError> {
    let span = if tele.enabled() {
        // No manager exists yet; the span opens on an empty snapshot so
        // its delta covers every node the compile creates.
        tele.span_start(SpanKind::Compile, None, StatsSnapshot::default())
    } else {
        SpanId::NONE
    };
    let result = (|| {
        let program = crate::parser::parse(source)?;
        let flat = flatten(&program)?;
        compile_module_full(&flat, budget, tele.clone(), opts)
    })();
    if tele.enabled() {
        let at = match &result {
            Ok(compiled) => compiled.model.manager().stats_snapshot(),
            Err(_) => StatsSnapshot::default(),
        };
        tele.span_end(span, at);
    }
    result
}

/// Compiles a single flattened (instance-free) module with explicit
/// [`CompileOptions`], budget and telemetry; see [`compile_with_options`].
///
/// # Errors
///
/// As [`compile_with_options`], minus parse errors; an unflattened
/// instance is a [`SmvError::Semantic`].
pub fn compile_module_with_options(
    program: &Module,
    budget: Option<Budget>,
    tele: Telemetry,
    opts: CompileOptions,
) -> Result<CompiledModel, SmvError> {
    compile_module_full(program, budget, tele, opts)
}

fn compile_module_full(
    program: &Module,
    budget: Option<Budget>,
    tele: Telemetry,
    opts: CompileOptions,
) -> Result<CompiledModel, SmvError> {
    // ---- Collect declarations. ----
    let mut vars: Vec<VarInfo> = Vec::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    let mut defines: HashMap<String, Expr> = HashMap::new();
    let mut enum_symbols: HashMap<String, ()> = HashMap::new();
    let mut bit_count = 0usize;
    for section in &program.sections {
        match section {
            Section::Var(decls) => {
                for d in decls {
                    if var_index.contains_key(&d.name) {
                        return Err(SmvError::semantic(format!(
                            "variable {:?} declared twice",
                            d.name
                        ))
                        .with_span(d.span));
                    }
                    let domain: Vec<Value> = match &d.ty {
                        crate::ast::VarType::Boolean => {
                            vec![Value::Bool(false), Value::Bool(true)]
                        }
                        crate::ast::VarType::Enum(symbols) => {
                            for s in symbols {
                                enum_symbols.insert(s.clone(), ());
                            }
                            symbols.iter().map(|s| Value::Sym(s.clone())).collect()
                        }
                        crate::ast::VarType::Range(lo, hi) => {
                            let width = i128::from(*hi) - i128::from(*lo) + 1;
                            if width > MAX_RANGE_VALUES {
                                return Err(SmvError::semantic(format!(
                                    "range {lo}..{hi} of variable {:?} has {width} values; \
                                     the limit is {MAX_RANGE_VALUES}",
                                    d.name
                                ))
                                .with_span(d.span));
                            }
                            (*lo..=*hi).map(Value::Int).collect()
                        }
                        crate::ast::VarType::Instance(m, _) => {
                            return Err(SmvError::semantic(format!(
                                "unflattened instance of module {m:?} (flatten the program first)"
                            )));
                        }
                    };
                    let nbits = bits_for(domain.len());
                    var_index.insert(d.name.clone(), vars.len());
                    vars.push(VarInfo {
                        name: d.name.clone(),
                        domain,
                        first_bit: bit_count,
                        nbits,
                    });
                    bit_count += nbits;
                }
            }
            Section::Define(ds) => {
                for (name, expr) in ds {
                    if defines.insert(name.clone(), expr.clone()).is_some() {
                        return Err(SmvError::semantic(format!("macro {name:?} defined twice")));
                    }
                }
            }
            _ => {}
        }
    }
    if vars.is_empty() {
        return Err(SmvError::semantic("program declares no variables"));
    }
    for name in var_index.keys() {
        if defines.contains_key(name) {
            return Err(SmvError::semantic(format!("{name:?} is both a variable and a macro")));
        }
    }

    let inputs = free_inputs(program, &var_index, &defines);

    // ---- Allocate interleaved BDD variables. ----
    let mut manager = BddManager::new();
    manager.set_telemetry(tele);
    let mut names: Vec<String> = Vec::with_capacity(bit_count);
    let mut cur: Vec<Var> = Vec::with_capacity(bit_count);
    let mut nxt: Vec<Var> = Vec::with_capacity(bit_count);
    for info in &vars {
        for b in 0..info.nbits {
            let bit_name =
                if info.nbits == 1 { info.name.clone() } else { format!("{}.{}", info.name, b) };
            cur.push(
                manager.new_var(&bit_name).map_err(|e| {
                    SmvError::semantic(format!("bdd variable allocation failed: {e}"))
                })?,
            );
            nxt.push(
                manager.new_var(&format!("{bit_name}'")).map_err(|e| {
                    SmvError::semantic(format!("bdd variable allocation failed: {e}"))
                })?,
            );
            names.push(bit_name);
        }
    }

    let mut ctx = Ctx {
        manager,
        vars: &vars,
        var_index: &var_index,
        defines: &defines,
        expanding: Vec::new(),
        macros: HashMap::new(),
        deepest: 0,
        cur,
        nxt,
        valid: Bdd::TRUE,
    };

    // ---- Domain-validity constraints. ----
    // The free inputs' next-state validity is kept apart as `D_I`, the
    // first part of the transition relation (see below).
    let mut valid_cur = Bdd::TRUE;
    let mut valid_nxt = Bdd::TRUE;
    let mut inputs_nxt = Bdd::TRUE;
    for (i, &input) in inputs.iter().enumerate() {
        let vc = ctx.valid_encoding(i, Rail::Cur);
        let vn = ctx.valid_encoding(i, Rail::Nxt);
        valid_cur = ctx.manager.and(valid_cur, vc);
        if input {
            inputs_nxt = ctx.manager.and(inputs_nxt, vn);
        } else {
            valid_nxt = ctx.manager.and(valid_nxt, vn);
        }
    }
    let all_nxt = ctx.manager.and(valid_nxt, inputs_nxt);
    ctx.valid = ctx.manager.and(valid_cur, all_nxt);

    // ---- Sections. ----
    let mut init = valid_cur;
    let mut trans = valid_nxt;
    let mut fairness: Vec<Bdd> = Vec::new();
    let mut fairness_spans: Vec<Span> = Vec::new();
    let mut spec_asts: Vec<(Spec, Span)> = Vec::new();
    let mut branches: Vec<AssignBranch> = Vec::new();
    let mut assigned_init: HashMap<String, ()> = HashMap::new();
    let mut assigned_next: HashMap<String, ()> = HashMap::new();
    for section in &program.sections {
        match section {
            Section::Var(_) | Section::Define(_) => {}
            Section::Assign(assigns) => {
                for a in assigns {
                    let recorder = opts.record_branches.then_some(&mut branches);
                    let part = compile_assign(
                        &mut ctx,
                        a,
                        &mut assigned_init,
                        &mut assigned_next,
                        recorder,
                    )
                    .map_err(|e| e.with_span(a.span))?;
                    match a.kind {
                        AssignKind::Init => init = ctx.manager.and(init, part),
                        AssignKind::Next => trans = ctx.manager.and(trans, part),
                    }
                }
            }
            Section::Init(e, span) => {
                let b = ctx.eval_bool(e, false).map_err(|err| err.with_span(*span))?;
                init = ctx.manager.and(init, b);
            }
            Section::Trans(e, span) => {
                let b = ctx.eval_bool(e, true).map_err(|err| err.with_span(*span))?;
                trans = ctx.manager.and(trans, b);
            }
            Section::Fairness(e, span) => {
                fairness.push(ctx.eval_bool(e, false).map_err(|err| err.with_span(*span))?);
                fairness_spans.push(*span);
            }
            Section::Spec(s, span) => spec_asts.push((s.clone(), *span)),
        }
    }

    // ---- Compile SPEC leaves to labels. ----
    let mut labels: Vec<(String, Bdd)> = Vec::new();
    let mut compiled_specs: Vec<CompiledSpec> = Vec::new();
    for (i, (spec, spec_span)) in spec_asts.iter().enumerate() {
        let mut leaf_count = 0usize;
        let formula = spec
            .to_ctl(&mut |expr: &Expr| -> Result<Ctl, SmvError> {
                // Trivial leaves keep their own identity.
                match expr {
                    Expr::Bool(true) => return Ok(Ctl::True),
                    Expr::Bool(false) => return Ok(Ctl::False),
                    _ => {}
                }
                let set = ctx.eval_bool(expr, false)?;
                let name = format!("__spec{i}_{leaf_count}");
                leaf_count += 1;
                labels.push((name.clone(), set));
                Ok(Ctl::Atom(name))
            })
            .map_err(|e| e.with_span(*spec_span))?;
        compiled_specs.push(CompiledSpec { source: spec.clone(), formula, span: *spec_span });
    }

    let guards = event_guards(&mut ctx, &inputs, bit_count);
    // Register per-variable boolean atoms so boolean vars are usable in
    // externally parsed CTL directly (single-bit vars already carry
    // their own name as a state bit).
    let Ctx { mut manager, cur, nxt, .. } = ctx;
    // With free inputs, `trans` so far is `R`, everything but the
    // inputs' next-state validity `D_I`. Installing the exact split
    // `N = D_I ∧ R` lets a preimage quantify the input bits against
    // `D_I` alone before the product with `R`.
    let mut parts = Vec::new();
    if inputs.contains(&true) {
        parts = vec![inputs_nxt, trans];
        trans = manager.and(inputs_nxt, trans);
    }
    let mut model =
        SymbolicModel::assemble(manager, names, cur, nxt, init, trans, fairness, labels)?;
    model.set_partition(parts);
    model.set_events(guards);
    let mut compiled =
        CompiledModel { model, specs: compiled_specs, fairness_spans, branches, vars };
    // The totality check runs the reachability fixpoint — by far the
    // heaviest part of loading a big model — so a caller-supplied budget
    // is installed first.
    if let Some(budget) = budget {
        compiled.model.manager_mut().set_budget(budget);
    }
    if !opts.allow_deadlock {
        compiled.model.check_total()?;
    }
    Ok(compiled)
}

/// Marks the free inputs among the declared variables: those that no
/// `ASSIGN next(·)` assigns and whose `next(·)` no `TRANS` mentions,
/// `DEFINE` macros expanded. Their only next-state constraint is domain
/// validity. Runs on the syntax alone, before any BDD is built; each
/// macro body is walked once, so cyclic macros terminate here and are
/// reported by the compiler proper.
fn free_inputs(
    program: &Module,
    var_index: &HashMap<String, usize>,
    defines: &HashMap<String, Expr>,
) -> Vec<bool> {
    let mut input = vec![true; var_index.len()];
    let mut pending: Vec<&Expr> = Vec::new();
    for section in &program.sections {
        match section {
            Section::Assign(assigns) => {
                for a in assigns.iter().filter(|a| a.kind == AssignKind::Next) {
                    if let Some(&i) = var_index.get(&a.var) {
                        input[i] = false;
                    }
                }
            }
            Section::Trans(e, _) => pending.push(e),
            _ => {}
        }
    }
    let mut expanded: HashSet<&str> = HashSet::new();
    while let Some(e) = pending.pop() {
        match e {
            Expr::Ident(name) => {
                if let Some((name, def)) = defines.get_key_value(name) {
                    if expanded.insert(name) {
                        pending.push(def);
                    }
                }
            }
            Expr::Next(name) => {
                if let Some(&i) = var_index.get(name) {
                    input[i] = false;
                }
            }
            _ => pending.extend(e.children()),
        }
    }
    input
}

/// The event guards for chained reachability: one current-state guard
/// per joint value of the free inputs, in declaration and domain order.
/// Every valid state has exactly one joint value, so the guards split
/// the steps leaving reachable states exactly into events (on a
/// `Netlist::to_smv` export, one per `sel` value: the firing of one
/// gate). None unless there are free inputs with at most `limit` joint
/// values (the model's state bits), which bounds the number of events
/// on hostile input.
fn event_guards(ctx: &mut Ctx<'_>, inputs: &[bool], limit: usize) -> Vec<Bdd> {
    let free: Vec<usize> = (0..inputs.len()).filter(|&i| inputs[i]).collect();
    let mut joint = 1usize;
    for &i in &free {
        joint = joint.saturating_mul(ctx.vars[i].domain.len());
    }
    if free.is_empty() || joint > limit {
        return Vec::new();
    }
    let mut guards = vec![Bdd::TRUE];
    for &i in &free {
        let mut next = Vec::with_capacity(guards.len() * ctx.vars[i].domain.len());
        for &g in &guards {
            for idx in 0..ctx.vars[i].domain.len() {
                let value = ctx.encode(i, idx, Rail::Cur);
                next.push(ctx.manager.and(g, value));
            }
        }
        guards = next;
    }
    guards
}

/// The most values a ranged variable may take. The compiler lists every
/// value of a domain before it allocates bits, so a wider range would
/// exhaust memory (or overflow the length) before any budget could trip.
const MAX_RANGE_VALUES: i128 = 1 << 16;

fn bits_for(domain: usize) -> usize {
    debug_assert!(domain >= 1);
    if domain <= 2 {
        1
    } else {
        usize::BITS as usize - (domain - 1).leading_zeros() as usize
    }
}

/// Which variable rail an occurrence refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rail {
    Cur,
    Nxt,
}

/// A guarded value partition: pairs `(value, guard)` with disjoint
/// guards covering the (valid) state space.
type ValueMap = Vec<(Value, Bdd)>;

struct Ctx<'p> {
    manager: BddManager,
    vars: &'p [VarInfo],
    var_index: &'p HashMap<String, usize>,
    defines: &'p HashMap<String, Expr>,
    /// The DEFINEs being expanded, outermost first.
    expanding: Vec<&'p str>,
    /// Each DEFINE's value map, per evaluation context that can change
    /// the result or its errors (`allow_next`, `sets_ok`), with the
    /// height of its expansion (the name's own level included). A
    /// macro body evaluates to the same map at every use, so each is
    /// evaluated once; the height keeps the depth bound exact.
    macros: HashMap<(&'p str, bool, bool), (ValueMap, usize)>,
    /// The deepest level the evaluation in progress has reached.
    deepest: usize,
    cur: Vec<Var>,
    nxt: Vec<Var>,
    /// Conjunction of all domain-validity constraints; `case`
    /// exhaustiveness is only required over valid encodings.
    valid: Bdd,
}

impl Ctx<'_> {
    /// The BDD asserting that variable `i` (on the given rail) encodes
    /// the domain value with index `value_index`.
    fn encode(&mut self, var: usize, value_index: usize, rail: Rail) -> Bdd {
        let info = &self.vars[var];
        let mut acc = Bdd::TRUE;
        for b in (0..info.nbits).rev() {
            let bit = match rail {
                Rail::Cur => self.cur[info.first_bit + b],
                Rail::Nxt => self.nxt[info.first_bit + b],
            };
            let lit = self.manager.literal(bit, value_index >> b & 1 == 1);
            acc = self.manager.and(acc, lit);
        }
        acc
    }

    /// The BDD asserting that variable `i`'s encoding is inside its
    /// domain.
    fn valid_encoding(&mut self, var: usize, rail: Rail) -> Bdd {
        let n = self.vars[var].domain.len();
        if n == 1 << self.vars[var].nbits {
            return Bdd::TRUE;
        }
        let mut acc = Bdd::FALSE;
        for idx in 0..n {
            let enc = self.encode(var, idx, rail);
            acc = self.manager.or(acc, enc);
        }
        acc
    }

    /// Evaluates an expression to a guarded value partition.
    ///
    /// `allow_next` permits `next(x)` occurrences (TRANS only);
    /// `sets_ok` permits nondeterministic choice sets (assignment RHS
    /// positions only) — in a set position the returned "partition" is a
    /// may-relation rather than a function.
    ///
    /// `depth` is `expr`'s level in the expression with its DEFINEs
    /// expanded (the root is level 1, and a DEFINE's name is one level
    /// above its body). The parser bounds the height of what it reads by
    /// [`MAX_SYNTAX_DEPTH`]; expansion can stack bodies deeper, so the
    /// same bound is enforced here.
    fn eval(
        &mut self,
        expr: &Expr,
        allow_next: bool,
        sets_ok: bool,
        depth: usize,
    ) -> Result<ValueMap, SmvError> {
        if depth > MAX_SYNTAX_DEPTH {
            return Err(too_deep());
        }
        self.deepest = self.deepest.max(depth);
        match expr {
            Expr::Bool(b) => Ok(vec![(Value::Bool(*b), Bdd::TRUE)]),
            Expr::Int(i) => Ok(vec![(Value::Int(*i), Bdd::TRUE)]),
            Expr::Ident(name) => {
                if let Some(&i) = self.var_index.get(name) {
                    return Ok(self.var_map(i, Rail::Cur));
                }
                let defines = self.defines;
                if let Some((name, def)) = defines.get_key_value(name) {
                    if self.expanding.contains(&name.as_str()) {
                        return Err(SmvError::semantic(format!("DEFINE {name} expands to itself")));
                    }
                    let key = (name.as_str(), allow_next, sets_ok);
                    if let Some((map, height)) = self.macros.get(&key) {
                        let bottom = depth + height - 1;
                        if bottom > MAX_SYNTAX_DEPTH {
                            return Err(too_deep());
                        }
                        self.deepest = self.deepest.max(bottom);
                        return Ok(map.clone());
                    }
                    self.expanding.push(name);
                    let outer = std::mem::replace(&mut self.deepest, depth);
                    let expanded = self.eval(def, allow_next, sets_ok, depth + 1);
                    let bottom = self.deepest;
                    self.deepest = outer.max(bottom);
                    self.expanding.pop();
                    let map = expanded?;
                    self.macros.insert(key, (map.clone(), bottom - depth + 1));
                    return Ok(map);
                }
                // Enumeration symbol?
                if self.vars.iter().any(|v| v.domain.contains(&Value::Sym(name.clone()))) {
                    return Ok(vec![(Value::Sym(name.clone()), Bdd::TRUE)]);
                }
                Err(SmvError::semantic(format!("unknown identifier {name:?}")))
            }
            Expr::Next(name) => {
                if !allow_next {
                    return Err(SmvError::semantic("next(...) is only allowed inside TRANS"));
                }
                let &i = self
                    .var_index
                    .get(name)
                    .ok_or_else(|| SmvError::semantic(format!("unknown variable {name:?}")))?;
                Ok(self.var_map(i, Rail::Nxt))
            }
            Expr::Not(e) => {
                let b = self.eval_bool_inner(e, allow_next, depth)?;
                let nb = self.manager.not(b);
                Ok(bool_map(nb, b))
            }
            Expr::And(a, b) => self.bool_binop(a, b, allow_next, depth, BddManager::and),
            Expr::Or(a, b) => self.bool_binop(a, b, allow_next, depth, BddManager::or),
            Expr::Implies(a, b) => self.bool_binop(a, b, allow_next, depth, BddManager::implies),
            Expr::Iff(a, b) => self.bool_binop(a, b, allow_next, depth, BddManager::iff),
            Expr::Eq(a, b) => self.compare(a, b, allow_next, depth, "=", |x, y| Ok(x == y)),
            Expr::Neq(a, b) => self.compare(a, b, allow_next, depth, "!=", |x, y| Ok(x != y)),
            Expr::Lt(a, b) => self.compare(a, b, allow_next, depth, "<", int_cmp(|x, y| x < y)),
            Expr::Le(a, b) => self.compare(a, b, allow_next, depth, "<=", int_cmp(|x, y| x <= y)),
            Expr::Gt(a, b) => self.compare(a, b, allow_next, depth, ">", int_cmp(|x, y| x > y)),
            Expr::Ge(a, b) => self.compare(a, b, allow_next, depth, ">=", int_cmp(|x, y| x >= y)),
            Expr::Add(a, b) => self.arith(a, b, allow_next, depth, ArithOp::Add),
            Expr::Sub(a, b) => self.arith(a, b, allow_next, depth, ArithOp::Sub),
            Expr::Mul(a, b) => self.arith(a, b, allow_next, depth, ArithOp::Mul),
            Expr::Mod(a, b) => self.arith(a, b, allow_next, depth, ArithOp::Mod),
            Expr::Case(branches) => {
                let mut remaining = Bdd::TRUE;
                let mut out: ValueMap = Vec::new();
                for branch in branches {
                    let cond = self.eval_bool_inner(&branch.condition, allow_next, depth)?;
                    let guard = self.manager.and(remaining, cond);
                    if !guard.is_false() {
                        let value_map = self.eval(&branch.value, allow_next, sets_ok, depth + 1)?;
                        for (v, g) in value_map {
                            let gg = self.manager.and(g, guard);
                            if !gg.is_false() {
                                merge(&mut self.manager, &mut out, v, gg);
                            }
                        }
                    }
                    let ncond = self.manager.not(cond);
                    remaining = self.manager.and(remaining, ncond);
                    if remaining.is_false() {
                        break;
                    }
                }
                let uncovered = self.manager.and(remaining, self.valid);
                if !uncovered.is_false() {
                    return Err(SmvError::semantic("non-exhaustive case (add a TRUE branch)"));
                }
                Ok(out)
            }
            Expr::Set(elements) => {
                if !sets_ok {
                    return Err(SmvError::semantic(
                        "choice sets {…} are only allowed on assignment right-hand sides",
                    ));
                }
                let mut out: ValueMap = Vec::new();
                for e in elements {
                    for (v, g) in self.eval(e, allow_next, false, depth + 1)? {
                        merge(&mut self.manager, &mut out, v, g);
                    }
                }
                Ok(out)
            }
        }
    }

    fn var_map(&mut self, var: usize, rail: Rail) -> ValueMap {
        (0..self.vars[var].domain.len())
            .map(|idx| {
                let value = self.vars[var].domain[idx].clone();
                let guard = self.encode(var, idx, rail);
                (value, guard)
            })
            .collect()
    }

    /// Evaluates a boolean expression to the BDD of its `TRUE` guard.
    fn eval_bool(&mut self, expr: &Expr, allow_next: bool) -> Result<Bdd, SmvError> {
        self.eval_bool_inner(expr, allow_next, 0)
    }

    /// Evaluates a boolean operand one level below `depth`.
    fn eval_bool_inner(
        &mut self,
        expr: &Expr,
        allow_next: bool,
        depth: usize,
    ) -> Result<Bdd, SmvError> {
        let map = self.eval(expr, allow_next, false, depth + 1)?;
        let mut acc = Bdd::FALSE;
        for (v, g) in map {
            match v {
                Value::Bool(true) => acc = self.manager.or(acc, g),
                Value::Bool(false) => {}
                other => {
                    return Err(SmvError::semantic(format!(
                        "expected a boolean, found {} value {other}",
                        other.type_name()
                    )));
                }
            }
        }
        Ok(acc)
    }

    fn bool_binop(
        &mut self,
        a: &Expr,
        b: &Expr,
        allow_next: bool,
        depth: usize,
        op: fn(&mut BddManager, Bdd, Bdd) -> Bdd,
    ) -> Result<ValueMap, SmvError> {
        let x = self.eval_bool_inner(a, allow_next, depth)?;
        let y = self.eval_bool_inner(b, allow_next, depth)?;
        let t = op(&mut self.manager, x, y);
        let f = self.manager.not(t);
        Ok(bool_map(t, f))
    }

    fn compare(
        &mut self,
        a: &Expr,
        b: &Expr,
        allow_next: bool,
        depth: usize,
        opname: &str,
        cmp: impl Fn(&Value, &Value) -> Result<bool, SmvError>,
    ) -> Result<ValueMap, SmvError> {
        let ma = self.eval(a, allow_next, false, depth + 1)?;
        let mb = self.eval(b, allow_next, false, depth + 1)?;
        let mut t = Bdd::FALSE;
        for (va, ga) in &ma {
            for (vb, gb) in &mb {
                if va.type_name() != vb.type_name() {
                    return Err(SmvError::semantic(format!(
                        "type mismatch in {}: {} {} {}",
                        opname,
                        va.type_name(),
                        opname,
                        vb.type_name()
                    )));
                }
                if cmp(va, vb)? {
                    let g = self.manager.and(*ga, *gb);
                    t = self.manager.or(t, g);
                }
            }
        }
        let f = self.manager.not(t);
        Ok(bool_map(t, f))
    }

    fn arith(
        &mut self,
        a: &Expr,
        b: &Expr,
        allow_next: bool,
        depth: usize,
        op: ArithOp,
    ) -> Result<ValueMap, SmvError> {
        let ma = self.eval(a, allow_next, false, depth + 1)?;
        let mb = self.eval(b, allow_next, false, depth + 1)?;
        let mut out: ValueMap = Vec::new();
        for (va, ga) in &ma {
            for (vb, gb) in &mb {
                let (Some(x), Some(y)) = (va.as_int(), vb.as_int()) else {
                    return Err(SmvError::semantic(format!(
                        "arithmetic {} needs integers, found {} and {}",
                        op.symbol(),
                        va.type_name(),
                        vb.type_name()
                    )));
                };
                let g = self.manager.and(*ga, *gb);
                if !g.is_false() {
                    let v = op.apply(x, y).ok_or_else(|| {
                        SmvError::semantic(if op == ArithOp::Mod && y == 0 {
                            "modulo by zero".to_string()
                        } else {
                            format!("integer overflow in {}", op.symbol())
                        })
                    })?;
                    merge(&mut self.manager, &mut out, Value::Int(v), g);
                }
            }
        }
        Ok(out)
    }
}

fn too_deep() -> SmvError {
    SmvError::semantic(format!(
        "expression nested deeper than {MAX_SYNTAX_DEPTH} levels once DEFINEs are expanded"
    ))
}

fn bool_map(t: Bdd, f: Bdd) -> ValueMap {
    vec![(Value::Bool(true), t), (Value::Bool(false), f)]
}

fn merge(manager: &mut BddManager, map: &mut ValueMap, value: Value, guard: Bdd) {
    if let Some((_, g)) = map.iter_mut().find(|(v, _)| *v == value) {
        *g = manager.or(*g, guard);
    } else {
        map.push((value, guard));
    }
}

/// Compiles one `ASSIGN` into an `init` or `trans` conjunct. When
/// `branches` is provided, the guard of every top-level `case` branch is
/// recorded (and protected) for the analysis layer.
fn compile_assign(
    ctx: &mut Ctx<'_>,
    assign: &Assign,
    assigned_init: &mut HashMap<String, ()>,
    assigned_next: &mut HashMap<String, ()>,
    branches: Option<&mut Vec<AssignBranch>>,
) -> Result<Bdd, SmvError> {
    let &var = ctx
        .var_index
        .get(&assign.var)
        .ok_or_else(|| SmvError::semantic(format!("unknown variable {:?}", assign.var)))?;
    let book = match assign.kind {
        AssignKind::Init => &mut *assigned_init,
        AssignKind::Next => &mut *assigned_next,
    };
    if book.insert(assign.var.clone(), ()).is_some() {
        return Err(SmvError::semantic(format!("variable {:?} assigned twice", assign.var)));
    }
    let rail = match assign.kind {
        AssignKind::Init => Rail::Cur,
        AssignKind::Next => Rail::Nxt,
    };
    if let (Some(out), Expr::Case(case_branches)) = (branches, &assign.rhs) {
        // `case` guards are over current-state variables even in a
        // `next(…)` assign, so "this branch is taken" intersects
        // directly with init / reachable state sets.
        let mut remaining = Bdd::TRUE;
        for (index, b) in case_branches.iter().enumerate() {
            let cond = ctx.eval_bool(&b.condition, false)?;
            let taken = ctx.manager.and(remaining, cond);
            ctx.manager.protect(taken);
            out.push(AssignBranch {
                var: assign.var.clone(),
                kind: assign.kind,
                index,
                span: b.span,
                taken,
                default: matches!(b.condition, Expr::Bool(true)),
            });
            let ncond = ctx.manager.not(cond);
            remaining = ctx.manager.and(remaining, ncond);
        }
    }
    let map = ctx.eval(&assign.rhs, false, true, 1)?;
    let mut part = Bdd::FALSE;
    for (value, guard) in map {
        let idx = ctx.vars[var].domain.iter().position(|v| *v == value).ok_or_else(|| {
            SmvError::semantic(format!("value {value} is outside the domain of {:?}", assign.var))
        })?;
        let enc = ctx.encode(var, idx, rail);
        let conj = ctx.manager.and(guard, enc);
        part = ctx.manager.or(part, conj);
    }
    if part.is_false() {
        return Err(SmvError::semantic(format!("assignment to {:?} is unsatisfiable", assign.var)));
    }
    Ok(part)
}

fn int_cmp(f: impl Fn(i64, i64) -> bool) -> impl Fn(&Value, &Value) -> Result<bool, SmvError> {
    move |a, b| match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => Ok(f(x, y)),
        _ => Err(SmvError::semantic(format!(
            "ordering comparison needs integers, found {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}
