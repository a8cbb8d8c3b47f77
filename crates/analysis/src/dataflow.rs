//! Model dataflow: the variable dependency graph, the constant
//! propagation fixpoint, and the W021/W022 warnings built on them.
//!
//! Everything here is source-level, computed over the flattened AST —
//! no BDDs are built. The [`DepGraph`] records, for every state
//! variable, which variables its `init`/`next` assignments read
//! (`DEFINE` macros are expanded transitively), plus the support sets
//! of every `SPEC` and `FAIRNESS` constraint. Raw `INIT`/`TRANS`
//! constraints couple every variable they mention with every other: a
//! relational constraint cannot be attributed to a single variable, so
//! its support is treated as mutually dependent, and a raw constraint
//! is always either wholly inside or wholly outside a cone.
//!
//! [`frozen_constants`] runs an optimistic fixpoint that finds
//! variables provably stuck at one value on every path: candidates
//! start out "frozen at their initial value" and are demoted whenever
//! some assignment can move them (or their value cannot be evaluated to
//! a literal). The result is sound by induction on time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use smc_smv::{ArithOp, Assign, AssignKind, CaseBranch, Expr, Module, Section, Spec, VarType};

use crate::diag::{Diagnostic, Report};

/// One value a variable can be frozen to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstVal {
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// An enumeration symbol.
    Sym(String),
}

impl std::fmt::Display for ConstVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstVal::Bool(true) => write!(f, "TRUE"),
            ConstVal::Bool(false) => write!(f, "FALSE"),
            ConstVal::Int(k) => write!(f, "{k}"),
            ConstVal::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// The variable dependency graph of one flattened module.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Every declared state variable, in declaration order.
    pub vars: Vec<String>,
    /// `var → vars read by the expressions that constrain it`: the RHS
    /// of its `init`/`next` assignments, and the full support of every
    /// raw `INIT`/`TRANS` constraint that mentions it.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// Per-`SPEC` support sets, in source order.
    pub spec_support: Vec<BTreeSet<String>>,
    /// Union of the support of every `FAIRNESS` constraint.
    pub fairness_support: BTreeSet<String>,
    /// Variables read anywhere (assignments, constraints, fairness,
    /// specs), with `DEFINE` reads counted only when the macro is used.
    pub read_anywhere: BTreeSet<String>,
}

impl DepGraph {
    /// Builds the graph for a flattened module.
    pub fn build(module: &Module) -> DepGraph {
        let support = SupportMap::new(module);
        let mut vars = Vec::new();
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for section in &module.sections {
            if let Section::Var(decls) = section {
                for d in decls {
                    vars.push(d.name.clone());
                    deps.entry(d.name.clone()).or_default();
                }
            }
        }

        let mut spec_support = Vec::new();
        let mut fairness_support = BTreeSet::new();
        let mut read_anywhere = BTreeSet::new();
        for section in &module.sections {
            match section {
                Section::Var(_) | Section::Define(_) => {}
                Section::Assign(assigns) => {
                    for a in assigns {
                        let reads = support.of_expr(&a.rhs);
                        read_anywhere.extend(reads.iter().cloned());
                        deps.entry(a.var.clone()).or_default().extend(reads);
                    }
                }
                Section::Init(e, _) | Section::Trans(e, _) => {
                    let reads = support.of_expr(e);
                    read_anywhere.extend(reads.iter().cloned());
                    // A relational constraint couples its whole support:
                    // each mentioned variable depends on every other.
                    for v in &reads {
                        deps.entry(v.clone()).or_default().extend(reads.iter().cloned());
                    }
                }
                Section::Fairness(e, _) => {
                    let reads = support.of_expr(e);
                    read_anywhere.extend(reads.iter().cloned());
                    fairness_support.extend(reads);
                }
                Section::Spec(spec, _) => {
                    let reads = support.of_spec(spec);
                    read_anywhere.extend(reads.iter().cloned());
                    spec_support.push(reads);
                }
            }
        }
        DepGraph { vars, deps, spec_support, fairness_support, read_anywhere }
    }

    /// The backward closure of `seeds` over the dependency edges: every
    /// variable whose value can influence some seed.
    pub fn cone<'a>(&self, seeds: impl IntoIterator<Item = &'a String>) -> BTreeSet<String> {
        let mut cone = BTreeSet::new();
        let mut frontier: Vec<&String> =
            seeds.into_iter().filter(|v| self.deps.contains_key(*v)).collect();
        while let Some(v) = frontier.pop() {
            if !cone.insert(v.clone()) {
                continue;
            }
            if let Some(reads) = self.deps.get(v) {
                frontier.extend(reads.iter().filter(|r| !cone.contains(*r)));
            }
        }
        cone
    }

    /// Number of directed dependency edges (self-edges included).
    pub fn edge_count(&self) -> usize {
        self.deps.values().map(BTreeSet::len).sum()
    }

    /// Strongly connected components in reverse topological order
    /// (callees before callers), each sorted by name — iterative
    /// Tarjan over the declaration-ordered vertex list.
    pub fn sccs(&self) -> Vec<Vec<String>> {
        let index_of: HashMap<&str, usize> =
            self.vars.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();
        let succs: Vec<Vec<usize>> = self
            .vars
            .iter()
            .map(|v| {
                self.deps
                    .get(v)
                    .map(|reads| reads.iter().filter_map(|r| index_of.get(r.as_str()).copied()))
                    .into_iter()
                    .flatten()
                    .collect()
            })
            .collect();

        let n = self.vars.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<String>> = Vec::new();

        // Explicit DFS frames: (vertex, next successor position).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(frame) = frames.last_mut() {
                let (v, pos) = (frame.0, frame.1);
                if pos == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = succs[v].get(pos) {
                    frame.1 += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().unwrap_or(v);
                            on_stack[w] = false;
                            comp.push(self.vars[w].clone());
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Renders the graph in Graphviz DOT format: one node per variable,
    /// one edge per dependency (self-loops omitted for readability),
    /// with multi-variable SCCs grouped as clusters.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph deps {\n  rankdir=LR;\n  node [shape=box];\n");
        let mut clustered: BTreeSet<String> = BTreeSet::new();
        for (i, scc) in self.sccs().iter().enumerate() {
            if scc.len() > 1 {
                out.push_str(&format!("  subgraph cluster_{i} {{\n    label=\"scc\";\n"));
                for v in scc {
                    out.push_str(&format!("    \"{v}\";\n"));
                    clustered.insert(v.clone());
                }
                out.push_str("  }\n");
            }
        }
        for v in &self.vars {
            if !clustered.contains(v) {
                out.push_str(&format!("  \"{v}\";\n"));
            }
        }
        for v in &self.vars {
            if let Some(reads) = self.deps.get(v) {
                for r in reads {
                    if r != v {
                        out.push_str(&format!("  \"{v}\" -> \"{r}\";\n"));
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The dataflow warning pass: W021 `constant-variable` for variables
/// frozen at one value, W022 `irrelevant-to-all-specs` for variables
/// the model reads but no spec's cone (fairness included) contains.
pub(crate) fn lint(module: &Module, report: &mut Report) {
    let graph = DepGraph::build(module);
    let consts = frozen_constants(module);
    let mut relevant = BTreeSet::new();
    for support in &graph.spec_support {
        relevant.extend(graph.cone(support.union(&graph.fairness_support)));
    }

    for section in &module.sections {
        let Section::Var(decls) = section else { continue };
        for d in decls {
            if let Some(c) = consts.get(&d.name) {
                report.push(
                    Diagnostic::warning(
                        "W021",
                        format!("variable `{}` is frozen at `{c}`: no assignment moves it", d.name),
                        Some(d.span),
                    )
                    .with_note(format!("every reachable state has {}={c}", d.name))
                    .with_note("`smc deps` lists it under the frozen constants"),
                );
            } else if !graph.spec_support.is_empty()
                && !relevant.contains(&d.name)
                && graph.read_anywhere.contains(&d.name)
            {
                report.push(
                    Diagnostic::warning(
                        "W022",
                        format!("variable `{}` influences no specification", d.name),
                        Some(d.span),
                    )
                    .with_note("it lies outside every spec's cone of influence (fairness included)")
                    .with_note("`smc deps` prints every spec's cone"),
                );
            }
        }
    }
}

/// `DEFINE`-transitive support computation for expressions and specs.
struct SupportMap<'m> {
    vars: HashSet<&'m str>,
    defines: HashMap<&'m str, &'m Expr>,
    /// Per-macro variable support, memoized lazily (cycle-safe: a macro
    /// currently being expanded contributes nothing to itself).
    memo: std::cell::RefCell<HashMap<String, BTreeSet<String>>>,
}

impl<'m> SupportMap<'m> {
    fn new(module: &'m Module) -> SupportMap<'m> {
        let mut vars = HashSet::new();
        let mut defines = HashMap::new();
        for section in &module.sections {
            match section {
                Section::Var(decls) => {
                    for d in decls {
                        vars.insert(d.name.as_str());
                    }
                }
                Section::Define(defs) => {
                    for (name, body) in defs {
                        defines.insert(name.as_str(), body);
                    }
                }
                _ => {}
            }
        }
        SupportMap { vars, defines, memo: std::cell::RefCell::new(HashMap::new()) }
    }

    /// Variables read by `e`, with `DEFINE` macros expanded.
    fn of_expr(&self, e: &Expr) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut expanding = HashSet::new();
        self.collect(e, &mut out, &mut expanding);
        out
    }

    /// Union of the support of every leaf of a `SPEC`.
    fn of_spec(&self, spec: &Spec) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut expanding = HashSet::new();
        for leaf in spec.leaves() {
            self.collect(leaf, &mut out, &mut expanding);
        }
        out
    }

    fn collect(&self, e: &Expr, out: &mut BTreeSet<String>, expanding: &mut HashSet<String>) {
        match e {
            Expr::Ident(name) | Expr::Next(name) => {
                if self.vars.contains(name.as_str()) {
                    out.insert(name.clone());
                } else if let Some(body) = self.defines.get(name.as_str()) {
                    if let Some(memoized) = self.memo.borrow().get(name.as_str()) {
                        out.extend(memoized.iter().cloned());
                        return;
                    }
                    if expanding.insert(name.clone()) {
                        let mut inner = BTreeSet::new();
                        self.collect(body, &mut inner, expanding);
                        expanding.remove(name.as_str());
                        out.extend(inner.iter().cloned());
                        self.memo.borrow_mut().insert(name.clone(), inner);
                    }
                }
                // Enum symbols and unknown names carry no support.
            }
            _ => {
                for child in e.children() {
                    self.collect(child, out, expanding);
                }
            }
        }
    }
}

/// Variables provably frozen at a single value on every execution.
///
/// A candidate has exactly one `init` and one `next` assignment and is
/// not mentioned by any raw `INIT`/`TRANS` constraint (relational
/// constraints could move it behind the assignments' back). The
/// fixpoint seeds every candidate with the literal value of its `init`
/// RHS (evaluated assuming the other surviving candidates are frozen
/// too) and demotes any candidate whose `next` RHS can differ from that
/// value; demotion restarts the evaluation, so the result is the
/// greatest self-consistent set.
pub fn frozen_constants(module: &Module) -> BTreeMap<String, ConstVal> {
    let support = SupportMap::new(module);
    let mut enum_syms: HashSet<&str> = HashSet::new();
    let mut declared: HashSet<&str> = HashSet::new();
    for section in &module.sections {
        if let Section::Var(decls) = section {
            for d in decls {
                declared.insert(d.name.as_str());
                if let VarType::Enum(syms) = &d.ty {
                    enum_syms.extend(syms.iter().map(String::as_str));
                }
            }
        }
    }

    // Collect the unique init/next assignment per variable; duplicates
    // (a compile error anyway) disqualify the variable.
    let mut inits: HashMap<&str, &Assign> = HashMap::new();
    let mut nexts: HashMap<&str, &Assign> = HashMap::new();
    let mut duplicated: HashSet<&str> = HashSet::new();
    for section in &module.sections {
        if let Section::Assign(assigns) = section {
            for a in assigns {
                let table = match a.kind {
                    AssignKind::Init => &mut inits,
                    AssignKind::Next => &mut nexts,
                };
                if table.insert(a.var.as_str(), a).is_some() {
                    duplicated.insert(a.var.as_str());
                }
            }
        }
    }
    let mut raw_mentioned: HashSet<&str> = HashSet::new();
    for section in &module.sections {
        if let Section::Init(e, _) | Section::Trans(e, _) = section {
            for v in support.of_expr(e) {
                if let Some(name) = declared.get(v.as_str()) {
                    raw_mentioned.insert(*name);
                }
            }
        }
    }

    let mut alive: BTreeSet<&str> = declared
        .iter()
        .copied()
        .filter(|v| {
            inits.contains_key(v)
                && nexts.contains_key(v)
                && !duplicated.contains(v)
                && !raw_mentioned.contains(v)
        })
        .collect();

    let eval_ctx = EvalCtx { defines: &support.defines, enum_syms: &enum_syms };
    loop {
        // Seed: initial values, fixpointed over the alive set (an init
        // RHS may read another frozen candidate).
        let mut env: BTreeMap<String, ConstVal> = BTreeMap::new();
        loop {
            let mut grew = false;
            for v in &alive {
                if !env.contains_key(*v) {
                    if let Some(c) = eval_ctx.eval(&inits[v].rhs, &env, 0) {
                        env.insert((*v).to_string(), c);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        // Verify: the next-state value must equal the frozen value.
        let mut demoted = false;
        for v in alive.clone() {
            let holds = match env.get(v) {
                Some(c) => eval_ctx.eval(&nexts[v].rhs, &env, 0).as_ref() == Some(c),
                None => false,
            };
            if !holds {
                alive.remove(v);
                demoted = true;
            }
        }
        if !demoted {
            env.retain(|v, _| alive.contains(v.as_str()));
            return env;
        }
    }
}

/// Abstract constant evaluation: `Some` only when the expression has
/// exactly one possible value under `env`.
struct EvalCtx<'m> {
    defines: &'m HashMap<&'m str, &'m Expr>,
    enum_syms: &'m HashSet<&'m str>,
}

impl EvalCtx<'_> {
    fn eval(&self, e: &Expr, env: &BTreeMap<String, ConstVal>, depth: usize) -> Option<ConstVal> {
        if depth > 64 {
            return None;
        }
        let b = |v: bool| Some(ConstVal::Bool(v));
        match e {
            Expr::Bool(v) => b(*v),
            Expr::Int(k) => Some(ConstVal::Int(*k)),
            Expr::Ident(name) => {
                if let Some(c) = env.get(name) {
                    Some(c.clone())
                } else if let Some(body) = self.defines.get(name.as_str()) {
                    self.eval(body, env, depth + 1)
                } else if self.enum_syms.contains(name.as_str()) {
                    Some(ConstVal::Sym(name.clone()))
                } else {
                    None
                }
            }
            // A frozen variable holds its value at every time, so
            // `next(v)` evaluates like `v`.
            Expr::Next(name) => env.get(name).cloned(),
            Expr::Not(a) => match self.eval(a, env, depth + 1)? {
                ConstVal::Bool(v) => b(!v),
                _ => None,
            },
            Expr::And(x, y) => self.bool2(x, y, env, depth, |a, b| match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }),
            Expr::Or(x, y) => self.bool2(x, y, env, depth, |a, b| match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }),
            Expr::Implies(x, y) => self.bool2(x, y, env, depth, |a, b| match (a, b) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            }),
            Expr::Iff(x, y) => self.bool2(x, y, env, depth, |a, b| Some(a? == b?)),
            Expr::Eq(x, y) => self.compare(x, y, env, depth, false),
            Expr::Neq(x, y) => self.compare(x, y, env, depth, true),
            Expr::Lt(x, y) => self.ints(x, y, env, depth).map(|(a, c)| ConstVal::Bool(a < c)),
            Expr::Le(x, y) => self.ints(x, y, env, depth).map(|(a, c)| ConstVal::Bool(a <= c)),
            Expr::Gt(x, y) => self.ints(x, y, env, depth).map(|(a, c)| ConstVal::Bool(a > c)),
            Expr::Ge(x, y) => self.ints(x, y, env, depth).map(|(a, c)| ConstVal::Bool(a >= c)),
            Expr::Add(x, y) => self.arith(x, y, env, depth, ArithOp::Add),
            Expr::Sub(x, y) => self.arith(x, y, env, depth, ArithOp::Sub),
            Expr::Mul(x, y) => self.arith(x, y, env, depth, ArithOp::Mul),
            Expr::Mod(x, y) => self.arith(x, y, env, depth, ArithOp::Mod),
            Expr::Case(branches) => self.eval_case(branches, env, depth),
            Expr::Set(elems) => {
                let mut value: Option<ConstVal> = None;
                for e in elems {
                    let c = self.eval(e, env, depth + 1)?;
                    match &value {
                        None => value = Some(c),
                        Some(prev) if *prev == c => {}
                        Some(_) => return None,
                    }
                }
                value
            }
        }
    }

    /// A binary boolean connective with three-valued short-circuiting.
    fn bool2(
        &self,
        x: &Expr,
        y: &Expr,
        env: &BTreeMap<String, ConstVal>,
        depth: usize,
        f: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
    ) -> Option<ConstVal> {
        let as_bool = |e: &Expr| match self.eval(e, env, depth + 1) {
            Some(ConstVal::Bool(v)) => Some(v),
            _ => None,
        };
        f(as_bool(x), as_bool(y)).map(ConstVal::Bool)
    }

    /// `=` / `!=` over same-kind constants; cross-kind stays unknown.
    fn compare(
        &self,
        x: &Expr,
        y: &Expr,
        env: &BTreeMap<String, ConstVal>,
        depth: usize,
        negate: bool,
    ) -> Option<ConstVal> {
        let a = self.eval(x, env, depth + 1)?;
        let c = self.eval(y, env, depth + 1)?;
        let same = match (&a, &c) {
            (ConstVal::Bool(p), ConstVal::Bool(q)) => p == q,
            (ConstVal::Int(p), ConstVal::Int(q)) => p == q,
            (ConstVal::Sym(p), ConstVal::Sym(q)) => p == q,
            _ => return None,
        };
        Some(ConstVal::Bool(same != negate))
    }

    /// Integer arithmetic; an overflow or `mod 0` is not a constant.
    fn arith(
        &self,
        x: &Expr,
        y: &Expr,
        env: &BTreeMap<String, ConstVal>,
        depth: usize,
        op: ArithOp,
    ) -> Option<ConstVal> {
        let (a, c) = self.ints(x, y, env, depth)?;
        op.apply(a, c).map(ConstVal::Int)
    }

    fn ints(
        &self,
        x: &Expr,
        y: &Expr,
        env: &BTreeMap<String, ConstVal>,
        depth: usize,
    ) -> Option<(i64, i64)> {
        match (self.eval(x, env, depth + 1)?, self.eval(y, env, depth + 1)?) {
            (ConstVal::Int(a), ConstVal::Int(c)) => Some((a, c)),
            _ => None,
        }
    }

    /// The value of a `case` when it is unique: branches with a
    /// definitely-FALSE guard are skipped, a definitely-TRUE guard cuts
    /// the rest off, and every branch that *might* fire must evaluate to
    /// the same constant (the compiler's exhaustiveness check guarantees
    /// some branch fires).
    fn eval_case(
        &self,
        branches: &[CaseBranch],
        env: &BTreeMap<String, ConstVal>,
        depth: usize,
    ) -> Option<ConstVal> {
        let mut value: Option<ConstVal> = None;
        for branch in branches {
            let guard = match self.eval(&branch.condition, env, depth + 1) {
                Some(ConstVal::Bool(g)) => Some(g),
                _ => None,
            };
            if guard == Some(false) {
                continue;
            }
            let v = self.eval(&branch.value, env, depth + 1)?;
            match &value {
                None => value = Some(v),
                Some(prev) if *prev == v => {}
                Some(_) => return None,
            }
            if guard == Some(true) {
                break;
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        smc_smv::flatten(&smc_smv::parse(src).expect("parse")).expect("flatten")
    }

    #[test]
    fn assignment_reads_become_edges_through_defines() {
        let m = module(
            "MODULE main\n\
             VAR a : boolean;\nVAR b : boolean;\nVAR c : boolean;\n\
             DEFINE both := a & b;\n\
             ASSIGN next(c) := both; next(a) := !a; next(b) := c;\n\
             SPEC EF c\n",
        );
        let g = DepGraph::build(&m);
        assert_eq!(g.vars, vec!["a", "b", "c"]);
        assert_eq!(g.deps["c"], ["a", "b"].iter().map(|s| s.to_string()).collect());
        assert_eq!(g.deps["a"], ["a"].iter().map(|s| s.to_string()).collect());
        assert_eq!(g.spec_support, vec![["c"].iter().map(|s| s.to_string()).collect()]);
    }

    #[test]
    fn raw_constraints_couple_their_whole_support() {
        let m = module(
            "MODULE main\n\
             VAR a : boolean;\nVAR b : boolean;\nVAR c : boolean;\n\
             ASSIGN next(c) := c;\n\
             TRANS next(a) = b\n\
             SPEC EF a\n",
        );
        let g = DepGraph::build(&m);
        let ab: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        assert_eq!(g.deps["a"], ab);
        assert_eq!(g.deps["b"], ab);
        // The cone of a pulls in b via the coupling, but not c.
        assert_eq!(g.cone(&["a".to_string()]), ab);
    }

    #[test]
    fn sccs_condense_mutual_dependencies() {
        let m = module(
            "MODULE main\n\
             VAR a : boolean;\nVAR b : boolean;\nVAR c : boolean;\n\
             ASSIGN next(a) := b; next(b) := a; next(c) := a;\n\
             SPEC EF c\n",
        );
        let g = DepGraph::build(&m);
        let sccs = g.sccs();
        assert!(sccs.contains(&vec!["a".to_string(), "b".to_string()]), "{sccs:?}");
        assert!(sccs.contains(&vec!["c".to_string()]), "{sccs:?}");
        // a/b is a callee of c, so it condenses first.
        assert!(sccs[0].len() == 2, "reverse topological order: {sccs:?}");
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let m = module(
            "MODULE main\nVAR a : boolean;\nVAR b : boolean;\n\
             ASSIGN next(a) := b; next(b) := b;\nSPEC EF a\n",
        );
        let dot = DepGraph::build(&m).to_dot();
        assert!(dot.starts_with("digraph deps {"), "{dot}");
        assert!(dot.contains("\"a\" -> \"b\";"), "{dot}");
        assert!(!dot.contains("\"b\" -> \"b\";"), "self loops omitted: {dot}");
    }

    #[test]
    fn frozen_constants_survive_identity_updates() {
        let m = module(
            "MODULE main\n\
             VAR a : boolean;\nVAR c : 0..3;\nVAR free : boolean;\n\
             ASSIGN\n\
             init(a) := FALSE; next(a) := a | FALSE;\n\
             init(c) := 2; next(c) := case free : 2; TRUE : c; esac;\n\
             init(free) := FALSE; next(free) := {FALSE, TRUE};\n\
             SPEC EF free\n",
        );
        let consts = frozen_constants(&m);
        assert_eq!(consts.get("a"), Some(&ConstVal::Bool(false)));
        assert_eq!(consts.get("c"), Some(&ConstVal::Int(2)));
        assert_eq!(consts.get("free"), None, "a nondeterministic choice is not frozen");
    }

    #[test]
    fn freezing_is_mutually_recursive() {
        // gate copies itself unless req fires; req never fires, but only
        // the fixpoint over {req, gate} can see that.
        let m = module(
            "MODULE main\n\
             VAR req : boolean;\nVAR gate : boolean;\n\
             ASSIGN\n\
             init(req) := FALSE; next(req) := FALSE;\n\
             init(gate) := FALSE; next(gate) := case req : TRUE; TRUE : gate; esac;\n\
             SPEC EF gate\n",
        );
        let consts = frozen_constants(&m);
        assert_eq!(consts.get("req"), Some(&ConstVal::Bool(false)));
        assert_eq!(consts.get("gate"), Some(&ConstVal::Bool(false)));
    }

    #[test]
    fn raw_constraints_disqualify_their_variables() {
        let m = module(
            "MODULE main\nVAR a : boolean;\n\
             ASSIGN init(a) := FALSE; next(a) := FALSE;\n\
             TRANS a | !a\n\
             SPEC EF a\n",
        );
        assert!(frozen_constants(&m).is_empty(), "raw TRANS could move a behind our back");
    }

    #[test]
    fn toggling_variables_are_not_frozen() {
        let m = module(
            "MODULE main\nVAR x : boolean;\n\
             ASSIGN init(x) := FALSE; next(x) := !x;\nSPEC AG (AF x)\n",
        );
        assert!(frozen_constants(&m).is_empty());
    }
}
