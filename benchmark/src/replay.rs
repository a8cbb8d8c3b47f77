//! Independent trace replay: a concrete interpreter over the flattened
//! SMV syntax tree.
//!
//! It checks a printed counterexample or witness against the model's
//! source text: every state assigns each variable a value of its type,
//! the first state satisfies the initial conditions, every step and the
//! loop's back edge satisfy the transition constraints, and every
//! `FAIRNESS` constraint holds somewhere on the loop. Only the parser
//! and the module flattener are shared with the checker; expressions are
//! evaluated here on concrete values, with no BDD in sight.

use std::collections::{HashMap, HashSet};

use smc_smv::{flatten, parse, AssignKind, Expr, Section, VarType};

/// A concrete value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    Bool(bool),
    Int(i64),
    Sym(String),
}

impl Val {
    /// Reads a value as the checker renders it.
    fn parse(text: &str) -> Val {
        match text {
            "TRUE" => Val::Bool(true),
            "FALSE" => Val::Bool(false),
            _ => text.parse().map_or_else(|_| Val::Sym(text.to_string()), Val::Int),
        }
    }
}

/// A constraint relating a state (and, for transitions, its successor).
enum Constraint {
    /// `init(v) := e` or `next(v) := e`: the variable's value must be
    /// one of the values `e` can take.
    Assign(usize, Expr),
    /// `INIT e` or `TRANS e`: `e` must be true.
    Holds(Expr),
}

/// The values of the current state and, inside a transition, the next.
struct Env<'a> {
    cur: &'a [Val],
    next: Option<&'a [Val]>,
}

/// A model ready to replay traces against.
pub struct Interp {
    names: Vec<String>,
    domains: Vec<Vec<Val>>,
    index: HashMap<String, usize>,
    defines: HashMap<String, Expr>,
    symbols: HashSet<String>,
    init: Vec<Constraint>,
    trans: Vec<Constraint>,
    fairness: Vec<Expr>,
}

/// How deeply DEFINE macros may expand into each other.
const MAX_DEFINE_DEPTH: usize = 64;

impl Interp {
    /// Parses and flattens `source`.
    pub fn new(source: &str) -> Result<Interp, String> {
        let program = parse(source).map_err(|e| format!("parse: {e}"))?;
        let module = flatten(&program).map_err(|e| format!("flatten: {e}"))?;
        let mut it = Interp {
            names: Vec::new(),
            domains: Vec::new(),
            index: HashMap::new(),
            defines: HashMap::new(),
            symbols: HashSet::new(),
            init: Vec::new(),
            trans: Vec::new(),
            fairness: Vec::new(),
        };
        for section in &module.sections {
            match section {
                Section::Var(decls) => {
                    for d in decls {
                        let domain = match &d.ty {
                            VarType::Boolean => vec![Val::Bool(false), Val::Bool(true)],
                            VarType::Enum(symbols) => {
                                it.symbols.extend(symbols.iter().cloned());
                                symbols.iter().map(|s| Val::Sym(s.clone())).collect()
                            }
                            VarType::Range(lo, hi) => (*lo..=*hi).map(Val::Int).collect(),
                            VarType::Instance(m, _) => {
                                return Err(format!("instance of {m} left after flattening"))
                            }
                        };
                        it.index.insert(d.name.clone(), it.names.len());
                        it.names.push(d.name.clone());
                        it.domains.push(domain);
                    }
                }
                Section::Define(defs) => it.defines.extend(defs.iter().cloned()),
                _ => {}
            }
        }
        for section in &module.sections {
            match section {
                Section::Assign(assigns) => {
                    for a in assigns {
                        let var = it.var(&a.var)?;
                        let c = Constraint::Assign(var, a.rhs.clone());
                        match a.kind {
                            AssignKind::Init => it.init.push(c),
                            AssignKind::Next => it.trans.push(c),
                        }
                    }
                }
                Section::Init(e, _) => it.init.push(Constraint::Holds(e.clone())),
                Section::Trans(e, _) => it.trans.push(Constraint::Holds(e.clone())),
                Section::Fairness(e, _) => it.fairness.push(e.clone()),
                _ => {}
            }
        }
        Ok(it)
    }

    fn var(&self, name: &str) -> Result<usize, String> {
        self.index.get(name).copied().ok_or_else(|| format!("unknown variable {name}"))
    }

    /// Reads one rendered state (`x=TRUE n=3 p.state=idle`); every
    /// variable must appear exactly once, with a value of its type.
    fn read_state(&self, line: &str) -> Result<Vec<Val>, String> {
        let mut vals: Vec<Option<Val>> = vec![None; self.names.len()];
        for field in line.split_whitespace() {
            let (name, text) =
                field.split_once('=').ok_or_else(|| format!("malformed assignment {field:?}"))?;
            let var = self.var(name)?;
            let v = Val::parse(text);
            if !self.domains[var].contains(&v) {
                return Err(format!("{name}={text} is outside the type of {name}"));
            }
            if vals[var].replace(v).is_some() {
                return Err(format!("{name} assigned twice"));
            }
        }
        vals.into_iter()
            .zip(&self.names)
            .map(|(v, name)| v.ok_or_else(|| format!("{name} missing")))
            .collect()
    }

    /// Replays a trace: `states` as rendered by the checker, `loopback`
    /// the index the last state steps back to, if it is a lasso.
    pub fn check(&self, states: &[String], loopback: Option<usize>) -> Result<(), String> {
        if states.is_empty() {
            return Err("empty trace".to_string());
        }
        let path: Vec<Vec<Val>> = states
            .iter()
            .enumerate()
            .map(|(k, s)| self.read_state(s).map_err(|e| format!("state {k}: {e}")))
            .collect::<Result<_, _>>()?;
        self.satisfies(&self.init, &Env { cur: &path[0], next: None })
            .map_err(|e| format!("state 0 is not initial: {e}"))?;
        for k in 1..path.len() {
            self.step(&path[k - 1], &path[k]).map_err(|e| format!("step {} -> {k}: {e}", k - 1))?;
        }
        if let Some(l) = loopback {
            let last = path.len() - 1;
            let target = path.get(l).ok_or_else(|| format!("loop back to missing state {l}"))?;
            self.step(&path[last], target).map_err(|e| format!("back edge {last} -> {l}: {e}"))?;
            for (f, constraint) in self.fairness.iter().enumerate() {
                let mut visited = false;
                for state in &path[l..] {
                    visited |= self.truth(constraint, &Env { cur: state, next: None }, 0)?;
                }
                if !visited {
                    return Err(format!("FAIRNESS {f} ({constraint}) never holds on the loop"));
                }
            }
        }
        Ok(())
    }

    fn step(&self, cur: &[Val], next: &[Val]) -> Result<(), String> {
        self.satisfies(&self.trans, &Env { cur, next: Some(next) })
    }

    fn satisfies(&self, constraints: &[Constraint], env: &Env) -> Result<(), String> {
        for c in constraints {
            match c {
                Constraint::Assign(var, rhs) => {
                    let actual = match env.next {
                        Some(next) => &next[*var],
                        None => &env.cur[*var],
                    };
                    if !self.eval(rhs, env, 0)?.contains(actual) {
                        let name = &self.names[*var];
                        return Err(format!("{name} = {actual:?} is not allowed by {rhs}"));
                    }
                }
                Constraint::Holds(e) => {
                    if !self.truth(e, env, 0)? {
                        return Err(format!("constraint {e} is violated"));
                    }
                }
            }
        }
        Ok(())
    }

    fn truth(&self, e: &Expr, env: &Env, depth: usize) -> Result<bool, String> {
        match self.scalar(e, env, depth)? {
            Val::Bool(b) => Ok(b),
            other => Err(format!("{e} is {other:?}, not a boolean")),
        }
    }

    fn int(&self, e: &Expr, env: &Env, depth: usize) -> Result<i64, String> {
        match self.scalar(e, env, depth)? {
            Val::Int(i) => Ok(i),
            other => Err(format!("{e} is {other:?}, not an integer")),
        }
    }

    fn scalar(&self, e: &Expr, env: &Env, depth: usize) -> Result<Val, String> {
        let mut vals = self.eval(e, env, depth)?;
        if vals.len() != 1 {
            return Err(format!("{e} has {} possible values where one is needed", vals.len()));
        }
        Ok(vals.remove(0))
    }

    /// Every value `e` can take in `env`: one, except for choice sets.
    fn eval(&self, e: &Expr, env: &Env, depth: usize) -> Result<Vec<Val>, String> {
        let bool_op = |a: &Expr, b: &Expr, f: fn(bool, bool) -> bool| -> Result<Vec<Val>, String> {
            Ok(vec![Val::Bool(f(self.truth(a, env, depth)?, self.truth(b, env, depth)?))])
        };
        let cmp = |a: &Expr, b: &Expr, f: fn(i64, i64) -> bool| -> Result<Vec<Val>, String> {
            Ok(vec![Val::Bool(f(self.int(a, env, depth)?, self.int(b, env, depth)?))])
        };
        let arith = |a: &Expr, b: &Expr, f: fn(i64, i64) -> Option<i64>| {
            let (x, y) = (self.int(a, env, depth)?, self.int(b, env, depth)?);
            f(x, y).map(|v| vec![Val::Int(v)]).ok_or_else(|| format!("{e} is undefined"))
        };
        match e {
            Expr::Bool(b) => Ok(vec![Val::Bool(*b)]),
            Expr::Int(i) => Ok(vec![Val::Int(*i)]),
            Expr::Ident(name) => {
                if let Some(&var) = self.index.get(name) {
                    Ok(vec![env.cur[var].clone()])
                } else if let Some(def) = self.defines.get(name) {
                    if depth == MAX_DEFINE_DEPTH {
                        return Err(format!("DEFINE {name} nests too deep"));
                    }
                    self.eval(def, env, depth + 1)
                } else if self.symbols.contains(name) {
                    Ok(vec![Val::Sym(name.clone())])
                } else {
                    Err(format!("unknown identifier {name}"))
                }
            }
            Expr::Next(name) => {
                let next = env.next.ok_or_else(|| format!("next({name}) outside a transition"))?;
                Ok(vec![next[self.var(name)?].clone()])
            }
            Expr::Not(a) => Ok(vec![Val::Bool(!self.truth(a, env, depth)?)]),
            Expr::And(a, b) => bool_op(a, b, |x, y| x && y),
            Expr::Or(a, b) => bool_op(a, b, |x, y| x || y),
            Expr::Implies(a, b) => bool_op(a, b, |x, y| !x || y),
            Expr::Iff(a, b) => bool_op(a, b, |x, y| x == y),
            Expr::Eq(a, b) => {
                Ok(vec![Val::Bool(self.scalar(a, env, depth)? == self.scalar(b, env, depth)?)])
            }
            Expr::Neq(a, b) => {
                Ok(vec![Val::Bool(self.scalar(a, env, depth)? != self.scalar(b, env, depth)?)])
            }
            Expr::Lt(a, b) => cmp(a, b, |x, y| x < y),
            Expr::Le(a, b) => cmp(a, b, |x, y| x <= y),
            Expr::Gt(a, b) => cmp(a, b, |x, y| x > y),
            Expr::Ge(a, b) => cmp(a, b, |x, y| x >= y),
            Expr::Add(a, b) => arith(a, b, i64::checked_add),
            Expr::Sub(a, b) => arith(a, b, i64::checked_sub),
            Expr::Mul(a, b) => arith(a, b, i64::checked_mul),
            Expr::Mod(a, b) => arith(a, b, i64::checked_rem_euclid),
            Expr::Case(branches) => {
                for branch in branches {
                    if self.truth(&branch.condition, env, depth)? {
                        return self.eval(&branch.value, env, depth);
                    }
                }
                Err(format!("no branch of {e} applies"))
            }
            Expr::Set(elements) => {
                let mut out = Vec::new();
                for el in elements {
                    for v in self.eval(el, env, depth)? {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                Ok(out)
            }
        }
    }
}
