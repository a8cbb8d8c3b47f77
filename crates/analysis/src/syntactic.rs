//! Pass 1 — syntactic/semantic checks over the (flattened) SMV AST.
//!
//! Everything here is source-level: no BDDs are built. The pass finds
//! undeclared identifiers (E010), duplicate assignments (E011),
//! out-of-domain constants in assignments (E012), misplaced `next()`
//! (E002), unused and write-only variables (W001/W002), `case` branches
//! shadowed by an earlier literal `TRUE` guard (W003), circular `next()`
//! dependencies (W004) and comparisons that are constant because the
//! literal lies outside the variable's domain (W005).

use std::collections::{HashMap, HashSet};

use smc_smv::{Assign, AssignKind, Decl, Expr, Module, Section, Span, VarType};

use crate::diag::{Diagnostic, Report};

/// Runs the syntactic pass over a flattened module.
pub(crate) fn run(module: &Module, report: &mut Report) {
    let mut pass = Pass::new(module);
    pass.walk_module(module);
    pass.finish(module, report);
}

/// Per-run state: symbol tables, read/write sets, findings.
struct Pass<'m> {
    /// Declared state variables, by name.
    vars: HashMap<&'m str, &'m Decl>,
    /// `DEFINE` macros, by name.
    defines: HashMap<&'m str, &'m Expr>,
    /// Every enum symbol, mapped to the variables whose domain holds it.
    enum_syms: HashMap<&'m str, Vec<&'m str>>,
    /// Variables read anywhere outside a `DEFINE` body.
    reads: HashSet<String>,
    /// Variables assigned by `ASSIGN`, `init(...)` or `next(...)`.
    writes: HashSet<String>,
    /// Defines referenced anywhere outside a `DEFINE` body.
    used_defines: HashSet<String>,
    /// Reads made by each `DEFINE` body: (variables, nested defines).
    define_uses: HashMap<String, (HashSet<String>, HashSet<String>)>,
    /// `(var, kind)` pairs already assigned, for E011.
    assigned: HashSet<(String, AssignKind)>,
    /// `next(x)` dependency edges `x → (y, span of the assign)` for W004.
    next_deps: HashMap<String, Vec<(String, Span)>>,
    /// Deduplicated findings (same code+span+message reported once).
    seen: HashSet<(&'static str, Option<Span>, String)>,
    diags: Vec<Diagnostic>,
}

/// Where an expression occurs, for context-sensitive rules.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    /// Span of the enclosing statement, attached to findings.
    span: Option<Span>,
    /// `next(...)` is legal here (TRANS only).
    allow_next: bool,
    /// The variable assigned by `next(var) := ...`, for W004 edges.
    next_assign_target: Option<&'a str>,
}

impl<'m> Pass<'m> {
    fn new(module: &'m Module) -> Pass<'m> {
        let mut vars = HashMap::new();
        let mut defines = HashMap::new();
        let mut enum_syms: HashMap<&str, Vec<&str>> = HashMap::new();
        for section in &module.sections {
            match section {
                Section::Var(decls) => {
                    for d in decls {
                        vars.insert(d.name.as_str(), d);
                        if let VarType::Enum(syms) = &d.ty {
                            for s in syms {
                                enum_syms.entry(s.as_str()).or_default().push(d.name.as_str());
                            }
                        }
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
        Pass {
            vars,
            defines,
            enum_syms,
            reads: HashSet::new(),
            writes: HashSet::new(),
            used_defines: HashSet::new(),
            define_uses: HashMap::new(),
            assigned: HashSet::new(),
            next_deps: HashMap::new(),
            seen: HashSet::new(),
            diags: Vec::new(),
        }
    }

    fn report(&mut self, d: Diagnostic) {
        let key = (d.code, d.span, d.message.clone());
        if self.seen.insert(key) {
            self.diags.push(d);
        }
    }

    fn walk_module(&mut self, module: &'m Module) {
        // DEFINE bodies first: undeclared names in a macro are errors
        // even if the macro is never used, and the per-macro read sets
        // feed the transitive liveness computation.
        for section in &module.sections {
            if let Section::Define(defs) = section {
                for (name, body) in defs {
                    let mut var_reads = HashSet::new();
                    let mut def_reads = HashSet::new();
                    self.walk_define_body(body, &mut var_reads, &mut def_reads);
                    self.define_uses.insert(name.clone(), (var_reads, def_reads));
                }
            }
        }
        for section in &module.sections {
            match section {
                Section::Var(_) | Section::Define(_) => {}
                Section::Assign(assigns) => {
                    for a in assigns {
                        self.walk_assign(a);
                    }
                }
                Section::Init(e, span) => {
                    let ctx =
                        Ctx { span: Some(*span), allow_next: false, next_assign_target: None };
                    self.walk(e, ctx);
                }
                Section::Trans(e, span) => {
                    let ctx = Ctx { span: Some(*span), allow_next: true, next_assign_target: None };
                    self.walk(e, ctx);
                }
                Section::Fairness(e, span) => {
                    let ctx =
                        Ctx { span: Some(*span), allow_next: false, next_assign_target: None };
                    self.walk(e, ctx);
                }
                Section::Spec(spec, span) => {
                    let ctx =
                        Ctx { span: Some(*span), allow_next: false, next_assign_target: None };
                    for leaf in spec.leaves() {
                        self.walk(leaf, ctx);
                    }
                }
            }
        }
    }

    fn walk_assign(&mut self, a: &'m Assign) {
        let span = a.span;
        if !self.vars.contains_key(a.var.as_str()) {
            self.report(Diagnostic::error(
                "E010",
                format!("assignment to undeclared variable `{}`", a.var),
                Some(span),
            ));
        } else {
            self.writes.insert(a.var.clone());
        }
        if !self.assigned.insert((a.var.clone(), a.kind)) {
            let what = match a.kind {
                AssignKind::Init => "init",
                AssignKind::Next => "next",
            };
            self.report(Diagnostic::error(
                "E011",
                format!("duplicate assignment: `{what}({})` is assigned more than once", a.var),
                Some(span),
            ));
        }
        let target = match a.kind {
            AssignKind::Next => Some(a.var.as_str()),
            AssignKind::Init => None,
        };
        let ctx = Ctx { span: Some(span), allow_next: false, next_assign_target: target };
        self.walk(&a.rhs, ctx);
        if let Some(decl) = self.vars.get(a.var.as_str()).copied() {
            self.check_assign_values(decl, &a.rhs, span);
        }
    }

    /// E012: constants in *value position* of an assignment RHS that lie
    /// outside the assigned variable's domain. Value positions are the
    /// RHS itself, `case` branch values and set elements; a constant in
    /// a guard or arithmetic subexpression is not a stored value.
    fn check_assign_values(&mut self, decl: &'m Decl, rhs: &'m Expr, span: Span) {
        match rhs {
            Expr::Case(branches) => {
                for b in branches {
                    self.check_assign_values(decl, &b.value, b.span);
                }
            }
            Expr::Set(elems) => {
                for e in elems {
                    self.check_assign_values(decl, e, span);
                }
            }
            Expr::Int(k) => {
                if let VarType::Range(lo, hi) = decl.ty {
                    if *k < lo || *k > hi {
                        self.report(Diagnostic::error(
                            "E012",
                            format!(
                                "constant {k} is outside the domain {lo}..{hi} of `{}`",
                                decl.name
                            ),
                            Some(span),
                        ));
                    }
                }
            }
            Expr::Ident(s) => {
                // An enum symbol assigned to a variable of a *different*
                // enum type can never be stored.
                if let VarType::Enum(syms) = &decl.ty {
                    let is_value = !self.vars.contains_key(s.as_str())
                        && !self.defines.contains_key(s.as_str())
                        && self.enum_syms.contains_key(s.as_str());
                    if is_value && !syms.contains(s) {
                        self.report(Diagnostic::error(
                            "E012",
                            format!("symbol `{s}` is not in the domain of `{}`", decl.name),
                            Some(span),
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// Walks a `DEFINE` body, recording reads without marking liveness
    /// (a macro read only counts once the macro itself is used).
    fn walk_define_body(
        &mut self,
        e: &'m Expr,
        var_reads: &mut HashSet<String>,
        def_reads: &mut HashSet<String>,
    ) {
        match e {
            Expr::Ident(name) => {
                if self.vars.contains_key(name.as_str()) {
                    var_reads.insert(name.clone());
                } else if self.defines.contains_key(name.as_str()) {
                    def_reads.insert(name.clone());
                } else if !self.enum_syms.contains_key(name.as_str()) {
                    self.report(Diagnostic::error(
                        "E010",
                        format!("unknown identifier `{name}` in DEFINE"),
                        None,
                    ));
                }
            }
            Expr::Next(name) => {
                self.report(Diagnostic::error(
                    "E002",
                    format!("`next({name})` is only allowed inside TRANS"),
                    None,
                ));
            }
            _ => {
                for child in e.children() {
                    self.walk_define_body(child, var_reads, def_reads);
                }
            }
        }
    }

    fn walk(&mut self, e: &'m Expr, ctx: Ctx<'m>) {
        match e {
            Expr::Bool(_) | Expr::Int(_) => {}
            Expr::Ident(name) => {
                if self.vars.contains_key(name.as_str()) {
                    self.reads.insert(name.clone());
                } else if self.defines.contains_key(name.as_str()) {
                    self.used_defines.insert(name.clone());
                } else if !self.enum_syms.contains_key(name.as_str()) {
                    self.report(Diagnostic::error(
                        "E010",
                        format!("unknown identifier `{name}`"),
                        ctx.span,
                    ));
                }
            }
            Expr::Next(name) => {
                if self.vars.contains_key(name.as_str()) {
                    self.reads.insert(name.clone());
                } else {
                    self.report(Diagnostic::error(
                        "E010",
                        format!("`next({name})` refers to an undeclared variable"),
                        ctx.span,
                    ));
                }
                if !ctx.allow_next {
                    self.report(Diagnostic::error(
                        "E002",
                        format!("`next({name})` is only allowed inside TRANS"),
                        ctx.span,
                    ));
                }
                // Even though the compiler rejects next() in an assign
                // RHS, record the dependency so the circularity is
                // reported alongside the placement error.
                if let (Some(target), Some(span)) = (ctx.next_assign_target, ctx.span) {
                    self.next_deps
                        .entry(target.to_string())
                        .or_default()
                        .push((name.clone(), span));
                }
            }
            Expr::Case(branches) => {
                let mut shadowed_from = None;
                for (i, b) in branches.iter().enumerate() {
                    if let Some(first_true) = shadowed_from {
                        self.report(Diagnostic::warning(
                            "W003",
                            format!(
                                "`case` branch {} is unreachable: branch {} has a literal \
                                 TRUE guard",
                                i + 1,
                                first_true + 1
                            ),
                            Some(b.span),
                        ));
                    }
                    let bctx = Ctx { span: Some(b.span), ..ctx };
                    self.walk(&b.condition, bctx);
                    self.walk(&b.value, bctx);
                    if shadowed_from.is_none() && matches!(b.condition, Expr::Bool(true)) {
                        shadowed_from = Some(i);
                    }
                }
            }
            Expr::Eq(a, b)
            | Expr::Neq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b) => {
                self.check_constant_comparison(e, a, b, ctx.span);
                self.walk(a, ctx);
                self.walk(b, ctx);
            }
            _ => {
                for child in e.children() {
                    self.walk(child, ctx);
                }
            }
        }
    }

    /// W005: a comparison of a variable against a literal that is decided
    /// by the variable's domain alone.
    fn check_constant_comparison(
        &mut self,
        cmp: &'m Expr,
        a: &'m Expr,
        b: &'m Expr,
        span: Option<Span>,
    ) {
        // Normalize to (variable, literal); flip the ordering when the
        // literal is on the left.
        let (var, lit, flipped) = match (a, b) {
            (Expr::Ident(v), lit @ (Expr::Int(_) | Expr::Ident(_)))
                if self.vars.contains_key(v.as_str()) =>
            {
                (v.as_str(), lit, false)
            }
            (lit @ Expr::Int(_), Expr::Ident(v)) if self.vars.contains_key(v.as_str()) => {
                (v.as_str(), lit, true)
            }
            _ => return,
        };
        let decl = self.vars[var];
        let verdict = match (&decl.ty, lit) {
            (VarType::Range(lo, hi), Expr::Int(k)) => {
                let (lo, hi, k) = (*lo, *hi, *k);
                match cmp {
                    Expr::Eq(..) if k < lo || k > hi => Some(false),
                    Expr::Neq(..) if k < lo || k > hi => Some(true),
                    Expr::Lt(..) | Expr::Le(..) | Expr::Gt(..) | Expr::Ge(..) => {
                        // `var OP k` (or its flip) over the whole domain.
                        let decide = |f: &dyn Fn(i64) -> bool| {
                            if f(lo) && f(hi) {
                                Some(true)
                            } else if !f(lo) && !f(hi) {
                                Some(false)
                            } else {
                                None
                            }
                        };
                        match (cmp, flipped) {
                            (Expr::Lt(..), false) => decide(&|v| v < k),
                            (Expr::Lt(..), true) => decide(&|v| k < v),
                            (Expr::Le(..), false) => decide(&|v| v <= k),
                            (Expr::Le(..), true) => decide(&|v| k <= v),
                            (Expr::Gt(..), false) => decide(&|v| v > k),
                            (Expr::Gt(..), true) => decide(&|v| k > v),
                            (Expr::Ge(..), false) => decide(&|v| v >= k),
                            (Expr::Ge(..), true) => decide(&|v| k >= v),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            }
            (VarType::Enum(syms), Expr::Ident(s)) => {
                let is_foreign_symbol = !self.vars.contains_key(s.as_str())
                    && !self.defines.contains_key(s.as_str())
                    && self.enum_syms.contains_key(s.as_str())
                    && !syms.contains(s);
                match (cmp, is_foreign_symbol) {
                    (Expr::Eq(..), true) => Some(false),
                    (Expr::Neq(..), true) => Some(true),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(value) = verdict {
            let domain = match &decl.ty {
                VarType::Range(lo, hi) => format!("{lo}..{hi}"),
                VarType::Enum(syms) => format!("{{{}}}", syms.join(", ")),
                _ => String::new(),
            };
            self.report(Diagnostic::warning(
                "W005",
                format!(
                    "comparison `{cmp}` is always {}: `{var}` ranges over {domain}",
                    if value { "TRUE" } else { "FALSE" }
                ),
                span,
            ));
        }
    }

    /// Emits the whole-module findings (liveness, circularity) and moves
    /// everything into the report.
    fn finish(mut self, module: &'m Module, report: &mut Report) {
        // Close the read set over used DEFINE macros.
        let mut frontier: Vec<String> = self.used_defines.iter().cloned().collect();
        let mut expanded: HashSet<String> = HashSet::new();
        while let Some(name) = frontier.pop() {
            if !expanded.insert(name.clone()) {
                continue;
            }
            if let Some((var_reads, def_reads)) = self.define_uses.get(&name) {
                self.reads.extend(var_reads.iter().cloned());
                frontier.extend(def_reads.iter().cloned());
            }
        }

        // W001 / W002, in declaration order.
        for section in &module.sections {
            if let Section::Var(decls) = section {
                for d in decls {
                    if matches!(d.ty, VarType::Instance(..)) || self.reads.contains(&d.name) {
                        continue;
                    }
                    if self.writes.contains(&d.name) {
                        self.report(
                            Diagnostic::warning(
                                "W002",
                                format!("variable `{}` is assigned but never read", d.name),
                                Some(d.span),
                            )
                            .with_note(
                                "its value cannot influence any specification or transition",
                            ),
                        );
                    } else {
                        self.report(Diagnostic::warning(
                            "W001",
                            format!("variable `{}` is declared but never used", d.name),
                            Some(d.span),
                        ));
                    }
                }
            }
        }

        // W004: cycles in the next() dependency graph.
        self.report_next_cycles();

        for d in self.diags {
            report.push(d);
        }
    }

    /// DFS over `next_deps`, reporting each dependency cycle once at the
    /// span of the assignment whose edge closes it. Roots go in name
    /// order and edges in assignment order; the walk keeps its own stack,
    /// since a `next()` chain may be longer than the thread's.
    fn report_next_cycles(&mut self) {
        let deps = &self.next_deps;
        let mut found: Vec<(Vec<String>, Span)> = Vec::new();
        // Absent = unvisited, 1 = on the current DFS path, 2 = fully
        // explored.
        let mut state: HashMap<&str, u8> = HashMap::new();
        let mut roots: Vec<&String> = deps.keys().collect();
        roots.sort();
        for root in roots {
            if state.contains_key(root.as_str()) {
                continue;
            }
            // The current path, each node with its next edge to follow.
            let mut path: Vec<(&str, usize)> = vec![(root, 0)];
            state.insert(root, 1);
            while let Some(&mut (node, ref mut next)) = path.last_mut() {
                let Some((dep, span)) = deps.get(node).and_then(|edges| edges.get(*next)) else {
                    state.insert(node, 2);
                    path.pop();
                    continue;
                };
                *next += 1;
                match state.get(dep.as_str()) {
                    None => {
                        state.insert(dep, 1);
                        path.push((dep, 0));
                    }
                    Some(1) => {
                        let start = path.iter().position(|(n, _)| n == dep).unwrap_or(0);
                        let cycle = path[start..].iter().map(|(n, _)| n.to_string()).collect();
                        found.push((cycle, *span));
                    }
                    Some(_) => {}
                }
            }
        }
        for (cycle, span) in found {
            let chain = cycle
                .iter()
                .chain(cycle.first())
                .map(|n| format!("next({n})"))
                .collect::<Vec<_>>()
                .join(" -> ");
            self.report(
                Diagnostic::warning(
                    "W004",
                    format!("circular `next()` dependency: {chain}"),
                    Some(span),
                )
                .with_note("the assignments cannot be evaluated in any order"),
            );
        }
    }
}
