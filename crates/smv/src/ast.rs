//! Abstract syntax of the SMV subset.

use std::fmt;

use smc_logic::Ctl;

/// A half-open byte range `start..end` into the source text.
///
/// Spans survive flattening unchanged: every module lives in the same
/// source string, so a construct expanded out of a sub-module still
/// points at its original definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A new span.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A one-byte span at `pos` (used for parse errors, which record a
    /// single offending offset).
    pub fn point(pos: usize) -> Span {
        Span { start: pos, end: pos + 1 }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

/// A parsed program: one or more modules, among them `main`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The modules, in source order.
    pub modules: Vec<Module>,
}

impl Program {
    /// The `main` module, if declared.
    pub fn main(&self) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == "main")
    }

    /// Looks a module up by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// One `MODULE name(params) …` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (`main` is the entry point).
    pub name: String,
    /// Formal parameters (bound to expressions at instantiation).
    pub params: Vec<String>,
    /// The sections, in source order.
    pub sections: Vec<Section>,
}

/// One section of a module.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// `VAR` declarations.
    Var(Vec<Decl>),
    /// `ASSIGN` blocks: `init(x) := e;` / `next(x) := e;`.
    Assign(Vec<Assign>),
    /// `DEFINE` macros: `name := e;`.
    Define(Vec<(String, Expr)>),
    /// A raw `INIT` constraint.
    Init(Expr, Span),
    /// A raw `TRANS` constraint (may mention `next(…)`).
    Trans(Expr, Span),
    /// A `FAIRNESS` constraint.
    Fairness(Expr, Span),
    /// A CTL `SPEC`.
    Spec(Spec, Span),
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Variable name.
    pub name: String,
    /// Its type.
    pub ty: VarType,
    /// Source span of the whole declaration (`name : type;`).
    pub span: Span,
}

/// Variable types.
#[derive(Debug, Clone, PartialEq)]
pub enum VarType {
    /// `boolean`.
    Boolean,
    /// An enumeration `{a, b, c}`.
    Enum(Vec<String>),
    /// An integer range `lo..hi` (inclusive).
    Range(i64, i64),
    /// A module instantiation `name(args)`; flattened away before
    /// compilation.
    Instance(String, Vec<Expr>),
}

/// One `ASSIGN` item.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// The assigned variable.
    pub var: String,
    /// `init(...)` or `next(...)`.
    pub kind: AssignKind,
    /// The right-hand side (may be a choice set or `case`).
    pub rhs: Expr,
    /// Source span of the whole statement (`init(x) := e;`).
    pub span: Span,
}

/// Which rail an assignment constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignKind {
    /// `init(x) := …`.
    Init,
    /// `next(x) := …`.
    Next,
}

/// One branch of a `case … esac`.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseBranch {
    /// The guard condition.
    pub condition: Expr,
    /// The branch value.
    pub value: Expr,
    /// Source span of the branch (`condition : value;`).
    pub span: Span,
}

/// SMV expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Identifier: a variable, enum symbol or `DEFINE` macro.
    Ident(String),
    /// `next(x)` — the next-state copy (TRANS only).
    Next(String),
    /// `!e`.
    Not(Box<Expr>),
    /// `e & e`.
    And(Box<Expr>, Box<Expr>),
    /// `e | e`.
    Or(Box<Expr>, Box<Expr>),
    /// `e -> e`.
    Implies(Box<Expr>, Box<Expr>),
    /// `e <-> e`.
    Iff(Box<Expr>, Box<Expr>),
    /// `e = e`.
    Eq(Box<Expr>, Box<Expr>),
    /// `e != e`.
    Neq(Box<Expr>, Box<Expr>),
    /// `e < e`.
    Lt(Box<Expr>, Box<Expr>),
    /// `e <= e`.
    Le(Box<Expr>, Box<Expr>),
    /// `e > e`.
    Gt(Box<Expr>, Box<Expr>),
    /// `e >= e`.
    Ge(Box<Expr>, Box<Expr>),
    /// `e + e`.
    Add(Box<Expr>, Box<Expr>),
    /// `e - e`.
    Sub(Box<Expr>, Box<Expr>),
    /// `e * e`.
    Mul(Box<Expr>, Box<Expr>),
    /// `e mod e`.
    Mod(Box<Expr>, Box<Expr>),
    /// `case cond : value ; … esac` (first matching branch).
    Case(Vec<CaseBranch>),
    /// Nondeterministic choice `{e, e, …}` (assignment RHS only).
    Set(Vec<Expr>),
}

impl Expr {
    /// All direct subexpressions, for generic traversal.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Bool(_) | Expr::Int(_) | Expr::Ident(_) | Expr::Next(_) => Vec::new(),
            Expr::Not(a) => vec![a],
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Implies(a, b)
            | Expr::Iff(a, b)
            | Expr::Eq(a, b)
            | Expr::Neq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Mod(a, b) => vec![a, b],
            Expr::Case(branches) => {
                branches.iter().flat_map(|b| [&b.condition, &b.value]).collect()
            }
            Expr::Set(elems) => elems.iter().collect(),
        }
    }

    /// Binding strength for the pretty-printer (looser = smaller).
    fn precedence(&self) -> u8 {
        match self {
            Expr::Iff(..) => 1,
            Expr::Implies(..) => 2,
            Expr::Or(..) => 3,
            Expr::And(..) => 4,
            Expr::Not(..) => 5,
            Expr::Eq(..)
            | Expr::Neq(..)
            | Expr::Lt(..)
            | Expr::Le(..)
            | Expr::Gt(..)
            | Expr::Ge(..) => 6,
            Expr::Add(..) | Expr::Sub(..) => 7,
            Expr::Mul(..) | Expr::Mod(..) => 8,
            _ => 9,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let prec = self.precedence();
        if prec < min {
            write!(f, "(")?;
        }
        match self {
            Expr::Bool(true) => write!(f, "TRUE")?,
            Expr::Bool(false) => write!(f, "FALSE")?,
            Expr::Int(v) => write!(f, "{v}")?,
            Expr::Ident(name) => write!(f, "{name}")?,
            Expr::Next(name) => write!(f, "next({name})")?,
            Expr::Not(e) => {
                write!(f, "!")?;
                e.fmt_prec(f, prec)?;
            }
            Expr::And(a, b) => Self::fmt_binop(f, a, "&", b, prec)?,
            Expr::Or(a, b) => Self::fmt_binop(f, a, "|", b, prec)?,
            Expr::Implies(a, b) => Self::fmt_binop(f, a, "->", b, prec)?,
            Expr::Iff(a, b) => Self::fmt_binop(f, a, "<->", b, prec)?,
            Expr::Eq(a, b) => Self::fmt_binop(f, a, "=", b, prec)?,
            Expr::Neq(a, b) => Self::fmt_binop(f, a, "!=", b, prec)?,
            Expr::Lt(a, b) => Self::fmt_binop(f, a, "<", b, prec)?,
            Expr::Le(a, b) => Self::fmt_binop(f, a, "<=", b, prec)?,
            Expr::Gt(a, b) => Self::fmt_binop(f, a, ">", b, prec)?,
            Expr::Ge(a, b) => Self::fmt_binop(f, a, ">=", b, prec)?,
            Expr::Add(a, b) => Self::fmt_binop(f, a, "+", b, prec)?,
            Expr::Sub(a, b) => Self::fmt_binop(f, a, "-", b, prec)?,
            Expr::Mul(a, b) => Self::fmt_binop(f, a, "*", b, prec)?,
            Expr::Mod(a, b) => Self::fmt_binop(f, a, "mod", b, prec)?,
            Expr::Case(branches) => {
                write!(f, "case ")?;
                for b in branches {
                    write!(f, "{} : {}; ", b.condition, b.value)?;
                }
                write!(f, "esac")?;
            }
            Expr::Set(elements) => {
                write!(f, "{{")?;
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")?;
            }
        }
        if prec < min {
            write!(f, ")")?;
        }
        Ok(())
    }

    fn fmt_binop(
        f: &mut fmt::Formatter<'_>,
        a: &Expr,
        op: &str,
        b: &Expr,
        prec: u8,
    ) -> fmt::Result {
        a.fmt_prec(f, prec)?;
        write!(f, " {op} ")?;
        b.fmt_prec(f, prec + 1)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// A CTL specification whose leaves are SMV expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A propositional leaf.
    Expr(Expr),
    /// Negation.
    Not(Box<Spec>),
    /// Conjunction.
    And(Box<Spec>, Box<Spec>),
    /// Disjunction.
    Or(Box<Spec>, Box<Spec>),
    /// Implication.
    Implies(Box<Spec>, Box<Spec>),
    /// Equivalence.
    Iff(Box<Spec>, Box<Spec>),
    /// `EX`.
    Ex(Box<Spec>),
    /// `EF`.
    Ef(Box<Spec>),
    /// `EG`.
    Eg(Box<Spec>),
    /// `E [φ U ψ]`.
    Eu(Box<Spec>, Box<Spec>),
    /// `AX`.
    Ax(Box<Spec>),
    /// `AF`.
    Af(Box<Spec>),
    /// `AG`.
    Ag(Box<Spec>),
    /// `A [φ U ψ]`.
    Au(Box<Spec>, Box<Spec>),
}

impl Spec {
    /// Maps the spec to a [`Ctl`] formula by converting each leaf with
    /// `leaf` (the compiler registers a model label per leaf).
    pub fn to_ctl<E>(&self, leaf: &mut impl FnMut(&Expr) -> Result<Ctl, E>) -> Result<Ctl, E> {
        Ok(match self {
            Spec::Expr(e) => leaf(e)?,
            Spec::Not(s) => Ctl::not(s.to_ctl(leaf)?),
            Spec::And(a, b) => Ctl::and(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
            Spec::Or(a, b) => Ctl::or(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
            Spec::Implies(a, b) => Ctl::implies(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
            Spec::Iff(a, b) => Ctl::iff(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
            Spec::Ex(s) => Ctl::ex(s.to_ctl(leaf)?),
            Spec::Ef(s) => Ctl::ef(s.to_ctl(leaf)?),
            Spec::Eg(s) => Ctl::eg(s.to_ctl(leaf)?),
            Spec::Eu(a, b) => Ctl::eu(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
            Spec::Ax(s) => Ctl::ax(s.to_ctl(leaf)?),
            Spec::Af(s) => Ctl::af(s.to_ctl(leaf)?),
            Spec::Ag(s) => Ctl::ag(s.to_ctl(leaf)?),
            Spec::Au(a, b) => Ctl::au(a.to_ctl(leaf)?, b.to_ctl(leaf)?),
        })
    }

    /// An upper bound on the size of the formula the checker runs, once
    /// `<->`, `->` and the universal operators are rewritten into the
    /// existential basis ([`Ctl::existential_size`]). Every leaf counts
    /// as an atom: a constant leaf can only fold the real formula smaller.
    pub(crate) fn existential_size(&self) -> usize {
        let Ok(ctl) =
            self.to_ctl(&mut |_| Ok::<_, std::convert::Infallible>(Ctl::Atom(String::new())));
        ctl.existential_size()
    }

    /// Visits the propositional leaves in `to_ctl` registration order.
    pub fn leaves(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Spec::Expr(e) => out.push(e),
            Spec::Not(s)
            | Spec::Ex(s)
            | Spec::Ef(s)
            | Spec::Eg(s)
            | Spec::Ax(s)
            | Spec::Af(s)
            | Spec::Ag(s) => s.collect_leaves(out),
            Spec::And(a, b)
            | Spec::Or(a, b)
            | Spec::Implies(a, b)
            | Spec::Iff(a, b)
            | Spec::Eu(a, b)
            | Spec::Au(a, b) => {
                a.collect_leaves(out);
                b.collect_leaves(out);
            }
        }
    }
}
