//! Computation Tree Logic abstract syntax.
//!
//! The existential operators `EX`, `EU`, `EG` are the basis (Section 3 of
//! the paper); the universal forms and `EF`/`AF` are kept in the AST for
//! faithful round-tripping and are expanded by
//! [`Ctl::to_existential_form`] exactly as the paper's abbreviation table
//! prescribes.

use std::fmt;

use crate::error::ParseError;

/// A CTL formula.
///
/// Build formulas with the constructor helpers ([`Ctl::atom`],
/// [`Ctl::ex`], …), the [`parse`] function, or plain enum construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ctl {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// An atomic proposition, resolved against the model's labels.
    Atom(String),
    /// Negation.
    Not(Box<Ctl>),
    /// Conjunction.
    And(Box<Ctl>, Box<Ctl>),
    /// Disjunction.
    Or(Box<Ctl>, Box<Ctl>),
    /// Implication.
    Implies(Box<Ctl>, Box<Ctl>),
    /// Equivalence.
    Iff(Box<Ctl>, Box<Ctl>),
    /// `EX f` — some successor satisfies `f`.
    Ex(Box<Ctl>),
    /// `EF f` — some path reaches `f`.
    Ef(Box<Ctl>),
    /// `EG f` — some path satisfies `f` globally.
    Eg(Box<Ctl>),
    /// `E[f U g]` — some path satisfies `f` until `g`.
    Eu(Box<Ctl>, Box<Ctl>),
    /// `AX f` — every successor satisfies `f`.
    Ax(Box<Ctl>),
    /// `AF f` — every path reaches `f`.
    Af(Box<Ctl>),
    /// `AG f` — every path satisfies `f` globally.
    Ag(Box<Ctl>),
    /// `A[f U g]` — every path satisfies `f` until `g`.
    Au(Box<Ctl>, Box<Ctl>),
}

impl Ctl {
    /// An atomic proposition.
    pub fn atom(name: impl Into<String>) -> Ctl {
        Ctl::Atom(name.into())
    }

    /// Negation, collapsing double negations.
    #[allow(clippy::should_implement_trait)] // associated constructor, not a `!` operator on self
    pub fn not(f: Ctl) -> Ctl {
        match f {
            Ctl::Not(inner) => *inner,
            Ctl::True => Ctl::False,
            Ctl::False => Ctl::True,
            other => Ctl::Not(Box::new(other)),
        }
    }

    /// Conjunction with unit/zero simplification.
    pub fn and(f: Ctl, g: Ctl) -> Ctl {
        match (f, g) {
            (Ctl::True, g) => g,
            (f, Ctl::True) => f,
            (Ctl::False, _) | (_, Ctl::False) => Ctl::False,
            (f, g) => Ctl::And(Box::new(f), Box::new(g)),
        }
    }

    /// Disjunction with unit/zero simplification.
    pub fn or(f: Ctl, g: Ctl) -> Ctl {
        match (f, g) {
            (Ctl::False, g) => g,
            (f, Ctl::False) => f,
            (Ctl::True, _) | (_, Ctl::True) => Ctl::True,
            (f, g) => Ctl::Or(Box::new(f), Box::new(g)),
        }
    }

    /// Implication.
    pub fn implies(f: Ctl, g: Ctl) -> Ctl {
        Ctl::Implies(Box::new(f), Box::new(g))
    }

    /// Equivalence.
    pub fn iff(f: Ctl, g: Ctl) -> Ctl {
        Ctl::Iff(Box::new(f), Box::new(g))
    }

    /// `EX f`.
    pub fn ex(f: Ctl) -> Ctl {
        Ctl::Ex(Box::new(f))
    }

    /// `EF f`.
    pub fn ef(f: Ctl) -> Ctl {
        Ctl::Ef(Box::new(f))
    }

    /// `EG f`.
    pub fn eg(f: Ctl) -> Ctl {
        Ctl::Eg(Box::new(f))
    }

    /// `E[f U g]`.
    pub fn eu(f: Ctl, g: Ctl) -> Ctl {
        Ctl::Eu(Box::new(f), Box::new(g))
    }

    /// `AX f`.
    pub fn ax(f: Ctl) -> Ctl {
        Ctl::Ax(Box::new(f))
    }

    /// `AF f`.
    pub fn af(f: Ctl) -> Ctl {
        Ctl::Af(Box::new(f))
    }

    /// `AG f`.
    pub fn ag(f: Ctl) -> Ctl {
        Ctl::Ag(Box::new(f))
    }

    /// `A[f U g]`.
    pub fn au(f: Ctl, g: Ctl) -> Ctl {
        Ctl::Au(Box::new(f), Box::new(g))
    }

    /// Rewrites the formula into the existential basis
    /// `{¬, ∨, ∧, EX, EU, EG}` using the paper's abbreviations:
    ///
    /// - `EF f  ≡ E[true U f]`
    /// - `AX f  ≡ ¬EX ¬f`
    /// - `AF f  ≡ ¬EG ¬f`
    /// - `AG f  ≡ ¬E[true U ¬f]`
    /// - `A[f U g] ≡ ¬E[¬g U ¬f ∧ ¬g] ∧ ¬EG ¬g`
    ///
    /// `→` and `↔` are expanded into `¬`/`∨`/`∧`.
    pub fn to_existential_form(&self) -> Ctl {
        match self {
            Ctl::True | Ctl::False | Ctl::Atom(_) => self.clone(),
            Ctl::Not(f) => Ctl::not(f.to_existential_form()),
            Ctl::And(f, g) => Ctl::and(f.to_existential_form(), g.to_existential_form()),
            Ctl::Or(f, g) => Ctl::or(f.to_existential_form(), g.to_existential_form()),
            Ctl::Implies(f, g) => {
                Ctl::or(Ctl::not(f.to_existential_form()), g.to_existential_form())
            }
            Ctl::Iff(f, g) => {
                let fe = f.to_existential_form();
                let ge = g.to_existential_form();
                Ctl::or(Ctl::and(fe.clone(), ge.clone()), Ctl::and(Ctl::not(fe), Ctl::not(ge)))
            }
            Ctl::Ex(f) => Ctl::ex(f.to_existential_form()),
            Ctl::Ef(f) => Ctl::eu(Ctl::True, f.to_existential_form()),
            Ctl::Eg(f) => Ctl::eg(f.to_existential_form()),
            Ctl::Eu(f, g) => Ctl::eu(f.to_existential_form(), g.to_existential_form()),
            Ctl::Ax(f) => Ctl::not(Ctl::ex(Ctl::not(f.to_existential_form()))),
            Ctl::Af(f) => Ctl::not(Ctl::eg(Ctl::not(f.to_existential_form()))),
            Ctl::Ag(f) => Ctl::not(Ctl::eu(Ctl::True, Ctl::not(f.to_existential_form()))),
            Ctl::Au(f, g) => {
                let fe = f.to_existential_form();
                let ge = g.to_existential_form();
                let nf = Ctl::not(fe);
                let ng = Ctl::not(ge.clone());
                Ctl::and(
                    Ctl::not(Ctl::eu(ng.clone(), Ctl::and(nf, ng.clone()))),
                    Ctl::not(Ctl::eg(ng)),
                )
            }
        }
    }

    /// An upper bound on the node count of
    /// [`to_existential_form`](Self::to_existential_form)'s result,
    /// computed without building it (saturating; exact unless double
    /// negations or constants simplify away). `<->` and `A[f U g]` copy
    /// their operands, so it can be exponential in the formula's own size.
    pub fn existential_size(&self) -> usize {
        let s = |f: &Ctl| f.existential_size();
        let sum = |parts: &[usize]| parts.iter().fold(0usize, |acc, &n| acc.saturating_add(n));
        match self {
            Ctl::True | Ctl::False | Ctl::Atom(_) => 1,
            Ctl::Not(f) | Ctl::Ex(f) | Ctl::Eg(f) => sum(&[1, s(f)]),
            Ctl::Ef(f) => sum(&[2, s(f)]),
            Ctl::Ax(f) | Ctl::Af(f) => sum(&[3, s(f)]),
            Ctl::Ag(f) => sum(&[4, s(f)]),
            Ctl::And(f, g) | Ctl::Or(f, g) | Ctl::Eu(f, g) => sum(&[1, s(f), s(g)]),
            Ctl::Implies(f, g) => sum(&[2, s(f), s(g)]),
            Ctl::Iff(f, g) => {
                let (f, g) = (s(f), s(g));
                sum(&[5, f, f, g, g])
            }
            Ctl::Au(f, g) => {
                let g = s(g);
                sum(&[10, s(f), g, g, g])
            }
        }
    }

    /// The atomic propositions occurring in the formula, deduplicated in
    /// first-occurrence order.
    pub fn atoms(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Ctl::True | Ctl::False => {}
            Ctl::Atom(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            Ctl::Not(f)
            | Ctl::Ex(f)
            | Ctl::Ef(f)
            | Ctl::Eg(f)
            | Ctl::Ax(f)
            | Ctl::Af(f)
            | Ctl::Ag(f) => f.collect_atoms(out),
            Ctl::And(f, g)
            | Ctl::Or(f, g)
            | Ctl::Implies(f, g)
            | Ctl::Iff(f, g)
            | Ctl::Eu(f, g)
            | Ctl::Au(f, g) => {
                f.collect_atoms(out);
                g.collect_atoms(out);
            }
        }
    }

    /// Does the formula start with a universal path quantifier? Such
    /// specifications get *counterexamples* (witnesses for the negation);
    /// existential ones get *witnesses* (Section 6 of the paper).
    pub fn is_universal(&self) -> bool {
        matches!(self, Ctl::Ax(_) | Ctl::Af(_) | Ctl::Ag(_) | Ctl::Au(_, _))
    }

    fn precedence(&self) -> u8 {
        match self {
            Ctl::Iff(_, _) => 1,
            Ctl::Implies(_, _) => 2,
            Ctl::Or(_, _) => 3,
            Ctl::And(_, _) => 4,
            _ => 5,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        let prec = self.precedence();
        let parens = prec < parent;
        if parens {
            write!(f, "(")?;
        }
        match self {
            Ctl::True => write!(f, "true")?,
            Ctl::False => write!(f, "false")?,
            Ctl::Atom(name) => write!(f, "{name}")?,
            Ctl::Not(inner) => {
                write!(f, "!")?;
                inner.fmt_prec(f, 6)?;
            }
            Ctl::And(a, b) => {
                a.fmt_prec(f, 4)?;
                write!(f, " & ")?;
                b.fmt_prec(f, 5)?;
            }
            Ctl::Or(a, b) => {
                a.fmt_prec(f, 3)?;
                write!(f, " | ")?;
                b.fmt_prec(f, 4)?;
            }
            Ctl::Implies(a, b) => {
                a.fmt_prec(f, 3)?;
                write!(f, " -> ")?;
                b.fmt_prec(f, 2)?;
            }
            Ctl::Iff(a, b) => {
                a.fmt_prec(f, 2)?;
                write!(f, " <-> ")?;
                b.fmt_prec(f, 2)?;
            }
            Ctl::Ex(inner) => fmt_unary(f, "EX", inner)?,
            Ctl::Ef(inner) => fmt_unary(f, "EF", inner)?,
            Ctl::Eg(inner) => fmt_unary(f, "EG", inner)?,
            Ctl::Ax(inner) => fmt_unary(f, "AX", inner)?,
            Ctl::Af(inner) => fmt_unary(f, "AF", inner)?,
            Ctl::Ag(inner) => fmt_unary(f, "AG", inner)?,
            Ctl::Eu(a, b) => write!(f, "E [{a} U {b}]")?,
            Ctl::Au(a, b) => write!(f, "A [{a} U {b}]")?,
        }
        if parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

fn fmt_unary(f: &mut fmt::Formatter<'_>, op: &str, inner: &Ctl) -> fmt::Result {
    write!(f, "{op} ")?;
    // Temporal operands print with parens unless atomic or unary.
    match inner {
        Ctl::And(_, _) | Ctl::Or(_, _) | Ctl::Implies(_, _) | Ctl::Iff(_, _) => {
            write!(f, "({inner})")
        }
        _ => inner.fmt_prec(f, 5),
    }
}

impl fmt::Display for Ctl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Parses a CTL formula from its textual form.
///
/// Grammar (loosest to tightest): `<->`, `->` (right-assoc), `|`, `&`,
/// then prefix `!`, `EX/EF/EG/AX/AF/AG`, the bracketed untils
/// `E [f U g]` / `A [f U g]`, parentheses, atoms and the constants
/// `true`/`false`.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending byte offset.
///
/// # Examples
///
/// ```
/// use smc_logic::ctl;
///
/// # fn main() -> Result<(), smc_logic::ParseError> {
/// let f = ctl::parse("AG (req -> AF ack)")?;
/// assert!(f.is_universal());
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Ctl, ParseError> {
    crate::parser::parse_ctl(input)
}
