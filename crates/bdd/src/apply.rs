//! Memoized boolean operations: one two-operand recursion behind
//! and/or/xor/diff, a unary one for not, and the general if-then-else.
//!
//! The binary connectives on the model-checking hot path (conjunction,
//! disjunction, difference) share [`BddManager::apply`], whose key is two
//! ids instead of `ite`'s three; the symmetric ones normalize it, so
//! `a ∧ b` and `b ∧ a` share one computed-table entry. `ite` remains the
//! general case for everything irregular.

use crate::manager::{BddManager, CacheOp};
use crate::node::Bdd;

/// The two-operand connectives that share [`BddManager::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Connective {
    And,
    Or,
    Xor,
    /// `f ∧ ¬g`, the one connective whose operands do not commute.
    Diff,
}

impl Connective {
    /// The connective on constants: its truth table, from which every
    /// terminal case of [`BddManager::apply`] is read.
    #[inline(always)]
    fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Connective::And => a && b,
            Connective::Or => a || b,
            Connective::Xor => a != b,
            Connective::Diff => a && !b,
        }
    }

    /// The connective's own computed-table tag.
    #[inline(always)]
    fn cache_op(self) -> CacheOp {
        match self {
            Connective::And => CacheOp::And,
            Connective::Or => CacheOp::Or,
            Connective::Xor => CacheOp::Xor,
            Connective::Diff => CacheOp::Diff,
        }
    }
}

impl BddManager {
    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// The general recursive workhorse; `and`, `or`, `xor` and `diff`
    /// share their own two-operand recursion, everything else is a
    /// special case of this. Memoized through the computed table, so repeated subproblems
    /// cost one hash lookup — this is what makes the fixpoint iterations
    /// of symbolic model checking tractable.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        // Route the symmetric shapes to the connectives so the two entry
        // points share one memo line.
        if h.is_false() {
            return self.and(f, g);
        }
        if g.is_true() {
            return self.or(f, h);
        }
        if g.is_false() && h.is_true() {
            return self.not(f);
        }
        let key = (CacheOp::Ite, f.0, g.0, h.0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        // Split on the topmost variable of the three operands.
        let lf = self.level(f);
        let lg = self.level(g);
        let lh = self.level(h);
        let top = lf.min(lg).min(lh);
        let var = self.level2var[top as usize];
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
    }

    /// Both cofactors of `b` with respect to the variable at `level`
    /// (identity if `b`'s root is below that level).
    #[inline]
    pub(crate) fn cofactors_at(&self, b: Bdd, level: u32) -> (Bdd, Bdd) {
        if self.level(b) == level {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        }
    }

    /// Logical negation `¬f`. Its own memoized recursion.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f.is_false() {
            return Bdd::TRUE;
        }
        if f.is_true() {
            return Bdd::FALSE;
        }
        let key = (CacheOp::Not, f.0, 0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let n = self.node(f);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let result = self.mk(n.var, lo, hi);
        self.cache_put(key, result);
        result
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Connective::And, f, g)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Connective::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Connective::Xor, f, g)
    }

    /// The one memoized recursion behind [`and`](Self::and),
    /// [`or`](Self::or), [`xor`](Self::xor) and [`diff`](Self::diff):
    /// terminal cases from `op`'s truth table, a cache key with the
    /// operands in id order when `op` commutes, then a split on the top
    /// variable. It recurses through `op`'s own entry point, so each
    /// connective compiles to its own copy with `op` a constant.
    #[inline(always)]
    fn apply(&mut self, op: Connective, f: Bdd, g: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if let Some(result) = self.apply_terminal(op, f, g) {
            return result;
        }
        let (a, b) = if op != Connective::Diff && f.0 > g.0 { (g, f) } else { (f, g) };
        let key = (op.cache_op(), a.0, b.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let top = self.level(a).min(self.level(b));
        let var = self.level2var[top as usize];
        let (a0, a1) = self.cofactors_at(a, top);
        let (b0, b1) = self.cofactors_at(b, top);
        let (lo, hi) = match op {
            Connective::And => (self.and(a0, b0), self.and(a1, b1)),
            Connective::Or => (self.or(a0, b0), self.or(a1, b1)),
            Connective::Xor => (self.xor(a0, b0), self.xor(a1, b1)),
            Connective::Diff => (self.diff(a0, b0), self.diff(a1, b1)),
        };
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
    }

    /// `op(f, g)` when equal or constant operands decide it without a
    /// split: a constant, one operand, or the other's negation.
    #[inline(always)]
    fn apply_terminal(&mut self, op: Connective, f: Bdd, g: Bdd) -> Option<Bdd> {
        if f == g {
            return Some(self.unary(op.eval(false, false), op.eval(true, true), f));
        }
        match (f.is_const(), g.is_const()) {
            (true, true) => Some(self.constant(op.eval(f.is_true(), g.is_true()))),
            (true, false) => {
                Some(self.unary(op.eval(f.is_true(), false), op.eval(f.is_true(), true), g))
            }
            (false, true) => {
                Some(self.unary(op.eval(false, g.is_true()), op.eval(true, g.is_true()), f))
            }
            (false, false) => None,
        }
    }

    /// The function of `x` that is `at0` where `x` is false and `at1`
    /// where it is true.
    #[inline(always)]
    fn unary(&mut self, at0: bool, at1: bool, x: Bdd) -> Bdd {
        match (at0, at1) {
            (false, true) => x,
            (true, false) => self.not(x),
            (value, _) => self.constant(value),
        }
    }

    /// Equivalence `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Difference `f ∧ ¬g` (set subtraction when BDDs denote state sets),
    /// so `¬g` is never built.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Connective::Diff, f, g)
    }

    /// Joint denial `¬(f ∨ g)`.
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let o = self.or(f, g);
        self.not(o)
    }

    /// Alternative denial `¬(f ∧ g)`.
    pub fn nand(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let a = self.and(f, g);
        self.not(a)
    }

    /// N-ary conjunction. Returns `true` for an empty iterator.
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, operands: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for b in operands {
            acc = self.and(acc, b);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// N-ary disjunction. Returns `false` for an empty iterator.
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, operands: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for b in operands {
            acc = self.or(acc, b);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Is `f ⊆ g` when both are viewed as sets of assignments
    /// (i.e. does `f → g` hold universally)?
    pub fn is_subset(&mut self, f: Bdd, g: Bdd) -> bool {
        self.diff(f, g).is_false()
    }

    /// Do `f` and `g` share at least one satisfying assignment?
    pub fn intersects(&mut self, f: Bdd, g: Bdd) -> bool {
        !self.and(f, g).is_false()
    }
}
