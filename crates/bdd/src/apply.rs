//! Memoized boolean operations: specialized and/or/xor/not recursions
//! plus the general if-then-else.
//!
//! The binary connectives on the model-checking hot path (conjunction,
//! disjunction, difference) get dedicated two-operand recursions, so the
//! key is two ids instead of three; the symmetric ones normalize it, so
//! `a ∧ b` and `b ∧ a` share one computed-table entry. `ite` remains the
//! general case for everything irregular.

use crate::manager::{BddManager, CacheOp};
use crate::node::Bdd;

impl BddManager {
    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// The general recursive workhorse; the symmetric connectives use the
    /// specialized recursions below, everything else is a special case of
    /// this. Memoized through the computed table, so repeated subproblems
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
        // Route the symmetric shapes to the specialized recursions so the
        // two entry points share one memo line.
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

    /// Logical negation `¬f`. Dedicated memoized recursion.
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

    /// Conjunction `f ∧ g`. Dedicated memoized recursion; the cache key is
    /// normalized by operand id so both argument orders share one entry.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f == g {
            return f;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() {
            return f;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (CacheOp::And, a.0, b.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let la = self.level(a);
        let lb = self.level(b);
        let top = la.min(lb);
        let var = self.level2var[top as usize];
        let (a0, a1) = self.cofactors_at(a, top);
        let (b0, b1) = self.cofactors_at(b, top);
        let lo = self.and(a0, b0);
        let hi = self.and(a1, b1);
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
    }

    /// Disjunction `f ∨ g`. Dedicated memoized recursion with a
    /// commutativity-normalized cache key.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f == g {
            return f;
        }
        if f.is_true() || g.is_true() {
            return Bdd::TRUE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (CacheOp::Or, a.0, b.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let la = self.level(a);
        let lb = self.level(b);
        let top = la.min(lb);
        let var = self.level2var[top as usize];
        let (a0, a1) = self.cofactors_at(a, top);
        let (b0, b1) = self.cofactors_at(b, top);
        let lo = self.or(a0, b0);
        let hi = self.or(a1, b1);
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
    }

    /// Exclusive or `f ⊕ g`. Dedicated memoized recursion with a
    /// commutativity-normalized cache key.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f == g {
            return Bdd::FALSE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        if f.is_true() {
            return self.not(g);
        }
        if g.is_true() {
            return self.not(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (CacheOp::Xor, a.0, b.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let la = self.level(a);
        let lb = self.level(b);
        let top = la.min(lb);
        let var = self.level2var[top as usize];
        let (a0, a1) = self.cofactors_at(a, top);
        let (b0, b1) = self.cofactors_at(b, top);
        let lo = self.xor(a0, b0);
        let hi = self.xor(a1, b1);
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
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

    /// Difference `f ∧ ¬g` (set subtraction when BDDs denote state sets).
    /// Dedicated memoized recursion, so `¬g` is never built.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f == g || f.is_false() || g.is_true() {
            return Bdd::FALSE;
        }
        if g.is_false() {
            return f;
        }
        if f.is_true() {
            return self.not(g);
        }
        let key = (CacheOp::Diff, f.0, g.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let top = lf.min(lg);
        let var = self.level2var[top as usize];
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let lo = self.diff(f0, g0);
        let hi = self.diff(f1, g1);
        let result = self.mk(var, lo, hi);
        self.cache_put(key, result);
        result
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
