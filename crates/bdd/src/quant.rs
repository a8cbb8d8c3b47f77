//! Quantification and the fused relational product.

use crate::manager::{BddManager, CacheOp};
use crate::node::{Bdd, Var};
use crate::subst::NodeMemo;

impl BddManager {
    /// Builds the cube (positive conjunction) of a set of variables, the
    /// representation quantifiers take their variable sets in.
    ///
    /// # Panics
    ///
    /// Panics if any variable does not belong to this manager.
    pub fn cube(&mut self, vars: &[Var]) -> Bdd {
        // Build bottom-up in order, largest level first, so each `mk` is a
        // single node creation.
        let mut sorted: Vec<Var> = vars.to_vec();
        sorted.sort_by_key(|v| std::cmp::Reverse(self.level_of_var(*v)));
        sorted.dedup();
        let mut acc = Bdd::TRUE;
        for v in sorted {
            acc = self.mk(v.0, Bdd::FALSE, acc);
        }
        acc
    }

    /// Existential quantification `∃ vars . f` where `cube` is a positive
    /// cube as built by [`BddManager::cube`].
    ///
    /// Implements the paper's `∃x f = f|x=0 ∨ f|x=1`, generalized to a set
    /// of variables and memoized.
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        self.quantify(true, f, cube)
    }

    /// Universal quantification `∀ vars . f` over a positive cube.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        self.quantify(false, f, cube)
    }

    /// The one memoized recursion behind [`exists`](Self::exists) and
    /// [`forall`](Self::forall): a quantified variable joins its cofactors
    /// with `∨` (`exists`) or `∧`, and stops after the first cofactor when
    /// that already decides the join (`true` for `∨`, `false` for `∧`). It
    /// recurses through the quantifier's own entry point, so each compiles
    /// to its own copy with `exists` a constant.
    #[inline(always)]
    fn quantify(&mut self, exists: bool, f: Bdd, cube: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f.is_const() || cube.is_true() {
            return f;
        }
        debug_assert!(self.is_cube(cube), "quantifiers expect a positive cube");
        let op = if exists { CacheOp::Exists } else { CacheOp::Forall };
        let key = (op, f.0, cube.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let lf = self.level(f);
        // Skip cube variables above f's root: they do not occur in f.
        let mut c = cube;
        while !c.is_const() && self.level(c) < lf {
            c = self.node(c).hi;
        }
        let recurse =
            |m: &mut BddManager, f, c| if exists { m.exists(f, c) } else { m.forall(f, c) };
        let result = if c.is_true() {
            f
        } else {
            let n = self.node(f);
            let lc = self.level(c);
            if lf == lc {
                // Quantify this variable: join the cofactors.
                let rest = self.node(c).hi;
                let lo = recurse(self, n.lo, rest);
                if lo == self.constant(exists) {
                    lo
                } else {
                    let hi = recurse(self, n.hi, rest);
                    if exists {
                        self.or(lo, hi)
                    } else {
                        self.and(lo, hi)
                    }
                }
            } else {
                let lo = recurse(self, n.lo, c);
                let hi = recurse(self, n.hi, c);
                self.mk(n.var, lo, hi)
            }
        };
        self.cache_put(key, result);
        result
    }

    /// Fused relational product `∃ vars . (f ∧ g)`.
    ///
    /// The inner loop of symbolic model checking: `CheckEX` is
    /// `∃v'. f(v') ∧ R(v, v')`. Fusing the conjunction and quantification
    /// avoids materializing the (often much larger) intermediate `f ∧ g`.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return self.exists(g, cube);
        }
        if g.is_true() {
            return self.exists(f, cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        debug_assert!(self.is_cube(cube), "and_exists expects a positive cube");
        // Normalize the operand order so (f, g) and (g, f) share a cache
        // entry.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (CacheOp::AndExists, f.0, g.0, cube.0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let top = lf.min(lg);
        let mut c = cube;
        while !c.is_const() && self.level(c) < top {
            c = self.node(c).hi;
        }
        let result = if c.is_true() {
            self.and(f, g)
        } else {
            let lc = self.level(c);
            let (f0, f1) = self.cofactors_at(f, top);
            let (g0, g1) = self.cofactors_at(g, top);
            if top == lc {
                let rest = self.node(c).hi;
                let lo = self.and_exists(f0, g0, rest);
                if lo.is_true() {
                    Bdd::TRUE
                } else {
                    let hi = self.and_exists(f1, g1, rest);
                    self.or(lo, hi)
                }
            } else {
                let var = self.level2var[top as usize];
                let lo = self.and_exists(f0, g0, c);
                let hi = self.and_exists(f1, g1, c);
                self.mk(var, lo, hi)
            }
        };
        self.cache_put(key, result);
        result
    }

    /// Generalized cofactor (Coudert–Madre `constrain`): a function that
    /// agrees with `f` everywhere `c` holds, chosen so the result is
    /// often much smaller than `f` — i.e. `constrain(f, c) ∧ c = f ∧ c`.
    ///
    /// Useful for minimizing sets against reachability/care sets before
    /// expensive operations.
    ///
    /// # Panics
    ///
    /// Panics if `c` is unsatisfiable (the cofactor is undefined).
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> Bdd {
        if self.op_entry() {
            // Also shields the assert below from garbage operands that a
            // tripped computation hands down.
            return Bdd::FALSE;
        }
        assert!(!c.is_false(), "constrain by an unsatisfiable care set");
        if c.is_true() || f.is_const() {
            return f;
        }
        if f == c {
            return Bdd::TRUE;
        }
        let key = (CacheOp::Constrain, f.0, c.0, 0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let top = self.level(f).min(self.level(c));
        let (f0, f1) = self.cofactors_at(f, top);
        let (c0, c1) = self.cofactors_at(c, top);
        let result = if c0.is_false() {
            self.constrain(f1, c1)
        } else if c1.is_false() {
            self.constrain(f0, c0)
        } else {
            let var = self.level2var[top as usize];
            let lo = self.constrain(f0, c0);
            let hi = self.constrain(f1, c1);
            self.mk(var, lo, hi)
        };
        self.cache_put(key, result);
        result
    }

    /// Restriction (cofactor) `f |_{var = value}` — linear in the size of
    /// `f`, as in Section 2 of the paper.
    pub fn restrict(&mut self, f: Bdd, var: Var, value: bool) -> Bdd {
        let level = self.level_of_var(var) as u32;
        self.restrict_rec(f, level, value, &mut NodeMemo::new())
    }

    fn restrict_rec(&mut self, f: Bdd, level: u32, value: bool, memo: &mut NodeMemo) -> Bdd {
        let lf = self.level(f);
        if lf > level {
            return f; // f does not depend on the variable
        }
        if let Some(hit) = memo.get(f) {
            return hit;
        }
        let n = self.node(f);
        let result = if lf == level {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, level, value, memo);
            let hi = self.restrict_rec(n.hi, level, value, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, result);
        result
    }

    /// The set of variables `f` depends on, in order of the current levels.
    pub fn support(&mut self, f: Bdd) -> Vec<Var> {
        let mut vars = std::collections::BTreeSet::new(); // level-ordered
        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        sc.begin(self.nodes.len());
        if !f.is_const() {
            sc.stack.push(f.0);
        }
        while let Some(id) = sc.stack.pop() {
            if !sc.mark(id) {
                continue;
            }
            let n = self.nodes[id as usize];
            vars.insert(self.var2level[n.var as usize]);
            if !n.lo.is_const() {
                sc.stack.push(n.lo.0);
            }
            if !n.hi.is_const() {
                sc.stack.push(n.hi.0);
            }
        }
        vars.into_iter().map(|lvl| Var(self.level2var[lvl as usize])).collect()
    }

    /// Checks that `b` is a positive cube: a chain of nodes whose `lo`
    /// children are all `false`, terminated by `true`.
    pub fn is_cube(&self, b: Bdd) -> bool {
        let mut cur = b;
        while !cur.is_const() {
            let n = self.node(cur);
            if !n.lo.is_false() {
                return false;
            }
            cur = n.hi;
        }
        cur.is_true()
    }

    /// The variables of a positive cube, top level first.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a positive cube.
    pub fn cube_vars(&self, b: Bdd) -> Vec<Var> {
        assert!(self.is_cube(b), "not a positive cube");
        let mut vars = Vec::new();
        let mut cur = b;
        while !cur.is_const() {
            let n = self.node(cur);
            vars.push(Var(n.var));
            cur = n.hi;
        }
        vars
    }
}
