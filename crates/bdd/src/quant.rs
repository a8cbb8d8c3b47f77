//! Quantification and the fused relational products.

use crate::manager::{BddManager, CacheOp};
use crate::node::{Bdd, Var};
use crate::subst::NodeMemo;

/// A variable's side of the current/next pairing that
/// [`BddManager::set_pairs`] declares, with its partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rail {
    /// In no pair: a relational product quantifies it.
    Free,
    /// A current-state variable, with its next-state partner.
    Cur(u32),
    /// A next-state variable, with its current-state partner.
    Nxt(u32),
}

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
        self.product(false, f, g, cube)
    }

    /// Image product `(∃x. f ∧ g)[x′ := x]`: the successors of the states
    /// `f` along the relation `g`, back on the current rail.
    ///
    /// `pairs` is a positive cube over the pairs declared with
    /// [`set_pairs`](Self::set_pairs) that says what the product does to
    /// each: a current member is quantified, a next member is renamed to
    /// its current partner, and a pair with both members gets both.
    /// Unpaired members are quantified. With current members only this
    /// is [`and_exists`](Self::and_exists), and it counts in that
    /// operation's stats row. A renamed pair's current variable must not
    /// survive the product: it is quantified, or neither operand has it.
    ///
    /// The renaming happens inside the one memoized recursion: a renamed
    /// next variable's node is rebuilt at its current partner, directly
    /// above it. While reordering has split some pair apart, the product
    /// is composed instead: `and_exists`, then [`rename`](Self::rename).
    pub fn rel_next(&mut self, f: Bdd, g: Bdd, pairs: Bdd) -> Bdd {
        if self.split_pairs == 0 {
            return self.rel_next_rec(f, g, pairs);
        }
        let (quantified, renaming) = self.split_cube(pairs, true);
        let product = self.and_exists(f, g, quantified);
        self.rename(product, &renaming)
    }

    fn rel_next_rec(&mut self, f: Bdd, g: Bdd, pairs: Bdd) -> Bdd {
        self.product(true, f, g, pairs)
    }

    /// The one memoized recursion behind [`and_exists`](Self::and_exists)
    /// and [`rel_next`](Self::rel_next) (`renaming`): a cube member at the
    /// top is quantified by joining the cofactors with `∨`, or, in
    /// `rel_next`, a next member is rebuilt at its current partner. It
    /// recurses through each operation's own entry point, so each
    /// compiles to its own copy with `renaming` a constant.
    #[inline(always)]
    fn product(&mut self, renaming: bool, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        if !renaming {
            if f.is_true() {
                return self.exists(g, cube);
            }
            if g.is_true() {
                return self.exists(f, cube);
            }
        }
        debug_assert!(self.is_cube(cube), "relational products expect a positive cube");
        // Normalize the operand order so (f, g) and (g, f) share a cache
        // entry, and key it by the cube from the operands' top down.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let top = self.level(f).min(self.level(g));
        let mut c = cube;
        while !c.is_const() && self.level(c) < top {
            c = self.node(c).hi;
        }
        if c.is_true() {
            return self.and(f, g);
        }
        let op = if renaming { CacheOp::RelNext } else { CacheOp::AndExists };
        let key = (op, f.0, g.0, c.0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        let recurse = |m: &mut BddManager, f, g, c| {
            if renaming {
                m.rel_next_rec(f, g, c)
            } else {
                m.and_exists(f, g, c)
            }
        };
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let var = self.level2var[top as usize];
        let result = if self.level(c) != top {
            let lo = recurse(self, f0, g0, c);
            let hi = recurse(self, f1, g1, c);
            self.mk(var, lo, hi)
        } else {
            let rest = self.node(c).hi;
            match self.rails[var as usize] {
                Rail::Nxt(cur) if renaming => {
                    let lo = recurse(self, f0, g0, rest);
                    let hi = recurse(self, f1, g1, rest);
                    self.mk(cur, lo, hi)
                }
                _ => {
                    let lo = recurse(self, f0, g0, rest);
                    if lo.is_true() {
                        Bdd::TRUE
                    } else {
                        let hi = recurse(self, f1, g1, rest);
                        self.or(lo, hi)
                    }
                }
            }
        };
        self.cache_put(key, result);
        result
    }

    /// Preimage product `∃x′. g ∧ f[x := x′]`: the predecessors of the
    /// states `f` along the relation `g`.
    ///
    /// `pairs` is a positive cube over the declared pairs, as for
    /// [`rel_next`](Self::rel_next) but the other way round: `f`'s
    /// current members are read as their next partners, and next members
    /// are quantified, as are unpaired ones. With next members only this
    /// is [`and_exists`](Self::and_exists). `f` must not mention the next
    /// partner of a current member.
    ///
    /// One memoized recursion reads `f` on the next rail: a renamed root
    /// of `f` is cofactored at its next partner's level, directly below
    /// it, together with `g`'s nodes there. While reordering has split
    /// some pair apart, the product is composed instead:
    /// [`rename`](Self::rename), then `and_exists`.
    pub fn rel_prev(&mut self, f: Bdd, g: Bdd, pairs: Bdd) -> Bdd {
        if self.split_pairs == 0 {
            return self.rel_prev_rec(f, g, pairs);
        }
        let (quantified, renaming) = self.split_cube(pairs, false);
        let moved = self.rename(f, &renaming);
        self.and_exists(moved, g, quantified)
    }

    fn rel_prev_rec(&mut self, f: Bdd, g: Bdd, pairs: Bdd) -> Bdd {
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        debug_assert!(self.is_cube(pairs), "relational products expect a positive cube");
        let (lf, lg) = (self.level(f), self.level(g));
        let mut c = pairs;
        while !c.is_const() && self.level(c) < lf.min(lg) {
            c = self.node(c).hi;
        }
        if c.is_true() {
            return self.and(f, g);
        }
        let key = (CacheOp::RelPrev, f.0, g.0, c.0);
        if let Some(hit) = self.cache_get(key) {
            return hit;
        }
        // f's root sits at its next partner's level when renamed.
        let ef = if self.level(c) == lf {
            match self.rails[self.node(f).var as usize] {
                Rail::Cur(nxt) => self.var2level[nxt as usize],
                _ => lf,
            }
        } else {
            lf
        };
        let top = ef.min(lg);
        while !c.is_const() && self.level(c) < top {
            c = self.node(c).hi;
        }
        let (f0, f1) = if ef == top { (self.node(f).lo, self.node(f).hi) } else { (f, f) };
        let (g0, g1) = self.cofactors_at(g, top);
        let var = self.level2var[top as usize];
        let result = if self.level(c) == top && !matches!(self.rails[var as usize], Rail::Cur(_)) {
            let rest = self.node(c).hi;
            let lo = self.rel_prev_rec(f0, g0, rest);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.rel_prev_rec(f1, g1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.rel_prev_rec(f0, g0, c);
            let hi = self.rel_prev_rec(f1, g1, c);
            self.mk(var, lo, hi)
        };
        self.cache_put(key, result);
        result
    }

    /// Declares the current/next variable pairs `(cur[i], nxt[i])` that
    /// [`rel_next`](Self::rel_next) and [`rel_prev`](Self::rel_prev)
    /// switch between, replacing any earlier pairing. Their recursions
    /// expect each next variable directly below its current partner, as
    /// an interleaved declaration order puts it; reordering may split a
    /// pair, and the manager tracks whether any is split.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or a variable is unknown
    /// or named twice.
    pub fn set_pairs(&mut self, cur: &[Var], nxt: &[Var]) {
        assert_eq!(cur.len(), nxt.len(), "set_pairs requires equal-length rails");
        self.rails.iter_mut().for_each(|r| *r = Rail::Free);
        for (&c, &n) in cur.iter().zip(nxt) {
            assert!(c.index() < self.num_vars(), "unknown variable {c}");
            assert!(n.index() < self.num_vars(), "unknown variable {n}");
            let fresh = |r: Rail| r == Rail::Free;
            assert!(
                c != n && fresh(self.rails[c.index()]) && fresh(self.rails[n.index()]),
                "a variable named in two pairs"
            );
            self.rails[c.index()] = Rail::Cur(n.0);
            self.rails[n.index()] = Rail::Nxt(c.0);
        }
        self.split_pairs = cur.iter().filter(|c| self.pair_split(c.0)).count();
    }

    /// Is the pair of `var` split, its next variable not directly below
    /// its current one? False for an unpaired variable.
    pub(crate) fn pair_split(&self, var: u32) -> bool {
        let (c, n) = match self.rails[var as usize] {
            Rail::Free => return false,
            Rail::Cur(n) => (var, n),
            Rail::Nxt(c) => (c, var),
        };
        self.var2level[n as usize] != self.var2level[c as usize] + 1
    }

    /// How many of the pairs of `u` and `w` (one pair if they are
    /// partners) are split: all that swapping their levels can change.
    pub(crate) fn splits_of(&self, u: u32, w: u32) -> usize {
        let partners = matches!(self.rails[u as usize], Rail::Cur(p) | Rail::Nxt(p) if p == w);
        usize::from(self.pair_split(u)) + usize::from(!partners && self.pair_split(w))
    }

    /// The composed form of a product over `pairs` on an order that
    /// splits a pair: the cube of the members it quantifies, and the
    /// renaming of the others (the next-rail members when
    /// `next_renamed`, else the current-rail ones) to their partners.
    fn split_cube(&mut self, pairs: Bdd, next_renamed: bool) -> (Bdd, Vec<(Var, Var)>) {
        let mut quantified = Vec::new();
        let mut renaming = Vec::new();
        for v in self.cube_vars(pairs) {
            match self.rails[v.index()] {
                Rail::Nxt(cur) if next_renamed => renaming.push((v, Var(cur))),
                Rail::Cur(nxt) if !next_renamed => renaming.push((v, Var(nxt))),
                _ => quantified.push(v),
            }
        }
        (self.cube(&quantified), renaming)
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
