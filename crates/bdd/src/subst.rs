//! Variable substitution: permutation (renaming) and functional
//! composition.

use crate::manager::{mix64, BddManager};
use crate::node::{Bdd, Var};

/// Key of a vacant [`NodeMemo`] slot. No node has this id: the manager
/// refuses to allocate it.
const VACANT: u32 = u32::MAX;

/// A `node → result` memo for one linear walk (rename, compose,
/// restrict): open addressing over `(node, result)` id pairs, hashed
/// with [`mix64`]. It grows with the nodes the walk visits, not with the
/// node pool.
pub(crate) struct NodeMemo {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NodeMemo {
    pub(crate) fn new() -> NodeMemo {
        NodeMemo { slots: vec![(VACANT, 0); 64], len: 0 }
    }

    /// The slot holding `key`, or the vacant slot where it belongs.
    #[inline]
    fn slot(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = mix64(key as u64) as usize & mask;
        while self.slots[i].0 != key && self.slots[i].0 != VACANT {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    pub(crate) fn get(&self, f: Bdd) -> Option<Bdd> {
        let (key, result) = self.slots[self.slot(f.0)];
        (key != VACANT).then_some(Bdd(result))
    }

    pub(crate) fn insert(&mut self, f: Bdd, result: Bdd) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![(VACANT, 0); self.slots.len() * 2];
            for (key, value) in std::mem::replace(&mut self.slots, doubled) {
                if key != VACANT {
                    let i = self.slot(key);
                    self.slots[i] = (key, value);
                }
            }
        }
        let i = self.slot(f.0);
        if self.slots[i].0 == VACANT {
            self.len += 1;
        }
        self.slots[i] = (f.0, result.0);
    }
}

impl BddManager {
    /// Renames variables according to `map` (pairs `(from, to)`).
    ///
    /// Moves a function between variable rails. Images and preimages do
    /// not call it: [`rel_next`](Self::rel_next) and
    /// [`rel_prev`](Self::rel_prev) rename inside the product, and fall
    /// back to this walk only while reordering splits a pair. The mapping
    /// must be injective on the support of `f`; targets may appear
    /// anywhere in the order. Each node is rebuilt with one hash-consing
    /// step when its target variable sits above both rebuilt children, as
    /// it always does on an interleaved `v, v'` order; at an order
    /// crossing it is spliced in via `ite`, which is correct but slower.
    ///
    /// # Panics
    ///
    /// Panics if `map` mentions a variable unknown to this manager.
    pub fn rename(&mut self, f: Bdd, map: &[(Var, Var)]) -> Bdd {
        // target[v] is the variable v becomes.
        let mut target: Vec<u32> = (0..self.num_vars() as u32).collect();
        for &(a, b) in map {
            assert!(a.index() < self.num_vars(), "unknown variable {a}");
            assert!(b.index() < self.num_vars(), "unknown variable {b}");
            target[a.index()] = b.0;
        }
        self.rename_rec(f, &target, &mut NodeMemo::new())
    }

    fn rename_rec(&mut self, f: Bdd, target: &[u32], memo: &mut NodeMemo) -> Bdd {
        if f.is_const() {
            return f;
        }
        if self.op_entry() {
            return Bdd::FALSE;
        }
        if let Some(hit) = memo.get(f) {
            return hit;
        }
        let n = self.node(f);
        let lo = self.rename_rec(n.lo, target, memo);
        let hi = self.rename_rec(n.hi, target, memo);
        let var = target[n.var as usize];
        let level = self.var2level[var as usize];
        let result = if level < self.level(lo) && level < self.level(hi) {
            self.mk(var, lo, hi)
        } else {
            let v = self.var(Var(var));
            self.ite(v, hi, lo)
        };
        memo.insert(f, result);
        result
    }

    /// Functional composition `f[var := g]`: substitutes the function `g`
    /// for the variable `var` in `f`.
    pub fn compose(&mut self, f: Bdd, var: Var, g: Bdd) -> Bdd {
        assert!(var.index() < self.num_vars(), "unknown variable {var}");
        let level = self.level_of_var(var) as u32;
        self.compose_rec(f, level, g, &mut NodeMemo::new())
    }

    fn compose_rec(&mut self, f: Bdd, level: u32, g: Bdd, memo: &mut NodeMemo) -> Bdd {
        let lf = self.level(f);
        if lf > level {
            return f; // var cannot occur below this point
        }
        if let Some(hit) = memo.get(f) {
            return hit;
        }
        let n = self.node(f);
        let result = if lf == level {
            self.ite(g, n.hi, n.lo)
        } else {
            let lo = self.compose_rec(n.lo, level, g, memo);
            let hi = self.compose_rec(n.hi, level, g, memo);
            let v = self.var(Var(n.var));
            self.ite(v, hi, lo)
        };
        memo.insert(f, result);
        result
    }
}
