//! Satisfying-assignment extraction: one witness assignment, model
//! counting, and exhaustive cube enumeration.
//!
//! Witness generation repeatedly needs "pick an arbitrary element of this
//! state set" (Section 6 of the paper: *"choosing an arbitrary element of
//! the resulting set"*); [`BddManager::one_sat`] provides it in time linear
//! in the number of variables.

use crate::manager::{BddManager, VisitScratch};
use crate::node::{Bdd, Var};

/// A (partial) satisfying assignment: the variables on one root-to-`true`
/// path of a BDD together with their polarities. Variables not mentioned
/// are don't-cares.
pub type SatAssignment = Vec<(Var, bool)>;

impl BddManager {
    /// One satisfying partial assignment of `f`, or `None` if `f` is
    /// unsatisfiable. Prefers the low branch, so the returned assignment
    /// is the lexicographically least path in the diagram.
    pub fn one_sat(&self, f: Bdd) -> Option<SatAssignment> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            if !n.lo.is_false() {
                path.push((Var(n.var), false));
                cur = n.lo;
            } else {
                path.push((Var(n.var), true));
                cur = n.hi;
            }
        }
        debug_assert!(cur.is_true());
        Some(path)
    }

    /// A *total* satisfying assignment of `f` over the variables in
    /// `vars`, or `None` if `f` is unsatisfiable. Don't-care variables are
    /// assigned `false`.
    ///
    /// This is the "pick one concrete state" primitive the witness
    /// generator uses to print actual states.
    pub fn one_sat_total(&self, f: Bdd, vars: &[Var]) -> Option<Vec<bool>> {
        let partial = self.one_sat(f)?;
        let mut dense = vec![false; self.num_vars()];
        for (v, val) in partial {
            dense[v.index()] = val;
        }
        Some(vars.iter().map(|v| dense[v.index()]).collect())
    }

    /// The number of satisfying assignments of `f` over `nvars` variables.
    ///
    /// Returned as `f64` because symbolic models routinely exceed `u64`
    /// range; exact for counts below 2^53. `nvars` must be at least the
    /// number of levels spanned by `f`'s support.
    pub fn sat_count(&self, f: Bdd, nvars: usize) -> f64 {
        let nlevels = self.num_vars() as i32;
        // `count_rec(f)` counts over the levels in [level(f), nlevels);
        // scale up for the levels skipped above the root, then normalize
        // from the manager's variable count to the requested one. The
        // per-node memo lives in the manager's epoch-marked scratch, so
        // repeated counts allocate nothing.
        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        sc.begin(self.nodes.len());
        if sc.vals.len() < self.nodes.len() {
            sc.vals.resize(self.nodes.len(), 0.0);
        }
        let c = self.count_rec(f, sc);
        let top = self.level(f).min(nlevels as u32) as i32;
        c * 2f64.powi(top) * 2f64.powi(nvars as i32 - nlevels)
    }

    fn count_rec(&self, f: Bdd, sc: &mut VisitScratch) -> f64 {
        // Number of satisfying assignments over levels [level(f), nlevels).
        if f.is_false() {
            return 0.0;
        }
        if f.is_true() {
            return 1.0;
        }
        if sc.marked(f.0) {
            return sc.vals[f.0 as usize];
        }
        let nlevels = self.num_vars() as u32;
        let n = self.node(f);
        let lvl = self.level(f) as i32;
        let lo_lvl = self.level(n.lo).min(nlevels) as i32;
        let hi_lvl = self.level(n.hi).min(nlevels) as i32;
        let lo = self.count_rec(n.lo, sc) * 2f64.powi(lo_lvl - lvl - 1);
        let hi = self.count_rec(n.hi, sc) * 2f64.powi(hi_lvl - lvl - 1);
        let result = lo + hi;
        sc.mark(f.0);
        sc.vals[f.0 as usize] = result;
        result
    }

    /// Iterates over the satisfying paths (cubes) of `f`.
    ///
    /// Each item is a partial assignment; unlisted variables are
    /// don't-cares. The cubes are disjoint and their union is exactly `f`.
    pub fn cubes(&self, f: Bdd) -> CubeIter<'_> {
        let stack = if f.is_false() { Vec::new() } else { vec![(f, Vec::new())] };
        CubeIter { manager: self, stack }
    }
}

/// Iterator over the satisfying cubes of a BDD; see
/// [`BddManager::cubes`].
#[derive(Debug)]
pub struct CubeIter<'a> {
    manager: &'a BddManager,
    stack: Vec<(Bdd, SatAssignment)>,
}

impl Iterator for CubeIter<'_> {
    type Item = SatAssignment;

    fn next(&mut self) -> Option<SatAssignment> {
        while let Some((node, path)) = self.stack.pop() {
            if node.is_true() {
                return Some(path);
            }
            if node.is_false() {
                continue;
            }
            let n = self.manager.node(node);
            if !n.hi.is_false() {
                let mut hi_path = path.clone();
                hi_path.push((Var(n.var), true));
                self.stack.push((n.hi, hi_path));
            }
            if !n.lo.is_false() {
                let mut lo_path = path;
                lo_path.push((Var(n.var), false));
                self.stack.push((n.lo, lo_path));
            }
        }
        None
    }
}
