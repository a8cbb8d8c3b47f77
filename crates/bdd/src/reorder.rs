//! Dynamic variable reordering: in-place adjacent-level swap, Rudell-style
//! sifting, and reordering to an explicit target order.
//!
//! The swap rewrites nodes **in place**, so every existing [`Bdd`] handle
//! keeps denoting the same boolean function across reorders — callers never
//! need to re-translate handles.

use crate::error::BddError;
use crate::manager::BddManager;
use crate::node::{Bdd, Node, Var};

impl BddManager {
    /// Swaps the variables at levels `level` and `level + 1`.
    ///
    /// Classic Rudell adjacent exchange: only nodes at `level` whose
    /// children are rooted at `level + 1` are rewritten; everything else is
    /// untouched. Node ids are stable and keep their meaning.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    pub fn swap_levels(&mut self, level: usize) {
        assert!(level + 1 < self.num_vars(), "swap_levels: level {level} out of range");
        // A half-applied swap would corrupt the manager, so the governor
        // is suspended for its duration: `mk` neither bails on a trip nor
        // logs allocations (rolling back an in-place-rewired node would
        // free a load-bearing slot). The swap is a safe point, so the
        // current transaction commits first.
        self.txn_commit();
        let was_suspended = self.governor.suspended;
        self.governor.suspended = true;
        let u = self.level2var[level]; // variable moving down
        let w = self.level2var[level + 1]; // variable moving up

        // Snapshot the ids at the upper level before mutating anything.
        let upper_ids: Vec<u32> = self.tables[u as usize].ids();

        // Update the order first so `mk` (which debug-asserts ordering)
        // sees the new levels.
        let split_before = self.splits_of(u, w);
        self.level2var.swap(level, level + 1);
        self.var2level[u as usize] = (level + 1) as u32;
        self.var2level[w as usize] = level as u32;
        self.split_pairs = self.split_pairs + self.splits_of(u, w) - split_before;

        for id in upper_ids {
            let n = self.nodes[id as usize];
            debug_assert_eq!(n.var, u);
            let lo_is_w = self.nodes[n.lo.0 as usize].var == w;
            let hi_is_w = self.nodes[n.hi.0 as usize].var == w;
            if !lo_is_w && !hi_is_w {
                // The function does not depend on w; the node keeps its
                // variable (which simply lives one level lower now).
                continue;
            }
            // f = ¬u·A + u·B with w occurring at the root of A and/or B.
            let (a0, a1) = if lo_is_w {
                let a = self.nodes[n.lo.0 as usize];
                (a.lo, a.hi)
            } else {
                (n.lo, n.lo)
            };
            let (b0, b1) = if hi_is_w {
                let b = self.nodes[n.hi.0 as usize];
                (b.lo, b.hi)
            } else {
                (n.hi, n.hi)
            };
            // New root variable w: f|w=0 = ¬u·A0 + u·B0, f|w=1 = ¬u·A1 + u·B1.
            let lo = self.mk(u, a0, b0);
            let hi = self.mk(u, a1, b1);
            debug_assert_ne!(lo, hi, "swap produced a redundant node");
            self.tables[u as usize].remove(n.lo, n.hi);
            self.nodes[id as usize] = Node { var: w, lo, hi };
            debug_assert!(
                self.tables[w as usize].get(lo, hi).is_none(),
                "swap produced a duplicate node"
            );
            self.tables[w as usize].insert(lo, hi, id);
        }
        // Memoized results depend on levels; they are now stale. The
        // generational bounded cache invalidates in O(1).
        self.cache.invalidate_all();
        self.governor.suspended = was_suspended;
    }

    /// Reorders the variables to exactly `order` (top to bottom) by a
    /// sequence of adjacent swaps. Handles remain valid.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidOrder`] unless `order` is a permutation
    /// of all declared variables.
    pub fn reorder(&mut self, order: &[Var]) -> Result<(), BddError> {
        let n = self.num_vars();
        if order.len() != n {
            return Err(BddError::InvalidOrder(format!(
                "expected {n} variables, got {}",
                order.len()
            )));
        }
        let mut seen = vec![false; n];
        for v in order {
            if v.index() >= n || seen[v.index()] {
                return Err(BddError::InvalidOrder(format!(
                    "variable {v} missing, duplicated or unknown"
                )));
            }
            seen[v.index()] = true;
        }
        // Selection-sort with adjacent swaps: bubble each target variable
        // up to its final level.
        for (target_level, &var) in order.iter().enumerate() {
            let mut cur = self.level_of_var(var);
            while cur > target_level {
                self.swap_levels(cur - 1);
                cur -= 1;
            }
        }
        self.debug_validate("reorder");
        Ok(())
    }

    /// Rudell sifting: moves each variable through every level, keeping
    /// the position minimizing the live node count, processing variables
    /// in decreasing order of their unique-table population.
    ///
    /// `roots` are the BDDs to keep live (they are also protected for the
    /// duration); a garbage collection runs before each variable's pass so
    /// the counts reflect live nodes. Returns the final live node count.
    pub fn sift(&mut self, roots: &[Bdd]) -> usize {
        let n = self.num_vars();
        if n < 2 {
            return self.num_nodes();
        }
        let mut vars: Vec<Var> = (0..n).map(|i| Var(i as u32)).collect();
        vars.sort_by_key(|v| std::cmp::Reverse(self.tables[v.index()].len()));
        for var in vars {
            self.gc(roots);
            let start_level = self.level_of_var(var);
            let mut best_level = start_level;
            let mut best_count = self.num_nodes();
            // Sweep to the bottom... (collect after every swap so the
            // count reflects live nodes, not swap debris)
            let mut level = start_level;
            while level + 1 < n {
                self.swap_levels(level);
                self.gc(roots);
                level += 1;
                let count = self.num_nodes();
                if count < best_count {
                    best_count = count;
                    best_level = level;
                }
            }
            // ...then to the top...
            while level > 0 {
                self.swap_levels(level - 1);
                self.gc(roots);
                level -= 1;
                let count = self.num_nodes();
                if count < best_count {
                    best_count = count;
                    best_level = level;
                }
            }
            // ...and settle at the best position seen.
            while level < best_level {
                self.swap_levels(level);
                level += 1;
            }
        }
        self.gc(roots);
        self.debug_validate("sift");
        self.num_nodes()
    }
}
