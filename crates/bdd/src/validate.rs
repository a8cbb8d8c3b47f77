//! Structural self-validation of the manager's invariants.
//!
//! [`BddManager::validate`] walks every table and node slot and checks
//! the properties the rest of the package silently relies on: hash-cons
//! canonicity, variable-order monotonicity, absence of dangling or
//! foreign references, and the slot-accounting identity between the
//! unique tables, the free list and the node pool. It is read-only and
//! `O(nodes)`; debug builds run it automatically after every garbage
//! collection and reordering, and the fault-injection suite runs it
//! after recovery to prove trips leave the manager consistent.

use crate::manager::BddManager;
use crate::node::{Bdd, TERMINAL_VAR};

impl BddManager {
    /// Checks every structural invariant of the manager, returning a
    /// description of the first violation found.
    ///
    /// Invariants checked:
    ///
    /// - `var2level` / `level2var` are mutually inverse permutations,
    ///   and the count of split current/next pairs is up to date.
    /// - Slots 0 and 1 hold the terminals.
    /// - Free-list slots are in range, unique, and scrubbed (no stale
    ///   node data a future `mk` could alias).
    /// - Every unique-table entry resolves through its own probe chain,
    ///   points at a matching in-range node of the table's variable, is
    ///   interned exactly once, and is non-redundant (`lo != hi`).
    /// - Children are live (interned, never freed slots) and strictly
    ///   below their parent in the current variable order.
    /// - `Σ table len + free + 2 terminals = node slots` — no leaked or
    ///   double-accounted slot.
    /// - Every protected root has a positive count and refers to a live
    ///   node.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first broken invariant.
    pub fn validate(&self) -> Result<(), String> {
        let nv = self.tables.len();
        if self.var2level.len() != nv || self.level2var.len() != nv {
            return Err(format!(
                "order maps sized {}/{} for {nv} variables",
                self.var2level.len(),
                self.level2var.len()
            ));
        }
        for (v, &lvl) in self.var2level.iter().enumerate() {
            if lvl as usize >= nv || self.level2var[lvl as usize] as usize != v {
                return Err(format!("variable order not a bijection: var {v} claims level {lvl}"));
            }
        }
        let split = (0..nv as u32).filter(|&v| self.pair_split(v)).count();
        if split != 2 * self.split_pairs {
            return Err(format!(
                "{} split pairs counted, {split} split pair members",
                self.split_pairs
            ));
        }
        for t in [0usize, 1] {
            if self.nodes.len() <= t || self.nodes[t].var != TERMINAL_VAR {
                return Err(format!("slot {t} does not hold a terminal"));
            }
        }

        let mut is_free = vec![false; self.nodes.len()];
        for &id in &self.free {
            let idx = id as usize;
            if idx < 2 || idx >= self.nodes.len() {
                return Err(format!("free list holds out-of-range slot {id}"));
            }
            if is_free[idx] {
                return Err(format!("slot {id} is on the free list twice"));
            }
            is_free[idx] = true;
            if self.nodes[idx].var != TERMINAL_VAR {
                return Err(format!("free slot {id} still holds node data"));
            }
        }

        let mut interned = vec![false; self.nodes.len()];
        let mut total = 0usize;
        for (v, table) in self.tables.iter().enumerate() {
            let parent_level = self.var2level[v];
            for (lo, hi, id) in table.entries() {
                total += 1;
                let idx = id as usize;
                if idx < 2 || idx >= self.nodes.len() {
                    return Err(format!("table for var {v} references foreign id {id}"));
                }
                if is_free[idx] {
                    return Err(format!("table for var {v} references free slot {id}"));
                }
                if interned[idx] {
                    return Err(format!("node {id} is interned more than once"));
                }
                interned[idx] = true;
                let n = self.nodes[idx];
                if n.var as usize != v {
                    return Err(format!(
                        "node {id} has var {} but lives in the table for var {v}",
                        n.var
                    ));
                }
                if (n.lo.0, n.hi.0) != (lo, hi) {
                    return Err(format!(
                        "node {id} children ({}, {}) disagree with its table key ({lo}, {hi})",
                        n.lo.0, n.hi.0
                    ));
                }
                if lo == hi {
                    return Err(format!("redundant node {id} (lo == hi == {lo}) survived mk"));
                }
                if table.get(Bdd(lo), Bdd(hi)) != Some(id) {
                    return Err(format!(
                        "probe chain broken: node {id} is stored but not findable"
                    ));
                }
                for child in [Bdd(lo), Bdd(hi)] {
                    if child.is_const() {
                        continue;
                    }
                    let cidx = child.0 as usize;
                    if cidx >= self.nodes.len() {
                        return Err(format!("node {id} has dangling child {}", child.0));
                    }
                    let c = self.nodes[cidx];
                    if c.var == TERMINAL_VAR {
                        return Err(format!("node {id} references freed slot {}", child.0));
                    }
                    if self.var2level[c.var as usize] <= parent_level {
                        return Err(format!(
                            "order violation: node {id} (level {parent_level}) has child {} \
                             at level {}",
                            child.0, self.var2level[c.var as usize]
                        ));
                    }
                    if self.tables[c.var as usize].get(c.lo, c.hi) != Some(child.0) {
                        return Err(format!("node {id} references un-interned child {}", child.0));
                    }
                }
            }
        }
        if total + self.free.len() + 2 != self.nodes.len() {
            return Err(format!(
                "slot accounting broken: {total} interned + {} free + 2 terminals != {} slots",
                self.free.len(),
                self.nodes.len()
            ));
        }

        for (&id, &count) in &self.protected {
            if count == 0 {
                return Err(format!("protected root {id} has a zero count"));
            }
            let idx = id as usize;
            if idx >= self.nodes.len() {
                return Err(format!("protected root {id} is out of range"));
            }
            if idx >= 2 && !interned[idx] {
                return Err(format!("protected root {id} refers to a dead node"));
            }
        }
        Ok(())
    }

    /// Debug-build hook: panic on the first broken invariant. Compiled
    /// out of release builds.
    #[inline]
    pub(crate) fn debug_validate(&self, after: &str) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.validate() {
            panic!("manager invariant broken after {after}: {e}");
        }
        #[cfg(not(debug_assertions))]
        let _ = after;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use crate::node::Node;
    use crate::{Bdd, BddManager};

    fn small_manager() -> (BddManager, Bdd) {
        let mut m = BddManager::new();
        let x = m.new_var("x").unwrap();
        let y = m.new_var("y").unwrap();
        let z = m.new_var("z").unwrap();
        let (fx, fy, fz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(fx, fy);
        let f = m.or(xy, fz);
        m.protect(f);
        (m, f)
    }

    #[test]
    fn fresh_manager_validates() {
        let (m, _) = small_manager();
        m.validate().unwrap();
    }

    #[test]
    fn validates_after_gc_and_reorder() {
        let (mut m, f) = small_manager();
        m.gc(&[]);
        m.validate().unwrap();
        let mut order: Vec<_> = (0..m.num_vars()).map(crate::Var::from_index).collect();
        order.reverse();
        m.reorder(&order).unwrap();
        m.validate().unwrap();
        m.sift(&[f]);
        m.validate().unwrap();
    }

    #[test]
    fn detects_a_corrupted_child() {
        let (mut m, f) = small_manager();
        // Point the root's lo child at a freed slot id far out of the
        // live graph: validate must notice the table/node mismatch.
        let root = f.0 as usize;
        m.nodes[root] = Node { var: m.nodes[root].var, lo: Bdd(1), hi: m.nodes[root].hi };
        assert!(m.validate().is_err());
    }

    #[test]
    fn detects_free_list_corruption() {
        let (mut m, f) = small_manager();
        m.free.push(f.0);
        assert!(m.validate().is_err());
    }
}
