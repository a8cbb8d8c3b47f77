//! Deciding whether an automaton accepts an ultimately periodic word —
//! the validation oracle for containment counterexamples.
//!
//! The word `w = prefix · cycleᵚ` is folded into the automaton: the
//! *run graph* has nodes `(state, position)` with `position` walking the
//! finite representation and wrapping at the period. `K` accepts `w` iff
//! the run graph contains a reachable cycle whose projected state set
//! satisfies the acceptance condition; per-condition cycle searches are
//! implemented below (the Streett one uses the classical SCC-refinement
//! emptiness algorithm).

use std::collections::BTreeSet;

use crate::automaton::{Acceptance, OmegaAutomaton};
use crate::word::OmegaWord;

/// Does the automaton accept the word?
pub fn accepts(automaton: &OmegaAutomaton, word: &OmegaWord) -> bool {
    let graph = RunGraph::build(automaton, word);
    match automaton.acceptance() {
        Acceptance::Buchi(f) => {
            // Büchi F == Streett {(∅, F)}.
            graph.has_streett_cycle(&[(BTreeSet::new(), f.clone())])
        }
        Acceptance::Streett(pairs) => graph.has_streett_cycle(pairs),
        Acceptance::Rabin(pairs) => pairs.iter().any(|(u, v)| graph.has_rabin_cycle(u, v)),
        Acceptance::Muller(family) => family.iter().any(|m| graph.has_muller_cycle(m)),
    }
}

/// The product of an automaton with a lasso word.
struct RunGraph {
    /// Node = state * period_len + position; `succ[node]` lists nodes.
    succ: Vec<Vec<usize>>,
    /// Projected automaton state of each node.
    state_of: Vec<usize>,
    /// Nodes reachable from the initial node.
    reachable: Vec<bool>,
}

impl RunGraph {
    fn build(automaton: &OmegaAutomaton, word: &OmegaWord) -> RunGraph {
        let positions = word.prefix.len() + word.cycle.len();
        let n = automaton.num_states();
        let node = |state: usize, pos: usize| state * positions + pos;
        let next_pos = |pos: usize| {
            if pos + 1 < positions {
                pos + 1
            } else {
                word.prefix.len() // wrap to the start of the period
            }
        };
        let mut succ = vec![Vec::new(); n * positions];
        let mut state_of = vec![0; n * positions];
        for s in 0..n {
            for pos in 0..positions {
                state_of[node(s, pos)] = s;
                let symbol = word.symbol_at(pos);
                for &t in automaton.successors(s, symbol) {
                    succ[node(s, pos)].push(node(t, next_pos(pos)));
                }
            }
        }
        // Reachability from (initial, 0).
        let mut reachable = vec![false; n * positions];
        let mut stack = vec![node(automaton.initial(), 0)];
        reachable[stack[0]] = true;
        while let Some(v) = stack.pop() {
            for &w in &succ[v] {
                if !reachable[w] {
                    reachable[w] = true;
                    stack.push(w);
                }
            }
        }
        RunGraph { succ, state_of, reachable }
    }

    /// Tarjan SCCs ([`smc_kripke::sccs`]) over a node subset. Returns
    /// components (singletons without self-loop excluded only by the
    /// callers).
    fn sccs(&self, alive: &[bool]) -> Vec<Vec<usize>> {
        smc_kripke::sccs(self.succ.len(), |v| &self.succ[v], |v| alive[v])
    }

    fn is_nontrivial(&self, comp: &[usize]) -> bool {
        comp.len() > 1 || self.succ[comp[0]].contains(&comp[0])
    }

    /// Streett emptiness by SCC refinement: a reachable subgraph hosts an
    /// accepting run iff some nontrivial SCC `C` satisfies every pair
    /// (`states(C) ⊆ U` or `states(C) ∩ V ≠ ∅`), possibly after
    /// restricting to `U` for violated pairs.
    fn has_streett_cycle(&self, pairs: &[(BTreeSet<usize>, BTreeSet<usize>)]) -> bool {
        let alive = self.reachable.clone();
        self.streett_search(alive, pairs)
    }

    fn streett_search(
        &self,
        alive: Vec<bool>,
        pairs: &[(BTreeSet<usize>, BTreeSet<usize>)],
    ) -> bool {
        for comp in self.sccs(&alive) {
            if !self.is_nontrivial(&comp) {
                continue;
            }
            let states: BTreeSet<usize> = comp.iter().map(|&v| self.state_of[v]).collect();
            let violated: Vec<&(BTreeSet<usize>, BTreeSet<usize>)> = pairs
                .iter()
                .filter(|(u, v)| !states.is_subset(u) && states.is_disjoint(v))
                .collect();
            if violated.is_empty() {
                return true;
            }
            // Any accepting inf-set inside this SCC must project into
            // every violated pair's U; restrict and recurse.
            let mut restricted = vec![false; self.succ.len()];
            let mut shrank = false;
            for &v in &comp {
                let keep = violated.iter().all(|(u, _)| u.contains(&self.state_of[v]));
                restricted[v] = keep;
                shrank |= !keep;
            }
            if shrank && self.streett_search(restricted, pairs) {
                return true;
            }
        }
        false
    }

    /// Rabin pair (U, V): a reachable nontrivial SCC of the `U`-free
    /// subgraph intersecting `V`.
    fn has_rabin_cycle(&self, u: &BTreeSet<usize>, v: &BTreeSet<usize>) -> bool {
        let alive: Vec<bool> = (0..self.succ.len())
            .map(|n| self.reachable[n] && !u.contains(&self.state_of[n]))
            .collect();
        self.sccs(&alive).into_iter().any(|comp| {
            self.is_nontrivial(&comp) && comp.iter().any(|&n| v.contains(&self.state_of[n]))
        })
    }

    /// Muller set `M`: a reachable nontrivial SCC of the `M`-restricted
    /// subgraph whose projected states are exactly `M`.
    fn has_muller_cycle(&self, m: &BTreeSet<usize>) -> bool {
        let alive: Vec<bool> = (0..self.succ.len())
            .map(|n| self.reachable[n] && m.contains(&self.state_of[n]))
            .collect();
        self.sccs(&alive).into_iter().any(|comp| {
            if !self.is_nontrivial(&comp) {
                return false;
            }
            let states: BTreeSet<usize> = comp.iter().map(|&n| self.state_of[n]).collect();
            states == *m
        })
    }
}
