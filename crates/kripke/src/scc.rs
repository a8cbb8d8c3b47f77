//! Strongly connected components and the SCC condensation.
//!
//! Section 6 of the paper explains witness shapes through the DAG of
//! strongly connected components: a fair `EG` witness either closes its
//! cycle inside one SCC (Figure 1) or descends the condensation,
//! restarting in lower components, until a terminal SCC forces a cycle
//! (Figure 2). These analyses make that structure observable in tests and
//! experiments.

use crate::explicit::ExplicitModel;

/// Computes the strongly connected components of the model's transition
/// graph with Tarjan's algorithm; see [`sccs`].
///
/// Components are returned in **reverse topological order**: every edge of
/// the condensation goes from a later component to an earlier one.
pub fn tarjan_scc(model: &ExplicitModel) -> Vec<Vec<usize>> {
    sccs(model.num_states(), |v| model.successors(v), |_| true)
}

/// Tarjan's strongly connected components of the graph on the vertices
/// `0..n` for which `keep` holds, with the edges `succ(v)` that end at
/// kept vertices. Iterative, so deep graphs don't blow the stack.
///
/// Roots are tried in vertex order and successors in `succ` order.
/// Components come out in **reverse topological order** (every edge
/// between two components goes from a later one to an earlier one),
/// each listing its members in the order Tarjan's stack pops them.
pub fn sccs<'g>(
    n: usize,
    succ: impl Fn(usize) -> &'g [usize],
    keep: impl Fn(usize) -> bool,
) -> Vec<Vec<usize>> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    // Explicit DFS machine: (node, next-successor-position). A frame
    // numbers its node when it first comes to the top.
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if !keep(root) || index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut next)) = call.last_mut() {
            if *next == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ(v).get(*next) {
                *next += 1;
                if !keep(w) {
                    continue;
                }
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// The condensation (SCC DAG) of a model.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each state.
    pub component_of: Vec<usize>,
    /// Member states of each component (reverse topological order, as
    /// produced by [`tarjan_scc`]).
    pub components: Vec<Vec<usize>>,
    /// Condensation edges: `edges[c]` lists the components directly
    /// reachable from `c` (excluding `c` itself).
    pub edges: Vec<Vec<usize>>,
}

impl Condensation {
    /// Is the component a single state without a self-loop (a *trivial*
    /// SCC, which can host no cycle)?
    pub fn is_trivial(&self, model: &ExplicitModel, comp: usize) -> bool {
        let members = &self.components[comp];
        members.len() == 1 && !model.successors(members[0]).contains(&members[0])
    }

    /// Is the component terminal (no outgoing condensation edge)?
    pub fn is_terminal(&self, comp: usize) -> bool {
        self.edges[comp].is_empty()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The distinct components visited by a path of states, in visit
    /// order with consecutive duplicates collapsed. A fair `EG` witness
    /// whose prefix+cycle visits `k` distinct components "spans `k`
    /// SCCs" in the sense of Figures 1–2 of the paper.
    pub fn components_visited(&self, path: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &s in path {
            let c = self.component_of[s];
            if out.last() != Some(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// Builds the condensation of a model's transition graph.
pub fn condensation(model: &ExplicitModel) -> Condensation {
    let components = tarjan_scc(model);
    let mut component_of = vec![usize::MAX; model.num_states()];
    for (c, members) in components.iter().enumerate() {
        for &s in members {
            component_of[s] = c;
        }
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); components.len()];
    for s in 0..model.num_states() {
        let cs = component_of[s];
        for &t in model.successors(s) {
            let ct = component_of[t];
            if cs != ct && !edges[cs].contains(&ct) {
                edges[cs].push(ct);
            }
        }
    }
    Condensation { component_of, components, edges }
}
