#![warn(missing_docs)]

//! # smc-bench — workload generators for the evaluation harness
//!
//! Shared model builders used by the `experiments` report binary that
//! regenerates the paper-vs-measured tables of EXPERIMENTS.md, by the
//! `tests/witness_shapes.rs` pins of those tables, and by the `smc bench`
//! observatory ([`observatory`]) that owns the `BENCH_kernel.json` ledger.

pub mod observatory;

use smc_checker::{Checker, CycleStrategy};
use smc_kripke::{condensation, ExplicitModel, KripkeError, SymbolicModel};
use smc_logic::ctl;

/// A single directed ring of `n` states, one fairness label `p` on one
/// state — the Figure 1 workload (one SCC; the witness cycle closes on
/// the first attempt).
pub fn single_scc_ring(n: usize) -> ExplicitModel {
    assert!(n >= 2);
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for s in 0..n {
        let labels = if s == n / 2 { vec![p] } else { vec![] };
        g.add_state(&labels);
    }
    for s in 0..n {
        g.add_edge(s, (s + 1) % n);
    }
    g.add_initial(0);
    g
}

/// A chain of `k` two-state SCCs with the fairness label `p` only in
/// the terminal one — the Figure 2 workload (the witness construction
/// must restart and descend the SCC DAG).
pub fn scc_chain(k: usize) -> ExplicitModel {
    assert!(k >= 1);
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for i in 0..k {
        let first = g.add_state(&[]);
        let labels = if i == k - 1 { vec![p] } else { vec![] };
        let second = g.add_state(&labels);
        g.add_edge(first, second);
        g.add_edge(second, first);
        if i > 0 {
            // Bridge from the previous SCC.
            g.add_edge(2 * i - 1, first);
        }
    }
    g.add_initial(0);
    g
}

/// The Theorem 1 reduction shape: an `n`-ring with skip chords and one
/// distinct fairness constraint per state, so the minimal finite
/// witness must be Hamiltonian. Returns the graph and the constraint
/// masks.
pub fn hamiltonian_instance(n: usize) -> (ExplicitModel, Vec<Vec<bool>>) {
    assert!(n >= 3);
    let mut g = ExplicitModel::new();
    for _ in 0..n {
        g.add_state(&[]);
    }
    for s in 0..n {
        g.add_edge(s, (s + 1) % n);
        g.add_edge(s, (s + 2) % n);
    }
    g.add_initial(0);
    let masks = (0..n).map(|k| (0..n).map(|s| s == k).collect()).collect();
    (g, masks)
}

/// A deterministic pseudo-random total graph with labels `p`, `f0`,
/// `f1`; `nfair` of the `f` labels become fairness constraints when the
/// caller wires them up.
pub fn random_fair_graph(n: usize, seed: u64, edge_factor: usize) -> ExplicitModel {
    let mut state = seed | 1;
    let mut next = move |m: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    let f0 = g.add_ap("f0");
    let f1 = g.add_ap("f1");
    for _ in 0..n {
        let mut labels = Vec::new();
        if next(2) == 0 {
            labels.push(p);
        }
        if next(2) == 0 {
            labels.push(f0);
        }
        if next(2) == 0 {
            labels.push(f1);
        }
        g.add_state(&labels);
    }
    for s in 0..n {
        g.add_edge(s, next(n));
        for _ in 0..edge_factor {
            g.add_edge(s, next(n));
        }
    }
    g.add_initial(0);
    g
}

/// The shape of a fair `EG true` witness: the EXP-2/EXP-3 and A1 columns
/// of EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessShape {
    /// States on the lasso, prefix and cycle.
    pub length: usize,
    /// States on the cycle.
    pub cycle: usize,
    /// Restarts from the frontier state, each one deeper in the SCC DAG.
    pub restarts: usize,
    /// Attempts the stay-set check cut short (0 under `Restart`).
    pub stay_exits: usize,
    /// Strongly connected components the lasso passes through.
    pub sccs_spanned: usize,
}

/// Builds the fair `EG true` witness on `graph`, with its label `p` as
/// the only fairness constraint, under `strategy`, and measures its shape.
///
/// # Errors
///
/// Fails when `graph` has no `p` label or no fair path, or when it has
/// more than 2^16 reachable states.
pub fn witness_shape(
    graph: &ExplicitModel,
    strategy: CycleStrategy,
) -> Result<WitnessShape, Box<dyn std::error::Error>> {
    let mut model = graph.to_symbolic()?;
    let p = model.ap("p")?;
    model.add_fairness(p);
    let mut checker = Checker::new(&mut model).with_strategy(strategy);
    let w = checker.witness(&ctl::parse("EG true")?)?;
    let stats = checker.last_witness_stats().expect("an EG witness records its stats");
    let (explicit, states) = checker.model().enumerate(1 << 16)?;
    let path: Vec<usize> = w
        .states
        .iter()
        .map(|s| states.iter().position(|t| t == s).expect("witness states are reachable"))
        .collect();
    Ok(WitnessShape {
        length: w.len(),
        cycle: w.cycle_len(),
        restarts: stats.restarts,
        stay_exits: stats.stay_exits,
        sccs_spanned: condensation(&explicit).components_visited(&path).len(),
    })
}

/// Converts and wires `nfair` fairness labels into the symbolic model.
///
/// # Errors
///
/// Propagates [`KripkeError`] from the conversion.
pub fn to_symbolic_with_fairness(
    graph: &ExplicitModel,
    nfair: usize,
) -> Result<SymbolicModel, KripkeError> {
    let mut model = graph.to_symbolic()?;
    for k in 0..nfair {
        let set = model.ap(&format!("f{k}"))?;
        model.add_fairness(set);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_kripke::tarjan_scc;

    #[test]
    fn ring_is_one_scc() {
        let g = single_scc_ring(7);
        assert_eq!(tarjan_scc(&g).len(), 1);
        assert!(g.is_total());
    }

    #[test]
    fn chain_has_k_sccs_in_a_path() {
        let g = scc_chain(4);
        let cond = condensation(&g);
        assert_eq!(cond.len(), 4);
        assert!(g.is_total());
        // Exactly one terminal component, holding the fairness label.
        let terminals: Vec<usize> = (0..cond.len()).filter(|&c| cond.is_terminal(c)).collect();
        assert_eq!(terminals.len(), 1);
        let p = g.ap_id("p").unwrap();
        assert!(cond.components[terminals[0]].iter().any(|&s| g.holds(s, p)));
    }

    #[test]
    fn hamiltonian_instance_is_total_with_n_masks() {
        let (g, masks) = hamiltonian_instance(6);
        assert!(g.is_total());
        assert_eq!(masks.len(), 6);
        for (k, m) in masks.iter().enumerate() {
            assert_eq!(m.iter().filter(|&&b| b).count(), 1);
            assert!(m[k]);
        }
    }

    #[test]
    fn random_graph_is_total_and_convertible() {
        for seed in 0..5 {
            let g = random_fair_graph(12, seed, 2);
            assert!(g.is_total());
            let mut model = to_symbolic_with_fairness(&g, 2).expect("total");
            assert!(model.reachable_count().unwrap() >= 1.0);
            assert_eq!(model.fairness().len(), 2);
        }
    }
}
