//! Pins the witness-shape rows of EXPERIMENTS.md (EXP-2/EXP-3 and
//! ablation A1): for the Figure 1 ring and the Figure 2 SCC chains, the
//! fair `EG true` witness has exactly the documented length, cycle
//! length, restart count, stay-set exit count and number of SCCs
//! spanned. The `experiments` binary prints the same rows; these shapes
//! are deterministic and must never move.

use smc_bench::{scc_chain, single_scc_ring, witness_shape, WitnessShape};
use smc_checker::CycleStrategy::{self, Restart, StaySet};
use smc_kripke::ExplicitModel;

/// `(length, cycle, restarts, stay-exits, SCCs spanned)`.
fn shape(graph: &ExplicitModel, strategy: CycleStrategy) -> (usize, usize, usize, usize, usize) {
    let WitnessShape { length, cycle, restarts, stay_exits, sccs_spanned } =
        witness_shape(graph, strategy).expect("fair path exists");
    (length, cycle, restarts, stay_exits, sccs_spanned)
}

#[test]
fn figure_1_ring_closes_in_one_scc_without_restarting() {
    assert_eq!(shape(&single_scc_ring(8), Restart), (9, 8, 0, 0, 1));
}

#[test]
fn figure_2_chains_match_the_documented_rows() {
    for (k, strategy, expected) in [
        (3, Restart, (8, 2, 1, 0, 3)),
        (3, StaySet, (7, 2, 2, 2, 3)),
        (6, Restart, (14, 2, 1, 0, 6)),
        (6, StaySet, (13, 2, 5, 5, 6)),
        (10, Restart, (22, 2, 1, 0, 10)),
        (10, StaySet, (21, 2, 9, 9, 10)),
    ] {
        assert_eq!(shape(&scc_chain(k), strategy), expected, "chain({k}) under {strategy:?}");
    }
}
