//! Tests for the model layer: builder, symbolic operators, explicit
//! graphs, SCC analysis, and symbolic/explicit agreement.

use proptest::prelude::*;

use smc_bdd::Bdd;

use crate::{
    condensation, tarjan_scc, ExplicitModel, KripkeError, State, SymbolicModel,
    SymbolicModelBuilder,
};

/// An n-bit binary counter model.
fn counter(bits: usize) -> crate::SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> = (0..bits).map(|i| b.bool_var(&format!("b{i}")).expect("fresh")).collect();
    b.init_zero();
    for (i, id) in ids.iter().enumerate() {
        b.next_fn(*id, move |m, cur| {
            // bit i toggles when all lower bits are 1
            let carry = m.and_all(cur[..i].iter().copied());
            m.xor(cur[i], carry)
        });
    }
    b.build().expect("counter builds")
}

#[test]
fn counter_reachable_space_is_full() {
    for bits in 1..=5 {
        let mut m = counter(bits);
        assert_eq!(m.reachable_count().unwrap(), 2f64.powi(bits as i32));
    }
}

#[test]
fn image_of_zero_state_is_one() {
    let mut m = counter(3);
    let zero = State(vec![false, false, false]);
    let succ = m.successors(&zero);
    let states = m.states_in(succ, 16).expect("small");
    assert_eq!(states, vec![State(vec![true, false, false])]);
}

#[test]
fn preimage_inverts_image_on_counter() {
    let mut m = counter(3);
    let s = State(vec![true, true, false]); // 3 -> next is 4
    let sb = m.state_bdd(&s);
    let img = m.image(sb);
    let pre = m.preimage(img);
    // The counter is a permutation, so pre(img({s})) = {s}.
    assert_eq!(pre, sb);
}

#[test]
fn state_count_matches_enumeration() {
    let mut m = counter(4);
    let reach = m.reachable().unwrap();
    let states = m.states_in(reach, 100).expect("bounded");
    assert_eq!(states.len() as f64, m.state_count(reach));
}

#[test]
fn builder_rejects_duplicates_and_missing_init() {
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("x").expect("fresh");
    assert!(matches!(b.bool_var("x"), Err(KripkeError::DuplicateVar(_))));

    let mut b2 = SymbolicModelBuilder::new();
    b2.bool_var("x").expect("fresh");
    assert!(matches!(b2.build(), Err(KripkeError::EmptyInit)));

    let b3 = SymbolicModelBuilder::new();
    assert!(matches!(b3.build(), Err(KripkeError::NoVariables)));
}

#[test]
fn builder_detects_deadlocks() {
    // next(x) must be x ∧ ¬x = impossible → deadlock everywhere.
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    b.init_zero();
    let cur_x = b.cur(x);
    let nxt_x = b.next(x);
    let m = b.manager_mut();
    let n = m.not(nxt_x);
    let contradiction = m.and(nxt_x, n);
    let part = m.and(cur_x, contradiction); // x=1 states deadlock
                                            // from x=0 go to x=1, from x=1 nowhere
    let m = b.manager_mut();
    let ncur = m.not(cur_x);
    let go_up = m.and(ncur, nxt_x);
    let trans = m.or(go_up, part);
    b.constrain_trans(trans);
    match b.build() {
        Err(KripkeError::Deadlock(s)) => assert!(s.contains("x=1")),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn self_loop_deadlocks_rescues_partial_relations() {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    b.init_zero();
    let cur_x = b.cur(x);
    let nxt_x = b.next(x);
    let m = b.manager_mut();
    let ncur = m.not(cur_x);
    let go_up = m.and(ncur, nxt_x); // only 0 -> 1 defined
    b.constrain_trans(go_up);
    b.self_loop_deadlocks();
    let mut model = b.build().expect("self-loops close the deadlock");
    assert_eq!(model.reachable_count().unwrap(), 2.0);
    let one = State(vec![true]);
    let succ = model.successors(&one);
    let states = model.states_in(succ, 4).expect("small");
    assert_eq!(states, vec![one]);
}

#[test]
fn labels_and_aps_resolve() {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    let y = b.bool_var("y").expect("fresh");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.next_fn(y, |_, cur| cur[0]);
    b.label_fn("both", |m, cur| m.and(cur[0], cur[1]));
    let mut model = b.build().expect("builds");
    let both = model.ap("both").expect("label");
    let xs = model.ap("x").expect("state var");
    let m = model.manager_mut();
    assert!(m.is_subset(both, xs));
    assert!(matches!(model.ap("nope"), Err(KripkeError::UnknownAtom(_))));
    let names = model.ap_names();
    assert!(names.contains(&"both".to_string()));
    assert!(names.contains(&"x".to_string()));
    assert!(names.contains(&"y".to_string()));
}

#[test]
fn fairness_constraints_are_stored() {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.fairness_fn(|_, cur| cur[0]);
    let model = b.build().expect("builds");
    assert_eq!(model.fairness().len(), 1);
}

// ---------------------------------------------------------------------
// Partitioned transition relations
// ---------------------------------------------------------------------

/// Builds the n-bit counter with a conjunctive partition installed.
fn partitioned_counter(bits: usize) -> crate::SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> = (0..bits).map(|i| b.bool_var(&format!("b{i}")).expect("fresh")).collect();
    b.init_zero();
    for (i, id) in ids.iter().enumerate() {
        b.next_fn(*id, move |m, cur| {
            let carry = m.and_all(cur[..i].iter().copied());
            m.xor(cur[i], carry)
        });
    }
    b.partition_transitions();
    b.build().expect("counter builds")
}

#[test]
fn partitioned_image_agrees_with_monolithic() {
    let mut mono = counter(5);
    let mut part = partitioned_counter(5);
    assert!(!mono.is_partitioned());
    assert!(part.is_partitioned());
    // Same reachable count.
    assert_eq!(mono.reachable_count().unwrap(), part.reachable_count().unwrap());
    // Images and preimages of assorted sets coincide (as state sets).
    for value in [0usize, 7, 19, 31] {
        let s = State((0..5).map(|i| value >> i & 1 == 1).collect());
        let mono_img = {
            let sb = mono.state_bdd(&s);
            let img = mono.image(sb);
            mono.states_in(img, 64).expect("small")
        };
        let part_img = {
            let sb = part.state_bdd(&s);
            let img = part.image(sb);
            part.states_in(img, 64).expect("small")
        };
        assert_eq!(mono_img, part_img, "image of {value}");
        let mono_pre = {
            let sb = mono.state_bdd(&s);
            let pre = mono.preimage(sb);
            mono.states_in(pre, 64).expect("small")
        };
        let part_pre = {
            let sb = part.state_bdd(&s);
            let pre = part.preimage(sb);
            part.states_in(pre, 64).expect("small")
        };
        assert_eq!(mono_pre, part_pre, "preimage of {value}");
    }
}

#[test]
fn partition_can_be_removed() {
    let mut m = partitioned_counter(3);
    assert!(m.is_partitioned());
    m.set_partition(Vec::new());
    assert!(!m.is_partitioned());
    assert_eq!(m.reachable_count().unwrap(), 8.0);
}

/// Two independent 2-bit counters, one relation each. Every
/// quantification cube of the partition spans two variables, so nothing
/// but the partition itself roots it.
fn twin_counters(partitioned: bool) -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> =
        ["a0", "a1", "c0", "c1"].iter().map(|n| b.bool_var(n).expect("fresh")).collect();
    b.init_zero();
    for pair in ids.chunks(2) {
        let (lo, lo2, hi, hi2) = (b.cur(pair[0]), b.next(pair[0]), b.cur(pair[1]), b.next(pair[1]));
        let m = b.manager_mut();
        let flip = m.not(lo);
        let step_lo = m.iff(lo2, flip);
        let carry = m.xor(hi, lo);
        let step_hi = m.iff(hi2, carry);
        let rel = m.and(step_lo, step_hi);
        b.constrain_trans(rel);
    }
    if partitioned {
        b.partition_transitions();
    }
    b.build().expect("twin counters build")
}

#[test]
fn partition_survives_garbage_collection() {
    let mut mono = twin_counters(false);
    let mut part = twin_counters(true);
    assert!(part.is_partitioned());
    part.manager_mut().gc(&[]);
    type Op = fn(&mut SymbolicModel, Bdd) -> Bdd;
    let ops: [(&str, Op); 2] =
        [("image", SymbolicModel::image), ("preimage", SymbolicModel::preimage)];
    for value in 0..16usize {
        let s = State((0..4).map(|i| value >> i & 1 == 1).collect());
        for (name, op) in ops {
            let states = |m: &mut SymbolicModel| {
                let sb = m.state_bdd(&s);
                let set = op(m, sb);
                m.states_in(set, 64).expect("small")
            };
            assert_eq!(states(&mut mono), states(&mut part), "{name} of {value}");
        }
    }
}

#[test]
fn removing_a_partition_releases_it_to_the_collector() {
    let mut m = partitioned_counter(5);
    m.manager_mut().gc(&[]);
    let with_parts = m.manager().num_nodes();
    m.set_partition(Vec::new());
    m.manager_mut().gc(&[]);
    assert!(m.manager().num_nodes() < with_parts, "the parts are still protected");
    m.manager().validate().expect("no dangling protected roots");
}

/// A free three-bit selector `s` schedules four data bits: value
/// `v < 4` toggles `d_v` when `v = 0` or `d_{v-1}` is set, the other
/// values stutter. Returns the model and one guard per selector value.
fn scheduled_register() -> (SymbolicModel, Vec<Bdd>) {
    let mut b = SymbolicModelBuilder::new();
    let sel: Vec<_> = (0..3).map(|i| b.bool_var(&format!("s{i}")).expect("fresh")).collect();
    let data: Vec<_> = (0..4).map(|i| b.bool_var(&format!("d{i}")).expect("fresh")).collect();
    b.init_zero();
    let s: Vec<Bdd> = sel.iter().map(|&id| b.cur(id)).collect();
    let d: Vec<Bdd> = data.iter().map(|&id| b.cur(id)).collect();
    let d2: Vec<Bdd> = data.iter().map(|&id| b.next(id)).collect();
    let m = b.manager_mut();
    let mut guards = Vec::new();
    for v in 0..8 {
        let mut guard = Bdd::TRUE;
        for (k, &bit) in s.iter().enumerate() {
            let lit = if v >> k & 1 == 1 { bit } else { m.not(bit) };
            guard = m.and(guard, lit);
        }
        guards.push(guard);
    }
    let mut trans = Bdd::TRUE;
    for v in 0..4 {
        let enabled = if v == 0 { guards[0] } else { m.and(guards[v], d[v - 1]) };
        let target = m.xor(d[v], enabled);
        let step = m.iff(d2[v], target);
        trans = m.and(trans, step);
    }
    b.constrain_trans(trans);
    (b.build().expect("scheduled register builds"), guards)
}

/// The reachable set of `m`, computed again.
fn fresh_reach(m: &mut SymbolicModel) -> Bdd {
    m.forget_reachable();
    m.reachable().expect("reachable")
}

#[test]
fn event_parts_survive_garbage_collection() {
    let (mut m, guards) = scheduled_register();
    let breadth_first = fresh_reach(&mut m);
    let expected = m.states_in(breadth_first, 256).expect("small");
    assert_eq!(expected.len(), 8 * 16);
    m.set_events(guards);
    // Only the protection keeps the guards before the analysis, and the
    // parts after it.
    m.manager_mut().gc(&[]);
    let chained = fresh_reach(&mut m);
    assert_eq!(m.states_in(chained, 256).expect("small"), expected, "over collected guards");
    m.manager_mut().gc(&[]);
    let chained = fresh_reach(&mut m);
    assert_eq!(m.states_in(chained, 256).expect("small"), expected, "over collected parts");
    // Under a node limit the ladder collects at every sweep's
    // checkpoint, with the parts rooted by their protection alone.
    m.forget_reachable();
    m.manager_mut().gc(&[]);
    let floor = m.manager().num_nodes();
    m.manager_mut().set_budget(smc_bdd::Budget::new().with_node_limit(floor + 8));
    let governed = m.reachable().expect("reachable");
    assert!(m.manager().stats().gc_runs > 2, "the ladder collected");
    assert_eq!(m.states_in(governed, 256).expect("small"), expected, "under the ladder");
    m.manager().validate().expect("no dangling protected roots");
}

#[test]
fn replacing_events_releases_their_roots() {
    let (mut m, guards) = scheduled_register();
    m.set_events(guards);
    assert!(m.has_events());
    m.manager_mut().gc(&[]);
    let with_guards = m.manager().num_nodes();
    fresh_reach(&mut m);
    m.manager_mut().gc(&[]);
    let with_parts = m.manager().num_nodes();
    m.set_events(Vec::new());
    assert!(!m.has_events());
    m.manager_mut().gc(&[]);
    let released = m.manager().num_nodes();
    assert!(released < with_parts, "the analysed parts are still protected");
    assert!(released <= with_guards, "the guards are still protected");
    m.manager().validate().expect("no dangling protected roots");
}

#[test]
fn partition_with_free_variables() {
    // One assigned bit, one free bit: the free bit has no part at all.
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    b.bool_var("free").expect("fresh");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.partition_transitions();
    let mut m = b.build().expect("builds");
    // One part is the monolithic relation.
    assert!(!m.is_partitioned());
    assert_eq!(m.reachable_count().unwrap(), 4.0);
    let zero = State(vec![false, false]);
    let succ = m.successors(&zero);
    let states = m.states_in(succ, 8).expect("small");
    // x flips deterministically; free takes both values.
    assert_eq!(states, vec![State(vec![true, false]), State(vec![true, true])]);
}

// ---------------------------------------------------------------------
// Explicit models and SCCs
// ---------------------------------------------------------------------

/// A chain of three 2-cycles: {0,1} -> {2,3} -> {4,5}, matching the
/// "three SCCs" shape of Figure 2.
fn three_scc_chain() -> ExplicitModel {
    let mut g = ExplicitModel::new();
    for _ in 0..6 {
        g.add_state(&[]);
    }
    for pair in [(0, 1), (2, 3), (4, 5)] {
        g.add_edge(pair.0, pair.1);
        g.add_edge(pair.1, pair.0);
    }
    g.add_edge(1, 2);
    g.add_edge(3, 4);
    g.add_initial(0);
    g
}

#[test]
fn explicit_model_basics() {
    let g = three_scc_chain();
    assert_eq!(g.num_states(), 6);
    assert_eq!(g.num_edges(), 8);
    assert!(g.is_total());
    assert_eq!(g.successors(1), &[0, 2]);
    // Insertion order: the 2<->3 pair edges come before the 1->2 bridge.
    assert_eq!(g.predecessors(2), &[3, 1]);
    assert_eq!(g.initial(), &[0]);
}

#[test]
fn explicit_labels_round_trip() {
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    let q = g.add_ap("q");
    assert_eq!(g.add_ap("p"), p);
    let s0 = g.add_state(&[p]);
    let s1 = g.add_state(&[p, q, q]);
    assert!(g.holds(s0, p));
    assert!(!g.holds(s0, q));
    assert!(g.holds(s1, q));
    assert_eq!(g.labels(s1), &[p, q]);
    assert_eq!(g.states_with(p), vec![s0, s1]);
    g.add_label(s0, q);
    assert!(g.holds(s0, q));
}

#[test]
fn close_deadlocks_adds_loops() {
    let mut g = ExplicitModel::new();
    g.add_state(&[]);
    g.add_state(&[]);
    g.add_edge(0, 1);
    assert!(!g.is_total());
    assert_eq!(g.close_deadlocks(), 1);
    assert!(g.is_total());
    assert_eq!(g.successors(1), &[1]);
}

#[test]
fn tarjan_finds_the_three_components() {
    let g = three_scc_chain();
    let mut comps = tarjan_scc(&g);
    for c in &mut comps {
        c.sort_unstable();
    }
    comps.sort();
    assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
}

#[test]
fn tarjan_reverse_topological_order() {
    let g = three_scc_chain();
    let comps = tarjan_scc(&g);
    // The terminal component {4,5} must come first.
    let mut first = comps[0].clone();
    first.sort_unstable();
    assert_eq!(first, vec![4, 5]);
}

#[test]
fn condensation_structure() {
    let g = three_scc_chain();
    let cond = condensation(&g);
    assert_eq!(cond.len(), 3);
    let c0 = cond.component_of[0];
    let c2 = cond.component_of[2];
    let c4 = cond.component_of[4];
    assert_eq!(cond.edges[c0], vec![c2]);
    assert_eq!(cond.edges[c2], vec![c4]);
    assert!(cond.is_terminal(c4));
    assert!(!cond.is_terminal(c0));
    assert!(!cond.is_trivial(&g, c0));
    // A path crossing all three components is recognized.
    let visited = cond.components_visited(&[0, 1, 2, 3, 4, 5, 4]);
    assert_eq!(visited, vec![c0, c2, c4]);
}

#[test]
fn trivial_scc_detection() {
    let mut g = ExplicitModel::new();
    g.add_state(&[]); // 0: trivial (no self loop)
    g.add_state(&[]); // 1: self loop
    g.add_edge(0, 1);
    g.add_edge(1, 1);
    let cond = condensation(&g);
    let c0 = cond.component_of[0];
    let c1 = cond.component_of[1];
    assert!(cond.is_trivial(&g, c0));
    assert!(!cond.is_trivial(&g, c1));
}

// ---------------------------------------------------------------------
// Symbolic <-> explicit agreement
// ---------------------------------------------------------------------

#[test]
fn enumerate_matches_counter_structure() {
    let mut m = counter(3);
    let (explicit, states) = m.enumerate(64).expect("small model");
    assert_eq!(explicit.num_states(), 8);
    assert_eq!(explicit.num_edges(), 8); // a permutation: one successor each
    assert!(explicit.is_total());
    assert_eq!(explicit.initial().len(), 1);
    // Each state's single successor is value+1 mod 8.
    let value = |s: &State| (0..3).fold(0usize, |acc, i| acc | usize::from(s.bit(i)) << i);
    for (i, s) in states.iter().enumerate() {
        let succ = explicit.successors(i);
        assert_eq!(succ.len(), 1);
        let t = &states[succ[0]];
        assert_eq!(value(t), (value(s) + 1) % 8);
    }
    // The whole counter is one big SCC.
    assert_eq!(tarjan_scc(&explicit).len(), 1);
}

#[test]
fn enumerate_respects_bound() {
    let mut m = counter(4);
    assert!(matches!(m.enumerate(3), Err(KripkeError::TooManyStates { bound: 3 })));
}

#[test]
fn enumerate_carries_fairness_labels() {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.fairness_fn(|_, cur| cur[0]);
    let mut model = b.build().expect("builds");
    let (explicit, states) = model.enumerate(8).expect("small");
    let fair_ap = explicit.ap_id("__fair_0").expect("fairness label");
    for (i, s) in states.iter().enumerate() {
        assert_eq!(explicit.holds(i, fair_ap), s.bit(0));
    }
}

// ---------------------------------------------------------------------
// State type
// ---------------------------------------------------------------------

#[test]
fn state_rendering() {
    let s = State(vec![true, false, true]);
    assert_eq!(s.to_bit_string(), "101");
    assert_eq!(format!("{s}"), "101");
    let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
    assert_eq!(s.render(&names), "a=1 b=0 c=1");
    assert_eq!(s.len(), 3);
    assert!(!s.is_empty());
    assert!(s.bit(0) && !s.bit(1));
}

// ---------------------------------------------------------------------
// Property tests: random explicit graphs
// ---------------------------------------------------------------------

/// Random graph as an edge list over `n` states.
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 1..(n * 3));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_tarjan_partitions_states((n, edges) in arb_graph(24)) {
        let mut g = ExplicitModel::new();
        for _ in 0..n {
            g.add_state(&[]);
        }
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        let comps = tarjan_scc(&g);
        let mut seen = vec![false; n];
        for comp in &comps {
            for &s in comp {
                prop_assert!(!seen[s], "state {} in two components", s);
                seen[s] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn prop_condensation_is_acyclic((n, edges) in arb_graph(24)) {
        let mut g = ExplicitModel::new();
        for _ in 0..n {
            g.add_state(&[]);
        }
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        let cond = condensation(&g);
        // Tarjan order is reverse topological: every edge must point to an
        // earlier component.
        for (c, outs) in cond.edges.iter().enumerate() {
            for &d in outs {
                prop_assert!(d < c, "condensation edge {} -> {} breaks order", c, d);
            }
        }
    }

    #[test]
    fn prop_mutual_reachability_within_scc((n, edges) in arb_graph(16)) {
        let mut g = ExplicitModel::new();
        for _ in 0..n {
            g.add_state(&[]);
        }
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        // Floyd–Warshall-style reachability oracle.
        let mut reach = vec![vec![false; n]; n];
        for (s, row) in reach.iter_mut().enumerate() {
            for &t in g.successors(s) {
                row[t] = true;
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        let cond = condensation(&g);
        for (i, row) in reach.iter().enumerate() {
            for (j, &fwd) in row.iter().enumerate() {
                let same = cond.component_of[i] == cond.component_of[j];
                let mutual = i == j || (fwd && reach[j][i]);
                prop_assert_eq!(same, mutual, "states {} and {}", i, j);
            }
        }
    }
}
