//! Unit and property tests for the OBDD package, validated against a
//! brute-force truth-table oracle.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use crate::manager::ComputedCache;
use crate::{Bdd, BddError, BddManager, Var};

/// A small boolean expression language used as the test oracle.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &[bool]) -> bool {
        match self {
            Expr::Var(i) => env[*i],
            Expr::Const(b) => *b,
            Expr::Not(e) => !e.eval(env),
            Expr::And(a, b) => a.eval(env) && b.eval(env),
            Expr::Or(a, b) => a.eval(env) || b.eval(env),
            Expr::Xor(a, b) => a.eval(env) ^ b.eval(env),
            Expr::Ite(c, t, e) => {
                if c.eval(env) {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
        }
    }

    fn build(&self, m: &mut BddManager, vars: &[Var]) -> Bdd {
        match self {
            Expr::Var(i) => m.var(vars[*i]),
            Expr::Const(b) => m.constant(*b),
            Expr::Not(e) => {
                let x = e.build(m, vars);
                m.not(x)
            }
            Expr::And(a, b) => {
                let (x, y) = (a.build(m, vars), b.build(m, vars));
                m.and(x, y)
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.build(m, vars), b.build(m, vars));
                m.or(x, y)
            }
            Expr::Xor(a, b) => {
                let (x, y) = (a.build(m, vars), b.build(m, vars));
                m.xor(x, y)
            }
            Expr::Ite(c, t, e) => {
                let (x, y, z) = (c.build(m, vars), t.build(m, vars), e.build(m, vars));
                m.ite(x, y, z)
            }
        }
    }
}

fn arb_expr(nvars: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(0..nvars).prop_map(Expr::Var), any::<bool>().prop_map(Expr::Const),];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn manager_with_vars(n: usize) -> (BddManager, Vec<Var>) {
    let mut m = BddManager::new();
    let vars = (0..n).map(|i| m.new_var(&format!("x{i}")).expect("fresh name")).collect();
    (m, vars)
}

/// A deterministic pseudo-random permutation of `vars` from `seed`.
fn shuffled(vars: &[Var], seed: u64) -> Vec<Var> {
    let mut order = vars.to_vec();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// The renaming that swaps each `a[i]` with `b[i]` simultaneously.
fn swap_map(a: &[Var], b: &[Var]) -> Vec<(Var, Var)> {
    a.iter().zip(b).flat_map(|(&x, &y)| [(x, y), (y, x)]).collect()
}

fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0u32..(1 << n)).map(move |bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
}

// ---------------------------------------------------------------------
// Basic algebra
// ---------------------------------------------------------------------

#[test]
fn constants_are_distinct_terminals() {
    let m = BddManager::new();
    assert!(m.constant(true).is_true());
    assert!(m.constant(false).is_false());
    assert_ne!(Bdd::TRUE, Bdd::FALSE);
}

#[test]
fn var_and_nvar_are_complements() {
    let (mut m, vars) = manager_with_vars(1);
    let x = m.var(vars[0]);
    let nx = m.nvar(vars[0]);
    assert_eq!(m.not(x), nx);
    assert_eq!(m.and(x, nx), Bdd::FALSE);
    assert_eq!(m.or(x, nx), Bdd::TRUE);
}

#[test]
fn duplicate_variable_names_are_rejected() {
    let mut m = BddManager::new();
    m.new_var("x").expect("first");
    assert_eq!(m.new_var("x"), Err(BddError::DuplicateVarName("x".to_string())));
}

#[test]
fn hash_consing_makes_equal_functions_identical() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
    // (a ∧ b) ∨ c twice, built differently.
    let ab = m.and(a, b);
    let lhs = m.or(ab, c);
    let ca = m.or(c, ab);
    assert_eq!(lhs, ca);
    // De Morgan.
    let nab = m.nand(a, b);
    let na = m.not(a);
    let nb = m.not(b);
    let demorgan = m.or(na, nb);
    assert_eq!(nab, demorgan);
}

#[test]
fn implication_truth_table() {
    let (mut m, vars) = manager_with_vars(2);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let imp = m.implies(a, b);
    assert!(!m.eval(imp, &[true, false]));
    assert!(m.eval(imp, &[false, false]));
    assert!(m.eval(imp, &[false, true]));
    assert!(m.eval(imp, &[true, true]));
}

#[test]
fn n_ary_connectives_match_folds() {
    let (mut m, vars) = manager_with_vars(4);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let conj = m.and_all(lits.iter().copied());
    let disj = m.or_all(lits.iter().copied());
    for env in assignments(4) {
        assert_eq!(m.eval(conj, &env), env.iter().all(|&b| b));
        assert_eq!(m.eval(disj, &env), env.iter().any(|&b| b));
    }
    assert_eq!(m.and_all(std::iter::empty()), Bdd::TRUE);
    assert_eq!(m.or_all(std::iter::empty()), Bdd::FALSE);
}

#[test]
fn subset_and_intersection_queries() {
    let (mut m, vars) = manager_with_vars(2);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let ab = m.and(a, b);
    assert!(m.is_subset(ab, a));
    assert!(!m.is_subset(a, ab));
    assert!(m.intersects(a, b));
    let na = m.not(a);
    assert!(!m.intersects(a, na));
}

// ---------------------------------------------------------------------
// Cofactors, quantifiers, cubes
// ---------------------------------------------------------------------

#[test]
fn restrict_is_cofactor() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
    let bc = m.and(b, c);
    let f = m.ite(a, bc, c);
    let f1 = m.restrict(f, vars[0], true);
    let f0 = m.restrict(f, vars[0], false);
    assert_eq!(f1, bc);
    assert_eq!(f0, c);
}

#[test]
fn exists_and_forall_are_dual() {
    let (mut m, vars) = manager_with_vars(4);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let c = m.var(vars[2]);
    let ab = m.xor(a, b);
    let f = m.and(ab, c);
    let cube = m.cube(&vars[0..2]);
    let ex = m.exists(f, cube);
    let nf = m.not(f);
    let fa_n = m.forall(nf, cube);
    let dual = m.not(fa_n);
    assert_eq!(ex, dual);
    // ∃a,b. (a⊕b) ∧ c  =  c
    assert_eq!(ex, c);
    // ∀a,b. (a⊕b) ∧ c  =  false
    let fa = m.forall(f, cube);
    assert_eq!(fa, Bdd::FALSE);
}

#[test]
fn and_exists_equals_two_pass() {
    let (mut m, vars) = manager_with_vars(6);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let x = m.xor(lits[0], lits[3]);
    let f = m.or(x, lits[4]);
    let iffy = m.iff(lits[1], lits[5]);
    let g = m.and(lits[0], iffy);
    let cube = m.cube(&[vars[0], vars[1]]);
    let fused = m.and_exists(f, g, cube);
    let anded = m.and(f, g);
    let two_pass = m.exists(anded, cube);
    assert_eq!(fused, two_pass);
}

#[test]
fn cube_recognition() {
    let (mut m, vars) = manager_with_vars(3);
    let cube = m.cube(&[vars[0], vars[2]]);
    assert!(m.is_cube(cube));
    assert_eq!(m.cube_vars(cube), vec![vars[0], vars[2]]);
    let a = m.var(vars[0]);
    let b = m.var(vars[1]);
    let not_cube = m.or(a, b);
    assert!(!m.is_cube(not_cube));
    assert!(m.is_cube(Bdd::TRUE));
    assert!(!m.is_cube(Bdd::FALSE));
}

#[test]
fn constrain_agrees_on_the_care_set() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
    let bc = m.xor(b, c);
    let f = m.ite(a, bc, c);
    let care = m.or(a, b);
    let g = m.constrain(f, care);
    let lhs = m.and(g, care);
    let rhs = m.and(f, care);
    assert_eq!(lhs, rhs, "constrain must agree with f on the care set");
    // Identity cases.
    assert_eq!(m.constrain(f, Bdd::TRUE), f);
    assert_eq!(m.constrain(f, f), Bdd::TRUE);
}

#[test]
#[should_panic(expected = "unsatisfiable")]
fn constrain_rejects_empty_care_sets() {
    let (mut m, vars) = manager_with_vars(1);
    let a = m.var(vars[0]);
    let _ = m.constrain(a, Bdd::FALSE);
}

#[test]
fn support_lists_exactly_the_dependent_variables() {
    let (mut m, vars) = manager_with_vars(4);
    let (a, c) = (m.var(vars[0]), m.var(vars[2]));
    let f = m.xor(a, c);
    assert_eq!(m.support(f), vec![vars[0], vars[2]]);
    assert_eq!(m.support(Bdd::TRUE), vec![]);
}

// ---------------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------------

#[test]
fn rename_moves_functions_between_rails() {
    let (mut m, vars) = manager_with_vars(4);
    // Treat vars[0..2] as current, vars[2..4] as next.
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let f = m.and(a, b);
    let renamed = m.rename(f, &[(vars[0], vars[2]), (vars[1], vars[3])]);
    let (c, d) = (m.var(vars[2]), m.var(vars[3]));
    assert_eq!(renamed, m.and(c, d));
}

#[test]
fn swapping_two_rails_is_an_involution() {
    let (mut m, vars) = manager_with_vars(4);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let c = m.var(vars[2]);
    let ab = m.xor(a, b);
    let f = m.or(ab, c);
    let cur = [vars[0], vars[1]];
    let nxt = [vars[2], vars[3]];
    let swap = swap_map(&cur, &nxt);
    let g = m.rename(f, &swap);
    let back = m.rename(g, &swap);
    assert_eq!(back, f);
}

#[test]
fn rename_splices_with_ite_only_at_an_order_crossing() {
    // The checker's interleaved rails: x0 x0' x1 x1' x2 x2'.
    let (mut m, vars) = manager_with_vars(6);
    let cur = [vars[0], vars[2], vars[4]];
    let nxt = [vars[1], vars[3], vars[5]];
    let (a, b, c) = (m.var(cur[0]), m.var(cur[1]), m.var(cur[2]));
    let ab = m.xor(a, b);
    let f = m.and(ab, c);
    let lookups = m.stats().cache_lookups;
    let swap = swap_map(&cur, &nxt);
    let g = m.rename(f, &swap);
    assert_eq!(m.stats().cache_lookups, lookups, "every node rebuilt with mk alone");
    assert_eq!(m.rename(g, &swap), f);
    // Reversing the block puts x2' above x0': the rebuild must use ite.
    let reversed = [(cur[0], nxt[2]), (cur[1], nxt[1]), (cur[2], nxt[0])];
    let lookups = m.stats().cache_lookups;
    let h = m.rename(f, &reversed);
    assert!(m.stats().cache_lookups > lookups, "an order crossing goes through the cache");
    for env in assignments(6) {
        let expect = (env[5] ^ env[3]) && env[1];
        assert_eq!(m.eval(h, &env), expect);
    }
}

#[test]
fn fused_products_equal_the_composition_in_every_order() {
    const PAIRS: usize = 6;
    let exprs = arb_expr(2 * PAIRS);
    let mut split_cases = 0;
    for case in 0..300u64 {
        let mut rng = proptest::TestRng::for_case(case);
        // Pairs declared interleaved: x0, x0', x1, x1', ...
        let (mut m, vars) = manager_with_vars(2 * PAIRS);
        let cur: Vec<Var> = vars.iter().copied().step_by(2).collect();
        let nxt: Vec<Var> = vars.iter().copied().skip(1).step_by(2).collect();
        m.set_pairs(&cur, &nxt);
        let mut operand = |m: &mut BddManager| {
            let a = exprs.sample(&mut rng).build(m, &vars);
            let b = exprs.sample(&mut rng).build(m, &vars);
            m.xor(a, b)
        };
        let (f, g) = (operand(&mut m), operand(&mut m));
        // Per pair: 0 quantifies, 1 renames, 2 does both.
        let actions: Vec<u64> = (0..PAIRS).map(|_| rng.below(3)).collect();
        // The declared order, whole pairs shuffled, or any order at all.
        match case % 3 {
            0 => {}
            1 => {
                let blocks = shuffled(&cur, rng.next_u64());
                let order: Vec<Var> = blocks.iter().flat_map(|&x| [x, Var(x.0 + 1)]).collect();
                m.reorder(&order).expect("permutation");
            }
            _ => m.reorder(&shuffled(&vars, rng.next_u64())).expect("permutation"),
        }
        let split = (0..PAIRS).any(|i| m.level_of_var(nxt[i]) != m.level_of_var(cur[i]) + 1);
        split_cases += usize::from(split);

        // rel_next: x quantified, x' renamed to x. A renamed x that is
        // not quantified must not occur in the operands.
        let (mut members, mut quantified, mut renaming) = (Vec::new(), Vec::new(), Vec::new());
        let (mut f1, mut g1) = (f, g);
        for i in 0..PAIRS {
            if actions[i] != 1 {
                members.push(cur[i]);
                quantified.push(cur[i]);
            } else {
                let x = m.cube(&[cur[i]]);
                f1 = m.exists(f1, x);
                g1 = m.exists(g1, x);
            }
            if actions[i] != 0 {
                members.push(nxt[i]);
                renaming.push((nxt[i], cur[i]));
            }
        }
        let pairs = m.cube(&members);
        let fused = m.rel_next(f1, g1, pairs);
        let q = m.cube(&quantified);
        let product = m.and_exists(f1, g1, q);
        assert_eq!(fused, m.rename(product, &renaming), "rel_next, case {case}, split {split}");

        // rel_prev: x read as x', x' quantified. The set must not
        // mention a renamed x'.
        let (mut members, mut quantified, mut renaming) = (Vec::new(), Vec::new(), Vec::new());
        let mut f2 = f;
        for i in 0..PAIRS {
            if actions[i] != 1 {
                members.push(nxt[i]);
                quantified.push(nxt[i]);
            }
            if actions[i] != 0 {
                members.push(cur[i]);
                renaming.push((cur[i], nxt[i]));
                let x2 = m.cube(&[nxt[i]]);
                f2 = m.exists(f2, x2);
            }
        }
        let pairs = m.cube(&members);
        let fused = m.rel_prev(f2, g, pairs);
        let moved = m.rename(f2, &renaming);
        let q = m.cube(&quantified);
        assert_eq!(fused, m.and_exists(moved, g, q), "rel_prev, case {case}, split {split}");
        m.validate().expect("the split-pair count follows every swap");
    }
    assert!(split_cases >= 50, "only {split_cases} cases split a pair");
}

#[test]
fn compose_substitutes_a_function() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
    let f = m.xor(a, c); // a ⊕ c
    let g = m.and(b, c); // b ∧ c
    let h = m.compose(f, vars[0], g); // (b∧c) ⊕ c
    for env in assignments(3) {
        let expected = (env[1] && env[2]) ^ env[2];
        assert_eq!(m.eval(h, &env), expected);
    }
}

// ---------------------------------------------------------------------
// Counting and enumeration
// ---------------------------------------------------------------------

#[test]
fn sat_count_small_functions() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    assert_eq!(m.sat_count(Bdd::TRUE, 3), 8.0);
    assert_eq!(m.sat_count(Bdd::FALSE, 3), 0.0);
    assert_eq!(m.sat_count(a, 3), 4.0);
    let ab = m.and(a, b);
    assert_eq!(m.sat_count(ab, 3), 2.0);
    let axb = m.xor(a, b);
    assert_eq!(m.sat_count(axb, 3), 4.0);
    // Count over a narrower variable universe.
    assert_eq!(m.sat_count(axb, 2), 2.0);
}

#[test]
fn only_sat_counting_grows_the_walk_memo() {
    let (mut m, vars) = manager_with_vars(4);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let ab = m.and(lits[0], lits[1]);
    let cd = m.xor(lits[2], lits[3]);
    let f = m.or(ab, cd);
    assert_eq!(m.size(f), 5);
    assert!(m.scratch.borrow().vals.is_empty(), "a size walk grew the sat-count memo");
    // 16 assignments, minus the 6 with a∧b false and c = d.
    assert_eq!(m.sat_count(f, 4), 10.0);
    assert!(m.scratch.borrow().vals.len() >= m.peak_nodes());
    // A size walk between two counts leaves the memo's entries stale,
    // never wrong.
    let g = m.and(f, lits[0]);
    assert_eq!(m.size(g), 5);
    assert_eq!(m.sat_count(g, 4), 6.0);
    assert_eq!(m.sat_count(f, 4), 10.0);
}

#[test]
fn one_sat_returns_a_model() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
    let nb = m.not(b);
    let anb = m.and(a, nb);
    let f = m.and(anb, c);
    let sat = m.one_sat(f).expect("satisfiable");
    let mut env = vec![false; 3];
    for (v, val) in &sat {
        env[v.index()] = *val;
    }
    assert!(m.eval(f, &env));
    assert_eq!(m.one_sat(Bdd::FALSE), None);
}

#[test]
fn one_sat_total_covers_all_requested_vars() {
    let (mut m, vars) = manager_with_vars(4);
    let b = m.var(vars[1]);
    let total = m.one_sat_total(b, &vars).expect("satisfiable");
    assert_eq!(total.len(), 4);
    assert!(total[1]);
}

#[test]
fn cubes_partition_the_on_set() {
    let (mut m, vars) = manager_with_vars(3);
    let (a, b) = (m.var(vars[0]), m.var(vars[1]));
    let c = m.var(vars[2]);
    let ab = m.xor(a, b);
    let f = m.or(ab, c);
    // Re-evaluate every total assignment against the cube list.
    let cubes: Vec<_> = m.cubes(f).collect();
    for env in assignments(3) {
        let expected = m.eval(f, &env);
        let covered =
            cubes.iter().filter(|cube| cube.iter().all(|(v, val)| env[v.index()] == *val)).count();
        // Disjoint cover: exactly one cube for members, none otherwise.
        assert_eq!(covered, usize::from(expected));
    }
}

// ---------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------

#[test]
fn gc_reclaims_garbage_and_keeps_roots() {
    let (mut m, vars) = manager_with_vars(8);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut keep = Bdd::TRUE;
    for chunk in lits.chunks(2) {
        let x = m.xor(chunk[0], chunk[1]);
        keep = m.and(keep, x);
    }
    // Build garbage.
    for i in 0..lits.len() {
        for j in 0..lits.len() {
            let _ = m.iff(lits[i], lits[j]);
        }
    }
    let before = m.num_nodes();
    m.protect(keep);
    let reclaimed = m.gc(&[]);
    assert!(reclaimed > 0);
    assert!(m.num_nodes() < before);
    // The kept function still evaluates correctly.
    for env in [[true; 8], [false; 8]] {
        assert!(!m.eval(keep, &env));
    }
    let env = [true, false, true, false, true, false, true, false];
    assert!(m.eval(keep, &env));
    // Rebuilding the same function gives the same node back.
    let mut rebuilt = Bdd::TRUE;
    for chunk in vars.chunks(2) {
        let x0 = m.var(chunk[0]);
        let x1 = m.var(chunk[1]);
        let x = m.xor(x0, x1);
        rebuilt = m.and(rebuilt, x);
    }
    assert_eq!(rebuilt, keep);
}

#[test]
fn protection_is_counted() {
    let (mut m, vars) = manager_with_vars(2);
    let a = m.var(vars[0]);
    let b = m.var(vars[1]);
    let f = m.xor(a, b);
    m.protect(f);
    m.protect(f);
    m.unprotect(f);
    m.gc(&[]);
    // Still alive: size is computable and correct (one x0 node plus the
    // positive and negated x1 nodes).
    assert_eq!(m.size(f), 3);
    m.unprotect(f);
    let reclaimed = m.gc(&[]);
    assert!(reclaimed > 0);
}

// ---------------------------------------------------------------------
// Reordering
// ---------------------------------------------------------------------

#[test]
fn swap_levels_preserves_semantics_and_handles() {
    let (mut m, vars) = manager_with_vars(4);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let x01 = m.xor(lits[0], lits[1]);
    let a23 = m.and(lits[2], lits[3]);
    let f = m.or(x01, a23);
    for level in [0, 1, 2, 0, 1] {
        m.swap_levels(level);
        for env in assignments(4) {
            let expected = (env[0] ^ env[1]) || (env[2] && env[3]);
            assert_eq!(m.eval(f, &env), expected, "after swap at level {level}");
        }
    }
}

#[test]
fn reorder_to_target_order() {
    let (mut m, vars) = manager_with_vars(4);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let x = m.xor(lits[0], lits[2]);
    let f = m.and(x, lits[1]);
    let order = [vars[3], vars[2], vars[1], vars[0]];
    m.reorder(&order).expect("valid order");
    for (level, v) in order.iter().enumerate() {
        assert_eq!(m.level_of_var(*v), level);
        assert_eq!(m.var_at_level(level), *v);
    }
    for env in assignments(4) {
        assert_eq!(m.eval(f, &env), (env[0] ^ env[2]) && env[1]);
    }
}

#[test]
fn reorder_rejects_non_permutations() {
    let (mut m, vars) = manager_with_vars(3);
    assert!(m.reorder(&[vars[0], vars[1]]).is_err());
    assert!(m.reorder(&[vars[0], vars[1], vars[1]]).is_err());
    assert!(m.reorder(&[vars[0], vars[1], Var::from_index(7)]).is_err());
}

#[test]
fn sifting_shrinks_an_interleaving_sensitive_function() {
    // f = (x0∧y0) ∨ (x1∧y1) ∨ (x2∧y2) with all x's before all y's is
    // exponentially larger than with interleaved order; sifting must find
    // a substantially smaller order.
    let mut m = BddManager::new();
    let n = 6;
    let xs: Vec<Var> = (0..n).map(|i| m.new_var(&format!("x{i}")).unwrap()).collect();
    let ys: Vec<Var> = (0..n).map(|i| m.new_var(&format!("y{i}")).unwrap()).collect();
    let mut f = Bdd::FALSE;
    for i in 0..n {
        let x = m.var(xs[i]);
        let y = m.var(ys[i]);
        let t = m.and(x, y);
        f = m.or(f, t);
    }
    let before = m.size(f);
    m.protect(f);
    m.sift(&[f]);
    let after = m.size(f);
    assert!(after < before, "sifting should shrink the comb function: {before} -> {after}");
    // Optimal interleaved size is 2n nodes.
    assert!(after <= 2 * n + 2, "expected near-optimal size, got {after}");
    // Semantics preserved.
    let mut env = vec![false; 2 * n];
    assert!(!m.eval(f, &env));
    env[2] = true; // x2
    env[n + 2] = true; // y2
    assert!(m.eval(f, &env));
}

// ---------------------------------------------------------------------
// DOT export
// ---------------------------------------------------------------------

#[test]
fn dot_output_mentions_every_node() {
    let (mut m, vars) = manager_with_vars(2);
    let a = m.var(vars[0]);
    let b = m.var(vars[1]);
    let f = m.xor(a, b);
    let dot = m.to_dot(&[f]);
    assert!(dot.starts_with("digraph bdd {"));
    assert!(dot.contains("x0"));
    assert!(dot.contains("x1"));
    assert!(dot.contains("root 0"));
}

// ---------------------------------------------------------------------
// Statistics & cache ablation
// ---------------------------------------------------------------------

#[test]
fn cache_can_be_disabled() {
    let (mut m, vars) = manager_with_vars(6);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    m.set_cache_enabled(false);
    let mut f = Bdd::FALSE;
    for chunk in lits.chunks(2) {
        let t = m.and(chunk[0], chunk[1]);
        f = m.or(f, t);
    }
    let stats = m.stats();
    assert_eq!(stats.cache_lookups, 0);
    m.set_cache_enabled(true);
    let g = m.not(f);
    let _ = m.not(g);
    assert!(m.stats().cache_lookups > 0);
}

#[test]
fn stats_track_nodes() {
    let (mut m, vars) = manager_with_vars(2);
    let a = m.var(vars[0]);
    let b = m.var(vars[1]);
    let _ = m.xor(a, b);
    let stats = m.stats();
    assert!(stats.created_nodes >= 3);
    assert!(stats.live_nodes >= 3);
}

#[test]
fn per_op_counters_attribute_cache_traffic() {
    let (mut m, vars) = manager_with_vars(8);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut f = Bdd::FALSE;
    for chunk in lits.chunks(2) {
        let t = m.and(chunk[0], chunk[1]);
        f = m.or(f, t);
    }
    let g = m.xor(f, lits[0]);
    let _ = m.not(g);
    let stats = m.stats();
    let by_name: std::collections::HashMap<_, _> = stats.per_op().collect();
    for op in ["and", "or", "xor", "not"] {
        assert!(by_name[op].lookups > 0, "{op} issued no cache lookups");
    }
    let total: u64 = stats.op_counters.iter().map(|o| o.lookups).sum();
    assert_eq!(total, stats.cache_lookups, "per-op lookups must sum to total");
    let hits: u64 = stats.op_counters.iter().map(|o| o.hits).sum();
    assert_eq!(hits, stats.cache_hits, "per-op hits must sum to total");
}

#[test]
fn single_entry_cache_evicts_and_stays_correct() {
    let (mut m, vars) = manager_with_vars(6);
    m.set_cache_capacity(1);
    assert_eq!(m.cache_capacity(), 1);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    // Alternate operations so every insert collides with the previous one.
    let mut acc = Bdd::FALSE;
    for pair in lits.chunks(2) {
        let t = m.and(pair[0], pair[1]);
        acc = m.or(acc, t);
        acc = m.xor(acc, pair[0]);
    }
    let stats = m.stats();
    assert!(stats.cache_evictions > 0, "a 1-entry cache under mixed operations must evict");
    // Semantics survive maximal eviction: compare against a fresh
    // default-capacity manager.
    let (mut m2, vars2) = manager_with_vars(6);
    let lits2: Vec<Bdd> = vars2.iter().map(|&v| m2.var(v)).collect();
    let mut acc2 = Bdd::FALSE;
    for pair in lits2.chunks(2) {
        let t = m2.and(pair[0], pair[1]);
        acc2 = m2.or(acc2, t);
        acc2 = m2.xor(acc2, pair[0]);
    }
    for env in assignments(6) {
        assert_eq!(m.eval(acc, &env), m2.eval(acc2, &env));
    }
}

/// A deterministic stream of mixed operations over 16 variables whose
/// distinct subproblems far outnumber a 4,096-entry table.
fn churn(m: &mut BddManager, vars: &[Var]) -> Vec<Bdd> {
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut pick = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut pool = lits.clone();
    for _ in 0..600 {
        let (f, g) = (pool[pick() % pool.len()], pool[pick() % pool.len()]);
        let h = match pick() % 4 {
            0 => m.and(f, g),
            1 => m.or(f, g),
            2 => m.xor(f, g),
            _ => m.diff(f, g),
        };
        let x = lits[pick() % lits.len()];
        let h = m.xor(h, x);
        pool.push(h);
    }
    pool
}

#[test]
fn computed_table_starts_small_and_grows_on_churn() {
    let (mut grown, vars) = manager_with_vars(16);
    assert_eq!(grown.cache_capacity(), 4096, "a fresh manager's table");
    let expect = churn(&mut grown, &vars);
    let capacity = grown.cache_capacity();
    assert!([1 << 14, 1 << 16, 1 << 17].contains(&capacity), "grew ×4 to at most 2^17: {capacity}");
    // The table's size never changes a result: tables fixed at the
    // ceiling, below the start size and at one entry build the very same
    // handles, and none of them grows.
    for fixed in [1 << 17, 64, 1] {
        let (mut m, vars) = manager_with_vars(16);
        m.set_cache_capacity(fixed);
        assert_eq!(churn(&mut m, &vars), expect, "fixed at {fixed}");
        assert_eq!(m.cache_capacity(), fixed, "a fixed size never grows");
    }
}

// ---------------------------------------------------------------------
// Property tests against the truth-table oracle
// ---------------------------------------------------------------------

const ORACLE_VARS: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_bdd_matches_oracle(expr in arb_expr(ORACLE_VARS)) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        for env in assignments(ORACLE_VARS) {
            prop_assert_eq!(m.eval(f, &env), expr.eval(&env));
        }
    }

    #[test]
    fn prop_canonicity(e1 in arb_expr(ORACLE_VARS), e2 in arb_expr(ORACLE_VARS)) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = e1.build(&mut m, &vars);
        let g = e2.build(&mut m, &vars);
        let semantically_equal =
            assignments(ORACLE_VARS).all(|env| e1.eval(&env) == e2.eval(&env));
        prop_assert_eq!(f == g, semantically_equal);
    }

    #[test]
    fn prop_exists_matches_oracle(expr in arb_expr(ORACLE_VARS), which in 0..ORACLE_VARS) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        let cube = m.cube(&[vars[which]]);
        let ex = m.exists(f, cube);
        for env in assignments(ORACLE_VARS) {
            let mut e0 = env.clone();
            e0[which] = false;
            let mut e1 = env.clone();
            e1[which] = true;
            let expected = expr.eval(&e0) || expr.eval(&e1);
            prop_assert_eq!(m.eval(ex, &env), expected);
        }
    }

    #[test]
    fn prop_and_exists_is_fused_correctly(
        e1 in arb_expr(ORACLE_VARS),
        e2 in arb_expr(ORACLE_VARS),
        mask in 1u32..(1 << ORACLE_VARS),
    ) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = e1.build(&mut m, &vars);
        let g = e2.build(&mut m, &vars);
        let quantified: Vec<Var> = (0..ORACLE_VARS)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| vars[i])
            .collect();
        let cube = m.cube(&quantified);
        let fused = m.and_exists(f, g, cube);
        let anded = m.and(f, g);
        let two_pass = m.exists(anded, cube);
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn prop_constrain_agrees_on_care_set(
        e1 in arb_expr(ORACLE_VARS),
        e2 in arb_expr(ORACLE_VARS),
    ) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = e1.build(&mut m, &vars);
        let c = e2.build(&mut m, &vars);
        prop_assume!(!c.is_false());
        let g = m.constrain(f, c);
        let lhs = m.and(g, c);
        let rhs = m.and(f, c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn prop_sat_count_matches_enumeration(expr in arb_expr(ORACLE_VARS)) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        let expected = assignments(ORACLE_VARS).filter(|env| expr.eval(env)).count();
        prop_assert_eq!(m.sat_count(f, ORACLE_VARS), expected as f64);
    }

    #[test]
    fn prop_cube_enumeration_is_exact(expr in arb_expr(ORACLE_VARS)) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        let cubes: Vec<_> = m.cubes(f).collect();
        for env in assignments(ORACLE_VARS) {
            let covered = cubes
                .iter()
                .filter(|cube| cube.iter().all(|(v, val)| env[v.index()] == *val))
                .count();
            prop_assert_eq!(covered, usize::from(expr.eval(&env)));
        }
    }

    #[test]
    fn prop_sift_preserves_semantics(expr in arb_expr(ORACLE_VARS)) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        m.protect(f);
        m.sift(&[f]);
        for env in assignments(ORACLE_VARS) {
            prop_assert_eq!(m.eval(f, &env), expr.eval(&env));
        }
    }

    #[test]
    fn prop_reorder_round_trip(expr in arb_expr(ORACLE_VARS), seed in any::<u64>()) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        let f = expr.build(&mut m, &vars);
        m.reorder(&shuffled(&vars, seed)).expect("permutation");
        for env in assignments(ORACLE_VARS) {
            prop_assert_eq!(m.eval(f, &env), expr.eval(&env));
        }
    }

    #[test]
    fn prop_specialized_ops_agree_with_ite_and_oracle(
        e1 in arb_expr(ORACLE_VARS),
        e2 in arb_expr(ORACLE_VARS),
        cache_config in 0u8..4,
    ) {
        let (mut m, vars) = manager_with_vars(ORACLE_VARS);
        match cache_config {
            1 => m.set_cache_enabled(false),
            2 => m.set_cache_capacity(1), // maximally-evicting bounded cache
            3 => m.cache = ComputedCache::growing(2), // grows during the case
            _ => {}
        }
        let f = e1.build(&mut m, &vars);
        let g = e2.build(&mut m, &vars);

        let and = m.and(f, g);
        let or = m.or(f, g);
        let xor = m.xor(f, g);
        let diff = m.diff(f, g);
        let not_f = m.not(f);
        let not_g = m.not(g);

        // Agreement with the ite-desugared forms.
        prop_assert_eq!(and, m.ite(f, g, Bdd::FALSE));
        prop_assert_eq!(or, m.ite(f, Bdd::TRUE, g));
        prop_assert_eq!(xor, m.ite(f, not_g, g));
        prop_assert_eq!(diff, m.ite(g, Bdd::FALSE, f));
        prop_assert_eq!(not_f, m.ite(f, Bdd::FALSE, Bdd::TRUE));

        // Cross-checks through independent recursion paths: De Morgan and
        // the Shannon expansion of xor only use other specialized ops.
        let nf_or_ng = m.or(not_f, not_g);
        prop_assert_eq!(and, m.not(nf_or_ng));
        let f_and_ng = m.and(f, not_g);
        let nf_and_g = m.and(not_f, g);
        prop_assert_eq!(xor, m.or(f_and_ng, nf_and_g));
        prop_assert_eq!(diff, f_and_ng);

        // Commutativity (normalized cache keys must not change results).
        prop_assert_eq!(and, m.and(g, f));
        prop_assert_eq!(or, m.or(g, f));
        prop_assert_eq!(xor, m.xor(g, f));

        // Truth-table oracle.
        for env in assignments(ORACLE_VARS) {
            let (a, b) = (e1.eval(&env), e2.eval(&env));
            prop_assert_eq!(m.eval(and, &env), a && b);
            prop_assert_eq!(m.eval(or, &env), a || b);
            prop_assert_eq!(m.eval(xor, &env), a ^ b);
            prop_assert_eq!(m.eval(diff, &env), a && !b);
            prop_assert_eq!(m.eval(not_f, &env), !a);
        }
    }

    #[test]
    fn prop_rename_across_the_order_matches_the_oracle(expr in arb_expr(3)) {
        // x0 → x5, x1 → x4, x2 → x3 reverses the block: every node with a
        // renamed child crosses the order and is spliced in with ite.
        let (mut m, vars) = manager_with_vars(6);
        let f = expr.build(&mut m, &vars[0..3]);
        let map: Vec<(Var, Var)> = (0..3).map(|i| (vars[i], vars[5 - i])).collect();
        let g = m.rename(f, &map);
        for env in assignments(6) {
            let read: Vec<bool> = (0..3).map(|i| env[5 - i]).collect();
            prop_assert_eq!(m.eval(g, &env), expr.eval(&read));
        }
    }

    #[test]
    fn prop_rail_swap_under_any_order_matches_the_oracle(
        expr in arb_expr(6),
        seed in any::<u64>(),
    ) {
        // A random order mixes nodes rebuilt with mk and order crossings.
        let (mut m, vars) = manager_with_vars(6);
        let f = expr.build(&mut m, &vars);
        m.reorder(&shuffled(&vars, seed)).expect("permutation");
        let g = m.rename(f, &swap_map(&vars[0..3], &vars[3..6]));
        for env in assignments(6) {
            let read: Vec<bool> = (0..6).map(|i| env[(i + 3) % 6]).collect();
            prop_assert_eq!(m.eval(g, &env), expr.eval(&read));
        }
    }

    #[test]
    fn prop_rename_then_rename_back(expr in arb_expr(3)) {
        let (mut m, vars) = manager_with_vars(6);
        let f = expr.build(&mut m, &vars[0..3]);
        let fwd: Vec<(Var, Var)> = (0..3).map(|i| (vars[i], vars[i + 3])).collect();
        let bwd: Vec<(Var, Var)> = (0..3).map(|i| (vars[i + 3], vars[i])).collect();
        let g = m.rename(f, &fwd);
        let back = m.rename(g, &bwd);
        prop_assert_eq!(back, f);
    }
}

// ---------------------------------------------------------------------
// Resource governor and fault injection
// ---------------------------------------------------------------------

use crate::{Budget, CancelToken, FaultPlan, TripReason};
use std::time::{Duration, Instant};

/// Unwraps the trip reason out of a governor error.
fn trip(e: BddError) -> TripReason {
    match e {
        BddError::ResourceExhausted(reason) => reason,
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

/// A deterministic multi-step build: the parity (xor chain) of `vars`.
fn parity(m: &mut BddManager, vars: &[Var]) -> Bdd {
    let mut acc = Bdd::FALSE;
    for &v in vars {
        let x = m.var(v);
        acc = m.xor(acc, x);
    }
    acc
}

#[test]
fn expired_deadline_trips_and_manager_recovers() {
    let (mut m, vars) = manager_with_vars(8);
    m.set_budget(Budget::new().with_deadline(Instant::now() - Duration::from_millis(1)));
    let err = m.check_budget().expect_err("deadline already passed");
    assert_eq!(trip(err), TripReason::DeadlineExpired);
    // The deadline is still in the past, so the next poll re-trips.
    assert!(m.check_budget().is_err());
    m.clear_budget();
    assert!(m.check_budget().is_ok());
    // Post-recovery results match a never-budgeted manager bit for bit.
    let f = parity(&mut m, &vars);
    let (mut fresh, fresh_vars) = manager_with_vars(8);
    assert_eq!(f, parity(&mut fresh, &fresh_vars));
}

#[test]
fn cancel_token_trips_from_outside() {
    let (mut m, vars) = manager_with_vars(4);
    let token = CancelToken::new();
    m.set_budget(Budget::new().with_cancel_token(&token));
    let f = parity(&mut m, &vars);
    assert!(m.check_budget().is_ok(), "uncancelled token never trips");
    token.cancel();
    assert!(token.is_cancelled());
    assert_eq!(trip(m.check_budget().expect_err("cancelled")), TripReason::Cancelled);
    m.clear_budget();
    // The handle committed by the pre-cancellation checkpoint survives.
    let g = parity(&mut m, &vars);
    assert_eq!(f, g);
}

#[test]
fn tripped_manager_allocates_nothing() {
    let (mut m, vars) = manager_with_vars(4);
    // A spurious cancellation at the very first allocation leaves the trip
    // pending: until check_budget delivers it, every operation must unwind
    // with a dummy handle and touch no tables.
    m.inject_faults(FaultPlan { cancel_at: Some(1), ..FaultPlan::new() });
    let x = m.var(vars[0]);
    assert_eq!(m.trip_reason(), Some(&TripReason::Cancelled));
    let created = m.stats().created_nodes;
    let y = m.var(vars[1]);
    let dummy = m.and(x, y);
    assert_eq!(m.stats().created_nodes, created, "tripped ops must not allocate");
    assert!(y.is_false(), "tripped mk unwinds with a dummy handle");
    assert!(dummy.is_false(), "tripped ops unwind with a dummy handle");
    let err = m.check_budget().expect_err("pending trip is delivered");
    assert_eq!(trip(err), TripReason::Cancelled);
    m.clear_faults();
    // Recovery on the same manager is bit-identical to a fresh one.
    let f = parity(&mut m, &vars);
    let (mut fresh, fresh_vars) = manager_with_vars(4);
    assert_eq!(f, parity(&mut fresh, &fresh_vars));
}

#[test]
fn alloc_limit_rolls_back_and_retry_is_bit_identical() {
    let (mut m, vars) = manager_with_vars(8);
    let live_before = m.stats().live_nodes;
    let created_before = m.stats().created_nodes;
    m.set_budget(Budget::new().with_alloc_limit(4));
    let _garbage = parity(&mut m, &vars);
    let err = m.check_budget().expect_err("parity of 8 needs more than 4 nodes");
    match trip(err) {
        TripReason::AllocLimit { allocated, limit } => {
            assert_eq!(limit, 4);
            assert!(allocated > limit);
        }
        other => panic!("expected AllocLimit, got {other:?}"),
    }
    // Transactional: the failed attempt left no trace in the tables.
    assert_eq!(m.stats().live_nodes, live_before);
    assert_eq!(m.stats().created_nodes, created_before);
    // Retrying on the SAME manager replays the same slots: the result is
    // id-identical to what a never-budgeted manager produces.
    m.clear_budget();
    let retry = parity(&mut m, &vars);
    let (mut fresh, fresh_vars) = manager_with_vars(8);
    assert_eq!(retry, parity(&mut fresh, &fresh_vars));
}

#[test]
fn table_full_fault_is_transactional() {
    // Satellite regression: an injected TableFull mid-construction must
    // leave the manager exactly as it was at the last safe point.
    let (mut m, vars) = manager_with_vars(8);
    let warm = parity(&mut m, &vars[..3]);
    assert!(m.check_budget().is_ok());
    let live_before = m.stats().live_nodes;
    let created_before = m.stats().created_nodes;
    m.inject_faults(FaultPlan { table_full_at: Some(3), ..FaultPlan::new() });
    let _garbage = parity(&mut m, &vars);
    let err = m.check_budget().expect_err("table-full fault fired");
    assert_eq!(trip(err), TripReason::TableFull);
    assert_eq!(m.stats().live_nodes, live_before);
    assert_eq!(m.stats().created_nodes, created_before);
    // Triggers are one-shot against the allocation odometer: the retry
    // does not re-fault even with the plan still armed.
    let retry = parity(&mut m, &vars);
    assert!(m.check_budget().is_ok());
    m.clear_faults();
    let (mut fresh, fresh_vars) = manager_with_vars(8);
    let reference = parity(&mut fresh, &fresh_vars[..3]);
    assert_eq!(warm, reference);
    assert_eq!(retry, parity(&mut fresh, &fresh_vars));
}

#[test]
fn cache_wipes_do_not_change_results() {
    let (mut m, vars) = manager_with_vars(8);
    m.inject_faults(FaultPlan { wipe_cache_every: Some(2), ..FaultPlan::new() });
    let f = parity(&mut m, &vars);
    assert!(m.check_budget().is_ok(), "cache wipes are not a trip");
    m.clear_faults();
    let (mut fresh, fresh_vars) = manager_with_vars(8);
    assert_eq!(f, parity(&mut fresh, &fresh_vars));
}

#[test]
fn iteration_cap_enforced_at_checkpoints() {
    let (mut m, _) = manager_with_vars(2);
    m.set_budget(Budget::new().with_max_iterations(3));
    assert!(m.checkpoint(1, &[]).is_ok());
    assert!(m.checkpoint(3, &[]).is_ok());
    let err = m.checkpoint(4, &[]).expect_err("cap is 3");
    assert_eq!(trip(err), TripReason::IterationLimit { iterations: 4, limit: 3 });
    // Completed iterations stay committed; the manager is still usable.
    assert!(m.checkpoint(2, &[]).is_ok());
    m.clear_budget();
}

#[test]
fn node_pressure_is_relieved_by_collecting_garbage() {
    let (mut m, vars) = manager_with_vars(10);
    // Pile up dead intermediates: prefix parities no one holds on to.
    for n in 1..=vars.len() {
        let _ = parity(&mut m, &vars[..n]);
    }
    let root = parity(&mut m, &vars);
    let limit = m.size(root) + vars.len() + 8;
    assert!(m.num_nodes() > limit, "test needs real garbage pressure");
    m.set_budget(Budget::new().with_node_limit(limit));
    m.checkpoint(1, &[root]).expect("GC alone relieves garbage pressure");
    assert!(m.num_nodes() <= limit);
    m.clear_budget();
}

#[test]
fn node_limit_trips_when_live_set_cannot_shrink() {
    let (mut m, vars) = manager_with_vars(10);
    let root = parity(&mut m, &vars);
    // Parity is order-invariant: every level keeps its nodes no matter how
    // the ladder sifts, so a cap below the live set cannot be met.
    m.set_budget(Budget::new().with_node_limit(4));
    let err = m.checkpoint(1, &[root]).expect_err("live set exceeds the cap");
    match trip(err) {
        TripReason::NodeLimit { live, limit } => {
            assert_eq!(limit, 4);
            assert!(live > limit);
        }
        other => panic!("expected NodeLimit, got {other:?}"),
    }
    // The whole ladder ran before giving up.
    assert_eq!(m.ladder_stage(), 2);
    // The root survived the ladder (GC + sifting) intact.
    m.clear_budget();
    for env in assignments(10) {
        let odd = env.iter().filter(|&&b| b).count() % 2 == 1;
        assert_eq!(m.eval(root, &env), odd);
    }
}

#[test]
fn seeded_fault_campaign_never_corrupts() {
    let (mut reference, ref_vars) = manager_with_vars(6);
    let want = parity(&mut reference, &ref_vars);
    for seed in 0..24u64 {
        let (mut m, vars) = manager_with_vars(6);
        m.inject_faults(FaultPlan::seeded(seed, 24));
        let first = parity(&mut m, &vars);
        match m.check_budget() {
            Ok(()) => assert_eq!(first, want, "seed {seed}: un-tripped run must be exact"),
            Err(e) => {
                let _ = trip(e);
                // Recovery on the same manager must be bit-identical.
                let retry = parity(&mut m, &vars);
                m.check_budget().unwrap_or_else(|e| {
                    panic!("seed {seed}: one-shot triggers must not re-fire: {e:?}")
                });
                assert_eq!(retry, want, "seed {seed}: retry diverged");
            }
        }
        m.clear_faults();
        m.validate()
            .unwrap_or_else(|e| panic!("seed {seed}: invariants broken after campaign: {e}"));
    }
}

#[test]
fn fault_campaign_is_reproducible_and_armed() {
    let a = FaultPlan::campaign(7, 8, 32);
    let b = FaultPlan::campaign(7, 8, 32);
    assert_eq!(a.len(), 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.table_full_at, y.table_full_at);
        assert_eq!(x.cancel_at, y.cancel_at);
        assert_eq!(x.wipe_cache_every, y.wipe_cache_every);
        // Every round arms exactly one fault, within the horizon.
        let armed = [x.table_full_at, x.cancel_at, x.wipe_cache_every];
        let ats: Vec<u64> = armed.iter().flatten().copied().collect();
        assert_eq!(ats.len(), 1, "one fault per round");
        assert!((1..=32).contains(&ats[0]));
    }
}
