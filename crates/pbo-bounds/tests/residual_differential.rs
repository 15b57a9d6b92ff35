//! Differential/property tests of the incremental residual state: after
//! *any* decide/propagate/backjump sequence driven through the real
//! engine, [`ResidualState`] must be bit-identical to a fresh
//! [`Subproblem::new`] rebuild — path cost, active set (indices, residual
//! right-hand sides, free-term counts), free-term lists, false-literal
//! lists — and every lower-bound procedure must return identical
//! [`LbOutcome`]s through either view.

use pbo_benchgen::RandomParams;
use pbo_bounds::{LagrangianBound, LowerBound, LprBound, MisBound, ResidualState, Subproblem};
use pbo_core::{brute_force, Instance, Lit, RelOp, Value};
use pbo_engine::{Engine, Resolution};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Syncs `state` to the engine trail through its low watermark.
fn sync(state: &mut ResidualState, instance: &Instance, engine: &mut Engine) {
    let keep = engine.sync_trail(state.len());
    state.unwind_to(instance, keep);
    for &lit in &engine.trail()[keep..] {
        state.apply(instance, lit);
    }
}

/// Asserts the incremental view equals the rebuild oracle in every
/// observable dimension, then returns for how many constraints the free
/// terms were compared (just to keep the check honest).
fn assert_views_identical(
    state: &mut ResidualState,
    instance: &Instance,
    engine: &Engine,
    context: &str,
) -> usize {
    let assignment = engine.assignment();
    let oracle = Subproblem::new(instance, assignment);
    let view = state.view(instance, assignment);
    assert_eq!(view.path_cost(), oracle.path_cost(), "{context}: path cost");
    assert_eq!(view.active(), oracle.active(), "{context}: active entries");
    let mut compared = 0;
    for e in view.active() {
        let i = e.index as usize;
        let fresh: Vec<_> = oracle.free_terms(i).collect();
        let incr: Vec<_> = view.free_terms(i).collect();
        assert_eq!(incr, fresh, "{context}: free terms of constraint {i}");
        let fresh_false: Vec<Lit> = oracle.false_literals(i).collect();
        let incr_false: Vec<Lit> = view.false_literals(i).collect();
        assert_eq!(incr_false, fresh_false, "{context}: false literals of constraint {i}");
        compared += 1;
    }
    compared
}

/// Drives the engine through a random decide/propagate/backjump walk,
/// checking the state against the rebuild oracle at every quiescent
/// point.
fn random_walk(instance: &Instance, walk_seed: u64, steps: usize) {
    let mut engine = Engine::new(instance.num_vars());
    for c in instance.constraints() {
        engine
            .add_constraint(c)
            .expect("walk instances must be root-consistent, or the walk tests nothing");
    }
    let mut state = ResidualState::new(instance);
    let mut rng = ChaCha8Rng::seed_from_u64(walk_seed);
    // Also feed both view flavours to warm-started bound procedures: they
    // must stay in lockstep along the whole walk.
    let mut mis = MisBound::new();
    let mut lgr_incr = LagrangianBound::new(instance.num_constraints());
    let mut lgr_reb = LagrangianBound::new(instance.num_constraints());
    let mut lpr_incr = LprBound::new(instance);
    let mut lpr_reb = LprBound::new(instance);

    for step in 0..steps {
        let roll = rng.gen_range(0u32..10);
        if roll < 6 {
            // Decide a random unassigned literal (if any).
            let unassigned: Vec<usize> = (0..instance.num_vars())
                .filter(|&v| engine.assignment().value(pbo_core::Var::new(v)) == Value::Unassigned)
                .collect();
            if unassigned.is_empty() {
                engine.backjump_to(0);
                continue;
            }
            let v = unassigned[rng.gen_range(0..unassigned.len())];
            engine.decide(pbo_core::Var::new(v).lit(rng.gen_bool(0.5)));
            if let Some(conflict) = engine.propagate() {
                match engine.resolve_conflict(conflict) {
                    Resolution::Unsat => return,
                    Resolution::Backjumped { .. } => {
                        if engine.propagate().is_some() {
                            // Rare cascade; give up on this walk.
                            return;
                        }
                    }
                }
            }
        } else if roll < 9 {
            // Backjump to a random earlier level.
            let level = engine.decision_level();
            if level > 0 {
                engine.backjump_to(rng.gen_range(0..level));
            }
        } else {
            engine.restart();
        }

        sync(&mut state, instance, &mut engine);
        let context = format!("step {step}");
        assert_views_identical(&mut state, instance, &engine, &context);

        // Lower-bound lockstep: identical LbOutcomes through either view.
        let assignment = engine.assignment();
        let oracle = Subproblem::new(instance, assignment);
        let upper = if rng.gen_bool(0.5) { Some(rng.gen_range(1i64..50)) } else { None };
        {
            let view = state.view(instance, assignment);
            let a = mis.lower_bound(&view, upper);
            let b = mis.lower_bound(&oracle, upper);
            assert_eq!(a, b, "{context}: MIS outcome diverged");
        }
        {
            let view = state.view(instance, assignment);
            let a = lgr_incr.lower_bound(&view, upper);
            let b = lgr_reb.lower_bound(&oracle, upper);
            assert_eq!(a, b, "{context}: LGR outcome diverged");
            assert_eq!(
                lgr_incr.multipliers(),
                lgr_reb.multipliers(),
                "{context}: LGR warm-start state diverged"
            );
        }
        {
            let view = state.view(instance, assignment);
            let a = lpr_incr.lower_bound(&view, upper);
            let b = lpr_reb.lower_bound(&oracle, upper);
            assert_eq!(a, b, "{context}: LPR outcome diverged");
        }
    }
}

/// Covering-style random instances (all-positive constraints, like the
/// paper's benchmark families): never root-inconsistent, so every walk
/// actually runs.
fn monotone_params(vars: usize, constraints: usize, arity: (usize, usize)) -> RandomParams {
    RandomParams {
        vars,
        constraints,
        arity,
        coeff: (1, 4),
        positive_bias: 1.0,
        optimization: true,
        ..RandomParams::default()
    }
}

/// Mixed-polarity instance with weakly forcing constraints (small rhs),
/// built locally so negative literals inside constraints are exercised
/// without making the root inconsistent.
fn mixed_polarity_instance(seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3141);
    let n = 16usize;
    let mut b = pbo_core::InstanceBuilder::new();
    let vars = b.new_vars(n);
    for _ in 0..24 {
        let k = rng.gen_range(3usize..6);
        let mut idxs: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idxs.swap(i, j);
        }
        let terms: Vec<(i64, Lit)> = idxs[..k]
            .iter()
            .map(|&i| (rng.gen_range(1i64..4), vars[i].lit(rng.gen_bool(0.6))))
            .collect();
        // rhs at most 2: constraints never force anything at the root.
        let rhs = rng.gen_range(1i64..=2);
        b.add_linear(terms, pbo_core::RelOp::Ge, rhs);
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(0i64..8), v.lit(rng.gen_bool(0.7)))));
    b.build().expect("weakly constrained instances always build")
}

/// The CSR-vs-constraint-layout differential: the flat SoA arena the
/// incremental hot path reads must mirror the per-constraint `Vec`
/// storage (the PR-3 layout, still used by normalization, I/O and the
/// engine loader) term for term, and the occurrence CSR must list
/// exactly the occurrences a per-literal list build would.
fn assert_arena_mirrors_constraints(instance: &Instance) {
    let arena = instance.arena();
    assert_eq!(arena.num_rows(), instance.num_constraints());
    assert_eq!(arena.num_terms(), instance.num_terms());
    let mut occ_oracle: Vec<Vec<(u32, i64)>> = vec![Vec::new(); 2 * instance.num_vars()];
    for (ci, c) in instance.constraints().iter().enumerate() {
        assert_eq!(arena.rhs(ci), c.rhs(), "rhs of row {ci}");
        assert_eq!(arena.row_len(ci), c.len(), "length of row {ci}");
        let arena_terms: Vec<_> = arena.row(ci).terms().collect();
        assert_eq!(arena_terms, c.terms().to_vec(), "terms of row {ci}");
        for t in c.terms() {
            occ_oracle[t.lit.code()].push((ci as u32, t.coeff));
        }
    }
    for (code, oracle) in occ_oracle.iter().enumerate() {
        let lit = Lit::from_code(code);
        let (rows, coeffs) = arena.occurrences(lit);
        let got: Vec<(u32, i64)> = rows.iter().copied().zip(coeffs.iter().copied()).collect();
        assert_eq!(&got, oracle, "occurrences of literal code {code}");
    }
}

#[test]
fn term_arena_mirrors_constraint_storage() {
    for seed in 0..4u64 {
        assert_arena_mirrors_constraints(&monotone_params(20, 28, (2, 6)).generate(seed));
        assert_arena_mirrors_constraints(&mixed_polarity_instance(seed));
    }
}

#[test]
fn residual_state_matches_rebuild_on_random_walks() {
    for seed in 0..6u64 {
        let instance = monotone_params(18, 26, (2, 6)).generate(seed);
        random_walk(&instance, 0x5eed ^ seed, 60);
    }
}

#[test]
fn residual_state_matches_rebuild_on_pb_heavy_instances() {
    for seed in 0..4u64 {
        let instance = monotone_params(24, 30, (4, 8)).generate(seed);
        random_walk(&instance, 0xabcd ^ seed, 50);
    }
}

#[test]
fn residual_state_matches_rebuild_with_negative_literals() {
    for seed in 0..5u64 {
        let instance = mixed_polarity_instance(seed);
        random_walk(&instance, 0x1dea ^ seed, 60);
    }
}

#[test]
fn residual_state_matches_rebuild_on_satisfaction_instances() {
    // No objective: path cost stays at zero, active tracking still must
    // agree.
    for seed in 0..3u64 {
        let instance =
            RandomParams { optimization: false, ..monotone_params(16, 22, (2, 5)) }.generate(seed);
        random_walk(&instance, 0x7777 ^ seed, 40);
    }
}

#[test]
fn implied_mis_soundness_on_small_random_instances() {
    // Property pinned for the implied-literal upgrade: through the
    // incremental view, for an upper bound strictly above the optimum
    // (which arms reduced-cost fixing), the MIS bound must never exceed
    // the optimum (an improving completion exists, so pruning it away —
    // bound >= upper or an infeasibility verdict — would be unsound).
    let mut rng = ChaCha8Rng::seed_from_u64(0x6006);
    for round in 0..40u64 {
        let n = rng.gen_range(4..9) as usize;
        let mut b = pbo_core::InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..rng.gen_range(2..6) {
            let k = rng.gen_range(2..=3.min(n));
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            let terms: Vec<(i64, Lit)> = idxs[..k]
                .iter()
                .map(|&i| (rng.gen_range(1i64..4), vars[i].lit(rng.gen_bool(0.8))))
                .collect();
            let maxw: i64 = terms.iter().map(|t| t.0).sum();
            b.add_linear(terms, RelOp::Ge, rng.gen_range(1..=maxw));
        }
        b.minimize(vars.iter().map(|v| (rng.gen_range(0i64..6), v.positive())));
        let inst = b.build().unwrap();
        let Some(opt) = brute_force(&inst).cost() else { continue };
        let upper = opt + rng.gen_range(1i64..5);
        let mut state = ResidualState::new(&inst);
        let assignment = pbo_core::Assignment::new(n);
        let view = state.view(&inst, &assignment);
        let out = MisBound::new().lower_bound(&view, Some(upper));
        assert!(!out.infeasible, "round {round}: spurious infeasibility (opt {opt} < {upper})");
        assert!(
            out.bound <= opt,
            "round {round}: bound {} exceeds optimum {opt} (upper {upper})",
            out.bound
        );
        // And with no upper, the bound is a plain lower bound on the
        // optimum.
        let out = MisBound::new().lower_bound(&view, None);
        assert!(!out.infeasible, "round {round}: bare infeasibility");
        assert!(out.bound <= opt, "round {round}: bare bound {} > {opt}", out.bound);
    }
}

#[test]
fn deep_backjump_after_long_descent_resyncs_in_one_step() {
    // A long descent followed by a jump straight back to the root is the
    // worst case for the watermark protocol: everything unwinds.
    let instance = monotone_params(20, 24, (2, 5)).generate(3);
    let mut engine = Engine::new(instance.num_vars());
    for c in instance.constraints() {
        engine.add_constraint(c).expect("monotone instances are root-consistent");
    }
    let mut state = ResidualState::new(&instance);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for _ in 0..instance.num_vars() {
        let unassigned: Vec<usize> = (0..instance.num_vars())
            .filter(|&v| engine.assignment().value(pbo_core::Var::new(v)) == Value::Unassigned)
            .collect();
        let Some(&v) = unassigned.first() else { break };
        engine.decide(pbo_core::Var::new(v).lit(rng.gen_bool(0.5)));
        if engine.propagate().is_some() {
            break;
        }
    }
    sync(&mut state, &instance, &mut engine);
    assert_views_identical(&mut state, &instance, &engine, "after descent");
    let deep_len = state.len();
    engine.backjump_to(0);
    sync(&mut state, &instance, &mut engine);
    assert!(state.len() <= deep_len);
    assert_views_identical(&mut state, &instance, &engine, "after root backjump");
    assert_eq!(state.len(), engine.trail_len(), "everything above the root must have been unwound");
}
