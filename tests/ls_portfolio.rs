//! Property-based validation of the local-search incumbent engine and
//! the portfolio driver: on arbitrary small instances, LS incumbents
//! must always verify, LS can never beat the true optimum, the portfolio
//! must agree with plain bsolo and exhaustive enumeration in both of its
//! default's orders, and equal seeds must give identical LS runs.

use proptest::prelude::*;

use pbo::pbo_ls::{LocalSearch, LsOptions};
use pbo::{
    brute_force, Bsolo, BsoloOptions, InstanceBuilder, LbMethod, Lit, Portfolio, PortfolioOptions,
    RelOp,
};
use pbo_core::verify_solution;

/// Strategy: a small random PBO instance described as data, materialized
/// through the builder (mirrors `cross_solver.rs`).
#[derive(Clone, Debug)]
#[allow(clippy::type_complexity)]
struct RawInstance {
    num_vars: usize,
    constraints: Vec<(Vec<(i64, usize, bool)>, u8, i64)>,
    costs: Vec<i64>,
}

fn raw_instance() -> impl Strategy<Value = RawInstance> {
    (2usize..7)
        .prop_flat_map(|n| {
            let term = (1i64..4, 0..n, any::<bool>());
            let constraint = (proptest::collection::vec(term, 1..4), 0u8..3, 1i64..6);
            (
                Just(n),
                proptest::collection::vec(constraint, 1..6),
                proptest::collection::vec(0i64..6, n),
            )
        })
        .prop_map(|(num_vars, constraints, costs)| RawInstance { num_vars, constraints, costs })
}

fn materialize(raw: &RawInstance) -> pbo::Instance {
    let mut b = InstanceBuilder::with_vars(raw.num_vars);
    for (terms, op, rhs) in &raw.constraints {
        let op = match op % 3 {
            0 => RelOp::Ge,
            1 => RelOp::Le,
            _ => RelOp::Eq,
        };
        let terms: Vec<(i64, Lit)> =
            terms.iter().map(|&(c, v, pos)| (c, Lit::new(v % raw.num_vars, pos))).collect();
        b.add_linear(terms, op, *rhs);
    }
    b.minimize(raw.costs.iter().enumerate().map(|(i, &c)| (c, Lit::new(i, true))));
    b.build().expect("raw instances are buildable")
}

fn short_ls() -> LsOptions {
    LsOptions { max_steps: 4_000, time_limit: None, ..LsOptions::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every incumbent LS returns verifies against the instance at
    /// exactly its reported cost, and can never beat the enumerated
    /// optimum.
    #[test]
    fn ls_incumbents_verify_and_respect_the_optimum(raw in raw_instance()) {
        let inst = materialize(&raw);
        let optimum = brute_force(&inst).cost();
        let result = LocalSearch::new(&inst, short_ls()).run(None, None);
        prop_assert_eq!(result.stats.verify_rejects, 0);
        match (result.best_cost, result.best_model) {
            (Some(cost), Some(model)) => {
                prop_assert_eq!(verify_solution(&inst, &model), Ok(cost));
                let opt = optimum.expect("LS found a solution, so the instance is feasible");
                prop_assert!(cost >= opt, "LS cost {} beats the optimum {}", cost, opt);
            }
            (None, None) => {
                // LS is incomplete: allowed to find nothing, feasible or
                // not. Nothing further to check.
            }
            other => prop_assert!(false, "cost/model mismatch: {:?}", other),
        }
    }

    /// The portfolio returns the same optimum as plain bsolo and the
    /// brute-force oracle, whether its default races (on an
    /// optimization instance with a second core) or walks, then
    /// searches (as under `deterministic_join`).
    #[test]
    fn portfolio_matches_bsolo_and_enumeration(raw in raw_instance()) {
        let inst = materialize(&raw);
        let expected = brute_force(&inst).cost();
        let exact = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
        prop_assert!(exact.is_optimal() || expected.is_none());
        prop_assert_eq!(exact.best_cost, expected);
        for deterministic_join in [false, true] {
            let bsolo = BsoloOptions { deterministic_join, ..BsoloOptions::default() };
            let options = PortfolioOptions { bsolo, ..PortfolioOptions::default() };
            let result = Portfolio::new(options).solve(&inst);
            prop_assert_eq!(
                result.best_cost, expected,
                "deterministic_join {} disagrees with enumeration", deterministic_join
            );
            if let Some(model) = &result.best_assignment {
                prop_assert_eq!(verify_solution(&inst, model), Ok(result.best_cost.unwrap()));
            }
        }
    }

    /// Equal seeds give bit-identical LS runs; the run is a pure
    /// function of (instance, options).
    #[test]
    fn ls_is_deterministic_per_seed(input in (raw_instance(), 0u64..1000)) {
        let (raw, seed) = input;
        let inst = materialize(&raw);
        let options = LsOptions { seed, ..short_ls() };
        let a = LocalSearch::new(&inst, options.clone()).run(None, None);
        let b = LocalSearch::new(&inst, options).run(None, None);
        prop_assert_eq!(a.best_cost, b.best_cost);
        prop_assert_eq!(a.best_model, b.best_model);
        prop_assert_eq!(a.stats.steps, b.stats.steps);
        prop_assert_eq!(a.stats.flips, b.stats.flips);
        prop_assert_eq!(a.stats.restarts, b.stats.restarts);
        prop_assert_eq!(a.stats.incumbents, b.stats.incumbents);
    }
}

/// The warm start must pay off where it matters: on a Table-1-style
/// synthesis instance, seeding B&B with the LS incumbent must not
/// explore more nodes than the cold search. `deterministic_join` selects
/// the walk-then-search order on any number of cores; with one exact
/// worker it changes nothing else.
#[test]
fn warm_start_shrinks_the_tree_on_synthesis() {
    use pbo::pbo_benchgen::SynthesisParams;
    let inst = SynthesisParams {
        primes: 40,
        minterms: 60,
        cover_density: 4.0,
        exclusions: 6,
        ..SynthesisParams::default()
    }
    .generate(3);
    let cold = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    let bsolo = BsoloOptions { deterministic_join: true, ..BsoloOptions::default() };
    let warm =
        Portfolio::new(PortfolioOptions { bsolo, ..PortfolioOptions::default() }).solve(&inst);
    assert!(cold.is_optimal() && warm.is_optimal());
    assert_eq!(cold.best_cost, warm.best_cost);
    assert!(
        warm.stats.decisions <= cold.stats.decisions,
        "warm start explored more nodes ({}) than cold ({})",
        warm.stats.decisions,
        cold.stats.decisions
    );
}
