//! Property-based cross-validation: on arbitrary small instances, every
//! solver and every bsolo configuration must agree with exhaustive
//! enumeration.

use proptest::prelude::*;

use pbo::{
    brute_force, Bsolo, BsoloOptions, Budget, InstanceBuilder, LbMethod, LinearSearch, Lit,
    MilpSolver, RelOp, SolveStatus,
};

/// Strategy: a small random PBO instance described as data (so shrinking
/// works), materialized through the builder.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_bsolo_configs_match_enumeration(raw in raw_instance()) {
        let inst = materialize(&raw);
        let expected = brute_force(&inst).cost();
        for lb in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
            let got = Bsolo::with_lb(lb).solve(&inst);
            prop_assert_eq!(got.best_cost, expected, "method {:?}", lb);
            if let Some(model) = &got.best_assignment {
                prop_assert!(inst.is_feasible(model));
                prop_assert_eq!(Some(inst.cost_of(model)), expected);
            }
        }
    }

    #[test]
    fn baselines_match_enumeration(raw in raw_instance()) {
        let inst = materialize(&raw);
        let expected = brute_force(&inst).cost();
        let pbs = LinearSearch::pbs_like(Budget::unlimited()).solve(&inst);
        prop_assert_eq!(pbs.best_cost, expected);
        let galena = LinearSearch::galena_like(Budget::unlimited()).solve(&inst);
        prop_assert_eq!(galena.best_cost, expected);
        let milp = MilpSolver::new(Budget::unlimited()).solve(&inst);
        prop_assert_eq!(milp.best_cost, expected);
        match expected {
            Some(_) => prop_assert_eq!(milp.status, SolveStatus::Optimal),
            None => prop_assert_eq!(milp.status, SolveStatus::Infeasible),
        }
    }

    #[test]
    fn ablations_match_enumeration(raw in raw_instance()) {
        let inst = materialize(&raw);
        let expected = brute_force(&inst).cost();
        let configs = [BsoloOptions {
            cardinality_cuts: false,
            probing: false,
            ..BsoloOptions::with_lb(LbMethod::Mis)
        }];
        for (i, opts) in configs.into_iter().enumerate() {
            let got = Bsolo::new(opts).solve(&inst);
            prop_assert_eq!(got.best_cost, expected, "config {}", i);
        }
    }
}
