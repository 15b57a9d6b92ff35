//! Property tests of the lower-bound procedures' core contracts:
//!
//! * every bound is `<=` the true optimum of any feasible completion of
//!   the current partial assignment (validity of eq. 7 pruning);
//! * the explanation literals are all false under the assignment (a
//!   well-formed conflicting clause);
//! * the bound-conflict clause `omega_bc = omega_pp ∪ omega_pl` never
//!   excludes an assignment strictly better than the claimed bound —
//!   soundness of the learning step of sec. 4;
//! * every reduced-cost fixing `l` of the LP bound against an incumbent
//!   `U` gives a clause `l ∨ omega_bc` that excludes no feasible
//!   assignment cheaper than `U`.

use proptest::prelude::*;

use pbo::{
    Assignment, InstanceBuilder, LagrangianBound, Lit, LowerBound, LprBound, MisBound, RelOp,
    Subproblem, Value, Var,
};
use proptest::TestRng;

#[derive(Clone, Debug)]
#[allow(clippy::type_complexity)]
struct Scenario {
    num_vars: usize,
    constraints: Vec<(Vec<(i64, usize, bool)>, i64)>,
    costs: Vec<i64>,
    /// Partial assignment: var -> Option<bool>.
    fixed: Vec<Option<bool>>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (3usize..7)
        .prop_flat_map(|n| {
            let term = (1i64..4, 0..n, any::<bool>());
            let constraint = (proptest::collection::vec(term, 1..4), 1i64..6);
            (
                Just(n),
                proptest::collection::vec(constraint, 1..5),
                proptest::collection::vec(0i64..6, n),
                proptest::collection::vec(proptest::option::weighted(0.35, any::<bool>()), n),
            )
        })
        .prop_map(|(num_vars, constraints, costs, fixed)| Scenario {
            num_vars,
            constraints,
            costs,
            fixed,
        })
}

struct Built {
    instance: pbo::Instance,
    assignment: Assignment,
}

fn build(s: &Scenario) -> Built {
    let mut b = InstanceBuilder::with_vars(s.num_vars);
    for (terms, rhs) in &s.constraints {
        let terms: Vec<(i64, Lit)> =
            terms.iter().map(|&(c, v, pos)| (c, Lit::new(v % s.num_vars, pos))).collect();
        b.add_linear(terms, RelOp::Ge, *rhs);
    }
    b.minimize(s.costs.iter().enumerate().map(|(i, &c)| (c, Lit::new(i, true))));
    let instance = b.build().expect("buildable");
    let mut assignment = Assignment::new(s.num_vars);
    for (i, v) in s.fixed.iter().enumerate() {
        if let Some(val) = v {
            assignment.assign(Var::new(i), *val);
        }
    }
    Built { instance, assignment }
}

/// Minimum cost over all feasible completions of the partial assignment,
/// or None when no completion is feasible.
fn best_completion(b: &Built) -> Option<i64> {
    let n = b.instance.num_vars();
    let mut best = None;
    for mask in 0u64..(1 << n) {
        let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
        let respects = (0..n).all(|i| match b.assignment.value(Var::new(i)) {
            Value::Unassigned => true,
            Value::True => vals[i],
            Value::False => !vals[i],
        });
        if respects && b.instance.is_feasible(&vals) {
            let c = b.instance.cost_of(&vals);
            best = Some(best.map_or(c, |x: i64| x.min(c)));
        }
    }
    best
}

fn check_method(built: &Built, name: &str, outcome: pbo::LbOutcome) -> Result<(), TestCaseError> {
    let completion = best_completion(built);
    // 1. Explanations are well-formed conflicting-clause material.
    for &l in &outcome.explanation {
        prop_assert_eq!(
            built.assignment.lit_value(l),
            Value::False,
            "{}: explanation literal {:?} is not false",
            name,
            l
        );
    }
    match completion {
        Some(opt) => {
            prop_assert!(
                !outcome.infeasible,
                "{}: claimed infeasible but completion of cost {} exists",
                name,
                opt
            );
            // 2. Bound validity.
            prop_assert!(
                outcome.bound <= opt,
                "{}: bound {} exceeds best completion {}",
                name,
                outcome.bound,
                opt
            );
        }
        None => { /* any bound is vacuously valid */ }
    }
    // 3. omega_bc soundness: any assignment that keeps every omega_bc
    // literal false costs at least the bound.
    let n = built.instance.num_vars();
    let omega_bc = omega_bc(built, &outcome.explanation);
    if !outcome.infeasible {
        for mask in 0u64..(1 << n) {
            let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            let violates_clause = omega_bc.iter().all(|&l| !is_true(l, &vals));
            if violates_clause && built.instance.is_feasible(&vals) {
                let c = built.instance.cost_of(&vals);
                prop_assert!(
                    c >= outcome.bound,
                    "{}: omega_bc excludes feasible assignment of cost {} < bound {}",
                    name,
                    c,
                    outcome.bound
                );
            }
        }
    }
    Ok(())
}

/// `omega_bc = omega_pp ∪ omega_pl` for the explanation `omega_pl`: the
/// negations of the costed literals the assignment makes true, then the
/// explanation.
fn omega_bc(built: &Built, omega_pl: &[Lit]) -> Vec<Lit> {
    let mut omega_bc = omega_pl.to_vec();
    if let Some(obj) = built.instance.objective() {
        for &(c, l) in obj.terms() {
            if c > 0 && built.assignment.lit_value(l) == Value::True {
                omega_bc.push(!l);
            }
        }
    }
    omega_bc
}

fn is_true(l: Lit, vals: &[bool]) -> bool {
    vals[l.var().index()] == l.is_positive()
}

/// Reduced-cost fixing soundness: the LP bound against each incumbent
/// `U` just above its bound reports free literals only, builds
/// `omega_pl` only when it reports one, and each reported `l` holds
/// in every feasible assignment cheaper than `U` that keeps every
/// `omega_bc` literal false. Returns how many fixings were checked.
fn check_fixings(built: &Built) -> Result<usize, TestCaseError> {
    let sub = Subproblem::new(&built.instance, &built.assignment);
    let mut lpr = LprBound::new(&built.instance);
    let open = lpr.lower_bound(&sub, None);
    if open.infeasible {
        return Ok(0);
    }
    let n = built.instance.num_vars();
    let mut checked = 0;
    for upper in open.bound + 1..=open.bound + 3 {
        let out = lpr.lower_bound(&sub, Some(upper));
        prop_assert!(!out.prunes(upper), "bound {} prunes {}", out.bound, upper);
        if out.fixings.is_empty() {
            prop_assert!(out.explanation.is_empty(), "nothing reads omega_pl");
        }
        let omega_bc = omega_bc(built, &out.explanation);
        for &l in &out.fixings {
            prop_assert_eq!(built.assignment.lit_value(l), Value::Unassigned, "{:?} fixed", l);
            for mask in 0u64..(1 << n) {
                let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                let kept = omega_bc.iter().all(|&w| !is_true(w, &vals));
                if kept && built.instance.is_feasible(&vals) {
                    let cost = built.instance.cost_of(&vals);
                    prop_assert!(
                        cost >= upper || is_true(l, &vals),
                        "fixing {:?} excludes a feasible assignment of cost {} < {}",
                        l,
                        cost,
                        upper
                    );
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// [`check_fixings`] over 200,000 scenarios (about 300,000 fixings).
#[test]
#[ignore = "release-sized: run with --release -- --ignored (CI does)"]
fn lpr_fixings_hold_sweep() {
    let strategy = scenario();
    let mut fixings = 0;
    for case in 0..200_000 {
        let s = strategy.sample(&mut TestRng::for_case("lpr_fixings_hold_sweep", case));
        match check_fixings(&build(&s)) {
            Ok(checked) => fixings += checked,
            Err(err) => panic!("case {case}: {err}\ninput: {s:?}"),
        }
    }
    assert!(fixings > 200_000, "only {fixings} fixings checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn mis_bound_contract(s in scenario()) {
        let built = build(&s);
        let sub = Subproblem::new(&built.instance, &built.assignment);
        let out = MisBound::new().lower_bound(&sub, None);
        check_method(&built, "mis", out)?;
    }

    #[test]
    fn lagrangian_bound_contract(s in scenario()) {
        let built = build(&s);
        let sub = Subproblem::new(&built.instance, &built.assignment);
        let out = LagrangianBound::new(built.instance.num_constraints())
            .lower_bound(&sub, None);
        check_method(&built, "lgr", out)?;
    }

    #[test]
    fn lpr_bound_contract(s in scenario()) {
        let built = build(&s);
        let sub = Subproblem::new(&built.instance, &built.assignment);
        let mut lpr = LprBound::new(&built.instance);
        let open = lpr.lower_bound(&sub, None);
        prop_assert!(open.infeasible || open.explanation.is_empty(), "nothing reads omega_pl");
        // An incumbent the bound prunes against: the outcome carries
        // omega_pl.
        let out = lpr.lower_bound(&sub, Some(open.bound));
        prop_assert_eq!(out.bound, open.bound);
        check_method(&built, "lpr", out)?;
    }

    #[test]
    fn lpr_fixings_contract(s in scenario()) {
        check_fixings(&build(&s))?;
    }
}
