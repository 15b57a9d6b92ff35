//! Dual simplex tests: known optima, infeasibility certificates, warm
//! starts, randomized KKT / relaxation-bound property checks, and the
//! differential walks of the kernel-form basis against the dense-inverse
//! oracle.

use rand::{Rng, SeedableRng};

use crate::dense_oracle::DenseSimplex;
use crate::problem::LpProblem;
use crate::simplex::DualSimplex;
use crate::solution::LpStatus;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

#[test]
fn trivial_empty_problem() {
    let p = LpProblem::new(3);
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 0.0, 1e-9);
}

#[test]
fn unconstrained_vars_sit_on_cheap_bound() {
    let mut p = LpProblem::new(2);
    p.set_cost(0, 3.0);
    p.set_cost(1, -2.0); // negative cost: optimal at upper bound
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.x[0], 0.0, 1e-9);
    assert_close(sol.x[1], 1.0, 1e-9);
    assert_close(sol.objective, -2.0, 1e-9);
}

#[test]
fn covers_fractional_vertex() {
    // min x0 + x1 st x0 + x1 >= 1.5 -> 1.5 split across the box.
    let mut p = LpProblem::new(2);
    p.set_cost(0, 1.0);
    p.set_cost(1, 1.0);
    p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.5);
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 1.5, 1e-7);
    assert_eq!(sol.tight_rows, vec![0]);
    assert!(sol.duals[0] >= -1e-9);
}

#[test]
fn weighted_cover_picks_cheapest_mix() {
    // min 1*x0 + 3*x1 st x0 + x1 >= 1, x1 >= 0.25
    let mut p = LpProblem::new(2);
    p.set_cost(0, 1.0);
    p.set_cost(1, 3.0);
    p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.0);
    p.add_row_ge(&[(1, 1.0)], 0.25);
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    // x1 = 0.25 (forced), x0 = 0.75 -> z = 0.75 + 0.75 = 1.5
    assert_close(sol.objective, 1.5, 1e-7);
    assert_close(sol.x[1], 0.25, 1e-7);
}

#[test]
fn detects_infeasibility_with_farkas_rows() {
    let mut p = LpProblem::new(2);
    p.add_row_ge(&[(0, 1.0), (1, 1.0)], 3.0); // impossible in [0,1]^2
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Infeasible);
    assert_eq!(sol.farkas_rows, vec![0]);
}

#[test]
fn negative_coefficients_handled() {
    // min x0 st x0 - x1 >= 0, x1 >= 0.5  -> x0 = 0.5
    let mut p = LpProblem::new(2);
    p.set_cost(0, 1.0);
    p.add_row_ge(&[(0, 1.0), (1, -1.0)], 0.0);
    p.add_row_ge(&[(1, 1.0)], 0.5);
    let sol = DualSimplex::new(&p).solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 0.5, 1e-7);
}

#[test]
fn warm_start_after_fixings() {
    // min x0 + 2*x1 + 3*x2 st x0 + x1 + x2 >= 2
    let mut p = LpProblem::new(3);
    for (j, c) in [(0, 1.0), (1, 2.0), (2, 3.0)] {
        p.set_cost(j, c);
    }
    p.add_row_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0);
    let mut s = DualSimplex::new(&p);
    let sol = s.solve();
    assert_close(sol.objective, 3.0, 1e-7); // x0 = x1 = 1

    // Fix x1 = 0: optimum must move to x0 = x2 = 1 -> 4.
    s.set_var_bounds(1, 0.0, 0.0);
    let sol = s.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 4.0, 1e-7);

    // Unfix: back to 3.
    s.set_var_bounds(1, 0.0, 1.0);
    let sol = s.solve();
    assert_close(sol.objective, 3.0, 1e-7);

    // Fix two to 0: infeasible (only one unit of mass left).
    s.set_var_bounds(0, 0.0, 0.0);
    s.set_var_bounds(1, 0.0, 0.0);
    assert_eq!(s.solve().status, LpStatus::Infeasible);
}

#[test]
fn fixed_to_one_contributes() {
    let mut p = LpProblem::new(2);
    p.set_cost(0, 5.0);
    p.set_cost(1, 1.0);
    p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.0);
    let mut s = DualSimplex::new(&p);
    s.set_var_bounds(0, 1.0, 1.0);
    let sol = s.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    // x0 fixed to 1 already satisfies the row; x1 free at 0.
    assert_close(sol.objective, 5.0, 1e-7);
    assert_close(sol.x[0], 1.0, 1e-9);
    assert_close(sol.x[1], 0.0, 1e-9);
}

/// Random box LPs: verify KKT conditions at the reported optimum.
#[test]
fn random_lps_satisfy_kkt() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1b);
    let mut optimal_seen = 0;
    for round in 0..80 {
        let n = rng.gen_range(2..8);
        let m = rng.gen_range(1..8);
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(-3..6) as f64);
        }
        for _ in 0..m {
            let mut terms = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.6) {
                    let c = rng.gen_range(-2..4) as f64;
                    if c != 0.0 {
                        terms.push((j, c));
                    }
                }
            }
            if terms.is_empty() {
                terms.push((0, 1.0));
            }
            let max_act: f64 = terms.iter().map(|&(_, c): &(usize, f64)| c.max(0.0)).sum();
            let rhs = rng.gen_range(-1.0..max_act.max(0.5));
            p.add_row_ge(&terms, rhs);
        }
        let mut s = DualSimplex::new(&p);
        let sol = s.solve();
        match sol.status {
            LpStatus::Optimal => {
                optimal_seen += 1;
                // Primal feasibility.
                for (i, (terms, rhs)) in p.rows().enumerate() {
                    let act: f64 = terms.iter().map(|&(j, a)| a * sol.x[j]).sum();
                    assert!(act >= rhs - 1e-6, "round {round}: row {i} violated: {act} < {rhs}");
                }
                for j in 0..n {
                    assert!(sol.x[j] >= -1e-7 && sol.x[j] <= 1.0 + 1e-7, "round {round}");
                }
                // Dual feasibility + complementary slackness.
                for (i, (_, rhs)) in p.rows().enumerate() {
                    assert!(sol.duals[i] >= -1e-6, "round {round}: negative dual on >= row");
                    let slack = sol.row_activity[i] - rhs;
                    assert!(
                        sol.duals[i].abs() * slack.abs() <= 1e-4,
                        "round {round}: row {i} violates complementary slackness \
                         (dual {}, slack {slack})",
                        sol.duals[i]
                    );
                }
                // Stationarity on interior variables.
                for j in 0..n {
                    let mut d = p.costs()[j];
                    for (i, (terms, _)) in p.rows().enumerate() {
                        for &(jj, a) in terms {
                            if jj == j {
                                d -= sol.duals[i] * a;
                            }
                        }
                    }
                    if sol.x[j] > 1e-6 && sol.x[j] < 1.0 - 1e-6 {
                        assert!(d.abs() <= 1e-5, "round {round}: interior var with d = {d}");
                    } else if sol.x[j] <= 1e-6 {
                        assert!(d >= -1e-5, "round {round}: at lower with d = {d}");
                    } else {
                        assert!(d <= 1e-5, "round {round}: at upper with d = {d}");
                    }
                }
            }
            LpStatus::Infeasible => {
                // Spot-check: no corner of the box is feasible.
                if n <= 6 {
                    for mask in 0u32..(1 << n) {
                        let ok = p.rows().all(|(terms, rhs)| {
                            let act: f64 = terms
                                .iter()
                                .map(|&(j, a)| if (mask >> j) & 1 == 1 { a } else { 0.0 })
                                .sum();
                            act >= rhs - 1e-9
                        });
                        assert!(!ok, "round {round}: infeasible LP has feasible corner {mask:b}");
                    }
                }
            }
            LpStatus::IterationLimit => panic!("round {round}: iteration limit on tiny LP"),
            LpStatus::Cancelled => panic!("round {round}: cancelled without a token"),
        }
    }
    assert!(optimal_seen > 20, "too few optimal instances to be meaningful");
}

/// At every optimum of a warm walk over random covering LPs with box
/// fixings, the Lagrangian bound of the optimal duals reproduces the
/// objective, its reduced costs match the maintained ones, and it
/// stays a lower bound with every dual dropped.
#[test]
fn lagrangian_bound_reproduces_the_optimum() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1a6);
    let mut checked = 0;
    for _ in 0..60 {
        let n = rng.gen_range(3..12);
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(-2..9) as f64);
        }
        for _ in 0..rng.gen_range(1..10) {
            let terms: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, if rng.gen_bool(0.5) { rng.gen_range(-1..4) as f64 } else { 0.0 }))
                .filter(|&(_, a)| a != 0.0)
                .collect();
            let max_act: f64 = terms.iter().map(|&(_, a)| a.max(0.0)).sum();
            p.add_row_ge(&terms, rng.gen_range(0.0..max_act.max(0.5)));
        }
        let mut s = DualSimplex::new(&p);
        let mut d = vec![0.0; n];
        for _ in 0..8 {
            let j = rng.gen_range(0..n);
            let v = rng.gen_range(0..4);
            let (lo, hi) = if v >= 2 { (0.0, 1.0) } else { (v as f64, v as f64) };
            s.set_var_bounds(j, lo, hi);
            if s.reoptimize() != LpStatus::Optimal {
                continue;
            }
            checked += 1;
            let z = s.objective();
            let l = s.lagrangian_bound(1e-7, &mut d);
            assert!((l - z).abs() <= 1e-6 * z.abs().max(1.0), "L(y) = {l}, z = {z}");
            for (j, (&mine, &kept)) in d.iter().zip(s.reduced_costs()).enumerate() {
                assert!((mine - kept).abs() <= 1e-6, "column {j}: {mine} vs {kept}");
            }
            assert!(s.lagrangian_bound(f64::INFINITY, &mut d) <= z + 1e-9, "y = 0 bounds z");
        }
    }
    assert!(checked > 100, "too few optima checked ({checked})");
}

/// The LP relaxation value never exceeds the best 0-1 point.
#[test]
fn relaxation_lower_bounds_integer_optimum() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x2c);
    for round in 0..60 {
        let n = rng.gen_range(2..7);
        let m = rng.gen_range(1..6);
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(0..8) as f64);
        }
        for _ in 0..m {
            let mut terms = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.7) {
                    terms.push((j, rng.gen_range(1..4) as f64));
                }
            }
            if terms.is_empty() {
                terms.push((0, 1.0));
            }
            let max_act: f64 = terms.iter().map(|&(_, c)| c).sum();
            let rhs = rng.gen_range(1.0..=max_act);
            p.add_row_ge(&terms, rhs);
        }
        // Enumerate 0-1 corners.
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let feas = p.rows().all(|(terms, rhs)| {
                let act: f64 =
                    terms.iter().map(|&(j, a)| if (mask >> j) & 1 == 1 { a } else { 0.0 }).sum();
                act >= rhs - 1e-9
            });
            if feas {
                let cost: f64 =
                    (0..n).map(|j| if (mask >> j) & 1 == 1 { p.costs()[j] } else { 0.0 }).sum();
                best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            }
        }
        let sol = DualSimplex::new(&p).solve();
        match (sol.status, best) {
            (LpStatus::Optimal, Some(b)) => {
                assert!(
                    sol.objective <= b + 1e-6,
                    "round {round}: LP bound {} exceeds ILP optimum {b}",
                    sol.objective
                );
            }
            (LpStatus::Optimal, None) => {} // LP feasible, ILP not: fine
            (LpStatus::Infeasible, Some(_)) => {
                panic!("round {round}: LP infeasible but ILP feasible")
            }
            (LpStatus::Infeasible, None) => {}
            (LpStatus::IterationLimit, _) => panic!("round {round}: iteration limit"),
            (LpStatus::Cancelled, _) => panic!("round {round}: cancelled without a token"),
        }
    }
}

#[test]
fn repeated_warm_starts_stay_consistent() {
    // Fix/unfix variables in a loop; every re-solve must match a fresh
    // solve of the same bounds.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x3d);
    let n = 6;
    let mut p = LpProblem::new(n);
    for j in 0..n {
        p.set_cost(j, (j + 1) as f64);
    }
    p.add_row_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0);
    p.add_row_ge(&[(2, 1.0), (3, 1.0), (4, 1.0)], 1.0);
    p.add_row_ge(&[(1, 2.0), (4, 1.0), (5, 1.0)], 2.0);
    let mut warm = DualSimplex::new(&p);
    for _ in 0..40 {
        let mut bounds = Vec::new();
        for j in 0..n {
            let (lo, hi) = match rng.gen_range(0..3) {
                0 => (0.0, 1.0),
                1 => (0.0, 0.0),
                _ => (1.0, 1.0),
            };
            bounds.push((j, lo, hi));
        }
        let mut fresh_p = p.clone();
        for &(j, lo, hi) in &bounds {
            warm.set_var_bounds(j, lo, hi);
            fresh_p.set_bounds(j, lo, hi);
        }
        let warm_sol = warm.solve();
        let fresh_sol = DualSimplex::new(&fresh_p).solve();
        assert_eq!(warm_sol.status, fresh_sol.status, "bounds {bounds:?}");
        if warm_sol.status == LpStatus::Optimal {
            assert_close(warm_sol.objective, fresh_sol.objective, 1e-6);
        }
    }
}

/// Drives the kernel-form solver and the dense-inverse oracle through the
/// same walk of bound changes, mirroring every change into an
/// [`LpProblem`] so that a Farkas certificate can be checked on its own
/// rows.
struct Walk {
    kernel: DualSimplex,
    oracle: DenseSimplex,
    mirror: LpProblem,
    optimal: usize,
    infeasible: usize,
}

impl Walk {
    fn new(problem: &LpProblem) -> Walk {
        Walk {
            kernel: DualSimplex::new(problem),
            oracle: DenseSimplex::new(problem),
            mirror: problem.clone(),
            optimal: 0,
            infeasible: 0,
        }
    }

    fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        self.kernel.set_var_bounds(j, lo, hi);
        self.oracle.set_var_bounds(j, lo, hi);
        self.mirror.set_bounds(j, lo, hi);
    }

    /// Solves both sides: the status must agree, optimal values within
    /// 1e-6 relative, and an infeasible step's Farkas rows must be
    /// infeasible on their own under the current bounds.
    fn solve(&mut self, label: &str) -> LpStatus {
        let a = self.kernel.solve();
        let b = self.oracle.solve();
        assert_eq!(a.status, b.status, "{label}: kernel vs dense oracle");
        match a.status {
            LpStatus::Optimal => {
                self.optimal += 1;
                let tol = 1e-6 * b.objective.abs().max(1.0);
                assert!(
                    (a.objective - b.objective).abs() <= tol,
                    "{label}: kernel {} vs dense oracle {}",
                    a.objective,
                    b.objective
                );
            }
            LpStatus::Infeasible => {
                self.infeasible += 1;
                assert!(!a.farkas_rows.is_empty(), "{label}: empty Farkas certificate");
                let mut only = LpProblem::new(self.mirror.num_vars());
                for j in 0..self.mirror.num_vars() {
                    only.set_bounds(j, self.mirror.lower()[j], self.mirror.upper()[j]);
                }
                let rows: Vec<_> = self.mirror.rows().collect();
                for &i in &a.farkas_rows {
                    only.add_row_ge(rows[i].0, rows[i].1);
                }
                assert_eq!(
                    DenseSimplex::new(&only).solve().status,
                    LpStatus::Infeasible,
                    "{label}: Farkas rows {:?} do not certify infeasibility",
                    a.farkas_rows
                );
            }
            LpStatus::IterationLimit | LpStatus::Cancelled => {
                panic!("{label}: {:?} without a limit or token", a.status)
            }
        }
        a.status
    }
}

/// A random `>=` row over `n` columns with mixed-sign coefficients.
fn random_row(rng: &mut rand_chacha::ChaCha8Rng, n: usize) -> (Vec<(usize, f64)>, f64) {
    let mut terms = Vec::new();
    for j in 0..n {
        if rng.gen_bool(0.5) {
            let c = rng.gen_range(-2..4) as f64;
            if c != 0.0 {
                terms.push((j, c));
            }
        }
    }
    if terms.is_empty() {
        terms.push((rng.gen_range(0..n), 1.0));
    }
    let max_act: f64 = terms.iter().map(|&(_, c): &(usize, f64)| c.max(0.0)).sum();
    let rhs = rng.gen_range(-1.0..(0.6 * max_act).max(0.5));
    (terms, rhs)
}

/// Differential: the kernel-form basis must agree with the dense-inverse
/// oracle on status and optimal value across random LPs and random
/// warm-start schedules of bound changes (bases may differ on degenerate
/// instances; objectives may not). The walks are
/// long enough to cross several refactorizations, and infeasible steps
/// must come with a Farkas certificate.
#[test]
fn kernel_basis_matches_dense_oracle() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x4e);
    let (mut pivots, mut optimal, mut infeasible) = (0, 0, 0);
    for round in 0..60 {
        let n = rng.gen_range(2..14);
        let m = rng.gen_range(1..14);
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(-3..7) as f64);
        }
        for _ in 0..m {
            let (terms, rhs) = random_row(&mut rng, n);
            p.add_row_ge(&terms, rhs);
        }
        let mut walk = Walk::new(&p);
        // Root solve plus a random schedule of warm starts; an
        // infeasible step is followed by relaxations only.
        let mut last = LpStatus::Optimal;
        for step in 0..40 {
            if step > 0 {
                for _ in 0..rng.gen_range(1..4) {
                    let j = rng.gen_range(0..n);
                    let pick = if last == LpStatus::Infeasible { 0 } else { rng.gen_range(0..8) };
                    let (lo, hi) = match pick {
                        0..=4 => (0.0, 1.0),
                        5 => (0.0, 0.0),
                        _ => (1.0, 1.0),
                    };
                    walk.set_bounds(j, lo, hi);
                }
            }
            last = walk.solve(&format!("round {round} step {step}"));
        }
        pivots += walk.kernel.total_iterations;
        optimal += walk.optimal;
        infeasible += walk.infeasible;
    }
    assert!(pivots > 4 * 80, "walks too short to cross refactorizations: {pivots} pivots");
    assert!(optimal > 500 && infeasible > 100, "{optimal} optimal, {infeasible} infeasible");
}

/// The LP relaxation `min cx, Ax >= b, 0 <= x <= 1` of a PB instance in
/// variable space, as the LPR bound builds it (negative literals flip the
/// coefficient and move a constant to the right-hand side).
fn relaxation(instance: &pbo_core::Instance) -> LpProblem {
    let n = instance.num_vars();
    let mut p = LpProblem::new(n);
    if let Some(obj) = instance.objective() {
        let mut costs = vec![0.0; n];
        for &(c, l) in obj.terms() {
            costs[l.var().index()] += if l.is_positive() { c as f64 } else { -(c as f64) };
        }
        for (j, &c) in costs.iter().enumerate() {
            p.set_cost(j, c);
        }
    }
    for c in instance.constraints() {
        let mut rhs = c.rhs() as f64;
        let terms: Vec<(usize, f64)> = c
            .terms()
            .iter()
            .map(|t| {
                let a = t.coeff as f64;
                if t.lit.is_positive() {
                    (t.lit.var().index(), a)
                } else {
                    rhs -= a;
                    (t.lit.var().index(), -a)
                }
            })
            .collect();
        p.add_row_ge(&terms, rhs);
    }
    p
}

/// One relaxation of each benchmark family at its Table-1 size, except
/// acc: its Table-1 relaxation (495 columns, 1,245 rows) takes the
/// dense oracle seconds per solve, so the walks use the generator's
/// default six-team round robin.
fn family_relaxation(family: &str, seed: u64) -> (String, LpProblem) {
    use pbo_benchgen::{AccSchedParams, GroutParams, PtlCmosParams, SynthesisParams};
    let inst = match family {
        "synthesis" => SynthesisParams {
            primes: 70,
            minterms: 110,
            cover_density: 4.0,
            exclusions: 10,
            ..Default::default()
        }
        .generate(seed),
        "ptlcmos" => PtlCmosParams { gates: 90, fanin: 2.2, ..Default::default() }.generate(seed),
        "grout" => GroutParams {
            width: 6,
            height: 6,
            nets: 22,
            paths_per_net: 6,
            capacity: 3,
            bend_penalty: 2,
        }
        .generate(seed),
        "acc" => AccSchedParams::default().generate(seed),
        other => panic!("unknown family {other}"),
    };
    (inst.name().to_string(), relaxation(&inst))
}

/// A branch-and-bound-shaped walk of warm re-solves on `problem`. Each
/// step applies one batch of bound changes before a single re-solve, as
/// the LPR bound applies a whole trail suffix: descents draw 4–12
/// variables and fix the free ones (to 0 with probability 0.3, which
/// stresses the dual repair of a covering LP and sometimes proves it
/// infeasible), backtracks relax 4–12 of the fixings and always follow
/// an infeasible step.
fn relaxation_walk(label: &str, problem: &LpProblem, steps: usize, seed: u64) -> Walk {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let n = problem.num_vars();
    let mut walk = Walk::new(problem);
    let mut fixed: Vec<usize> = Vec::new();
    let mut last = LpStatus::Optimal;
    for step in 0..steps {
        // Step 0 is the root solve.
        if step > 0 {
            let relax = !fixed.is_empty()
                && (last == LpStatus::Infeasible || fixed.len() >= n / 2 || rng.gen_bool(0.3));
            for _ in 0..rng.gen_range(4..=12usize) {
                let (j, lo, hi) = if relax {
                    if fixed.is_empty() {
                        break;
                    }
                    (fixed.swap_remove(rng.gen_range(0..fixed.len())), 0.0, 1.0)
                } else {
                    let j = rng.gen_range(0..n);
                    if fixed.contains(&j) {
                        continue;
                    }
                    fixed.push(j);
                    let v = if rng.gen_bool(0.7) { 1.0 } else { 0.0 };
                    (j, v, v)
                };
                walk.set_bounds(j, lo, hi);
            }
        }
        last = walk.solve(&format!("{label} step {step}"));
    }
    walk
}

/// Differential at Table-1 size: the kernel-form basis must match the
/// dense oracle on the synthesis, PTL/CMOS and grout relaxations through
/// a branch-and-bound-shaped walk of warm re-solves — equal status at
/// every step, equal optimum to 1e-6
/// relative, Farkas rows that certify every infeasible step — across
/// several refactorizations per walk.
#[test]
fn kernel_basis_matches_dense_oracle_on_relaxations() {
    let (mut optimal, mut infeasible) = (0, 0);
    for family in ["synthesis", "ptlcmos", "grout"] {
        // Seed 0 of grout is the Table-1 instance whose root relaxation
        // is infeasible, so its walk starts at seed 1; seed 0 of the
        // others is a Table-1 instance (synth-p70-m110-s0 among them).
        let seeds = if family == "grout" { 1..3u64 } else { 0..3 };
        for seed in seeds {
            let (name, problem) = family_relaxation(family, seed);
            let walk = relaxation_walk(&name, &problem, 60, 0x1b9 ^ seed);
            assert!(
                walk.kernel.total_iterations > 2 * 80,
                "{name}: {} pivots cross too few refactorizations",
                walk.kernel.total_iterations
            );
            optimal += walk.optimal;
            infeasible += walk.infeasible;
        }
    }
    assert!(optimal > 100 && infeasible > 10, "{optimal} optimal, {infeasible} infeasible");
}

/// The release-sized sweep of the same differential: thousands of warm
/// re-solves on relaxations of all four benchmark families. Run it with
/// `cargo test --release -p pbo-lp --lib -- --ignored` (CI does).
#[test]
#[ignore = "release-sized: run with --release -- --ignored (CI does)"]
fn kernel_basis_matches_dense_oracle_sweep() {
    let mut solves = 0;
    for family in ["synthesis", "ptlcmos", "grout", "acc"] {
        for seed in 0..4u64 {
            let (name, problem) = family_relaxation(family, seed);
            let walk = relaxation_walk(&name, &problem, 400, 0x5eed ^ seed);
            solves += walk.optimal + walk.infeasible;
        }
    }
    assert_eq!(solves, 4 * 4 * 400);
}

/// A pre-set stop latch cancels before the first pivot: the poll at
/// iteration zero fires ahead of any basis work, so teardown cost is
/// one atomic load.
#[test]
fn preset_stop_latch_cancels_immediately() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut p = LpProblem::new(4);
    for j in 0..4 {
        p.set_cost(j, (j + 1) as f64);
    }
    p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.0);
    p.add_row_ge(&[(2, 1.0), (3, 1.0)], 1.0);
    let stop = Arc::new(AtomicBool::new(true));
    let mut s = DualSimplex::new(&p);
    s.set_cancel(None, Some(stop.clone()));
    let sol = s.solve();
    assert_eq!(sol.status, LpStatus::Cancelled);
    // Disarming restores normal solves on the same (warm) basis.
    stop.store(false, Ordering::Release);
    let sol = s.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_close(sol.objective, 1.0 + 3.0, 1e-7);
}

/// An already-expired deadline is honored the same way, and clearing it
/// re-enables the solve.
#[test]
fn expired_deadline_cancels_immediately() {
    use std::time::{Duration, Instant};

    let mut p = LpProblem::new(3);
    p.set_cost(0, 1.0);
    p.add_row_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 1.5);
    let mut s = DualSimplex::new(&p);
    s.set_cancel(Some(Instant::now() - Duration::from_millis(1)), None);
    assert_eq!(s.solve().status, LpStatus::Cancelled);
    s.set_cancel(None, None);
    assert_eq!(s.solve().status, LpStatus::Optimal);
}

/// The mid-solve guarantee: a stop latch set ~10ms into a long dual
/// simplex run returns `Cancelled` within a bounded overshoot instead
/// of running to optimality. Timing-sensitive, so ignored by default;
/// the fault-injection CI job runs it explicitly.
#[test]
#[ignore = "timing-sensitive: run explicitly (CI fault-injection job)"]
fn stop_latch_mid_solve_returns_in_bounded_time() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // A dense LP big enough to pivot for a while: overlapping cover
    // rows over 400 variables with mixed-sign coefficients.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xcab);
    let n = 400;
    let mut p = LpProblem::new(n);
    for j in 0..n {
        p.set_cost(j, rng.gen_range(1..10) as f64);
    }
    for i in 0..n {
        let mut terms = Vec::new();
        for k in 0..40 {
            let j = (i * 7 + k * 13) % n;
            terms.push((j, rng.gen_range(-2i32..5).max(1) as f64));
        }
        p.add_row_ge(&terms, rng.gen_range(4.0..12.0));
        let _ = i;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut s = DualSimplex::new(&p);
    s.set_cancel(None, Some(stop.clone()));
    let flipper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            stop.store(true, Ordering::Release);
        })
    };
    let t0 = Instant::now();
    let sol = s.solve();
    let elapsed = t0.elapsed();
    flipper.join().unwrap();
    // Either the solve finished inside the 10ms head start (fine) or it
    // was cancelled; a cancelled return must land well inside a second
    // — the poll interval is 64 pivots, each far under a millisecond.
    if sol.status == LpStatus::Cancelled {
        assert!(elapsed < Duration::from_millis(500), "cancel honored too slowly: {elapsed:?}");
    } else {
        assert_eq!(sol.status, LpStatus::Optimal);
    }
}
