//! Dual simplex tests: known optima, infeasibility certificates, warm
//! starts, and randomized KKT / relaxation-bound property checks.

use rand::{Rng, SeedableRng};

use crate::problem::LpProblem;
use crate::simplex::{DualSimplex, Pricing};
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

/// Differential: the sparse Devex path and the dense reference path
/// must agree on status and optimal value across random LPs and random
/// warm-start bound-change schedules (bases may differ on degenerate
/// instances; objectives may not). `pbo-bounds` runs the same check on
/// Table-1-sized synthesis relaxations.
#[test]
fn devex_and_dense_pricing_agree() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x4e);
    for round in 0..60 {
        let n = rng.gen_range(2..10);
        let m = rng.gen_range(1..10);
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(-3..7) as f64);
        }
        for _ in 0..m {
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
                terms.push((0, 1.0));
            }
            let max_act: f64 = terms.iter().map(|&(_, c): &(usize, f64)| c.max(0.0)).sum();
            p.add_row_ge(&terms, rng.gen_range(-1.0..max_act.max(0.5)));
        }
        let mut devex = DualSimplex::new(&p);
        assert_eq!(devex.pricing(), Pricing::DevexSparse);
        let mut dense = DualSimplex::new(&p);
        dense.set_pricing(Pricing::DenseLegacy);
        // Root solve plus a random fix/unfix schedule of warm starts.
        for step in 0..8 {
            if step > 0 {
                let j = rng.gen_range(0..n);
                let (lo, hi) = match rng.gen_range(0..3) {
                    0 => (0.0, 1.0),
                    1 => (0.0, 0.0),
                    _ => (1.0, 1.0),
                };
                devex.set_var_bounds(j, lo, hi);
                dense.set_var_bounds(j, lo, hi);
            }
            let a = devex.solve();
            let b = dense.solve();
            assert_eq!(a.status, b.status, "round {round} step {step}");
            if a.status == LpStatus::Optimal {
                assert_close(a.objective, b.objective, 1e-5);
            }
            assert_eq!(b.bound_flips, 0, "dense baseline has no flipping ratio test");
        }
    }
}

/// `append_row_ge` extends the warm basis: solving after an append must
/// match a fresh solver built with the row present from the start, and
/// the appended solver must keep warm-starting correctly afterwards.
#[test]
fn append_row_matches_fresh_rebuild() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5f);
    for round in 0..40 {
        let n = rng.gen_range(3..9);
        let m0 = rng.gen_range(1..5);
        let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
        let gen_row = |rng: &mut rand_chacha::ChaCha8Rng| {
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
            (terms, rhs)
        };
        let mut p = LpProblem::new(n);
        for j in 0..n {
            p.set_cost(j, rng.gen_range(0..7) as f64);
        }
        for _ in 0..m0 {
            let (terms, rhs) = gen_row(&mut rng);
            p.add_row_ge(&terms, rhs);
            rows.push((terms, rhs));
        }
        let mut warm = DualSimplex::new(&p);
        let _ = warm.solve(); // establish a warm, typically non-trivial basis
                              // Append 1..4 new rows one at a time, re-solving after each.
        for _ in 0..rng.gen_range(1..5) {
            let (terms, rhs) = gen_row(&mut rng);
            warm.append_row_ge(&terms, rhs);
            rows.push((terms.clone(), rhs));
            let mut fresh_p = LpProblem::new(n);
            for j in 0..n {
                fresh_p.set_cost(j, p.costs()[j]);
            }
            for (t, r) in &rows {
                fresh_p.add_row_ge(t, *r);
            }
            let a = warm.solve();
            let b = DualSimplex::new(&fresh_p).solve();
            assert_eq!(a.status, b.status, "round {round} after append");
            if a.status == LpStatus::Optimal {
                assert_close(a.objective, b.objective, 1e-5);
            }
        }
        // The appended basis must still warm-start across bound changes.
        let j = rng.gen_range(0..n);
        warm.set_var_bounds(j, 1.0, 1.0);
        let mut fresh_p = LpProblem::new(n);
        for jj in 0..n {
            fresh_p.set_cost(jj, p.costs()[jj]);
        }
        for (t, r) in &rows {
            fresh_p.add_row_ge(t, *r);
        }
        fresh_p.set_bounds(j, 1.0, 1.0);
        let a = warm.solve();
        let b = DualSimplex::new(&fresh_p).solve();
        assert_eq!(a.status, b.status, "round {round} after fix");
        if a.status == LpStatus::Optimal {
            assert_close(a.objective, b.objective, 1e-5);
        }
    }
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
