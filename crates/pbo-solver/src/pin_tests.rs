//! Pins of the walk and the search on one instance of each benchmark
//! workload's shape: the local search's effort counters, and the
//! answers and search counters of the default strategy's
//! walk-then-search order and of the exact strategy.
//!
//! Every figure here is deterministic (step-bounded walks, sequential or
//! deterministic-join search), so a change that only makes the solver
//! faster must leave them all as they are. A change meant to move the
//! walk or the search updates the pins and says so in CHANGES.md. The
//! default's race, which a solve on two cores runs on an optimization
//! instance, is timing dependent and not pinned.

use std::time::Instant;

use pbo_benchgen::{AccSchedParams, PtlCmosParams, SynthesisParams};
use pbo_core::Instance;

use crate::options::{BsoloOptions, SolveStrategy};
use crate::portfolio::{IncumbentCell, LocalSearch, LsOptions, Portfolio, PortfolioOptions};
use crate::result::{SolveResult, SolveStatus};

/// Steps of the pinned walk.
const WALK_STEPS: u64 = 24_576;

/// The generator shapes of the `ptlcmos-seq`, `synthesis-par2` and
/// `acc-seq` benchmark workloads at generator seed 0, with the exact
/// side's worker count of each.
fn instances() -> [(Instance, usize); 3] {
    let ptlcmos = PtlCmosParams { gates: 60, fanin: 2.2, ..PtlCmosParams::default() };
    let synthesis = SynthesisParams {
        primes: 90,
        minterms: 150,
        cover_density: 4.0,
        exclusions: 10,
        ..SynthesisParams::default()
    };
    let acc = AccSchedParams { teams: 16, home_away: true };
    [(ptlcmos.generate(0), 1), (synthesis.generate(0), 2), (acc.generate(0), 1)]
}

/// `(steps, flips, weight_bumps, restarts, incumbents, best cost)` of a
/// default-seeded walk.
type WalkPin = (u64, u64, u64, u64, u64, Option<i64>);

/// `(status, cost, decisions, conflicts, propagations, lb_calls,
/// lp_iterations, ls_steps)` of a solve.
type SolvePin = (SolveStatus, Option<i64>, u64, u64, u64, u64, u64, u64);

const WALKS: [WalkPin; 3] = [
    (24_576, 24_607, 10_829, 3, 28, Some(528)),
    (24_576, 24_588, 10_769, 3, 9, Some(129)),
    (2_404, 2_403, 394, 0, 1, Some(0)),
];

const DEFAULT_SOLVES: [SolvePin; 3] = [
    (SolveStatus::Optimal, Some(516), 820, 20, 1_594, 462, 298, 36_864),
    (SolveStatus::Optimal, Some(122), 295, 37, 748, 194, 857, 32_768),
    (SolveStatus::Optimal, Some(0), 0, 0, 0, 0, 0, 2_404),
];

const EXACT_SOLVES: [SolvePin; 3] = [
    (SolveStatus::Optimal, Some(516), 6_222, 28, 8_998, 5_909, 4_403, 0),
    (SolveStatus::Optimal, Some(122), 1_778, 61, 3_567, 1_285, 3_650, 0),
    (SolveStatus::Optimal, Some(0), 3_835, 2_233, 213_898, 0, 0, 0),
];

fn portfolio(strategy: SolveStrategy, bb_threads: usize) -> Portfolio {
    Portfolio::new(PortfolioOptions {
        strategy,
        bsolo: BsoloOptions { deterministic_join: bb_threads > 1, ..BsoloOptions::default() },
        bb_threads,
        ..PortfolioOptions::default()
    })
}

fn solve_pin(r: &SolveResult) -> SolvePin {
    let s = &r.stats;
    (
        r.status,
        r.best_cost,
        s.decisions,
        s.conflicts,
        s.propagations,
        s.lb_calls,
        s.lp_iterations,
        s.ls_steps,
    )
}

#[test]
#[ignore = "release-sized: three benchmark-shaped instances, about 0.4 s"]
fn walk_and_search_counters_are_pinned() {
    let mut walks = Vec::new();
    let mut defaults = Vec::new();
    let mut plain_defaults = Vec::new();
    let mut exacts = Vec::new();
    for (inst, bb_threads) in instances() {
        let options = LsOptions { max_steps: WALK_STEPS, ..LsOptions::default() };
        let r = LocalSearch::new(&inst, options).run(None, None);
        let s = &r.stats;
        walks.push((s.steps, s.flips, s.weight_bumps, s.restarts, s.incumbents, r.best_cost));
        let default = portfolio(SolveStrategy::LsSeeded, bb_threads);
        let cell = IncumbentCell::new();
        defaults.push(solve_pin(&default.walk_then_search(&inst, &cell, Instant::now())));
        plain_defaults.push(solve_pin(&default.solve(&inst)));
        exacts.push(solve_pin(&portfolio(SolveStrategy::Exact, bb_threads).solve(&inst)));
    }
    assert_eq!(walks, WALKS, "the walk moved");
    assert_eq!(defaults, DEFAULT_SOLVES, "the default strategy's walk-then-search moved");
    // On more cores the plain default races on the `ptlcmos-seq` shape;
    // pinned to one it walks, then searches.
    if std::thread::available_parallelism().map_or(1, |cores| cores.get()) == 1 {
        assert_eq!(plain_defaults, DEFAULT_SOLVES, "the one-core default moved");
    }
    assert_eq!(exacts, EXACT_SOLVES, "the exact search moved");
}
