//! Anytime solving: the default portfolio under a wall-clock budget,
//! watching incumbents arrive through the shared cell. On a machine with
//! a second core the stochastic local search races the exact
//! branch-and-bound on this optimization instance; on one core it seeds
//! it, then polishes each incumbent the search finds.
//!
//! ```text
//! cargo run --release --example anytime
//! ```

use std::time::{Duration, Instant};

use pbo::pbo_benchgen::SynthesisParams;
use pbo::{BsoloOptions, Budget, IncumbentCell, Portfolio, PortfolioOptions};

fn main() {
    // A Table-1-style two-level synthesis covering instance: big enough
    // that the exact solver needs real work.
    let instance = SynthesisParams {
        primes: 70,
        minterms: 110,
        cover_density: 4.0,
        exclusions: 10,
        ..SynthesisParams::default()
    }
    .generate(1);
    println!("{} vars, {} constraints", instance.num_vars(), instance.num_constraints());

    let options = PortfolioOptions {
        bsolo: BsoloOptions::default().budget(Budget::time_limit(Duration::from_secs(5))),
        ..PortfolioOptions::default()
    };

    // A caller-owned cell exposes the incumbent trajectory: every entry
    // is a verified solution that was, at that moment, the best known.
    let cell = IncumbentCell::new();
    let start = Instant::now();
    let result = Portfolio::new(options).solve_with_cell(&instance, &cell);

    println!("incumbent trajectory (time -> cost):");
    for (at, cost) in cell.history_since(start) {
        println!("  {:>8.1} ms  ->  {}", at.as_secs_f64() * 1e3, cost);
    }
    println!("status       : {}", result.status);
    println!("best cost    : {:?}", result.best_cost);
    println!("time to best : {:.1} ms", result.stats.time_to_best.as_secs_f64() * 1e3);
    println!("total time   : {:.1} ms", result.stats.solve_time.as_secs_f64() * 1e3);
    println!("B&B nodes    : {}", result.stats.decisions);
}
