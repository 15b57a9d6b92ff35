//! Pseudo-Boolean optimizers: the DATE'05 *bsolo* solver and the three
//! baselines it is evaluated against.
//!
//! * [`Bsolo`] — SAT-based branch-and-bound with pluggable lower
//!   bounding ([`LbMethod`]: plain / MIS / Lagrangian / LPR),
//!   bound-conflict learning with non-chronological backtracking
//!   (sec. 4), LP-guided branching and the cost cuts of sec. 5. This is
//!   the paper's contribution.
//! * [`LinearSearch`] — SAT linear search on the cost function, in
//!   PBS-like and Galena-like presets (no lower bounding).
//! * [`MilpSolver`] — LP branch-and-bound without SAT machinery (the
//!   CPLEX stand-in).
//! * [`ParBsolo`] — parallel exact search: the root is split into
//!   [`Cube`]s (decision-literal prefixes) and N workers solve the
//!   subtrees over the shared term arena, racing through one
//!   [`IncumbentCell`]; one worker is bit-identical to [`Bsolo`].
//! * [`Portfolio`] — the anytime driver: `pbo-ls` stochastic local
//!   search seeding or racing the exact side (sequential or parallel,
//!   [`PortfolioOptions::bb_threads`]) through a shared
//!   [`IncumbentCell`], incumbents flowing both ways ([`SolveStrategy`]).
//!
//! All solvers consume a [`pbo_core::Instance`], honour a [`Budget`] and
//! report a [`SolveResult`] with effort statistics, so the benchmark
//! harness can reproduce the paper's Table 1 with consistent accounting.
//!
//! # Examples
//!
//! Solve a weighted covering problem with every solver and agree on the
//! optimum:
//!
//! ```
//! use pbo_core::InstanceBuilder;
//! use pbo_solver::{Bsolo, Budget, LbMethod, LinearSearch, MilpSolver};
//!
//! let mut b = InstanceBuilder::new();
//! let v = b.new_vars(3);
//! b.add_clause([v[0].positive(), v[1].positive()]);
//! b.add_clause([v[1].positive(), v[2].positive()]);
//! b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
//! let inst = b.build()?;
//!
//! for cost in [
//!     Bsolo::with_lb(LbMethod::Lpr).solve(&inst).best_cost,
//!     LinearSearch::pbs_like(Budget::unlimited()).solve(&inst).best_cost,
//!     MilpSolver::new(Budget::unlimited()).solve(&inst).best_cost,
//! ] {
//!     assert_eq!(cost, Some(3));
//! }
//! # Ok::<(), pbo_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsolo;
mod cuts;
mod linear_search;
mod milp;
mod options;
mod par;
mod pipeline;
mod portfolio;
mod preprocess;
mod result;

pub use bsolo::Bsolo;
pub use cuts::{cardinality_cost_cuts, cost_cuts, knapsack_cut};
pub use linear_search::LinearSearch;
pub use milp::MilpSolver;
pub use options::{BsoloOptions, Budget, LbMethod, SolveStrategy};
pub use par::{Cube, CubeSplitter, ParBsolo, SplitOutcome};
pub use portfolio::{
    IncumbentCell, LocalSearch, LsOptions, LsResult, LsStats, Portfolio, PortfolioOptions,
};
pub use preprocess::{probe, simplify, ProbeOutcome};
pub use result::{ServiceStatus, SolveResult, SolveStatus, SolverStats};

#[cfg(test)]
mod pin_tests;
#[cfg(test)]
mod solver_tests;
#[cfg(test)]
mod trace_tests;
