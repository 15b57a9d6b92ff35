//! # pbo — pseudo-Boolean optimization with effective lower bounding
//!
//! A from-scratch Rust reproduction of *Manquinho & Marques-Silva,
//! "Effective Lower Bounding Techniques for Pseudo-Boolean Optimization",
//! DATE 2005*: a SAT-based branch-and-bound PBO solver (*bsolo*) whose
//! search is pruned by pluggable lower-bound estimators — greedy
//! independent-set (MIS), Lagrangian relaxation (LGR) and
//! linear-programming relaxation (LPR) — with *bound-conflict learning*
//! for non-chronological backtracking, plus the baselines the paper
//! evaluates against (SAT linear search and MILP branch-and-bound).
//!
//! ## Quick start
//!
//! ```
//! use pbo::{InstanceBuilder, solve};
//!
//! // minimize 2 x1 + 3 x2 + 2 x3
//! // subject to x1 + x2 >= 1 and x2 + x3 >= 1
//! let mut b = InstanceBuilder::new();
//! let v = b.new_vars(3);
//! b.add_clause([v[0].positive(), v[1].positive()]);
//! b.add_clause([v[1].positive(), v[2].positive()]);
//! b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
//!
//! let result = solve(&b.build()?);
//! assert!(result.is_optimal());
//! assert_eq!(result.best_cost, Some(3)); // pick x2
//! # Ok::<(), pbo::BuildError>(())
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`pbo_core`] (re-exported here) | literals, normalized constraints, objectives, instances, OPB I/O |
//! | [`pbo_engine`] | CDCL engine: propagation, clause learning, VSIDS, bound-conflict entry point |
//! | [`pbo_lp`] | warm-started bounded-variable dual simplex |
//! | [`pbo_bounds`] | the MIS / LGR / LPR lower bounds with `omega_pl` explanations |
//! | [`pbo_ls`] | stochastic local search (WalkSAT/DLS-style) incumbent engine |
//! | [`pbo_trace`] | structured telemetry: typed events, JSONL/Chrome exporters, metrics |
//! | [`pbo_solver`] | bsolo + the LS/B&B portfolio + PBS-like, Galena-like and MILP baselines |
//! | [`pbo_benchgen`] | seeded generators for the four Table 1 benchmark families |
//!
//! See `README.md` for the architecture notes and `pbobench/README.md`
//! for the end-to-end benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pbo_bounds::{LagrangianBound, LbOutcome, LowerBound, LprBound, MisBound, Subproblem};
pub use pbo_core::{
    brute_force, normalize, parse_opb, write_opb, Assignment, BruteForceResult, BuildError,
    ConstraintClass, ConstraintState, Instance, InstanceBuilder, Lit, NormalizeError, Objective,
    ParseOpbError, PbConstraint, PbTerm, RelOp, Value, Var,
};
pub use pbo_solver::{
    Bsolo, BsoloOptions, Budget, IncumbentCell, LbMethod, LinearSearch, LocalSearch, LsOptions,
    MilpSolver, Portfolio, PortfolioOptions, SolveResult, SolveStatus, SolveStrategy, SolverStats,
};

// The underlying crates, for users needing full access.
pub use pbo_benchgen;
pub use pbo_bounds;
pub use pbo_core;
pub use pbo_engine;
pub use pbo_lp;
pub use pbo_ls;
pub use pbo_solver;
pub use pbo_trace;

/// Solves an instance with the default configuration and no resource
/// limit: the [`Portfolio`] with [`SolveStrategy::LsSeeded`]. A local
/// search supplies the upper bound of the paper's strongest bsolo
/// configuration (LP-relaxation lower bounding, LP-guided branching,
/// cost cuts, probing), which then proves optimality: on an
/// optimization instance with a second core the two race, otherwise a
/// short walk seeds the search. A decision instance is answered by the
/// first verified model the local search finds. For the paper's solver
/// alone, use [`solve_with`].
///
/// # Examples
///
/// ```
/// use pbo::{parse_opb, solve};
///
/// let inst = parse_opb("min: +1 x1 +2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")?;
/// assert_eq!(solve(&inst).best_cost, Some(1));
/// # Ok::<(), pbo::ParseOpbError>(())
/// ```
pub fn solve(instance: &Instance) -> SolveResult {
    Portfolio::default().solve(instance)
}

/// Solves an instance with the paper's solver — bsolo branch-and-bound,
/// no local search — under explicit options.
///
/// # Examples
///
/// ```
/// use pbo::{solve_with, BsoloOptions, Budget, InstanceBuilder, LbMethod};
/// use std::time::Duration;
///
/// let mut b = InstanceBuilder::new();
/// let x = b.new_var();
/// b.add_clause([x.positive()]);
/// b.minimize([(5, x.positive())]);
/// let inst = b.build()?;
///
/// let opts = BsoloOptions::with_lb(LbMethod::Mis)
///     .budget(Budget::time_limit(Duration::from_secs(1)));
/// assert_eq!(solve_with(&inst, opts).best_cost, Some(5));
/// # Ok::<(), pbo::BuildError>(())
/// ```
pub fn solve_with(instance: &Instance, options: BsoloOptions) -> SolveResult {
    Bsolo::new(options).solve(instance)
}

/// Solves an instance in *anytime* mode under a wall-clock budget: the
/// stochastic local search races (on a second core) or seeds the
/// branch-and-bound, which spends the time proving optimality or
/// improving. The result
/// is the best **verified** solution found either way
/// ([`SolveStatus::Feasible`] when the budget ran out before the proof).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use pbo::{solve_anytime, InstanceBuilder};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[1].positive(), v[2].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
/// let inst = b.build()?;
///
/// let result = solve_anytime(&inst, Duration::from_secs(2));
/// assert_eq!(result.best_cost, Some(3));
/// # Ok::<(), pbo::BuildError>(())
/// ```
pub fn solve_anytime(instance: &Instance, budget: std::time::Duration) -> SolveResult {
    let options = PortfolioOptions {
        strategy: SolveStrategy::LsSeeded,
        bsolo: BsoloOptions::default().budget(Budget::time_limit(budget)),
        ..PortfolioOptions::default()
    };
    Portfolio::new(options).solve(instance)
}

/// Parses an OPB document and solves it with the default configuration.
///
/// # Errors
///
/// Returns [`ParseOpbError`] when the text is not valid OPB.
///
/// # Examples
///
/// ```
/// let result = pbo::solve_opb("min: +3 x1 ;\n+1 x1 +1 x2 >= 1 ;\n")?;
/// assert_eq!(result.best_cost, Some(0)); // satisfy via x2
/// # Ok::<(), pbo::ParseOpbError>(())
/// ```
pub fn solve_opb(text: &str) -> Result<SolveResult, ParseOpbError> {
    Ok(solve(&parse_opb(text)?))
}
