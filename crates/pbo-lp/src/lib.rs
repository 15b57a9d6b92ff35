//! A small linear-programming solver for branch-and-bound relaxations.
//!
//! The DATE'05 paper computes lower bounds by linear-programming
//! relaxation (sec. 3.1): `min cx, Ax >= b, 0 <= x <= 1`. This crate
//! implements exactly that shape from scratch — a bounded-variable
//! **dual simplex** ([`DualSimplex`]) over an [`LpProblem`] — because the
//! relaxation must be re-solved at every search node after variable
//! fixings, and the dual method warm-starts perfectly across bound
//! changes.
//!
//! Besides the optimum, [`LpSolution`] reports everything the
//! bound-conflict analysis of sec. 4.2 needs: per-row activities, the set
//! of *tight* rows (zero slack — the paper's set `S`), duals, and Farkas
//! rows when the relaxation is infeasible.
//!
//! # Examples
//!
//! ```
//! use pbo_lp::{DualSimplex, LpProblem, LpStatus};
//!
//! // Fractional vertex: min x0 + x1, x0 + x1 >= 1.5 over [0,1]^2.
//! let mut p = LpProblem::new(2);
//! p.set_cost(0, 1.0);
//! p.set_cost(1, 1.0);
//! p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.5);
//! let mut s = DualSimplex::new(&p);
//! let sol = s.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 1.5).abs() < 1e-6);
//!
//! // Warm start after fixing x0 = 0: the relaxation becomes infeasible
//! // (x1 alone cannot reach 1.5).
//! s.set_var_bounds(0, 0.0, 0.0);
//! assert_eq!(s.solve().status, LpStatus::Infeasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;
mod solution;

pub use problem::{LpProblem, RowId};
pub use simplex::DualSimplex;
pub use solution::{LpSolution, LpStatus};

#[cfg(test)]
mod dense_oracle;
#[cfg(test)]
mod simplex_tests;
