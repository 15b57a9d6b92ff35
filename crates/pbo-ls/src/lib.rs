//! Stochastic local search for pseudo-Boolean optimization — the
//! *incumbent engine* of the portfolio.
//!
//! The DATE'05 branch-and-bound prunes a node as soon as
//! `lower bound >= best incumbent`, so the quality of the *upper* bound
//! early in the search is as load-bearing as the lower-bounding
//! machinery. This crate provides what the exact solver cannot: a
//! [`LocalSearch`] engine in the WalkSAT / dynamic-local-search family
//! that finds *verified feasible* near-optimal solutions orders of
//! magnitude faster than tree search (the ParLS-PBO observation), to be
//! raced against — or run ahead of — the exact solver.
//!
//! # Algorithm
//!
//! The engine walks over **complete** assignments of a
//! [`pbo_core::Instance`], maintaining per-constraint true-weight
//! counters so a variable flip costs O(occurrences of the variable):
//!
//! * **Repair moves.** While hard constraints are violated, pick a random
//!   violated constraint and flip the variable minimizing the *weighted
//!   deficiency delta* — the change in `sum_c w_c * max(0, rhs_c -
//!   lhs_c)` over all constraints touched by the flip, among at most 16
//!   candidates — with a 12% noise probability of taking a random
//!   repair instead (WalkSAT).
//! * **Dynamic constraint weighting.** When the best candidate cannot
//!   reduce the weighted deficiency (a local minimum), the weights of all
//!   currently violated constraints are bumped, reshaping the landscape
//!   (DLS/PAWS-style); weights are halved on restarts so stale hardness
//!   decays.
//! * **Objective-aware picking.** Once an incumbent with cost `U` exists,
//!   the objective joins the score as a pseudo-constraint `cost <= U - 1`
//!   with its own weight, and candidate ties always break toward the
//!   cheaper flip — the search is pulled toward improving solutions, not
//!   just feasible ones.
//! * **Restarts with best-solution caching.** Every 8,000 steps the
//!   search re-seeds from the best known solution (randomly perturbed)
//!   or, before any incumbent exists, from a fresh objective-biased
//!   random assignment.
//!
//! These three settings are fixed constants; [`LsOptions`] holds only
//! the seed, the per-call step budget and time limit, and the cancel
//! token.
//! * **Verified incumbents.** Every improving solution passes through
//!   [`pbo_core::verify_solution`] before being recorded or published —
//!   the LS counters are never trusted across a component boundary.
//!
//! Randomness comes from a seeded `rand_chacha::ChaCha8Rng`, so runs are
//! deterministic per seed (and platform-independent).
//!
//! # Portfolio integration
//!
//! [`IncumbentCell`] is the thread-safe rendezvous point of the
//! portfolio: LS publishes each verified incumbent with
//! [`IncumbentCell::offer`], the branch-and-bound adopts whatever is
//! cheaper than its own best, and vice versa — incumbents flow both ways
//! ([`LocalSearch::run`] polls the cell and re-seeds restarts from
//! external improvements). The portfolio runs one walker, ahead of the
//! branch-and-bound or racing it on its own thread; see `pbo_solver`'s
//! `portfolio` module for the driver.
//!
//! # Examples
//!
//! ```
//! use pbo_core::InstanceBuilder;
//! use pbo_ls::{LocalSearch, LsOptions};
//!
//! let mut b = InstanceBuilder::new();
//! let v = b.new_vars(3);
//! b.add_clause([v[0].positive(), v[1].positive()]);
//! b.add_clause([v[1].positive(), v[2].positive()]);
//! b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
//! let inst = b.build()?;
//!
//! let mut ls = LocalSearch::new(&inst, LsOptions::default());
//! let result = ls.run(None, None);
//! assert_eq!(result.best_cost, Some(3)); // x2 covers both clauses
//! # Ok::<(), pbo_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod search;

pub use cell::IncumbentCell;
pub use search::{LocalSearch, LsOptions, LsResult, LsStats};
