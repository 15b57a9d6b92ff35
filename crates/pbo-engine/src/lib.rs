//! Conflict-driven search engine for pseudo-Boolean formulas.
//!
//! This crate provides the SAT-solving substrate of the workspace (the
//! machinery the DATE'05 paper inherits from Chaff-era solvers):
//!
//! * [`Engine`] — assignment trail with decision levels, two-watched
//!   literal propagation for clauses, counter/slack propagation for
//!   general PB constraints, first-UIP conflict analysis with clause
//!   learning and non-chronological backtracking, VSIDS branching and
//!   learned-database reduction;
//! * [`Conflict::AdHoc`] — the entry point for *bound conflicts*: the
//!   branch-and-bound layer builds the `omega_bc` clause of sec. 4 and
//!   injects it here, reusing the standard analysis for non-chronological
//!   backtracking on bounds;
//! * [`luby`] / [`LubyRestarts`] — restart scheduling;
//! * [`Vsids`] — the activity heap, exposed for reuse by branching
//!   heuristics.
//!
//! # Examples
//!
//! Drive the engine by hand on a tiny formula:
//!
//! ```
//! use pbo_core::{Lit, PbConstraint};
//! use pbo_engine::Engine;
//!
//! let mut e = Engine::new(3);
//! // x1 + x2 >= 1,  2*~x1 + x3 >= 2
//! e.add_constraint(&PbConstraint::clause([Lit::new(0, true), Lit::new(1, true)])).unwrap();
//! e.add_constraint(&PbConstraint::try_new(
//!     vec![(2, Lit::new(0, false)), (1, Lit::new(2, true))], 2).unwrap()).unwrap();
//! // ~x1 is forced at the root: the constraint needs weight 2 out of an
//! // available 3, so the weight-2 literal ~x1 may not be lost.
//! assert!(e.propagate().is_none());
//! assert!(e.assignment().is_true(Lit::new(0, false)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod engine;
mod luby;
mod vsids;

pub use clause::{Clause, ClauseDb, ClauseId};
pub use engine::{Conflict, Engine, EngineStats, PbId, Reason, Resolution, RootConflict};
pub use luby::{luby, LubyRestarts};
pub use vsids::Vsids;

#[cfg(test)]
mod engine_tests;
