//! Core types for linear pseudo-Boolean optimization (PBO).
//!
//! This crate is the foundation of the `pbo` workspace, a reproduction of
//! *Manquinho & Marques-Silva, "Effective Lower Bounding Techniques for
//! Pseudo-Boolean Optimization", DATE 2005*. It provides:
//!
//! * [`Var`] / [`Lit`] — packed variables and literals;
//! * [`PbConstraint`] — normalized `>=` constraints with positive
//!   coefficients (the paper's eq. 1 normal form), plus classification
//!   into clause / cardinality / general;
//! * [`Objective`] — normalized non-negative minimization objectives;
//! * [`Instance`] / [`InstanceBuilder`] — whole problems, built from
//!   arbitrary `<=`/`>=`/`=` constraints via [`normalize`];
//! * [`TermArena`] — the flat CSR/SoA mirror of an instance's rows
//!   (contiguous coefficient/literal arrays, per-row spans, literal →
//!   occurrence CSR) that the hot paths borrow instead of walking
//!   per-constraint `Vec`s;
//! * [`Assignment`] — partial assignments shared by the engine and the
//!   lower-bounding procedures;
//! * OPB parsing/serialization ([`parse_opb`], [`write_opb`]);
//! * [`brute_force`] — an exhaustive reference solver for cross-checking;
//! * [`verify_solution`] — the single feasibility/cost arbiter every
//!   solution producer (branch-and-bound, local search, portfolio glue)
//!   runs its candidates through;
//! * [`CancelToken`] — cooperative cancellation (external cancel or
//!   deadline) shared by every layer of a solve.
//!
//! # Examples
//!
//! Build a weighted covering problem and solve it exhaustively:
//!
//! ```
//! use pbo_core::{brute_force, InstanceBuilder};
//!
//! let mut b = InstanceBuilder::new();
//! let x = b.new_vars(3);
//! b.add_clause([x[0].positive(), x[1].positive()]);
//! b.add_clause([x[1].positive(), x[2].positive()]);
//! b.minimize([(2, x[0].positive()), (3, x[1].positive()), (2, x[2].positive())]);
//! let instance = b.build()?;
//! assert_eq!(brute_force(&instance).cost(), Some(3)); // pick x2
//! # Ok::<(), pbo_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod assignment;
mod brute;
mod cancel;
mod constraint;
mod instance;
mod lit;
mod normalize;
mod objective;
mod opb;
mod verify;

pub use arena::{RowView, TermArena};
pub use assignment::{Assignment, Value};
pub use brute::{brute_force, BruteForceResult};
pub use cancel::CancelToken;
pub use constraint::{
    ConstraintClass, ConstraintError, ConstraintState, PbConstraint, PbTerm, MAX_COEFF_SUM,
};
pub use instance::{BuildError, Instance, InstanceBuilder};
pub use lit::{Lit, Var};
pub use normalize::{normalize, normalize_ge, NormalizeError, RawConstraint, RelOp};
pub use objective::{Objective, ObjectiveError};
pub use opb::{parse_opb, write_opb, ParseOpbError, MAX_OPB_VARS};
pub use verify::{verify_solution, VerifyError};
