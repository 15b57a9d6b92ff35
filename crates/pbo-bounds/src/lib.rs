//! Lower-bound estimation for pseudo-Boolean optimization.
//!
//! This crate implements the three bounding procedures studied by the
//! DATE'05 paper, each paired with the *bound-conflict explanation* that
//! sec. 4 requires for non-chronological backtracking:
//!
//! * [`MisBound`] — greedy maximum independent set of constraints
//!   (sec. 3, the classic covering bound);
//! * [`LagrangianBound`] — Lagrangian relaxation solved by subgradient
//!   ascent (sec. 3.2), explanation from constraints with nonzero
//!   multipliers plus the `alpha_j` filter of sec. 4.3;
//! * [`LprBound`] — linear-programming relaxation (sec. 3.1) solved by
//!   the warm-started dual simplex of [`pbo_lp`], explanation from the
//!   zero-slack constraint set `S` (eq. 9), or Farkas rows when the
//!   relaxation is infeasible;
//! * [`NoBound`] — the "plain" configuration of Table 1 (path cost only).
//!
//! All procedures implement [`LowerBound`] over a [`Subproblem`] — the
//! residual problem under the solver's current partial assignment — and
//! return an [`LbOutcome`]: a bound on the *total* cost of any completion
//! (`P.path + P.lower` in the paper's terms) plus the explanation literal
//! set `omega_pl`, and, for [`LprBound`] against an incumbent, the
//! reduced-cost fixings that the explanation implies.
//!
//! The residual problem itself is produced either by a from-scratch
//! rebuild ([`Subproblem::new`], O(instance) per node — the
//! differential-testing oracle) or by [`ResidualState`], which maintains
//! the per-constraint counters incrementally along the solver's trail in
//! O(Δ) per assignment and snapshots a bit-identical view in O(active
//! constraints).
//!
//! # Examples
//!
//! ```
//! use pbo_core::{Assignment, InstanceBuilder};
//! use pbo_bounds::{LowerBound, MisBound, NoBound, Subproblem};
//!
//! let mut b = InstanceBuilder::new();
//! let v = b.new_vars(2);
//! b.add_clause([v[0].positive(), v[1].positive()]);
//! b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
//! let inst = b.build()?;
//! let a = Assignment::new(2);
//! let sub = Subproblem::new(&inst, &a);
//!
//! assert_eq!(NoBound::new().lower_bound(&sub, None).bound, 0);
//! assert_eq!(MisBound::new().lower_bound(&sub, None).bound, 2);
//! # Ok::<(), pbo_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynrows;
mod lagrangian;
mod lpr;
mod mis;
mod residual;
mod subproblem;

pub use dynrows::{DynRow, DynRowOrigin, DynamicRows};
pub use lagrangian::LagrangianBound;
pub use lpr::LprBound;
pub use mis::MisBound;
pub use residual::ResidualState;
pub use subproblem::{ActiveEntry, Subproblem};

use pbo_core::Lit;

/// Result of one lower-bound computation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LbOutcome {
    /// Lower bound on the cost of *any* feasible completion of the
    /// current partial assignment, path cost included
    /// (`P.path + P.lower`). Meaningless when `infeasible` is set.
    pub bound: i64,
    /// The residual problem was proven infeasible (e.g. the LP relaxation
    /// has no solution): the subtree contains no feasible completion at
    /// all.
    pub infeasible: bool,
    /// The paper's `omega_pl`: currently-false literals explaining the
    /// bound (eq. 9). Together with `omega_pp` (built by the solver from
    /// the costed true literals, eq. 8) they form the bound-conflict
    /// clause `omega_bc`. Only a call that prunes against `upper` (or
    /// proves infeasibility) or reports `fixings` needs it, and
    /// [`LprBound`] leaves it empty on every other call.
    pub explanation: Vec<Lit>,
    /// Reduced-cost fixings ([`LprBound`] only; empty for the other
    /// procedures): free literals that every feasible completion cheaper
    /// than `upper` makes true, as long as it keeps every literal of
    /// `omega_bc` false. So each `l` here gives the clause `omega_bc ∨
    /// l`, where `omega_bc` is built from this outcome's `explanation`
    /// as for a bound conflict.
    pub fixings: Vec<Lit>,
}

impl LbOutcome {
    /// A finite bound with its explanation.
    pub fn bound(bound: i64, explanation: Vec<Lit>) -> LbOutcome {
        LbOutcome { bound, infeasible: false, explanation, fixings: Vec::new() }
    }

    /// An infeasibility outcome with its explanation.
    pub fn infeasible(explanation: Vec<Lit>) -> LbOutcome {
        LbOutcome { bound: i64::MAX, infeasible: true, explanation, fixings: Vec::new() }
    }

    /// Returns `true` if this outcome prunes against the given upper
    /// bound (`bound >= upper`, eq. 7, or infeasibility).
    pub fn prunes(&self, upper: i64) -> bool {
        self.infeasible || self.bound >= upper
    }
}

/// A lower-bound estimation procedure (sec. 3 of the paper).
///
/// Implementations may keep internal state for warm starting (the LP
/// basis, the Lagrangian multipliers); the solver calls the bound once
/// per search node.
///
/// Implement **at least one** of [`lower_bound`](LowerBound::lower_bound)
/// and [`lower_bound_into`](LowerBound::lower_bound_into) — each defaults
/// to the other. Allocation-free kernels (MIS, LGR) implement the `into`
/// variant, writing the explanation into the caller's reusable buffer;
/// per-node callers (the solver's bound pipeline) hold one [`LbOutcome`]
/// and call `lower_bound_into` so the steady state performs no heap
/// allocation at all.
pub trait LowerBound {
    /// Short identifier used in benchmark tables (`"mis"`, `"lgr"`,
    /// `"lpr"`, `"none"`).
    fn name(&self) -> &'static str;

    /// Computes a lower bound for the residual problem. `upper` is the
    /// current best solution (`P.upper`), which implementations may use
    /// for early termination once the bound already prunes.
    fn lower_bound(&mut self, sub: &Subproblem<'_>, upper: Option<i64>) -> LbOutcome {
        let mut out = LbOutcome::bound(0, Vec::new());
        self.lower_bound_into(sub, upper, &mut out);
        out
    }

    /// Like [`lower_bound`](LowerBound::lower_bound), but writes the
    /// result into a caller-owned outcome, reusing the explanation
    /// buffer's capacity across calls.
    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        *out = self.lower_bound(sub, upper);
    }
}

/// The trivial bound: path cost only (the paper's "plain" bsolo).
#[derive(Clone, Debug, Default)]
pub struct NoBound {
    _private: (),
}

impl NoBound {
    /// Creates the trivial bound.
    pub fn new() -> NoBound {
        NoBound { _private: () }
    }
}

impl LowerBound for NoBound {
    fn name(&self) -> &'static str {
        "none"
    }

    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, _upper: Option<i64>, out: &mut LbOutcome) {
        out.bound = sub.path_cost();
        out.infeasible = false;
        out.explanation.clear();
        out.fixings.clear();
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;

    #[test]
    fn prunes_respects_threshold() {
        let o = LbOutcome::bound(5, vec![]);
        assert!(o.prunes(5));
        assert!(o.prunes(4));
        assert!(!o.prunes(6));
        assert!(LbOutcome::infeasible(vec![]).prunes(i64::MAX));
    }

    #[test]
    fn no_bound_returns_path_cost() {
        use pbo_core::{Assignment, InstanceBuilder, Var};
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(7, v[0].positive())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true);
        let sub = Subproblem::new(&inst, &a);
        let out = NoBound::new().lower_bound(&sub, None);
        assert_eq!(out.bound, 7);
        assert!(out.explanation.is_empty());
    }
}
