//! LP solve outcomes.

/// Termination status of a simplex solve.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal (primal and dual feasible) basis was found.
    Optimal,
    /// The constraints admit no point inside the variable bounds.
    Infeasible,
    /// The iteration budget was exhausted before convergence.
    IterationLimit,
    /// A cooperative cancellation (deadline or stop flag) interrupted
    /// the solve before convergence. Like `IterationLimit`, the basis is
    /// left warm-startable and no bound information is available.
    Cancelled,
}

/// Result of a simplex solve.
///
/// For `Optimal` solves every field is meaningful. For `Infeasible`
/// solves, `farkas_rows` lists the rows participating in the infeasibility
/// certificate (the rows with nonzero multiplier in the Farkas
/// combination) — this is the set `S` used to explain LP-based bound
/// conflicts when the relaxation itself is infeasible.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (meaningful for `Optimal`).
    pub objective: f64,
    /// Primal values per variable.
    pub x: Vec<f64>,
    /// Dual value per row (`>=` rows have non-negative duals at
    /// optimality).
    pub duals: Vec<f64>,
    /// Row activity `a_i . x` per row.
    pub row_activity: Vec<f64>,
    /// Rows satisfied with equality (zero slack) — the paper's set `S`
    /// (sec. 4.2) when the relaxation is feasible.
    pub tight_rows: Vec<usize>,
    /// Rows in the Farkas infeasibility certificate (empty unless
    /// `Infeasible`).
    pub farkas_rows: Vec<usize>,
    /// Simplex iterations performed in this call.
    pub iterations: u64,
    /// Nonbasic bound flips absorbed by the bound-flipping ratio test in
    /// this call.
    pub bound_flips: u64,
}

impl LpSolution {
    /// Returns `true` if the solve reached optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }

    /// Returns `true` if the relaxation is infeasible.
    pub fn is_infeasible(&self) -> bool {
        self.status == LpStatus::Infeasible
    }

    /// The variables whose value is further than `tol` from both 0 and 1,
    /// i.e. the fractional variables an LP-guided branching heuristic
    /// considers (sec. 5 of the paper).
    pub fn fractional_vars(&self, tol: f64) -> Vec<usize> {
        self.x
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > tol && v < 1.0 - tol)
            .map(|(j, _)| j)
            .collect()
    }
}
