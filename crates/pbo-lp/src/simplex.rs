// Dense tableau arithmetic is written with explicit row/column indices;
// iterator forms would hide the pivot structure.
#![allow(clippy::needless_range_loop)]

//! Bounded-variable dual simplex.
//!
//! The solver targets the LPs arising from pseudo-Boolean relaxations
//! inside branch-and-bound: minimization with non-negative-ish costs,
//! `>=` rows, box-bounded variables, and *frequent re-solves after bound
//! changes* (variable fixings). The dual simplex is the natural method:
//! the all-logical starting basis is dual feasible by construction (the
//! nonbasic bound of each structural variable is chosen by the sign of
//! its reduced cost), and bound changes never disturb dual feasibility,
//! so warm starts typically re-optimize in a handful of pivots.
//!
//! Implementation notes:
//! * rows are turned into equalities `a_i.x - s_i = b_i` with surplus
//!   ("logical") variables `s_i in [0, inf)`;
//! * the basis inverse is kept dense and updated by the product form;
//!   it is refactorized (Gauss-Jordan with partial pivoting) periodically
//!   and on demand;
//! * two pricing strategies are available (see [`Pricing`]): the default
//!   sparse path prices the pivot row in one pass over the row nonzeros,
//!   maintains reduced costs incrementally, selects the leaving row by
//!   dual Devex reference weights and runs a bound-flipping ratio test;
//!   the dense legacy path (full column scans, fresh reduced costs per
//!   candidate, Harris-lite ratio test) is kept verbatim as the reference
//!   the sparse path is differential-tested against;
//! * primal values and duals are maintained incrementally across pivots
//!   and bound changes (the branch-and-bound hot path makes thousands of
//!   one-pivot re-solves), and recomputed from scratch at every
//!   refactorization to bound numerical drift.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::problem::LpProblem;
use crate::solution::{LpSolution, LpStatus};

const FEAS_TOL: f64 = 1e-7;
const DUAL_TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-8;
const ZERO_TOL: f64 = 1e-9;
const TIGHT_TOL: f64 = 1e-6;
const REFACTOR_INTERVAL: u64 = 80;
const BLAND_THRESHOLD: u64 = 2_000;
/// Pivots between cooperative-cancellation polls: cheap enough to keep
/// deadline overshoot bounded by a few dozen dense pivots, rare enough
/// that `Instant::now` stays off the per-pivot path.
const CANCEL_CHECK_INTERVAL: u64 = 64;
/// Devex reference weights above this trigger a reference-framework
/// reset (all weights back to 1): the weights are a heuristic norm
/// estimate and lose meaning once they explode.
const DEVEX_RESET: f64 = 1e7;

/// Pricing strategy of the dual simplex (see [`DualSimplex::set_pricing`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Pricing {
    /// Dense reference path: leaving row by most-infeasible scan,
    /// entering column by a full scan over all columns computing the
    /// pivot-row coefficient *and* a fresh reduced cost per candidate
    /// (Harris-lite tie-break on pivot magnitude). Kept verbatim so the
    /// sparse path can be differential-tested against it.
    DenseLegacy,
    /// Sparse hot path: the pivot row is priced in a single pass over the
    /// matrix row nonzeros, reduced costs are maintained incrementally
    /// across pivots, the leaving row is chosen by dual Devex reference
    /// weights, and the ratio test is bound-flipping (boxed nonbasic
    /// columns whose breakpoint is passed flip bounds instead of
    /// entering, often absorbing several breakpoints per pivot).
    #[default]
    DevexSparse,
}

/// One step of the pivot loop (shared between pricing strategies).
enum Step {
    Optimal,
    Infeasible(Vec<usize>),
    Pivoted,
}

/// Warm-startable bounded-variable dual simplex solver.
///
/// # Examples
///
/// ```
/// use pbo_lp::{DualSimplex, LpProblem, LpStatus};
///
/// let mut p = LpProblem::new(2);
/// p.set_cost(0, 1.0);
/// p.set_cost(1, 2.0);
/// p.add_row_ge(&[(0, 1.0), (1, 1.0)], 1.5);
/// let mut s = DualSimplex::new(&p);
/// let sol = s.solve();
/// assert_eq!(sol.status, LpStatus::Optimal);
/// assert!((sol.objective - 2.0).abs() < 1e-6); // x0 = 1, x1 = 0.5
/// ```
#[derive(Clone, Debug)]
pub struct DualSimplex {
    n: usize,
    m: usize,
    /// Sparse structural columns: `(row, coeff)` pairs.
    cols: Vec<Vec<(usize, f64)>>,
    /// Sparse rows (structural part): `(col, coeff)` pairs. The sparse
    /// pricing path computes the whole pivot-row coefficient vector in
    /// one pass over these.
    rows_sp: Vec<Vec<(usize, f64)>>,
    costs: Vec<f64>,
    rhs: Vec<f64>,
    /// Bounds over all `n + m` columns (logicals: `[0, inf)`).
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Vec<usize>,
    /// Position of a column in the basis, or -1.
    basis_pos: Vec<i32>,
    at_upper: Vec<bool>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    /// Duals `y = c_B B^-1`, maintained incrementally across pivots and
    /// recomputed at refactorization.
    y: Vec<f64>,
    /// Basic primal values `x_B = B^-1 (b - N x_N)`, maintained
    /// incrementally across pivots and nonbasic value changes, recomputed
    /// at refactorization.
    xb: Vec<f64>,
    /// Reduced costs over all `n + m` columns, maintained incrementally
    /// by the sparse pricing path (zero on basic columns) and rebuilt at
    /// refactorization. Untouched (stale) under `Pricing::DenseLegacy`.
    d: Vec<f64>,
    /// Dual Devex reference weights, one per basis row.
    devex: Vec<f64>,
    /// Running maximum of `devex`, to trigger reference resets without a
    /// scan.
    devex_max: f64,
    pricing: Pricing,
    /// Scratch: pivot-row coefficients `alpha_j = rho . col_j` over all
    /// columns; only the entries listed in `alpha_touched` are nonzero.
    alpha: Vec<f64>,
    /// Scratch: stamp per column marking membership in `alpha_touched`.
    alpha_mark: Vec<u64>,
    alpha_stamp: u64,
    alpha_touched: Vec<usize>,
    /// Scratch: ratio-test candidates `(theta, col, signed alpha)`.
    cand: Vec<(f64, usize, f64)>,
    /// Scratch: indices into `cand` of the candidates to bound-flip.
    flips: Vec<usize>,
    /// Scratch: entering column `w = B^-1 A_enter`.
    w: Vec<f64>,
    pivots_since_refactor: u64,
    max_iterations: u64,
    /// Structural variables whose bounds changed since the last solve;
    /// only these need a dual-feasibility placement repair.
    dirty: Vec<usize>,
    /// Wall-clock deadline polled mid-solve (see `set_cancel`).
    deadline: Option<Instant>,
    /// External stop latch polled mid-solve (see `set_cancel`).
    stop: Option<Arc<AtomicBool>>,
    /// Cumulative iteration count across solves.
    pub total_iterations: u64,
}

impl DualSimplex {
    /// Builds a solver for `problem`, starting from the all-logical basis
    /// with each structural variable placed on the dual-feasible bound.
    pub fn new(problem: &LpProblem) -> DualSimplex {
        let n = problem.num_vars();
        let m = problem.num_rows();
        let mut cols = vec![Vec::new(); n];
        let mut rows_sp = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (i, (terms, b)) in problem.rows().enumerate() {
            for &(j, a) in terms {
                cols[j].push((i, a));
            }
            rows_sp.push(terms.to_vec());
            rhs.push(b);
        }
        let mut lower = problem.lower().to_vec();
        let mut upper = problem.upper().to_vec();
        lower.extend(std::iter::repeat_n(0.0, m));
        upper.extend(std::iter::repeat_n(f64::INFINITY, m));
        let costs = problem.costs().to_vec();
        let mut at_upper = vec![false; n + m];
        for j in 0..n {
            // Dual-feasible placement: negative reduced cost -> upper.
            at_upper[j] = costs[j] < 0.0 && upper[j].is_finite();
        }
        let basis: Vec<usize> = (n..n + m).collect();
        let mut basis_pos = vec![-1i32; n + m];
        for (r, &j) in basis.iter().enumerate() {
            basis_pos[j] = r as i32;
        }
        // The all-logical basis matrix is -I (surplus columns are -e_i),
        // so its inverse is -I as well.
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = -1.0;
        }
        // With y = 0 the reduced cost of a structural column is its cost;
        // logicals (cost zero) are basic with reduced cost zero.
        let mut d = vec![0.0; n + m];
        d[..n].copy_from_slice(&costs);
        let mut simplex = DualSimplex {
            n,
            m,
            cols,
            rows_sp,
            costs,
            rhs,
            lower,
            upper,
            basis,
            basis_pos,
            at_upper,
            binv,
            y: vec![0.0; m],
            xb: Vec::new(),
            d,
            devex: vec![1.0; m],
            devex_max: 1.0,
            pricing: Pricing::default(),
            alpha: vec![0.0; n + m],
            alpha_mark: vec![0; n + m],
            alpha_stamp: 0,
            alpha_touched: Vec::new(),
            cand: Vec::new(),
            flips: Vec::new(),
            w: vec![0.0; m],
            pivots_since_refactor: 0,
            max_iterations: 20_000,
            dirty: Vec::new(),
            deadline: None,
            stop: None,
            total_iterations: 0,
        };
        simplex.xb = simplex.basic_values();
        simplex
    }

    /// Sets the per-solve iteration budget.
    pub fn set_max_iterations(&mut self, limit: u64) {
        self.max_iterations = limit;
    }

    /// Selects the pricing strategy. Switching rebuilds the maintained
    /// reduced costs and resets the Devex reference framework, so it is
    /// safe at any point between solves.
    pub fn set_pricing(&mut self, pricing: Pricing) {
        self.pricing = pricing;
        self.rebuild_reduced_costs();
        self.reset_devex();
    }

    /// The active pricing strategy.
    pub fn pricing(&self) -> Pricing {
        self.pricing
    }

    /// Arms cooperative cancellation: [`solve`](Self::solve) returns
    /// [`LpStatus::Cancelled`] (basis warm-startable, like an iteration
    /// limit) once the deadline passes or the stop latch is set, polled
    /// every [`CANCEL_CHECK_INTERVAL`] pivots — so a deadline landing
    /// mid-solve is honored within a bounded overshoot instead of only
    /// between solves. `None`/`None` disarms.
    pub fn set_cancel(&mut self, deadline: Option<Instant>, stop: Option<Arc<AtomicBool>>) {
        self.deadline = deadline;
        self.stop = stop;
    }

    /// Whether an armed cancellation condition has tripped.
    fn cancelled(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.load(Ordering::Acquire))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Changes the bounds of structural variable `j`. The basis (and dual
    /// feasibility) is preserved, making the next [`solve`](Self::solve) a
    /// warm start.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `j` is out of range.
    pub fn set_var_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        assert!(j < self.n, "structural variable out of range");
        assert!(lower <= upper, "empty bound interval");
        let nonbasic = self.basis_pos[j] < 0;
        let v_old = if nonbasic { self.nonbasic_value(j) } else { 0.0 };
        self.lower[j] = lower;
        self.upper[j] = upper;
        if nonbasic && self.at_upper[j] && !upper.is_finite() {
            self.at_upper[j] = false;
        }
        if nonbasic {
            let v_new = self.nonbasic_value(j);
            self.shift_nonbasic(j, v_new - v_old);
        }
        self.dirty.push(j);
    }

    /// Appends the row `sum coeff * x_col >= rhs` to the system *without
    /// discarding the basis*: the new surplus logical enters the basis
    /// directly, which extends the basis matrix by a bordered identity
    /// block — `B' = [[B, 0], [C, -I]]` has the closed-form inverse
    /// `[[B^-1, 0], [C B^-1, -I]]`, so the inverse, duals, primal values
    /// and maintained reduced costs all extend in `O(m * nnz(row))`
    /// instead of a full `O(m^3)` refactorization. Dual feasibility is
    /// preserved (the new row's dual starts at zero); if the current
    /// point violates the new row, the next [`solve`](Self::solve) picks
    /// it up as an ordinary warm start.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of structural range.
    pub fn append_row_ge(&mut self, terms: &[(usize, f64)], rhs: f64) {
        let n = self.n;
        let m_old = self.m;
        let m_new = m_old + 1;
        for &(j, _) in terms {
            assert!(j < n, "append_row_ge: column {j} out of range");
        }
        debug_assert!(
            (0..terms.len()).all(|a| (a + 1..terms.len()).all(|b| terms[a].0 != terms[b].0)),
            "append_row_ge: repeated column in row"
        );
        // New-row primal activity at the current point, before any state
        // grows (structural basis positions are still valid).
        let mut activity = 0.0;
        for &(j, a) in terms {
            let p = self.basis_pos[j];
            let v = if p >= 0 { self.xb[p as usize] } else { self.nonbasic_value(j) };
            activity += a * v;
        }
        // Grow the inverse: old rows gain a zero column, the new row is
        // C B^-1 with -1 on the new diagonal (C has entries only on
        // structural basic columns; old logicals do not appear in the new
        // row).
        let mut binv = vec![0.0; m_new * m_new];
        for i in 0..m_old {
            binv[i * m_new..i * m_new + m_old]
                .copy_from_slice(&self.binv[i * m_old..(i + 1) * m_old]);
        }
        let last = m_new - 1;
        for &(j, a) in terms {
            let p = self.basis_pos[j];
            if p >= 0 {
                let p = p as usize;
                for k in 0..m_old {
                    let bv = self.binv[p * m_old + k];
                    if bv != 0.0 {
                        binv[last * m_new + k] += a * bv;
                    }
                }
            }
        }
        binv[last * m_new + last] = -1.0;
        self.binv = binv;
        // Column storage and per-column state for the new logical
        // (index n + m_old: logicals are the tail, so appending a row
        // keeps every existing column index valid).
        for &(j, a) in terms {
            self.cols[j].push((m_old, a));
        }
        self.rows_sp.push(terms.to_vec());
        self.rhs.push(rhs);
        self.lower.push(0.0);
        self.upper.push(f64::INFINITY);
        self.at_upper.push(false);
        self.basis.push(n + m_old);
        self.basis_pos.push(m_old as i32);
        // The new logical is basic with zero cost: its dual starts at
        // zero, so no existing reduced cost moves.
        self.y.push(0.0);
        self.d.push(0.0);
        self.xb.push(activity - rhs);
        self.devex.push(1.0);
        self.alpha.push(0.0);
        self.alpha_mark.push(0);
        self.m = m_new;
    }

    /// Applies a nonbasic value change of `delta` on column `j` to the
    /// maintained basic values: `x_B -= delta * B^-1 A_j`.
    fn shift_nonbasic(&mut self, j: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let m = self.m;
        let binv = &self.binv;
        let xb = &mut self.xb;
        let mut apply = |i: usize, a: f64| {
            let da = delta * a;
            for k in 0..m {
                let bv = binv[k * m + i];
                if bv != 0.0 {
                    xb[k] -= da * bv;
                }
            }
        };
        if j < self.n {
            for &(i, a) in &self.cols[j] {
                apply(i, a);
            }
        } else {
            apply(j - self.n, -1.0);
        }
    }

    /// Current bounds of structural variable `j`.
    pub fn var_bounds(&self, j: usize) -> (f64, f64) {
        (self.lower[j], self.upper[j])
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.upper[j]
        } else {
            self.lower[j]
        }
    }

    /// Column `j` of the equality system `[A | -I]`, as `(row, coeff)`.
    fn column(&self, j: usize) -> ColumnIter<'_> {
        if j < self.n {
            ColumnIter::Structural(self.cols[j].iter())
        } else {
            ColumnIter::Logical(Some(j - self.n))
        }
    }

    /// `x_B = B^-1 (b - N x_N)`.
    fn basic_values(&self) -> Vec<f64> {
        let m = self.m;
        let mut t = self.rhs.clone();
        for j in 0..self.n + m {
            if self.basis_pos[j] >= 0 {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v.abs() <= ZERO_TOL {
                continue;
            }
            for (i, a) in self.column(j) {
                t[i] -= a * v;
            }
        }
        let mut xb = vec![0.0; m];
        for r in 0..m {
            let row = &self.binv[r * m..(r + 1) * m];
            let mut acc = 0.0;
            for (k, &bv) in row.iter().enumerate() {
                if bv != 0.0 {
                    acc += bv * t[k];
                }
            }
            xb[r] = acc;
        }
        xb
    }

    /// Recomputes `y = c_B B^-1` from scratch (refactorization path).
    fn recompute_duals(&mut self) {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (r, &j) in self.basis.iter().enumerate() {
            let c = if j < self.n { self.costs[j] } else { 0.0 };
            if c == 0.0 {
                continue;
            }
            let row = &self.binv[r * m..(r + 1) * m];
            for (k, &bv) in row.iter().enumerate() {
                y[k] += c * bv;
            }
        }
        self.y = y;
    }

    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let c = if j < self.n { self.costs[j] } else { 0.0 };
        let mut d = c;
        for (i, a) in self.column(j) {
            d -= y[i] * a;
        }
        d
    }

    /// Rebuilds the maintained reduced-cost vector from the current
    /// duals (sparse pricing path; basic columns get exact zeros).
    fn rebuild_reduced_costs(&mut self) {
        for j in 0..self.n + self.m {
            self.d[j] = if self.basis_pos[j] >= 0 { 0.0 } else { self.reduced_cost(j, &self.y) };
        }
    }

    /// Resets the Devex reference framework (all weights to 1).
    fn reset_devex(&mut self) {
        for g in self.devex.iter_mut() {
            *g = 1.0;
        }
        self.devex_max = 1.0;
    }

    /// Rebuilds the dense basis inverse from scratch. Returns `false` if
    /// the basis matrix is numerically singular (in which case the solver
    /// resets to the all-logical basis).
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        // Assemble the basis matrix.
        let mut a = vec![0.0; m * m];
        for (r, &j) in self.basis.iter().enumerate() {
            for (i, v) in self.column(j) {
                a[i * m + r] = v;
            }
        }
        // Gauss-Jordan with partial pivoting on [A | I].
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-11 {
                self.reset_basis();
                return false;
            }
            if piv != col {
                for k in 0..m {
                    a.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let p = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= p;
                inv[col * m + k] /= p;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    a[r * m + k] -= f * a[col * m + k];
                    inv[r * m + k] -= f * inv[col * m + k];
                }
            }
        }
        self.binv = inv;
        self.pivots_since_refactor = 0;
        self.recompute_duals();
        self.xb = self.basic_values();
        if self.pricing == Pricing::DevexSparse {
            self.rebuild_reduced_costs();
        }
        true
    }

    /// Abandons the current basis and restarts from the all-logical one
    /// (identity inverse, dual-feasible nonbasic placement).
    fn reset_basis(&mut self) {
        let m = self.m;
        let n = self.n;
        self.basis = (n..n + m).collect();
        for p in self.basis_pos.iter_mut() {
            *p = -1;
        }
        for (r, &j) in self.basis.iter().enumerate() {
            self.basis_pos[j] = r as i32;
        }
        for j in 0..n {
            self.at_upper[j] = self.costs[j] < 0.0 && self.upper[j].is_finite();
        }
        for j in n..n + m {
            self.at_upper[j] = false;
        }
        self.binv = vec![0.0; m * m];
        for i in 0..m {
            self.binv[i * m + i] = -1.0;
        }
        self.y = vec![0.0; m];
        self.pivots_since_refactor = 0;
        self.xb = self.basic_values();
        if self.pricing == Pricing::DevexSparse {
            self.rebuild_reduced_costs();
        }
        self.reset_devex();
    }

    /// Runs the dual simplex to optimality, infeasibility or the
    /// iteration limit.
    pub fn solve(&mut self) -> LpSolution {
        // Restore dual feasibility of nonbasic placements for variables
        // whose bounds changed since the last solve. While a variable is
        // fixed (l == u) it is excluded from the ratio test, so its
        // reduced cost may drift to the "wrong" side of its stored bound
        // status; after unfixing, that stale placement would let the
        // solve terminate at a dual-infeasible (suboptimal) point. Moving
        // a nonbasic variable to the other bound never changes the duals,
        // so this repair is free — and only bound-changed variables can
        // be stale, so only those are inspected.
        if !self.dirty.is_empty() {
            let y = self.y.clone();
            let dirty = std::mem::take(&mut self.dirty);
            for j in dirty {
                if self.basis_pos[j] >= 0 || self.lower[j] == self.upper[j] {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let v_old = self.nonbasic_value(j);
                if d < -DUAL_TOL {
                    self.at_upper[j] = self.upper[j].is_finite();
                } else if d > DUAL_TOL {
                    self.at_upper[j] = false;
                }
                let v_new = self.nonbasic_value(j);
                self.shift_nonbasic(j, v_new - v_old);
            }
        }
        let mut iterations = 0u64;
        let mut bound_flips = 0u64;
        loop {
            if iterations >= self.max_iterations {
                return self.emit(LpStatus::IterationLimit, Vec::new(), iterations, bound_flips);
            }
            if iterations.is_multiple_of(CANCEL_CHECK_INTERVAL)
                && (self.deadline.is_some() || self.stop.is_some())
                && self.cancelled()
            {
                return self.emit(LpStatus::Cancelled, Vec::new(), iterations, bound_flips);
            }
            if self.pivots_since_refactor >= REFACTOR_INTERVAL {
                self.refactorize();
            }
            let step = match self.pricing {
                Pricing::DenseLegacy => self.step_dense(iterations),
                Pricing::DevexSparse => self.step_devex(iterations, &mut bound_flips),
            };
            match step {
                Step::Optimal => return self.finish_optimal(iterations, bound_flips),
                Step::Infeasible(farkas) => {
                    return self.emit_infeasible(farkas, iterations, bound_flips)
                }
                Step::Pivoted => {
                    iterations += 1;
                    self.total_iterations += 1;
                }
            }
        }
    }

    /// One pivot of the frozen dense baseline: most-infeasible leaving
    /// row, full column scan with fresh reduced costs, Harris-lite ratio
    /// test. Kept byte-for-byte equivalent to the pre-Devex solver.
    fn step_dense(&mut self, iterations: u64) -> Step {
        let m = self.m;
        let xb = &self.xb;
        // Leaving variable: the most infeasible basic.
        let mut leave: Option<(usize, f64, f64)> = None; // (row, violation, sigma)
        let bland = iterations >= BLAND_THRESHOLD;
        for r in 0..m {
            let j = self.basis[r];
            let v = xb[r];
            let (lo, hi) = (self.lower[j], self.upper[j]);
            let (viol, sigma) = if v < lo - FEAS_TOL {
                (lo - v, -1.0)
            } else if v > hi + FEAS_TOL {
                (v - hi, 1.0)
            } else {
                continue;
            };
            let take = match leave {
                None => true,
                Some((_, best, _)) => {
                    if bland {
                        false // first (smallest row) violated wins
                    } else {
                        viol > best
                    }
                }
            };
            if take {
                leave = Some((r, viol, sigma));
                if bland {
                    break;
                }
            }
        }
        let Some((r, _, sigma)) = leave else {
            return Step::Optimal;
        };

        // Pivot row rho = e_r B^-1, alpha'_j = sigma * rho . col_j.
        let rho: Vec<f64> = self.binv[r * m..(r + 1) * m].to_vec();
        let y = self.y.clone();
        let mut best: Option<(usize, f64, f64)> = None; // (col, theta, |alpha|)
        for j in 0..self.n + m {
            if self.basis_pos[j] >= 0 {
                continue;
            }
            if self.lower[j] == self.upper[j] && j < self.n {
                // Fixed variable: entering it cannot restore
                // feasibility in a useful way; skip to keep pivots
                // meaningful (it may still be skipped safely because a
                // fixed column constrains nothing).
                continue;
            }
            let mut alpha = 0.0;
            for (i, a) in self.column(j) {
                alpha += rho[i] * a;
            }
            let alpha_s = sigma * alpha;
            let eligible =
                if self.at_upper[j] { alpha_s < -PIVOT_TOL } else { alpha_s > PIVOT_TOL };
            if !eligible {
                continue;
            }
            let d = self.reduced_cost(j, &y);
            let theta = (d / alpha_s).max(0.0); // clamp tiny dual infeasibilities
            let better = match best {
                None => true,
                Some((bj, bt, ba)) => {
                    if bland {
                        // Smallest index among minimal ratios.
                        theta < bt - DUAL_TOL || (theta <= bt + DUAL_TOL && j < bj)
                    } else {
                        // Harris-lite: among near-minimal ratios take
                        // the largest pivot magnitude.
                        theta < bt - 1e-9 || (theta <= bt + 1e-9 && alpha_s.abs() > ba)
                    }
                }
            };
            if better {
                best = Some((j, theta, alpha_s.abs()));
            }
        }
        let Some((enter, _, _)) = best else {
            // Infeasible: rho is (up to sign) a Farkas certificate.
            let farkas: Vec<usize> = (0..m).filter(|&i| rho[i].abs() > 1e-7).collect();
            return Step::Infeasible(farkas);
        };

        self.compute_w(enter);
        self.pivot_core(r, enter, sigma);
        Step::Pivoted
    }

    /// One pivot of the sparse hot path: Devex-weighted leaving row, one
    /// row-wise pass for the pivot-row coefficients, maintained reduced
    /// costs, bound-flipping ratio test.
    fn step_devex(&mut self, iterations: u64, bound_flips: &mut u64) -> Step {
        let m = self.m;
        let n = self.n;
        let bland = iterations >= BLAND_THRESHOLD;
        // Leaving row: largest violation^2 / devex weight (plain first
        // violated under the Bland anti-cycling regime).
        let mut leave: Option<(usize, f64, f64, f64)> = None; // (row, viol, sigma, score)
        for r in 0..m {
            let j = self.basis[r];
            let v = self.xb[r];
            let (lo, hi) = (self.lower[j], self.upper[j]);
            let (viol, sigma) = if v < lo - FEAS_TOL {
                (lo - v, -1.0)
            } else if v > hi + FEAS_TOL {
                (v - hi, 1.0)
            } else {
                continue;
            };
            if bland {
                leave = Some((r, viol, sigma, 0.0));
                break;
            }
            let score = viol * viol / self.devex[r];
            if leave.is_none_or(|(_, _, _, bs)| score > bs) {
                leave = Some((r, viol, sigma, score));
            }
        }
        let Some((r, viol, sigma, _)) = leave else {
            return Step::Optimal;
        };

        // Pivot-row coefficients in one pass over the row nonzeros:
        // alpha_j = sum_i rho_i a_ij with rho = e_r B^-1, plus the
        // logical diagonal alpha_{n+i} = -rho_i.
        self.alpha_stamp += 1;
        let stamp = self.alpha_stamp;
        self.alpha_touched.clear();
        for i in 0..m {
            let rv = self.binv[r * m + i];
            if rv == 0.0 {
                continue;
            }
            for &(j, a) in &self.rows_sp[i] {
                if self.alpha_mark[j] != stamp {
                    self.alpha_mark[j] = stamp;
                    self.alpha[j] = 0.0;
                    self.alpha_touched.push(j);
                }
                self.alpha[j] += rv * a;
            }
            let lj = n + i;
            if self.alpha_mark[lj] != stamp {
                self.alpha_mark[lj] = stamp;
                self.alpha[lj] = 0.0;
                self.alpha_touched.push(lj);
            }
            self.alpha[lj] -= rv;
        }

        // Ratio-test candidates among the touched (nonzero-alpha)
        // columns, priced with the maintained reduced costs.
        self.cand.clear();
        for idx in 0..self.alpha_touched.len() {
            let j = self.alpha_touched[idx];
            if self.basis_pos[j] >= 0 {
                continue;
            }
            if j < n && self.lower[j] == self.upper[j] {
                continue; // fixed variables stay out of the basis
            }
            let alpha_s = sigma * self.alpha[j];
            let eligible =
                if self.at_upper[j] { alpha_s < -PIVOT_TOL } else { alpha_s > PIVOT_TOL };
            if !eligible {
                continue;
            }
            let theta = (self.d[j] / alpha_s).max(0.0);
            self.cand.push((theta, j, alpha_s));
        }
        if self.cand.is_empty() {
            let farkas: Vec<usize> =
                (0..m).filter(|&i| self.binv[r * m + i].abs() > 1e-7).collect();
            return Step::Infeasible(farkas);
        }

        // Bound-flipping ratio test: walk the breakpoints in ratio order;
        // while flipping a boxed candidate to its other bound still
        // leaves the leaving row infeasible, absorb the breakpoint as a
        // bound flip and keep going. Under Bland, fall back to the plain
        // smallest-ratio / smallest-index rule with no flips.
        self.flips.clear();
        let chosen = if bland {
            let mut best = 0usize;
            for i in 1..self.cand.len() {
                let (t, j, _) = self.cand[i];
                let (bt, bj, _) = self.cand[best];
                if t < bt - DUAL_TOL || (t <= bt + DUAL_TOL && j < bj) {
                    best = i;
                }
            }
            best
        } else {
            // Ratio order; among equal ratios prefer the larger pivot.
            self.cand.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.2.abs().partial_cmp(&a.2.abs()).unwrap())
                    .then_with(|| a.1.cmp(&b.1))
            });
            let last = self.cand.len() - 1;
            let mut remaining = viol;
            let mut chosen = last;
            for idx in 0..self.cand.len() {
                let (_, j, alpha_s) = self.cand[idx];
                let range = self.upper[j] - self.lower[j];
                if idx == last || !range.is_finite() {
                    chosen = idx;
                    break;
                }
                let gain = alpha_s.abs() * range;
                if remaining - gain > FEAS_TOL {
                    self.flips.push(idx);
                    remaining -= gain;
                } else {
                    chosen = idx;
                    break;
                }
            }
            chosen
        };

        // Apply the bound flips before the pivot: each flip moves the
        // maintained basic values (including the leaving row, which
        // stays infeasible by construction of the slope walk).
        for fi in 0..self.flips.len() {
            let j = self.cand[self.flips[fi]].1;
            let delta = if self.at_upper[j] {
                self.lower[j] - self.upper[j]
            } else {
                self.upper[j] - self.lower[j]
            };
            self.at_upper[j] = !self.at_upper[j];
            self.shift_nonbasic(j, delta);
            *bound_flips += 1;
        }

        let (_, enter, _) = self.cand[chosen];
        // Maintained reduced costs: one dual step of size theta_d moves
        // every nonbasic reduced cost by -theta_d * alpha_j; the entering
        // column's becomes exactly zero and the leaving column's lands at
        // -theta_d (its alpha is exactly 1).
        let theta_d = self.d[enter] / self.alpha[enter];
        if theta_d != 0.0 {
            for idx in 0..self.alpha_touched.len() {
                let j = self.alpha_touched[idx];
                if self.basis_pos[j] >= 0 || j == enter {
                    continue;
                }
                self.d[j] -= theta_d * self.alpha[j];
            }
        }
        let leave_col = self.basis[r];

        self.compute_w(enter);
        // Dual Devex reference-weight update (Forrest-Goldfarb): the
        // entering row inherits gamma_r / w_r^2 (floored at 1), every
        // other touched row takes max(gamma_i, (w_i/w_r)^2 gamma_r).
        let piv = self.w[r];
        let piv2 = piv * piv;
        let gr = self.devex[r];
        for i in 0..m {
            if i == r {
                continue;
            }
            let wi = self.w[i];
            if wi != 0.0 {
                let cand = (wi * wi / piv2) * gr;
                if cand > self.devex[i] {
                    self.devex[i] = cand;
                    if cand > self.devex_max {
                        self.devex_max = cand;
                    }
                }
            }
        }
        self.devex[r] = (gr / piv2).max(1.0);
        if self.devex[r] > self.devex_max {
            self.devex_max = self.devex[r];
        }
        if self.devex_max > DEVEX_RESET {
            self.reset_devex();
        }

        self.pivot_core(r, enter, sigma);
        self.d[enter] = 0.0;
        self.d[leave_col] = -theta_d;
        Step::Pivoted
    }

    /// Fills the scratch entering column `w = B^-1 A_enter`.
    fn compute_w(&mut self, enter: usize) {
        let m = self.m;
        self.w.clear();
        self.w.resize(m, 0.0);
        let binv = &self.binv;
        let w = &mut self.w;
        let mut apply = |i: usize, a: f64| {
            for k in 0..m {
                let bv = binv[k * m + i];
                if bv != 0.0 {
                    w[k] += bv * a;
                }
            }
        };
        if enter < self.n {
            for &(i, a) in &self.cols[enter] {
                apply(i, a);
            }
        } else {
            apply(enter - self.n, -1.0);
        }
    }

    /// Performs the basis exchange at row `r` with the entering column,
    /// assuming [`compute_w`](Self::compute_w) has filled the scratch
    /// column.
    fn pivot_core(&mut self, r: usize, enter: usize, sigma: f64) {
        let m = self.m;
        let piv = self.w[r];
        debug_assert!(piv.abs() > 1e-12, "pivot too small: {piv}");
        // Incremental primal update: the entering variable moves from its
        // bound value by delta so that the leaving variable lands exactly
        // on its violated bound.
        let leave0 = self.basis[r];
        let target = if sigma > 0.0 { self.upper[leave0] } else { self.lower[leave0] };
        let delta = (self.xb[r] - target) / piv;
        let enter_value = self.nonbasic_value(enter) + delta;
        for i in 0..m {
            if i != r && self.w[i] != 0.0 {
                self.xb[i] -= delta * self.w[i];
            }
        }
        self.xb[r] = enter_value;
        // Incremental dual update: y += theta * rho with theta = d_e /
        // alpha_e, so the entering column's reduced cost becomes zero.
        // (rho is row r of the *pre-pivot* inverse; alpha_e = rho.A_e =
        // w[r].)
        let d_enter = self.reduced_cost(enter, &self.y);
        let theta = d_enter / piv;
        if theta != 0.0 {
            for k in 0..m {
                self.y[k] += theta * self.binv[r * m + k];
            }
        }
        // Update B^-1 (product form).
        for k in 0..m {
            self.binv[r * m + k] /= piv;
        }
        for i in 0..m {
            if i == r || self.w[i] == 0.0 {
                continue;
            }
            let f = self.w[i];
            for k in 0..m {
                self.binv[i * m + k] -= f * self.binv[r * m + k];
            }
        }
        // Status bookkeeping.
        let leave = self.basis[r];
        self.basis[r] = enter;
        self.basis_pos[enter] = r as i32;
        self.basis_pos[leave] = -1;
        self.at_upper[leave] = sigma > 0.0;
        self.pivots_since_refactor += 1;
    }

    fn full_x(&self, xb: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for j in 0..self.n {
            let p = self.basis_pos[j];
            x[j] = if p >= 0 { xb[p as usize] } else { self.nonbasic_value(j) };
        }
        x
    }

    fn finish_optimal(&mut self, iterations: u64, bound_flips: u64) -> LpSolution {
        let x = self.full_x(&self.xb);
        let objective: f64 = x.iter().zip(&self.costs).map(|(v, c)| v * c).sum();
        let duals = self.y.clone();
        let mut row_activity = vec![0.0; self.m];
        for (j, xv) in x.iter().enumerate() {
            if xv.abs() <= ZERO_TOL {
                continue;
            }
            for &(i, a) in &self.cols[j] {
                row_activity[i] += a * xv;
            }
        }
        let tight_rows: Vec<usize> = (0..self.m)
            .filter(|&i| {
                let scale = self.rhs[i].abs().max(1.0);
                (row_activity[i] - self.rhs[i]).abs() <= TIGHT_TOL * scale
            })
            .collect();
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            x,
            duals,
            row_activity,
            tight_rows,
            farkas_rows: Vec::new(),
            iterations,
            bound_flips,
        }
    }

    fn emit_infeasible(
        &self,
        farkas_rows: Vec<usize>,
        iterations: u64,
        bound_flips: u64,
    ) -> LpSolution {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::INFINITY,
            x: vec![0.0; self.n],
            duals: vec![0.0; self.m],
            row_activity: vec![0.0; self.m],
            tight_rows: Vec::new(),
            farkas_rows,
            iterations,
            bound_flips,
        }
    }

    fn emit(
        &self,
        status: LpStatus,
        farkas_rows: Vec<usize>,
        iterations: u64,
        bound_flips: u64,
    ) -> LpSolution {
        LpSolution {
            status,
            objective: f64::NAN,
            x: vec![0.0; self.n],
            duals: vec![0.0; self.m],
            row_activity: vec![0.0; self.m],
            tight_rows: Vec::new(),
            farkas_rows,
            iterations,
            bound_flips,
        }
    }
}

enum ColumnIter<'a> {
    Structural(std::slice::Iter<'a, (usize, f64)>),
    Logical(Option<usize>),
}

impl Iterator for ColumnIter<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            ColumnIter::Structural(it) => it.next().copied(),
            ColumnIter::Logical(slot) => slot.take().map(|i| (i, -1.0)),
        }
    }
}
