// Kernel arithmetic is written with explicit row/column indices;
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
//! * the basis is kept in *kernel form*. Let `S` be the basic structural
//!   columns and `R` the rows whose logicals are nonbasic, so
//!   `|S| = |R| = k`. With `R` and `S` ordered first, the basis and its
//!   inverse are `B = [[K, 0], [C, -I]]` and
//!   `B^-1 = [[K^-1, 0], [C K^-1, -I]]`, where `K = A[R, S]` is the
//!   structural kernel and `C = A[!R, S]` is read straight off the sparse
//!   rows. Only the dense `k x k` inverse `K^-1` is stored. Relaxation
//!   bases are mostly logical (at the LP optima of the synthesis
//!   relaxations `k` is 38–61 of `m` = 115–181 rows), so FTRAN, BTRAN,
//!   the dual update and the bound-flip shifts cost `O(k^2 + nnz)`
//!   instead of `O(m^2)`, and memory follows `k^2`, not `m^2`;
//! * each basis change updates `K^-1` in `O(k^2)`, dividing by the
//!   simplex pivot: a logical leaving for a structural borders `K` with a
//!   row and a column, a structural leaving for a logical deletes one, a
//!   structural replacing a structural replaces a column of `K`, and a
//!   logical replacing a logical replaces a row. Every
//!   [`REFACTOR_INTERVAL`] pivots `K` alone is re-inverted by
//!   Gauss–Jordan with partial pivoting;
//! * pricing: the pivot row is priced in one pass over the nonzeros of
//!   the rows in its support (at most `k + 1` rows), reduced costs are
//!   maintained incrementally, the leaving row is chosen by dual Devex
//!   reference weights, and the ratio test is bound-flipping;
//! * primal values and duals are maintained incrementally across pivots
//!   and bound changes (the branch-and-bound hot path makes thousands of
//!   one-pivot re-solves), and recomputed from scratch at every
//!   refactorization to bound numerical drift;
//! * a warm solve allocates nothing once its scratch buffers have grown:
//!   [`DualSimplex::reoptimize`] leaves the result in reused buffers read
//!   by reference, and [`DualSimplex::solve`] is the allocating wrapper.

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
/// deadline overshoot bounded by a few dozen pivots, rare enough that
/// `Instant::now` stays off the per-pivot path.
const CANCEL_CHECK_INTERVAL: u64 = 64;
/// Devex reference weights above this trigger a reference-framework
/// reset (all weights back to 1): the weights are a heuristic norm
/// estimate and lose meaning once they explode.
const DEVEX_RESET: f64 = 1e7;
/// Kernel position of a row whose logical is basic (the row is not in
/// `R`).
const NONE: usize = usize::MAX;

/// One step of the pivot loop.
enum Step {
    Optimal,
    Infeasible,
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
///
/// // The allocation-free form leaves the result in the solver.
/// s.set_var_bounds(0, 0.0, 0.0);
/// assert_eq!(s.reoptimize(), LpStatus::Infeasible);
/// assert_eq!(s.farkas_rows(), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct DualSimplex {
    n: usize,
    m: usize,
    /// Sparse structural columns: `(row, coeff)` pairs.
    cols: Vec<Vec<(usize, f64)>>,
    /// Sparse rows (structural part): `(col, coeff)` pairs. The pivot row
    /// is priced in one pass over these, and the rows outside `R` are the
    /// `C` block of the kernel form.
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
    /// Kernel columns `S`: the basic structural columns.
    kcol: Vec<usize>,
    /// Kernel column of each basic structural (`kcol[kpos[j]] == j`);
    /// stale for nonbasic columns.
    kpos: Vec<usize>,
    /// Kernel rows `R`: the rows whose logicals are nonbasic.
    krow: Vec<usize>,
    /// Kernel row of each row, or [`NONE`] when its logical is basic.
    rpos: Vec<usize>,
    /// `K^-1`, transposed and row-major with `stride`:
    /// `kinv[q * stride + p] = (K^-1)[p][q]` for kernel row `q` and
    /// kernel column `p`, so FTRAN accumulates contiguous rows.
    kinv: Vec<f64>,
    /// Row stride of `kinv`: its capacity in kernel rows and columns.
    stride: usize,
    /// Duals `y = c_B B^-1`, maintained incrementally across pivots and
    /// recomputed at refactorization (zero on rows outside `R`).
    y: Vec<f64>,
    /// Basic primal values `x_B = B^-1 (b - N x_N)`, maintained
    /// incrementally across pivots and nonbasic value changes, recomputed
    /// at refactorization.
    xb: Vec<f64>,
    /// Reduced costs over all `n + m` columns, maintained incrementally
    /// (zero on basic columns) and rebuilt at refactorization.
    d: Vec<f64>,
    /// Dual Devex reference weights, one per basis row.
    devex: Vec<f64>,
    /// Running maximum of `devex`, to trigger reference resets without a
    /// scan.
    devex_max: f64,
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
    /// Scratch: entering column `w = B^-1 A_enter` by basis position.
    w: Vec<f64>,
    /// Scratch: kernel part of the last FTRAN, `z = K^-1 A[R, j]`, by
    /// kernel column.
    z: Vec<f64>,
    /// Scratch: kernel part of the pivot row `rho = e_r B^-1`, by kernel
    /// row (its entries on `R`). Off `R`, `rho` is zero, except `-1` at
    /// row `i` when the logical of row `i` sits at position `r`.
    rho: Vec<f64>,
    /// Scratch: `(kernel column, coeff)` of one row's basic structurals.
    crow: Vec<(usize, f64)>,
    /// Scratch: `b - N x_N` while recomputing the basic values.
    t: Vec<f64>,
    /// Scratch: the kernel matrix during refactorization.
    kmat: Vec<f64>,
    /// Result of the last solve (see [`DualSimplex::reoptimize`]).
    objective: f64,
    x: Vec<f64>,
    tight: Vec<usize>,
    farkas: Vec<usize>,
    iterations: u64,
    bound_flips: u64,
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
        // With y = 0 the reduced cost of a structural column is its cost;
        // logicals (cost zero) are basic with reduced cost zero.
        let mut d = vec![0.0; n + m];
        d[..n].copy_from_slice(&costs);
        // The all-logical basis is -I: the kernel is empty.
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
            kcol: Vec::new(),
            kpos: vec![NONE; n],
            krow: Vec::new(),
            rpos: vec![NONE; m],
            kinv: Vec::new(),
            stride: 0,
            y: vec![0.0; m],
            xb: vec![0.0; m],
            d,
            devex: vec![1.0; m],
            devex_max: 1.0,
            alpha: vec![0.0; n + m],
            alpha_mark: vec![0; n + m],
            alpha_stamp: 0,
            alpha_touched: Vec::new(),
            cand: Vec::new(),
            flips: Vec::new(),
            w: vec![0.0; m],
            z: Vec::new(),
            rho: Vec::new(),
            crow: Vec::new(),
            t: Vec::with_capacity(m),
            kmat: Vec::new(),
            objective: f64::NAN,
            x: vec![0.0; n],
            tight: Vec::new(),
            farkas: Vec::new(),
            iterations: 0,
            bound_flips: 0,
            pivots_since_refactor: 0,
            max_iterations: 20_000,
            dirty: Vec::new(),
            deadline: None,
            stop: None,
            total_iterations: 0,
        };
        simplex.recompute_basic_values();
        simplex
    }

    /// Sets the per-solve iteration budget.
    pub fn set_max_iterations(&mut self, limit: u64) {
        self.max_iterations = limit;
    }

    /// Arms cooperative cancellation: [`solve`](Self::solve) returns
    /// [`LpStatus::Cancelled`] (basis warm-startable, like an iteration
    /// limit) once the deadline passes or the stop latch is set, polled
    /// every `CANCEL_CHECK_INTERVAL` (64) pivots — so a deadline landing
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

    /// Basis position of the logical of row `i` (which must be basic).
    fn logical_pos(&self, i: usize) -> usize {
        self.basis_pos[self.n + i] as usize
    }

    /// Kernel FTRAN: fills `z = K^-1 A[R, j]` (the basic structurals'
    /// part of `B^-1 A_j`) in `O(k * nnz(A[R, j]))`.
    fn ftran_kernel(&mut self, j: usize) {
        let k = self.kcol.len();
        let s = self.stride;
        self.z.clear();
        self.z.resize(k, 0.0);
        let mut apply = |q: usize, a: f64| {
            for (zp, &kv) in self.z.iter_mut().zip(&self.kinv[q * s..q * s + k]) {
                *zp += a * kv;
            }
        };
        if j < self.n {
            for &(i, a) in &self.cols[j] {
                let q = self.rpos[i];
                if q != NONE {
                    apply(q, a);
                }
            }
        } else {
            let q = self.rpos[j - self.n];
            if q != NONE {
                apply(q, -1.0);
            }
        }
    }

    /// Visits `(basis position, value)` over the logical part of
    /// `B^-1 A_j = C z - A[!R, j]`, given `z` from
    /// [`ftran_kernel`](Self::ftran_kernel): the sparse columns of `S`
    /// (and of `j`) restricted to the rows outside `R`.
    fn ftran_logicals(&self, j: usize, mut visit: impl FnMut(usize, f64)) {
        for (i, a) in self.column(j) {
            if self.rpos[i] == NONE {
                visit(self.logical_pos(i), -a);
            }
        }
        for (p, &zp) in self.z.iter().enumerate() {
            if zp == 0.0 {
                continue;
            }
            for &(i, a) in &self.cols[self.kcol[p]] {
                if self.rpos[i] == NONE {
                    visit(self.logical_pos(i), a * zp);
                }
            }
        }
    }

    /// Applies a nonbasic value change of `delta` on column `j` to the
    /// maintained basic values: `x_B -= delta * B^-1 A_j`.
    fn shift_nonbasic(&mut self, j: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        self.ftran_kernel(j);
        for p in 0..self.kcol.len() {
            let r = self.basis_pos[self.kcol[p]] as usize;
            self.xb[r] -= delta * self.z[p];
        }
        let mut xb = std::mem::take(&mut self.xb);
        self.ftran_logicals(j, |r, v| xb[r] -= delta * v);
        self.xb = xb;
    }

    /// Fills the scratch entering column `w = B^-1 A_enter` (by basis
    /// position) and its kernel part `z`.
    fn compute_w(&mut self, enter: usize) {
        self.ftran_kernel(enter);
        self.w.fill(0.0);
        for p in 0..self.kcol.len() {
            self.w[self.basis_pos[self.kcol[p]] as usize] = self.z[p];
        }
        let mut w = std::mem::take(&mut self.w);
        self.ftran_logicals(enter, |r, v| w[r] += v);
        self.w = w;
    }

    /// BTRAN of basis position `r`: fills `rho` (the pivot row's entries
    /// on the kernel rows). A structural at kernel
    /// column `p` reads row `p` of `K^-1`; the logical of row `i` reads
    /// `C_i K^-1` over `R` and `-1` at `i`.
    fn btran(&mut self, r: usize) {
        let k = self.kcol.len();
        let s = self.stride;
        self.rho.clear();
        let j = self.basis[r];
        if j < self.n {
            let p = self.kpos[j];
            self.rho.extend((0..k).map(|q| self.kinv[q * s + p]));
        } else {
            let i = j - self.n;
            self.crow.clear();
            for &(jj, a) in &self.rows_sp[i] {
                if self.basis_pos[jj] >= 0 {
                    self.crow.push((self.kpos[jj], a));
                }
            }
            for q in 0..k {
                let row = &self.kinv[q * s..q * s + k];
                self.rho.push(self.crow.iter().map(|&(p, a)| a * row[p]).sum());
            }
        }
    }

    /// Recomputes `x_B = B^-1 (b - N x_N)` in place: `x_S = K^-1 t_R`
    /// and each basic logical `s_i = C_i x_S - t_i`.
    fn recompute_basic_values(&mut self) {
        let (n, m) = (self.n, self.m);
        self.t.clear();
        self.t.extend_from_slice(&self.rhs);
        for j in 0..n + m {
            if self.basis_pos[j] >= 0 {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v.abs() <= ZERO_TOL {
                continue;
            }
            if j < n {
                for &(i, a) in &self.cols[j] {
                    self.t[i] -= a * v;
                }
            } else {
                self.t[j - n] += v;
            }
        }
        let k = self.kcol.len();
        let s = self.stride;
        self.z.clear();
        self.z.resize(k, 0.0);
        for q in 0..k {
            let tq = self.t[self.krow[q]];
            if tq == 0.0 {
                continue;
            }
            for (zp, &kv) in self.z.iter_mut().zip(&self.kinv[q * s..q * s + k]) {
                *zp += tq * kv;
            }
        }
        for i in 0..m {
            if self.rpos[i] == NONE {
                let r = self.logical_pos(i);
                self.xb[r] = -self.t[i];
            }
        }
        for p in 0..k {
            let zp = self.z[p];
            let jp = self.kcol[p];
            self.xb[self.basis_pos[jp] as usize] = zp;
            for &(i, a) in &self.cols[jp] {
                if self.rpos[i] == NONE {
                    let r = self.logical_pos(i);
                    self.xb[r] += a * zp;
                }
            }
        }
    }

    /// Recomputes `y = c_B B^-1 = [c_S K^-1, 0]` from scratch
    /// (refactorization path).
    fn recompute_duals(&mut self) {
        let k = self.kcol.len();
        let s = self.stride;
        self.y.fill(0.0);
        for q in 0..k {
            let row = &self.kinv[q * s..q * s + k];
            self.y[self.krow[q]] = (0..k).map(|p| self.costs[self.kcol[p]] * row[p]).sum();
        }
    }

    fn reduced_cost(&self, j: usize) -> f64 {
        let c = if j < self.n { self.costs[j] } else { 0.0 };
        let mut d = c;
        for (i, a) in self.column(j) {
            d -= self.y[i] * a;
        }
        d
    }

    /// Rebuilds the maintained reduced-cost vector from the current
    /// duals (basic columns get exact zeros).
    fn rebuild_reduced_costs(&mut self) {
        for j in 0..self.n + self.m {
            self.d[j] = if self.basis_pos[j] >= 0 { 0.0 } else { self.reduced_cost(j) };
        }
    }

    /// Resets the Devex reference framework (all weights to 1).
    fn reset_devex(&mut self) {
        self.devex.fill(1.0);
        self.devex_max = 1.0;
    }

    /// Makes room for `k` kernel rows and columns in `kinv`, at least
    /// doubling the stride so that growth is amortized.
    fn reserve_kernel(&mut self, k: usize) {
        if k <= self.stride {
            return;
        }
        let old = self.stride;
        let new = (2 * old).max(16).min(self.n.min(self.m)).max(k);
        let mut kinv = vec![0.0; new * new];
        let used = self.kcol.len();
        for q in 0..used {
            kinv[q * new..q * new + used].copy_from_slice(&self.kinv[q * old..q * old + used]);
        }
        self.kinv = kinv;
        self.stride = new;
    }

    /// Re-inverts the kernel `K` from scratch (Gauss–Jordan with partial
    /// pivoting on `K^T`, whose row-major inverse is `kinv`'s layout).
    /// If `K` is numerically singular the solver resets to the
    /// all-logical basis.
    fn refactorize(&mut self) {
        let k = self.kcol.len();
        let s = self.stride;
        // G = K^T: G[p][q] = a(krow[q], kcol[p]).
        self.kmat.clear();
        self.kmat.resize(k * k, 0.0);
        for p in 0..k {
            for &(i, a) in &self.cols[self.kcol[p]] {
                let q = self.rpos[i];
                if q != NONE {
                    self.kmat[p * k + q] = a;
                }
            }
        }
        if !gauss_jordan(&mut self.kmat, k, &mut self.kinv, s) {
            self.reset_basis();
            return;
        }
        self.pivots_since_refactor = 0;
        self.recompute_duals();
        self.recompute_basic_values();
        self.rebuild_reduced_costs();
    }

    /// Abandons the current basis and restarts from the all-logical one
    /// (empty kernel, dual-feasible nonbasic placement).
    fn reset_basis(&mut self) {
        let m = self.m;
        let n = self.n;
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.basis_pos.fill(-1);
        for (r, &j) in self.basis.iter().enumerate() {
            self.basis_pos[j] = r as i32;
        }
        for j in 0..n {
            self.at_upper[j] = self.costs[j] < 0.0 && self.upper[j].is_finite();
        }
        self.at_upper[n..].fill(false);
        self.kcol.clear();
        self.krow.clear();
        self.rpos.fill(NONE);
        self.y.fill(0.0);
        self.pivots_since_refactor = 0;
        self.recompute_basic_values();
        self.rebuild_reduced_costs();
        self.reset_devex();
    }

    /// Runs the dual simplex to optimality, infeasibility or the
    /// iteration limit, returning an owned copy of the result. The
    /// per-node hot path calls [`reoptimize`](Self::reoptimize) instead,
    /// which reports through reused buffers and allocates nothing.
    ///
    /// `row_activity` is multiplied out as `A x` from the columns rather
    /// than read off the logicals, so that it checks the basis instead of
    /// restating it.
    pub fn solve(&mut self) -> LpSolution {
        let status = self.reoptimize();
        let optimal = status == LpStatus::Optimal;
        let objective = match status {
            LpStatus::Optimal => self.objective,
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::IterationLimit | LpStatus::Cancelled => f64::NAN,
        };
        let or_zeros = |v: &[f64]| if optimal { v.to_vec() } else { vec![0.0; v.len()] };
        let mut row_activity = vec![0.0; self.m];
        if optimal {
            for (j, &v) in self.x.iter().enumerate() {
                if v.abs() <= ZERO_TOL {
                    continue;
                }
                for &(i, a) in &self.cols[j] {
                    row_activity[i] += a * v;
                }
            }
        }
        LpSolution {
            status,
            objective,
            x: or_zeros(&self.x),
            duals: or_zeros(&self.y),
            row_activity,
            tight_rows: if optimal { self.tight.clone() } else { Vec::new() },
            farkas_rows: if status == LpStatus::Infeasible {
                self.farkas.clone()
            } else {
                Vec::new()
            },
            iterations: self.iterations,
            bound_flips: self.bound_flips,
        }
    }

    /// Runs the dual simplex like [`solve`](Self::solve), leaving the
    /// result in the solver: after [`LpStatus::Optimal`] read
    /// [`objective`](Self::objective), [`x`](Self::x),
    /// [`duals`](Self::duals) and [`tight_rows`](Self::tight_rows); after
    /// [`LpStatus::Infeasible`] read [`farkas_rows`](Self::farkas_rows).
    /// Allocates nothing once the scratch buffers have grown.
    pub fn reoptimize(&mut self) -> LpStatus {
        // Restore dual feasibility of nonbasic placements for variables
        // whose bounds changed since the last solve. While a variable is
        // fixed (l == u) it is excluded from the ratio test, so its
        // reduced cost may drift to the "wrong" side of its stored bound
        // status; after unfixing, that stale placement would let the
        // solve terminate at a dual-infeasible (suboptimal) point. Moving
        // a nonbasic variable to the other bound never changes the duals,
        // so this repair is free — and only bound-changed variables can
        // be stale, so only those are inspected.
        let mut dirty = std::mem::take(&mut self.dirty);
        for &j in &dirty {
            if self.basis_pos[j] >= 0 || self.lower[j] == self.upper[j] {
                continue;
            }
            let d = self.reduced_cost(j);
            let v_old = self.nonbasic_value(j);
            if d < -DUAL_TOL {
                self.at_upper[j] = self.upper[j].is_finite();
            } else if d > DUAL_TOL {
                self.at_upper[j] = false;
            }
            let v_new = self.nonbasic_value(j);
            self.shift_nonbasic(j, v_new - v_old);
        }
        dirty.clear();
        self.dirty = dirty;
        self.iterations = 0;
        self.bound_flips = 0;
        loop {
            if self.iterations >= self.max_iterations {
                return LpStatus::IterationLimit;
            }
            if self.iterations.is_multiple_of(CANCEL_CHECK_INTERVAL)
                && (self.deadline.is_some() || self.stop.is_some())
                && self.cancelled()
            {
                return LpStatus::Cancelled;
            }
            if self.pivots_since_refactor >= REFACTOR_INTERVAL {
                self.refactorize();
            }
            match self.step() {
                Step::Optimal => {
                    self.finish_optimal();
                    return LpStatus::Optimal;
                }
                Step::Infeasible => return LpStatus::Infeasible,
                Step::Pivoted => {
                    self.iterations += 1;
                    self.total_iterations += 1;
                }
            }
        }
    }

    /// Objective value of the last [`LpStatus::Optimal`] solve.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Primal values per variable at the last [`LpStatus::Optimal`]
    /// solve.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Dual value per row at the last [`LpStatus::Optimal`] solve.
    pub fn duals(&self) -> &[f64] {
        &self.y
    }

    /// Rows with zero slack at the last [`LpStatus::Optimal`] solve, in
    /// increasing order (see [`LpSolution::tight_rows`]).
    pub fn tight_rows(&self) -> &[usize] {
        &self.tight
    }

    /// Reduced costs `c_j - y.A_j` of the structural columns as the
    /// pivots maintain them (zero on basic columns), at the last
    /// [`LpStatus::Optimal`] solve. Exact up to the drift since the last
    /// refactorization; [`DualSimplex::lagrangian_bound`] recomputes
    /// them.
    pub fn reduced_costs(&self) -> &[f64] {
        &self.d[..self.n]
    }

    /// The Lagrangian bound of the duals above `threshold`: with `y'_i =
    /// y_i` where `y_i > threshold` and `0` elsewhere, writes `d = c -
    /// A^T y'` into `d` (one entry per structural column) and returns
    /// `y'.b + sum_j min_{x_j in [l_j, u_j]} d_j x_j`. Since `y' >= 0`,
    /// weak duality makes this a lower bound on the objective of every
    /// point within the current bounds that satisfies the rows; at an
    /// optimal basis it equals the optimum up to the dropped duals.
    /// Costs `O(n)` plus the nonzeros of the rows `y'` uses; allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `d` does not hold one entry per structural column.
    pub fn lagrangian_bound(&self, threshold: f64, d: &mut [f64]) -> f64 {
        d.copy_from_slice(&self.costs);
        let mut bound = 0.0;
        for (i, &y) in self.y.iter().enumerate() {
            if y > threshold {
                bound += y * self.rhs[i];
                for &(j, a) in &self.rows_sp[i] {
                    d[j] -= y * a;
                }
            }
        }
        for (j, &dj) in d.iter().enumerate() {
            if dj > 0.0 {
                bound += dj * self.lower[j];
            } else if dj < 0.0 {
                bound += dj * self.upper[j];
            }
        }
        bound
    }

    /// Rows of the Farkas certificate of the last
    /// [`LpStatus::Infeasible`] solve, in increasing order (see
    /// [`LpSolution::farkas_rows`]).
    pub fn farkas_rows(&self) -> &[usize] {
        &self.farkas
    }

    /// One pivot: Devex-weighted leaving row, one row-wise pass for the
    /// pivot-row coefficients, maintained reduced costs, bound-flipping
    /// ratio test.
    fn step(&mut self) -> Step {
        let m = self.m;
        let n = self.n;
        let bland = self.iterations >= BLAND_THRESHOLD;
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

        // Pivot-row coefficients in one pass over the nonzeros of the
        // rows in rho's support: alpha_j = sum_i rho_i a_ij, plus the
        // logical diagonal alpha_{n+i} = -rho_i.
        self.btran(r);
        self.alpha_stamp += 1;
        let stamp = self.alpha_stamp;
        self.alpha_touched.clear();
        let logical = self.basis[r].checked_sub(n).map(|i| (i, -1.0));
        let kernel = self.rho.iter().enumerate().map(|(q, &rv)| (self.krow[q], rv));
        for (i, rv) in kernel.chain(logical) {
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
            // Infeasible: rho is (up to sign) a Farkas certificate.
            self.farkas.clear();
            for q in 0..self.rho.len() {
                if self.rho[q].abs() > 1e-7 {
                    self.farkas.push(self.krow[q]);
                }
            }
            self.farkas.extend(self.basis[r].checked_sub(n));
            self.farkas.sort_unstable();
            return Step::Infeasible;
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
            self.bound_flips += 1;
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

    /// Performs the basis exchange at row `r` with the entering column,
    /// assuming [`btran`](Self::btran) of `r` and
    /// [`compute_w`](Self::compute_w) of `enter` have filled the scratch
    /// vectors.
    fn pivot_core(&mut self, r: usize, enter: usize, sigma: f64) {
        let (n, m) = (self.n, self.m);
        let piv = self.w[r];
        debug_assert!(piv.abs() > 1e-12, "pivot too small: {piv}");
        // Incremental primal update: the entering variable moves from its
        // bound value by delta so that the leaving variable lands exactly
        // on its violated bound.
        let leave = self.basis[r];
        let target = if sigma > 0.0 { self.upper[leave] } else { self.lower[leave] };
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
        let theta = self.reduced_cost(enter) / piv;
        if theta != 0.0 {
            for q in 0..self.rho.len() {
                self.y[self.krow[q]] += theta * self.rho[q];
            }
            if let Some(i) = leave.checked_sub(n) {
                self.y[i] -= theta;
            }
        }
        // Update K^-1 for the exchange.
        match (leave < n, enter < n) {
            (false, true) => self.kernel_border(leave - n, enter, piv),
            (true, false) => self.kernel_delete(self.kpos[leave], enter - n, piv),
            (true, true) => self.kernel_replace_column(self.kpos[leave], enter, piv),
            (false, false) => self.kernel_replace_row(leave - n, enter - n, piv),
        }
        if enter >= n {
            // The entering logical's row leaves R: its dual is exactly 0.
            self.y[enter - n] = 0.0;
        }
        // Status bookkeeping.
        self.basis[r] = enter;
        self.basis_pos[enter] = r as i32;
        self.basis_pos[leave] = -1;
        self.at_upper[leave] = sigma > 0.0;
        self.pivots_since_refactor += 1;
    }

    /// The logical of row `i` leaves and structural `e` enters: `K` gains
    /// row `i` and column `e`. With `z = K^-1 A[R, e]`, `u = C_i K^-1`
    /// (the pivot row on `R`) and the pivot `piv = C_i z - a_ie`, the
    /// bordered inverse is `[[K^-1 - z u / piv, z / piv], [u / piv, -1 /
    /// piv]]` in `(K^-1)[p][q]` terms.
    fn kernel_border(&mut self, i: usize, e: usize, piv: f64) {
        let k = self.kcol.len();
        self.reserve_kernel(k + 1);
        let s = self.stride;
        for q in 0..k {
            let f = self.rho[q] / piv;
            let row = &mut self.kinv[q * s..q * s + k + 1];
            for (kv, &zp) in row.iter_mut().zip(&self.z) {
                *kv -= zp * f;
            }
            row[k] = f;
        }
        let row = &mut self.kinv[k * s..k * s + k + 1];
        for (kv, &zp) in row.iter_mut().zip(&self.z) {
            *kv = zp / piv;
        }
        row[k] = -1.0 / piv;
        self.kcol.push(e);
        self.kpos[e] = k;
        self.krow.push(i);
        self.rpos[i] = k;
    }

    /// The structural at kernel column `p` leaves and the logical of row
    /// `i` enters: `K` loses column `p` and row `i`. The inverse of the
    /// remaining block is the Schur complement of the pivot entry
    /// `(K^-1)[p][q] = -piv` in `K^-1`; the last kernel row and column
    /// then move into the freed slots.
    fn kernel_delete(&mut self, p: usize, i: usize, piv: f64) {
        let k = self.kcol.len();
        let s = self.stride;
        let qi = self.rpos[i];
        for q in 0..k {
            if q == qi {
                continue;
            }
            let f = -self.kinv[q * s + p] / piv;
            if f != 0.0 {
                sub_row(&mut self.kinv, s, q, qi, 0..k, f);
            }
        }
        let last = k - 1;
        if qi != last {
            self.kinv.copy_within(last * s..last * s + k, qi * s);
            self.krow[qi] = self.krow[last];
            self.rpos[self.krow[qi]] = qi;
        }
        self.krow.pop();
        self.rpos[i] = NONE;
        if p != last {
            for q in 0..last {
                self.kinv[q * s + p] = self.kinv[q * s + last];
            }
            self.kcol[p] = self.kcol[last];
            self.kpos[self.kcol[p]] = p;
        }
        self.kcol.pop();
    }

    /// The structural at kernel column `p` leaves and structural `e`
    /// enters: column `p` of `K` becomes `A[R, e]`. With
    /// `z = K^-1 A[R, e]` and `piv = z[p]`, row `p` of `K^-1` divides by
    /// the pivot and every other row `p'` subtracts `z[p']` times it (the
    /// product form).
    fn kernel_replace_column(&mut self, p: usize, e: usize, piv: f64) {
        let k = self.kcol.len();
        let s = self.stride;
        for q in 0..k {
            let row = &mut self.kinv[q * s..q * s + k];
            let f = row[p] / piv;
            if f != 0.0 {
                for (kv, &zp) in row.iter_mut().zip(&self.z) {
                    *kv -= zp * f;
                }
            }
            row[p] = f;
        }
        self.kcol[p] = e;
        self.kpos[e] = p;
    }

    /// The logical of row `i` leaves and the logical of row `i2` enters:
    /// row `i2` of `K` becomes `C_i`. With `u = C_i K^-1` and
    /// `piv = -u[q2]`, column `q2` of `K^-1` divides by `u[q2]` and every
    /// other column `q` subtracts `u[q]` times the result.
    fn kernel_replace_row(&mut self, i: usize, i2: usize, piv: f64) {
        let k = self.kcol.len();
        let s = self.stride;
        let q2 = self.rpos[i2];
        let scale = -1.0 / piv;
        for kv in &mut self.kinv[q2 * s..q2 * s + k] {
            *kv *= scale;
        }
        for q in 0..k {
            let f = self.rho[q];
            if q != q2 && f != 0.0 {
                sub_row(&mut self.kinv, s, q, q2, 0..k, f);
            }
        }
        self.krow[q2] = i;
        self.rpos[i] = q2;
        self.rpos[i2] = NONE;
    }

    /// The value of row `i`'s logical, `s_i = a_i.x - b_i`.
    fn slack(&self, i: usize) -> f64 {
        let j = self.n + i;
        let p = self.basis_pos[j];
        if p >= 0 {
            self.xb[p as usize]
        } else {
            self.nonbasic_value(j)
        }
    }

    /// Extracts the optimal point into the reused result buffers. Tight
    /// rows read their slack off the logicals instead of multiplying
    /// `A x` out.
    fn finish_optimal(&mut self) {
        let mut objective = 0.0;
        for j in 0..self.n {
            let p = self.basis_pos[j];
            let v = if p >= 0 { self.xb[p as usize] } else { self.nonbasic_value(j) };
            self.x[j] = v;
            objective += v * self.costs[j];
        }
        self.objective = objective;
        self.tight.clear();
        for i in 0..self.m {
            if self.slack(i).abs() <= TIGHT_TOL * self.rhs[i].abs().max(1.0) {
                self.tight.push(i);
            }
        }
    }
}

/// Writes the inverse of the row-major `k x k` matrix `g` into `inv`
/// (row stride `s`) by Gauss–Jordan with partial pivoting on `[g | I]`,
/// destroying `g`. Returns `false` if a pivot falls below `1e-11`.
fn gauss_jordan(g: &mut [f64], k: usize, inv: &mut [f64], s: usize) -> bool {
    for q in 0..k {
        inv[q * s..q * s + k].fill(0.0);
        inv[q * s + q] = 1.0;
    }
    for col in 0..k {
        let mut piv = col;
        let mut best = g[col * k + col].abs();
        for r in col + 1..k {
            let v = g[r * k + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-11 {
            return false;
        }
        if piv != col {
            for c in 0..k {
                g.swap(col * k + c, piv * k + c);
                inv.swap(col * s + c, piv * s + c);
            }
        }
        let p = g[col * k + col];
        for c in col..k {
            g[col * k + c] /= p;
        }
        for c in 0..k {
            inv[col * s + c] /= p;
        }
        for r in 0..k {
            let f = g[r * k + col];
            if r == col || f == 0.0 {
                continue;
            }
            sub_row(g, k, r, col, col..k, f);
            sub_row(inv, s, r, col, 0..k, f);
        }
    }
    true
}

/// `buf[dst][cols] -= f * buf[src][cols]` over two distinct rows of a
/// row-major matrix with row stride `stride`.
fn sub_row(
    buf: &mut [f64],
    stride: usize,
    dst: usize,
    src: usize,
    cols: std::ops::Range<usize>,
    f: f64,
) {
    let (d, s) = if dst < src {
        let (lo, hi) = buf.split_at_mut(src * stride);
        (&mut lo[dst * stride..], &hi[..])
    } else {
        let (lo, hi) = buf.split_at_mut(dst * stride);
        (&mut hi[..], &lo[src * stride..])
    };
    for (x, &y) in d[cols.clone()].iter_mut().zip(&s[cols]) {
        *x -= f * y;
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
