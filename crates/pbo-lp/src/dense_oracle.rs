// Dense tableau arithmetic is written with explicit row/column indices;
// iterator forms would hide the pivot structure.
#![allow(clippy::needless_range_loop)]

//! The dense-inverse dual simplex the kernel-form solver replaced, kept
//! for tests only as the oracle that [`DualSimplex`](crate::DualSimplex)
//! is differential-tested against.
//!
//! It runs the same pricing (dual Devex leaving row, one row-wise pass
//! for the pivot row, bound-flipping ratio test) over a dense row-major
//! `m x m` basis inverse with product-form updates, refactorized by
//! Gauss–Jordan over the whole basis matrix. Its rounding differs from
//! the kernel form's, so on degenerate LPs the two may stop at different
//! optimal vertices; statuses and optimal values may not differ.

use crate::problem::LpProblem;
use crate::solution::{LpSolution, LpStatus};

const FEAS_TOL: f64 = 1e-7;
const DUAL_TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-8;
const ZERO_TOL: f64 = 1e-9;
const REFACTOR_INTERVAL: u64 = 80;
const BLAND_THRESHOLD: u64 = 2_000;
const DEVEX_RESET: f64 = 1e7;

enum Step {
    Optimal,
    Infeasible(Vec<usize>),
    Pivoted,
}

/// Dense-inverse bounded-variable dual simplex (test oracle).
#[derive(Clone, Debug)]
pub(crate) struct DenseSimplex {
    n: usize,
    m: usize,
    cols: Vec<Vec<(usize, f64)>>,
    rows_sp: Vec<Vec<(usize, f64)>>,
    costs: Vec<f64>,
    rhs: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Vec<usize>,
    basis_pos: Vec<i32>,
    at_upper: Vec<bool>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    y: Vec<f64>,
    xb: Vec<f64>,
    d: Vec<f64>,
    devex: Vec<f64>,
    devex_max: f64,
    alpha: Vec<f64>,
    alpha_mark: Vec<u64>,
    alpha_stamp: u64,
    alpha_touched: Vec<usize>,
    cand: Vec<(f64, usize, f64)>,
    flips: Vec<usize>,
    w: Vec<f64>,
    pivots_since_refactor: u64,
    dirty: Vec<usize>,
}

impl DenseSimplex {
    pub(crate) fn new(problem: &LpProblem) -> DenseSimplex {
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
            at_upper[j] = costs[j] < 0.0 && upper[j].is_finite();
        }
        let basis: Vec<usize> = (n..n + m).collect();
        let mut basis_pos = vec![-1i32; n + m];
        for (r, &j) in basis.iter().enumerate() {
            basis_pos[j] = r as i32;
        }
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = -1.0;
        }
        let mut d = vec![0.0; n + m];
        d[..n].copy_from_slice(&costs);
        let mut simplex = DenseSimplex {
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
            alpha: vec![0.0; n + m],
            alpha_mark: vec![0; n + m],
            alpha_stamp: 0,
            alpha_touched: Vec::new(),
            cand: Vec::new(),
            flips: Vec::new(),
            w: vec![0.0; m],
            pivots_since_refactor: 0,
            dirty: Vec::new(),
        };
        simplex.xb = simplex.basic_values();
        simplex
    }

    pub(crate) fn set_var_bounds(&mut self, j: usize, lower: f64, upper: f64) {
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

    /// Appends a row with its logical basic: `B' = [[B, 0], [C, -I]]`,
    /// `B'^-1 = [[B^-1, 0], [C B^-1, -I]]`.
    pub(crate) fn append_row_ge(&mut self, terms: &[(usize, f64)], rhs: f64) {
        let n = self.n;
        let m_old = self.m;
        let m_new = m_old + 1;
        let mut activity = 0.0;
        for &(j, a) in terms {
            let p = self.basis_pos[j];
            let v = if p >= 0 { self.xb[p as usize] } else { self.nonbasic_value(j) };
            activity += a * v;
        }
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
                    binv[last * m_new + k] += a * self.binv[p * m_old + k];
                }
            }
        }
        binv[last * m_new + last] = -1.0;
        self.binv = binv;
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
        self.y.push(0.0);
        self.d.push(0.0);
        self.xb.push(activity - rhs);
        self.devex.push(1.0);
        self.alpha.push(0.0);
        self.alpha_mark.push(0);
        self.m = m_new;
    }

    fn shift_nonbasic(&mut self, j: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let m = self.m;
        let column: Vec<(usize, f64)> = self.column(j).collect();
        for (i, a) in column {
            for k in 0..m {
                self.xb[k] -= delta * a * self.binv[k * m + i];
            }
        }
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.upper[j]
        } else {
            self.lower[j]
        }
    }

    fn column(&self, j: usize) -> Box<dyn Iterator<Item = (usize, f64)> + '_> {
        if j < self.n {
            Box::new(self.cols[j].iter().copied())
        } else {
            Box::new(std::iter::once((j - self.n, -1.0)))
        }
    }

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
        (0..m).map(|r| (0..m).map(|k| self.binv[r * m + k] * t[k]).sum()).collect()
    }

    fn recompute_duals(&mut self) {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (r, &j) in self.basis.iter().enumerate() {
            let c = if j < self.n { self.costs[j] } else { 0.0 };
            for k in 0..m {
                y[k] += c * self.binv[r * m + k];
            }
        }
        self.y = y;
    }

    fn reduced_cost(&self, j: usize) -> f64 {
        let c = if j < self.n { self.costs[j] } else { 0.0 };
        c - self.column(j).map(|(i, a)| self.y[i] * a).sum::<f64>()
    }

    fn rebuild_reduced_costs(&mut self) {
        for j in 0..self.n + self.m {
            self.d[j] = if self.basis_pos[j] >= 0 { 0.0 } else { self.reduced_cost(j) };
        }
    }

    fn reset_devex(&mut self) {
        self.devex.fill(1.0);
        self.devex_max = 1.0;
    }

    /// Gauss–Jordan with partial pivoting over the whole basis matrix.
    fn refactorize(&mut self) {
        let m = self.m;
        let mut a = vec![0.0; m * m];
        for (r, &j) in self.basis.iter().enumerate() {
            for (i, v) in self.column(j) {
                a[i * m + r] = v;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let piv = (col..m)
                .max_by(|&x, &y| a[x * m + col].abs().total_cmp(&a[y * m + col].abs()))
                .expect("nonempty");
            if a[piv * m + col].abs() < 1e-11 {
                self.reset_basis();
                return;
            }
            for k in 0..m {
                a.swap(col * m + k, piv * m + k);
                inv.swap(col * m + k, piv * m + k);
            }
            let p = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= p;
                inv[col * m + k] /= p;
            }
            for r in 0..m {
                let f = a[r * m + col];
                if r == col || f == 0.0 {
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
        self.rebuild_reduced_costs();
    }

    fn reset_basis(&mut self) {
        let (n, m) = (self.n, self.m);
        self.basis = (n..n + m).collect();
        self.basis_pos.fill(-1);
        for (r, &j) in self.basis.iter().enumerate() {
            self.basis_pos[j] = r as i32;
        }
        for j in 0..n {
            self.at_upper[j] = self.costs[j] < 0.0 && self.upper[j].is_finite();
        }
        self.at_upper[n..].fill(false);
        self.binv = vec![0.0; m * m];
        for i in 0..m {
            self.binv[i * m + i] = -1.0;
        }
        self.y = vec![0.0; m];
        self.pivots_since_refactor = 0;
        self.xb = self.basic_values();
        self.rebuild_reduced_costs();
        self.reset_devex();
    }

    /// Runs the dual simplex to optimality or infeasibility (the oracle
    /// has no iteration limit or cancellation; it panics if the Bland
    /// regime ever fails to converge).
    pub(crate) fn solve(&mut self) -> LpSolution {
        for j in std::mem::take(&mut self.dirty) {
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
        let mut iterations = 0u64;
        loop {
            if self.pivots_since_refactor >= REFACTOR_INTERVAL {
                self.refactorize();
            }
            match self.step(iterations) {
                Step::Optimal => return self.finish_optimal(iterations),
                Step::Infeasible(farkas_rows) => {
                    return LpSolution {
                        status: LpStatus::Infeasible,
                        objective: f64::INFINITY,
                        x: vec![0.0; self.n],
                        duals: vec![0.0; self.m],
                        row_activity: vec![0.0; self.m],
                        tight_rows: Vec::new(),
                        farkas_rows,
                        iterations,
                        bound_flips: 0,
                    }
                }
                Step::Pivoted => {
                    iterations += 1;
                    assert!(iterations < 100_000, "dense oracle failed to converge");
                }
            }
        }
    }

    fn step(&mut self, iterations: u64) -> Step {
        let m = self.m;
        let n = self.n;
        let bland = iterations >= BLAND_THRESHOLD;
        let mut leave: Option<(usize, f64, f64, f64)> = None;
        for r in 0..m {
            let j = self.basis[r];
            let v = self.xb[r];
            let (viol, sigma) = if v < self.lower[j] - FEAS_TOL {
                (self.lower[j] - v, -1.0)
            } else if v > self.upper[j] + FEAS_TOL {
                (v - self.upper[j], 1.0)
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

        self.cand.clear();
        for &j in &self.alpha_touched {
            if self.basis_pos[j] >= 0 || (j < n && self.lower[j] == self.upper[j]) {
                continue;
            }
            let alpha_s = sigma * self.alpha[j];
            let eligible =
                if self.at_upper[j] { alpha_s < -PIVOT_TOL } else { alpha_s > PIVOT_TOL };
            if eligible {
                self.cand.push(((self.d[j] / alpha_s).max(0.0), j, alpha_s));
            }
        }
        if self.cand.is_empty() {
            let farkas = (0..m).filter(|&i| self.binv[r * m + i].abs() > 1e-7).collect();
            return Step::Infeasible(farkas);
        }

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
            self.cand.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then_with(|| b.2.abs().total_cmp(&a.2.abs()))
                    .then(a.1.cmp(&b.1))
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
        for fi in 0..self.flips.len() {
            let j = self.cand[self.flips[fi]].1;
            let delta = if self.at_upper[j] {
                self.lower[j] - self.upper[j]
            } else {
                self.upper[j] - self.lower[j]
            };
            self.at_upper[j] = !self.at_upper[j];
            self.shift_nonbasic(j, delta);
        }

        let (_, enter, _) = self.cand[chosen];
        let theta_d = self.d[enter] / self.alpha[enter];
        if theta_d != 0.0 {
            for &j in &self.alpha_touched {
                if self.basis_pos[j] < 0 && j != enter {
                    self.d[j] -= theta_d * self.alpha[j];
                }
            }
        }
        let leave_col = self.basis[r];
        self.compute_w(enter);
        let piv2 = self.w[r] * self.w[r];
        let gr = self.devex[r];
        for i in 0..m {
            if i != r && self.w[i] != 0.0 {
                let cand = (self.w[i] * self.w[i] / piv2) * gr;
                self.devex[i] = self.devex[i].max(cand);
                self.devex_max = self.devex_max.max(cand);
            }
        }
        self.devex[r] = (gr / piv2).max(1.0);
        self.devex_max = self.devex_max.max(self.devex[r]);
        if self.devex_max > DEVEX_RESET {
            self.reset_devex();
        }
        self.pivot_core(r, enter, sigma);
        self.d[enter] = 0.0;
        self.d[leave_col] = -theta_d;
        Step::Pivoted
    }

    fn compute_w(&mut self, enter: usize) {
        let m = self.m;
        self.w.clear();
        self.w.resize(m, 0.0);
        let column: Vec<(usize, f64)> = self.column(enter).collect();
        for (i, a) in column {
            for k in 0..m {
                self.w[k] += self.binv[k * m + i] * a;
            }
        }
    }

    fn pivot_core(&mut self, r: usize, enter: usize, sigma: f64) {
        let m = self.m;
        let piv = self.w[r];
        let leave = self.basis[r];
        let target = if sigma > 0.0 { self.upper[leave] } else { self.lower[leave] };
        let delta = (self.xb[r] - target) / piv;
        let enter_value = self.nonbasic_value(enter) + delta;
        for i in 0..m {
            if i != r {
                self.xb[i] -= delta * self.w[i];
            }
        }
        self.xb[r] = enter_value;
        let theta = self.reduced_cost(enter) / piv;
        for k in 0..m {
            self.y[k] += theta * self.binv[r * m + k];
        }
        for k in 0..m {
            self.binv[r * m + k] /= piv;
        }
        for i in 0..m {
            let f = self.w[i];
            if i == r || f == 0.0 {
                continue;
            }
            for k in 0..m {
                self.binv[i * m + k] -= f * self.binv[r * m + k];
            }
        }
        self.basis[r] = enter;
        self.basis_pos[enter] = r as i32;
        self.basis_pos[leave] = -1;
        self.at_upper[leave] = sigma > 0.0;
        self.pivots_since_refactor += 1;
    }

    fn finish_optimal(&mut self, iterations: u64) -> LpSolution {
        let x: Vec<f64> = (0..self.n)
            .map(|j| {
                let p = self.basis_pos[j];
                if p >= 0 {
                    self.xb[p as usize]
                } else {
                    self.nonbasic_value(j)
                }
            })
            .collect();
        let objective = x.iter().zip(&self.costs).map(|(v, c)| v * c).sum();
        let mut row_activity = vec![0.0; self.m];
        for (j, xv) in x.iter().enumerate() {
            for &(i, a) in &self.cols[j] {
                row_activity[i] += a * xv;
            }
        }
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            x,
            duals: self.y.clone(),
            row_activity,
            tight_rows: Vec::new(),
            farkas_rows: Vec::new(),
            iterations,
            bound_flips: 0,
        }
    }
}
