//! Lower bounding by Lagrangian relaxation (sec. 3.2 of the paper).
//!
//! The residual constraints `A x >= b` are dualized into the objective
//! with multipliers `mu >= 0`:
//!
//! ```text
//! L(mu) = min_{x in {0,1}^n}  c x + mu (b - A x)
//!       = mu b + sum_j min(0, alpha_j),     alpha_j = c_j - mu A_j
//! ```
//!
//! By the Lagrangian bounding principle, `L(mu)` is a lower bound on the
//! residual optimum for *any* `mu >= 0`; `ceil(L)` therefore prunes like
//! the LP bound. The multiplier vector is improved by projected
//! subgradient ascent with Held–Karp style step halving, and is
//! warm-started across search nodes (the paper observes LGR's weakness is
//! slow convergence — warm starting is what makes it usable at all).
//!
//! The bound-conflict explanation (sec. 4.3) is built from the
//! constraints with nonzero multipliers, refined by the `alpha_j` filter:
//! an assignment whose flip could only *increase* `L` is not responsible
//! for the bound and is excluded from `omega_pl`.
//!
//! The residual rows are assembled from the [`Subproblem`] view into flat
//! (CSR-style) scratch buffers owned by the procedure, so repeated bound
//! computations reuse their allocations. Variable→local-index lookup uses
//! an epoch-stamped dense map (one `u32` stamp per variable, bumped per
//! bound call) instead of a hash map, making row assembly allocation- and
//! hash-free after warm-up.

use pbo_core::Value;

use crate::subproblem::Subproblem;
use crate::{LbOutcome, LowerBound};

/// Maximum subgradient iterations per bound computation.
const MAX_ITERATIONS: usize = 60;
/// Initial step-length multiplier (Held–Karp `lambda`).
const INITIAL_LAMBDA: f64 = 2.0;
/// Halve `lambda` after this many non-improving iterations.
const HALVING_PATIENCE: usize = 4;
/// Stop when `lambda` falls below this value.
const MIN_LAMBDA: f64 = 1e-3;
/// Multipliers at or below this count as zero when building
/// explanations.
const MU_TOLERANCE: f64 = 1e-7;

/// The flattened residual rows of one bound computation (reused scratch).
#[derive(Clone, Debug, Default)]
struct Rows {
    /// Original constraint index per row.
    orig: Vec<usize>,
    /// Adjusted right-hand side per row.
    rhs: Vec<f64>,
    /// CSR offsets into `terms` (length `rows + 1`).
    start: Vec<usize>,
    /// Flattened `(local var, coefficient)` terms of all rows.
    terms: Vec<(usize, f64)>,
}

impl Rows {
    fn clear(&mut self) {
        self.orig.clear();
        self.rhs.clear();
        self.start.clear();
        self.start.push(0);
        self.terms.clear();
    }

    fn len(&self) -> usize {
        self.orig.len()
    }

    fn row_terms(&self, r: usize) -> &[(usize, f64)] {
        &self.terms[self.start[r]..self.start[r + 1]]
    }
}

/// Lagrangian-relaxation lower bound with warm-started multipliers.
///
/// # Examples
///
/// ```
/// use pbo_core::{Assignment, InstanceBuilder};
/// use pbo_bounds::{LagrangianBound, LowerBound, Subproblem};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(2);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
/// let inst = b.build()?;
/// let a = Assignment::new(2);
/// let out = LagrangianBound::new(inst.num_constraints())
///     .lower_bound(&Subproblem::new(&inst, &a), None);
/// assert_eq!(out.bound, 2); // optimal multiplier mu = 2 proves cost >= 2
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LagrangianBound {
    /// Multipliers indexed by original constraint index (warm start).
    mu: Vec<f64>,
    // --- per-call scratch, reused across nodes ---
    /// Epoch of the current bound call; a variable's dense entries are
    /// valid only when its stamp equals this.
    epoch: u32,
    /// Per-variable epoch stamp for `local_of` (grown on demand).
    local_stamp: Vec<u32>,
    /// Per-variable dense local index, valid when stamped this epoch.
    local_of: Vec<u32>,
    local_vars: Vec<usize>,
    cost: Vec<f64>,
    rows: Rows,
    row_mu: Vec<f64>,
    best_mu: Vec<f64>,
    alpha: Vec<f64>,
    gradient: Vec<f64>,
    /// Per-variable epoch stamp for `assigned_alpha` (grown on demand).
    alpha_stamp: Vec<u32>,
    /// Per-variable `alpha_j` of assigned variables, valid when stamped
    /// this epoch (the sec. 4.3 filter input).
    assigned_alpha: Vec<f64>,
}

impl LagrangianBound {
    /// Creates the bound procedure for an instance with
    /// `num_constraints` constraints, multipliers initialized to zero.
    pub fn new(num_constraints: usize) -> LagrangianBound {
        LagrangianBound {
            mu: vec![0.0; num_constraints],
            epoch: 0,
            local_stamp: Vec::new(),
            local_of: Vec::new(),
            local_vars: Vec::new(),
            cost: Vec::new(),
            rows: Rows::default(),
            row_mu: Vec::new(),
            best_mu: Vec::new(),
            alpha: Vec::new(),
            gradient: Vec::new(),
            alpha_stamp: Vec::new(),
            assigned_alpha: Vec::new(),
        }
    }

    /// Read access to the current multipliers (for diagnostics/ablation).
    pub fn multipliers(&self) -> &[f64] {
        &self.mu
    }

    /// Dense local index of variable `v`, allocating the next one on
    /// first sight this epoch. Hash-free: one stamp comparison per
    /// lookup, and all per-variable buffers are reused across calls.
    fn index_of(&mut self, v: usize) -> usize {
        if v >= self.local_stamp.len() {
            self.local_stamp.resize(v + 1, 0);
            self.local_of.resize(v + 1, 0);
        }
        if self.local_stamp[v] != self.epoch {
            self.local_stamp[v] = self.epoch;
            self.local_of[v] = self.local_vars.len() as u32;
            self.local_vars.push(v);
            self.cost.push(0.0);
        }
        self.local_of[v] as usize
    }

    /// `alpha_j` of an assigned variable if it was stamped this epoch,
    /// else 0 (variable not in any row of `S`).
    fn assigned_alpha_of(&self, v: usize) -> f64 {
        match self.alpha_stamp.get(v) {
            Some(&stamp) if stamp == self.epoch => self.assigned_alpha[v],
            _ => 0.0,
        }
    }
}

impl LowerBound for LagrangianBound {
    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        let assignment = sub.assignment();
        let instance = sub.instance();

        // --- Build the residual problem in variable space. ---
        // Local dense indices for free variables appearing anywhere
        // relevant (active constraints or objective). A new epoch
        // invalidates every per-variable stamp at once; on the (rare)
        // wrap-around the stamps are cleared so stale epochs cannot
        // collide.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.local_stamp.fill(0);
            self.alpha_stamp.fill(0);
            self.epoch = 1;
        }
        self.local_vars.clear();
        self.cost.clear();

        // Residual cost vector: cost c on literal l becomes +c on the
        // variable (positive l) or a constant c plus -c on the variable
        // (negative l).
        let mut constant = 0i64;
        if let Some(obj) = instance.objective() {
            for &(c, l) in obj.terms() {
                if assignment.lit_value(l) != Value::Unassigned {
                    continue;
                }
                let li = self.index_of(l.var().index());
                if l.is_positive() {
                    self.cost[li] += c as f64;
                } else {
                    constant += c;
                    self.cost[li] -= c as f64;
                }
            }
        }

        // Rows: coefficient lists over local vars plus adjusted rhs.
        // Multipliers live in one warm-start vector indexed by
        // constraint, grown on demand. A stale multiplier is harmless:
        // any `mu >= 0` yields a valid bound, and the ascent
        // re-optimizes from it.
        self.rows.clear();
        for e in sub.active() {
            if e.index as usize >= self.mu.len() {
                self.mu.resize(e.index as usize + 1, 0.0);
            }
            let mut rhs = e.residual_rhs as f64;
            for t in sub.free_terms(e.index as usize) {
                let li = self.index_of(t.lit.var().index());
                if t.lit.is_positive() {
                    self.rows.terms.push((li, t.coeff as f64));
                } else {
                    // a * ~x = a - a*x : constant a moves into the rhs.
                    self.rows.terms.push((li, -(t.coeff as f64)));
                    rhs -= t.coeff as f64;
                }
            }
            self.rows.orig.push(e.index as usize);
            self.rows.rhs.push(rhs);
            self.rows.start.push(self.rows.terms.len());
        }
        let nv = self.cost.len().max(self.local_vars.len());
        self.cost.resize(nv, 0.0);
        let num_rows = self.rows.len();

        let base = sub.path_cost() + constant;

        // --- Projected subgradient ascent on L(mu). ---
        self.row_mu.clear();
        self.row_mu.extend(self.rows.orig.iter().map(|&orig| self.mu[orig]));
        self.best_mu.clear();
        self.best_mu.extend_from_slice(&self.row_mu);
        let mut best_l = f64::NEG_INFINITY;
        let mut lambda = INITIAL_LAMBDA;
        let mut stale = 0usize;
        self.alpha.clear();
        self.alpha.resize(nv, 0.0);
        self.gradient.clear();
        self.gradient.resize(num_rows, 0.0);
        let target_gap = upper.map(|u| (u - base) as f64);

        for _ in 0..MAX_ITERATIONS {
            // alpha_j = c_j - sum_i mu_i a_ij ; L = mu.b + sum min(0, alpha).
            self.alpha.copy_from_slice(&self.cost);
            let mut l_val = 0.0;
            for r in 0..num_rows {
                l_val += self.row_mu[r] * self.rows.rhs[r];
                for &(j, a) in self.rows.row_terms(r) {
                    self.alpha[j] -= self.row_mu[r] * a;
                }
            }
            for &a in &self.alpha {
                if a < 0.0 {
                    l_val += a;
                }
            }
            if l_val > best_l + 1e-12 {
                best_l = l_val;
                self.best_mu.copy_from_slice(&self.row_mu);
                stale = 0;
            } else {
                stale += 1;
                if stale >= HALVING_PATIENCE {
                    lambda *= 0.5;
                    stale = 0;
                    if lambda < MIN_LAMBDA {
                        break;
                    }
                }
            }
            // Early exit once the bound prunes.
            if let Some(gap) = target_gap {
                if best_l >= gap {
                    break;
                }
            }
            // Subgradient g = b - A x(mu) with x_j = [alpha_j < 0].
            let mut norm = 0.0;
            for r in 0..num_rows {
                let mut act = 0.0;
                for &(j, a) in self.rows.row_terms(r) {
                    if self.alpha[j] < 0.0 {
                        act += a;
                    }
                }
                self.gradient[r] = self.rows.rhs[r] - act;
                norm += self.gradient[r] * self.gradient[r];
            }
            if norm < 1e-12 {
                break; // relaxed solution feasible: L is locally maximal
            }
            let target = match target_gap {
                Some(gap) if gap > best_l => gap,
                _ => best_l.abs().max(1.0) * 0.05 + best_l + 1.0,
            };
            let step = lambda * (target - l_val).max(1e-3) / norm;
            for r in 0..num_rows {
                self.row_mu[r] = (self.row_mu[r] + step * self.gradient[r]).max(0.0);
            }
        }

        // Persist the best multipliers for warm starting.
        for r in 0..num_rows {
            self.mu[self.rows.orig[r]] = self.best_mu[r];
        }

        // Note: L may legitimately be negative (negative variable-space
        // costs arise from objective terms on negative literals), so the
        // ceiling must not be clamped to zero. The addition saturates: a
        // badly violated row can drive the multipliers — and
        // with them L — arbitrarily high before the engine ever sees the
        // conflict.
        let bound = if best_l.is_finite() {
            base.saturating_add((best_l - 1e-9).ceil() as i64)
        } else {
            base
        };

        // --- Explanation: S = { rows with mu_i > 0 } (sec. 4.3). ---
        // Built directly into the caller's reusable buffer.
        out.explanation.clear();
        out.fixings.clear();
        let explanation = &mut out.explanation;
        // alpha for *assigned* variables, needed by the filter: computed
        // over the original constraints in S in variable space, into the
        // epoch-stamped dense scratch (no hashing, no allocation after
        // warm-up).
        for r in 0..num_rows {
            if self.best_mu[r] <= MU_TOLERANCE {
                continue;
            }
            let orig = self.rows.orig[r];
            for t in sub.row_terms(orig).terms() {
                if assignment.lit_value(t.lit) == Value::Unassigned {
                    continue;
                }
                let v = t.lit.var().index();
                let coeff = if t.lit.is_positive() { t.coeff as f64 } else { -(t.coeff as f64) };
                if v >= self.alpha_stamp.len() {
                    self.alpha_stamp.resize(v + 1, 0);
                    self.assigned_alpha.resize(v + 1, 0.0);
                }
                if self.alpha_stamp[v] != self.epoch {
                    self.alpha_stamp[v] = self.epoch;
                    // Start from the variable-space objective cost.
                    self.assigned_alpha[v] = instance.objective().map_or(0.0, |o| {
                        o.term_of_var(t.lit.var()).map_or(0.0, |(c, l)| {
                            if l.is_positive() {
                                c as f64
                            } else {
                                -(c as f64)
                            }
                        })
                    });
                }
                self.assigned_alpha[v] -= self.best_mu[r] * coeff;
            }
        }
        for r in 0..num_rows {
            if self.best_mu[r] <= MU_TOLERANCE {
                continue;
            }
            for l in sub.false_literals(self.rows.orig[r]) {
                let v = l.var();
                let a = self.assigned_alpha_of(v.index());
                let x_is_one = assignment.value(v) == Value::True;
                // sec 4.3: x_j = 0 with alpha_j > 0 (raising it would
                // raise L) or x_j = 1 with alpha_j < 0: not responsible.
                if (!x_is_one && a > 1e-9) || (x_is_one && a < -1e-9) {
                    continue;
                }
                explanation.push(l);
            }
        }
        explanation.sort_unstable();
        explanation.dedup();
        out.bound = bound;
        out.infeasible = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{brute_force, Assignment, InstanceBuilder, Var};

    #[test]
    fn single_clause_bound_reaches_cheapest_literal() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let out = LagrangianBound::new(inst.num_constraints())
            .lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 2);
        assert!(!out.infeasible);
    }

    #[test]
    fn cardinality_constraint_bound() {
        // at least 2 of 3, costs 1,2,3: optimum 3, LGR should reach >= 2.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_at_least(2, v.iter().map(|x| x.positive()));
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();
        let a = Assignment::new(3);
        let out = LagrangianBound::new(inst.num_constraints())
            .lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(out.bound >= 2, "bound {} too weak", out.bound);
        assert!(out.bound <= 3, "bound {} exceeds optimum", out.bound);
    }

    #[test]
    fn bound_never_exceeds_optimum_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x161);
        for round in 0..60 {
            let n = rng.gen_range(3..9);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(2..8) {
                let k = rng.gen_range(1..=3.min(n));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                let terms: Vec<(i64, pbo_core::Lit)> = idxs[..k]
                    .iter()
                    .map(|&i| (rng.gen_range(1..4), vars[i].lit(rng.gen_bool(0.7))))
                    .collect();
                let maxw: i64 = terms.iter().map(|t| t.0).sum();
                b.add_linear(terms, pbo_core::RelOp::Ge, rng.gen_range(1..=maxw));
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..6), v.positive())));
            let inst = b.build().unwrap();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let a = Assignment::new(n);
            let out = LagrangianBound::new(inst.num_constraints())
                .lower_bound(&Subproblem::new(&inst, &a), None);
            assert!(!out.infeasible, "round {round}");
            assert!(
                out.bound <= opt,
                "round {round}: LGR bound {} exceeds optimum {opt}",
                out.bound
            );
        }
    }

    #[test]
    fn bound_valid_under_partial_assignment_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x162);
        for round in 0..40 {
            let n = rng.gen_range(4..9);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(2..6) {
                let k = rng.gen_range(2..=3.min(n));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                b.add_at_least(1, idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.8))));
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..5), v.positive())));
            let inst = b.build().unwrap();
            // Partial assignment on the first variable.
            let mut a = Assignment::new(n);
            a.assign(Var::new(0), rng.gen_bool(0.5));
            // Best completion cost by enumeration.
            let mut best: Option<i64> = None;
            for mask in 0u64..(1 << (n - 1)) {
                let mut vals = vec![false; n];
                vals[0] = a.value(Var::new(0)) == pbo_core::Value::True;
                for (i, v) in vals.iter_mut().enumerate().skip(1) {
                    *v = (mask >> (i - 1)) & 1 == 1;
                }
                if inst.is_feasible(&vals) {
                    let c = inst.cost_of(&vals);
                    best = Some(best.map_or(c, |b: i64| b.min(c)));
                }
            }
            let Some(opt) = best else { continue };
            let out = LagrangianBound::new(inst.num_constraints())
                .lower_bound(&Subproblem::new(&inst, &a), None);
            assert!(
                out.bound <= opt,
                "round {round}: LGR bound {} exceeds completion optimum {opt}",
                out.bound
            );
        }
    }

    #[test]
    fn warm_start_reuses_multipliers() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let mut lgr = LagrangianBound::new(inst.num_constraints());
        let _ = lgr.lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(lgr.multipliers()[0] > 0.0, "multiplier should be persisted");
        // Second call starts from the good multiplier and must not regress.
        let out = lgr.lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 2);
    }

    #[test]
    fn explanation_mentions_false_literals_of_active_rows() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([(5, v[1].positive()), (5, v[2].positive())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), false);
        let out = LagrangianBound::new(inst.num_constraints())
            .lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(out.bound >= 5);
        assert!(out.explanation.contains(&v[0].positive()), "{:?}", out.explanation);
    }

    #[test]
    fn pure_satisfaction_gives_zero_bound() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let out = LagrangianBound::new(inst.num_constraints())
            .lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 0);
    }
}
