//! Lower bounding by linear-programming relaxation (sec. 3.1 of the
//! paper) with zero-slack explanations (sec. 4.2).
//!
//! The relaxation `min cx, Ax >= b, 0 <= x <= 1` is built once per
//! instance in variable space; at each search node the current variable
//! fixings become bound changes and the dual simplex re-optimizes from
//! the previous basis. `ceil(z_lpr)` is the bound. The explanation
//! `omega_pl` is eq. 9: the false literals of the constraints whose slack
//! is zero in the LP solution (union the constraints with nonzero duals,
//! which complementary slackness places among the tight ones — the union
//! guards against tolerance mismatches). If the relaxation is infeasible
//! the Farkas rows play the role of `S`.
//!
//! Only a call that prunes or fixes reads the explanation, so only those
//! build it. Against an incumbent `U` an optimal solve that does not
//! prune still proves more: with `y` the duals above [`DUAL_EPS`] and
//! `d = c - A^T y`, every completion of the node costs at least the
//! Lagrangian value `L(y) = y.b + sum_j min d_j x_j` over the current
//! domains, and flipping a free variable away from its minimizing value
//! adds `|d_j|`. When `ceil(L + |d_j| - 1e-6) >= U` that flip leaves no
//! improving completion, so the other value is reported in
//! [`LbOutcome::fixings`] (reduced-cost fixing). The rows `y` uses are
//! rows of `S`, so the clause `omega_bc ∨ l` holds for each fixing `l`:
//! a completion that keeps `omega_pl` false agrees with the node on
//! every false literal of those rows, and one that keeps `omega_pp`
//! false pays every cost the node pays; objective costs are positive, so
//! changing any other fixed variable cannot lower `L(y)`.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use pbo_core::{Instance, Lit, PbConstraint, Var};
use pbo_lp::{DualSimplex, LpProblem, LpStatus};

use crate::dynrows::DynamicRows;
use crate::subproblem::Subproblem;
use crate::{LbOutcome, LowerBound};

/// Duals at or below this count as zero: rows whose `|y_i|` exceeds it
/// join the explanation's `S`, and the reduced-cost fixing uses the
/// duals above it.
const DUAL_EPS: f64 = 1e-7;

/// LP-relaxation lower bound with a warm-started dual simplex.
///
/// # Examples
///
/// ```
/// use pbo_core::{Assignment, InstanceBuilder};
/// use pbo_bounds::{LowerBound, LprBound, Subproblem};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_at_least(2, v.iter().map(|x| x.positive()));
/// b.minimize(v.iter().map(|x| (3, x.positive())));
/// let inst = b.build()?;
/// let a = Assignment::new(3);
/// let mut lpr = LprBound::new(&inst);
/// // LP optimum is 6 (two variables at 1... or any mass 2): ceil(6) = 6.
/// assert_eq!(lpr.lower_bound(&Subproblem::new(&inst, &a), None).bound, 6);
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Debug)]
pub struct LprBound {
    simplex: DualSimplex,
    cached: Vec<Option<bool>>,
    /// Constant folded out of the variable-space objective (objective
    /// offset plus the constants of negative-literal cost terms).
    const_shift: f64,
    /// The fractional solution of the most recent optimal solve, for
    /// LP-guided branching (sec. 5).
    last_fractional: Vec<f64>,
    /// Scratch: the reduced costs `d` of the reduced-cost fixing.
    reduced: Vec<f64>,
    /// Trail mirror for the incremental bound-sync protocol
    /// ([`LprBound::apply`] / [`LprBound::unwind_to`]): the literals
    /// whose fixings are currently reflected in the simplex bounds.
    mirror: Vec<Lit>,
    /// Set once the trail protocol has been used: [`lower_bound`]
    /// (LowerBound::lower_bound) then trusts the mirror instead of
    /// diffing the whole assignment (O(changed vars) instead of O(vars)
    /// per node).
    trail_mode: bool,
    /// Cancellation armed on the simplex; kept here so
    /// [`LprBound::install_rows`] rebuilds re-arm it (see
    /// [`LprBound::set_cancel`]).
    cancel: (Option<Instant>, Option<Arc<AtomicBool>>),
}

impl LprBound {
    /// Builds the relaxation of `instance`.
    pub fn new(instance: &Instance) -> LprBound {
        let (problem, const_shift) = Self::build_problem(instance, &[]);
        let n = instance.num_vars();
        LprBound {
            simplex: DualSimplex::new(&problem),
            cached: vec![None; n],
            const_shift,
            last_fractional: vec![0.0; n],
            reduced: vec![0.0; n],
            mirror: Vec::with_capacity(n),
            trail_mode: false,
            cancel: (None, None),
        }
    }

    /// Arms cooperative cancellation on the underlying simplex: solves
    /// interrupted by the deadline or the stop latch return the sound
    /// no-information fallback bound (like an iteration limit), so a
    /// budget deadline landing *inside* an LP solve is honored within a
    /// bounded overshoot instead of only between search nodes. Survives
    /// [`LprBound::install_rows`] rebuilds.
    pub fn set_cancel(&mut self, deadline: Option<Instant>, stop: Option<Arc<AtomicBool>>) {
        self.simplex.set_cancel(deadline, stop.clone());
        self.cancel = (deadline, stop);
    }

    /// The LP problem of `instance` plus `extra` rows, appended after the
    /// instance constraints, so the LP's first rows line up with the
    /// [`Subproblem`] row indices.
    fn build_problem(instance: &Instance, extra: &[&PbConstraint]) -> (LpProblem, f64) {
        let n = instance.num_vars();
        let mut p = LpProblem::new(n);
        let mut const_shift = 0.0;
        if let Some(obj) = instance.objective() {
            const_shift += obj.offset() as f64;
            let mut costs = vec![0.0f64; n];
            for &(c, l) in obj.terms() {
                if l.is_positive() {
                    costs[l.var().index()] += c as f64;
                } else {
                    // c * ~x = c - c*x
                    const_shift += c as f64;
                    costs[l.var().index()] -= c as f64;
                }
            }
            for (j, &c) in costs.iter().enumerate() {
                if c != 0.0 {
                    p.set_cost(j, c);
                }
            }
        }
        for c in instance.constraints().iter().chain(extra.iter().copied()) {
            let (terms, rhs) = Self::lp_row(c);
            p.add_row_ge(&terms, rhs);
        }
        (p, const_shift)
    }

    /// The LP form of one normalized PB row: negative literals flip the
    /// coefficient sign and move a constant into the rhs
    /// (`a * ~x = a - a*x`).
    fn lp_row(c: &PbConstraint) -> (Vec<(usize, f64)>, f64) {
        let mut terms = Vec::with_capacity(c.len());
        let mut rhs = c.rhs() as f64;
        for t in c.terms() {
            if t.lit.is_positive() {
                terms.push((t.lit.var().index(), t.coeff as f64));
            } else {
                terms.push((t.lit.var().index(), -(t.coeff as f64)));
                rhs -= t.coeff as f64;
            }
        }
        (terms, rhs)
    }

    /// The bare LP relaxation of `instance` (its own rows only) — exposed
    /// so callers can drive the simplex on the exact problems the bound
    /// sees: the benchmark's per-layer probe (`pbobench/probe`) times its
    /// warm re-solves on it.
    pub fn relaxation_problem(instance: &Instance) -> LpProblem {
        Self::build_problem(instance, &[]).0
    }

    /// Rebuilds the relaxation with the registry's rows after the
    /// instance rows, so row `k` of the registry is LP row
    /// `instance.num_constraints() + k`. The current fixings, the
    /// cancellation and the iteration count carry over; the warm basis
    /// does not. No solver path calls this — the solver's relaxation
    /// holds the instance's rows only, since the cost cuts are
    /// LP-implied — and it stays public only because the benchmark's
    /// per-layer probe (`pbobench/probe`) times it.
    pub fn install_rows(&mut self, instance: &Instance, rows: &DynamicRows) {
        let extra: Vec<&PbConstraint> = rows.rows().iter().map(|r| &r.constraint).collect();
        let (problem, const_shift) = Self::build_problem(instance, &extra);
        let iterations = self.simplex.total_iterations;
        self.simplex = DualSimplex::new(&problem);
        self.simplex.total_iterations = iterations;
        self.simplex.set_cancel(self.cancel.0, self.cancel.1.clone());
        self.const_shift = const_shift;
        for (v, &fixed) in self.cached.iter().enumerate() {
            match fixed {
                Some(true) => self.simplex.set_var_bounds(v, 1.0, 1.0),
                Some(false) => self.simplex.set_var_bounds(v, 0.0, 0.0),
                None => {}
            }
        }
    }

    /// Number of trail literals currently mirrored into the simplex
    /// bounds — the mark to hand to the engine's `sync_trail`.
    #[inline]
    pub fn synced_len(&self) -> usize {
        self.mirror.len()
    }

    /// Applies one trail literal (the literal became **true**): fixes the
    /// variable's LP bounds accordingly. Part of the incremental
    /// bound-sync protocol: once used, [`lower_bound`](LowerBound) trusts
    /// the mirror and skips the O(vars) assignment diff.
    pub fn apply(&mut self, lit: Lit) {
        self.trail_mode = true;
        let v = lit.var().index();
        let fixed = if lit.is_positive() { 1.0 } else { 0.0 };
        self.simplex.set_var_bounds(v, fixed, fixed);
        self.cached[v] = Some(lit.is_positive());
        self.mirror.push(lit);
    }

    /// Unwinds mirrored literals until exactly `len` remain, relaxing
    /// their LP bounds back to `[0, 1]` (mirror of [`LprBound::apply`]).
    ///
    /// # Panics
    ///
    /// Panics if more than [`LprBound::synced_len`] literals would be
    /// unwound.
    pub fn unwind_to(&mut self, len: usize) {
        assert!(len <= self.mirror.len(), "cannot unwind below an empty mirror");
        self.trail_mode = true;
        while self.mirror.len() > len {
            let lit = self.mirror.pop().expect("checked above");
            let v = lit.var().index();
            self.simplex.set_var_bounds(v, 0.0, 1.0);
            self.cached[v] = None;
        }
    }

    /// The primal values of the last optimal LP solve, indexed by
    /// variable — the input to LP-guided branching (sec. 5: branch on the
    /// variable closest to 0.5).
    pub fn last_solution(&self) -> &[f64] {
        &self.last_fractional
    }

    /// Total simplex iterations spent so far (for the ablation tables).
    pub fn simplex_iterations(&self) -> u64 {
        self.simplex.total_iterations
    }

    /// Full-assignment diff fallback for callers that do not drive the
    /// trail protocol (standalone use, the rebuild oracle): O(vars).
    fn sync_bounds(&mut self, sub: &Subproblem<'_>) {
        let assignment = sub.assignment();
        for v in 0..self.cached.len() {
            let now = assignment.value(pbo_core::Var::new(v)).to_bool();
            if now != self.cached[v] {
                match now {
                    Some(true) => self.simplex.set_var_bounds(v, 1.0, 1.0),
                    Some(false) => self.simplex.set_var_bounds(v, 0.0, 0.0),
                    None => self.simplex.set_var_bounds(v, 0.0, 1.0),
                }
                self.cached[v] = now;
            }
        }
    }

    /// Reduced-cost fixing (see the module docs) after an optimal solve
    /// of value `z` that does not prune against `upper`: pushes every
    /// free literal whose flip would lift `L(y)` to `upper` onto
    /// `fixings` and returns whether there was one. A pre-check on the
    /// simplex's maintained reduced costs, with `z` standing for `L(y)`,
    /// skips the `O(nnz)` pass when no flip can reach `upper`; a check
    /// thrown off by rounding only loses fixings.
    fn fix_by_reduced_cost(&mut self, z: f64, upper: i64, fixings: &mut Vec<Lit>) -> bool {
        let reaches = |lower: f64| (lower - 1e-6).ceil() >= upper as f64;
        let largest = (self.simplex.reduced_costs().iter().zip(&self.cached))
            .filter(|(_, fixed)| fixed.is_none())
            .fold(0.0, |m: f64, (d, _)| m.max(d.abs()));
        if !reaches(z + largest + 1e-6) {
            return false;
        }
        let l = self.simplex.lagrangian_bound(DUAL_EPS, &mut self.reduced) + self.const_shift;
        for (j, &d) in self.reduced.iter().enumerate() {
            if self.cached[j].is_none() && reaches(l + d.abs()) {
                fixings.push(Var::new(j).lit(d < 0.0));
            }
        }
        !fixings.is_empty()
    }

    /// Writes the false literals of `rows` into `out`, sorted and
    /// deduplicated.
    fn explain(sub: &Subproblem<'_>, rows: impl Iterator<Item = usize>, out: &mut Vec<Lit>) {
        out.clear();
        for i in rows {
            out.extend(sub.false_literals(i));
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl LowerBound for LprBound {
    fn name(&self) -> &'static str {
        "lpr"
    }

    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        if self.trail_mode {
            // The caller already synced the bounds through the trail
            // protocol; the mirror must agree with the assignment.
            debug_assert_eq!(
                self.mirror.len(),
                sub.assignment().num_assigned(),
                "LP trail mirror drifted from the assignment"
            );
        } else {
            self.sync_bounds(sub);
        }
        out.fixings.clear();
        match self.simplex.reoptimize() {
            LpStatus::Optimal => {
                let z = self.simplex.objective() + self.const_shift;
                out.bound = (z - 1e-6).ceil() as i64;
                out.infeasible = false;
                // Pre-incumbent calls (`upper == None`) exist only to
                // catch Farkas-infeasible subtrees; they must not steer
                // LP-guided branching, or the descent to the first
                // solution changes character. Branching guidance starts
                // with the first incumbent, as in the paper.
                if upper.is_some() {
                    self.last_fractional.copy_from_slice(self.simplex.x());
                }
                let explains = match upper {
                    Some(u) if out.bound >= u => true,
                    Some(u) => self.fix_by_reduced_cost(z, u, &mut out.fixings),
                    None => false,
                };
                if !explains {
                    out.explanation.clear();
                    return;
                }
                // S = tight rows, union rows with nonzero dual (eq. 9),
                // merged in row order.
                let lp = &self.simplex;
                let mut tight = lp.tight_rows().iter().copied().peekable();
                let s = lp.duals().iter().enumerate().filter_map(|(i, &y)| {
                    let is_tight = tight.next_if_eq(&i).is_some();
                    (is_tight || y.abs() > DUAL_EPS).then_some(i)
                });
                Self::explain(sub, s, &mut out.explanation);
            }
            LpStatus::Infeasible => {
                out.bound = i64::MAX;
                out.infeasible = true;
                let rows = self.simplex.farkas_rows().iter().copied();
                Self::explain(sub, rows, &mut out.explanation);
            }
            LpStatus::IterationLimit | LpStatus::Cancelled => {
                // Sound fallback: no pruning information. A cancelled
                // solve additionally means the search is tearing down;
                // the caller notices the token at its own poll sites.
                out.bound = sub.path_cost();
                out.infeasible = false;
                out.explanation.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{brute_force, Assignment, InstanceBuilder, Var};

    #[test]
    fn exact_on_integral_relaxation() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive()]);
        b.minimize([(4, v[0].positive()), (1, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let out = LprBound::new(&inst).lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 4);
    }

    #[test]
    fn ceiling_tightens_fractional_relaxation() {
        // at least 1 of {x1,x2} and 1 of {x2,x3} and 1 of {x1,x3}: LP can
        // take all at 0.5 -> z = 1.5; the 0-1 optimum is 2.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.add_clause([v[0].positive(), v[2].positive()]);
        b.minimize(v.iter().map(|x| (1, x.positive())));
        let inst = b.build().unwrap();
        let a = Assignment::new(3);
        let out = LprBound::new(&inst).lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 2, "ceil(1.5) = 2");
        assert_eq!(brute_force(&inst).cost(), Some(2));
    }

    #[test]
    fn infeasible_relaxation_under_fixings() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_at_least(2, [v[0].positive(), v[1].positive()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), false);
        let mut lpr = LprBound::new(&inst);
        let out = lpr.lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(out.infeasible);
        assert_eq!(out.explanation, vec![v[0].positive()]);
    }

    #[test]
    fn bound_never_exceeds_optimum_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x19);
        for round in 0..50 {
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
            let brute = brute_force(&inst);
            let a = Assignment::new(n);
            let mut lpr = LprBound::new(&inst);
            let out = lpr.lower_bound(&Subproblem::new(&inst, &a), None);
            match brute.cost() {
                Some(opt) => {
                    assert!(!out.infeasible, "round {round}: spurious infeasibility");
                    assert!(
                        out.bound <= opt,
                        "round {round}: LPR bound {} exceeds optimum {opt}",
                        out.bound
                    );
                }
                None => {
                    // The relaxation may still be feasible; no assertion on
                    // the bound, but it must not crash.
                }
            }
        }
    }

    #[test]
    fn warm_start_across_fixings_matches_fresh() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, v.iter().map(|x| x.positive()));
        b.add_clause([v[0].positive(), v[3].positive()]);
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();
        let mut warm = LprBound::new(&inst);

        let a0 = Assignment::new(4);
        let b0 = warm.lower_bound(&Subproblem::new(&inst, &a0), None).bound;

        let mut a1 = Assignment::new(4);
        a1.assign(Var::new(0), false);
        let warm_b1 = warm.lower_bound(&Subproblem::new(&inst, &a1), None).bound;
        let fresh_b1 = LprBound::new(&inst).lower_bound(&Subproblem::new(&inst, &a1), None).bound;
        assert_eq!(warm_b1, fresh_b1);
        assert!(warm_b1 >= b0, "fixing can only tighten the bound");

        // And back.
        let back = warm.lower_bound(&Subproblem::new(&inst, &a0), None).bound;
        assert_eq!(back, b0);
    }

    #[test]
    fn fractional_solution_exposed_for_branching() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_linear(vec![(2, v[0].positive()), (2, v[1].positive())], pbo_core::RelOp::Ge, 3);
        b.minimize([(1, v[0].positive()), (1, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let mut lpr = LprBound::new(&inst);
        // Pre-incumbent (upper = None) solves must NOT steer branching.
        let _ = lpr.lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(lpr.last_solution().iter().all(|&x| x == 0.0));
        // With an incumbent the fractional solution is exposed.
        let _ = lpr.lower_bound(&Subproblem::new(&inst, &a), Some(100));
        let frac: Vec<f64> = lpr.last_solution().to_vec();
        // Total mass 1.5 split over two vars: at least one fractional.
        assert!(frac.iter().any(|&x| x > 0.01 && x < 0.99), "{frac:?}");
    }

    #[test]
    fn trail_protocol_matches_full_diff() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, v.iter().map(|x| x.positive()));
        b.add_clause([v[0].positive(), v[3].positive()]);
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();

        let mut traced = LprBound::new(&inst);
        let mut a = Assignment::new(4);
        a.assign(Var::new(0), false);
        a.assign(Var::new(2), true);
        traced.apply(v[0].negative());
        traced.apply(v[2].positive());
        let via_trail = pruning(&mut traced, &Subproblem::new(&inst, &a));
        let via_diff = pruning(&mut LprBound::new(&inst), &Subproblem::new(&inst, &a));
        assert_eq!(via_trail, via_diff);
        assert!(!via_trail.explanation.is_empty());

        // Unwinding relaxes the bounds back: root solve must match a
        // fresh root solve.
        a.unassign(Var::new(0));
        a.unassign(Var::new(2));
        traced.unwind_to(0);
        assert_eq!(traced.synced_len(), 0);
        let back = pruning(&mut traced, &Subproblem::new(&inst, &a));
        let fresh = pruning(&mut LprBound::new(&inst), &Subproblem::new(&inst, &a));
        assert_eq!(back, fresh);
    }

    /// The outcome against an incumbent equal to the bound, which the
    /// bound prunes against, so it carries its explanation.
    fn pruning(lpr: &mut LprBound, sub: &Subproblem<'_>) -> LbOutcome {
        let bound = lpr.lower_bound(sub, None).bound;
        lpr.lower_bound(sub, Some(bound))
    }

    /// `inst` with the registry's rows appended as ordinary constraints,
    /// in order: its row `k` is the LP row `k` of a relaxation with the
    /// rows installed, so its views explain that relaxation's outcomes.
    fn instance_plus_rows(inst: &Instance, rows: &DynamicRows) -> Instance {
        let expected: Vec<&PbConstraint> =
            inst.constraints().iter().chain(rows.rows().iter().map(|r| &r.constraint)).collect();
        let mut b = InstanceBuilder::with_vars(inst.num_vars());
        for c in &expected {
            b.add_linear(c.terms().iter().map(|t| (t.coeff, t.lit)), pbo_core::RelOp::Ge, c.rhs());
        }
        let obj = inst.objective().expect("an optimization instance");
        b.minimize_with_offset(obj.terms().iter().copied(), obj.offset());
        let full = b.build().unwrap();
        assert_eq!(full.constraints().iter().collect::<Vec<_>>(), expected, "rows kept verbatim");
        full
    }

    /// `install_rows` rebuilds the relaxation with the registry's rows
    /// after the instance's: its outcomes match a fresh relaxation of an
    /// instance carrying those rows, with the fixings made before an
    /// install carried over, install after install.
    #[test]
    fn install_rows_matches_a_fresh_relaxation() {
        use crate::dynrows::{DynRowOrigin, DynamicRows};

        // Distinct costs keep the LP optima non-degenerate, so the
        // rebuilt and the fresh relaxation land on identical bases and
        // the outcomes (bound + explanation) compare bit-for-bit.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(6);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive(), v[3].positive()]);
        b.add_clause([v[2].positive(), v[4].positive(), v[5].positive()]);
        b.add_at_least(2, [v[1].positive(), v[3].positive(), v[5].positive()]);
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();

        let card = |rhs| {
            PbConstraint::try_new(
                vec![(1, v[1].positive()), (1, v[2].positive()), (1, v[4].positive())],
                rhs,
            )
            .unwrap()
        };
        let clause =
            PbConstraint::try_new(vec![(1, v[0].positive()), (1, v[3].positive())], 1).unwrap();

        let mut installed = LprBound::new(&inst);
        installed.apply(v[1].negative());
        let mut a = Assignment::new(6);
        a.assign(Var::new(1), false);
        for (round, rhs) in [1, 2].into_iter().enumerate() {
            let mut rows = DynamicRows::for_instance(&inst);
            rows.begin_epoch();
            rows.push(card(rhs), DynRowOrigin::CardinalityCut);
            rows.push(clause.clone(), DynRowOrigin::CardinalityCut);
            installed.install_rows(&inst, &rows);
            let full = instance_plus_rows(&inst, &rows);
            let sub = Subproblem::new(&full, &a);
            let fresh = pruning(&mut LprBound::new(&full), &sub);
            assert_eq!(pruning(&mut installed, &sub), fresh, "round {round}");
        }
        installed.apply(v[4].positive());
        a.assign(Var::new(4), true);
        let mut rows = DynamicRows::for_instance(&inst);
        rows.begin_epoch();
        rows.push(card(2), DynRowOrigin::CardinalityCut);
        let full = instance_plus_rows(&inst, &rows);
        installed.install_rows(&inst, &rows);
        let sub = Subproblem::new(&full, &a);
        assert_eq!(pruning(&mut installed, &sub), pruning(&mut LprBound::new(&full), &sub));
    }

    #[test]
    fn negative_literal_costs_shift_constant() {
        // min 5*~x1 : LP must report 5 when x1 = 0 and 0 when x1 = 1.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_clause([v[0].positive(), v[0].negative()]); // tautology dropped
        b.minimize([(5, v[0].negative())]);
        let inst = b.build().unwrap();
        let mut lpr = LprBound::new(&inst);
        let mut a = Assignment::new(1);
        a.assign(Var::new(0), false);
        assert_eq!(lpr.lower_bound(&Subproblem::new(&inst, &a), None).bound, 5);
        let mut a = Assignment::new(1);
        a.assign(Var::new(0), true);
        assert_eq!(lpr.lower_bound(&Subproblem::new(&inst, &a), None).bound, 0);
    }
}
