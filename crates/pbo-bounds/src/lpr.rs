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

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use pbo_core::{Instance, Lit, PbConstraint};
use pbo_lp::{DualSimplex, LpProblem, LpStatus};

use crate::dynrows::DynamicRows;
use crate::subproblem::Subproblem;
use crate::{LbOutcome, LowerBound};

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
    /// The registry rows currently installed in the simplex, in row
    /// order after the instance's rows. [`LprBound::install_rows`]
    /// diffs the incoming registry against this to take the incremental
    /// path (basis-extending appends) instead of a full rebuild.
    installed: Vec<PbConstraint>,
    /// Re-roots served incrementally vs. by full rebuild (diagnostics
    /// and differential tests).
    install_appends: u64,
    install_rebuilds: u64,
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
            mirror: Vec::with_capacity(n),
            trail_mode: false,
            cancel: (None, None),
            installed: Vec::new(),
            install_appends: 0,
            install_rebuilds: 0,
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

    /// Installs the registry's rows after the instance rows, so row `k`
    /// of the registry is LP row `instance.num_constraints() + k`. No
    /// solver path calls this — the solver's relaxation holds the
    /// instance's rows only, since the cost cuts are LP-implied — and it
    /// stays public only because the benchmark's per-layer probe
    /// (`pbobench/probe`) times it.
    ///
    /// When the new registry extends the installed one — every already
    /// installed row reappears verbatim, plus an appended suffix — the
    /// warm basis is *kept*: new rows extend the basis through
    /// [`DualSimplex::append_row_ge`]. Any other registry (rows removed
    /// or changed) pays for a full rebuild.
    pub fn install_rows(&mut self, instance: &Instance, rows: &DynamicRows) {
        let new_rows = rows.rows();
        if new_rows.is_empty() && self.installed.is_empty() {
            return;
        }
        let extends = new_rows.len() >= self.installed.len()
            && new_rows.iter().zip(&self.installed).all(|(r, old)| r.constraint == *old);
        if extends {
            for r in &new_rows[self.installed.len()..] {
                let (terms, rhs) = Self::lp_row(&r.constraint);
                self.simplex.append_row_ge(&terms, rhs);
                self.installed.push(r.constraint.clone());
            }
            self.install_appends += 1;
            return;
        }
        let extra: Vec<&PbConstraint> = new_rows.iter().map(|r| &r.constraint).collect();
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
        self.installed = new_rows.iter().map(|r| r.constraint.clone()).collect();
        self.install_rebuilds += 1;
    }

    /// How many [`LprBound::install_rows`] calls took the incremental
    /// (append) path vs. a full rebuild. Like `install_rows`, kept for
    /// the benchmark probe and the tests.
    pub fn install_counts(&self) -> (u64, u64) {
        (self.install_appends, self.install_rebuilds)
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
        let lp = &mut self.simplex;
        match lp.reoptimize() {
            LpStatus::Optimal => {
                let z = lp.objective() + self.const_shift;
                out.bound = (z - 1e-6).ceil() as i64;
                out.infeasible = false;
                // Pre-incumbent calls (`upper == None`) exist only to
                // catch Farkas-infeasible subtrees; they must not steer
                // LP-guided branching, or the descent to the first
                // solution changes character. Branching guidance starts
                // with the first incumbent, as in the paper.
                if upper.is_some() {
                    self.last_fractional.copy_from_slice(lp.x());
                }
                // S = tight rows, union rows with nonzero dual (eq. 9),
                // merged in row order.
                let mut tight = lp.tight_rows().iter().copied().peekable();
                let s = lp.duals().iter().enumerate().filter_map(|(i, &y)| {
                    let is_tight = tight.next_if_eq(&i).is_some();
                    (is_tight || y.abs() > 1e-7).then_some(i)
                });
                Self::explain(sub, s, &mut out.explanation);
            }
            LpStatus::Infeasible => {
                out.bound = i64::MAX;
                out.infeasible = true;
                Self::explain(sub, lp.farkas_rows().iter().copied(), &mut out.explanation);
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
        let via_trail = traced.lower_bound(&Subproblem::new(&inst, &a), None);
        let via_diff = LprBound::new(&inst).lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(via_trail, via_diff);

        // Unwinding relaxes the bounds back: root solve must match a
        // fresh root solve.
        a.unassign(Var::new(0));
        a.unassign(Var::new(2));
        traced.unwind_to(0);
        assert_eq!(traced.synced_len(), 0);
        let back = traced.lower_bound(&Subproblem::new(&inst, &a), None);
        let fresh = LprBound::new(&inst).lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(back, fresh);
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

    #[test]
    fn install_rows_incremental_matches_rebuild() {
        use crate::dynrows::{DynRowOrigin, DynamicRows};

        // Distinct costs keep the LP optima non-degenerate, so the
        // incremental and rebuild paths land on identical bases and the
        // outcomes (bound + explanation) compare bit-for-bit.
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
        let late =
            PbConstraint::try_new(vec![(1, v[4].positive()), (1, v[5].positive())], 1).unwrap();

        let mut rows = DynamicRows::for_instance(&inst);
        rows.begin_epoch();
        rows.push(card(1), DynRowOrigin::CardinalityCut);
        rows.push(clause.clone(), DynRowOrigin::CardinalityCut);

        // Warm side: installs land on the incremental path throughout.
        let mut warm = LprBound::new(&inst);
        warm.install_rows(&inst, &rows);
        assert_eq!(warm.install_counts(), (1, 0), "first install extends the empty row set");

        // Oracle side: poison the installed rows so every later
        // install pays for the full rebuild.
        let force_rebuild = |oracle: &mut LprBound| {
            let mut decoy = DynamicRows::for_instance(&inst);
            decoy.begin_epoch();
            decoy.push(late.clone(), DynRowOrigin::CardinalityCut);
            oracle.install_rows(&inst, &decoy);
        };
        let mut oracle = LprBound::new(&inst);
        force_rebuild(&mut oracle);
        oracle.install_rows(&inst, &rows);
        assert_eq!(oracle.install_counts(), (1, 1), "support mismatch must rebuild");

        let check = |warm: &mut LprBound, oracle: &mut LprBound, rows: &DynamicRows| {
            let full = instance_plus_rows(&inst, rows);
            let mut a = Assignment::new(6);
            let sub = Subproblem::new(&full, &a);
            assert_eq!(warm.lower_bound(&sub, Some(50)), oracle.lower_bound(&sub, Some(50)));
            a.assign(Var::new(1), false);
            a.assign(Var::new(4), true);
            let sub = Subproblem::new(&full, &a);
            assert_eq!(warm.lower_bound(&sub, Some(50)), oracle.lower_bound(&sub, Some(50)));
        };
        check(&mut warm, &mut oracle, &rows);

        // Re-root: the rows survive verbatim and a new clause is
        // appended.
        rows.begin_epoch();
        rows.push(card(1), DynRowOrigin::CardinalityCut);
        rows.push(clause.clone(), DynRowOrigin::CardinalityCut);
        rows.push(late.clone(), DynRowOrigin::CardinalityCut);
        warm.install_rows(&inst, &rows);
        assert_eq!(warm.install_counts(), (2, 0), "verbatim prefix + append stays incremental");
        force_rebuild(&mut oracle);
        oracle.install_rows(&inst, &rows);
        assert_eq!(oracle.install_counts().1, 3, "oracle keeps rebuilding");
        check(&mut warm, &mut oracle, &rows);

        // A tightened row (same support, new rhs) takes the rebuild path.
        rows.begin_epoch();
        rows.push(card(2), DynRowOrigin::CardinalityCut);
        rows.push(clause.clone(), DynRowOrigin::CardinalityCut);
        rows.push(late.clone(), DynRowOrigin::CardinalityCut);
        warm.install_rows(&inst, &rows);
        assert_eq!(warm.install_counts(), (2, 1), "rhs change must rebuild");
        force_rebuild(&mut oracle);
        oracle.install_rows(&inst, &rows);
        check(&mut warm, &mut oracle, &rows);

        // Shrinking the registry falls back to a rebuild.
        let mut shrunk = DynamicRows::for_instance(&inst);
        shrunk.begin_epoch();
        shrunk.push(card(2), DynRowOrigin::CardinalityCut);
        warm.install_rows(&inst, &shrunk);
        assert_eq!(warm.install_counts(), (2, 2), "row removal must rebuild");
        force_rebuild(&mut oracle);
        oracle.install_rows(&inst, &shrunk);
        check(&mut warm, &mut oracle, &shrunk);
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
