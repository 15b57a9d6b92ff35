//! Lower bounding by a greedy maximum independent set of constraints
//! (MIS), the classic bound for covering problems (Coudert; Villa et al.)
//! and the baseline method of the paper (sec. 3), upgraded with
//! **implied-literal reasoning**.
//!
//! Constraints that share no *free* variable are independent: the minimum
//! cost of satisfying each can be added up. The per-constraint minimum is
//! itself lower-bounded by the fractional (single-constraint LP) cover
//! cost, which greedy computes exactly by filling cheapest cost-per-unit
//! literals first.
//!
//! Before partitioning, the bound runs a cheap **unit-implication
//! closure** over the residual rows: a row whose free weight cannot
//! reach its residual right-hand side without a particular literal
//! implies that literal, the implication shrinks the other rows, and the
//! closure iterates to fixpoint. Implied literals
//! contribute their objective cost to the bound, contradictions prove
//! the residual infeasible (a pre-incumbent prune no other cheap bound
//! provides), and — once an upper bound exists — a **reduced-cost fixing**
//! pass implies literals whose cost would push any completion past the
//! incumbent, re-running the closure on what it fixed. Every derivation
//! step records the false literals of the rows it used, so the
//! explanation (`omega_pl`) stays sound.
//!
//! The kernel is **steady-state allocation-free**: at the start of a
//! bound call the free terms of every active row are materialized *once*
//! into a flat per-call CSR scratch (coefficients, literals and objective
//! costs in contiguous reusable arrays), and the closure, greedy and
//! reduced-cost passes all iterate that scratch instead of re-filtering
//! the rows through the assignment four to six times per call. All
//! per-variable marks are epoch-stamped, the hot sorts are unstable with
//! explicit index tie-breaks (stable sorts allocate), and the
//! explanation is built directly into the caller's reusable
//! [`LbOutcome`] buffer via [`LowerBound::lower_bound_into`].

use pbo_core::Lit;

use crate::subproblem::{ActiveEntry, Subproblem};
use crate::{LbOutcome, LowerBound};

/// Maximum closure rounds per pass; implications are rare after engine
/// propagation, so the cap only bounds pathological cascades.
const MAX_CLOSURE_ROUNDS: usize = 8;

/// Greedy MIS lower bound with implied-literal reasoning.
///
/// # Examples
///
/// ```
/// use pbo_core::{Assignment, InstanceBuilder};
/// use pbo_bounds::{LowerBound, MisBound, Subproblem};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(4);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[2].positive(), v[3].positive()]);
/// b.minimize(v.iter().map(|x| (2, x.positive())));
/// let inst = b.build()?;
/// let a = Assignment::new(4);
/// let sub = Subproblem::new(&inst, &a);
/// let out = MisBound::new().lower_bound(&sub, None);
/// // The two disjoint clauses each cost at least 2.
/// assert_eq!(out.bound, 4);
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MisBound {
    /// Run the implied-literal closure and reduced-cost fixing.
    implied: bool,
    // --- per-call materialized free-term CSR (reused across calls) ---
    /// Offsets into the `free_*` arrays per active-row position
    /// (length `active + 1`). Each span is stored in **fractional-cover
    /// order** (ascending cost-per-unit, term order breaking ties), so
    /// the cover walk needs no per-pass sorting.
    free_start: Vec<u32>,
    /// Coefficients of the free terms, row-major over the active list.
    free_coeff: Vec<i64>,
    /// Literals of the free terms (parallel to `free_coeff`).
    free_lit: Vec<Lit>,
    /// Objective costs of the free literals (parallel to `free_coeff`).
    free_cost: Vec<i64>,
    /// Free weight of each active row at materialization time (the
    /// no-implications fast path of `recompute_rows`).
    free_sum0: Vec<i64>,
    /// Largest free coefficient of each active row: rows whose max
    /// coefficient fits in the slack can be skipped by the closure
    /// without scanning a single term.
    free_max: Vec<i64>,
    /// Number of locally implied variables this call; 0 enables the
    /// fast paths above.
    num_local: u32,
    // --- scratch ---
    /// Scratch: (position in active list, fractional cover cost).
    scored: Vec<(u32, f64, f64)>,
    /// Scratch: last selection stamp per variable (epoch-cleared).
    used_stamp: Vec<u32>,
    /// Scratch: local implied-value stamp per variable.
    val_stamp: Vec<u32>,
    /// Scratch: local implied value, valid when stamped this call.
    val: Vec<bool>,
    /// Scratch: selection stamp per variable for `sel_cost`.
    sel_stamp: Vec<u32>,
    /// Scratch: cover cost of the selected row containing the variable.
    sel_cost: Vec<f64>,
    /// Scratch: per-active-row adjusted residual rhs under local values.
    need: Vec<i64>,
    /// Scratch: per-active-row free weight under local values.
    free_sum: Vec<i64>,
    /// Rows (original indices) whose false literals explain implications.
    expl_rows: Vec<u32>,
    /// Scratch: implied literals of the row under examination.
    implied_here: Vec<Lit>,
    /// Current stamp counter (shared by all stamped scratch arrays).
    stamp: u32,
}

impl Default for MisBound {
    fn default() -> MisBound {
        MisBound {
            implied: true,
            free_start: Vec::new(),
            free_coeff: Vec::new(),
            free_lit: Vec::new(),
            free_cost: Vec::new(),
            free_sum0: Vec::new(),
            free_max: Vec::new(),
            num_local: 0,
            scored: Vec::new(),
            used_stamp: Vec::new(),
            val_stamp: Vec::new(),
            val: Vec::new(),
            sel_stamp: Vec::new(),
            sel_cost: Vec::new(),
            need: Vec::new(),
            free_sum: Vec::new(),
            expl_rows: Vec::new(),
            implied_here: Vec::new(),
            stamp: 0,
        }
    }
}

/// Outcome of one closure pass.
enum ClosureStep {
    /// Fixpoint reached; accumulated objective cost of implied literals.
    Done,
    /// A row (by active position) cannot be satisfied under the local
    /// implications.
    Infeasible(usize),
}

impl MisBound {
    /// Creates the bound procedure (implied-literal reasoning enabled).
    pub fn new() -> MisBound {
        MisBound::default()
    }

    /// Creates the bound procedure with implied-literal reasoning
    /// switched on or off (the plain paper MIS), for ablations.
    pub fn with_implied(implied: bool) -> MisBound {
        MisBound { implied, ..MisBound::default() }
    }

    /// Returns `true` if implied-literal reasoning is enabled.
    pub fn implied_enabled(&self) -> bool {
        self.implied
    }

    /// Bumps the shared stamp counter, clearing every stamped array on
    /// wrap-around (once every 2^32 bumps).
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.used_stamp.iter_mut().for_each(|s| *s = 0);
            self.val_stamp.iter_mut().for_each(|s| *s = 0);
            self.sel_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Local implied value of a variable this call, if any.
    #[inline]
    fn local_value(&self, val_epoch: u32, var: usize) -> Option<bool> {
        if self.val_stamp[var] == val_epoch {
            Some(self.val[var])
        } else {
            None
        }
    }

    /// Materializes the free terms of every active row into the flat
    /// per-call CSR scratch — one filtered pass over the residual,
    /// amortized over every later closure/greedy/fixing iteration. Each
    /// row's span is stored pre-sorted in fractional-cover order
    /// (ascending cost-per-unit, stable in term order), and the row's
    /// free weight and maximum coefficient are captured for the
    /// no-implication fast paths.
    fn materialize(&mut self, sub: &Subproblem<'_>, active: &[ActiveEntry]) {
        self.free_start.clear();
        self.free_coeff.clear();
        self.free_lit.clear();
        self.free_cost.clear();
        self.free_sum0.clear();
        self.free_max.clear();
        self.free_start.push(0);
        let arena = sub.instance().arena();
        let assignment = sub.assignment();
        for e in active {
            let mut sum = 0i64;
            let mut max = 0i64;
            // Walk the instance's precomputed cover order (a filtered
            // subsequence of a sorted sequence is sorted), gathering the
            // free terms — no ratio arithmetic, no sorting. The order is
            // a build-time invariant of the immutable instance.
            for &p in arena.cover_order(e.index as usize) {
                let t = arena.term_at(p as usize);
                if assignment.lit_value(t.lit) != pbo_core::Value::Unassigned {
                    continue;
                }
                self.free_coeff.push(t.coeff);
                self.free_lit.push(t.lit);
                self.free_cost.push(sub.lit_cost(t.lit));
                sum += t.coeff;
                max = max.max(t.coeff);
            }
            self.free_start.push(self.free_coeff.len() as u32);
            self.free_sum0.push(sum);
            self.free_max.push(max);
        }
    }

    /// Span of active-row position `k` in the `free_*` arrays.
    #[inline]
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.free_start[k] as usize..self.free_start[k + 1] as usize
    }

    /// Recomputes `need` / `free_sum` of every active row under the
    /// current local implications. O(active) with no implications (the
    /// common case — copied from the materialization sums), O(free
    /// terms) otherwise.
    fn recompute_rows(&mut self, active: &[ActiveEntry], val_epoch: u32) {
        self.need.clear();
        self.free_sum.clear();
        if self.num_local == 0 {
            self.need.extend(active.iter().map(|e| e.residual_rhs));
            self.free_sum.extend_from_slice(&self.free_sum0);
            return;
        }
        for (k, e) in active.iter().enumerate() {
            let mut need = e.residual_rhs;
            let mut free = 0i64;
            for i in self.span(k) {
                match self.local_value(val_epoch, self.free_lit[i].var().index()) {
                    Some(v) if v == self.free_lit[i].is_positive() => need -= self.free_coeff[i],
                    Some(_) => {} // locally falsified: contributes nothing
                    None => free += self.free_coeff[i],
                }
            }
            self.need.push(need);
            self.free_sum.push(free);
        }
    }

    /// Records a locally implied literal. Returns `false` on
    /// contradiction (the opposite value was already implied).
    fn imply(
        &mut self,
        sub: &Subproblem<'_>,
        lit: Lit,
        source_row: u32,
        val_epoch: u32,
        implied_cost: &mut i64,
    ) -> bool {
        let v = lit.var().index();
        match self.local_value(val_epoch, v) {
            Some(cur) if cur == lit.is_positive() => true,
            Some(_) => {
                self.expl_rows.push(source_row);
                false
            }
            None => {
                self.val_stamp[v] = val_epoch;
                self.val[v] = lit.is_positive();
                self.num_local += 1;
                *implied_cost += sub.lit_cost(lit);
                self.expl_rows.push(source_row);
                true
            }
        }
    }

    /// Unit-implication closure over the active rows: repeatedly implies
    /// literals a row cannot do without and re-evaluates every row under
    /// the grown implication set, until fixpoint (or the round cap).
    fn closure(
        &mut self,
        sub: &Subproblem<'_>,
        active: &[ActiveEntry],
        val_epoch: u32,
        implied_cost: &mut i64,
    ) -> ClosureStep {
        for _ in 0..MAX_CLOSURE_ROUNDS {
            self.recompute_rows(active, val_epoch);
            let mut changed = false;
            for (k, e) in active.iter().enumerate() {
                if self.need[k] <= 0 {
                    continue;
                }
                if self.free_sum[k] < self.need[k] {
                    return ClosureStep::Infeasible(k);
                }
                let slack = self.free_sum[k] - self.need[k];
                // No term of the row can exceed the slack and no local
                // value touches it: nothing to imply, skip the scan.
                // (With implications around, `free_max` may count a
                // locally-valued term, so the shortcut only applies to
                // the implication-free state.)
                if self.num_local == 0 && self.free_max[k] <= slack {
                    continue;
                }
                // Free literals the row cannot be satisfied without.
                // (Free weight is recomputed per round, so implications
                // made earlier this round only under-trigger — sound.)
                let mut implied_here = std::mem::take(&mut self.implied_here);
                implied_here.clear();
                for i in self.span(k) {
                    if self.local_value(val_epoch, self.free_lit[i].var().index()).is_some() {
                        continue;
                    }
                    if self.free_coeff[i] > slack {
                        implied_here.push(self.free_lit[i]);
                    }
                }
                for i in 0..implied_here.len() {
                    changed = true;
                    if !self.imply(sub, implied_here[i], e.index, val_epoch, implied_cost) {
                        self.implied_here = implied_here;
                        return ClosureStep::Infeasible(k);
                    }
                }
                self.implied_here = implied_here;
            }
            if !changed {
                break;
            }
        }
        ClosureStep::Done
    }

    /// Fractional minimum cost of satisfying one residual row in
    /// isolation under the local implications: fill the adjusted residual
    /// requirement with the cheapest cost-per-unit free literals (the
    /// single-constraint LP optimum). The row's span is already stored
    /// in cover order, so this is a plain walk — no per-pass sorting.
    /// Infinite when the requirement is unreachable.
    fn fractional_cover_cost(&mut self, k: usize, need: i64, val_epoch: u32) -> f64 {
        let mut left = need;
        let mut total = 0.0;
        let filter = self.num_local > 0;
        for i in self.span(k) {
            if left <= 0 {
                break;
            }
            if filter && self.local_value(val_epoch, self.free_lit[i].var().index()).is_some() {
                continue;
            }
            let coeff = self.free_coeff[i];
            let cost = self.free_cost[i];
            if coeff >= left {
                total += cost as f64 * left as f64 / coeff as f64;
                left = 0;
            } else {
                total += cost as f64;
                left -= coeff;
            }
        }
        if left > 0 {
            f64::INFINITY
        } else {
            total
        }
    }

    /// One greedy scoring + selection pass over the active rows. Returns
    /// `Err(k)` when row `k` cannot be covered at all, else the pass
    /// total; selected rows extend `explanation` with their false
    /// literals and stamp `sel_cost` for the fixing pass.
    #[allow(clippy::too_many_arguments)]
    fn greedy_pass(
        &mut self,
        sub: &Subproblem<'_>,
        active: &[ActiveEntry],
        val_epoch: u32,
        implied_cost: i64,
        upper: Option<i64>,
        explanation: &mut Vec<Lit>,
    ) -> Result<f64, usize> {
        self.recompute_rows(active, val_epoch);
        self.scored.clear();
        #[allow(clippy::needless_range_loop)] // k also indexes the free-term spans
        for k in 0..active.len() {
            let need = self.need[k];
            if need <= 0 {
                continue; // satisfied by local implications
            }
            let cost = self.fractional_cover_cost(k, need, val_epoch);
            if cost.is_infinite() {
                return Err(k);
            }
            if cost > 0.0 {
                // The Coudert weight (contribution per touched variable)
                // is precomputed so the sort comparator is division-free.
                let weighted = cost / (1.0 + active[k].free_count as f64);
                self.scored.push((k as u32, cost, weighted));
            }
        }
        // Coudert-style greedy: prefer high contribution per touched
        // variable, then larger contribution, then active position —
        // the explicit position tie-break reproduces the stable order
        // with an allocation-free unstable sort.
        self.scored.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.0.cmp(&b.0))
        });
        let sel_epoch = self.next_stamp();
        let scored = std::mem::take(&mut self.scored);
        let filter = self.num_local > 0;
        let mut total = 0.0;
        for &(k, cost, _) in &scored {
            let e = &active[k as usize];
            let index = e.index as usize;
            // A row whose free (non-locally-implied) variables intersect
            // an already selected row is dependent: skip it.
            let mut clashes = false;
            for i in self.span(k as usize) {
                let v = self.free_lit[i].var().index();
                if (!filter || self.local_value(val_epoch, v).is_none())
                    && self.used_stamp[v] == sel_epoch
                {
                    clashes = true;
                    break;
                }
            }
            if clashes {
                continue;
            }
            for i in self.span(k as usize) {
                let v = self.free_lit[i].var().index();
                if !filter || self.local_value(val_epoch, v).is_none() {
                    self.used_stamp[v] = sel_epoch;
                    self.sel_stamp[v] = sel_epoch;
                    self.sel_cost[v] = cost;
                }
            }
            total += cost;
            explanation.extend(sub.false_literals(index));
            if let Some(ub) = upper {
                // Early exit once the bound already prunes.
                if sub.path_cost() + implied_cost + ceil_eps(total) >= ub {
                    break;
                }
            }
        }
        self.scored = scored;
        Ok(total)
    }

    /// Assembles the explanation in place: selected-row false literals
    /// already in `explanation`, plus the false literals of every closure
    /// source row, deduplicated.
    fn finish_explanation(&mut self, sub: &Subproblem<'_>, explanation: &mut Vec<Lit>) {
        for &row in &self.expl_rows {
            explanation.extend(sub.false_literals(row as usize));
        }
        explanation.sort_unstable();
        explanation.dedup();
    }

    /// Writes an infeasibility verdict for `row` into `out`. A
    /// `conditional` verdict rests on reduced-cost fixings, which are
    /// implied by the incumbent bound, not the instance alone: it is a
    /// *bound* fact (no completion cheaper than `upper`), not true
    /// infeasibility.
    fn infeasible_into(
        &mut self,
        sub: &Subproblem<'_>,
        row: u32,
        conditional: bool,
        upper: Option<i64>,
        out: &mut LbOutcome,
    ) {
        self.expl_rows.push(row);
        self.finish_explanation(sub, &mut out.explanation);
        match (conditional, upper) {
            (true, Some(u)) => {
                out.bound = u;
                out.infeasible = false;
            }
            // Conditional wipeout but no incumbent passed: only
            // completions cheaper than an incumbent this caller does
            // not know were refuted, so nothing may be claimed —
            // fall back to the trivial (non-pruning) bound.
            (true, None) => {
                out.bound = sub.path_cost();
                out.infeasible = false;
            }
            (false, _) => {
                out.bound = i64::MAX;
                out.infeasible = true;
            }
        }
    }
}

/// Integer ceiling with the epsilon guard used throughout the bounds.
#[inline]
fn ceil_eps(x: f64) -> i64 {
    (x - 1e-9).ceil() as i64
}

impl LowerBound for MisBound {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        out.explanation.clear();
        let active = sub.active();
        let num_vars = sub.instance().num_vars();
        if self.used_stamp.len() < num_vars {
            self.used_stamp.resize(num_vars, 0);
            self.val_stamp.resize(num_vars, 0);
            self.val.resize(num_vars, false);
            self.sel_stamp.resize(num_vars, 0);
            self.sel_cost.resize(num_vars, 0.0);
        }
        self.expl_rows.clear();
        self.num_local = 0;
        self.materialize(sub, active);
        // A call consumes at most 3 stamps (implied values + two greedy
        // passes); a mid-call wrap would clear the implied-value state
        // between phases, so force the wrap here if one is near.
        if self.stamp >= u32::MAX - 3 {
            self.stamp = u32::MAX;
            let _ = self.next_stamp();
        }
        let val_epoch = self.next_stamp();
        let mut implied_cost = 0i64;

        // --- Pass 0: implication closure over the raw residual. ---
        if self.implied {
            match self.closure(sub, active, val_epoch, &mut implied_cost) {
                ClosureStep::Done => {}
                ClosureStep::Infeasible(k) => {
                    return self.infeasible_into(sub, active[k].index, false, upper, out);
                }
            }
        } else {
            // Plain MIS still needs the per-row requirements.
            self.recompute_rows(active, val_epoch);
        }

        // --- Pass 1: greedy independent-set partition. ---
        let mut total = match self.greedy_pass(
            sub,
            active,
            val_epoch,
            implied_cost,
            upper,
            &mut out.explanation,
        ) {
            Ok(t) => t,
            Err(k) => {
                // Closure implications are entailed by the instance's
                // rows alone, so the verdict is unconditional.
                return self.infeasible_into(sub, active[k].index, false, upper, out);
            }
        };
        let mut bound = sub.path_cost() + implied_cost + ceil_eps(total);

        // --- Pass 2 (optional): reduced-cost fixing against `upper`. ---
        // A free costed literal whose cost plus the bound portions
        // independent of its variable reaches `upper` cannot be true in
        // any improving completion; fixing it shrinks rows, which can
        // cascade into implications or a (bound-conditional) wipeout.
        if self.implied {
            if let (Some(u), Some(obj)) = (upper, sub.instance().objective()) {
                if bound < u {
                    let path = sub.path_cost();
                    let mut fixed_any = false;
                    for &(c, l) in obj.terms() {
                        if c <= 0
                            || sub.assignment().lit_value(l) != pbo_core::Value::Unassigned
                            || self.local_value(val_epoch, l.var().index()).is_some()
                        {
                            continue;
                        }
                        let v = l.var().index();
                        let sel =
                            if self.sel_stamp[v] == self.stamp { self.sel_cost[v] } else { 0.0 };
                        let independent = total - sel;
                        if path + implied_cost + ceil_eps(independent) + c >= u {
                            self.val_stamp[v] = val_epoch;
                            self.val[v] = !l.is_positive();
                            self.num_local += 1;
                            fixed_any = true;
                        }
                    }
                    if fixed_any {
                        match self.closure(sub, active, val_epoch, &mut implied_cost) {
                            ClosureStep::Done => {}
                            ClosureStep::Infeasible(k) => {
                                return self.infeasible_into(
                                    sub,
                                    active[k].index,
                                    true,
                                    upper,
                                    out,
                                );
                            }
                        }
                        match self.greedy_pass(
                            sub,
                            active,
                            val_epoch,
                            implied_cost,
                            upper,
                            &mut out.explanation,
                        ) {
                            Ok(t) => total = t,
                            Err(k) => {
                                return self.infeasible_into(
                                    sub,
                                    active[k].index,
                                    true,
                                    upper,
                                    out,
                                );
                            }
                        }
                        // Both passes produced valid bounds; keep the max.
                        bound = bound.max(sub.path_cost() + implied_cost + ceil_eps(total));
                    }
                }
            }
        }
        self.finish_explanation(sub, &mut out.explanation);
        out.bound = bound;
        out.infeasible = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{brute_force, Assignment, InstanceBuilder, Var};

    #[test]
    fn disjoint_clauses_add_up() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[2].positive(), v[3].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (5, v[2].positive()),
            (4, v[3].positive()),
        ]);
        let inst = b.build().unwrap();
        let a = Assignment::new(4);
        let out = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(out.bound, 2 + 4);
        assert!(!out.infeasible);
    }

    #[test]
    fn overlapping_constraints_counted_once() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.minimize(v.iter().map(|x| (1, x.positive())));
        let inst = b.build().unwrap();
        let a = Assignment::new(3);
        let out = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
        // Constraints share x2: only one can be selected.
        assert_eq!(out.bound, 1);
    }

    #[test]
    fn fractional_cover_of_general_constraint() {
        // 3x1 + 2x2 >= 4 with costs 3, 4. Plain fractional cover: x1
        // covers 3, x2 covers the remaining 1 of 2 -> 3 + 4*0.5 = 5. The
        // closure sees both literals are forced (5 - 3 < 4, 5 - 2 < 4)
        // and reaches the true optimum 7.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_linear(vec![(3, v[0].positive()), (2, v[1].positive())], pbo_core::RelOp::Ge, 4);
        b.minimize([(3, v[0].positive()), (4, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let plain = MisBound::with_implied(false).lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(plain.bound, 5);
        let implied = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(implied.bound, 7);
        assert_eq!(brute_force(&inst).cost(), Some(7));
    }

    #[test]
    fn implied_literals_raise_the_bound() {
        // 3x1 + x2 >= 3 forces x1 (cost 4): plain fractional cover gives
        // 3/4 of x1's cost-per-unit mix; the closure pockets the full 4.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_linear(vec![(3, v[0].positive()), (1, v[1].positive())], pbo_core::RelOp::Ge, 3);
        b.minimize([(4, v[0].positive()), (0, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let plain = MisBound::with_implied(false).lower_bound(&Subproblem::new(&inst, &a), None);
        let implied = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
        assert_eq!(implied.bound, 4, "x1 is implied, its cost is certain");
        assert!(plain.bound <= implied.bound);
        assert_eq!(brute_force(&inst).cost(), Some(4));
    }

    #[test]
    fn closure_detects_cross_row_contradiction() {
        // Row 1 forces x1 (3x1 + x2 >= 3), row 2 forces ~x1
        // (3~x1 + x3 >= 3): the residual is infeasible before any
        // single-row check sees it.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_linear(vec![(3, v[0].positive()), (1, v[1].positive())], pbo_core::RelOp::Ge, 3);
        b.add_linear(vec![(3, v[0].negative()), (1, v[2].positive())], pbo_core::RelOp::Ge, 3);
        b.minimize([(1, v[1].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(3);
        let out = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(out.infeasible, "closure must find the x1 contradiction");
        assert_eq!(brute_force(&inst).cost(), None, "instance really is infeasible");
        // Plain MIS misses it (both rows are individually coverable).
        let plain = MisBound::with_implied(false).lower_bound(&Subproblem::new(&inst, &a), None);
        assert!(!plain.infeasible);
    }

    #[test]
    fn reduced_cost_fixing_prunes_via_upper() {
        // Clauses {x1, x2} and {x2, x3}, costs 5/9/5, upper = 9. Greedy
        // selects one clause (they overlap on x2): bound 5, no prune.
        // Fixing: x2 true already costs 9 >= upper, so x2 is fixed
        // false; the closure then forces both x1 and x3 (5 + 5 = 10 >=
        // 9) — the node prunes where plain MIS cannot.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.minimize([(5, v[0].positive()), (9, v[1].positive()), (5, v[2].positive())]);
        let inst = b.build().unwrap();
        let a = Assignment::new(3);
        let sub = Subproblem::new(&inst, &a);
        let plain = MisBound::with_implied(false).lower_bound(&sub, Some(9));
        assert!(!plain.prunes(9), "plain MIS must not see it: bound {}", plain.bound);
        let fixed = MisBound::new().lower_bound(&sub, Some(9));
        assert!(fixed.prunes(9), "fixing must prune: bound {}", fixed.bound);
        assert!(!fixed.infeasible, "upper-conditional wipeout must stay a bound fact");
        // Soundness: the optimum really is >= 9 (x2 alone costs 9).
        assert_eq!(brute_force(&inst).cost(), Some(9));
    }

    #[test]
    fn bound_never_exceeds_optimum_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x415);
        for round in 0..50 {
            let n = rng.gen_range(3..9);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(2..7) {
                let k = rng.gen_range(1..=3.min(n));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                b.add_at_least(1, idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.8))));
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..5), v.positive())));
            let inst = b.build().unwrap();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let a = Assignment::new(n);
            let out = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), None);
            assert!(!out.infeasible, "round {round}");
            assert!(out.bound <= opt, "round {round}: MIS bound {} > optimum {opt}", out.bound);
        }
    }

    #[test]
    fn bound_valid_under_partial_assignment() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, v.iter().map(|x| x.positive()));
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();
        let mut a = Assignment::new(4);
        a.assign(Var::new(0), false);
        let sub = Subproblem::new(&inst, &a);
        let out = MisBound::new().lower_bound(&sub, None);
        // Best completion: x2 + x3 = 2 + 3 = 5; fractional bound <= 5 and
        // >= cheapest pair fraction (2 per unit * 2 units = 4-ish).
        assert!(out.bound <= 5);
        assert!(out.bound >= 4);
    }

    #[test]
    fn explanation_lists_false_literals_of_selected() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([(1, v[1].positive()), (1, v[2].positive())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), false);
        let sub = Subproblem::new(&inst, &a);
        let out = MisBound::new().lower_bound(&sub, None);
        assert_eq!(out.bound, 1);
        assert_eq!(out.explanation, vec![v[0].positive()]);
    }

    #[test]
    fn infeasible_residual_reported() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_at_least(2, [v[0].positive(), v[1].positive()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), false);
        // x1 false makes the cardinality constraint unsatisfiable; a
        // propagating solver would have caught it, but the bound must cope.
        let sub = Subproblem::new(&inst, &a);
        let out = MisBound::new().lower_bound(&sub, None);
        assert!(out.infeasible);
        assert_eq!(out.explanation, vec![v[0].positive()]);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_calls() {
        // The same MisBound instance must return identical outcomes when
        // called repeatedly on different subproblems (buffer reuse must
        // not leak state between calls).
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[2].positive(), v[3].positive()]);
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 2) as i64, x.positive())));
        let inst = b.build().unwrap();
        let mut shared = MisBound::new();
        for round in 0..4 {
            let mut a = Assignment::new(4);
            if round % 2 == 1 {
                a.assign(Var::new(0), true);
            }
            let sub = Subproblem::new(&inst, &a);
            let from_shared = shared.lower_bound(&sub, None);
            let from_fresh = MisBound::new().lower_bound(&sub, None);
            assert_eq!(from_shared, from_fresh, "round {round}");
        }
    }

    #[test]
    fn into_variant_reuses_the_outcome_buffer() {
        // lower_bound_into must produce the same result as lower_bound
        // while writing into a caller-owned (reused) LbOutcome.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[2].positive(), v[3].positive()]);
        b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
        let inst = b.build().unwrap();
        let mut mis = MisBound::new();
        let mut out = LbOutcome::bound(0, Vec::new());
        for round in 0..3 {
            let mut a = Assignment::new(4);
            if round == 1 {
                a.assign(Var::new(2), false);
            }
            let sub = Subproblem::new(&inst, &a);
            mis.lower_bound_into(&sub, Some(100), &mut out);
            let fresh = MisBound::new().lower_bound(&sub, Some(100));
            assert_eq!(out, fresh, "round {round}");
        }
    }

    #[test]
    fn fixing_never_cuts_off_improving_solutions_randomized() {
        // The semantic the solver relies on: whenever a feasible
        // completion strictly cheaper than `upper` exists, the outcome
        // must neither claim infeasibility nor report a bound above that
        // completion's cost.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5150);
        for round in 0..60 {
            let n = rng.gen_range(3..8);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(2..6) {
                let k = rng.gen_range(1..=3.min(n));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                let terms: Vec<(i64, Lit)> = idxs[..k]
                    .iter()
                    .map(|&i| (rng.gen_range(1..4), vars[i].lit(rng.gen_bool(0.75))))
                    .collect();
                let maxw: i64 = terms.iter().map(|t| t.0).sum();
                b.add_linear(terms, pbo_core::RelOp::Ge, rng.gen_range(1..=maxw));
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..7), v.positive())));
            let inst = b.build().unwrap();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let upper = opt + rng.gen_range(1i64..5);
            let a = Assignment::new(n);
            let out = MisBound::new().lower_bound(&Subproblem::new(&inst, &a), Some(upper));
            // opt < upper, so an improving completion exists: pruning it
            // away would be unsound.
            assert!(!out.infeasible, "round {round}: spurious infeasibility");
            assert!(
                out.bound <= opt,
                "round {round}: bound {} exceeds optimum {opt} (upper {upper})",
                out.bound
            );
        }
    }
}
