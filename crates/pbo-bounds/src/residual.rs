//! Incrementally maintained residual problem — the heart of the
//! lower-bounding hot path.
//!
//! The DATE'05 paper calls a lower-bound procedure at *every* search
//! node, but rebuilding the residual problem from scratch
//! ([`Subproblem::new`]) costs O(instance size) per node: every
//! constraint and every term is re-scanned, which dwarfs the greedy MIS
//! bound itself. [`ResidualState`] instead mirrors the solver's trail:
//!
//! * [`ResidualState::apply`] updates the per-constraint satisfied-weight
//!   and free-term counters, the active (unsatisfied) set, and the path
//!   cost in **O(occurrences of the changed variable)** — the same cost
//!   profile as counter-based PB propagation;
//! * [`ResidualState::unwind_to`] reverses applications exactly, so
//!   backjumps cost O(undone assignments);
//! * [`ResidualState::view`] snapshots the active set into a
//!   [`Subproblem`] in O(active constraints), never touching satisfied
//!   constraints or any term lists.
//!
//! The state owns **no term or occurrence storage of its own**: the
//! rows' occurrence lists are read straight from the instance's
//! flat [`TermArena`](pbo_core::TermArena) CSR (one contiguous block,
//! shared by every consumer — and across local-search worker threads),
//! so `apply`/`unwind` walk two flat arrays instead of pointer-chasing
//! per-literal `Vec`s. Only the per-row counters are state-local.
//!
//! Synchronisation with the search engine uses the engine's one trail
//! low watermark (`Engine::sync_trail` in `pbo-engine`): the engine
//! reports the longest still-valid prefix, and the solver's bound
//! pipeline unwinds this state to it and replays the new suffix — in the
//! same loop as the LP bound's variable-fixing mirror
//! ([`LprBound::apply`](crate::LprBound::apply)), which holds the same
//! prefix. The rebuild path stays available as the differential-testing
//! oracle (see `tests/residual_differential.rs`).

use pbo_core::{Assignment, Instance, Lit};

use crate::subproblem::{ActiveEntry, Subproblem};

/// List-end sentinel of the active linked list.
const NIL: u32 = u32::MAX;

/// The residual problem under the solver's current partial assignment,
/// maintained incrementally along the trail.
///
/// # Examples
///
/// ```
/// use pbo_core::{Assignment, InstanceBuilder, Var};
/// use pbo_bounds::{ResidualState, Subproblem};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_at_least(2, v.iter().map(|x| x.positive()));
/// b.minimize(v.iter().map(|x| (1, x.positive())));
/// let inst = b.build()?;
///
/// let mut state = ResidualState::new(&inst);
/// let mut a = Assignment::new(3);
/// a.assign(Var::new(0), true);
/// state.apply(&inst, v[0].positive());
///
/// let sub = state.view(&inst, &a);
/// assert_eq!(sub.path_cost(), 1);
/// assert_eq!(sub.active()[0].residual_rhs, 1);
///
/// // Identical to a from-scratch rebuild:
/// let oracle = Subproblem::new(&inst, &a);
/// assert_eq!(sub.active(), oracle.active());
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ResidualState {
    // --- static per-instance data (built once; term and occurrence
    // data live in the instance's `TermArena` and are borrowed per call,
    // never copied) ---
    /// Objective cost per literal code (cost incurred when the literal
    /// becomes true).
    lit_cost: Vec<i64>,
    /// Right-hand side per constraint.
    rhs: Vec<i64>,
    // --- dynamic counters ---
    /// Path cost (objective offset included).
    path_cost: i64,
    /// Weight of currently-true literals per constraint.
    sat_weight: Vec<i64>,
    /// Number of unassigned literals per constraint.
    free_count: Vec<u32>,
    /// Active (unsatisfied) constraints as a doubly-linked list in
    /// ascending index order (dancing-links style). Unlinking on
    /// satisfaction is O(1); because unwinding relinks in exact reverse
    /// order (stack discipline), the stale `prev`/`next` of an unlinked
    /// node are still valid at relink time — so the list never needs
    /// sorting and views iterate in ascending order for free.
    active_head: u32,
    active_prev: Vec<u32>,
    active_next: Vec<u32>,
    num_active: usize,
    /// Literals applied so far, in order (the undo stack); its length is
    /// the synchronisation mark for the engine's trail watermark.
    trail: Vec<Lit>,
    /// Reusable view buffer.
    entries: Vec<ActiveEntry>,
}

impl ResidualState {
    /// Builds the state for `instance` with nothing assigned: every
    /// constraint active, counters at their initial values.
    pub fn new(instance: &Instance) -> ResidualState {
        let num_vars = instance.num_vars();
        let arena = instance.arena();
        let m = arena.num_rows();
        let mut rhs = Vec::with_capacity(m);
        let mut free_count = Vec::with_capacity(m);
        for ci in 0..m {
            rhs.push(arena.rhs(ci));
            free_count.push(arena.row_len(ci) as u32);
        }
        let mut lit_cost = vec![0i64; 2 * num_vars];
        let mut path_cost = 0;
        if let Some(obj) = instance.objective() {
            path_cost = obj.offset();
            for &(c, l) in obj.terms() {
                lit_cost[l.code()] = c;
            }
        }
        let active_prev: Vec<u32> =
            (0..m as u32).map(|i| if i == 0 { NIL } else { i - 1 }).collect();
        let active_next: Vec<u32> =
            (0..m as u32).map(|i| if i + 1 == m as u32 { NIL } else { i + 1 }).collect();
        ResidualState {
            lit_cost,
            rhs,
            path_cost,
            sat_weight: vec![0; m],
            free_count,
            active_head: if m == 0 { NIL } else { 0 },
            active_prev,
            active_next,
            num_active: m,
            trail: Vec::with_capacity(num_vars),
            entries: Vec::with_capacity(m),
        }
    }

    /// Number of literals currently applied — the mark to hand to the
    /// engine's `sync_trail`.
    #[inline]
    pub fn len(&self) -> usize {
        self.trail.len()
    }

    /// Returns `true` if no literal is applied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trail.is_empty()
    }

    /// Path cost of the applied literals (objective offset included).
    #[inline]
    pub fn path_cost(&self) -> i64 {
        self.path_cost
    }

    /// Number of currently active (unsatisfied) constraints.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Unlinks `ci` from the active list, leaving its own `prev`/`next`
    /// untouched for the LIFO relink.
    #[inline]
    fn deactivate(&mut self, ci: u32) {
        let p = self.active_prev[ci as usize];
        let n = self.active_next[ci as usize];
        if p == NIL {
            self.active_head = n;
        } else {
            self.active_next[p as usize] = n;
        }
        if n != NIL {
            self.active_prev[n as usize] = p;
        }
        self.num_active -= 1;
    }

    /// Relinks `ci`; valid only in exact reverse order of deactivation
    /// (which [`ResidualState::unwind_to`] guarantees).
    #[inline]
    fn activate(&mut self, ci: u32) {
        let p = self.active_prev[ci as usize];
        let n = self.active_next[ci as usize];
        if p == NIL {
            self.active_head = ci;
        } else {
            self.active_next[p as usize] = ci;
        }
        if n != NIL {
            self.active_prev[n as usize] = ci;
        }
        self.num_active += 1;
    }

    /// Applies one trail literal (the literal became **true**): updates
    /// path cost, satisfied weights, free counts and the active set in
    /// O(occurrences of the literal's variable), reading the occurrence
    /// CSR straight from `instance`'s arena.
    pub fn apply(&mut self, instance: &Instance, lit: Lit) {
        self.path_cost += self.lit_cost[lit.code()];
        let arena = instance.arena();
        // Terms containing `lit` gain satisfied weight (and lose a free
        // term): the constraint may become satisfied.
        let (rows, coeffs) = arena.occurrences(lit);
        for k in 0..rows.len() {
            let ci = rows[k] as usize;
            let coeff = coeffs[k];
            let was = self.sat_weight[ci];
            self.sat_weight[ci] = was + coeff;
            self.free_count[ci] -= 1;
            if was < self.rhs[ci] && was + coeff >= self.rhs[ci] {
                self.deactivate(rows[k]);
            }
        }
        // Terms containing `!lit` merely lose a free term.
        let (neg_rows, _) = arena.occurrences(!lit);
        for &ci in neg_rows {
            self.free_count[ci as usize] -= 1;
        }
        self.trail.push(lit);
    }

    /// Unwinds applied literals until exactly `len` remain (mirror of
    /// [`ResidualState::apply`], in reverse order).
    ///
    /// # Panics
    ///
    /// Panics if more than [`ResidualState::len`] literals would be
    /// unwound.
    pub fn unwind_to(&mut self, instance: &Instance, len: usize) {
        assert!(len <= self.trail.len(), "cannot unwind below an empty trail");
        let arena = instance.arena();
        while self.trail.len() > len {
            let lit = self.trail.pop().expect("checked above");
            let (neg_rows, _) = arena.occurrences(!lit);
            for &ci in neg_rows {
                self.free_count[ci as usize] += 1;
            }
            // Reverse occurrence order: relinks into the active list must
            // mirror the unlinks of `apply` exactly (stack discipline).
            let (rows, coeffs) = arena.occurrences(lit);
            for k in (0..rows.len()).rev() {
                let ci = rows[k] as usize;
                let coeff = coeffs[k];
                let was = self.sat_weight[ci];
                self.sat_weight[ci] = was - coeff;
                self.free_count[ci] += 1;
                if was >= self.rhs[ci] && was - coeff < self.rhs[ci] {
                    self.activate(rows[k]);
                }
            }
            self.path_cost -= self.lit_cost[lit.code()];
        }
    }

    /// Snapshots the current residual problem as a [`Subproblem`] view in
    /// O(active constraints) — no term list is touched.
    ///
    /// `assignment` must be the assignment whose trail this state mirrors
    /// (the bounds use it to enumerate free terms and false literals
    /// lazily); `instance` must be the instance the state was built from.
    pub fn view<'a>(
        &'a mut self,
        instance: &'a Instance,
        assignment: &'a Assignment,
    ) -> Subproblem<'a> {
        debug_assert_eq!(instance.num_constraints(), self.rhs.len(), "instance mismatch");
        debug_assert_eq!(
            self.path_cost,
            instance.objective().map_or(0, |o| o.path_cost(assignment)),
            "path cost drifted from the assignment"
        );
        self.entries.clear();
        // The linked list is maintained in ascending constraint order, so
        // the view's iteration order is bit-identical with the rebuild
        // oracle (greedy tie-breaks match exactly) without any sorting.
        let mut ci = self.active_head;
        while ci != NIL {
            let i = ci as usize;
            let residual_rhs = self.rhs[i] - self.sat_weight[i];
            debug_assert!(residual_rhs >= 1, "satisfied constraint left active");
            self.entries.push(ActiveEntry {
                index: ci,
                residual_rhs,
                free_count: self.free_count[i],
            });
            ci = self.active_next[i];
        }
        debug_assert_eq!(self.entries.len(), self.num_active);
        Subproblem::from_parts(instance, assignment, self.path_cost, &self.entries, &self.lit_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{InstanceBuilder, Var};

    fn assert_matches_rebuild(
        state: &mut ResidualState,
        instance: &Instance,
        assignment: &Assignment,
    ) {
        let oracle = Subproblem::new(instance, assignment);
        let view = state.view(instance, assignment);
        assert_eq!(view.path_cost(), oracle.path_cost(), "path cost");
        assert_eq!(view.active(), oracle.active(), "active set");
    }

    fn demo_instance() -> (Instance, Vec<Var>) {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_linear(
            vec![(3, v[1].positive()), (2, v[2].negative()), (1, v[3].positive())],
            pbo_core::RelOp::Ge,
            4,
        );
        b.add_at_least(2, v.iter().map(|x| x.positive()));
        b.minimize([(2, v[0].positive()), (1, v[1].positive()), (5, v[2].negative())]);
        (b.build().unwrap(), v)
    }

    #[test]
    fn apply_unwind_roundtrip_matches_rebuild() {
        let (inst, v) = demo_instance();
        let mut state = ResidualState::new(&inst);
        let mut a = Assignment::new(4);
        assert_matches_rebuild(&mut state, &inst, &a);

        a.assign(Var::new(1), true);
        state.apply(&inst, v[1].positive());
        assert_matches_rebuild(&mut state, &inst, &a);

        a.assign(Var::new(2), false);
        state.apply(&inst, v[2].negative());
        assert_matches_rebuild(&mut state, &inst, &a);

        a.assign(Var::new(0), false);
        state.apply(&inst, v[0].negative());
        assert_matches_rebuild(&mut state, &inst, &a);

        // Unwind two literals.
        a.unassign(Var::new(0));
        a.unassign(Var::new(2));
        state.unwind_to(&inst, 1);
        assert_matches_rebuild(&mut state, &inst, &a);

        // And everything.
        a.unassign(Var::new(1));
        state.unwind_to(&inst, 0);
        assert_matches_rebuild(&mut state, &inst, &a);
        assert_eq!(state.num_active(), inst.num_constraints());
    }

    #[test]
    fn satisfied_constraints_leave_and_reenter_active_set() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        let inst = b.build().unwrap();
        let mut state = ResidualState::new(&inst);
        assert_eq!(state.num_active(), 1);
        state.apply(&inst, v[0].positive());
        assert_eq!(state.num_active(), 0);
        state.unwind_to(&inst, 0);
        assert_eq!(state.num_active(), 1);
    }

    #[test]
    fn path_cost_counts_negative_literal_costs() {
        let (inst, v) = demo_instance();
        let mut state = ResidualState::new(&inst);
        state.apply(&inst, v[2].negative());
        assert_eq!(state.path_cost(), 5);
        state.unwind_to(&inst, 0);
        assert_eq!(state.path_cost(), 0);
    }

    #[test]
    fn view_exposes_dense_lit_costs() {
        let (inst, v) = demo_instance();
        let mut state = ResidualState::new(&inst);
        let a = Assignment::new(4);
        let view = state.view(&inst, &a);
        assert_eq!(view.lit_cost(v[2].negative()), 5);
        assert_eq!(view.lit_cost(v[2].positive()), 0);
        assert_eq!(view.lit_cost(v[3].positive()), 0);
    }
}
