//! Residual view of an instance under a partial assignment.
//!
//! The lower-bounding procedures (sec. 3 of the paper) operate on the
//! constraints *not yet satisfied* by the current assignments, with
//! satisfied weight removed and false literals dropped. [`Subproblem`] is
//! that view. It can be produced two ways:
//!
//! * [`Subproblem::new`] — **rebuild**: re-scan every constraint and
//!   every term, O(instance size). This is the paper's (and the seed
//!   implementation's) behaviour, retained as the differential-testing
//!   oracle;
//! * [`ResidualState::view`](crate::ResidualState::view) —
//!   **incremental**: the per-constraint counters are maintained along
//!   the solver's trail in O(occurrences of the changed variable) per
//!   assignment, and producing the view costs O(active constraints),
//!   never touching satisfied constraints or their terms.
//!
//! Either way the view is identical: the same active set in the same
//! (ascending-index) order, the same residual right-hand sides, free-term
//! counts and path cost — a property pinned by differential tests.
//!
//! Term access goes through the instance's flat CSR/SoA
//! [`TermArena`](pbo_core::TermArena): [`Subproblem::row_terms`] returns
//! borrowed coefficient/literal slices, so iterating the terms of
//! consecutive rows is a linear walk over two contiguous arrays instead
//! of a pointer chase through per-constraint heap blocks.

use pbo_core::{Assignment, ConstraintState, Instance, Lit, PbTerm, RowView, Value};

/// One active (unsatisfied, undetermined) constraint of the residual
/// problem.
///
/// The free terms themselves are not materialized: iterate them with
/// [`Subproblem::free_terms`], which filters the original constraint's
/// terms through the assignment without allocating.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ActiveEntry {
    /// Index of the constraint in the original instance.
    pub index: u32,
    /// Right-hand side still to be covered by free literals
    /// (`rhs - weight of true literals`), always `>= 1`.
    pub residual_rhs: i64,
    /// Number of unassigned literals left in the constraint.
    pub free_count: u32,
}

enum ActiveSlice<'a> {
    Owned(Vec<ActiveEntry>),
    Borrowed(&'a [ActiveEntry]),
}

/// The residual optimization problem under a partial assignment.
///
/// # Examples
///
/// ```
/// use pbo_core::{Assignment, InstanceBuilder, Var};
/// use pbo_bounds::Subproblem;
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_at_least(2, v.iter().map(|x| x.positive()));
/// b.minimize(v.iter().map(|x| (1, x.positive())));
/// let inst = b.build()?;
///
/// let mut a = Assignment::new(3);
/// a.assign(Var::new(0), true);
/// let sub = Subproblem::new(&inst, &a);
/// assert_eq!(sub.path_cost(), 1);
/// assert_eq!(sub.active().len(), 1);
/// assert_eq!(sub.active()[0].residual_rhs, 1); // one more literal needed
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
pub struct Subproblem<'a> {
    instance: &'a Instance,
    assignment: &'a Assignment,
    path_cost: i64,
    active: ActiveSlice<'a>,
    /// Dense per-literal objective costs, available when the view comes
    /// from a [`ResidualState`](crate::ResidualState) (O(1) `lit_cost`).
    costs: Option<&'a [i64]>,
}

impl<'a> Subproblem<'a> {
    /// Builds the residual view by re-scanning the whole instance.
    /// Constraints already satisfied are dropped; violated constraints
    /// are kept as active with their (unreachable) residual — callers run
    /// after propagation, so violated constraints normally cannot occur.
    pub fn new(instance: &'a Instance, assignment: &'a Assignment) -> Subproblem<'a> {
        let path_cost = instance.objective().map_or(0, |o| o.path_cost(assignment));
        let mut active = Vec::new();
        for (index, c) in instance.constraints().iter().enumerate() {
            if c.eval(assignment) == ConstraintState::Satisfied {
                continue;
            }
            let mut satisfied_weight = 0i64;
            let mut free_count = 0u32;
            for t in instance.arena().row(index).terms() {
                match assignment.lit_value(t.lit) {
                    Value::True => satisfied_weight += t.coeff,
                    Value::False => {}
                    Value::Unassigned => free_count += 1,
                }
            }
            let residual_rhs = c.rhs() - satisfied_weight;
            debug_assert!(residual_rhs >= 1, "satisfied constraint slipped through");
            active.push(ActiveEntry { index: index as u32, residual_rhs, free_count });
        }
        Subproblem {
            instance,
            assignment,
            path_cost,
            active: ActiveSlice::Owned(active),
            costs: None,
        }
    }

    /// Assembles a view from already-maintained parts (the incremental
    /// path; see [`ResidualState::view`](crate::ResidualState::view)).
    pub(crate) fn from_parts(
        instance: &'a Instance,
        assignment: &'a Assignment,
        path_cost: i64,
        active: &'a [ActiveEntry],
        costs: &'a [i64],
    ) -> Subproblem<'a> {
        Subproblem {
            instance,
            assignment,
            path_cost,
            active: ActiveSlice::Borrowed(active),
            costs: Some(costs),
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// The current partial assignment.
    pub fn assignment(&self) -> &Assignment {
        self.assignment
    }

    /// The paper's `P.path`: cost already incurred by true literals
    /// (objective offset included).
    pub fn path_cost(&self) -> i64 {
        self.path_cost
    }

    /// Active (unsatisfied) constraints of the residual problem, in
    /// ascending constraint-index order.
    pub fn active(&self) -> &[ActiveEntry] {
        match &self.active {
            ActiveSlice::Owned(v) => v,
            ActiveSlice::Borrowed(s) => s,
        }
    }

    /// Cost incurred if `lit` were assigned true, according to the
    /// objective (0 for unweighted literals).
    pub fn lit_cost(&self, lit: Lit) -> i64 {
        match self.costs {
            Some(costs) => costs[lit.code()],
            None => self.instance.objective().map_or(0, |o| o.cost_of_lit(lit)),
        }
    }

    /// The terms of constraint `index` as parallel coefficient/literal
    /// slices borrowed from the instance's flat arena.
    #[inline]
    pub fn row_terms(&self, index: usize) -> RowView<'a> {
        self.instance.arena().row(index)
    }

    /// The unassigned terms of constraint `index`, in original term
    /// order, without materializing them.
    pub fn free_terms(&self, index: usize) -> impl Iterator<Item = PbTerm> + '_ {
        self.row_terms(index)
            .terms()
            .filter(|t| self.assignment.lit_value(t.lit) == Value::Unassigned)
    }

    /// The literals of constraint `index` currently assigned false — the
    /// building block of the paper's `omega_pl` (eq. 9) — without
    /// materializing them.
    pub fn false_literals(&self, index: usize) -> impl Iterator<Item = Lit> + '_ {
        self.row_terms(index)
            .lits
            .iter()
            .copied()
            .filter(|&l| self.assignment.lit_value(l) == Value::False)
    }

    /// [`Subproblem::false_literals`], collected.
    pub fn false_literals_of(&self, index: usize) -> Vec<Lit> {
        self.false_literals(index).collect()
    }
}

impl std::fmt::Debug for Subproblem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subproblem")
            .field("path_cost", &self.path_cost)
            .field("active", &self.active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{InstanceBuilder, Var};

    #[test]
    fn satisfied_constraints_are_dropped() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        let sub = Subproblem::new(&inst, &a);
        assert_eq!(sub.active().len(), 1);
        assert_eq!(sub.active()[0].index, 1);
    }

    #[test]
    fn residual_rhs_subtracts_true_weight() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_linear(
            vec![(3, v[0].positive()), (2, v[1].positive()), (2, v[2].positive())],
            pbo_core::RelOp::Ge,
            5,
        );
        let inst = b.build().unwrap();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        let sub = Subproblem::new(&inst, &a);
        assert_eq!(sub.active()[0].residual_rhs, 2);
        assert_eq!(sub.active()[0].free_count, 2);
        assert_eq!(sub.free_terms(0).count(), 2);
    }

    #[test]
    fn false_literals_listed_per_constraint() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].negative(), v[2].positive()]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), false);
        a.assign(Var::new(1), true);
        let sub = Subproblem::new(&inst, &a);
        let mut fl = sub.false_literals_of(0);
        fl.sort();
        assert_eq!(fl, vec![v[0].positive(), v[1].negative()]);
    }

    #[test]
    fn path_cost_tracks_true_costed_literals() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(3, v[0].positive()), (4, v[1].negative())]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false); // ~x2 true: costs 4
        let sub = Subproblem::new(&inst, &a);
        assert_eq!(sub.path_cost(), 7);
        assert_eq!(sub.lit_cost(v[1].negative()), 4);
        assert_eq!(sub.lit_cost(v[1].positive()), 0);
    }

    #[test]
    fn empty_assignment_keeps_all_constraints() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive()]);
        b.add_clause([v[1].positive()]);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let sub = Subproblem::new(&inst, &a);
        assert_eq!(sub.active().len(), 2);
        assert_eq!(sub.path_cost(), 0);
    }

    #[test]
    fn free_terms_preserve_term_order() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_linear(
            vec![
                (1, v[0].positive()),
                (2, v[1].positive()),
                (3, v[2].positive()),
                (4, v[3].positive()),
            ],
            pbo_core::RelOp::Ge,
            4,
        );
        let inst = b.build().unwrap();
        let mut a = Assignment::new(4);
        a.assign(Var::new(1), false);
        let sub = Subproblem::new(&inst, &a);
        let coeffs: Vec<i64> = sub.free_terms(0).map(|t| t.coeff).collect();
        assert_eq!(coeffs, vec![1, 3, 4]);
    }

    #[test]
    fn row_terms_borrow_the_arena() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_linear(vec![(2, v[0].positive()), (3, v[1].negative())], pbo_core::RelOp::Ge, 3);
        let inst = b.build().unwrap();
        let a = Assignment::new(2);
        let sub = Subproblem::new(&inst, &a);
        let row = sub.row_terms(0);
        assert_eq!(row.coeffs, inst.arena().row(0).coeffs);
        assert_eq!(row.lits, inst.arena().row(0).lits);
    }
}
