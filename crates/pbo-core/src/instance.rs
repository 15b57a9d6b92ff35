//! Problem instances: a set of normalized constraints plus an optional
//! minimization objective.

use std::fmt;

use crate::arena::TermArena;
use crate::assignment::Assignment;
use crate::constraint::{ConstraintState, PbConstraint};
use crate::lit::{Lit, Var};
use crate::normalize::{NormalizeError, RelOp, TermFold};
use crate::objective::{Objective, ObjectiveError};

/// A linear pseudo-Boolean optimization (or satisfaction) instance.
///
/// This is the paper's problem `P` (eq. 1): minimize a non-negative linear
/// cost subject to normalized `>=` constraints. An instance without an
/// objective is a pure PB-SAT problem (like the `acc-tight` family of
/// Table 1).
///
/// Use [`InstanceBuilder`] to construct instances from arbitrary
/// (unnormalized) constraints.
///
/// # Examples
///
/// ```
/// use pbo_core::{InstanceBuilder, Lit, RelOp};
///
/// let mut b = InstanceBuilder::new();
/// let x = b.new_var();
/// let y = b.new_var();
/// b.add_clause([x.positive(), y.positive()]);
/// b.minimize([(1, x.positive()), (2, y.positive())]);
/// let inst = b.build()?;
/// assert_eq!(inst.num_vars(), 2);
/// assert_eq!(inst.num_constraints(), 1);
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Instance {
    num_vars: usize,
    constraints: Vec<PbConstraint>,
    objective: Option<Objective>,
    name: String,
    /// Flat CSR/SoA mirror of `constraints`, built once at
    /// [`InstanceBuilder::build`] time and borrowed by every hot path.
    arena: TermArena,
}

impl Instance {
    /// Number of variables (the variable space is `0..num_vars`).
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    #[inline]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The normalized constraints.
    #[inline]
    pub fn constraints(&self) -> &[PbConstraint] {
        &self.constraints
    }

    /// The flat CSR/SoA term arena mirroring
    /// [`constraints`](Instance::constraints): contiguous
    /// coefficient/literal arrays with per-row spans plus the
    /// literal → occurrence CSR. The cache-coherent storage every per-node
    /// hot loop (residual maintenance, bound kernels, local search) runs
    /// on; read-only, so it is shared freely across threads.
    #[inline]
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// The minimization objective, if this is an optimization instance.
    #[inline]
    pub fn objective(&self) -> Option<&Objective> {
        self.objective.as_ref()
    }

    /// Instance name (used in benchmark tables and OPB comments).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns `true` if the instance has an objective with at least one
    /// cost term.
    pub fn is_optimization(&self) -> bool {
        self.objective.as_ref().is_some_and(|o| !o.is_constant())
    }

    /// Checks a complete assignment against every constraint.
    pub fn is_feasible(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.num_vars, "assignment length mismatch");
        self.constraints.iter().all(|c| c.is_satisfied_by(values))
    }

    /// Objective value of a complete assignment (0 for pure satisfaction).
    pub fn cost_of(&self, values: &[bool]) -> i64 {
        self.objective.as_ref().map_or(0, |o| o.evaluate(values))
    }

    /// Evaluates every constraint under a partial assignment and returns
    /// the indices of violated ones.
    pub fn violated_constraints(&self, assignment: &Assignment) -> Vec<usize> {
        self.constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.eval(assignment) == ConstraintState::Violated)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of terms across all constraints.
    pub fn num_terms(&self) -> usize {
        self.constraints.iter().map(|c| c.len()).sum()
    }

    /// Renames the instance (builder-style, for generators).
    pub fn with_name(mut self, name: impl Into<String>) -> Instance {
        self.name = name.into();
        self
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Instance \"{}\": {} vars, {} constraints{}",
            self.name,
            self.num_vars,
            self.constraints.len(),
            if self.is_optimization() { ", optimization" } else { ", satisfaction" }
        )?;
        if let Some(obj) = &self.objective {
            writeln!(f, "  {:?}", obj)?;
        }
        for c in &self.constraints {
            writeln!(f, "  {:?}", c)?;
        }
        Ok(())
    }
}

/// Error produced when building an [`Instance`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A constraint failed to normalize.
    Constraint(NormalizeError),
    /// The objective failed to normalize.
    Objective(ObjectiveError),
    /// A literal refers to a variable outside the declared space.
    VarOutOfRange {
        /// Offending variable index.
        var: usize,
        /// Number of declared variables.
        num_vars: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Constraint(e) => write!(f, "constraint error: {e}"),
            BuildError::Objective(e) => write!(f, "objective error: {e}"),
            BuildError::VarOutOfRange { var, num_vars } => {
                write!(f, "variable x{} out of range (instance has {num_vars} vars)", var + 1)
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<NormalizeError> for BuildError {
    fn from(e: NormalizeError) -> BuildError {
        BuildError::Constraint(e)
    }
}

impl From<ObjectiveError> for BuildError {
    fn from(e: ObjectiveError) -> BuildError {
        BuildError::Objective(e)
    }
}

/// Incremental builder for [`Instance`].
///
/// Accepts arbitrary (unnormalized) linear constraints; normalization
/// happens at [`build`](InstanceBuilder::build) time. Trivially true
/// constraints are dropped; contradictory ones are kept (solvers report
/// infeasibility).
#[derive(Clone, Debug, Default)]
pub struct InstanceBuilder {
    num_vars: usize,
    /// Raw `(coeff, lit)` terms of every added constraint, row after row.
    terms: Vec<(i64, Lit)>,
    /// Per added constraint: where its terms end in `terms`, its operator
    /// and its right-hand side.
    rows: Vec<(usize, RelOp, i64)>,
    objective: Option<(Vec<(i64, Lit)>, i64)>,
    name: String,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> InstanceBuilder {
        InstanceBuilder {
            num_vars: 0,
            terms: Vec::new(),
            rows: Vec::new(),
            objective: None,
            name: String::from("unnamed"),
        }
    }

    /// Creates a builder with `num_vars` variables pre-declared.
    pub fn with_vars(num_vars: usize) -> InstanceBuilder {
        let mut b = InstanceBuilder::new();
        b.num_vars = num_vars;
        b
    }

    /// Declares a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Declares `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables declared so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets the instance name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut InstanceBuilder {
        self.name = name.into();
        self
    }

    /// Adds a raw linear constraint `sum coeff*lit OP rhs`.
    pub fn add_linear(
        &mut self,
        terms: impl IntoIterator<Item = (i64, Lit)>,
        op: RelOp,
        rhs: i64,
    ) -> &mut InstanceBuilder {
        self.terms.extend(terms);
        self.rows.push((self.terms.len(), op, rhs));
        self
    }

    /// Adds a clause (`at least one literal true`).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> &mut InstanceBuilder {
        self.add_linear(lits.into_iter().map(|l| (1, l)), RelOp::Ge, 1)
    }

    /// Adds a cardinality constraint `at least k of the literals`.
    pub fn add_at_least(
        &mut self,
        k: i64,
        lits: impl IntoIterator<Item = Lit>,
    ) -> &mut InstanceBuilder {
        self.add_linear(lits.into_iter().map(|l| (1, l)), RelOp::Ge, k)
    }

    /// Adds a cardinality constraint `at most k of the literals`.
    pub fn add_at_most(
        &mut self,
        k: i64,
        lits: impl IntoIterator<Item = Lit>,
    ) -> &mut InstanceBuilder {
        self.add_linear(lits.into_iter().map(|l| (1, l)), RelOp::Le, k)
    }

    /// Adds an exactly-one constraint over the literals.
    pub fn add_exactly_one(&mut self, lits: impl IntoIterator<Item = Lit>) -> &mut InstanceBuilder {
        self.add_linear(lits.into_iter().map(|l| (1, l)), RelOp::Eq, 1)
    }

    /// Adds an implication `a -> b` as the clause `~a \/ b`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) -> &mut InstanceBuilder {
        self.add_clause([!a, b])
    }

    /// Sets the minimization objective from `(cost, lit)` terms (costs may
    /// be arbitrary integers; normalization makes them positive).
    pub fn minimize(
        &mut self,
        terms: impl IntoIterator<Item = (i64, Lit)>,
    ) -> &mut InstanceBuilder {
        self.objective = Some((terms.into_iter().collect(), 0));
        self
    }

    /// Like [`minimize`](Self::minimize) with an additional constant
    /// offset added to every objective value (used when rebuilding
    /// instances whose normalized objective carries an offset).
    pub fn minimize_with_offset(
        &mut self,
        terms: impl IntoIterator<Item = (i64, Lit)>,
        offset: i64,
    ) -> &mut InstanceBuilder {
        self.objective = Some((terms.into_iter().collect(), offset));
        self
    }

    /// Normalizes everything and produces the [`Instance`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on arithmetic overflow or if any literal
    /// mentions an undeclared variable.
    pub fn build(&self) -> Result<Instance, BuildError> {
        let check_var = |l: Lit| -> Result<(), BuildError> {
            if l.var().index() >= self.num_vars {
                Err(BuildError::VarOutOfRange { var: l.var().index(), num_vars: self.num_vars })
            } else {
                Ok(())
            }
        };
        // One fold scratch for every row.
        let mut fold = TermFold::default();
        let mut constraints = Vec::with_capacity(self.rows.len());
        let mut start = 0;
        for &(end, op, rhs) in &self.rows {
            let terms = &self.terms[start..end];
            start = end;
            for &(_, l) in terms {
                check_var(l)?;
            }
            fold.normalize_into(terms, op, rhs, &mut constraints)?;
        }
        let objective = match &self.objective {
            Some((terms, offset)) => {
                for &(_, l) in terms {
                    check_var(l)?;
                }
                Some(Objective::with_offset(terms.iter().copied(), *offset)?)
            }
            None => None,
        };
        let mut arena = TermArena::build(&constraints, self.num_vars);
        // Fractional-cover order per row, fixed for the instance's
        // lifetime: the bound kernels walk it instead of sorting.
        arena.sort_cover_order(|l| objective.as_ref().map_or(0, |o| o.cost_of_lit(l)));
        Ok(Instance {
            num_vars: self.num_vars,
            constraints,
            objective,
            name: self.name.clone(),
            arena,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(3);
        b.name("test");
        b.add_clause([vars[0].positive(), vars[1].positive()]);
        b.add_at_most(1, [vars[1].positive(), vars[2].positive()]);
        b.minimize([(1, vars[0].positive()), (2, vars[1].positive()), (3, vars[2].positive())]);
        let inst = b.build().unwrap();
        assert_eq!(inst.num_vars(), 3);
        assert_eq!(inst.num_constraints(), 2);
        assert_eq!(inst.name(), "test");
        assert!(inst.is_optimization());
        assert!(inst.is_feasible(&[true, false, false]));
        assert_eq!(inst.cost_of(&[true, false, false]), 1);
        assert!(!inst.is_feasible(&[false, false, false]));
    }

    #[test]
    fn exactly_one_expands_to_two_constraints() {
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(2);
        b.add_exactly_one([vars[0].positive(), vars[1].positive()]);
        let inst = b.build().unwrap();
        assert_eq!(inst.num_constraints(), 2);
        assert!(inst.is_feasible(&[true, false]));
        assert!(!inst.is_feasible(&[true, true]));
        assert!(!inst.is_feasible(&[false, false]));
    }

    #[test]
    fn implication_semantics() {
        let mut b = InstanceBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        b.add_implies(x.positive(), y.positive());
        let inst = b.build().unwrap();
        assert!(inst.is_feasible(&[false, false]));
        assert!(inst.is_feasible(&[false, true]));
        assert!(inst.is_feasible(&[true, true]));
        assert!(!inst.is_feasible(&[true, false]));
    }

    #[test]
    fn out_of_range_var_rejected() {
        let mut b = InstanceBuilder::new();
        let _ = b.new_var();
        b.add_clause([Lit::new(5, true)]);
        assert!(matches!(b.build(), Err(BuildError::VarOutOfRange { var: 5, .. })));
    }

    #[test]
    fn satisfaction_instance_has_no_objective() {
        let mut b = InstanceBuilder::new();
        let x = b.new_var();
        b.add_clause([x.positive()]);
        let inst = b.build().unwrap();
        assert!(!inst.is_optimization());
        assert_eq!(inst.cost_of(&[true]), 0);
    }

    #[test]
    fn violated_constraints_reported() {
        let mut b = InstanceBuilder::new();
        let x = b.new_var();
        let y = b.new_var();
        b.add_clause([x.positive()]);
        b.add_clause([y.positive()]);
        let inst = b.build().unwrap();
        let mut a = Assignment::new(2);
        a.assign(x, false);
        assert_eq!(inst.violated_constraints(&a), vec![0]);
    }

    #[test]
    fn debug_output_mentions_name() {
        let mut b = InstanceBuilder::new();
        b.name("dbg");
        let x = b.new_var();
        b.add_clause([x.positive()]);
        let inst = b.build().unwrap();
        assert!(format!("{:?}", inst).contains("dbg"));
    }
}
