//! Normalized pseudo-Boolean constraints.
//!
//! Every constraint in this crate is kept in the *normal form* used by the
//! DATE'05 paper (eq. 1):
//!
//! ```text
//! sum_j  a_j * l_j  >=  b      with  a_j >= 1,  b >= 1,
//! ```
//!
//! where each `l_j` is a literal and each variable appears at most once.
//! Additionally coefficients are *saturated* (`a_j <= b`), which preserves
//! the 0-1 solution set and keeps slack arithmetic small. Construction from
//! arbitrary `<=` / `>=` / `=` linear constraints is handled by
//! [`normalize`](crate::normalize).

use std::fmt;

use crate::assignment::{Assignment, Value};
use crate::lit::Lit;

/// One weighted literal `coeff * lit` of a normalized constraint.
///
/// In a normalized constraint `coeff` is always in `1..=rhs`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PbTerm {
    /// Positive coefficient of the literal.
    pub coeff: i64,
    /// The literal itself.
    pub lit: Lit,
}

impl PbTerm {
    /// Creates a term `coeff * lit`.
    #[inline]
    pub fn new(coeff: i64, lit: Lit) -> PbTerm {
        PbTerm { coeff, lit }
    }
}

/// Structural class of a normalized constraint, in increasing generality.
///
/// The class determines which propagation scheme the engine uses and which
/// inference rules (sec. 5 of the paper) apply.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintClass {
    /// Every literal alone satisfies the constraint (`a_j == b` for all
    /// `j`): a propositional clause.
    Clause,
    /// All coefficients are equal but smaller than the right-hand side:
    /// `k * (l_1 + ... + l_n) >= b`, i.e. "at least `ceil(b/k)` literals".
    Cardinality,
    /// General pseudo-Boolean constraint with mixed coefficients.
    General,
}

/// A normalized pseudo-Boolean `>=` constraint.
///
/// Invariants (checked in debug builds, guaranteed by
/// [`normalize`](crate::normalize) and the checked constructors):
///
/// * all coefficients are in `1..=rhs()`,
/// * terms are sorted by variable index and each variable appears once,
/// * `rhs >= 1`.
///
/// A constraint with *no terms* and `rhs >= 1` is the unsatisfiable
/// constraint (`0 >= b`); it is representable so that normalization of a
/// contradictory input has somewhere to go.
///
/// # Examples
///
/// ```
/// use pbo_core::{Lit, PbConstraint, ConstraintClass};
///
/// // 2*x1 + ~x2 + x3 >= 2
/// let c = PbConstraint::try_new(
///     vec![(2, Lit::new(0, true)), (1, Lit::new(1, false)), (1, Lit::new(2, true))],
///     2,
/// ).unwrap();
/// assert_eq!(c.class(), ConstraintClass::General);
/// assert_eq!(c.rhs(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PbConstraint {
    terms: Vec<PbTerm>,
    rhs: i64,
}

/// Error returned by [`PbConstraint::try_new`] when the input is not in
/// normal form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConstraintError {
    /// A coefficient was zero or negative.
    NonPositiveCoefficient(i64),
    /// The right-hand side was zero or negative (the constraint would be
    /// trivially true after normalization).
    NonPositiveRhs(i64),
    /// The same variable appeared in two terms.
    DuplicateVariable(usize),
    /// Total coefficient weight too large for safe slack arithmetic.
    Overflow,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::NonPositiveCoefficient(c) => {
                write!(f, "coefficient {c} is not positive")
            }
            ConstraintError::NonPositiveRhs(b) => {
                write!(f, "right-hand side {b} is not positive")
            }
            ConstraintError::DuplicateVariable(v) => {
                write!(f, "variable x{} appears twice", v + 1)
            }
            ConstraintError::Overflow => write!(f, "coefficient sum overflows"),
        }
    }
}

impl std::error::Error for ConstraintError {}

/// Maximum allowed sum of coefficients in one constraint, chosen so that
/// slack computations (`sum - rhs`) can never overflow `i64`.
pub const MAX_COEFF_SUM: i64 = i64::MAX / 4;

impl PbConstraint {
    /// Creates a normalized constraint from `(coeff, lit)` pairs and a
    /// right-hand side, validating the normal-form invariants.
    ///
    /// Coefficients larger than `rhs` are saturated down to `rhs` (a
    /// solution-set-preserving rewrite). Terms are sorted by variable.
    ///
    /// # Errors
    ///
    /// Returns an error if any coefficient or the right-hand side is not
    /// positive, a variable is repeated, or the coefficient sum exceeds
    /// [`MAX_COEFF_SUM`].
    pub fn try_new(
        terms: impl IntoIterator<Item = (i64, Lit)>,
        rhs: i64,
    ) -> Result<PbConstraint, ConstraintError> {
        if rhs <= 0 {
            return Err(ConstraintError::NonPositiveRhs(rhs));
        }
        let terms = terms.into_iter();
        let mut out: Vec<PbTerm> = Vec::with_capacity(terms.size_hint().0);
        for (coeff, lit) in terms {
            if coeff <= 0 {
                return Err(ConstraintError::NonPositiveCoefficient(coeff));
            }
            out.push(PbTerm::new(coeff.min(rhs), lit));
        }
        out.sort_by_key(|t| t.lit.var());
        for w in out.windows(2) {
            if w[0].lit.var() == w[1].lit.var() {
                return Err(ConstraintError::DuplicateVariable(w[0].lit.var().index()));
            }
        }
        let sum: i64 = out
            .iter()
            .try_fold(0i64, |acc, t| acc.checked_add(t.coeff))
            .ok_or(ConstraintError::Overflow)?;
        if sum > MAX_COEFF_SUM {
            return Err(ConstraintError::Overflow);
        }
        Ok(PbConstraint { terms: out, rhs })
    }

    /// Creates a clause (`l_1 + ... + l_n >= 1`) from literals.
    ///
    /// # Panics
    ///
    /// Panics if the same variable appears twice.
    pub fn clause(lits: impl IntoIterator<Item = Lit>) -> PbConstraint {
        PbConstraint::try_new(lits.into_iter().map(|l| (1, l)), 1)
            .expect("clause literals must mention distinct variables")
    }

    /// Creates a cardinality constraint `l_1 + ... + l_n >= k`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0` or a variable repeats.
    pub fn at_least(k: i64, lits: impl IntoIterator<Item = Lit>) -> PbConstraint {
        PbConstraint::try_new(lits.into_iter().map(|l| (1, l)), k)
            .expect("cardinality constraint must be well-formed")
    }

    /// The terms of the constraint, sorted by variable index.
    #[inline]
    pub fn terms(&self) -> &[PbTerm] {
        &self.terms
    }

    /// The right-hand side `b` of `sum a_j l_j >= b`.
    #[inline]
    pub fn rhs(&self) -> i64 {
        self.rhs
    }

    /// Number of terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the constraint has no terms (and is therefore the
    /// unsatisfiable constraint `0 >= b`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> std::slice::Iter<'_, PbTerm> {
        self.terms.iter()
    }

    /// Sum of all coefficients (the maximum attainable left-hand side).
    pub fn coeff_sum(&self) -> i64 {
        self.terms.iter().map(|t| t.coeff).sum()
    }

    /// Structural class of this constraint (clause, cardinality, general).
    pub fn class(&self) -> ConstraintClass {
        if self.terms.is_empty() {
            return ConstraintClass::General;
        }
        let first = self.terms[0].coeff;
        if self.terms.iter().any(|t| t.coeff != first) {
            return ConstraintClass::General;
        }
        if first == self.rhs {
            ConstraintClass::Clause
        } else {
            ConstraintClass::Cardinality
        }
    }

    /// For a cardinality-class constraint, the number of literals that must
    /// be true: `ceil(rhs / k)`. For a clause this is 1. For general
    /// constraints this is the sound *cardinality reduction* degree: the
    /// minimum number of literals any satisfying assignment sets true
    /// (computed from the largest coefficients, as used by Galena-style
    /// learning).
    pub fn min_true_literals(&self) -> i64 {
        let mut coeffs: Vec<i64> = self.terms.iter().map(|t| t.coeff).collect();
        coeffs.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0i64;
        for (i, c) in coeffs.iter().enumerate() {
            acc += c;
            if acc >= self.rhs {
                return (i + 1) as i64;
            }
        }
        // Unsatisfiable constraint: more literals than exist would be
        // needed; report len + 1 so callers can detect it.
        self.terms.len() as i64 + 1
    }

    /// Returns `true` if no 0-1 assignment can satisfy the constraint
    /// (coefficient sum below the right-hand side).
    pub fn is_unsatisfiable(&self) -> bool {
        self.coeff_sum() < self.rhs
    }

    /// Returns the coefficient of `lit` in this constraint, or 0 if the
    /// literal (with this exact polarity) does not occur.
    pub fn coeff_of(&self, lit: Lit) -> i64 {
        match self.terms.binary_search_by_key(&lit.var(), |t| t.lit.var()) {
            Ok(i) if self.terms[i].lit == lit => self.terms[i].coeff,
            _ => 0,
        }
    }

    /// Sum of coefficients of literals assigned true.
    pub fn true_weight(&self, assignment: &Assignment) -> i64 {
        self.terms
            .iter()
            .filter(|t| assignment.lit_value(t.lit) == Value::True)
            .map(|t| t.coeff)
            .sum()
    }

    /// Slack under a partial assignment: the weight of non-false literals
    /// minus the right-hand side. Negative slack means the constraint is
    /// violated; `slack < coeff(l)` for an unassigned `l` forces `l` true.
    pub fn slack(&self, assignment: &Assignment) -> i64 {
        let non_false: i64 = self
            .terms
            .iter()
            .filter(|t| assignment.lit_value(t.lit) != Value::False)
            .map(|t| t.coeff)
            .sum();
        non_false - self.rhs
    }

    /// Evaluates the constraint under a partial assignment.
    pub fn eval(&self, assignment: &Assignment) -> ConstraintState {
        if self.true_weight(assignment) >= self.rhs {
            ConstraintState::Satisfied
        } else if self.slack(assignment) < 0 {
            ConstraintState::Violated
        } else {
            ConstraintState::Undetermined
        }
    }

    /// Returns `true` if the complete assignment given as a boolean slice
    /// (indexed by variable) satisfies the constraint.
    pub fn is_satisfied_by(&self, values: &[bool]) -> bool {
        let lhs: i64 = self
            .terms
            .iter()
            .filter(|t| {
                let v = values[t.lit.var().index()];
                if t.lit.is_positive() {
                    v
                } else {
                    !v
                }
            })
            .map(|t| t.coeff)
            .sum();
        lhs >= self.rhs
    }

    /// Largest variable index mentioned, or `None` for the empty constraint.
    pub fn max_var_index(&self) -> Option<usize> {
        self.terms.iter().map(|t| t.lit.var().index()).max()
    }
}

/// State of a constraint under a partial assignment.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ConstraintState {
    /// The true literals already reach the right-hand side.
    Satisfied,
    /// The non-false literals can no longer reach the right-hand side.
    Violated,
    /// Neither satisfied nor violated yet.
    Undetermined,
}

impl fmt::Debug for PbConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if t.coeff != 1 {
                write!(f, "{}*", t.coeff)?;
            }
            write!(f, "{:?}", t.lit)?;
        }
        if self.terms.is_empty() {
            write!(f, "0")?;
        }
        write!(f, " >= {}", self.rhs)
    }
}

impl fmt::Display for PbConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    #[test]
    fn try_new_sorts_and_saturates() {
        let c = PbConstraint::try_new(vec![(5, lit(2, true)), (1, lit(0, false))], 2).unwrap();
        assert_eq!(c.terms()[0].lit, lit(0, false));
        assert_eq!(c.terms()[1].coeff, 2, "coefficient saturated to rhs");
    }

    #[test]
    fn try_new_rejects_bad_inputs() {
        assert!(matches!(
            PbConstraint::try_new(vec![(0, lit(0, true))], 1),
            Err(ConstraintError::NonPositiveCoefficient(0))
        ));
        assert!(matches!(
            PbConstraint::try_new(vec![(1, lit(0, true))], 0),
            Err(ConstraintError::NonPositiveRhs(0))
        ));
        assert!(matches!(
            PbConstraint::try_new(vec![(1, lit(0, true)), (1, lit(0, false))], 1),
            Err(ConstraintError::DuplicateVariable(0))
        ));
    }

    #[test]
    fn classification() {
        assert_eq!(
            PbConstraint::clause([lit(0, true), lit(1, false)]).class(),
            ConstraintClass::Clause
        );
        assert_eq!(
            PbConstraint::at_least(2, [lit(0, true), lit(1, true), lit(2, true)]).class(),
            ConstraintClass::Cardinality
        );
        assert_eq!(
            PbConstraint::try_new(vec![(2, lit(0, true)), (1, lit(1, true))], 2).unwrap().class(),
            ConstraintClass::General
        );
        // 2x + 2y >= 2 saturates to a clause.
        assert_eq!(
            PbConstraint::try_new(vec![(2, lit(0, true)), (2, lit(1, true))], 2).unwrap().class(),
            ConstraintClass::Clause
        );
    }

    #[test]
    fn min_true_literals_cases() {
        let clause = PbConstraint::clause([lit(0, true), lit(1, true)]);
        assert_eq!(clause.min_true_literals(), 1);
        let card = PbConstraint::at_least(2, [lit(0, true), lit(1, true), lit(2, true)]);
        assert_eq!(card.min_true_literals(), 2);
        // 3x + 2y + 2z >= 5 : need at least 2 literals (3+2 >= 5).
        let gen =
            PbConstraint::try_new(vec![(3, lit(0, true)), (2, lit(1, true)), (2, lit(2, true))], 5)
                .unwrap();
        assert_eq!(gen.min_true_literals(), 2);
        // Unsatisfiable: 1x >= 3 saturates coeff to 3? No: saturation is
        // min(coeff, rhs) so 1 stays; sum 1 < 3.
        let unsat = PbConstraint::try_new(vec![(1, lit(0, true))], 3).unwrap();
        assert!(unsat.is_unsatisfiable());
        assert_eq!(unsat.min_true_literals(), 2);
    }

    #[test]
    fn slack_and_eval() {
        // 2x1 + x2 + x3 >= 2
        let c =
            PbConstraint::try_new(vec![(2, lit(0, true)), (1, lit(1, true)), (1, lit(2, true))], 2)
                .unwrap();
        let mut a = Assignment::new(3);
        assert_eq!(c.slack(&a), 2);
        assert_eq!(c.eval(&a), ConstraintState::Undetermined);
        a.assign(Var::new(0), false);
        assert_eq!(c.slack(&a), 0);
        assert_eq!(c.eval(&a), ConstraintState::Undetermined);
        a.assign(Var::new(1), true);
        a.assign(Var::new(2), false);
        assert_eq!(c.eval(&a), ConstraintState::Violated);
        let mut b = Assignment::new(3);
        b.assign(Var::new(0), true);
        assert_eq!(c.eval(&b), ConstraintState::Satisfied);
    }

    #[test]
    fn coeff_of_is_polarity_sensitive() {
        let c = PbConstraint::try_new(vec![(2, lit(0, false)), (1, lit(1, true))], 2).unwrap();
        assert_eq!(c.coeff_of(lit(0, false)), 2);
        assert_eq!(c.coeff_of(lit(0, true)), 0);
        assert_eq!(c.coeff_of(lit(2, true)), 0);
    }

    #[test]
    fn is_satisfied_by_complete() {
        let c = PbConstraint::try_new(vec![(1, lit(0, true)), (2, lit(1, false))], 2).unwrap();
        assert!(c.is_satisfied_by(&[true, false]));
        assert!(c.is_satisfied_by(&[false, false]));
        assert!(!c.is_satisfied_by(&[true, true]));
    }

    #[test]
    fn empty_constraint_is_unsat() {
        let c = PbConstraint::try_new(Vec::<(i64, Lit)>::new(), 1).unwrap();
        assert!(c.is_empty());
        assert!(c.is_unsatisfiable());
        assert!(!c.is_satisfied_by(&[]));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    #[test]
    fn display_matches_debug() {
        let c = PbConstraint::try_new(vec![(2, lit(0, true)), (1, lit(1, false))], 2).unwrap();
        assert_eq!(format!("{c}"), format!("{c:?}"));
        assert!(format!("{c}").contains(">= 2"));
    }

    #[test]
    fn eval_on_empty_assignment_space() {
        let c = PbConstraint::try_new(Vec::<(i64, Lit)>::new(), 3).unwrap();
        let a = Assignment::new(0);
        assert_eq!(c.eval(&a), ConstraintState::Violated);
    }

    #[test]
    fn max_var_index_reports_largest() {
        let c = PbConstraint::clause([lit(2, true), lit(7, false)]);
        assert_eq!(c.max_var_index(), Some(7));
        let empty = PbConstraint::try_new(Vec::<(i64, Lit)>::new(), 1).unwrap();
        assert_eq!(empty.max_var_index(), None);
    }

    #[test]
    fn coeff_sum_and_iter_agree() {
        let c = PbConstraint::try_new(vec![(2, lit(0, true)), (3, lit(1, true))], 4).unwrap();
        assert_eq!(c.coeff_sum(), c.iter().map(|t| t.coeff).sum::<i64>());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overflow_guard_rejects_huge_constraints() {
        let result = PbConstraint::try_new(
            vec![(MAX_COEFF_SUM, lit(0, true)), (MAX_COEFF_SUM, lit(1, true))],
            MAX_COEFF_SUM,
        );
        assert!(matches!(result, Err(ConstraintError::Overflow)));
    }
}
