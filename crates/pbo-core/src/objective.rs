//! Linear minimization objectives.
//!
//! The paper (eq. 1) assumes a non-negative integer cost `c_j` on each
//! *positive* variable. We keep the slightly more general normal form of a
//! cost on each *literal* plus a constant offset, so that objectives such
//! as `min 3*~x1 + 2*x2` round-trip through normalization: `3*~x1` becomes
//! `offset 3, cost -3 on x1`, which is re-normalized to a positive cost on
//! the complementary literal. All costs in the normal form are strictly
//! positive and each variable appears at most once.

use std::fmt;

use crate::assignment::{Assignment, Value};
use crate::lit::{Lit, Var};
use crate::normalize::TermFold;

/// A normalized minimization objective: `minimize offset + sum c_j * l_j`
/// with all `c_j >= 1` and distinct variables.
///
/// "Cost of a literal" means the cost incurred when that literal is
/// assigned *true*. The paper's `P.path` is [`Objective::path_cost`]: the
/// cost of the literals already made true.
///
/// # Examples
///
/// ```
/// use pbo_core::{Lit, Objective};
///
/// // minimize 2*x1 + 3*~x2
/// let obj = Objective::new(vec![(2, Lit::new(0, true)), (3, Lit::new(1, false))]).unwrap();
/// assert_eq!(obj.offset(), 0);
/// assert_eq!(obj.evaluate(&[true, true]), 2); // x1 costs 2, ~x2 is false
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Objective {
    terms: Vec<(i64, Lit)>,
    offset: i64,
}

/// Error returned when an objective cannot be normalized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObjectiveError {
    /// Costs overflowed `i64` during normalization.
    Overflow,
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::Overflow => write!(f, "objective cost overflow"),
        }
    }
}

impl std::error::Error for ObjectiveError {}

impl Objective {
    /// Builds a normalized objective from arbitrary `(cost, lit)` pairs.
    ///
    /// Duplicate variables are merged; negative or zero net costs are
    /// rewritten onto the complementary literal or dropped, adjusting the
    /// constant offset so the represented function is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectiveError::Overflow`] if intermediate sums exceed
    /// `i64` range.
    pub fn new(terms: impl IntoIterator<Item = (i64, Lit)>) -> Result<Objective, ObjectiveError> {
        Objective::with_offset(terms, 0)
    }

    /// Like [`Objective::new`] but with an initial constant offset.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectiveError::Overflow`] if intermediate sums exceed
    /// `i64` range.
    pub fn with_offset(
        terms: impl IntoIterator<Item = (i64, Lit)>,
        offset: i64,
    ) -> Result<Objective, ObjectiveError> {
        // c * ~x == c - c * x and -|c| * x == -|c| + |c| * ~x: the fold
        // returns the constant both rewrites move into the offset.
        let (terms, k) = TermFold::default().fold_owned(terms).ok_or(ObjectiveError::Overflow)?;
        let offset = i64::try_from(offset as i128 + k).map_err(|_| ObjectiveError::Overflow)?;
        Ok(Objective { terms, offset })
    }

    /// An objective with no terms (constant zero): pure satisfaction.
    pub fn empty() -> Objective {
        Objective { terms: Vec::new(), offset: 0 }
    }

    /// The normalized `(cost, literal)` terms, each cost `>= 1`, sorted by
    /// variable.
    #[inline]
    pub fn terms(&self) -> &[(i64, Lit)] {
        &self.terms
    }

    /// The constant offset added to the weighted literal sum.
    #[inline]
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Returns `true` if the objective has no cost terms.
    #[inline]
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of cost terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if there are no cost terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Cost incurred when `lit` is true: the term cost if `lit` matches a
    /// term literal exactly, otherwise 0.
    pub fn cost_of_lit(&self, lit: Lit) -> i64 {
        match self.terms.binary_search_by_key(&lit.var(), |(_, l)| l.var()) {
            Ok(i) if self.terms[i].1 == lit => self.terms[i].0,
            _ => 0,
        }
    }

    /// Cost term on this variable as `(cost, literal)`, if any.
    pub fn term_of_var(&self, var: Var) -> Option<(i64, Lit)> {
        match self.terms.binary_search_by_key(&var, |(_, l)| l.var()) {
            Ok(i) => Some(self.terms[i]),
            Err(_) => None,
        }
    }

    /// Evaluates the objective on a complete assignment given as booleans
    /// indexed by variable.
    pub fn evaluate(&self, values: &[bool]) -> i64 {
        self.offset
            + self
                .terms
                .iter()
                .filter(|(_, l)| {
                    let v = values[l.var().index()];
                    if l.is_positive() {
                        v
                    } else {
                        !v
                    }
                })
                .map(|(c, _)| c)
                .sum::<i64>()
    }

    /// The paper's `P.path`: cost of the literals assigned true so far
    /// (offset included).
    pub fn path_cost(&self, assignment: &Assignment) -> i64 {
        self.offset
            + self
                .terms
                .iter()
                .filter(|(_, l)| assignment.lit_value(*l) == Value::True)
                .map(|(c, _)| c)
                .sum::<i64>()
    }

    /// Sum of all term costs plus offset: the worst possible objective
    /// value (every costed literal true).
    pub fn max_value(&self) -> i64 {
        self.offset + self.terms.iter().map(|(c, _)| c).sum::<i64>()
    }

    /// The best possible objective value ignoring constraints (all costed
    /// literals false): simply the offset.
    pub fn min_value(&self) -> i64 {
        self.offset
    }
}

impl Default for Objective {
    fn default() -> Objective {
        Objective::empty()
    }
}

impl fmt::Debug for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "min: ")?;
        for (i, (c, l)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *c != 1 {
                write!(f, "{}*", c)?;
            }
            write!(f, "{:?}", l)?;
        }
        if self.terms.is_empty() {
            write!(f, "0")?;
        }
        if self.offset != 0 {
            write!(f, " + {}", self.offset)?;
        }
        Ok(())
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    #[test]
    fn normalizes_negative_costs() {
        // min -2*x1  ==  min -2 + 2*~x1
        let obj = Objective::new(vec![(-2, lit(0, true))]).unwrap();
        assert_eq!(obj.offset(), -2);
        assert_eq!(obj.terms(), &[(2, lit(0, false))]);
        assert_eq!(obj.evaluate(&[true]), -2);
        assert_eq!(obj.evaluate(&[false]), 0);
    }

    #[test]
    fn merges_duplicate_variables() {
        // 3*x1 + 2*~x1 == 2 + 1*x1
        let obj = Objective::new(vec![(3, lit(0, true)), (2, lit(0, false))]).unwrap();
        assert_eq!(obj.offset(), 2);
        assert_eq!(obj.terms(), &[(1, lit(0, true))]);
        assert_eq!(obj.evaluate(&[true]), 3);
        assert_eq!(obj.evaluate(&[false]), 2);
    }

    #[test]
    fn zero_net_cost_dropped() {
        let obj = Objective::new(vec![(2, lit(0, true)), (2, lit(0, false))]).unwrap();
        assert!(obj.is_constant());
        assert_eq!(obj.offset(), 2);
    }

    #[test]
    fn path_cost_counts_true_literals_only() {
        let obj = Objective::new(vec![(2, lit(0, true)), (5, lit(1, false))]).unwrap();
        let mut a = Assignment::new(2);
        assert_eq!(obj.path_cost(&a), 0);
        a.assign(Var::new(0), true);
        assert_eq!(obj.path_cost(&a), 2);
        a.assign(Var::new(1), false); // makes ~x2 true
        assert_eq!(obj.path_cost(&a), 7);
    }

    #[test]
    fn cost_of_lit_polarity() {
        let obj = Objective::new(vec![(4, lit(1, false))]).unwrap();
        assert_eq!(obj.cost_of_lit(lit(1, false)), 4);
        assert_eq!(obj.cost_of_lit(lit(1, true)), 0);
        assert_eq!(obj.cost_of_lit(lit(0, true)), 0);
    }

    #[test]
    fn extreme_values() {
        let obj = Objective::with_offset(vec![(2, lit(0, true)), (3, lit(1, true))], 1).unwrap();
        assert_eq!(obj.max_value(), 6);
        assert_eq!(obj.min_value(), 1);
    }

    #[test]
    fn empty_objective() {
        let obj = Objective::empty();
        assert!(obj.is_constant());
        assert_eq!(obj.evaluate(&[]), 0);
        assert_eq!(Objective::default(), obj);
    }

    #[test]
    fn sort_merge_fold_matches_the_btree_fold() {
        use rand::{Rng, SeedableRng};

        use crate::normalize::btree_reference;

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0b1);
        let (mut ok, mut overflow) = (0, 0);
        for round in 0..20_000 {
            let terms = btree_reference::terms(&mut rng);
            let offset = if rng.gen_bool(0.5) { 0 } else { btree_reference::value(&mut rng) };
            let got = Objective::with_offset(terms.iter().copied(), offset)
                .map(|o| (o.terms().to_vec(), o.offset()));
            assert_eq!(got, btree_reference::objective(&terms, offset), "round {round}");
            if got.is_ok() {
                ok += 1;
            } else {
                overflow += 1;
            }
        }
        assert!(ok > 0 && overflow > 0, "ok {ok}, overflow {overflow}");
    }
}
