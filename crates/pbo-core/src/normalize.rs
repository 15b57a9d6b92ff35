//! Normalization of arbitrary linear 0-1 constraints into the paper's
//! normal form.
//!
//! Any constraint `sum c_i * l_i  OP  b` with `OP` in `{>=, <=, =}`,
//! arbitrary integer coefficients and possibly repeated variables can be
//! rewritten into one or two normalized [`PbConstraint`]s (all
//! coefficients and the right-hand side positive). The rewrite uses the
//! identity `c * ~x = c - c * x` and is exactly the transformation the
//! paper alludes to below eq. 1 ("every pseudo-boolean formulation can be
//! rewritten such that all coefficients and right-hand sides be
//! non-negative").

use std::fmt;

use crate::constraint::{ConstraintError, PbConstraint};
use crate::lit::Lit;

/// Relational operator of a raw linear constraint.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RelOp {
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `=`
    Eq,
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelOp::Ge => write!(f, ">="),
            RelOp::Le => write!(f, "<="),
            RelOp::Eq => write!(f, "="),
        }
    }
}

/// A raw (unnormalized) linear constraint, owned: arbitrary-sign
/// `(coeff, literal)` terms, a relational operator, and a right-hand
/// side — the arguments of [`normalize`].
pub type RawConstraint = (Vec<(i64, Lit)>, RelOp, i64);

/// Error returned when a constraint cannot be normalized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NormalizeError {
    /// Intermediate arithmetic exceeded `i64`/`i128` safe range.
    Overflow,
    /// The normalized constraint violated an invariant (should not happen;
    /// kept for diagnostics).
    Invalid(ConstraintError),
}

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeError::Overflow => write!(f, "coefficient overflow during normalization"),
            NormalizeError::Invalid(e) => {
                write!(f, "normalization produced invalid constraint: {e}")
            }
        }
    }
}

impl std::error::Error for NormalizeError {}

impl From<ConstraintError> for NormalizeError {
    fn from(e: ConstraintError) -> NormalizeError {
        NormalizeError::Invalid(e)
    }
}

/// Scratch of the sort-and-merge fold behind [`normalize`] and
/// [`Objective::with_offset`](crate::Objective::with_offset).
///
/// A row's terms are copied in, sorted by variable and merged run by run
/// into one term per variable, so a caller folding many rows (the
/// [`InstanceBuilder`](crate::InstanceBuilder)) reuses two buffers
/// instead of building a map per row.
#[derive(Default)]
pub(crate) struct TermFold {
    /// The row being folded, sorted by variable.
    sorted: Vec<(i64, Lit)>,
    /// The folded row: one term per variable with a nonzero net
    /// coefficient, ascending by variable, every coefficient positive.
    folded: Vec<(i64, Lit)>,
}

impl TermFold {
    /// Folds `terms` (each coefficient negated when `negate` is set) into
    /// [`TermFold::folded`] and returns the constant `k` the rewrite moves
    /// out of the sum: `sum c_i * l_i == k + sum folded`. Returns `None`
    /// when a folded coefficient does not fit `i64`.
    fn fold(&mut self, terms: impl IntoIterator<Item = (i64, Lit)>, negate: bool) -> Option<i128> {
        self.sorted.clear();
        self.sorted.extend(terms);
        self.sorted.sort_unstable_by_key(|&(_, l)| l.var());
        self.folded.clear();
        let mut k: i128 = 0;
        for run in self.sorted.chunk_by(|a, b| a.1.var() == b.1.var()) {
            // Net coefficient of the run's variable on its positive literal.
            let mut net: i128 = 0;
            for &(c, l) in run {
                let c = if negate { -(c as i128) } else { c as i128 };
                if l.is_positive() {
                    net += c;
                } else {
                    // c * ~x  ==  c - c*x
                    k += c;
                    net -= c;
                }
            }
            let var = run[0].1.var();
            if net > 0 {
                self.folded.push((i64::try_from(net).ok()?, var.positive()));
            } else if net < 0 {
                // -|a|*x  ==  |a|*~x - |a|
                k += net;
                self.folded.push((i64::try_from(-net).ok()?, var.negative()));
            }
        }
        Some(k)
    }

    /// Folds `terms` once and hands back the folded row with its constant
    /// `k` (see [`TermFold::fold`]): the one-off fold of an objective.
    pub(crate) fn fold_owned(
        mut self,
        terms: impl IntoIterator<Item = (i64, Lit)>,
    ) -> Option<(Vec<(i64, Lit)>, i128)> {
        let k = self.fold(terms, false)?;
        Some((self.folded, k))
    }

    /// Pushes the normalized form of `sum c_i * l_i >= rhs` (every `c_i`
    /// negated when `negate` is set) onto `out`, unless it is trivially
    /// true.
    fn push_ge(
        &mut self,
        terms: &[(i64, Lit)],
        negate: bool,
        rhs: i64,
        out: &mut Vec<PbConstraint>,
    ) -> Result<(), NormalizeError> {
        let k = self.fold(terms.iter().copied(), negate).ok_or(NormalizeError::Overflow)?;
        // The constant k moves across the inequality.
        let b = i64::try_from(rhs as i128 - k).map_err(|_| NormalizeError::Overflow)?;
        if b > 0 {
            out.push(PbConstraint::try_new(self.folded.iter().copied(), b)?);
        }
        Ok(())
    }

    /// [`normalize`] into a caller-owned vector: pushes the zero, one or
    /// two normalized constraints of `sum terms OP rhs` onto `out`.
    pub(crate) fn normalize_into(
        &mut self,
        terms: &[(i64, Lit)],
        op: RelOp,
        rhs: i64,
        out: &mut Vec<PbConstraint>,
    ) -> Result<(), NormalizeError> {
        match op {
            RelOp::Ge => self.push_ge(terms, false, rhs, out),
            RelOp::Le => {
                // sum c l <= b  <=>  sum (-c) l >= -b
                if terms.iter().any(|&(c, _)| c == i64::MIN) {
                    return Err(NormalizeError::Overflow);
                }
                let nrhs = rhs.checked_neg().ok_or(NormalizeError::Overflow)?;
                self.push_ge(terms, true, nrhs, out)
            }
            RelOp::Eq => {
                self.normalize_into(terms, RelOp::Ge, rhs, out)?;
                self.normalize_into(terms, RelOp::Le, rhs, out)
            }
        }
    }
}

/// Normalizes one raw `>=` constraint given as `(coeff, lit)` pairs.
///
/// Returns `Ok(None)` when the constraint is trivially true (normalized
/// right-hand side `<= 0`). An *unsatisfiable* constraint (e.g. `x1 >= 2`)
/// is returned as a normal constraint whose coefficient sum is below its
/// right-hand side; [`PbConstraint::is_unsatisfiable`] detects it.
///
/// # Errors
///
/// Returns [`NormalizeError::Overflow`] on arithmetic overflow.
pub fn normalize_ge(
    terms: &[(i64, Lit)],
    rhs: i64,
) -> Result<Option<PbConstraint>, NormalizeError> {
    let mut out = Vec::new();
    TermFold::default().push_ge(terms, false, rhs, &mut out)?;
    Ok(out.pop())
}

/// Normalizes a raw constraint with any relational operator into zero, one
/// or two normalized `>=` constraints (an equality yields up to two).
///
/// # Errors
///
/// Returns [`NormalizeError::Overflow`] on arithmetic overflow.
///
/// # Examples
///
/// ```
/// use pbo_core::{normalize, Lit, RelOp};
///
/// // x1 + x2 <= 1  (at most one)  ==>  ~x1 + ~x2 >= 1
/// let cs = normalize(&[(1, Lit::new(0, true)), (1, Lit::new(1, true))], RelOp::Le, 1)?;
/// assert_eq!(cs.len(), 1);
/// assert_eq!(cs[0].rhs(), 1);
/// assert!(cs[0].terms().iter().all(|t| t.lit.is_negative()));
/// # Ok::<(), pbo_core::NormalizeError>(())
/// ```
pub fn normalize(
    terms: &[(i64, Lit)],
    op: RelOp,
    rhs: i64,
) -> Result<Vec<PbConstraint>, NormalizeError> {
    let mut out = Vec::new();
    TermFold::default().normalize_into(terms, op, rhs, &mut out)?;
    Ok(out)
}

/// The per-row `BTreeMap` folds that [`TermFold`] replaced, kept as the
/// oracle of the fold tests here and in the objective module.
#[cfg(test)]
pub(crate) mod btree_reference {
    use std::collections::BTreeMap;

    use rand::Rng;

    use super::{NormalizeError, RelOp};
    use crate::constraint::PbConstraint;
    use crate::lit::{Lit, Var};
    use crate::objective::ObjectiveError;

    /// The reference [`normalize_ge`](super::normalize_ge).
    pub(crate) fn normalize_ge(
        terms: &[(i64, Lit)],
        rhs: i64,
    ) -> Result<Option<PbConstraint>, NormalizeError> {
        let mut net: BTreeMap<usize, i128> = BTreeMap::new();
        let mut b = rhs as i128;
        for &(c, l) in terms {
            let c = c as i128;
            if l.is_positive() {
                *net.entry(l.var().index()).or_insert(0) += c;
            } else {
                b -= c;
                *net.entry(l.var().index()).or_insert(0) -= c;
            }
        }
        let mut out: Vec<(i64, Lit)> = Vec::new();
        for (v, a) in net {
            if a > 0 {
                let a64 = i64::try_from(a).map_err(|_| NormalizeError::Overflow)?;
                out.push((a64, Var::new(v).positive()));
            } else if a < 0 {
                b -= a;
                let a64 = i64::try_from(-a).map_err(|_| NormalizeError::Overflow)?;
                out.push((a64, Var::new(v).negative()));
            }
        }
        let b = i64::try_from(b).map_err(|_| NormalizeError::Overflow)?;
        if b <= 0 {
            return Ok(None);
        }
        Ok(Some(PbConstraint::try_new(out, b)?))
    }

    /// The reference [`normalize`](super::normalize).
    pub(crate) fn normalize(
        terms: &[(i64, Lit)],
        op: RelOp,
        rhs: i64,
    ) -> Result<Vec<PbConstraint>, NormalizeError> {
        let mut out = Vec::new();
        match op {
            RelOp::Ge => out.extend(normalize_ge(terms, rhs)?),
            RelOp::Le => {
                let negated: Vec<(i64, Lit)> = terms
                    .iter()
                    .map(|&(c, l)| c.checked_neg().map(|n| (n, l)).ok_or(NormalizeError::Overflow))
                    .collect::<Result<_, _>>()?;
                let nrhs = rhs.checked_neg().ok_or(NormalizeError::Overflow)?;
                out.extend(normalize_ge(&negated, nrhs)?);
            }
            RelOp::Eq => {
                out.extend(normalize(terms, RelOp::Ge, rhs)?);
                out.extend(normalize(terms, RelOp::Le, rhs)?);
            }
        }
        Ok(out)
    }

    /// The reference [`Objective::with_offset`](crate::Objective::with_offset),
    /// as its terms and offset.
    pub(crate) fn objective(
        terms: &[(i64, Lit)],
        offset: i64,
    ) -> Result<(Vec<(i64, Lit)>, i64), ObjectiveError> {
        let mut per_var: BTreeMap<usize, i128> = BTreeMap::new();
        let mut off = offset as i128;
        for &(c, lit) in terms {
            let c = c as i128;
            if lit.is_positive() {
                *per_var.entry(lit.var().index()).or_insert(0) += c;
            } else {
                off += c;
                *per_var.entry(lit.var().index()).or_insert(0) -= c;
            }
        }
        let mut out: Vec<(i64, Lit)> = Vec::new();
        for (v, c) in per_var {
            if c > 0 {
                let c64 = i64::try_from(c).map_err(|_| ObjectiveError::Overflow)?;
                out.push((c64, Var::new(v).positive()));
            } else if c < 0 {
                off += c;
                let c64 = i64::try_from(-c).map_err(|_| ObjectiveError::Overflow)?;
                out.push((c64, Var::new(v).negative()));
            }
        }
        let off = i64::try_from(off).map_err(|_| ObjectiveError::Overflow)?;
        Ok((out, off))
    }

    /// A coefficient, right-hand side or offset: mostly small, often at
    /// or next to the `i64` limits.
    pub(crate) fn value(rng: &mut impl Rng) -> i64 {
        match rng.gen_range(0..12u32) {
            0 => i64::MAX,
            1 => i64::MIN,
            2 => i64::MAX - rng.gen_range(1..4i64),
            3 => i64::MIN + rng.gen_range(1..4i64),
            4 => rng.gen_range(-(1i64 << 62)..=(1i64 << 62)),
            _ => rng.gen_range(-6..=6i64),
        }
    }

    /// A row over a few variables, so literals repeat and meet their
    /// complements.
    pub(crate) fn terms(rng: &mut impl Rng) -> Vec<(i64, Lit)> {
        let vars = rng.gen_range(1..6usize);
        (0..rng.gen_range(0..9usize))
            .map(|_| (value(rng), Lit::new(rng.gen_range(0..vars), rng.gen_bool(0.5))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    #[test]
    fn ge_passthrough() {
        let cs = normalize(&[(2, lit(0, true)), (1, lit(1, true))], RelOp::Ge, 2).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].rhs(), 2);
        assert_eq!(cs[0].terms().len(), 2);
    }

    #[test]
    fn negative_coefficient_flips_literal() {
        // -2*x1 >= -1  <=>  2*~x1 >= 1  <=> saturated  1*~x1 >= 1
        let cs = normalize(&[(-2, lit(0, true))], RelOp::Ge, -1).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].terms()[0].lit, lit(0, false));
        assert_eq!(cs[0].rhs(), 1);
    }

    #[test]
    fn le_becomes_ge_on_negations() {
        // x1 + x2 <= 1  =>  ~x1 + ~x2 >= 1
        let cs = normalize(&[(1, lit(0, true)), (1, lit(1, true))], RelOp::Le, 1).unwrap();
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.rhs(), 1);
        assert!(c.terms().iter().all(|t| t.lit.is_negative()));
    }

    #[test]
    fn eq_gives_two_constraints() {
        // x1 + x2 = 1
        let cs = normalize(&[(1, lit(0, true)), (1, lit(1, true))], RelOp::Eq, 1).unwrap();
        assert_eq!(cs.len(), 2);
        // Both x1=1,x2=0 and x1=0,x2=1 satisfy; x1=x2=1 and x1=x2=0 do not.
        for (vals, expect) in [
            ([true, false], true),
            ([false, true], true),
            ([true, true], false),
            ([false, false], false),
        ] {
            assert_eq!(cs.iter().all(|c| c.is_satisfied_by(&vals)), expect, "{vals:?}");
        }
    }

    #[test]
    fn duplicate_literals_merge() {
        // x1 + x1 >= 2  =>  2*x1 >= 2  => saturation leaves 2*x1 >= 2 (clause)
        let cs = normalize(&[(1, lit(0, true)), (1, lit(0, true))], RelOp::Ge, 2).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].terms().len(), 1);
        assert_eq!(cs[0].terms()[0].coeff, 2);
    }

    #[test]
    fn opposing_literals_cancel() {
        // 3*x1 + 2*~x1 >= 3  =>  2 + 1*x1 >= 3  =>  x1 >= 1
        let cs = normalize(&[(3, lit(0, true)), (2, lit(0, false))], RelOp::Ge, 3).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].terms(), &[crate::PbTerm::new(1, lit(0, true))]);
        assert_eq!(cs[0].rhs(), 1);
    }

    #[test]
    fn trivially_true_dropped() {
        // x1 >= 0 is trivial
        let cs = normalize(&[(1, lit(0, true))], RelOp::Ge, 0).unwrap();
        assert!(cs.is_empty());
        // x1 >= -5 too
        let cs = normalize(&[(1, lit(0, true))], RelOp::Ge, -5).unwrap();
        assert!(cs.is_empty());
    }

    #[test]
    fn unsatisfiable_is_kept() {
        // x1 >= 2 cannot be satisfied
        let cs = normalize(&[(1, lit(0, true))], RelOp::Ge, 2).unwrap();
        assert_eq!(cs.len(), 1);
        assert!(cs[0].is_unsatisfiable());
    }

    #[test]
    fn normalization_preserves_solutions_exhaustive() {
        // Check equivalence on every +-coefficient mix over 3 variables for
        // a fixed set of raw constraints.
        let raws: Vec<RawConstraint> = vec![
            (vec![(2, lit(0, true)), (-3, lit(1, false)), (1, lit(2, true))], RelOp::Ge, -1),
            (vec![(-1, lit(0, true)), (-1, lit(1, true)), (-1, lit(2, true))], RelOp::Le, -2),
            (vec![(2, lit(0, false)), (2, lit(1, true))], RelOp::Eq, 2),
            (vec![(5, lit(0, true)), (1, lit(0, false)), (2, lit(2, true))], RelOp::Ge, 4),
        ];
        for (terms, op, rhs) in raws {
            let cs = normalize(&terms, op, rhs).unwrap();
            for m in 0u32..8 {
                let vals = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
                let lhs: i64 = terms
                    .iter()
                    .map(|&(c, l)| {
                        let v = vals[l.var().index()];
                        let t = if l.is_positive() { v } else { !v };
                        if t {
                            c
                        } else {
                            0
                        }
                    })
                    .sum();
                let raw_ok = match op {
                    RelOp::Ge => lhs >= rhs,
                    RelOp::Le => lhs <= rhs,
                    RelOp::Eq => lhs == rhs,
                };
                let norm_ok = cs.iter().all(|c| c.is_satisfied_by(&vals));
                assert_eq!(raw_ok, norm_ok, "terms under {vals:?} ({op:?} {rhs})");
            }
        }
    }

    #[test]
    fn sort_merge_fold_matches_the_btree_fold() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xf01d);
        let (mut kept, mut dropped, mut overflow, mut invalid) = (0, 0, 0, 0);
        for round in 0..20_000 {
            let terms = btree_reference::terms(&mut rng);
            let rhs = btree_reference::value(&mut rng);
            let op = [RelOp::Ge, RelOp::Le, RelOp::Eq][rng.gen_range(0..3usize)];
            let got = normalize(&terms, op, rhs);
            assert_eq!(got, btree_reference::normalize(&terms, op, rhs), "round {round}");
            assert_eq!(
                normalize_ge(&terms, rhs),
                btree_reference::normalize_ge(&terms, rhs),
                "round {round}"
            );
            match got {
                Ok(cs) if cs.is_empty() => dropped += 1,
                Ok(_) => kept += 1,
                Err(NormalizeError::Overflow) => overflow += 1,
                Err(NormalizeError::Invalid(_)) => invalid += 1,
            }
        }
        // Every outcome must be reached, or the generator is too tame to
        // pin the fold.
        assert!(
            kept > 0 && dropped > 0 && overflow > 0 && invalid > 0,
            "kept {kept}, dropped {dropped}, overflow {overflow}, invalid {invalid}"
        );
    }
}
