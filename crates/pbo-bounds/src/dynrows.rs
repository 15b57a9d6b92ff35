//! A registry of the eq. 10 objective ("knapsack") cut and the eqs.
//! 11–13 cardinality cost cuts as rows, rebuilt per incumbent.
//!
//! No bound reads these rows and no solver path builds a registry: every
//! bound sees the instance's rows alone, and the cost cuts live only in
//! the engine's constraint store. The registry stays public because the
//! benchmark's per-layer probe (`pbobench/probe`) builds one from the
//! cost cuts at an instance's optimum and times
//! [`LprBound::install_rows`](crate::LprBound::install_rows) on it; it
//! goes when that probe stops timing the install.
//!
//! Every row is implied by the instance constraints together with the
//! incumbent bound `cost <= upper - 1`, so a bound computed over the
//! instance's rows plus these holds for every completion cheaper than
//! the incumbent, which is the set pruning reasons about (eq. 7).

use pbo_core::{Instance, PbConstraint};

/// Why a cost-cut row exists. Kept public for the benchmark probe.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DynRowOrigin {
    /// The eq. 10 objective cut `sum c_j l_j <= upper - 1` (normalized).
    ObjectiveCut,
    /// An eqs. 11–13 cardinality cost cut.
    CardinalityCut,
}

/// One cost-cut row. Kept public for the benchmark probe.
#[derive(Clone, Debug)]
pub struct DynRow {
    /// The row itself, in normalized `>=` form.
    pub constraint: PbConstraint,
    /// Provenance of the row.
    pub origin: DynRowOrigin,
}

/// The cost cuts of one incumbent as a deduplicated row list. Kept
/// public for the benchmark probe, which installs it into an LP bound
/// through [`LprBound::install_rows`](crate::LprBound::install_rows).
///
/// # Examples
///
/// ```
/// use pbo_bounds::{DynRowOrigin, DynamicRows};
/// use pbo_core::{Lit, PbConstraint};
///
/// let mut rows = DynamicRows::new();
/// rows.begin_epoch();
/// let clause = PbConstraint::clause([Lit::new(0, true), Lit::new(1, false)]);
/// assert!(rows.push(clause.clone(), DynRowOrigin::CardinalityCut));
/// assert!(!rows.push(clause, DynRowOrigin::CardinalityCut), "duplicate rejected");
/// assert_eq!(rows.len(), 1);
/// rows.begin_epoch();
/// assert!(rows.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicRows {
    rows: Vec<DynRow>,
}

impl DynamicRows {
    /// Creates an empty registry.
    pub fn new() -> DynamicRows {
        DynamicRows::default()
    }

    /// Creates an empty registry for `instance`'s cost cuts; the same as
    /// [`DynamicRows::new`], since no row order depends on the objective
    /// any more. Kept for the benchmark probe, which calls it.
    pub fn for_instance(_instance: &Instance) -> DynamicRows {
        DynamicRows::new()
    }

    /// The rows of the current incumbent, in push order.
    pub fn rows(&self) -> &[DynRow] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the registry holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Starts the row set of a new incumbent: clears every row. Then
    /// [`DynamicRows::push`] the new row set.
    pub fn begin_epoch(&mut self) {
        self.rows.clear();
    }

    /// Adds a row unless an identical row (same terms, same right-hand
    /// side) is already present or the row is empty. Returns `true` if
    /// the row was added.
    pub fn push(&mut self, constraint: PbConstraint, origin: DynRowOrigin) -> bool {
        if constraint.is_empty() {
            return false;
        }
        if self.rows.iter().any(|r| r.constraint == constraint) {
            return false;
        }
        self.rows.push(DynRow { constraint, origin });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::Lit;

    #[test]
    fn epochs_version_the_row_set() {
        let mut rows = DynamicRows::new();
        rows.begin_epoch();
        assert!(rows.push(PbConstraint::clause([Lit::new(0, true)]), DynRowOrigin::ObjectiveCut));
        assert_eq!(rows.len(), 1);
        rows.begin_epoch();
        assert!(rows.is_empty());
        assert!(rows.push(PbConstraint::clause([Lit::new(0, true)]), DynRowOrigin::ObjectiveCut));
        assert_eq!(rows.len(), 1, "a new epoch accepts the old rows again");
    }

    #[test]
    fn duplicate_and_empty_rows_are_rejected() {
        let mut rows = DynamicRows::new();
        rows.begin_epoch();
        let c =
            PbConstraint::at_least(2, [Lit::new(0, true), Lit::new(1, true), Lit::new(2, true)]);
        assert!(rows.push(c.clone(), DynRowOrigin::CardinalityCut));
        assert!(!rows.push(c, DynRowOrigin::ObjectiveCut), "same row, any origin");
        assert!(!rows.push(PbConstraint::clause([]), DynRowOrigin::CardinalityCut));
        assert_eq!(rows.len(), 1);
    }
}
