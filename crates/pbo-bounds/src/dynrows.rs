//! Dynamic rows: derived constraints folded into the residual problem.
//!
//! The static rows of the residual problem come from the instance; this
//! module adds an **epoch-versioned registry of derived rows** — the
//! eq. 10 objective ("knapsack") cut and the eqs. 11–13 cardinality cost
//! cuts — that the bounding procedures see exactly like static rows
//! through the [`Subproblem`](crate::Subproblem) view. The solver
//! installs them for MIS only.
//!
//! Every dynamic row must be *implied by the instance constraints
//! together with the incumbent bound* `cost <= upper - 1`: a bound
//! computed over static + dynamic rows is then a valid lower bound on
//! every completion **cheaper than the incumbent**, which is precisely
//! the set pruning reasons about (eq. 7). The registry is rebuilt on
//! each improving incumbent (`begin_epoch` + `push`); consumers compare
//! [`DynamicRows::epoch`] against the epoch they last installed and swap
//! their row region instead of rebuilding any per-node state.
//!
//! Alongside the [`DynRow`] list (kept for deduplication and
//! diagnostics), the registry maintains a flat SoA
//! [`RowsArena`] mirror — the same contiguous-coefficients /
//! contiguous-literals layout as the instance's
//! [`TermArena`](pbo_core::TermArena) — which the residual state and the
//! subproblem views borrow on the hot path.

use pbo_core::{Instance, Lit, PbConstraint, RowView};

/// Why a dynamic row exists (kept for diagnostics and bench ablations).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DynRowOrigin {
    /// The eq. 10 objective cut `sum c_j l_j <= upper - 1` (normalized).
    ObjectiveCut,
    /// An eqs. 11–13 cardinality cost cut.
    CardinalityCut,
}

/// One derived row of the residual problem.
#[derive(Clone, Debug)]
pub struct DynRow {
    /// The row itself, in normalized `>=` form.
    pub constraint: PbConstraint,
    /// Provenance of the row.
    pub origin: DynRowOrigin,
}

/// Flat SoA storage of a dynamic-row region: contiguous coefficient and
/// literal arrays with per-row spans, right-hand sides and origins.
///
/// This is the layout the per-node hot paths read; it is cheap to clone
/// (a handful of flat `memcpy`s), which is how the residual state takes
/// its epoch-consistent copy of the registry at swap time.
#[derive(Clone, Debug, Default)]
pub struct RowsArena {
    coeffs: Vec<i64>,
    lits: Vec<Lit>,
    /// Per-row offsets into `coeffs`/`lits`; empty means "no rows yet"
    /// (treated like `[0]`).
    row_start: Vec<u32>,
    rhs: Vec<i64>,
    origin: Vec<DynRowOrigin>,
    /// Absolute term positions of each row permuted into
    /// *fractional-cover order* (ascending objective cost per coefficient
    /// unit, ties in term order) — the same precomputed-order contract as
    /// [`TermArena::cover_order`](pbo_core::TermArena::cover_order), but
    /// computed at [`RowsArena::push_row`] time, so region swaps (and the
    /// residual state's flat clone of the region) carry the order along
    /// and no bound call ever sorts a dynamic row again.
    cover_order: Vec<u32>,
}

impl RowsArena {
    /// Creates an empty region.
    pub const fn new() -> RowsArena {
        RowsArena {
            coeffs: Vec::new(),
            lits: Vec::new(),
            row_start: Vec::new(),
            rhs: Vec::new(),
            origin: Vec::new(),
            cover_order: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rhs.len()
    }

    /// Returns `true` if the region holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rhs.is_empty()
    }

    /// The terms of row `k` as parallel coefficient/literal slices.
    #[inline]
    pub fn row(&self, k: usize) -> RowView<'_> {
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        RowView { coeffs: &self.coeffs[lo..hi], lits: &self.lits[lo..hi] }
    }

    /// Right-hand side of row `k`.
    #[inline]
    pub fn rhs(&self, k: usize) -> i64 {
        self.rhs[k]
    }

    /// Provenance of row `k`.
    #[inline]
    pub fn origin(&self, k: usize) -> DynRowOrigin {
        self.origin[k]
    }

    /// The absolute term positions of row `k` in fractional-cover order;
    /// index them into [`RowsArena::term_at`].
    #[inline]
    pub fn cover_order(&self, k: usize) -> &[u32] {
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        &self.cover_order[lo..hi]
    }

    /// The term at absolute position `p` (as listed by
    /// [`RowsArena::cover_order`]).
    #[inline]
    pub fn term_at(&self, p: usize) -> pbo_core::PbTerm {
        pbo_core::PbTerm { coeff: self.coeffs[p], lit: self.lits[p] }
    }

    /// Drops every row (capacity retained).
    pub fn clear(&mut self) {
        self.coeffs.clear();
        self.lits.clear();
        self.row_start.clear();
        self.rhs.clear();
        self.origin.clear();
        self.cover_order.clear();
    }

    /// Appends a row and precomputes its fractional-cover order under
    /// `lit_cost` (a dense objective-cost table indexed by literal code;
    /// an empty table means a costless objective). The comparator —
    /// ascending `cost / coeff`, ties in term order — is exactly the sort
    /// the MIS cover walk used to perform per bound call, so outcomes are
    /// bit-identical to the per-call path.
    pub fn push_row(&mut self, constraint: &PbConstraint, origin: DynRowOrigin, lit_cost: &[i64]) {
        if self.row_start.is_empty() {
            self.row_start.push(0);
        }
        let lo = self.coeffs.len();
        for t in constraint.terms() {
            self.coeffs.push(t.coeff);
            self.lits.push(t.lit);
            self.cover_order.push(self.cover_order.len() as u32);
        }
        let (lits, coeffs) = (&self.lits, &self.coeffs);
        let cost = |p: u32| {
            lit_cost.get(lits[p as usize].code()).copied().unwrap_or(0) as f64
                / coeffs[p as usize] as f64
        };
        self.cover_order[lo..].sort_unstable_by(|&a, &b| {
            cost(a).partial_cmp(&cost(b)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        self.row_start.push(self.coeffs.len() as u32);
        self.rhs.push(constraint.rhs());
        self.origin.push(origin);
    }

    /// Copies `other` into `self`, reusing allocations.
    pub fn clone_from_arena(&mut self, other: &RowsArena) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&other.coeffs);
        self.lits.clear();
        self.lits.extend_from_slice(&other.lits);
        self.row_start.clear();
        self.row_start.extend_from_slice(&other.row_start);
        self.rhs.clear();
        self.rhs.extend_from_slice(&other.rhs);
        self.origin.clear();
        self.origin.extend_from_slice(&other.origin);
        self.cover_order.clear();
        self.cover_order.extend_from_slice(&other.cover_order);
    }
}

/// The shared empty region (what a [`Subproblem`](crate::Subproblem)
/// without dynamic rows points at).
pub(crate) static EMPTY_ROWS: RowsArena = RowsArena::new();

/// Epoch-versioned registry of dynamic rows.
///
/// # Examples
///
/// ```
/// use pbo_bounds::{DynRowOrigin, DynamicRows};
/// use pbo_core::{Lit, PbConstraint};
///
/// let mut rows = DynamicRows::new();
/// assert_eq!(rows.epoch(), 0);
/// rows.begin_epoch();
/// let clause = PbConstraint::clause([Lit::new(0, true), Lit::new(1, false)]);
/// assert!(rows.push(clause.clone(), DynRowOrigin::CardinalityCut));
/// assert!(!rows.push(clause, DynRowOrigin::CardinalityCut), "duplicate rejected");
/// assert_eq!(rows.epoch(), 1);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows.arena().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicRows {
    rows: Vec<DynRow>,
    arena: RowsArena,
    epoch: u64,
    /// Dense objective cost per literal code, consulted by
    /// [`RowsArena::push_row`] to precompute each row's cover order.
    /// Empty means "costless objective" (cover order = term order).
    lit_cost: Vec<i64>,
}

impl DynamicRows {
    /// Creates an empty registry at epoch 0 (the "no dynamic rows yet"
    /// state every consumer starts in), with a costless cover order.
    ///
    /// Registries whose rows will be consumed by a cover-walking bound
    /// (MIS) on an instance with a real objective must be created with
    /// [`DynamicRows::for_instance`] instead, so the precomputed cover
    /// order matches the objective — a cover walk over a mis-ordered row
    /// would overestimate the single-row LP minimum, which is unsound.
    pub fn new() -> DynamicRows {
        DynamicRows::default()
    }

    /// Creates an empty registry whose rows will carry `instance`'s
    /// objective costs in their precomputed fractional-cover order —
    /// the constructor every bounding consumer should use.
    pub fn for_instance(instance: &Instance) -> DynamicRows {
        let mut lit_cost = vec![0i64; 2 * instance.num_vars()];
        if let Some(obj) = instance.objective() {
            for &(c, l) in obj.terms() {
                lit_cost[l.code()] = c;
            }
        }
        DynamicRows { lit_cost, ..DynamicRows::default() }
    }

    /// Current epoch; bumped by [`DynamicRows::begin_epoch`]. Consumers
    /// re-install their row region only when this differs from the epoch
    /// they last saw.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The rows of the current epoch, in push order.
    pub fn rows(&self) -> &[DynRow] {
        &self.rows
    }

    /// The flat SoA mirror of the current epoch's rows (what the hot
    /// paths borrow).
    #[inline]
    pub fn arena(&self) -> &RowsArena {
        &self.arena
    }

    /// Number of rows in the current epoch.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the current epoch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Starts a fresh epoch: clears every row and bumps the version.
    /// Call once per incumbent re-root, then [`DynamicRows::push`] the
    /// new row set.
    pub fn begin_epoch(&mut self) {
        self.rows.clear();
        self.arena.clear();
        self.epoch += 1;
    }

    /// Adds a row to the current epoch unless an identical row (same
    /// terms, same right-hand side) is already present or the row is
    /// empty. Returns `true` if the row was added.
    pub fn push(&mut self, constraint: PbConstraint, origin: DynRowOrigin) -> bool {
        if constraint.is_empty() {
            return false;
        }
        if self.rows.iter().any(|r| r.constraint == constraint) {
            return false;
        }
        self.arena.push_row(&constraint, origin, &self.lit_cost);
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
        assert_eq!((rows.epoch(), rows.len()), (1, 1));
        rows.begin_epoch();
        assert_eq!((rows.epoch(), rows.len()), (2, 0));
        assert!(rows.is_empty());
        assert!(rows.arena().is_empty());
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
        assert_eq!(rows.arena().len(), 1);
    }

    #[test]
    fn push_row_precomputes_the_cover_order() {
        // Costs per literal code: x0=6, x1=1, x2=4 (positives).
        let mut costs = vec![0i64; 8];
        costs[Lit::new(0, true).code()] = 6;
        costs[Lit::new(1, true).code()] = 1;
        costs[Lit::new(2, true).code()] = 4;
        let mut arena = RowsArena::new();
        // 3*x0 + 1*x1 + 2*x2 >= 4: ratios 2.0, 1.0, 2.0 — cover order
        // x1 first, then x0/x2 in term order (tie on ratio 2.0).
        let row = PbConstraint::try_new(
            vec![(3, Lit::new(0, true)), (1, Lit::new(1, true)), (2, Lit::new(2, true))],
            4,
        )
        .unwrap();
        arena.push_row(&row, DynRowOrigin::ObjectiveCut, &costs);
        assert_eq!(arena.cover_order(0), &[1, 0, 2]);
        // A second row gets absolute positions and its own order (the
        // clause constructor normalizes to [x1, x2], cheapest first here).
        let clause = PbConstraint::clause([Lit::new(2, true), Lit::new(1, true)]);
        arena.push_row(&clause, DynRowOrigin::CardinalityCut, &costs);
        assert_eq!(arena.cover_order(1), &[3, 4], "x1 (cost 1) before x2 (cost 4)");
        // The flat clone carries the order along.
        let mut copy = RowsArena::new();
        copy.clone_from_arena(&arena);
        assert_eq!(copy.cover_order(0), arena.cover_order(0));
        assert_eq!(copy.cover_order(1), arena.cover_order(1));
        assert_eq!(copy.term_at(1).coeff, 1);
        // An empty cost table degrades to term order.
        let mut costless = RowsArena::new();
        costless.push_row(&row, DynRowOrigin::ObjectiveCut, &[]);
        assert_eq!(costless.cover_order(0), &[0, 1, 2]);
    }

    #[test]
    fn arena_mirrors_the_row_list() {
        let mut rows = DynamicRows::new();
        rows.begin_epoch();
        let a = PbConstraint::try_new(vec![(2, Lit::new(0, true)), (1, Lit::new(1, false))], 2)
            .unwrap();
        let b = PbConstraint::clause([Lit::new(2, true)]);
        rows.push(a.clone(), DynRowOrigin::ObjectiveCut);
        rows.push(b.clone(), DynRowOrigin::CardinalityCut);
        let arena = rows.arena();
        assert_eq!(arena.len(), 2);
        for (k, c) in [a, b].iter().enumerate() {
            assert_eq!(arena.rhs(k), c.rhs());
            let terms: Vec<_> = arena.row(k).terms().collect();
            assert_eq!(terms, c.terms().to_vec(), "row {k}");
        }
        assert_eq!(arena.origin(0), DynRowOrigin::ObjectiveCut);
        assert_eq!(arena.origin(1), DynRowOrigin::CardinalityCut);
        // The state-side copy path reuses allocations.
        let mut copy = RowsArena::new();
        copy.clone_from_arena(arena);
        assert_eq!(copy.len(), 2);
        assert_eq!(copy.row(1).terms().count(), 1);
    }
}
