//! The conflict-driven search engine.
//!
//! [`Engine`] owns the assignment trail, the clause database (with
//! 2-watched-literal propagation) and the pseudo-Boolean constraints (with
//! counter/slack propagation), plus conflict analysis and VSIDS. It is the
//! substrate shared by every solver in the workspace: the bsolo-style
//! branch-and-bound drives it with *bound conflicts* injected as ad-hoc
//! conflicting clauses (sec. 4 of the paper) and with reduced-cost
//! fixings implied under the bound's explanation
//! ([`Engine::imply_explained`]), the linear-search baselines drive it
//! as a plain SAT engine.

use pbo_core::{Assignment, Lit, PbConstraint, PbTerm, Value, Var};

use crate::clause::{ClauseDb, ClauseId};
use crate::vsids::Vsids;

/// Trail pops between cancellation polls inside [`Engine::propagate`]:
/// frequent enough that a deadline tears a long fixpoint down promptly,
/// rare enough to keep `Instant::now` off the per-literal path.
const CANCEL_CHECK_INTERVAL: u32 = 512;

/// Stable identifier of a pseudo-Boolean constraint inside the engine.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PbId(pub(crate) u32);

/// Handle of a registered trail observer (see
/// [`Engine::register_trail_observer`]).
///
/// Each observer mirrors a prefix of the trail and owns its own low
/// watermark, so several consumers (e.g. the incremental residual state
/// and the LP bound's variable-fixing mirror) can reconcile against the
/// same engine independently.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TrailObserver(u32);

impl PbId {
    /// Raw index value (for diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Why a variable is assigned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Reason {
    /// Decision or unassigned.
    None,
    /// Propagated by a clause.
    Clause(ClauseId),
    /// Propagated by a pseudo-Boolean constraint.
    Pb(PbId),
    /// Implied by a caller's explanation ([`Engine::imply_explained`]):
    /// the index of the explanation on the engine's stack of them.
    Explained(u32),
}

/// A conflict discovered by propagation or injected by the caller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Conflict {
    /// A clause with every literal false.
    Clause(ClauseId),
    /// A pseudo-Boolean constraint whose slack went negative.
    Pb(PbId),
    /// An ad-hoc conflicting clause: every listed literal is currently
    /// false. This is how bound conflicts (`omega_bc`, sec. 4) enter the
    /// standard conflict-analysis machinery.
    AdHoc(Vec<Lit>),
}

/// Outcome of conflict resolution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Resolution {
    /// A clause was learned and the search backjumped.
    Backjumped {
        /// Decision level the search jumped back to.
        level: u32,
        /// Literal asserted by the learned clause at that level.
        asserted: Lit,
        /// Length of the learned clause.
        learnt_len: usize,
        /// Id of the learned clause (`None` for the rare case where the
        /// learned clause duplicated an existing unit).
        learnt_id: Option<ClauseId>,
    },
    /// The conflict is terminal: it holds even with no decisions, so the
    /// current formula is unsatisfiable (for an optimizer: search is
    /// exhausted).
    Unsat,
}

/// Counters describing engine effort; all fields are cumulative.
#[derive(Clone, Default, Debug)]
pub struct EngineStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of conflicts resolved (logic and bound conflicts).
    pub conflicts: u64,
    /// Number of bound conflicts injected via [`Conflict::AdHoc`].
    pub adhoc_conflicts: u64,
    /// Number of learned clauses.
    pub learnt_clauses: u64,
    /// Sum of learned clause lengths.
    pub learnt_literals: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of learned-database reductions.
    pub db_reductions: u64,
    /// Sum over conflicts of (conflict level - backjump level); values
    /// greater than `conflicts` indicate non-chronological backtracking.
    pub backjump_levels: u64,
}

#[derive(Copy, Clone, Debug)]
struct Watcher {
    clause: ClauseId,
    blocker: Lit,
}

/// One stored PB constraint: a span into the engine's flat term arena
/// plus its counters. Keeping every constraint's terms in one contiguous
/// block (instead of a `Vec<PbTerm>` per constraint) makes the
/// implication scans of counter-based propagation a linear memory walk.
#[derive(Copy, Clone, Debug)]
struct PbData {
    /// Start of the constraint's terms in the flat arena.
    start: u32,
    /// Number of terms.
    len: u32,
    rhs: i64,
    /// Weight of non-false literals minus rhs, kept exact at all times.
    slack: i64,
    max_coeff: i64,
}

#[derive(Copy, Clone, Debug)]
struct PbOcc {
    pb: u32,
    coeff: i64,
}

/// Conflict-driven engine over clauses and pseudo-Boolean constraints.
///
/// # Examples
///
/// ```
/// use pbo_core::{Lit, PbConstraint};
/// use pbo_engine::{Engine, Conflict};
///
/// let mut e = Engine::new(2);
/// e.add_constraint(&PbConstraint::clause([Lit::new(0, true), Lit::new(1, true)]))
///     .unwrap();
/// e.decide(Lit::new(0, false));
/// assert!(e.propagate().is_none());
/// assert!(e.assignment().is_true(Lit::new(1, true))); // propagated
/// ```
#[derive(Debug)]
pub struct Engine {
    num_vars: usize,
    assignment: Assignment,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail_pos: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    clauses: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    pbs: Vec<PbData>,
    /// Flat term arena backing every stored PB constraint (spans in
    /// [`PbData`]); grows as cuts arrive and shrinks only from the tail
    /// ([`Engine::truncate_pbs`]), so spans stay valid.
    pb_terms: Vec<PbTerm>,
    pb_occur: Vec<Vec<PbOcc>>,
    /// The explanations behind [`Reason::Explained`] literals, one span
    /// per [`Engine::imply_explained`] call above the root, in call
    /// order.
    expl_lits: Vec<Lit>,
    /// Per stored explanation, its start in `expl_lits` and the decision
    /// level of its call; a backjump below that level releases it.
    expls: Vec<(u32, u32)>,
    /// Reusable scratch for implied-literal collection during PB
    /// propagation (no per-propagation allocation).
    implied_buf: Vec<Lit>,
    /// Reusable scratch of decision-level stamps for LBD computation.
    lbd_seen: Vec<u32>,
    /// Epoch for `lbd_seen`.
    lbd_epoch: u32,
    vsids: Vsids,
    phase: Vec<bool>,
    seen: Vec<bool>,
    root_unsat: bool,
    /// Per-observer low watermark: the lowest trail length reached since
    /// that observer's last [`Engine::sync_trail`] call — its
    /// reconciliation point. Indexed by [`TrailObserver`].
    trail_low: Vec<usize>,
    /// Telemetry sink; [`pbo_trace::Tracer::off`] by default, so the
    /// emission sites below cost one branch when tracing is disabled.
    tracer: pbo_trace::Tracer,
    /// Cooperative cancellation, polled inside the propagation loop (see
    /// [`Engine::set_cancel`]); `None` costs one branch per fixpoint.
    cancel: Option<pbo_core::CancelToken>,
    /// Literals popped since the last cancellation poll.
    cancel_clock: u32,
    /// Stats are public for cheap read access by solvers.
    pub stats: EngineStats,
}

/// The slack a PB row holds while [`Engine::raise_pb_degrees`] keeps it
/// out of propagation: enqueues take at most its coefficient sum
/// ([`pbo_core::MAX_COEFF_SUM`]) from it, which leaves it above any
/// coefficient.
const INERT_SLACK: i64 = i64::MAX / 2;

/// Error returned when adding a constraint makes the formula unsatisfiable
/// at the root level.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RootConflict;

impl std::fmt::Display for RootConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "formula is unsatisfiable at the root level")
    }
}

impl std::error::Error for RootConflict {}

impl Engine {
    /// Creates an engine over `num_vars` variables with no constraints.
    pub fn new(num_vars: usize) -> Engine {
        Engine {
            num_vars,
            assignment: Assignment::new(num_vars),
            level: vec![0; num_vars],
            reason: vec![Reason::None; num_vars],
            trail_pos: vec![0; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            clauses: ClauseDb::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            pbs: Vec::new(),
            pb_terms: Vec::new(),
            pb_occur: vec![Vec::new(); 2 * num_vars],
            expl_lits: Vec::new(),
            expls: Vec::new(),
            implied_buf: Vec::new(),
            lbd_seen: vec![0; num_vars + 1],
            lbd_epoch: 0,
            vsids: Vsids::new(num_vars, 0.95),
            phase: vec![false; num_vars],
            seen: vec![false; num_vars],
            root_unsat: false,
            trail_low: Vec::new(),
            tracer: pbo_trace::Tracer::off(),
            cancel: None,
            cancel_clock: 0,
            stats: EngineStats::default(),
        }
    }

    /// Installs a telemetry tracer. Events are emitted at the exact
    /// sites that increment [`EngineStats`], so traced event counts
    /// reconcile with the counters.
    pub fn set_tracer(&mut self, tracer: pbo_trace::Tracer) {
        self.tracer = tracer;
    }

    /// Installs a cooperative cancellation token. [`Engine::propagate`]
    /// polls it every `CANCEL_CHECK_INTERVAL` (512) trail pops and, once it
    /// trips, stops propagating (conflict-free) — sound, because a
    /// partial fixpoint claims nothing: the caller observes the token at
    /// its own poll sites and never uses the truncated propagation to
    /// close a subtree.
    pub fn set_cancel(&mut self, cancel: pbo_core::CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Current decision level (0 = root).
    #[inline]
    pub fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// The current partial assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Decision level at which `var` was assigned (meaningless if
    /// unassigned).
    #[inline]
    pub fn level_of(&self, var: Var) -> u32 {
        self.level[var.index()]
    }

    /// Reason recorded for `var`'s assignment.
    #[inline]
    pub fn reason_of(&self, var: Var) -> Reason {
        self.reason[var.index()]
    }

    /// The assignment trail in chronological order.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// Current trail length (the mark used by [`Engine::sync_trail`]).
    #[inline]
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Registers a new trail observer and returns its handle.
    ///
    /// An observer mirrors a prefix of the trail (initially the empty
    /// prefix) and reconciles with [`Engine::sync_trail`]. Each observer
    /// carries its own low watermark, so any number of independent
    /// consumers — the incremental residual state, the LP bound's
    /// variable-fixing mirror, future incremental analyses — can track
    /// the same engine in O(Δ) each.
    pub fn register_trail_observer(&mut self) -> TrailObserver {
        let id = TrailObserver(self.trail_low.len() as u32);
        // A fresh observer has seen nothing, so its first sync passes
        // `synced_len == 0` and `keep` is 0 regardless of the watermark;
        // starting at the current trail length keeps the invariant
        // "lowest length reached since last sync".
        self.trail_low.push(self.trail.len());
        id
    }

    /// Reconciles the registered trail observer `obs` (e.g. the residual
    /// state maintained by a lower-bound procedure) in O(Δ) instead of
    /// O(trail).
    ///
    /// The observer mirrors a prefix of the trail: it last saw
    /// `synced_len` literals. Because backjumping only ever *truncates*
    /// the trail and assignment only *appends*, the trail the observer
    /// saw and the current trail share a prefix of length at least
    /// `min(synced_len, low)`, where `low` is the lowest trail length
    /// reached since the observer last synced. This method returns that
    /// `keep` point; the contract is that the caller immediately
    ///
    /// 1. unwinds its mirrored state down to `keep` literals, then
    /// 2. replays `self.trail()[keep..]`,
    ///
    /// after which the observer is exactly in sync. Only `obs`'s
    /// watermark is reset; other observers are unaffected.
    pub fn sync_trail(&mut self, obs: TrailObserver, synced_len: usize) -> usize {
        let low = &mut self.trail_low[obs.0 as usize];
        let keep = synced_len.min(*low);
        *low = self.trail.len();
        keep
    }

    /// Returns `true` if a root-level conflict has been derived: no
    /// assignment can satisfy the stored constraints.
    pub fn is_root_unsat(&self) -> bool {
        self.root_unsat
    }

    /// Saved phase (preferred polarity) of a variable.
    pub fn phase_of(&self, var: Var) -> bool {
        self.phase[var.index()]
    }

    /// Overrides the saved phase of a variable.
    pub fn set_phase(&mut self, var: Var, value: bool) {
        self.phase[var.index()] = value;
    }

    /// Bumps the VSIDS activity of a variable (used by solvers to inform
    /// branching, e.g. from LP fractionality).
    pub fn bump_var(&mut self, var: Var) {
        self.vsids.bump(var);
    }

    /// Extracts the complete model as booleans.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not complete.
    pub fn model(&self) -> Vec<bool> {
        assert!(self.assignment.is_complete(), "model requested before assignment complete");
        self.assignment.to_bools_lossy()
    }

    // ------------------------------------------------------------------
    // Constraint loading
    // ------------------------------------------------------------------

    /// Adds a normalized constraint, dispatching clauses to the watched
    /// database and everything else to the counter-based PB store. Must be
    /// called at decision level 0.
    ///
    /// # Errors
    ///
    /// Returns [`RootConflict`] if the constraint (together with earlier
    /// root propagations) is contradictory.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0 (PB slack bookkeeping is
    /// only stable for constraints added at the root; backjump to level 0
    /// first).
    pub fn add_constraint(&mut self, c: &PbConstraint) -> Result<(), RootConflict> {
        assert_eq!(self.decision_level(), 0, "constraints must be added at level 0");
        if self.root_unsat {
            return Err(RootConflict);
        }
        if c.is_unsatisfiable() {
            self.root_unsat = true;
            return Err(RootConflict);
        }
        let result = if c.class() == pbo_core::ConstraintClass::Clause {
            self.add_root_clause(c.terms().iter().map(|t| t.lit).collect())
        } else {
            self.add_root_pb(c)
        };
        if result.is_err() {
            self.root_unsat = true;
        }
        result
    }

    fn add_root_clause(&mut self, mut lits: Vec<Lit>) -> Result<(), RootConflict> {
        // Root-level simplification.
        lits.retain(|&l| !self.assignment.is_false(l) || self.level[l.var().index()] != 0);
        if lits.iter().any(|&l| self.assignment.is_true(l) && self.level[l.var().index()] == 0) {
            return Ok(());
        }
        lits.sort();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return Ok(()); // tautology: l and ~l both present
        }
        match lits.len() {
            0 => Err(RootConflict),
            1 => {
                let lit = lits[0];
                if !self.enqueue(lit, Reason::None) {
                    return Err(RootConflict);
                }
                if self.propagate().is_some() {
                    return Err(RootConflict);
                }
                Ok(())
            }
            _ => {
                let id = self.clauses.insert(lits, false);
                self.attach_clause(id);
                Ok(())
            }
        }
    }

    fn add_root_pb(&mut self, c: &PbConstraint) -> Result<(), RootConflict> {
        let id = PbId(self.pbs.len() as u32);
        let max_coeff = c.terms().iter().map(|t| t.coeff).max().unwrap_or(0);
        let slack = c.slack(&self.assignment);
        let start = self.pb_terms.len() as u32;
        self.pb_terms.extend_from_slice(c.terms());
        let data = PbData { start, len: c.len() as u32, rhs: c.rhs(), slack, max_coeff };
        for t in c.terms() {
            self.pb_occur[t.lit.code()].push(PbOcc { pb: id.0, coeff: t.coeff });
        }
        self.pbs.push(data);
        self.propagate_root_pb(id)
    }

    /// Root propagation of the stored PB constraint `id`, whose slack is
    /// current: a contradiction if the slack is negative, else its
    /// implied literals in term order, then the fixpoint.
    fn propagate_root_pb(&mut self, id: PbId) -> Result<(), RootConflict> {
        let PbData { slack, max_coeff, .. } = self.pbs[id.0 as usize];
        if slack < 0 {
            return Err(RootConflict);
        }
        // Root-level implied literals.
        if slack < max_coeff {
            let mut implied = std::mem::take(&mut self.implied_buf);
            implied.clear();
            implied.extend(
                self.pb_term_slice(id.0)
                    .iter()
                    .filter(|t| t.coeff > slack && self.assignment.is_unassigned(t.lit))
                    .map(|t| t.lit),
            );
            for i in 0..implied.len() {
                if !self.enqueue(implied[i], Reason::Pb(id)) {
                    self.implied_buf = implied;
                    return Err(RootConflict);
                }
            }
            self.implied_buf = implied;
            if self.propagate().is_some() {
                return Err(RootConflict);
            }
        }
        Ok(())
    }

    /// The flat-arena term span of a stored PB constraint.
    #[inline]
    fn pb_term_slice(&self, pb: u32) -> &[PbTerm] {
        let d = &self.pbs[pb as usize];
        &self.pb_terms[d.start as usize..(d.start + d.len) as usize]
    }

    /// Number of stored PB constraints (instance rows and cuts): the
    /// mark to hand to [`Engine::truncate_pbs`] later.
    pub fn num_pbs(&self) -> usize {
        self.pbs.len()
    }

    /// Deletes every PB constraint added after the store held `len` of
    /// them — how a solver drops the cost cuts it added last when a
    /// better incumbent changes their set or their coefficients (a
    /// better incumbent that only raises their degrees goes through
    /// [`Engine::raise_pb_degrees`] instead). Their terms, occurrence
    /// entries (the tail of each occurrence list, since ids grow with
    /// insertion) go; ids from `len` on are reused by the next
    /// additions. Root literals they implied stay assigned, with
    /// [`Reason::None`]: such a literal remains implied whenever the
    /// replacing cuts are at least as tight, as a re-rooted cost cut is.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0.
    pub fn truncate_pbs(&mut self, len: usize) {
        assert_eq!(self.decision_level(), 0, "PB constraints must be deleted at level 0");
        let Some(first) = self.pbs.get(len) else { return };
        let first_term = first.start as usize;
        for t in &self.pb_terms[first_term..] {
            let occ = self.pb_occur[t.lit.code()].pop();
            debug_assert!(occ.is_some_and(|o| o.pb as usize >= len), "occurrence order broken");
        }
        for &lit in &self.trail {
            let reason = &mut self.reason[lit.var().index()];
            if matches!(*reason, Reason::Pb(id) if id.0 as usize >= len) {
                *reason = Reason::None;
            }
        }
        self.pb_terms.truncate(first_term);
        self.pbs.truncate(len);
    }

    /// Raises the degree (right-hand side) of every PB constraint from
    /// `from` on by `delta` at the root: how a solver tightens the cost
    /// cuts it added last when a better incumbent only raises their
    /// degrees. Then each raised row propagates at the root in row order,
    /// as [`Engine::add_pb_cut`] propagates a new row, while the rows not
    /// yet reached are held out of propagation. So the root trail, in
    /// order, the propagation counter and the store end up exactly as
    /// [`Engine::truncate_pbs`] followed by re-adding the raised rows
    /// would leave them, at the cost of one pass over the raised rows'
    /// headers instead of their terms. Root literals the rows implied
    /// before keep their [`Reason::Pb`]: the raised row still forces
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`RootConflict`], and the engine is unsatisfiable at the
    /// root from then on, when a raised row contradicts the root
    /// assignment: where re-adding the rows would have failed.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0, if `delta` is negative,
    /// or if a raised degree overflows.
    pub fn raise_pb_degrees(&mut self, from: usize, delta: i64) -> Result<(), RootConflict> {
        assert_eq!(self.decision_level(), 0, "PB constraints must be raised at level 0");
        assert!(delta >= 0, "degrees are only ever raised");
        if self.root_unsat {
            return Err(RootConflict);
        }
        // A row not reached yet holds `INERT_SLACK` less the weight its
        // literals lose meanwhile, which stays above any coefficient, so
        // propagation passes it by; `before` keeps its slack of the old
        // degree.
        let rows = from.min(self.pbs.len())..self.pbs.len();
        let before: Vec<i64> = self.pbs[rows.clone()]
            .iter_mut()
            .map(|d| std::mem::replace(&mut d.slack, INERT_SLACK))
            .collect();
        let settle = |d: &mut PbData, before: i64| {
            d.rhs = d.rhs.checked_add(delta).expect("raised degree overflows");
            let lost = INERT_SLACK - d.slack;
            d.slack = before.saturating_sub(delta).saturating_sub(lost);
        };
        for (k, pb) in rows.clone().enumerate() {
            settle(&mut self.pbs[pb], before[k]);
            if self.propagate_root_pb(PbId(pb as u32)).is_err() {
                for (j, pb) in rows.enumerate().skip(k + 1) {
                    settle(&mut self.pbs[pb], before[j]);
                }
                self.root_unsat = true;
                return Err(RootConflict);
            }
        }
        Ok(())
    }

    /// The whole PB store — per row its terms, rhs and slack, and
    /// per literal its occurrence list — for differential tests against
    /// a freshly loaded engine.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn pb_store(&self) -> (Vec<(Vec<PbTerm>, i64, i64)>, Vec<Vec<(u32, i64)>>) {
        let rows = (0..self.pbs.len() as u32)
            .map(|pb| {
                let d = &self.pbs[pb as usize];
                (self.pb_term_slice(pb).to_vec(), d.rhs, d.slack)
            })
            .collect();
        let occur = self
            .pb_occur
            .iter()
            .map(|list| list.iter().map(|o| (o.pb, o.coeff)).collect())
            .collect();
        (rows, occur)
    }

    /// The terms of a stored PB constraint (for diagnostics and
    /// cutting-plane-style analyses layered on top of the engine).
    pub fn pb_terms(&self, id: PbId) -> &[PbTerm] {
        self.pb_term_slice(id.0)
    }

    /// The right-hand side of a stored PB constraint.
    pub fn pb_rhs(&self, id: PbId) -> i64 {
        self.pbs[id.0 as usize].rhs
    }

    /// The current slack of a stored PB constraint (non-false weight
    /// minus right-hand side under the current assignment).
    pub fn pb_slack(&self, id: PbId) -> i64 {
        self.pbs[id.0 as usize].slack
    }

    /// Assumes `lit` at the root: the literal becomes a level-0 fact, so
    /// conflict analysis never flips it and [`Resolution::Unsat`] means
    /// "unsatisfiable *under the assumptions*". This is how a
    /// cube-and-conquer worker roots itself in its assigned subtree: the
    /// cube's decision literals are assumed one by one onto a fresh
    /// engine, and everything the worker learns afterwards is implied by
    /// *instance ∧ cube*: conflict analysis drops root-false literals, so
    /// a learned clause is valid within the subtree only and stays with
    /// the engine that learned it. Must be called at decision level 0.
    ///
    /// # Errors
    ///
    /// Returns [`RootConflict`] if the literal contradicts the root
    /// assignment (the cube is closed by propagation alone).
    pub fn assume_at_root(&mut self, lit: Lit) -> Result<(), RootConflict> {
        assert_eq!(self.decision_level(), 0, "assumptions must be made at level 0");
        if self.root_unsat {
            return Err(RootConflict);
        }
        match self.assignment.lit_value(lit) {
            Value::True => Ok(()),
            Value::False => {
                self.root_unsat = true;
                Err(RootConflict)
            }
            Value::Unassigned => {
                let ok = self.enqueue(lit, Reason::None);
                debug_assert!(ok);
                if self.propagate().is_some() {
                    self.root_unsat = true;
                    return Err(RootConflict);
                }
                Ok(())
            }
        }
    }

    /// Adds the normalized upper-bound ("knapsack", eq. 10) cut and
    /// returns its id; [`Engine::raise_pb_degrees`] tightens it and
    /// [`Engine::truncate_pbs`] deletes it once superseded. Must be
    /// called at level 0.
    ///
    /// # Errors
    ///
    /// Returns [`RootConflict`] if the cut is contradictory with the root
    /// assignment — meaning no solution better than the bound exists.
    pub fn add_pb_cut(&mut self, c: &PbConstraint) -> Result<PbId, RootConflict> {
        assert_eq!(self.decision_level(), 0, "cuts must be added at level 0");
        if c.is_unsatisfiable() {
            self.root_unsat = true;
            return Err(RootConflict);
        }
        let id = PbId(self.pbs.len() as u32);
        self.add_root_pb(c).map(|()| id).inspect_err(|_| {
            self.root_unsat = true;
        })
    }

    fn attach_clause(&mut self, id: ClauseId) {
        let (w0, w1, blocker0, blocker1) = {
            let c = self.clauses.get(id);
            debug_assert!(c.len() >= 2);
            (c.lits()[0], c.lits()[1], c.lits()[1], c.lits()[0])
        };
        // `watches[l.code()]` holds the clauses watching literal `l`; the
        // list is visited when `l` becomes false.
        self.watches[w0.code()].push(Watcher { clause: id, blocker: blocker0 });
        self.watches[w1.code()].push(Watcher { clause: id, blocker: blocker1 });
    }

    fn detach_clause(&mut self, id: ClauseId) {
        let (w0, w1) = {
            let c = self.clauses.get(id);
            (c.lits()[0], c.lits()[1])
        };
        self.watches[w0.code()].retain(|w| w.clause != id);
        self.watches[w1.code()].retain(|w| w.clause != id);
    }

    // ------------------------------------------------------------------
    // Assignment control
    // ------------------------------------------------------------------

    /// Enqueues a literal with a reason. Returns `false` if the literal is
    /// already false (caller must treat this as a conflict on the reason
    /// constraint).
    pub fn enqueue(&mut self, lit: Lit, reason: Reason) -> bool {
        match self.assignment.lit_value(lit) {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => {
                let vi = lit.var().index();
                self.assignment.assign_lit(lit);
                self.level[vi] = self.decision_level();
                self.reason[vi] = reason;
                self.trail_pos[vi] = self.trail.len();
                self.trail.push(lit);
                self.stats.propagations += 1;
                // Falsifying ~lit shrinks the slack of every PB constraint
                // that contains ~lit.
                let code = (!lit).code();
                for k in 0..self.pb_occur[code].len() {
                    let occ = self.pb_occur[code][k];
                    self.pbs[occ.pb as usize].slack -= occ.coeff;
                }
                true
            }
        }
    }

    /// Implies every literal of `lits` at the current decision level
    /// with one shared reason, `explanation`: its literals are all false
    /// now, and each `l` of `lits` follows from them, as the clause
    /// `explanation ∨ l` would imply it (no such clause is stored). The
    /// explanation is stored once per call, read by conflict analysis
    /// and released by the backjump that unassigns the literals. At the
    /// root the literals become facts and nothing is stored: conflict
    /// analysis never expands a level-0 literal. Literals already true
    /// are skipped; propagation waits for the next
    /// [`Engine::propagate`]. Returns how many literals were assigned.
    ///
    /// A literal of `lits` that is already false is a caller error:
    /// debug builds panic, release builds skip it.
    pub fn imply_explained(&mut self, explanation: &[Lit], lits: &[Lit]) -> usize {
        debug_assert!(explanation.iter().all(|&l| self.assignment.is_false(l)));
        let level = self.decision_level();
        let reason = if level == 0 {
            Reason::None
        } else {
            self.expls.push((self.expl_lits.len() as u32, level));
            self.expl_lits.extend_from_slice(explanation);
            Reason::Explained(self.expls.len() as u32 - 1)
        };
        let mut assigned = 0;
        for &l in lits {
            if self.assignment.is_unassigned(l) {
                self.enqueue(l, reason);
                assigned += 1;
            } else {
                debug_assert!(self.assignment.is_true(l), "explained literal {l:?} is false");
            }
        }
        assigned
    }

    /// Number of explanations stored for [`Reason::Explained`] literals.
    #[cfg(test)]
    pub(crate) fn num_explanations(&self) -> usize {
        self.expls.len()
    }

    /// The literals of stored explanation `id`.
    fn explanation(&self, id: u32) -> &[Lit] {
        let start = self.expls[id as usize].0 as usize;
        let end = self.expls.get(id as usize + 1).map_or(self.expl_lits.len(), |e| e.0 as usize);
        &self.expl_lits[start..end]
    }

    /// Starts a new decision level and assigns `lit`.
    ///
    /// # Panics
    ///
    /// Panics if `lit`'s variable is already assigned.
    pub fn decide(&mut self, lit: Lit) {
        assert!(self.assignment.is_unassigned(lit), "deciding an assigned literal");
        self.trail_lim.push(self.trail.len());
        self.stats.decisions += 1;
        self.tracer.emit(pbo_trace::TraceEvent::Decision);
        let ok = self.enqueue(lit, Reason::None);
        debug_assert!(ok);
    }

    /// Undoes all assignments above `target_level`.
    pub fn backjump_to(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let new_len = self.trail_lim[target_level as usize];
        for i in (new_len..self.trail.len()).rev() {
            let lit = self.trail[i];
            let vi = lit.var().index();
            // Restore PB slacks (mirror of enqueue).
            let code = (!lit).code();
            for k in 0..self.pb_occur[code].len() {
                let occ = self.pb_occur[code][k];
                self.pbs[occ.pb as usize].slack += occ.coeff;
            }
            self.phase[vi] = lit.is_positive();
            self.assignment.unassign(lit.var());
            self.reason[vi] = Reason::None;
            self.vsids.insert(lit.var());
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
        while let Some(&(start, _)) = self.expls.last().filter(|e| e.1 > target_level) {
            self.expls.pop();
            self.expl_lits.truncate(start as usize);
        }
        for low in &mut self.trail_low {
            *low = (*low).min(new_len);
        }
    }

    /// Restarts the search (backjump to the root, keep learned clauses).
    pub fn restart(&mut self) {
        self.stats.restarts += 1;
        self.tracer.emit(pbo_trace::TraceEvent::Restart);
        self.backjump_to(0);
    }

    /// Picks the unassigned variable with the highest VSIDS activity, or
    /// `None` if every variable is assigned.
    pub fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.vsids.pop_max() {
            if self.assignment.value(v) == Value::Unassigned {
                return Some(v);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    /// Propagates to fixpoint. Returns the conflict if one is found.
    ///
    /// With a cancellation token installed ([`Engine::set_cancel`]) a
    /// tripped token ends the fixpoint early with no conflict; the
    /// unprocessed queue suffix stays on the trail and would be
    /// propagated by the next call.
    pub fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            if let Some(cancel) = &self.cancel {
                self.cancel_clock += 1;
                if self.cancel_clock >= CANCEL_CHECK_INTERVAL {
                    self.cancel_clock = 0;
                    if cancel.is_cancelled() {
                        return None;
                    }
                }
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(confl) = self.propagate_clauses(p) {
                self.qhead = self.trail.len();
                return Some(confl);
            }
            if let Some(confl) = self.propagate_pbs(p) {
                self.qhead = self.trail.len();
                return Some(confl);
            }
        }
        None
    }

    /// Standard two-watched-literal scheme over the clause database.
    fn propagate_clauses(&mut self, p: Lit) -> Option<Conflict> {
        let false_lit = !p;
        let code = false_lit.code();
        let mut ws = std::mem::take(&mut self.watches[code]);
        let mut i = 0;
        let mut j = 0;
        let mut conflict = None;
        'watchers: while i < ws.len() {
            let w = ws[i];
            i += 1;
            if self.assignment.is_true(w.blocker) {
                ws[j] = w;
                j += 1;
                continue;
            }
            let cid = w.clause;
            // Normalize so lits[1] is the falsified watch.
            let first = {
                let c = self.clauses.get_mut(cid);
                let lits = c.lits_mut();
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                lits[0]
            };
            if first != w.blocker && self.assignment.is_true(first) {
                ws[j] = Watcher { clause: cid, blocker: first };
                j += 1;
                continue;
            }
            // Look for a new watch.
            let len = self.clauses.get(cid).len();
            for k in 2..len {
                let lk = self.clauses.get(cid).lits()[k];
                if self.assignment.lit_value(lk) != Value::False {
                    let c = self.clauses.get_mut(cid);
                    c.lits_mut().swap(1, k);
                    self.watches[lk.code()].push(Watcher { clause: cid, blocker: first });
                    continue 'watchers;
                }
            }
            // No new watch: clause is unit or conflicting.
            ws[j] = Watcher { clause: cid, blocker: first };
            j += 1;
            if !self.enqueue(first, Reason::Clause(cid)) {
                // Conflict: keep remaining watchers.
                while i < ws.len() {
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                }
                conflict = Some(Conflict::Clause(cid));
                break;
            }
        }
        ws.truncate(j);
        self.watches[code] = ws;
        conflict
    }

    /// Counter-based propagation for PB constraints containing `!p`.
    fn propagate_pbs(&mut self, p: Lit) -> Option<Conflict> {
        let code = (!p).code();
        for k in 0..self.pb_occur[code].len() {
            let occ = self.pb_occur[code][k];
            let pb_idx = occ.pb as usize;
            let slack = self.pbs[pb_idx].slack;
            if slack < 0 {
                return Some(Conflict::Pb(PbId(occ.pb)));
            }
            if slack < self.pbs[pb_idx].max_coeff {
                // Every unassigned literal with coeff > slack is forced.
                let mut implied = std::mem::take(&mut self.implied_buf);
                implied.clear();
                implied.extend(
                    self.pb_term_slice(occ.pb)
                        .iter()
                        .filter(|t| t.coeff > slack && self.assignment.is_unassigned(t.lit))
                        .map(|t| t.lit),
                );
                for &l in &implied {
                    let ok = self.enqueue(l, Reason::Pb(PbId(occ.pb)));
                    debug_assert!(ok, "implied literal cannot be false");
                }
                self.implied_buf = implied;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Conflict analysis (first-UIP)
    // ------------------------------------------------------------------

    /// Literals of the conflicting constraint, all currently false.
    fn conflict_literals(&self, conflict: &Conflict) -> Vec<Lit> {
        match conflict {
            Conflict::Clause(id) => self.clauses.get(*id).lits().to_vec(),
            Conflict::Pb(id) => self
                .pb_term_slice(id.0)
                .iter()
                .map(|t| t.lit)
                .filter(|&l| self.assignment.is_false(l))
                .collect(),
            Conflict::AdHoc(lits) => lits.clone(),
        }
    }

    /// The literals that implied `p` (all currently false), given its
    /// recorded reason.
    fn reason_literals(&self, p: Lit) -> Vec<Lit> {
        match self.reason[p.var().index()] {
            Reason::None => Vec::new(),
            Reason::Clause(id) => {
                self.clauses.get(id).lits().iter().copied().filter(|&l| l != p).collect()
            }
            Reason::Pb(id) => {
                let p_pos = self.trail_pos[p.var().index()];
                self.pb_term_slice(id.0)
                    .iter()
                    .map(|t| t.lit)
                    .filter(|&l| {
                        self.assignment.is_false(l) && self.trail_pos[l.var().index()] < p_pos
                    })
                    .collect()
            }
            Reason::Explained(id) => self.explanation(id).to_vec(),
        }
    }

    /// Resolves a conflict: learns a first-UIP clause, backjumps and
    /// asserts its head literal. Handles conflicts whose literals live
    /// below the current decision level (bound conflicts) by first
    /// backtracking to the highest involved level.
    ///
    /// Literals false at level 0 are dropped from the learned clause, so
    /// the clause is implied by the stored constraints together with the
    /// root facts: under [`Engine::assume_at_root`] assumptions it holds
    /// only inside their subtree.
    pub fn resolve_conflict(&mut self, conflict: Conflict) -> Resolution {
        self.stats.conflicts += 1;
        self.tracer.emit(pbo_trace::TraceEvent::Conflict);
        if matches!(conflict, Conflict::AdHoc(_)) {
            self.stats.adhoc_conflicts += 1;
        }
        if let Conflict::Clause(id) = conflict {
            self.clauses.bump_activity(id);
        }
        let conflict_lits = self.conflict_literals(&conflict);
        debug_assert!(
            conflict_lits.iter().all(|&l| self.assignment.is_false(l)),
            "conflict literals must all be false"
        );
        let max_level =
            conflict_lits.iter().map(|&l| self.level[l.var().index()]).max().unwrap_or(0);
        if max_level == 0 {
            self.root_unsat = true;
            return Resolution::Unsat;
        }
        let entry_level = self.decision_level();
        // A bound conflict may not involve the deepest decisions; drop to
        // the highest level that matters before the UIP walk. All conflict
        // literals stay false.
        if max_level < entry_level {
            self.backjump_to(max_level);
        }
        let current = self.decision_level();

        let mut learnt: Vec<Lit> = vec![Lit::new(0, true)]; // placeholder head
        let mut path_count: u32 = 0;
        let mut index = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();

        let mut pending: Vec<Lit> = conflict_lits;
        let asserted;
        loop {
            for &q in &pending {
                let v = q.var();
                let lvl = self.level[v.index()];
                if !self.seen[v.index()] && lvl > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.vsids.bump(v);
                    if lvl >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next trail literal involved in the conflict.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                asserted = !p;
                break;
            }
            pending = self.reason_literals(p);
            if let Reason::Clause(id) = self.reason[p.var().index()] {
                self.clauses.bump_activity(id);
            }
        }
        learnt[0] = asserted;
        for v in to_clear {
            self.seen[v.index()] = false;
        }
        // LBD at learn time: distinct decision levels among the learned
        // literals (computed before backjumping, like Glucose does).
        let lbd = self.compute_lbd(&learnt);

        // Backjump level: highest level among the tail literals.
        let backjump_level = if learnt.len() == 1 {
            0
        } else {
            let (best_idx, best_level) = learnt[1..]
                .iter()
                .enumerate()
                .map(|(i, &l)| (i + 1, self.level[l.var().index()]))
                .max_by_key(|&(_, lvl)| lvl)
                .expect("non-empty tail");
            learnt.swap(1, best_idx);
            best_level
        };
        self.stats.backjump_levels += (current - backjump_level) as u64;
        self.backjump_to(backjump_level);

        self.stats.learnt_clauses += 1;
        self.stats.learnt_literals += learnt.len() as u64;
        let learnt_len = learnt.len();
        let id = self.clauses.insert(learnt, true);
        self.clauses.set_lbd(id, lbd);
        if learnt_len > 1 {
            self.attach_clause(id);
            self.clauses.bump_activity(id);
        }
        let ok = self.enqueue(asserted, Reason::Clause(id));
        debug_assert!(ok, "asserted literal must be enqueuable after backjump");
        self.vsids.decay();
        self.clauses.decay_activity();
        Resolution::Backjumped { level: backjump_level, asserted, learnt_len, learnt_id: Some(id) }
    }

    /// Number of distinct decision levels among `lits` (the literal
    /// block distance), using an epoch-stamped scratch — no allocation,
    /// no sorting.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_epoch = self.lbd_epoch.wrapping_add(1);
        if self.lbd_epoch == 0 {
            self.lbd_seen.iter_mut().for_each(|s| *s = 0);
            self.lbd_epoch = 1;
        }
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.lbd_seen[lvl] != self.lbd_epoch {
                self.lbd_seen[lvl] = self.lbd_epoch;
                lbd += 1;
            }
        }
        lbd
    }

    // ------------------------------------------------------------------
    // Learned database maintenance
    // ------------------------------------------------------------------

    /// Number of live learned clauses.
    pub fn num_learnts(&self) -> usize {
        self.clauses.num_learnt()
    }

    /// Removes roughly half of the learned clauses, keeping the most
    /// active ones, binary clauses and clauses currently used as reasons.
    pub fn reduce_learnts(&mut self) {
        self.stats.db_reductions += 1;
        let locked: std::collections::HashSet<ClauseId> = self
            .trail
            .iter()
            .filter_map(|l| match self.reason[l.var().index()] {
                Reason::Clause(id) => Some(id),
                _ => None,
            })
            .collect();
        let mut candidates: Vec<(ClauseId, f64)> = self
            .clauses
            .iter()
            .filter(|(id, c)| c.is_learnt() && c.len() > 2 && !locked.contains(id))
            .map(|(id, c)| (id, c.activity()))
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let remove_count = candidates.len() / 2;
        let ids: Vec<ClauseId> = candidates[..remove_count].iter().map(|&(id, _)| id).collect();
        for id in ids {
            self.detach_clause(id);
            self.clauses.remove(id);
        }
    }
}
