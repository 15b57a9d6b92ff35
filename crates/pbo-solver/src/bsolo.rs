//! The bsolo-style solver: SAT-based branch-and-bound with lower
//! bounding and bound-conflict-driven non-chronological backtracking —
//! the system the DATE'05 paper describes.
//!
//! The search is a CDCL loop (propagate / resolve / decide) on the
//! [`pbo_engine::Engine`], extended with:
//!
//! * an upper bound `P.upper` maintained from improving solutions, with
//!   the knapsack cut of eq. 10 (and, with
//!   [`BsoloOptions::cardinality_cuts`] under every bound but LPR, the
//!   cardinality cost cuts of eqs. 11–13) tightened at the root after
//!   each improvement — their degrees raised in place, or the rows
//!   re-added when their set or coefficients change
//!   (`CostCuts::install`). The cuts live in the engine only: every bound
//!   reads the instance's rows alone. Learned clauses serve only the
//!   search that derived them, in a parallel solve
//!   ([`ParBsolo`](crate::ParBsolo)) too: its cube tasks share
//!   incumbents, never clauses;
//! * a pluggable lower-bound procedure called at every node; when
//!   `P.path + P.lower >= P.upper` (eq. 7) the solver builds the bound
//!   conflict clause `omega_bc = omega_pp ∪ omega_pl` (eqs. 8–9) and
//!   feeds it to the standard conflict analysis, obtaining
//!   non-chronological backtracking on bounds (sec. 4). Before the first
//!   incumbent exists the procedure still runs: an *infeasible* residual
//!   (e.g. the LPR Farkas case) prunes with `omega_pl` alone. When the
//!   LP bound does not prune, its reduced-cost fixings (eq. 7 one
//!   literal ahead) are implied at the node with `omega_bc` as their
//!   shared reason ([`Engine::imply_explained`]), and propagation and the
//!   bound run again; under LPR they take the eqs. 11–13 rows' place;
//! * an incrementally maintained residual problem
//!   ([`pbo_bounds::ResidualState`]): per-constraint satisfied-weight and
//!   free-term counters are synced to the engine trail in O(Δ) per node
//!   instead of rebuilding the subproblem from scratch (the O(instance)
//!   rebuild survives only as the tests' differential oracle). The LP
//!   bound's variable fixings replay the same trail suffix in the same
//!   sync, so LP bound sync is O(changed vars) per node too;
//! * LP-guided branching when the LP relaxation is the bound procedure
//!   (sec. 5): branch on the fractional variable closest to 0.5,
//!   VSIDS tie-break;
//! * optional probing-based preprocessing (sec. 5);
//! * an optional shared [`IncumbentCell`](crate::IncumbentCell): an
//!   external producer (the `pbo-ls` local search, another thread, a
//!   previous solve) seeds the initial upper bound, every improving
//!   solution found here is published back, and strictly better external
//!   incumbents are adopted mid-search (with the eq. 10 cuts re-rooted) —
//!   the mechanism behind the portfolio driver
//!   ([`Portfolio`](crate::Portfolio)). Under the portfolio's default
//!   strategy each improving solution is also polished by a short
//!   local-search walk through the cell before the cuts are installed
//!   (crate-private; the public solvers never polish).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use pbo_core::{verify_solution, Instance, Lit, Value, Var};
use pbo_engine::{Conflict, Engine, LubyRestarts, Resolution};
use pbo_ls::{IncumbentCell, LocalSearch, LsOptions};
use pbo_trace::{TraceEvent, Tracer, LS_LANE_BASE};

use crate::cuts::CostCuts;
use crate::options::{BsoloOptions, LbMethod};
use crate::pipeline::BoundPipeline;
use crate::preprocess::{probe, ProbeOutcome};
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// Steps of the local-search walk that polishes each improving
/// incumbent when a search polishes (see [`SearchState::polish`]).
/// Walks of 1,024 and 4,096 steps measured within noise of this one;
/// 8,192 cost more than they saved on covering instances.
const POLISH_STEPS: u64 = 2_048;

/// The bsolo branch-and-bound PBO solver.
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_solver::{Bsolo, BsoloOptions, LbMethod};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[1].positive(), v[2].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
/// let inst = b.build()?;
///
/// let result = Bsolo::new(BsoloOptions::with_lb(LbMethod::Lpr)).solve(&inst);
/// assert!(result.is_optimal());
/// assert_eq!(result.best_cost, Some(3));
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Bsolo {
    options: BsoloOptions,
}

impl Bsolo {
    /// Creates a solver with the given configuration.
    pub fn new(options: BsoloOptions) -> Bsolo {
        Bsolo { options }
    }

    /// Convenience constructor: default options with the given bound
    /// method (matching one Table 1 column).
    pub fn with_lb(lb_method: LbMethod) -> Bsolo {
        Bsolo::new(BsoloOptions::with_lb(lb_method))
    }

    /// The active configuration.
    pub fn options(&self) -> &BsoloOptions {
        &self.options
    }

    /// Solves `instance` to optimality or until the budget runs out.
    pub fn solve(&self, instance: &Instance) -> SolveResult {
        self.solve_with_cell(instance, None)
    }

    /// Like [`Bsolo::solve`], but wired to a shared incumbent cell:
    ///
    /// * a solution already in the cell warm-starts the upper bound (and
    ///   the eq. 10 cost cuts) before the first decision;
    /// * every improving solution found by the search is published to the
    ///   cell;
    /// * strictly better external incumbents appearing mid-search are
    ///   verified, adopted, and the cost cuts re-rooted.
    ///
    /// External solutions are accepted only after passing
    /// [`pbo_core::verify_solution`]; an infeasible or mis-priced offer
    /// is ignored.
    pub fn solve_with_cell(
        &self,
        instance: &Instance,
        cell: Option<&IncumbentCell>,
    ) -> SolveResult {
        self.solve_with_polish(instance, cell, None)
    }

    /// [`Bsolo::solve_with_cell`], polishing every improving incumbent
    /// with a walk configured by `polish` (its seed and cancel token)
    /// when given — the portfolio default's walk-then-search order.
    pub(crate) fn solve_with_polish(
        &self,
        instance: &Instance,
        cell: Option<&IncumbentCell>,
        polish: Option<&LsOptions>,
    ) -> SolveResult {
        let start = Instant::now();
        let mut stats = SolverStats { lb_method: self.options.lb_method, ..SolverStats::default() };
        let (options, lp_stop) = under_budget_deadline(&self.options);
        // Covering-style simplification preserves the variable space and
        // the exact feasible set, so models and costs transfer 1:1 (which
        // is also what lets incumbents cross between the simplified
        // search and unsimplified external producers).
        let instance = &crate::preprocess::simplify(instance);
        let tracer = if options.trace { Tracer::buffered(0, start) } else { Tracer::off() };
        let mut search = match SearchState::init(
            instance,
            &options,
            cell,
            start,
            &mut stats,
            &[],
            lp_stop,
            tracer.clone(),
            polish,
        ) {
            Ok(s) => s,
            Err(()) => {
                stats.solve_time = start.elapsed();
                stats.trace = tracer.drain();
                return SolveResult {
                    status: SolveStatus::Infeasible,
                    best_cost: None,
                    best_assignment: None,
                    stats,
                };
            }
        };
        let status = search.run(start, &mut stats);
        search.finish_stats(&mut stats);
        stats.solve_time = start.elapsed();
        stats.trace.extend(tracer.drain());
        SolveResult {
            status,
            best_cost: search.best_cost,
            best_assignment: search.best_model,
            stats,
        }
    }
}

/// The options a solve runs under, and the raw flag its LP pivot loop
/// polls. A wall-clock budget reaches the layers the between-node budget
/// check cannot — the LP pivot loop and the propagation loop — through
/// the cancel token's deadline. With a caller's token, a budgeted solve
/// runs under a [`CancelToken::child`] carrying the budget's deadline: it
/// reports the earlier of that and the caller's own deadline, and the
/// caller's token leaves the solve as it came in and can be reused. A
/// child latches its raw flag only when something polls it, so the LP
/// keeps polling the caller's flag, beside the child's deadline.
///
/// [`CancelToken::child`]: pbo_core::CancelToken::child
pub(crate) fn under_budget_deadline(
    options: &BsoloOptions,
) -> (BsoloOptions, Option<Arc<AtomicBool>>) {
    let mut options = options.clone();
    let lp_stop = options.cancel.as_ref().map(|cancel| cancel.flag());
    if let (Some(cancel), Some(t)) = (&options.cancel, options.budget.time) {
        let child = cancel.child();
        child.deadline_in(t);
        options.cancel = Some(child);
    }
    (options, lp_stop)
}

/// The per-(sub)tree search state: one engine, one bound pipeline, one
/// incumbent view.
///
/// The sequential solver owns exactly one of these for the whole tree;
/// the parallel driver ([`ParBsolo`](crate::ParBsolo)) builds one per
/// *subtree task* — a [`Cube`](crate::Cube) of decision literals assumed
/// at the root — each borrowing the same `&Instance` (and through it the
/// shared read-only `TermArena`), so N workers share one copy of the
/// term and occurrence data and own only their counters, trails and
/// learned clauses.
pub(crate) struct SearchState<'a> {
    instance: &'a Instance,
    options: &'a BsoloOptions,
    engine: Engine,
    /// The bounding subsystem: bound procedure, residual state, trail
    /// sync and gating policy.
    pipeline: BoundPipeline,
    /// Shared incumbent cell of the portfolio, if any.
    cell: Option<&'a IncumbentCell>,
    /// Solve start, for `time_to_best` accounting.
    start: Instant,
    best_cost: Option<i64>,
    best_model: Option<Vec<bool>>,
    /// The eq. 10–13 cut templates, derived once per search, and the
    /// cost-cut rows they installed last in the engine's PB store
    /// (nothing else adds PB rows once the search starts).
    cost_cuts: CostCuts<'a>,
    /// Cost of the cheapest cell entry that failed verification (a buggy
    /// external producer); entries at or above it are not re-verified.
    rejected_external: Option<i64>,
    /// Luby restart budgets (`None` disables restarts); a zero base is
    /// clamped to 1 so a restart can never re-fire before at least one
    /// new conflict.
    restarts: Option<LubyRestarts>,
    /// Conflict count that triggers the next restart (`u64::MAX` when
    /// restarts are disabled).
    next_restart: u64,
    /// The cube this search is rooted in (empty for the sequential
    /// solver), *extended in place* by [`SearchState::resplit`] as the
    /// worker deepens — so re-split arm cubes always carry the full
    /// current prefix.
    cube: Vec<Lit>,
    /// Telemetry handle shared with the engine and the bound pipeline
    /// (one lane per worker); [`Tracer::off`] when tracing is disabled.
    tracer: Tracer,
    /// The polish walk's configuration when this search polishes its
    /// improving incumbents ([`SearchState::polish`]).
    polish: Option<LsOptions>,
    /// The polish walker: built at the first improving solution and
    /// reused after it, so its weights and its cumulative restart clock
    /// carry over from walk to walk.
    walker: Option<LocalSearch<'a>>,
}

impl<'a> SearchState<'a> {
    /// Builds the search state, optionally rooted in a subtree: every
    /// literal of `cube` is assumed at level 0 after probing, so the
    /// search explores exactly the subtree the cube describes (conflict
    /// analysis can never flip an assumption). `Err(())` means the
    /// formula — instance ∧ cube — is unsatisfiable at the root: for the
    /// sequential solver (empty cube) that is global infeasibility, for
    /// a cube worker it closes the subtree.
    ///
    /// The LP pivot loop polls `lp_stop` (the caller's raw cancel flag,
    /// see [`under_budget_deadline`]) when given, else the raw flag of
    /// `options.cancel`, beside that token's deadline; with no token it
    /// polls the budget's deadline, `start + budget.time`.
    ///
    /// `polish` (seed and cancel token of the walk) turns on the polish
    /// walk of every improving solution ([`SearchState::polish`]); a walk
    /// without a token of its own takes `options.cancel`, so it stops at
    /// the budget's deadline too.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn init(
        instance: &'a Instance,
        options: &'a BsoloOptions,
        cell: Option<&'a IncumbentCell>,
        start: Instant,
        stats: &mut SolverStats,
        cube: &[Lit],
        lp_stop: Option<Arc<AtomicBool>>,
        tracer: Tracer,
        polish: Option<&LsOptions>,
    ) -> Result<SearchState<'a>, ()> {
        let mut engine = Engine::new(instance.num_vars());
        engine.set_tracer(tracer.clone());
        for c in instance.constraints() {
            if engine.add_constraint(c).is_err() {
                return Err(());
            }
        }
        if options.probing {
            match probe(instance, &mut engine) {
                ProbeOutcome::Infeasible => return Err(()),
                ProbeOutcome::Done { forced } => {
                    stats.propagations += forced as u64;
                }
            }
        }
        for &lit in cube {
            if engine.assume_at_root(lit).is_err() {
                return Err(());
            }
        }
        let mut pipeline = BoundPipeline::new(instance, options);
        pipeline.set_tracer(tracer.clone());
        // Thread the cancel token into the two kernels that can outlive
        // a between-node budget check: unit propagation and the LP
        // relaxation's pivot loop. Without a token the budget's deadline
        // still reaches the LP, so one long solve cannot outlast it; the
        // expiry then surfaces at the next budget check, as budget
        // exhaustion rather than a cancellation.
        if let Some(cancel) = &options.cancel {
            engine.set_cancel(cancel.clone());
            pipeline.set_cancel(cancel.deadline(), Some(lp_stop.unwrap_or_else(|| cancel.flag())));
        } else if let Some(t) = options.budget.time {
            pipeline.set_cancel(Some(start + t), None);
        }
        let mut restarts = options.restart_base.map(|base| LubyRestarts::new(base.max(1)));
        let next_restart =
            restarts.as_mut().map_or(u64::MAX, |r| r.next().expect("luby sequence is infinite"));
        Ok(SearchState {
            instance,
            options,
            engine,
            pipeline,
            cell,
            start,
            best_cost: None,
            best_model: None,
            // Under LPR the reduced-cost fixings do the eqs. 11–13 rows'
            // job, so only the eq. 10 row is installed.
            cost_cuts: CostCuts::new(
                instance,
                options.cardinality_cuts && options.lb_method != LbMethod::Lpr,
            ),
            rejected_external: None,
            restarts,
            next_restart,
            cube: cube.to_vec(),
            tracer,
            polish: polish.map(|o| LsOptions {
                max_steps: POLISH_STEPS,
                time_limit: None,
                cancel: o.cancel.clone().or_else(|| options.cancel.clone()),
                ..o.clone()
            }),
            walker: None,
        })
    }

    /// Folds the engine- and pipeline-side effort counters into `stats`
    /// (the assignment half of result assembly, shared by the sequential
    /// driver and the parallel workers), with the polish walker's steps
    /// and trace events.
    pub(crate) fn finish_stats(&mut self, stats: &mut SolverStats) {
        if let Some(walker) = &mut self.walker {
            stats.ls_steps = walker.stats.steps;
            stats.trace.extend(walker.drain_trace());
        }
        stats.decisions = self.engine.stats.decisions;
        stats.conflicts = self.engine.stats.conflicts;
        stats.propagations = self.engine.stats.propagations;
        stats.restarts = self.engine.stats.restarts;
        stats.backjump_levels = self.engine.stats.backjump_levels;
        if let Some(lpr) = self.pipeline.lpr() {
            stats.lp_iterations = lpr.simplex_iterations();
        }
    }

    /// Final status once the search space is exhausted.
    fn exhausted_status(&self) -> SolveStatus {
        if self.best_cost.is_some() {
            SolveStatus::Optimal
        } else {
            SolveStatus::Infeasible
        }
    }

    /// Whether the budget of a search started at `start` has run out.
    fn budget_exhausted(&self, start: Instant) -> bool {
        let stats = &self.engine.stats;
        self.options.budget.exhausted(start.elapsed(), stats.conflicts, stats.decisions)
    }

    /// Status when the budget runs out.
    fn budget_status(&self) -> SolveStatus {
        if self.best_cost.is_some() {
            SolveStatus::Feasible
        } else {
            SolveStatus::Unknown
        }
    }

    pub(crate) fn run(&mut self, start: Instant, stats: &mut SolverStats) -> SolveStatus {
        self.run_capped(start, stats, None).expect("uncapped run always finishes")
    }

    /// [`SearchState::run`] with an optional conflict cap: returns
    /// `None` — with the search state intact, mid-tree — once the
    /// engine's total conflict count reaches `cap`. The parallel driver
    /// uses this as the re-split trigger: a worker that has burned its
    /// conflict allowance on one cube pauses here, hands off the
    /// complement cubes of its decision prefix ([`SearchState::resplit`])
    /// and resumes with a higher cap.
    pub(crate) fn run_capped(
        &mut self,
        start: Instant,
        stats: &mut SolverStats,
        cap: Option<u64>,
    ) -> Option<SolveStatus> {
        if self.engine.is_root_unsat() {
            return Some(self.exhausted_status());
        }
        loop {
            if cap.is_some_and(|c| self.engine.stats.conflicts >= c) {
                return None;
            }
            // A strictly better external incumbent (the LS thread, a
            // portfolio sibling) tightens the upper bound immediately —
            // checked before the budget so a seeded solution is never
            // discarded by an already-exhausted budget.
            if let Some(status) = self.adopt_external(stats) {
                return Some(status);
            }
            if self.budget_exhausted(start) {
                return Some(self.budget_status());
            }
            // Cooperative cancellation (external cancel, or a deadline
            // tighter than the budget). A deadline derived from the budget
            // lies no earlier than the budget's end, so the budget is read
            // again once the token has tripped: such a deadline expiring
            // is reported as budget exhaustion, not as a cancellation.
            if self.options.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                stats.cancelled = !self.budget_exhausted(start);
                return Some(self.budget_status());
            }
            // Luby restart: back to the root (learned clauses kept).
            if self.engine.stats.conflicts >= self.next_restart {
                self.engine.restart();
                let budget = self
                    .restarts
                    .as_mut()
                    .and_then(Iterator::next)
                    .expect("restart fired, so the schedule exists");
                self.next_restart = self.engine.stats.conflicts.saturating_add(budget.max(1));
            }
            // Propagate to fixpoint.
            if let Some(conflict) = self.engine.propagate() {
                match self.engine.resolve_conflict(conflict) {
                    Resolution::Unsat => return Some(self.exhausted_status()),
                    Resolution::Backjumped { .. } => continue,
                }
            }
            // Complete assignment: a solution of the current formula.
            if self.engine.assignment().is_complete() {
                match self.record_solution(stats) {
                    SolutionStep::Finished(status) => return Some(status),
                    SolutionStep::Continue => continue,
                }
            }
            // Bound step (eq. 7). With an incumbent the bound prunes on
            // cost. Before the first incumbent only procedures that can
            // prove a subtree has *no* feasible completion run: LPR's
            // Farkas certificate, and MIS's implication closure (LGR and
            // plain cannot prove infeasibility).
            if self.instance.is_optimization() && self.pipeline.can_act(self.best_cost.is_some()) {
                let upper = self.best_cost;
                self.pipeline.compute(&mut self.engine, self.instance, upper, stats);
                let out = self.pipeline.last_outcome();
                let prunes = match upper {
                    Some(u) => out.prunes(u),
                    None => out.infeasible,
                };
                if prunes {
                    stats.bound_conflicts += 1;
                    // An infeasibility explanation stands on its own: the
                    // bounds read the instance's rows alone, so no
                    // completion exists regardless of cost, and the
                    // omega_pp cost literals would only weaken the
                    // learned clause.
                    let omega_bc = self.build_bound_conflict(&out.explanation, !out.infeasible);
                    match self.engine.resolve_conflict(Conflict::AdHoc(omega_bc)) {
                        Resolution::Unsat => return Some(self.exhausted_status()),
                        Resolution::Backjumped { .. } => continue,
                    }
                }
                // Reduced-cost fixing (LPR): each fixing holds in every
                // completion cheaper than the incumbent that keeps
                // omega_bc false, so it is implied with omega_bc as its
                // reason, and propagation and the bound run again.
                if !out.fixings.is_empty() {
                    let omega_bc = self.build_bound_conflict(&out.explanation, true);
                    let fixed = self.engine.imply_explained(&omega_bc, &out.fixings);
                    stats.lb_fixings += fixed as u64;
                    continue;
                }
            }
            // Decide.
            let Some(lit) = self.pick_branch() else {
                // Every variable assigned; handled by the completeness
                // check next iteration.
                continue;
            };
            self.engine.decide(lit);
        }
    }

    /// Dynamic re-split (the guiding-path step): takes the first
    /// `max_arms` decision literals `d1..dm` of the current trail,
    /// backjumps to the root, *assumes* them — deepening this search's
    /// cube to `C ∧ d1 ∧ … ∧ dm`, which every learned clause remains
    /// implied under (a superset of the old assumption set) — and
    /// returns the complement cubes
    ///
    /// ```text
    /// C ∧ ¬d1,   C ∧ d1 ∧ ¬d2,   …,   C ∧ d1 ∧ … ∧ d(m−1) ∧ ¬dm
    /// ```
    ///
    /// which together with the deepened cube exactly partition `C`: no
    /// assignment is lost or duplicated, so handing them to the queue
    /// preserves the parallel driver's exact-partition invariant. If
    /// assuming `dj` fails (the deepened cube is refuted by root
    /// propagation — sound, since every clause involved is implied by
    /// instance ∧ cube ∧ cost cuts), the arm list is truncated after
    /// `j` entries and the continuing search closes immediately.
    ///
    /// Returns an empty vector when the trail holds no decisions (the
    /// caller should just keep running).
    pub(crate) fn resplit(&mut self, max_arms: usize) -> Vec<Vec<Lit>> {
        let decisions: Vec<Lit> = self
            .engine
            .trail()
            .iter()
            .copied()
            .filter(|&l| {
                self.engine.level_of(l.var()) > 0
                    && matches!(self.engine.reason_of(l.var()), pbo_engine::Reason::None)
            })
            .collect();
        if decisions.is_empty() {
            return Vec::new();
        }
        let m = decisions.len().min(max_arms.max(1));
        let prefix = &decisions[..m];
        self.engine.backjump_to(0);
        let mut arms: Vec<Vec<Lit>> = Vec::with_capacity(m);
        for (i, &d) in prefix.iter().enumerate() {
            let mut arm = self.cube.clone();
            arm.extend_from_slice(&prefix[..i]);
            arm.push(!d);
            arms.push(arm);
            self.cube.push(d);
            if self.engine.assume_at_root(d).is_err() {
                break;
            }
        }
        arms
    }

    /// A single greedy cost-avoiding descent from the root, run on a
    /// freshly initialized cube task before any proof search: every
    /// objective literal is decided false (largest coefficient first),
    /// then the remaining variables follow the engine's saved-phase
    /// heuristic, with unit propagation — but no bound computation —
    /// between decisions. A completed descent is a feasible completion
    /// of the cube; the caller's main loop records and publishes it, so
    /// a worker pool starts from `threads` *diverse* primal bounds
    /// instead of racing each other (across the whole pool, wall-clock)
    /// for the first incumbent. A conflict ends the dive through the
    /// normal learning path — the learned clause and its backjump
    /// stand, and the main loop resumes from wherever the backjump left
    /// the trail. Returns `Some` only when the dive refutes the cube
    /// outright.
    pub(crate) fn primal_dive(&mut self) -> Option<SolveStatus> {
        let mut cost_order: Vec<(i64, Lit)> =
            self.instance.objective().map(|o| o.terms().to_vec()).unwrap_or_default();
        cost_order.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut next = 0usize;
        let dive_start = self.tracer.now_ns();
        let mut dive_len = 0u32;
        let dive_end = |tracer: &Tracer, len: u32, refuted: bool| {
            tracer.emit(TraceEvent::DiveEnd {
                len,
                refuted,
                dur_ns: tracer.now_ns().saturating_sub(dive_start),
            });
        };
        loop {
            if let Some(conflict) = self.engine.propagate() {
                match self.engine.resolve_conflict(conflict) {
                    Resolution::Unsat => {
                        dive_end(&self.tracer, dive_len, true);
                        return Some(self.exhausted_status());
                    }
                    Resolution::Backjumped { .. } => {
                        dive_end(&self.tracer, dive_len, false);
                        return None;
                    }
                }
            }
            if self.engine.assignment().is_complete() {
                dive_end(&self.tracer, dive_len, false);
                return None;
            }
            let lit = loop {
                match cost_order.get(next) {
                    Some(&(_, l)) => {
                        next += 1;
                        if self.engine.assignment().value(l.var()) == Value::Unassigned {
                            break Some(!l);
                        }
                    }
                    None => {
                        break self
                            .engine
                            .pick_branch_var()
                            .map(|v| v.lit(self.engine.phase_of(v)));
                    }
                }
            };
            match lit {
                Some(l) => {
                    self.engine.decide(l);
                    dive_len += 1;
                }
                None => {
                    dive_end(&self.tracer, dive_len, false);
                    return None;
                }
            }
        }
    }

    /// This search's telemetry handle (the parallel driver emits cube
    /// lifecycle events on the same lane).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Depth of this search's cube (grows with every re-split).
    pub(crate) fn cube_depth(&self) -> usize {
        self.cube.len()
    }

    /// The cube this search currently owns (the partition-soundness
    /// tests enumerate against it after a re-split).
    #[cfg(test)]
    pub(crate) fn cube_lits(&self) -> &[Lit] {
        &self.cube
    }

    /// Total conflicts resolved so far (the re-split trigger clock).
    pub(crate) fn conflicts(&self) -> u64 {
        self.engine.stats.conflicts
    }

    /// The best incumbent this search holds (cost and model).
    pub(crate) fn best(&self) -> (Option<i64>, Option<&Vec<bool>>) {
        (self.best_cost, self.best_model.as_ref())
    }

    /// The paper's `omega_bc = omega_pp ∪ omega_pl` (sec. 4); with
    /// `include_omega_pp` unset only `omega_pl` is used (infeasibility
    /// conflicts, where cost literals are irrelevant).
    fn build_bound_conflict(&self, omega_pl: &[Lit], include_omega_pp: bool) -> Vec<Lit> {
        let mut omega = Vec::new();
        // omega_pp (eq. 8): costed literals currently true; flipping one
        // is the only way to reduce P.path.
        if include_omega_pp {
            if let Some(obj) = self.instance.objective() {
                for &(c, l) in obj.terms() {
                    if c > 0 && self.engine.assignment().lit_value(l) == Value::True {
                        omega.push(!l);
                    }
                }
            }
        }
        omega.extend_from_slice(omega_pl);
        omega.sort();
        omega.dedup();
        omega
    }

    /// Installs the eq. 10 knapsack cut (and optionally the eq. 11–13
    /// cardinality cost cuts) for `upper` at the root, replacing any cuts
    /// from a previous incumbent ([`CostCuts::install`]).
    ///
    /// Returns `Err(())` when a cut is contradictory with the root
    /// assignment — no solution better than `upper` exists, so the caller
    /// finishes with the incumbent as the optimum.
    fn install_cost_cuts(&mut self, upper: i64) -> Result<(), ()> {
        // Trivial knapsack cut: every assignment is already cheaper,
        // which cannot happen for a just-found solution of this cost.
        debug_assert!(
            self.cost_cuts.knapsack(upper).is_some(),
            "knapsack cut trivial for incumbent cost"
        );
        self.cost_cuts.install(&mut self.engine, upper).map_err(drop)
    }

    /// Adopts a strictly better incumbent from the shared cell, if one
    /// appeared: verified, recorded, cost cuts re-rooted. Returns a final
    /// status when the cut proves nothing better can exist.
    fn adopt_external(&mut self, stats: &mut SolverStats) -> Option<SolveStatus> {
        let cost = self.take_external(stats)?;
        if !self.instance.is_optimization() {
            // Pure satisfaction: a verified external model finishes the
            // solve (mirror of `record_solution`).
            return Some(SolveStatus::Optimal);
        }
        if self.install_cost_cuts(cost).is_err() {
            return Some(self.exhausted_status());
        }
        None
    }

    /// Takes a strictly better incumbent from the shared cell, if one
    /// appeared and verifies, as this search's best, and returns its
    /// cost; installing its cost cuts is left to the caller.
    fn take_external(&mut self, stats: &mut SolverStats) -> Option<i64> {
        let cell = self.cell?;
        let ext = cell.best_cost()?;
        if self.best_cost.is_some_and(|b| ext >= b) {
            return None;
        }
        // A cell entry that already failed verification would otherwise
        // be snapshotted and re-verified on every loop iteration; skip
        // it until the cell holds something strictly cheaper.
        if self.rejected_external.is_some_and(|r| ext >= r) {
            return None;
        }
        let (cost, model) = cell.snapshot()?;
        if self.best_cost.is_some_and(|b| cost >= b) {
            return None; // raced: the cell moved between the two reads
        }
        // Trust nothing across the component boundary unverified. The
        // simplified instance has the same variable space, feasible set
        // and costs as the original, so external models verify directly.
        if verify_solution(self.instance, &model) != Ok(cost) {
            self.rejected_external = Some(cost);
            return None;
        }
        self.best_cost = Some(cost);
        self.best_model = Some(model);
        // Not counted in `solutions_found`: this solution was *found* by
        // another producer (it is already in the cell's history); the
        // counter would otherwise tally the same incumbent once per
        // adopting worker in a parallel solve.
        stats.time_to_best = self.start.elapsed();
        self.tracer.emit(TraceEvent::Adopt { cost });
        Some(cost)
    }

    /// The polish walk (the portfolio default's walk-then-search order
    /// only): after an improving solution is published, [`POLISH_STEPS`]
    /// local-search steps through the cell — the walk re-seeds from the
    /// cell's best, which is that solution unless a peer published a
    /// cheaper one — and a cheaper find is adopted on the spot, so the
    /// caller installs the cost cuts once, for the cheaper of the two.
    /// Step-bounded and seeded, so a sequential or deterministic-join
    /// search stays reproducible. The walk traces on lane `LS_LANE_BASE`
    /// plus this search's lane.
    fn polish(&mut self, stats: &mut SolverStats) {
        let (Some(options), Some(cell)) = (&self.polish, self.cell) else { return };
        let walker = self.walker.get_or_insert_with(|| {
            let mut walker = LocalSearch::new(self.instance, options.clone());
            if self.tracer.enabled() {
                walker.set_tracer(Tracer::buffered(LS_LANE_BASE + self.tracer.lane(), self.start));
            }
            walker
        });
        walker.run(Some(cell), None);
        self.take_external(stats);
    }

    fn record_solution(&mut self, stats: &mut SolverStats) -> SolutionStep {
        let model = self.engine.model();
        debug_assert_eq!(
            verify_solution(self.instance, &model),
            Ok(self.instance.cost_of(&model)),
            "engine produced infeasible model"
        );
        let cost = self.instance.cost_of(&model);
        let improved = self.best_cost.is_none_or(|b| cost < b);
        if improved {
            self.best_cost = Some(cost);
            stats.solutions_found += 1;
            stats.time_to_best = self.start.elapsed();
            self.tracer.emit(TraceEvent::Solution { cost });
            // Publish before moving the model into our own slot; the cell
            // clones only on improvement.
            if let Some(cell) = self.cell {
                cell.offer(cost, &model);
            }
            self.best_model = Some(model);
        }
        if !self.instance.is_optimization() {
            // Pure satisfaction: done at the first solution.
            return SolutionStep::Finished(SolveStatus::Optimal);
        }
        if improved {
            self.polish(stats);
        }
        // Install the cost cuts at the root and continue searching for a
        // strictly better solution.
        let upper = self.best_cost.unwrap();
        if self.install_cost_cuts(upper).is_err() {
            return SolutionStep::Finished(SolveStatus::Optimal);
        }
        SolutionStep::Continue
    }

    /// Branch selection (sec. 5): LP-guided exactly when the bound is
    /// LPR — the fractional LP variable closest to 0.5 — else, or when
    /// the last relaxation has no fractional free variable, VSIDS with
    /// saved phases.
    fn pick_branch(&mut self) -> Option<Lit> {
        if let Some(lpr) = self.pipeline.lpr() {
            let x = lpr.last_solution();
            let mut best: Option<(Var, f64)> = None;
            for (v, &frac) in x.iter().enumerate().take(self.instance.num_vars()) {
                let var = Var::new(v);
                if self.engine.assignment().value(var) != Value::Unassigned {
                    continue;
                }
                if frac <= 1e-6 || frac >= 1.0 - 1e-6 {
                    continue;
                }
                let dist = (frac - 0.5).abs();
                if best.is_none_or(|(_, d)| dist < d - 1e-12) {
                    best = Some((var, dist));
                }
            }
            if let Some((var, _)) = best {
                let frac = x[var.index()];
                return Some(var.lit(frac > 0.5));
            }
        }
        let var = self.engine.pick_branch_var()?;
        Some(var.lit(self.engine.phase_of(var)))
    }
}

enum SolutionStep {
    Finished(SolveStatus),
    Continue,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bound reads the instance's rows alone: after a
    /// restart-heavy solve, the four methods agree on the optimum. (No
    /// solver path installs a row into the LP bound; the only way to,
    /// `LprBound::install_rows`, serves the benchmark probe.)
    #[test]
    fn no_bound_installs_rows_beside_the_instance() {
        let inst = pbo_benchgen::SynthesisParams {
            primes: 30,
            minterms: 50,
            cover_density: 3.0,
            exclusions: 5,
            ..pbo_benchgen::SynthesisParams::default()
        }
        .generate(0);
        let mut optima = Vec::new();
        for lb in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
            let options = BsoloOptions { restart_base: Some(2), ..BsoloOptions::with_lb(lb) };
            let start = Instant::now();
            let mut stats = SolverStats::default();
            let mut search = SearchState::init(
                &inst,
                &options,
                None,
                start,
                &mut stats,
                &[],
                None,
                Tracer::off(),
                None,
            )
            .expect("synthesis instances are feasible");
            assert_eq!(search.run(start, &mut stats), SolveStatus::Optimal, "{lb:?}");
            assert!(search.engine.stats.restarts > 0, "{lb:?}: base-2 Luby restarts must fire");
            optima.push(search.best_cost);
        }
        assert!(optima.windows(2).all(|w| w[0] == w[1]), "methods disagree: {optima:?}");
    }
}
