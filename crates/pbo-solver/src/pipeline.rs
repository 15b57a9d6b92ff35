//! The bound pipeline: one owner for everything the per-node lower
//! bound needs.
//!
//! Before this module existed, `bsolo.rs` wired each piece ad hoc — the
//! bound-procedure dispatch, the incremental [`ResidualState`], its
//! engine trail observer, the LP bound's second observer, and the
//! per-method gating rules were separate fields threaded through the
//! search loop. [`BoundPipeline`] owns all of it, plus the
//! **dynamic-row registry**: on every incumbent re-root the learned cost
//! cuts (eq. 10 and eqs. 11–13) and the best (LBD-selected) short
//! learned clauses are folded into the residual problem as
//! epoch-versioned dynamic rows, so every bound sees the part of the
//! relaxation the solver knows that can help it — with zero per-node rebuild
//! (the region swap is O(region), and the rows ride the same O(Δ) trail
//! protocol as static rows from then on).
//!
//! Two refinements sit on top of the registry:
//!
//! * **Per-method row filter.** The full registry is what the cut pool
//!   publishes, but the region actually *installed* for the bound is
//!   method-filtered: LGR and LPR keep only
//!   [`DynRowOrigin::PromotedClause`] rows, and only MIS installs the
//!   full set. Dropping rows is always sound — any subset of valid rows
//!   is valid. For LGR, dualized cost-cut rows (objective and
//!   cardinality alike) yield weak `omega_pl` explanations that were
//!   measured to *triple* the tree (1064 → 3226 nodes on the synthesis
//!   ablation; back to 1064 with the filter), and rows whose multiplier
//!   stayed at zero through the previous epoch are dropped too (they
//!   never contributed to `L(mu)`, only to explanation width). For LPR
//!   the cost-cut rows are LP-implied: eq. 10 only turns `z_LP > U - 1`
//!   into an infeasible LP, the same prune as `ceil(z_LP) >= U`, and
//!   each eqs. 11–13 cut follows from its source row's relaxation plus
//!   eq. 10 whenever the row's coefficient divides its degree (every
//!   clause, every cardinality row the paper's families emit). While no
//!   cut saturates (no cost above its degree), dropping them leaves
//!   `z_LP` and every prune decision unchanged, and it halves a ptlcmos
//!   LP whose cuts are dense near-copies of the objective.
//! * **Restart refresh.** The promoted-clause portion of the region is
//!   re-exported from the engine's learned-clause database on search
//!   restarts, not only on incumbents — the LBD-best clauses shortly
//!   after a restart are much fresher than the ones captured at the last
//!   incumbent.
//!
//! The per-node path is **steady-state allocation-free**: the pipeline
//! owns one [`LbOutcome`] whose explanation buffer is reused by
//! [`LowerBound::lower_bound_into`] on every call.
//!
//! Soundness note: dynamic rows are implied by the instance *plus* the
//! incumbent bound `cost <= upper - 1`, so a bound (or infeasibility)
//! derived over them holds for completions cheaper than the incumbent —
//! exactly the set eq. 7 pruning quantifies over. The solver must treat
//! an infeasibility verdict obtained while dynamic rows are installed as
//! a *bound* conflict (keep `omega_pp`), which
//! [`BoundPipeline::has_dynamic_rows`] exposes.

use std::time::Instant;

use pbo_bounds::{
    DynRow, DynRowOrigin, DynamicRows, LagrangianBound, LbOutcome, LowerBound, LprBound, MisBound,
    NoBound, ResidualState, Subproblem,
};
use pbo_core::{Instance, PbConstraint};
use pbo_engine::{Engine, Taint, TrailObserver};
use pbo_fault::failpoint;

use crate::options::{BsoloOptions, LbMethod, ResidualMode};
use crate::result::SolverStats;

/// Learned clauses promoted into the dynamic-row region per re-root:
/// only short ones (a long clause is a weak PB row) ...
const PROMOTE_MAX_LEN: usize = 8;
/// ... and only the best (lowest-LBD) few (the region swap is O(region)).
const PROMOTE_MAX_COUNT: usize = 24;

/// Multipliers at or below this are "stayed zero" for the LGR row drop.
const LGR_MU_ZERO: f64 = 1e-7;

/// Lower-bound procedure dispatch (avoids `Box<dyn>` so the LPR state
/// can also serve the branching heuristic).
enum Bound {
    None(NoBound),
    Mis(MisBound),
    Lgr(LagrangianBound),
    Lpr(Box<LprBound>),
}

impl Bound {
    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        match self {
            Bound::None(b) => b.lower_bound_into(sub, upper, out),
            Bound::Mis(b) => b.lower_bound_into(sub, upper, out),
            Bound::Lgr(b) => b.lower_bound_into(sub, upper, out),
            Bound::Lpr(b) => b.lower_bound_into(sub, upper, out),
        }
    }
}

/// `SolverStats::lb_methods` bucket of a method.
fn method_bucket(method: LbMethod) -> usize {
    match method {
        LbMethod::None => 0,
        LbMethod::Mis => 1,
        LbMethod::Lagrangian => 2,
        LbMethod::Lpr => 3,
    }
}

/// Owner of the bounding subsystem: bound procedure, residual state,
/// trail observers, dynamic-row registry and gating policy.
pub(crate) struct BoundPipeline {
    bound: Bound,
    lb_frequency: u32,
    decisions_since_lb: u32,
    /// Trail-mirrored residual problem ([`ResidualMode::Incremental`]);
    /// `None` in rebuild mode or when the instance never computes bounds.
    residual: Option<ResidualState>,
    /// Engine trail observer backing `residual`.
    residual_obs: Option<TrailObserver>,
    /// Engine trail observer backing the LP bound's variable-fixing
    /// mirror (incremental mode with [`LbMethod::Lpr`] only).
    lpr_obs: Option<TrailObserver>,
    /// The full dynamic-row registry, re-rooted on each improving
    /// incumbent — what the cut pool publishes.
    rows: DynamicRows,
    /// The method-filtered registry actually installed into the residual
    /// state and the LP relaxation (see the module docs).
    method_rows: DynamicRows,
    /// Rows whose LGR multiplier stayed zero through the previous
    /// installed epoch: dropped from the next LGR region.
    lgr_zero_mu: Vec<PbConstraint>,
    /// Cost cuts of the most recent re-root, kept so restart refreshes
    /// can rebuild the region without a new incumbent.
    last_cuts: Vec<PbConstraint>,
    /// Reusable per-node outcome (explanation buffer included).
    out: LbOutcome,
    /// Whether re-roots install dynamic rows at all.
    dynamic_enabled: bool,
    /// Whether the MIS bound runs its implied-literal reasoning (gates
    /// pre-incumbent MIS calls).
    mis_implied: bool,
    method: LbMethod,
    /// Telemetry sink; emits one [`pbo_trace::TraceEvent::Bound`] per
    /// [`BoundPipeline::compute`] call (off by default).
    tracer: pbo_trace::Tracer,
}

impl BoundPipeline {
    pub fn new(instance: &Instance, options: &BsoloOptions, engine: &mut Engine) -> BoundPipeline {
        // A decision instance never computes a bound, so it builds none:
        // an LP relaxation would cost a dense m x m inverse for nothing.
        let method = if instance.is_optimization() { options.lb_method } else { LbMethod::None };
        let bound = match method {
            LbMethod::None => Bound::None(NoBound::new()),
            LbMethod::Mis => Bound::Mis(MisBound::with_implied(options.mis_implied)),
            LbMethod::Lagrangian => Bound::Lgr(LagrangianBound::new(instance.num_constraints())),
            LbMethod::Lpr => Bound::Lpr(Box::new(LprBound::new(instance))),
        };
        // The residual state only pays off where bounds are computed:
        // optimization instances (satisfaction search never bounds).
        let incremental =
            options.residual_mode == ResidualMode::Incremental && instance.is_optimization();
        let residual = if incremental { Some(ResidualState::new(instance)) } else { None };
        let residual_obs = residual.as_ref().map(|_| engine.register_trail_observer());
        // In incremental mode the LP bound joins the trail protocol as a
        // second observer; rebuild mode keeps the O(vars) assignment diff
        // as the differential-testing oracle.
        let lpr_obs = (incremental && matches!(bound, Bound::Lpr(_)))
            .then(|| engine.register_trail_observer());
        BoundPipeline {
            bound,
            lb_frequency: options.lb_frequency,
            decisions_since_lb: 0,
            residual,
            residual_obs,
            lpr_obs,
            // Both registries carry the instance's objective costs so
            // every pushed row's fractional-cover order is precomputed
            // at push time (no per-bound-call sorting, and worker-local
            // region swaps clone the order along with the terms).
            rows: DynamicRows::for_instance(instance),
            method_rows: DynamicRows::for_instance(instance),
            lgr_zero_mu: Vec::new(),
            last_cuts: Vec::new(),
            out: LbOutcome::bound(0, Vec::new()),
            dynamic_enabled: options.dynamic_rows && instance.is_optimization(),
            mis_implied: options.mis_implied,
            method,
            tracer: pbo_trace::Tracer::off(),
        }
    }

    /// Installs a telemetry tracer; one `Bound` event is emitted per
    /// [`BoundPipeline::compute`] call, carrying method, outcome, margin
    /// and kernel time, so traced bound events reconcile with
    /// [`SolverStats::lb_calls`].
    pub fn set_tracer(&mut self, tracer: pbo_trace::Tracer) {
        self.tracer = tracer;
    }

    /// The LPR bound when the active method is LPR — for LP-guided
    /// branching and iteration accounting.
    pub fn lpr(&self) -> Option<&LprBound> {
        match &self.bound {
            Bound::Lpr(b) => Some(b.as_ref()),
            _ => None,
        }
    }

    /// Threads a cooperative-cancellation pair into the bound procedure.
    /// Today only the LP relaxation listens (its pivot loop is the one
    /// kernel that can run long past `Budget::time`); the other methods
    /// are per-call cheap and bounded by the search loop's own checks.
    pub fn set_cancel(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) {
        if let Bound::Lpr(b) = &mut self.bound {
            b.set_cancel(deadline, stop);
        }
    }

    /// Gating policy: which methods may act before the first incumbent.
    /// LPR's Farkas certificate and MIS's implication closure can prove
    /// a subtree has *no* feasible completion; plain and LGR cannot, and
    /// plain-MIS infeasibility only duplicates slack propagation.
    pub fn can_act(&self, have_incumbent: bool) -> bool {
        have_incumbent
            || self.method == LbMethod::Lpr
            || (self.method == LbMethod::Mis && self.mis_implied)
    }

    /// Frequency gate: returns `true` when a bound should be computed at
    /// this node (every `lb_frequency` eligible nodes).
    pub fn tick(&mut self) -> bool {
        self.decisions_since_lb += 1;
        if self.decisions_since_lb >= self.lb_frequency {
            self.decisions_since_lb = 0;
            true
        } else {
            false
        }
    }

    /// `true` while a non-empty dynamic-row region is *installed* for
    /// the bound — the caller must then treat infeasibility verdicts as
    /// bound conflicts (include `omega_pp`), since the rows are
    /// incumbent-conditional.
    pub fn has_dynamic_rows(&self) -> bool {
        !self.method_rows.is_empty()
    }

    /// The full registry (for sharing the rows with the LS cut pool;
    /// the installed region may be a method-filtered subset).
    pub fn dynamic_rows(&self) -> &DynamicRows {
        &self.rows
    }

    /// Whether `row` joins the region installed for the active method.
    /// LGR and LPR keep promoted clauses only: dualized cost cuts were
    /// measured to grow the LGR tree ~3x, and the LP already implies
    /// them (see the module docs). LGR also drops rows whose multiplier
    /// never left zero last epoch (the list stays empty under LPR). MIS
    /// takes the full set. Dropping rows is always sound.
    fn keep_for_method(&self, row: &DynRow) -> bool {
        match self.method {
            LbMethod::Lagrangian | LbMethod::Lpr => {
                row.origin == DynRowOrigin::PromotedClause
                    && !self.lgr_zero_mu.contains(&row.constraint)
            }
            LbMethod::None | LbMethod::Mis => true,
        }
    }

    /// Records which installed dynamic rows the LGR warm-start left at a
    /// zero multiplier, so the next region build can drop them.
    fn snapshot_lgr_zero_mu(&mut self, instance: &Instance) {
        let Bound::Lgr(lgr) = &self.bound else { return };
        let mu = lgr.multipliers();
        let num_static = instance.num_constraints();
        self.lgr_zero_mu.clear();
        for (k, row) in self.method_rows.rows().iter().enumerate() {
            if mu.get(num_static + k).is_none_or(|m| m.abs() <= LGR_MU_ZERO) {
                self.lgr_zero_mu.push(row.constraint.clone());
            }
        }
    }

    /// Rebuilds both registries from `cuts` plus the engine's current
    /// LBD-best short learned clauses, and installs the method-filtered
    /// region into the residual state / LP relaxation.
    fn rebuild_regions(&mut self, instance: &Instance, engine: &Engine, cuts: &[PbConstraint]) {
        self.snapshot_lgr_zero_mu(instance);
        self.rows.begin_epoch();
        for (i, cut) in cuts.iter().enumerate() {
            let origin =
                if i == 0 { DynRowOrigin::ObjectiveCut } else { DynRowOrigin::CardinalityCut };
            self.rows.push(cut.clone(), origin);
        }
        // Under taint tracking (a cube worker with clause sharing on)
        // only assumption-clean clauses may enter the region: a bound
        // conflict derived through a promoted row is tainted only by the
        // literals the explanation mentions, so a cube-dependent row —
        // valid under the cube beyond what its literals say — would let
        // a cube-dependent learned clause escape into the shareable set
        // untainted. Imported pool clauses (already globally valid) pass
        // the filter and flow into the region as the pool intends.
        let exclude = if engine.taint_tracking() { Taint::ASSUMPTION } else { Taint::NONE };
        for lits in engine.export_learnts_excluding(PROMOTE_MAX_LEN, PROMOTE_MAX_COUNT, exclude) {
            self.rows.push(PbConstraint::clause(lits), DynRowOrigin::PromotedClause);
        }
        self.method_rows.begin_epoch();
        for row in self.rows.rows() {
            if self.keep_for_method(row) {
                self.method_rows.push(row.constraint.clone(), row.origin);
            }
        }
        if let Some(state) = &mut self.residual {
            state.set_dynamic_rows(&self.method_rows);
        }
        if let Bound::Lpr(lpr) = &mut self.bound {
            lpr.install_rows(instance, &self.method_rows);
        }
    }

    /// Re-roots the dynamic-row region for a new incumbent: the freshly
    /// installed cost cuts plus the engine's best short learned clauses
    /// become the new region, the residual state swaps to it in
    /// O(region), and the LP relaxation is rebuilt with the rows
    /// appended (once per incumbent — per-node solves stay warm).
    pub fn reroot(&mut self, instance: &Instance, engine: &Engine, cuts: &[PbConstraint]) {
        if !self.dynamic_enabled {
            return;
        }
        self.last_cuts.clear();
        self.last_cuts.extend_from_slice(cuts);
        self.rebuild_regions(instance, engine, cuts);
    }

    /// Refreshes the promoted-clause portion of the region after a
    /// search restart: same cost cuts, freshly exported (LBD-best)
    /// learned clauses. A no-op before the first re-root — promoted
    /// clauses learned under installed cuts are incumbent-conditional,
    /// so the region only ever exists alongside an incumbent. Returns
    /// `true` when the region was rebuilt (so the caller can republish
    /// the cut pool).
    pub fn refresh_on_restart(&mut self, instance: &Instance, engine: &Engine) -> bool {
        if !self.dynamic_enabled || self.rows.epoch() == 0 {
            return false;
        }
        let cuts = std::mem::take(&mut self.last_cuts);
        self.rebuild_regions(instance, engine, &cuts);
        self.last_cuts = cuts;
        true
    }

    /// Computes the lower bound at the current node: syncs the residual
    /// state (and the LP mirror) to the engine trail in O(Δ), produces
    /// the view — dynamic rows included — and runs the bound procedure
    /// into the pipeline's reusable outcome (read it back through
    /// [`BoundPipeline::last_outcome`]; no allocation at steady state).
    pub fn compute(
        &mut self,
        engine: &mut Engine,
        instance: &Instance,
        upper: Option<i64>,
        stats: &mut SolverStats,
    ) {
        let sub_start = Instant::now();
        let BoundPipeline {
            bound,
            residual,
            residual_obs,
            lpr_obs,
            method_rows,
            out,
            method,
            tracer,
            ..
        } = self;
        // Keep the LP bound's variable fixings in lockstep with the
        // trail (O(Δ) per node) through its own observer.
        if let (Some(obs), Bound::Lpr(lpr)) = (*lpr_obs, &mut *bound) {
            let keep = engine.sync_trail(obs, lpr.synced_len());
            lpr.unwind_to(keep);
            for &lit in &engine.trail()[keep..] {
                lpr.apply(lit);
            }
        }
        // Produce the residual view: O(Δ) sync + O(active) snapshot in
        // incremental mode, a full O(instance + region) re-scan in
        // rebuild mode (the differential oracle, dynamic rows included).
        let sub = match (residual.as_mut(), *residual_obs) {
            (Some(state), Some(obs)) => {
                let keep = engine.sync_trail(obs, state.len());
                state.unwind_to(instance, keep);
                for &lit in &engine.trail()[keep..] {
                    state.apply(instance, lit);
                }
                state.view(instance, engine.assignment())
            }
            _ => Subproblem::with_rows(instance, engine.assignment(), method_rows),
        };
        stats.sub_time_total += sub_start.elapsed();
        let path = sub.path_cost();
        let lb_start = Instant::now();
        // Probe sits between starting the bound timer and charging it: a
        // panic here must leave `lb_calls`/`lb_time_total` uncharged, so
        // quarantining the cube never double-counts bound effort.
        failpoint!("bound.dispatch");
        bound.lower_bound_into(&sub, upper, out);
        stats.lb_calls += 1;
        let lb_elapsed = lb_start.elapsed();
        stats.lb_time_total += lb_elapsed;
        let bucket = &mut stats.lb_methods[method_bucket(*method)];
        bucket.calls += 1;
        bucket.time_total += lb_elapsed;
        let pruned = out.infeasible || upper.is_some_and(|u| out.prunes(u));
        bucket.prunes += u64::from(pruned);
        if !out.infeasible {
            stats.lb_margin_sum += out.bound.saturating_sub(path).max(0) as u64;
        }
        if tracer.enabled() {
            let outcome = if out.infeasible {
                pbo_trace::BoundOutcome::Infeasible
            } else if upper.is_some_and(|u| out.prunes(u)) {
                pbo_trace::BoundOutcome::Pruned
            } else {
                pbo_trace::BoundOutcome::Open
            };
            let margin = if out.infeasible { 0 } else { out.bound.saturating_sub(path).max(0) };
            tracer.emit(pbo_trace::TraceEvent::Bound {
                method: method.name(),
                outcome,
                margin,
                dur_ns: u64::try_from(lb_elapsed.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// The outcome of the most recent [`BoundPipeline::compute`] call
    /// (borrowable independently of the engine).
    pub fn last_outcome(&self) -> &LbOutcome {
        &self.out
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod fault_tests {
    use super::*;
    use pbo_core::InstanceBuilder;

    /// A panic at the bound dispatch leaves the pipeline's stats exactly
    /// as they were: the probe sits after `lb_start` but before
    /// `lb_calls`/`lb_time_total` are charged, so an unwound bound call
    /// is never half-accounted — and the pipeline stays usable after.
    #[test]
    fn bound_dispatch_panic_leaves_stats_consistent() {
        let mut b = InstanceBuilder::new();
        let x = b.new_vars(3);
        b.add_at_least(1, [x[0].positive(), x[1].positive()]);
        b.add_at_least(1, [x[1].positive(), x[2].positive()]);
        b.minimize(x.iter().map(|v| (1, v.positive())));
        let inst = b.build().unwrap();
        let options = BsoloOptions::with_lb(LbMethod::Mis);
        let mut engine = Engine::new(inst.num_vars());
        for c in inst.constraints() {
            engine.add_constraint(c).unwrap();
        }
        let mut pipeline = BoundPipeline::new(&inst, &options, &mut engine);
        let mut stats = SolverStats::default();

        pipeline.compute(&mut engine, &inst, None, &mut stats);
        assert_eq!(stats.lb_calls, 1);
        let charged_calls = stats.lb_calls;
        let charged_time = stats.lb_time_total;

        let guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("bound.dispatch", 1));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.compute(&mut engine, &inst, None, &mut stats);
        }));
        assert!(unwound.is_err(), "armed probe must fire");
        drop(guard);
        assert_eq!(stats.lb_calls, charged_calls, "unwound call must not be counted");
        assert_eq!(stats.lb_time_total, charged_time, "unwound call must not be charged");

        // The pipeline (residual state, LP mirror, outcome slot) is
        // still consistent: the next call computes a real bound.
        pipeline.compute(&mut engine, &inst, None, &mut stats);
        assert_eq!(stats.lb_calls, charged_calls + 1);
        assert!(stats.lb_time_total >= charged_time);
        assert!(!pipeline.last_outcome().infeasible);
        assert!(pipeline.last_outcome().bound >= 1, "two disjoint covers force cost >= 1");
    }
}
