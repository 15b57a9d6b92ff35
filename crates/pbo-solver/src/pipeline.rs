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
//!   method-filtered: LGR, LPR and the adaptive ladder keep only
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

use crate::ladder::AdaptiveLadder;
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
    Adaptive(Box<AdaptiveLadder>),
}

impl Bound {
    /// Fixed-method kernel dispatch. The adaptive ladder never routes
    /// through here — it runs (and charges) its rungs itself.
    fn lower_bound_into(&mut self, sub: &Subproblem<'_>, upper: Option<i64>, out: &mut LbOutcome) {
        match self {
            Bound::None(b) => b.lower_bound_into(sub, upper, out),
            Bound::Mis(b) => b.lower_bound_into(sub, upper, out),
            Bound::Lgr(b) => b.lower_bound_into(sub, upper, out),
            Bound::Lpr(b) => b.lower_bound_into(sub, upper, out),
            Bound::Adaptive(_) => unreachable!("the ladder dispatches per rung"),
        }
    }
}

/// `SolverStats::lb_methods` bucket of a fixed method.
fn method_bucket(method: LbMethod) -> usize {
    match method {
        LbMethod::None => 0,
        LbMethod::Mis => 1,
        LbMethod::Lagrangian => 2,
        LbMethod::Lpr => 3,
        LbMethod::Adaptive => unreachable!("the ladder charges per rung"),
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
            LbMethod::Adaptive => {
                Bound::Adaptive(Box::new(AdaptiveLadder::new(instance, options.deterministic_join)))
            }
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
        let lpr_obs = (incremental && matches!(bound, Bound::Lpr(_) | Bound::Adaptive(_)))
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

    /// The LPR bound when the active method runs one (fixed LPR or the
    /// adaptive ladder's escalated rung) — for LP-guided branching and
    /// iteration accounting.
    pub fn lpr(&self) -> Option<&LprBound> {
        match &self.bound {
            Bound::Lpr(b) => Some(b.as_ref()),
            Bound::Adaptive(l) => Some(&l.lpr),
            _ => None,
        }
    }

    /// The adaptive ladder, for differential tests that pin it to a
    /// single rung.
    #[cfg(test)]
    pub(crate) fn ladder_mut(&mut self) -> Option<&mut AdaptiveLadder> {
        match &mut self.bound {
            Bound::Adaptive(l) => Some(l),
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
        match &mut self.bound {
            Bound::Lpr(b) => b.set_cancel(deadline, stop),
            Bound::Adaptive(l) => l.lpr.set_cancel(deadline, stop),
            _ => {}
        }
    }

    /// Gating policy: which methods may act before the first incumbent.
    /// LPR's Farkas certificate and MIS's implication closure can prove
    /// a subtree has *no* feasible completion; plain and LGR cannot, and
    /// plain-MIS infeasibility only duplicates slack propagation.
    pub fn can_act(&self, have_incumbent: bool) -> bool {
        if have_incumbent {
            return true;
        }
        match &self.bound {
            // The ladder's escalated rung carries LPR's Farkas power, so
            // it acts pre-incumbent too (skipping straight to the LP).
            Bound::Adaptive(l) => l.can_act_pre_incumbent(),
            _ => self.method == LbMethod::Lpr || (self.method == LbMethod::Mis && self.mis_implied),
        }
    }

    /// Frequency gate: returns `true` when a bound should be computed at
    /// this node (every `lb_frequency` eligible nodes). The adaptive
    /// ladder stretches the interval (up to 4x) while its cheap rung's
    /// rolling prune rate stays negligible — a bound that never acts is
    /// not worth computing at every node.
    pub fn tick(&mut self) -> bool {
        self.decisions_since_lb += 1;
        let stretch = match &self.bound {
            Bound::Adaptive(l) => l.stretch(),
            _ => 1,
        };
        if self.decisions_since_lb >= self.lb_frequency.saturating_mul(stretch) {
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
    /// LGR, LPR and the ladder keep promoted clauses only: dualized cost
    /// cuts were measured to grow the LGR tree ~3x, and the LP already
    /// implies them (see the module docs). LGR and the ladder also drop
    /// rows whose multiplier never left zero last epoch (the list stays
    /// empty under fixed LPR). MIS takes the full set. Dropping rows is
    /// always sound.
    fn keep_for_method(&self, row: &DynRow) -> bool {
        match self.method {
            LbMethod::Lagrangian | LbMethod::Lpr | LbMethod::Adaptive => {
                row.origin == DynRowOrigin::PromotedClause
                    && !self.lgr_zero_mu.contains(&row.constraint)
            }
            LbMethod::None | LbMethod::Mis => true,
        }
    }

    /// Records which installed dynamic rows the LGR warm-start left at a
    /// zero multiplier, so the next region build can drop them.
    fn snapshot_lgr_zero_mu(&mut self, instance: &Instance) {
        let lgr = match &self.bound {
            Bound::Lgr(lgr) => lgr,
            Bound::Adaptive(l) => &l.cheap,
            _ => return,
        };
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
        match &mut self.bound {
            Bound::Lpr(lpr) => lpr.install_rows(instance, &self.method_rows),
            Bound::Adaptive(l) => l.lpr.install_rows(instance, &self.method_rows),
            _ => {}
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
        // trail (O(Δ) per node) through its own observer. The ladder's
        // escalated rung stays synced even at nodes that never escalate
        // — the sync is O(Δ) either way, and a stale mirror would make
        // the *next* escalation O(trail).
        let lpr_mirror = match &mut *bound {
            Bound::Lpr(lpr) => Some(lpr.as_mut()),
            Bound::Adaptive(l) => Some(&mut l.lpr),
            _ => None,
        };
        if let (Some(obs), Some(lpr)) = (*lpr_obs, lpr_mirror) {
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
        // The adaptive ladder runs (and charges, and traces) its own
        // rungs — one or two kernel calls per node.
        if let Bound::Adaptive(ladder) = &mut *bound {
            ladder.compute(&sub, upper, path, out, stats, tracer);
            return;
        }
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
                stage: "fixed",
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

    /// The `bound.escalate` probe sits between the cheap rung's
    /// (committed) charge and the LP dispatch: an unwind there leaves
    /// the cheap rung fully charged and the LP rung fully uncharged —
    /// neither bucket is ever half-accounted — and the ladder stays
    /// usable.
    #[test]
    fn bound_escalate_panic_never_half_charges_either_rung() {
        let mut b = InstanceBuilder::new();
        let x = b.new_vars(3);
        b.add_at_least(1, [x[0].positive(), x[1].positive()]);
        b.add_at_least(1, [x[1].positive(), x[2].positive()]);
        b.minimize(x.iter().map(|v| (1, v.positive())));
        let inst = b.build().unwrap();
        let options = BsoloOptions::with_lb(LbMethod::Adaptive);
        let mut engine = Engine::new(inst.num_vars());
        for c in inst.constraints() {
            engine.add_constraint(c).unwrap();
        }
        let mut pipeline = BoundPipeline::new(&inst, &options, &mut engine);
        let mut stats = SolverStats::default();

        // Pre-incumbent nodes escalate straight to the LP rung: a panic
        // at the probe must leave *nothing* charged.
        let guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("bound.escalate", 1));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.compute(&mut engine, &inst, None, &mut stats);
        }));
        assert!(unwound.is_err(), "armed probe must fire");
        drop(guard);
        assert_eq!(stats.lb_calls, 0, "no rung ran, none may be counted");
        assert_eq!(stats.lb_methods[3].calls, 0, "LP rung must stay uncharged");
        assert_eq!(stats.lb_time_total, std::time::Duration::ZERO);
        assert_eq!(stats.lb_escalations, 1, "the escalation decision itself is recorded");

        // Recovery: the next pre-incumbent call runs and charges the LP
        // rung exactly once.
        pipeline.compute(&mut engine, &inst, None, &mut stats);
        assert_eq!(stats.lb_calls, 1);
        assert_eq!(stats.lb_methods[3].calls, 1);
        assert_eq!(stats.lb_escalations, 2);

        // Post-incumbent: walk the probe cadence to the next forced
        // escalation (16 open cheap calls) and panic there — the cheap
        // rung's charge must stand, the LP rung's must not exist.
        let upper = Some(4); // total cost + 1: every cheap call stays open
        for _ in 0..15 {
            pipeline.compute(&mut engine, &inst, upper, &mut stats);
            assert_eq!(stats.lb_escalations, 2, "loose upper must not escalate early");
        }
        assert_eq!(stats.lb_methods[2].calls, 15);
        let guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("bound.escalate", 1));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.compute(&mut engine, &inst, upper, &mut stats);
        }));
        assert!(unwound.is_err(), "probe-cadence escalation must fire the armed probe");
        drop(guard);
        assert_eq!(stats.lb_methods[2].calls, 16, "cheap rung stays fully charged");
        assert_eq!(stats.lb_methods[3].calls, 1, "LP rung stays fully uncharged");
        assert_eq!(stats.lb_escalations, 3);
        let calls: u64 = stats.lb_methods.iter().map(|m| m.calls).sum();
        assert_eq!(calls, stats.lb_calls, "buckets reconcile after the unwind");

        // Still consistent: the next gated call computes a real bound.
        pipeline.compute(&mut engine, &inst, upper, &mut stats);
        assert_eq!(stats.lb_methods[2].calls, 17);
        assert!(!pipeline.last_outcome().infeasible);
    }
}
