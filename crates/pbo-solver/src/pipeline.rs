//! The bound pipeline: one owner for everything the per-node lower
//! bound needs.
//!
//! Before this module existed, `bsolo.rs` wired each piece ad hoc — the
//! bound-procedure dispatch, the incremental [`ResidualState`], the LP
//! bound's variable-fixing mirror, their trail syncs and the per-method
//! gating rules were separate fields threaded through the search loop.
//! [`BoundPipeline`] owns all of it. Both mirrors follow the engine's
//! one trail watermark ([`Engine::sync_trail`]): each call syncs once,
//! unwinds both to the kept prefix and replays the new literals into
//! both in one loop.
//!
//! Every bound reads one row set, the instance's. The eq. 10 and eqs.
//! 11–13 cost cuts live only in the engine, and no learned clause ever
//! leaves it. For LPR the cost cuts are LP-implied: eq. 10 only turns
//! `z_LP > U - 1` into an infeasible LP, the same prune as
//! `ceil(z_LP) >= U`, and each eqs. 11–13 cut follows from its source
//! row's relaxation plus eq. 10 whenever the row's coefficient divides
//! its degree (every clause, every cardinality row the paper's families
//! emit). Under LPR the engine holds the eq. 10 row alone: the LP's
//! reduced-cost fixings ([`LbOutcome::fixings`]), which the search
//! implies in the engine, do the eqs. 11–13 rows' job there without
//! their install and propagation cost. For LGR, dualized cost cuts
//! yield weak `omega_pl` explanations that were measured to triple the
//! tree (1064 → 3226 nodes on the synthesis ablation). For MIS, folding them into the residual problem
//! saved 13% of the nodes at 7.4x the wall time (the last numbers are in
//! `benches/snapshots/README.md`). Learned clauses stay in the engine:
//! promoting the LBD-best ones into the LGR/LPR rows moved decisions by
//! under 0.2% on `ptlcmos-seq`.
//!
//! Because the rows are the instance's alone, an infeasibility verdict
//! holds whatever the incumbent, and the solver's bound conflict drops
//! the cost literals `omega_pp`. The incumbent-conditional steps keep
//! them: MIS's reduced-cost fixing reports its wipeouts as a bound of
//! `upper` instead of an infeasibility, and LPR's fixings hold only
//! under `omega_bc = omega_pp ∪ omega_pl`.
//!
//! The per-node path is **steady-state allocation-free**: the pipeline
//! owns one [`LbOutcome`] whose explanation and fixing buffers are
//! reused by [`LowerBound::lower_bound_into`] on every call.

use std::time::Instant;

use pbo_bounds::{
    LagrangianBound, LbOutcome, LowerBound, LprBound, MisBound, NoBound, ResidualState, Subproblem,
};
use pbo_core::Instance;
use pbo_engine::Engine;
use pbo_fault::failpoint;

use crate::options::{BsoloOptions, LbMethod};
use crate::result::SolverStats;

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

#[cfg(test)]
thread_local! {
    /// The rebuild oracle's switch: a pipeline built on this thread
    /// while it is set mirrors nothing, rebuilds the residual problem
    /// with [`Subproblem::new`] at every bound call and leaves the
    /// LP bound to diff the whole assignment, the paths the trail
    /// mirrors are checked against. Thread-local, so tests running
    /// beside each other never see it.
    static REBUILD_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `solve` with the rebuild oracle on for every pipeline it builds
/// on this thread.
#[cfg(test)]
pub(crate) fn with_rebuild_oracle<R>(solve: impl FnOnce() -> R) -> R {
    REBUILD_ORACLE.set(true);
    let result = solve();
    REBUILD_ORACLE.set(false);
    result
}

/// Owner of the bounding subsystem: bound procedure, residual state,
/// trail sync and gating policy.
pub(crate) struct BoundPipeline {
    bound: Bound,
    /// Trail-mirrored residual problem; `None` on a decision instance,
    /// which never computes a bound. Under LPR the LP bound's
    /// variable fixings mirror the same trail prefix.
    residual: Option<ResidualState>,
    /// Reusable per-node outcome (explanation buffer included).
    out: LbOutcome,
    method: LbMethod,
    /// Telemetry sink; emits one [`pbo_trace::TraceEvent::Bound`] per
    /// [`BoundPipeline::compute`] call (off by default).
    tracer: pbo_trace::Tracer,
}

impl BoundPipeline {
    pub fn new(instance: &Instance, options: &BsoloOptions) -> BoundPipeline {
        // A decision instance never computes a bound, so it builds none:
        // an LP relaxation would copy every row into the LP for nothing.
        let method = if instance.is_optimization() { options.lb_method } else { LbMethod::None };
        let bound = match method {
            LbMethod::None => Bound::None(NoBound::new()),
            LbMethod::Mis => Bound::Mis(MisBound::new()),
            LbMethod::Lagrangian => Bound::Lgr(LagrangianBound::new(instance.num_constraints())),
            LbMethod::Lpr => Bound::Lpr(Box::new(LprBound::new(instance))),
        };
        // Every optimization instance mirrors the engine trail into the
        // residual state and, under LPR, into the LP bound's variable
        // fixings: O(Δ) per node.
        #[cfg(not(test))]
        let mirror = instance.is_optimization();
        #[cfg(test)]
        let mirror = instance.is_optimization() && !REBUILD_ORACLE.get();
        BoundPipeline {
            bound,
            residual: mirror.then(|| ResidualState::new(instance)),
            out: LbOutcome::bound(0, Vec::new()),
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
    /// a subtree has *no* feasible completion; plain and LGR cannot.
    pub fn can_act(&self, have_incumbent: bool) -> bool {
        have_incumbent || matches!(self.method, LbMethod::Lpr | LbMethod::Mis)
    }

    /// Computes the lower bound at the current node: syncs the residual
    /// state (and the LP mirror) to the engine trail in O(Δ), produces
    /// the view and runs the bound procedure into the pipeline's
    /// reusable outcome (read it back through
    /// [`BoundPipeline::last_outcome`]; no allocation at steady state).
    pub fn compute(
        &mut self,
        engine: &mut Engine,
        instance: &Instance,
        upper: Option<i64>,
        stats: &mut SolverStats,
    ) {
        let sub_start = Instant::now();
        let BoundPipeline { bound, residual, out, method, tracer } = self;
        // Produce the residual view: one O(Δ) trail sync for the residual
        // state and the LP bound's variable fixings, then an O(active)
        // snapshot.
        let sub = match residual {
            Some(state) => {
                let mut lpr = match bound {
                    Bound::Lpr(lpr) => Some(lpr.as_mut()),
                    _ => None,
                };
                debug_assert!(
                    lpr.as_ref().is_none_or(|lpr| lpr.synced_len() == state.len()),
                    "the LP mirror drifted from the residual state"
                );
                let keep = engine.sync_trail(state.len());
                state.unwind_to(instance, keep);
                if let Some(lpr) = &mut lpr {
                    lpr.unwind_to(keep);
                }
                for &lit in &engine.trail()[keep..] {
                    state.apply(instance, lit);
                    if let Some(lpr) = &mut lpr {
                        lpr.apply(lit);
                    }
                }
                state.view(instance, engine.assignment())
            }
            // The rebuild oracle: a full O(instance) re-scan.
            #[cfg(test)]
            None => Subproblem::new(instance, engine.assignment()),
            #[cfg(not(test))]
            None => unreachable!("a decision instance never computes a bound"),
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
        let mut pipeline = BoundPipeline::new(&inst, &options);
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
