//! The portfolio driver: stochastic local search racing (or seeding) the
//! exact branch-and-bound, with incumbents flowing both ways.
//!
//! The DATE'05 search prunes a node as soon as `lower bound >= best
//! incumbent`, so a good incumbent *early* is worth as much as a tight
//! lower bound. The `pbo-ls` engine finds near-optimal verified solutions
//! orders of magnitude faster than tree search; this module wires the two
//! together around a shared [`IncumbentCell`]:
//!
//! * **[`SolveStrategy::LsSeeded`]** (default): LS runs first under a
//!   small budget; its best verified solution warm-starts the
//!   branch-and-bound's upper bound and eq. 10 cost cuts. The B&B then
//!   proves optimality (or improves) with the pruning power of a
//!   near-optimal bound from node one. A decision instance ends at its
//!   first verified model: when the seed phase leaves one in the cell
//!   and it verifies again, the solve returns it without building the
//!   exact side at all.
//! * **[`SolveStrategy::Concurrent`]**: LS keeps running on its own
//!   `std::thread` for the whole solve. Every improving incumbent found
//!   by either side is published to the cell; the B&B adopts external
//!   improvements mid-search (re-rooting its cuts), and LS re-seeds its
//!   restarts from external improvements.
//! * **[`SolveStrategy::Exact`]**: plain branch-and-bound (the paper's
//!   solver), for when reproducibility of the exact search matters more
//!   than anytime behaviour.
//!
//! Every solution crossing a component boundary is re-verified with
//! [`pbo_core::verify_solution`] — the cell stores, it does not vouch.
//!
//! # When to prefer which strategy
//!
//! `LsSeeded` is the default everywhere — [`SolveStrategy::default`],
//! `pbo::solve` and the `pbo-solve` CLI. The warm start shrinks the tree
//! on every gated benchmark workload, a decision instance ends in the
//! seed phase, and under a wall-clock budget it is the anytime mode
//! (deterministic for a fixed LS step budget). It is not the fastest
//! everywhere: on a 2-core box `Concurrent` solved the optimization
//! workloads (`ptlcmos-seq`, `synthesis-par2`) in about half the wall
//! time and lost on the decision workload (`acc-seq`), where the seed
//! phase alone answers. `Concurrent` is timing dependent.
//! `Exact` (`pbo-solve --strategy exact`, `pbo::solve_with`) reproduces
//! the paper's solver byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pbo_core::Instance;
pub use pbo_ls::{IncumbentCell, LocalSearch, LsOptions, LsResult, LsStats};
use pbo_trace::{Event, TraceEvent, Tracer, LS_LANE_BASE};

use crate::options::{BsoloOptions, SolveStrategy};
use crate::par::ParBsolo;
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// LS steps per chunk between stop-flag/cell checks in concurrent mode.
const CONCURRENT_CHUNK_STEPS: u64 = 16_384;

/// LS steps per chunk in the seeding phase; stagnation is assessed
/// between chunks, so the phase ends within one chunk of the limit.
const SEED_CHUNK_STEPS: u64 = 8_192;

/// Adaptive seeding split: the LS phase ends once this many steps pass
/// without a verified improvement, handing the remaining budget to the
/// branch-and-bound instead of burning the whole static share on a
/// stagnant walk. Step-based, so a step-bounded seeding phase stays
/// deterministic. One chunk was measured and rejected: it sped up
/// covering instances but handed grout a worse upper bound, its walk
/// still improving after one stagnant chunk.
const LS_STAGNATION_STEPS: u64 = 3 * SEED_CHUNK_STEPS;

/// Configuration of the [`Portfolio`] driver.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// How LS and branch-and-bound are combined.
    pub strategy: SolveStrategy,
    /// The exact solver's configuration; its [`crate::Budget`] is the
    /// budget of the *whole* portfolio solve (in `LsSeeded` mode the LS
    /// phase consumes part of the wall clock and the branch-and-bound
    /// gets the remainder).
    pub bsolo: BsoloOptions,
    /// The local-search configuration. In `LsSeeded` mode `max_steps` /
    /// `time_limit` cap the seeding phase (a fifth of the total time
    /// budget is imposed when none is set); in `Concurrent` mode the one
    /// LS thread walks until the exact side finishes, whatever its step
    /// budget and time limit.
    pub ls: LsOptions,
    /// Number of exact branch-and-bound workers (default 1 = the
    /// sequential solver, bit-identical to [`crate::Bsolo`]). With more
    /// workers the exact side runs as [`crate::ParBsolo`]: the root is
    /// split into cubes and solved by a pool sharing the instance's
    /// read-only term arena, incumbents flowing through the cell.
    /// Applies to every strategy — `Exact` becomes pure parallel B&B,
    /// `Concurrent` races one LS thread *and* `bb_threads` exact workers
    /// against one cell.
    ///
    /// `0` means "auto": resolved to the machine's available parallelism
    /// at solve time (the CLI spells it `--bb-threads auto`). See
    /// [`PortfolioOptions::resolve_threads`].
    pub bb_threads: usize,
}

impl PortfolioOptions {
    /// Resolves a thread-count option: `0` ("auto") becomes
    /// [`std::thread::available_parallelism`] (falling back to 1 if the
    /// machine cannot report it), anything else is taken as-is.
    pub fn resolve_threads(n: usize) -> usize {
        if n == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            n
        }
    }

    /// Exact-side worker count after `auto` resolution.
    pub fn resolved_bb_threads(&self) -> usize {
        Self::resolve_threads(self.bb_threads)
    }
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            strategy: SolveStrategy::default(),
            bsolo: BsoloOptions::default(),
            ls: LsOptions::default(),
            bb_threads: 1,
        }
    }
}

/// The portfolio solver: local search + branch-and-bound over a shared
/// incumbent cell.
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_solver::{Portfolio, SolveStrategy};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[1].positive(), v[2].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
/// let inst = b.build()?;
///
/// let result = Portfolio::with_strategy(SolveStrategy::LsSeeded).solve(&inst);
/// assert!(result.is_optimal());
/// assert_eq!(result.best_cost, Some(3));
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Portfolio {
    options: PortfolioOptions,
}

impl Portfolio {
    /// Creates a portfolio solver with the given configuration.
    pub fn new(options: PortfolioOptions) -> Portfolio {
        Portfolio { options }
    }

    /// Default options with the given strategy.
    pub fn with_strategy(strategy: SolveStrategy) -> Portfolio {
        Portfolio::new(PortfolioOptions { strategy, ..PortfolioOptions::default() })
    }

    /// The active configuration.
    pub fn options(&self) -> &PortfolioOptions {
        &self.options
    }

    /// Solves `instance` with a private incumbent cell.
    pub fn solve(&self, instance: &Instance) -> SolveResult {
        self.solve_with_cell(instance, &IncumbentCell::new())
    }

    /// Solves `instance`, exchanging incumbents through `cell` — pass a
    /// caller-owned cell to observe the incumbent trajectory
    /// ([`IncumbentCell::history_since`]) or to seed the solve with a
    /// known solution.
    pub fn solve_with_cell(&self, instance: &Instance, cell: &IncumbentCell) -> SolveResult {
        let start = Instant::now();
        let mut result = match self.options.strategy {
            SolveStrategy::Exact => self.exact_solver().solve_with_cell(instance, Some(cell)),
            SolveStrategy::LsSeeded => self.solve_ls_seeded(instance, cell, start),
            SolveStrategy::Concurrent => self.solve_concurrent(instance, cell, start),
        };
        // An incumbent can land in the cell after the B&B's last
        // adoption check (a racing LS thread's final offer): fold it
        // back so the returned result is the cell's best, never worse.
        if let Some((cost, model)) = cell.snapshot() {
            if result.best_cost.is_none_or(|b| cost < b)
                && pbo_core::verify_solution(instance, &model) == Ok(cost)
            {
                result.best_cost = Some(cost);
                result.best_assignment = Some(model);
                if result.status == SolveStatus::Unknown {
                    result.status = SolveStatus::Feasible;
                }
            }
        }
        // Portfolio-wide accounting: the incumbent trajectory lives in
        // the cell, and the final best was published by whoever found it.
        result.stats.solve_time = start.elapsed();
        if let Some((at, _)) = cell.history_since(start).last() {
            result.stats.time_to_best = *at;
        }
        result
    }

    /// The exact side of every strategy: sequential bsolo for
    /// `bb_threads == 1` (bit-identical to [`crate::Bsolo`], by
    /// delegation), the cube-split worker pool otherwise.
    fn exact_solver(&self) -> ParBsolo {
        ParBsolo::new(self.options.bsolo.clone(), self.options.resolved_bb_threads())
    }

    /// Sequential mode: a bounded LS phase, then B&B on what's left of
    /// the wall-clock budget. The phase ends early on stagnation (no
    /// verified improvement for `LS_STAGNATION_STEPS` steps), so a
    /// converged walk hands its unused share straight to the B&B.
    fn solve_ls_seeded(
        &self,
        instance: &Instance,
        cell: &IncumbentCell,
        start: Instant,
    ) -> SolveResult {
        let total_time = self.options.bsolo.budget.time;
        // An explicit LS time limit wins (so callers can make the seed
        // phase step-bounded and deterministic); a fifth of the total
        // wall-clock budget is imposed as a hard cap only when none is
        // set — stagnation usually ends the phase well before either.
        let seed_cap = total_time.map(|t| t / 5);
        let phase_limit = self.options.ls.time_limit.or(seed_cap);
        let deadline = phase_limit.map(|d| Instant::now() + d);
        let max_steps = self.options.ls.max_steps;
        let chunk = SEED_CHUNK_STEPS.min(max_steps.max(1));
        // The solve's cancel token reaches the seed phase too, unless the
        // LS options bring their own.
        let cancel = self.options.ls.cancel.clone().or_else(|| self.options.bsolo.cancel.clone());
        let mut ls = LocalSearch::new(
            instance,
            LsOptions { max_steps: chunk, time_limit: None, cancel, ..self.options.ls.clone() },
        );
        if self.options.bsolo.trace {
            ls.set_tracer(Tracer::buffered(LS_LANE_BASE, start));
        }
        let mut last_best: Option<i64> = None;
        let mut stagnant: u64 = 0;
        loop {
            let before = ls.stats.steps;
            let result = ls.run(Some(cell), None);
            let advanced = ls.stats.steps - before;
            if advanced == 0 {
                break; // satisfied, hopeless, or cancelled
            }
            if result.best_cost.is_some() && result.best_cost != last_best {
                last_best = result.best_cost;
                stagnant = 0;
            } else {
                stagnant += advanced;
            }
            if stagnant >= LS_STAGNATION_STEPS
                || ls.stats.steps >= max_steps
                || deadline.is_some_and(|d| Instant::now() >= d)
            {
                break;
            }
        }
        let ls_time = start.elapsed();
        // A decision instance ends at its first model: once the seed
        // phase has left one in the cell and it verifies again (the cell
        // stores, it does not vouch), no exact search can improve on it.
        if !instance.is_optimization() {
            if let Some((cost, model)) = cell.snapshot() {
                if pbo_core::verify_solution(instance, &model) == Ok(cost) {
                    let stats = SolverStats {
                        ls_steps: ls.stats.steps,
                        ls_time,
                        trace: ls.drain_trace(),
                        ..SolverStats::default()
                    };
                    return SolveResult {
                        status: SolveStatus::Optimal,
                        best_cost: Some(cost),
                        best_assignment: Some(model),
                        stats,
                    };
                }
            }
        }
        let mut bsolo_options = self.options.bsolo.clone();
        if let Some(t) = total_time {
            bsolo_options.budget.time =
                Some(t.saturating_sub(ls_time).max(Duration::from_millis(1)));
        }
        let mut result = ParBsolo::new(bsolo_options, self.options.resolved_bb_threads())
            .solve_with_cell(instance, Some(cell));
        shift_trace(&mut result.stats.trace, ls_time);
        result.stats.trace.extend(ls.drain_trace());
        result.stats.ls_steps = ls.stats.steps;
        result.stats.ls_time = ls_time;
        result
    }

    /// Concurrent mode: one LS thread races the exact side — sequential
    /// bsolo, or the `bb_threads`-strong cube-split pool — until the
    /// exact side finishes. Incumbents flow through the shared cell; the
    /// walker's steps are added to `ls_steps`, while `ls_time` stays the
    /// seed phase's (zero here).
    fn solve_concurrent(
        &self,
        instance: &Instance,
        cell: &IncumbentCell,
        start: Instant,
    ) -> SolveResult {
        let stop = AtomicBool::new(false);
        let traced = self.options.bsolo.trace;
        std::thread::scope(|scope| {
            let ls_handle = scope.spawn(|| {
                let options = LsOptions {
                    max_steps: CONCURRENT_CHUNK_STEPS,
                    time_limit: None,
                    ..self.options.ls.clone()
                };
                let mut ls = LocalSearch::new(instance, options);
                // Built inside the thread: the buffer is the walker's
                // own, and only the drained events cross back at join.
                if traced {
                    ls.set_tracer(Tracer::buffered(LS_LANE_BASE, start));
                }
                loop {
                    let before = ls.stats.steps;
                    ls.run(Some(cell), Some(&stop));
                    if stop.load(Ordering::Relaxed) {
                        break (ls.stats.steps, ls.drain_trace());
                    }
                    if ls.stats.steps == before {
                        // Nothing left to improve: idle until the stop
                        // flag rises.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            let exact_start = start.elapsed();
            let mut result = self.exact_solver().solve_with_cell(instance, Some(cell));
            stop.store(true, Ordering::Relaxed);
            shift_trace(&mut result.stats.trace, exact_start);
            match ls_handle.join() {
                Ok((steps, events)) => {
                    result.stats.ls_steps += steps;
                    result.stats.trace.extend(events);
                }
                // The walker died (engine bug, injected fault) and its
                // trace buffer with it. The exact answer stands — the LS
                // side only ever feeds incumbents, and every one it
                // published is already in the cell — but the loss is
                // recorded, on its lane too.
                Err(_) => {
                    result.stats.workers_lost += 1;
                    if traced {
                        result.stats.trace.push(Event {
                            t_ns: start.elapsed().as_nanos() as u64,
                            lane: LS_LANE_BASE,
                            data: TraceEvent::WorkerLost,
                        });
                    }
                }
            }
            result
        })
    }
}

/// Moves the exact side's events onto the portfolio's trace epoch: the
/// exact solver stamps its lanes from its own start, `offset` after the
/// portfolio's.
fn shift_trace(events: &mut [Event], offset: Duration) {
    let offset_ns = offset.as_nanos() as u64;
    for event in events {
        event.t_ns += offset_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsolo::Bsolo;
    use crate::options::{Budget, LbMethod};
    use pbo_benchgen::{PtlCmosParams, SynthesisParams};
    use pbo_core::{brute_force, InstanceBuilder, RelOp};

    fn covering_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.add_clause([v[2].positive(), v[3].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (3, v[2].positive()),
            (2, v[3].positive()),
        ]);
        b.build().unwrap()
    }

    #[test]
    fn every_strategy_finds_the_optimum() {
        let inst = covering_instance();
        let expected = brute_force(&inst).cost();
        for strategy in [SolveStrategy::Exact, SolveStrategy::LsSeeded, SolveStrategy::Concurrent] {
            let result = Portfolio::with_strategy(strategy).solve(&inst);
            assert!(result.is_optimal(), "{strategy:?} must prove optimality");
            assert_eq!(result.best_cost, expected, "{strategy:?} optimum mismatch");
            let model = result.best_assignment.as_ref().expect("model present");
            assert_eq!(pbo_core::verify_solution(&inst, model), Ok(expected.unwrap()));
        }
    }

    #[test]
    fn cell_records_trajectory_and_time_to_best() {
        let inst = covering_instance();
        let cell = IncumbentCell::new();
        let start = Instant::now();
        let result =
            Portfolio::with_strategy(SolveStrategy::LsSeeded).solve_with_cell(&inst, &cell);
        assert!(result.is_optimal());
        let history = cell.history_since(start);
        assert!(!history.is_empty(), "the optimum must have been published");
        let (_, final_cost) = *history.last().unwrap();
        assert_eq!(Some(final_cost), result.best_cost);
        assert!(
            history.windows(2).all(|w| w[1].1 < w[0].1),
            "trajectory must be strictly improving: {history:?}"
        );
        assert!(result.stats.time_to_best <= result.stats.solve_time);
    }

    #[test]
    fn preseeded_cell_warm_starts_the_search() {
        let inst = covering_instance();
        let optimum = brute_force(&inst).cost().unwrap();
        // Seed the cell with the optimum; the B&B must confirm it without
        // ever finding an "improving" solution itself.
        let witness = match brute_force(&inst) {
            pbo_core::BruteForceResult::Optimal { witness, .. } => witness,
            pbo_core::BruteForceResult::Infeasible => unreachable!(),
        };
        let cell = IncumbentCell::new();
        cell.offer(optimum, &witness);
        let result = Portfolio::with_strategy(SolveStrategy::Exact).solve_with_cell(&inst, &cell);
        assert!(result.is_optimal());
        assert_eq!(result.best_cost, Some(optimum));
        assert_eq!(result.best_assignment, Some(witness));
    }

    #[test]
    fn adopted_model_finishes_satisfaction_instances_immediately() {
        // Pure satisfaction instance; the cell already holds a verified
        // model. Even with a zero budget the solve must adopt it and
        // report SATISFIABLE instead of burning the budget re-searching.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].negative(), v[2].positive()]);
        let inst = b.build().unwrap();
        let model = vec![true, true, true];
        assert_eq!(pbo_core::verify_solution(&inst, &model), Ok(0));
        let cell = IncumbentCell::new();
        cell.offer(0, &model);
        let options =
            BsoloOptions::default().budget(Budget { decisions: Some(0), ..Budget::default() });
        let result = Bsolo::new(options).solve_with_cell(&inst, Some(&cell));
        assert_eq!(result.status, crate::SolveStatus::Optimal);
        assert_eq!(result.best_assignment, Some(model));
    }

    #[test]
    fn adoption_survives_an_exhausted_budget_on_optimization() {
        // Zero budget on an optimization instance, seeded with a
        // *suboptimal* solution: the incumbent must surface as Feasible
        // (ub reported), not be dropped as Unknown.
        let inst = covering_instance();
        let all_true = vec![true; 4];
        let cost = pbo_core::verify_solution(&inst, &all_true).unwrap();
        assert!(cost > brute_force(&inst).cost().unwrap(), "seed must be suboptimal");
        let cell = IncumbentCell::new();
        cell.offer(cost, &all_true);
        let options =
            BsoloOptions::default().budget(Budget { decisions: Some(0), ..Budget::default() });
        let result = Bsolo::new(options).solve_with_cell(&inst, Some(&cell));
        assert_eq!(result.status, crate::SolveStatus::Feasible);
        assert_eq!(result.best_cost, Some(cost));
    }

    #[test]
    fn seeding_the_cell_with_the_optimum_proves_optimality_outright() {
        // With the optimum in the cell, the eq. 10 cut is contradictory
        // at the root: adoption alone completes the proof, even under a
        // zero budget.
        let inst = covering_instance();
        let witness = match brute_force(&inst) {
            pbo_core::BruteForceResult::Optimal { witness, .. } => witness,
            pbo_core::BruteForceResult::Infeasible => unreachable!(),
        };
        let cost = pbo_core::verify_solution(&inst, &witness).unwrap();
        let cell = IncumbentCell::new();
        cell.offer(cost, &witness);
        let options =
            BsoloOptions::default().budget(Budget { decisions: Some(0), ..Budget::default() });
        let result = Bsolo::new(options).solve_with_cell(&inst, Some(&cell));
        assert_eq!(result.status, crate::SolveStatus::Optimal);
        assert_eq!(result.best_cost, Some(cost));
    }

    #[test]
    fn auto_thread_resolution() {
        // 0 is the "auto" sentinel: resolved to the machine's available
        // parallelism (≥ 1), explicit counts pass through untouched.
        assert!(PortfolioOptions::resolve_threads(0) >= 1);
        assert_eq!(PortfolioOptions::resolve_threads(3), 3);
        let auto = PortfolioOptions { bb_threads: 0, ..Default::default() };
        assert!(auto.resolved_bb_threads() >= 1);
        // And an auto-threaded solve still verifies its optimum.
        let inst = covering_instance();
        let expected = brute_force(&inst).cost();
        let options = PortfolioOptions {
            strategy: SolveStrategy::Exact,
            bb_threads: 0,
            ..PortfolioOptions::default()
        };
        let result = Portfolio::new(options).solve(&inst);
        assert!(result.is_optimal(), "auto-threaded exact solve must prove optimality");
        assert_eq!(result.best_cost, expected);
    }

    #[test]
    fn concurrent_worker_pool_finds_the_optimum() {
        // The one LS thread races a two-worker cube-split exact side.
        let inst = covering_instance();
        let expected = brute_force(&inst).cost();
        let options = PortfolioOptions {
            strategy: SolveStrategy::Concurrent,
            bb_threads: 2,
            ..PortfolioOptions::default()
        };
        let result = Portfolio::new(options).solve(&inst);
        assert!(result.is_optimal(), "concurrent portfolio must prove optimality");
        assert_eq!(result.best_cost, expected);
        let model = result.best_assignment.expect("model present");
        assert_eq!(pbo_core::verify_solution(&inst, &model), Ok(expected.unwrap()));
    }

    #[test]
    fn infeasible_instance_is_reported_by_every_strategy() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive()]);
        b.add_clause([v[0].negative()]);
        b.minimize([(1, v[1].positive())]);
        let inst = b.build().unwrap();
        for strategy in [SolveStrategy::Exact, SolveStrategy::LsSeeded, SolveStrategy::Concurrent] {
            let result = Portfolio::with_strategy(strategy).solve(&inst);
            assert_eq!(
                result.status,
                crate::SolveStatus::Infeasible,
                "{strategy:?} must prove infeasibility"
            );
        }
    }

    #[test]
    fn budgeted_portfolio_is_anytime() {
        let inst = covering_instance();
        let options = PortfolioOptions {
            strategy: SolveStrategy::LsSeeded,
            bsolo: BsoloOptions::default().budget(Budget::time_limit(Duration::from_secs(5))),
            ..PortfolioOptions::default()
        };
        let result = Portfolio::new(options).solve(&inst);
        // Tiny instance: solved outright, well inside the budget.
        assert!(result.is_optimal());
        assert_eq!(result.best_cost, brute_force(&inst).cost());
    }

    /// Pure satisfaction instance: `x1 ∨ x2`, `¬x2 ∨ x3`.
    fn decision_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].negative(), v[2].positive()]);
        b.build().unwrap()
    }

    #[test]
    fn decision_instance_ends_at_the_first_verified_model() {
        let inst = decision_instance();
        let mut options = PortfolioOptions::default();
        options.bsolo.trace = true;
        let result = Portfolio::new(options).solve(&inst);
        assert_eq!(result.status, crate::SolveStatus::Optimal);
        let model = result.best_assignment.as_ref().expect("model present");
        assert_eq!(pbo_core::verify_solution(&inst, model), Ok(0));
        assert_eq!(result.stats.decisions, 0);
        assert!(result.stats.ls_steps > 0, "the local search found the model");
        // Not even adopted by an exact search: nothing ran on a B&B lane.
        assert!(
            result.stats.trace.iter().all(|e| e.lane >= LS_LANE_BASE),
            "the branch-and-bound must not run: {:?}",
            result.stats.trace
        );
    }

    #[test]
    fn infeasible_decision_instance_still_reaches_the_branch_and_bound() {
        // Three pigeons, two holes: local search never finds a model, so
        // only the exact side can end the solve, with a proof.
        let mut b = InstanceBuilder::new();
        let p = b.new_vars(6); // p[2 * pigeon + hole]
        for pigeon in 0..3 {
            b.add_clause([p[2 * pigeon].positive(), p[2 * pigeon + 1].positive()]);
        }
        for hole in 0..2 {
            b.add_linear((0..3).map(|pigeon| (1, p[2 * pigeon + hole].positive())), RelOp::Le, 1);
        }
        let inst = b.build().unwrap();
        assert!(!inst.is_optimization());
        let result = Portfolio::default().solve(&inst);
        assert_eq!(result.status, crate::SolveStatus::Infeasible);
        assert!(result.stats.ls_steps > 0, "the seed phase ran first");
    }

    #[test]
    fn unverifiable_cell_model_does_not_end_a_decision_solve() {
        // The cell stores, it does not vouch: a model that fails
        // verification must not become the answer, although the local
        // search's own model (also cost 0) cannot displace it.
        let inst = decision_instance();
        let bogus = vec![false; 3];
        assert!(pbo_core::verify_solution(&inst, &bogus).is_err());
        let cell = IncumbentCell::new();
        cell.offer(0, &bogus);
        let result = Portfolio::default().solve_with_cell(&inst, &cell);
        assert_eq!(result.status, crate::SolveStatus::Optimal);
        let model = result.best_assignment.as_ref().expect("model present");
        assert_eq!(pbo_core::verify_solution(&inst, model), Ok(0));
    }

    #[test]
    fn seed_phase_effort_is_reported_apart() {
        let inst = covering_instance();
        let seeded = Portfolio::with_strategy(SolveStrategy::LsSeeded).solve(&inst);
        assert!(seeded.stats.ls_steps > 0);
        assert!(seeded.stats.ls_time > Duration::ZERO);
        assert!(seeded.stats.ls_time <= seeded.stats.solve_time);
        let json = seeded.stats.to_json();
        assert!(json.contains(&format!("\"ls_steps\":{},", seeded.stats.ls_steps)), "{json}");
        assert!(json.contains("\"ls_time_ms\":"), "{json}");
        let exact = Portfolio::with_strategy(SolveStrategy::Exact).solve(&inst);
        assert_eq!(exact.stats.ls_steps, 0);
        assert_eq!(exact.stats.ls_time, Duration::ZERO);
    }

    #[test]
    fn concurrent_solve_reports_its_racing_walk() {
        // Plain bounding cannot close this Table-1-sized tree within the
        // budget, so the exact side runs long after the walker's first
        // incumbent.
        let params = SynthesisParams {
            primes: 70,
            minterms: 110,
            cover_density: 4.0,
            exclusions: 10,
            ..SynthesisParams::default()
        };
        let inst = params.generate(0);
        let budget = Budget::time_limit(Duration::from_millis(200));
        let bsolo = BsoloOptions { trace: true, ..BsoloOptions::with_lb(LbMethod::None) };
        let options = PortfolioOptions {
            strategy: SolveStrategy::Concurrent,
            bsolo: bsolo.budget(budget),
            ..PortfolioOptions::default()
        };
        let result = Portfolio::new(options).solve(&inst);
        let ls_incumbent =
            |e: &Event| e.lane == LS_LANE_BASE && matches!(e.data, TraceEvent::Solution { .. });
        assert!(
            result.stats.trace.iter().any(ls_incumbent),
            "the racing walker published an incumbent"
        );
        assert!(result.stats.ls_steps > 0, "the racing walker's steps are reported");
        assert_eq!(result.stats.ls_time, Duration::ZERO, "no seed phase ran");
    }

    #[test]
    fn pre_cancelled_token_reaches_the_seed_phase() {
        let inst = PtlCmosParams { gates: 60, fanin: 2.2, ..PtlCmosParams::default() }.generate(0);
        let cancel = pbo_core::CancelToken::new();
        cancel.cancel();
        let bsolo = BsoloOptions { cancel: Some(cancel), trace: true, ..BsoloOptions::default() };
        let options =
            PortfolioOptions { strategy: SolveStrategy::LsSeeded, bsolo, ..Default::default() };
        let result = Portfolio::new(options).solve(&inst);
        assert!(
            !result.stats.trace.iter().any(|e| matches!(e.data, pbo_trace::TraceEvent::LsRestart)),
            "the local search must see the token before its first restart"
        );
        assert_eq!(result.stats.ls_steps, 0);
        assert!(result.stats.cancelled, "the cancel must be reported");
        assert!(
            matches!(result.status, crate::SolveStatus::Feasible | crate::SolveStatus::Unknown),
            "a cancelled solve cannot claim exhaustion: {:?}",
            result.status
        );
    }

    #[test]
    fn deterministic_ls_seeded_solves_reproduce() {
        let instances = [
            PtlCmosParams { gates: 20, ..PtlCmosParams::default() }.generate(0),
            SynthesisParams::default().generate(0),
        ];
        for (i, inst) in instances.iter().enumerate() {
            for bb_threads in [1, 2] {
                let options = PortfolioOptions {
                    strategy: SolveStrategy::LsSeeded,
                    bsolo: BsoloOptions { deterministic_join: true, ..BsoloOptions::default() },
                    bb_threads,
                    ..PortfolioOptions::default()
                };
                let a = Portfolio::new(options.clone()).solve(inst);
                let b = Portfolio::new(options).solve(inst);
                let label = format!("instance {i}, bb_threads {bb_threads}");
                assert!(a.is_optimal(), "{label}: {:?}", a.status);
                assert_eq!(a.status, b.status, "{label}: status");
                assert_eq!(a.best_cost, b.best_cost, "{label}: cost");
                assert_eq!(a.best_assignment, b.best_assignment, "{label}: model");
                let counters = |r: &SolveResult| {
                    let s = &r.stats;
                    (
                        s.ls_steps,
                        s.decisions,
                        s.conflicts,
                        s.bound_conflicts,
                        s.propagations,
                        s.lb_calls,
                        s.lp_iterations,
                        s.solutions_found,
                        s.nodes_per_worker.clone(),
                    )
                };
                assert_eq!(counters(&a), counters(&b), "{label}: counters");
            }
        }
    }
}
