//! The portfolio driver: stochastic local search seeding or racing the
//! exact branch-and-bound, with incumbents flowing both ways.
//!
//! The DATE'05 search prunes a node as soon as `lower bound >= best
//! incumbent`, so a good incumbent *early* is worth as much as a tight
//! lower bound. The `pbo-ls` engine finds near-optimal verified solutions
//! orders of magnitude faster than tree search; this module wires the two
//! together around a shared [`IncumbentCell`]:
//!
//! * **[`SolveStrategy::LsSeeded`]** (default) runs in one of two orders.
//!   - *The race*, on an optimization instance when the process has a
//!     second core and `deterministic_join` is off: one walker runs on
//!     its own thread beside the branch-and-bound for the whole solve.
//!     Every improving incumbent found by either side is published to
//!     the cell; the B&B adopts external improvements mid-search
//!     (re-rooting its cuts), and the walker re-seeds its restarts from
//!     external improvements. Nothing is polished: the racing walker
//!     already re-seeds from the B&B's incumbents.
//!   - *Walk, then search*, everywhere else: LS runs first, in
//!     8,192-step chunks, until two consecutive chunks bring no new
//!     verified incumbent; its best warm-starts the branch-and-bound's
//!     upper bound and eq. 10 cost cuts. On an optimization instance the
//!     B&B then polishes every improving solution it records: a
//!     2,048-step walk from it through the cell, whose cheaper find the
//!     B&B adopts before installing its cost cuts. Local search thus
//!     runs as a primal heuristic at deterministic points of the tree,
//!     under a step budget. A decision instance ends at its first
//!     verified model: when the seed phase leaves one in the cell and it
//!     verifies again, the solve returns it without building the exact
//!     side at all.
//! * **[`SolveStrategy::Exact`]**: plain branch-and-bound (the paper's
//!   solver), for when reproducibility of the exact search matters more
//!   than anytime behaviour. It never polishes.
//!
//! Every solution crossing a component boundary is re-verified with
//! [`pbo_core::verify_solution`] — the cell stores, it does not vouch.
//!
//! # When to prefer which strategy
//!
//! `LsSeeded` is the default everywhere — [`SolveStrategy::default`],
//! `pbo::solve` and the `pbo-solve` CLI — and picks its order from what
//! was measured on a 2-core box: the race beat the speculative
//! branch-and-bound start it replaced on the optimization workloads
//! (`ptlcmos-seq` and `synthesis-par2` per-file sums 32% and 19% lower),
//! but pinned to one core it lost `synthesis-par2`, and it lost the
//! decision workload (`acc-seq`), where the seed phase alone answers.
//! The race is timing dependent. The walk-then-search order is
//! reproducible run to run — every walk is step-bounded and seeded
//! (under a wall-clock budget the seed phase's time cap can cut it at a
//! different step) — so `deterministic_join` (`pbo-solve
//! --deterministic`) selects it on any machine. `Exact` (`pbo-solve
//! --strategy exact`, `pbo::solve_with`) reproduces the paper's solver
//! byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pbo_core::{CancelToken, Instance};
pub use pbo_ls::{IncumbentCell, LocalSearch, LsOptions, LsResult, LsStats};
use pbo_trace::{Event, TraceEvent, Tracer, LS_LANE_BASE};

use crate::options::{BsoloOptions, SolveStrategy};
use crate::par::ParBsolo;
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// LS steps per chunk of the seed phase. Step-based, so a step-bounded
/// seed phase stays deterministic. Shorter chunks were measured and
/// rejected: 4,096-step chunks took `acc-seq` from 65 to 164 ms and
/// grout 17% longer.
const SEED_CHUNK_STEPS: u64 = 8_192;

/// Consecutive chunks without a new verified incumbent that end the seed
/// phase once it has found a model. One was measured and rejected: on
/// grout, whose walk still improves after a stagnant chunk, polishing
/// did not make up for the shorter walk (6–10% more decisions and
/// 10–19% more wall time on two sets of 60 and 48 grout files). Three,
/// the old rule, spent nearly 40% of a `ptlcmos-seq` solve on chunks
/// that improved nothing.
const SEED_STAGNANT_CHUNKS: u64 = 2;

/// Chunks the seed phase walks for a first model before it hands the
/// instance to the branch-and-bound without an upper bound. Giving up
/// after one took a grout instance whose first model came in the second
/// chunk from 0.7 to 10.3 s; giving up after two cost grout 4% more
/// decisions than after three.
const SEED_MODEL_CHUNKS: u64 = 3;

/// Configuration of the [`Portfolio`] driver.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// How LS and branch-and-bound are combined.
    pub strategy: SolveStrategy,
    /// The exact solver's configuration; its [`crate::Budget`] is the
    /// budget of the *whole* portfolio solve (when `LsSeeded` walks,
    /// then searches, the LS phase consumes part of the wall clock and
    /// the branch-and-bound gets the remainder).
    pub bsolo: BsoloOptions,
    /// The local-search configuration. When `LsSeeded` walks, then
    /// searches, `max_steps` / `time_limit` cap the seed phase (a fifth
    /// of the total time budget is imposed when none is set), and every
    /// polish walk takes `seed` and `cancel` but a fixed 2,048-step
    /// budget. When it races, the one walker takes `seed` and `cancel`
    /// and walks until the exact side finishes, whatever its step budget
    /// and time limit.
    pub ls: LsOptions,
    /// Number of exact branch-and-bound workers (default 1 = the
    /// sequential solver, bit-identical to [`crate::Bsolo`]). With more
    /// workers the exact side runs as [`crate::ParBsolo`]: the root is
    /// split into cubes and solved by a pool sharing the instance's
    /// read-only term arena, incumbents flowing through the cell.
    /// Applies to every strategy — `Exact` becomes pure parallel B&B,
    /// and a racing `LsSeeded` solve races one walker *and* `bb_threads`
    /// exact workers against one cell.
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
    /// caller-owned cell to read the incumbent trajectory
    /// ([`IncumbentCell::history_since`]) after the solve, or to seed the
    /// solve with a known solution.
    ///
    /// Under `deterministic_join` with more than one worker, each cube
    /// task runs against a private cell: its incumbents reach `cell` at
    /// the join, merged with the instants they were found at
    /// ([`IncumbentCell::absorb`]), so the trajectory read afterwards is
    /// complete, but a caller watching `cell` while the solve runs sees
    /// them only at the end.
    pub fn solve_with_cell(&self, instance: &Instance, cell: &IncumbentCell) -> SolveResult {
        let start = Instant::now();
        let mut result = match self.options.strategy {
            SolveStrategy::Exact => self.exact_solver().solve_with_cell(instance, Some(cell)),
            // `available_parallelism` honours the affinity mask, so a
            // solve pinned to one core walks, then searches.
            SolveStrategy::LsSeeded if self.races(instance, available_cores) => {
                self.race(instance, cell, start)
            }
            SolveStrategy::LsSeeded => self.walk_then_search(instance, cell, start),
        };
        // An incumbent can land in the cell after the B&B's last
        // adoption check (a racing walker's final offer): fold it back so
        // the returned result is the cell's best, never worse.
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

    /// Whether `LsSeeded` races its walker against the branch-and-bound
    /// on `instance` rather than walking first: on an optimization
    /// instance, without `deterministic_join`, when `cores` reports a
    /// second core. `cores` is asked last: [`available_cores`] reads
    /// cgroup files (about 20 µs), which a decision instance skips.
    fn races(&self, instance: &Instance, cores: impl FnOnce() -> usize) -> bool {
        instance.is_optimization() && !self.options.bsolo.deterministic_join && cores() > 1
    }

    /// The exact side of every strategy: sequential bsolo for
    /// `bb_threads == 1` (bit-identical to [`crate::Bsolo`], by
    /// delegation), the cube-split worker pool otherwise.
    fn exact_solver(&self) -> ParBsolo {
        ParBsolo::new(self.options.bsolo.clone(), self.options.resolved_bb_threads())
    }

    /// `LsSeeded` without a second core, on a decision instance or under
    /// `deterministic_join`: a bounded LS phase, then B&B on what's left
    /// of the wall-clock budget, polishing each improving incumbent of an
    /// optimization instance with a short walk of its own. Every polish
    /// walk takes the seed walker's seed, and the LS options' own cancel
    /// token, else the search's.
    pub(crate) fn walk_then_search(
        &self,
        instance: &Instance,
        cell: &IncumbentCell,
        start: Instant,
    ) -> SolveResult {
        let mut ls = self.seed_phase(instance, cell, start);
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
        if let Some(t) = self.options.bsolo.budget.time {
            bsolo_options.budget.time =
                Some(t.saturating_sub(ls_time).max(Duration::from_millis(1)));
        }
        let mut result = ParBsolo::new(bsolo_options, self.options.resolved_bb_threads())
            .solve_with_polish(instance, Some(cell), Some(&self.options.ls));
        shift_trace(&mut result.stats.trace, ls_time);
        result.stats.trace.extend(ls.drain_trace());
        result.stats.ls_steps += ls.stats.steps;
        result.stats.ls_time = ls_time;
        result
    }

    /// The seed phase of the walk-then-search order: one walker in
    /// 8,192-step chunks publishing to `cell`, until two consecutive
    /// chunks bring no new verified incumbent (three while it has none),
    /// the step budget or the time cap runs out, or nothing is left to
    /// improve. Returns the walker.
    fn seed_phase<'i>(
        &self,
        instance: &'i Instance,
        cell: &IncumbentCell,
        start: Instant,
    ) -> LocalSearch<'i> {
        // An explicit LS time limit wins (so callers can make the seed
        // phase step-bounded and deterministic); a fifth of the total
        // wall-clock budget is imposed as a hard cap only when none is
        // set — stagnation usually ends the phase well before either.
        let seed_cap = self.options.bsolo.budget.time.map(|t| t / 5);
        let phase_limit = self.options.ls.time_limit.or(seed_cap);
        let deadline = phase_limit.map(|d| Instant::now() + d);
        let max_steps = self.options.ls.max_steps;
        let chunk = SEED_CHUNK_STEPS.min(max_steps.max(1));
        let mut ls = LocalSearch::new(
            instance,
            LsOptions {
                max_steps: chunk,
                time_limit: None,
                cancel: self.ls_cancel(),
                ..self.options.ls.clone()
            },
        );
        if self.options.bsolo.trace {
            ls.set_tracer(Tracer::buffered(LS_LANE_BASE, start));
        }
        let mut last_best: Option<i64> = None;
        let mut stagnant = 0;
        loop {
            let before = ls.stats.steps;
            ls.run(Some(cell), None);
            if ls.stats.steps == before {
                break; // satisfied, hopeless, or cancelled
            }
            let best = ls.best().map(|(cost, _)| cost);
            if best == last_best {
                stagnant += 1;
            } else {
                last_best = best;
                stagnant = 0;
            }
            let patience = if best.is_some() { SEED_STAGNANT_CHUNKS } else { SEED_MODEL_CHUNKS };
            if stagnant >= patience
                || ls.stats.steps >= max_steps
                || deadline.is_some_and(|d| Instant::now() >= d)
            {
                break;
            }
        }
        ls
    }

    /// The cancel token of every walk of the solve: the LS options' own,
    /// else the solve's.
    fn ls_cancel(&self) -> Option<CancelToken> {
        self.options.ls.cancel.clone().or_else(|| self.options.bsolo.cancel.clone())
    }

    /// `LsSeeded` on an optimization instance with a second core: one
    /// walker races the exact side — sequential bsolo, or the
    /// `bb_threads`-strong cube-split pool — until the exact side
    /// finishes. Incumbents flow through the shared cell; the walker's
    /// steps are added to `ls_steps`, while `ls_time` stays zero (no seed
    /// phase runs).
    fn race(&self, instance: &Instance, cell: &IncumbentCell, start: Instant) -> SolveResult {
        let stop = AtomicBool::new(false);
        let traced = self.options.bsolo.trace;
        std::thread::scope(|scope| {
            let walker = scope.spawn(|| {
                // One walk with no step cap: it ends on the stop flag, on
                // the solve's token, or when nothing is left to improve.
                let options = LsOptions {
                    max_steps: u64::MAX,
                    time_limit: None,
                    cancel: self.ls_cancel(),
                    ..self.options.ls.clone()
                };
                let mut ls = LocalSearch::new(instance, options);
                // Built inside the thread: the buffer is the walker's
                // own, and only the drained events cross back at join.
                if traced {
                    ls.set_tracer(Tracer::buffered(LS_LANE_BASE, start));
                }
                ls.run(Some(cell), Some(&stop));
                (ls.stats.steps, ls.drain_trace())
            });
            let exact_start = start.elapsed();
            // Raised on every exit from the exact side, an unwinding
            // panic included: the scope joins the walker before it
            // rethrows, and the walker may stop only on the flag.
            let raise_stop = RaiseOnDrop(&stop);
            let mut result = self.exact_solver().solve_with_cell(instance, Some(cell));
            drop(raise_stop);
            shift_trace(&mut result.stats.trace, exact_start);
            match walker.join() {
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

/// The cores this process may run on, as `available_parallelism`
/// reports them (1 when it cannot tell).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |cores| cores.get())
}

/// Raises a stop flag when dropped.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
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
    use pbo_benchgen::{AccSchedParams, PtlCmosParams, SynthesisParams};
    use pbo_core::{brute_force, InstanceBuilder, RelOp, Var};

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

    /// An `LsSeeded` solve in each order, whatever the machine's cores:
    /// the race and walk-then-search.
    fn both_orders(
        options: &PortfolioOptions,
        inst: &Instance,
    ) -> [(&'static str, SolveResult); 2] {
        let portfolio = Portfolio::new(options.clone());
        [
            ("race", portfolio.race(inst, &IncumbentCell::new(), Instant::now())),
            (
                "walk, then search",
                portfolio.walk_then_search(inst, &IncumbentCell::new(), Instant::now()),
            ),
        ]
    }

    #[test]
    fn every_strategy_finds_the_optimum() {
        let inst = covering_instance();
        let expected = brute_force(&inst).cost();
        let exact = Portfolio::with_strategy(SolveStrategy::Exact).solve(&inst);
        let default = Portfolio::with_strategy(SolveStrategy::LsSeeded).solve(&inst);
        let orders = both_orders(&PortfolioOptions::default(), &inst);
        for (label, result) in [("exact", exact), ("default", default)].into_iter().chain(orders) {
            assert!(result.is_optimal(), "{label} must prove optimality");
            assert_eq!(result.best_cost, expected, "{label} optimum mismatch");
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
        // With the optimum in the cell, the cost cuts installed for it
        // contradict the root: on this instance an eqs. 11–13 cut does,
        // the eq. 10 row alone does not. So adoption alone completes the
        // proof, even under a zero budget, on a method that installs the
        // eqs. 11–13 rows (LPR installs the eq. 10 row alone: its
        // reduced-cost fixings take the others' place, at a bound call).
        let inst = covering_instance();
        let witness = match brute_force(&inst) {
            pbo_core::BruteForceResult::Optimal { witness, .. } => witness,
            pbo_core::BruteForceResult::Infeasible => unreachable!(),
        };
        let cost = pbo_core::verify_solution(&inst, &witness).unwrap();
        let cell = IncumbentCell::new();
        cell.offer(cost, &witness);
        let options = BsoloOptions::with_lb(LbMethod::Mis)
            .budget(Budget { decisions: Some(0), ..Budget::default() });
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
    fn ls_seeded_races_only_optimization_instances_on_two_cores_without_deterministic_join() {
        let optimization = covering_instance();
        let decision = decision_instance();
        for deterministic_join in [false, true] {
            let bsolo = BsoloOptions { deterministic_join, ..BsoloOptions::default() };
            let portfolio =
                Portfolio::new(PortfolioOptions { bsolo, ..PortfolioOptions::default() });
            for cores in [1, 2, 8] {
                let races = portfolio.races(&optimization, || cores);
                assert_eq!(
                    races,
                    cores > 1 && !deterministic_join,
                    "optimization, {cores} cores, deterministic_join {deterministic_join}"
                );
                // A decision instance walks first and never asks for the
                // core count.
                assert!(!portfolio.races(&decision, || panic!("cores asked for")));
            }
        }
    }

    #[test]
    fn concurrent_worker_pool_finds_the_optimum() {
        // The one walker races a two-worker cube-split exact side.
        let inst = covering_instance();
        let expected = brute_force(&inst).cost();
        let options = PortfolioOptions { bb_threads: 2, ..PortfolioOptions::default() };
        let result = Portfolio::new(options).race(&inst, &IncumbentCell::new(), Instant::now());
        assert!(result.is_optimal(), "the racing portfolio must prove optimality");
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
        let exact = Portfolio::with_strategy(SolveStrategy::Exact).solve(&inst);
        let default = Portfolio::with_strategy(SolveStrategy::LsSeeded).solve(&inst);
        let orders = both_orders(&PortfolioOptions::default(), &inst);
        for (label, result) in [("exact", exact), ("default", default)].into_iter().chain(orders) {
            assert_eq!(
                result.status,
                crate::SolveStatus::Infeasible,
                "{label} must prove infeasibility"
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
        let begun = Instant::now();
        let seeded = Portfolio::default().walk_then_search(&inst, &IncumbentCell::new(), begun);
        let elapsed = begun.elapsed();
        assert!(seeded.stats.ls_steps > 0);
        assert!(seeded.stats.ls_time > Duration::ZERO);
        assert!(seeded.stats.ls_time <= elapsed);
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
        let options =
            PortfolioOptions { bsolo: bsolo.budget(budget), ..PortfolioOptions::default() };
        let result = Portfolio::new(options).race(&inst, &IncumbentCell::new(), Instant::now());
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
        let options = PortfolioOptions { bsolo, ..PortfolioOptions::default() };
        for (order, result) in both_orders(&options, &inst) {
            assert!(
                !result.stats.trace.iter().any(|e| matches!(e.data, TraceEvent::LsRestart)),
                "{order}: the local search must see the token before its first restart"
            );
            assert_eq!(result.stats.ls_steps, 0, "{order}");
            assert!(result.stats.cancelled, "{order}: the cancel must be reported");
            assert!(
                matches!(result.status, crate::SolveStatus::Feasible | crate::SolveStatus::Unknown),
                "{order}: a cancelled solve cannot claim exhaustion: {:?}",
                result.status
            );
        }
    }

    /// The racing walker takes the walks' token, the LS options' own
    /// before the solve's: cancelled up front, it walks 0 steps while the
    /// exact side, which never reads that token, proves the optimum. A
    /// walker without the token would walk until the exact side ends.
    #[test]
    fn racing_walker_takes_the_walks_cancel_token() {
        let cancel = pbo_core::CancelToken::new();
        cancel.cancel();
        let ls = LsOptions { cancel: Some(cancel), ..LsOptions::default() };
        let options = PortfolioOptions { ls, ..PortfolioOptions::default() };
        let result =
            Portfolio::new(options).race(&ptlcmos_60(), &IncumbentCell::new(), Instant::now());
        assert!(result.is_optimal(), "{:?}", result.status);
        assert!(!result.stats.cancelled, "the exact side ran under the solve's own token");
        assert_eq!(result.stats.ls_steps, 0);
    }

    /// The effort counters a parity check compares.
    fn counters(r: &SolveResult) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
        let s = &r.stats;
        (
            s.ls_steps,
            s.decisions,
            s.conflicts,
            s.bound_conflicts,
            s.propagations,
            s.lb_calls,
            s.lb_fixings,
            s.lp_iterations,
            s.solutions_found,
            s.nodes_per_worker.clone(),
        )
    }

    /// A covering instance whose default solve finds incumbents in the
    /// branch-and-bound.
    fn ptlcmos_60() -> Instance {
        PtlCmosParams { gates: 60, ..PtlCmosParams::default() }.generate(0)
    }

    #[test]
    fn deterministic_ls_seeded_solves_reproduce() {
        let instances = [
            PtlCmosParams { gates: 20, ..PtlCmosParams::default() }.generate(0),
            SynthesisParams::default().generate(0),
            ptlcmos_60(),
        ];
        let mut polished = false;
        for (i, inst) in instances.iter().enumerate() {
            for bb_threads in [1, 2] {
                let options = PortfolioOptions {
                    strategy: SolveStrategy::LsSeeded,
                    bsolo: BsoloOptions { deterministic_join: true, ..BsoloOptions::default() },
                    bb_threads,
                    ..PortfolioOptions::default()
                };
                let a = Portfolio::new(options.clone()).solve(inst);
                let b = Portfolio::new(options.clone()).solve(inst);
                let label = format!("instance {i}, bb_threads {bb_threads}");
                assert!(a.is_optimal(), "{label}: {:?}", a.status);
                assert_eq!(a.status, b.status, "{label}: status");
                assert_eq!(a.best_cost, b.best_cost, "{label}: cost");
                assert_eq!(a.best_assignment, b.best_assignment, "{label}: model");
                assert_eq!(counters(&a), counters(&b), "{label}: counters");
                // Steps beyond the seed phase's own are polish walks.
                let seed =
                    Portfolio::new(options).seed_phase(inst, &IncumbentCell::new(), Instant::now());
                polished |= a.stats.ls_steps > seed.stats.steps;
            }
        }
        assert!(polished, "no polish walk ran, so nothing above tested its reproducibility");
    }

    #[test]
    fn branch_and_bound_adopts_its_polish_walk_finds() {
        let mut options = PortfolioOptions::default();
        options.bsolo.trace = true;
        let result = Portfolio::new(options).walk_then_search(
            &ptlcmos_60(),
            &IncumbentCell::new(),
            Instant::now(),
        );
        assert!(result.is_optimal());
        let mut events: Vec<&Event> = result.stats.trace.iter().collect();
        events.sort_by_key(|e| e.t_ns);
        let exact_solution =
            |e: &&Event| e.lane < LS_LANE_BASE && matches!(e.data, TraceEvent::Solution { .. });
        let first = events.iter().position(exact_solution).expect("the B&B found an incumbent");
        // A polish walk's incumbent: on an LS lane, after the seed phase
        // handed over to the branch-and-bound, and adopted there.
        let polished = events[first..].iter().enumerate().find_map(|(i, e)| match e.data {
            TraceEvent::Solution { cost } if e.lane >= LS_LANE_BASE => Some((first + i, cost)),
            _ => None,
        });
        let (at, cost) = polished.expect("a polish walk found an incumbent");
        assert!(
            events[at..].iter().any(|e| e.lane < LS_LANE_BASE
                && matches!(e.data, TraceEvent::Adopt { cost: c } if c <= cost)),
            "the branch-and-bound adopted the polish walk's incumbent of cost {cost}"
        );
    }

    #[test]
    fn exact_strategy_never_polishes() {
        let inst = ptlcmos_60();
        let exact = Portfolio::with_strategy(SolveStrategy::Exact).solve(&inst);
        let mut bsolo = Bsolo::new(BsoloOptions::default()).solve(&inst);
        // The portfolio's exact side reports its one worker's nodes.
        bsolo.stats.nodes_per_worker = vec![bsolo.stats.decisions];
        assert_eq!(exact.stats.ls_steps, 0);
        assert_eq!(exact.best_cost, bsolo.best_cost);
        assert_eq!(counters(&exact), counters(&bsolo));
    }

    /// The default strategy with MIS ends a 500 ms budget on time on the
    /// tall acc optimization instance. While MIS copied the eqs. 11–13
    /// cost cuts into its residual problem, the copy for the walk's
    /// first incumbent polled no deadline, and this solve took 1.75–1.87
    /// s.
    #[test]
    #[ignore = "release-sized: 2,040 variables, 4,776 rows, 0.5 s"]
    fn mis_ends_a_budgeted_solve_on_the_tall_acc_instance_on_time() {
        let acc = AccSchedParams { teams: 16, home_away: true }.generate(0);
        let mut b = InstanceBuilder::with_vars(acc.num_vars());
        for c in acc.constraints() {
            b.add_linear(c.iter().map(|t| (t.coeff, t.lit)), RelOp::Ge, c.rhs());
        }
        let cost = |i: usize| if i.is_multiple_of(3) { 2 } else { -1 };
        b.minimize((0..acc.num_vars()).map(|i| (cost(i), Var::new(i).positive())));
        let inst = b.build().unwrap();
        assert_eq!((inst.num_vars(), inst.num_constraints()), (2_040, 4_776));
        let budget = Duration::from_millis(500);
        let bsolo = BsoloOptions {
            budget: Budget::time_limit(budget),
            ..BsoloOptions::with_lb(LbMethod::Mis)
        };
        let begun = Instant::now();
        Portfolio::new(PortfolioOptions { bsolo, ..PortfolioOptions::default() }).solve(&inst);
        let elapsed = begun.elapsed();
        let limit = budget + Duration::from_millis(400);
        assert!(elapsed <= limit, "overshoot: {elapsed:?} for a {budget:?} budget");
    }

    /// PTL/CMOS gates 90 with its optimum in the cell: plain bounding
    /// cannot close this tree in seconds even from the optimum, and the
    /// racing walker never improves on it, so only a deadline ends the
    /// race.
    fn ptlcmos_90_at_its_optimum() -> (Instance, IncumbentCell, Option<i64>) {
        let inst = PtlCmosParams { gates: 90, ..PtlCmosParams::default() }.generate(0);
        let optimum = Portfolio::default().solve(&inst);
        let cell = IncumbentCell::new();
        cell.offer(optimum.best_cost.unwrap(), optimum.best_assignment.as_ref().unwrap());
        (inst, cell, optimum.best_cost)
    }

    #[test]
    fn caller_deadline_stops_a_race() {
        // The caller's deadline reaches both sides of the race through
        // its token: the branch-and-bound and the walker.
        let (inst, cell, optimum) = ptlcmos_90_at_its_optimum();
        let budget = Duration::from_secs(1);
        let cancel = pbo_core::CancelToken::new();
        cancel.deadline_in(budget);
        let bsolo = BsoloOptions {
            cancel: Some(cancel),
            trace: true,
            ..BsoloOptions::with_lb(LbMethod::None)
        };
        let options = PortfolioOptions { bsolo, ..PortfolioOptions::default() };
        let begun = Instant::now();
        let result = Portfolio::new(options).race(&inst, &cell, begun);
        let elapsed = begun.elapsed();
        assert!(result.stats.cancelled, "the deadline must be reported");
        assert_eq!(result.status, crate::SolveStatus::Feasible);
        assert_eq!(result.best_cost, optimum);
        assert!(elapsed < budget + Duration::from_secs(1), "overshoot: {elapsed:?} for {budget:?}");
        assert!(result.stats.ls_steps > 0, "the walker raced the exact side");
    }

    /// A budget that runs out in a race is reported as budget
    /// exhaustion, not as a cancellation.
    #[test]
    fn budget_ending_a_race_is_not_a_cancellation() {
        let (inst, cell, optimum) = ptlcmos_90_at_its_optimum();
        let budget = Duration::from_millis(300);
        let bsolo = BsoloOptions {
            budget: Budget::time_limit(budget),
            ..BsoloOptions::with_lb(LbMethod::None)
        };
        let options = PortfolioOptions { bsolo, ..PortfolioOptions::default() };
        let begun = Instant::now();
        let result = Portfolio::new(options).race(&inst, &cell, begun);
        let elapsed = begun.elapsed();
        assert_eq!(result.status, crate::SolveStatus::Feasible);
        assert_eq!(result.best_cost, optimum);
        assert!(!result.stats.cancelled, "a budget-derived deadline reported as a cancellation");
        assert_eq!(result.service_status(), crate::ServiceStatus::FeasibleBudget);
        assert!(elapsed < budget + Duration::from_secs(1), "overshoot: {elapsed:?} for {budget:?}");
    }

    #[test]
    fn deterministic_join_reports_when_its_best_was_found() {
        // A cube task publishes its best only at the join, but with the
        // instant it found it: before the cube's own `CubeEnd`, so before
        // the exact side's last event.
        let bsolo =
            BsoloOptions { deterministic_join: true, trace: true, ..BsoloOptions::default() };
        let options = PortfolioOptions { bsolo, bb_threads: 2, ..PortfolioOptions::default() };
        let cell = IncumbentCell::new();
        let start = Instant::now();
        let result = Portfolio::new(options).solve_with_cell(&ptlcmos_60(), &cell);
        assert!(result.is_optimal());
        assert!(result.stats.solutions_found > 0, "the exact side improved on the warm start");
        let last_exact =
            result.stats.trace.iter().filter(|e| e.lane < LS_LANE_BASE).map(|e| e.t_ns);
        let last_exact = last_exact.max().expect("the branch-and-bound was traced");
        let time_to_best = result.stats.time_to_best.as_nanos() as u64;
        assert!(
            time_to_best < last_exact,
            "time to best {time_to_best} ns is not before the last B&B event at {last_exact} ns"
        );
        let history = cell.history_since(start);
        assert_eq!(history.last().map(|&(_, cost)| cost), result.best_cost);
        assert!(history.windows(2).all(|w| w[1].1 < w[0].1), "{history:?}");
    }

    /// A panic escaping the exact side of a race reaches the caller
    /// instead of leaving the scope waiting on the walker, which may stop
    /// only on the flag the exact side's exit raises.
    #[cfg(feature = "failpoints")]
    #[test]
    fn concurrent_exact_side_panic_reaches_the_caller() {
        let _guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("bound.dispatch", 1));
        let (tx, rx) = std::sync::mpsc::channel();
        // Not scoped: a hung solve must fail the test, not hang it too.
        let solver = std::thread::spawn(move || {
            let inst = ptlcmos_60();
            let solve = std::panic::catch_unwind(|| {
                Portfolio::default().race(&inst, &IncumbentCell::new(), Instant::now())
            });
            let _ = tx.send(solve.is_err());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(panicked) => assert!(panicked, "the injected panic must reach the caller"),
            Err(_) => panic!("the race hung after its exact side panicked"),
        }
        solver.join().expect("the solve's panic was caught inside the thread");
    }
}
