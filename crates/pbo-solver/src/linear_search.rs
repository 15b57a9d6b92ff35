//! SAT-based linear search on the cost function — the algorithm class of
//! PBS (Aloul et al.) and Galena (Chai & Kuehlmann) that the paper
//! compares against (sec. 3).
//!
//! The solver repeatedly runs a CDCL search for *any* solution; each
//! solution of cost `c` adds the constraint `cost <= c - 1` and the
//! search continues until unsatisfiability, which proves the last
//! solution optimal. There is **no lower bounding**: this is exactly the
//! behaviour whose weakness on cost-dominated instances Table 1
//! demonstrates.
//!
//! Two presets reproduce the two baseline columns:
//!
//! * [`LinearSearch::pbs_like`] — plain linear search with clause
//!   learning and Luby restarts;
//! * [`LinearSearch::galena_like`] — additionally probes during
//!   preprocessing and adds the cardinality cost cuts (eqs. 11–13) after
//!   each solution, standing in for Galena's stronger (cutting-plane
//!   flavoured) pseudo-Boolean reasoning.

use std::time::Instant;

use pbo_core::Instance;
use pbo_engine::{Engine, LubyRestarts, Resolution};

use crate::cuts::CostCuts;
use crate::options::Budget;
use crate::preprocess::{probe, ProbeOutcome};
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// Configuration of the linear-search solver.
#[derive(Clone, Debug)]
pub struct LinearSearchOptions {
    /// Probing preprocessing.
    pub probing: bool,
    /// Add eqs. 11–13 cost cuts after each improving solution.
    pub cardinality_cuts: bool,
    /// Luby restart base interval in conflicts (`None` disables).
    pub restart_base: Option<u64>,
    /// Reduce the learned-clause database when it exceeds this many
    /// clauses.
    pub reduce_db_threshold: usize,
    /// Resource budget.
    pub budget: Budget,
}

impl Default for LinearSearchOptions {
    fn default() -> LinearSearchOptions {
        LinearSearchOptions {
            probing: false,
            cardinality_cuts: false,
            restart_base: Some(100),
            reduce_db_threshold: 4_000,
            budget: Budget::unlimited(),
        }
    }
}

/// Linear-search PBO solver (no lower bounding).
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_solver::{Budget, LinearSearch};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(2);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.minimize([(2, v[0].positive()), (1, v[1].positive())]);
/// let inst = b.build()?;
/// let result = LinearSearch::pbs_like(Budget::unlimited()).solve(&inst);
/// assert!(result.is_optimal());
/// assert_eq!(result.best_cost, Some(1));
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LinearSearch {
    options: LinearSearchOptions,
}

impl LinearSearch {
    /// Creates a solver with explicit options.
    pub fn new(options: LinearSearchOptions) -> LinearSearch {
        LinearSearch { options }
    }

    /// The PBS-like preset: plain SAT linear search.
    pub fn pbs_like(budget: Budget) -> LinearSearch {
        LinearSearch::new(LinearSearchOptions { budget, ..LinearSearchOptions::default() })
    }

    /// The Galena-like preset: linear search with probing and
    /// cardinality cost cuts.
    pub fn galena_like(budget: Budget) -> LinearSearch {
        LinearSearch::new(LinearSearchOptions {
            probing: true,
            cardinality_cuts: true,
            budget,
            ..LinearSearchOptions::default()
        })
    }

    /// The active configuration.
    pub fn options(&self) -> &LinearSearchOptions {
        &self.options
    }

    /// Solves `instance` by linear search on the cost function.
    pub fn solve(&self, instance: &Instance) -> SolveResult {
        let start = Instant::now();
        let mut stats = SolverStats::default();
        let finish = |status: SolveStatus,
                      best: Option<(i64, Vec<bool>)>,
                      mut stats: SolverStats,
                      engine: Option<&Engine>| {
            if let Some(e) = engine {
                stats.decisions = e.stats.decisions;
                stats.conflicts = e.stats.conflicts;
                stats.propagations = e.stats.propagations;
                stats.restarts = e.stats.restarts;
                stats.backjump_levels = e.stats.backjump_levels;
            }
            stats.solve_time = start.elapsed();
            let (best_cost, best_assignment) = match best {
                Some((c, a)) => (Some(c), Some(a)),
                None => (None, None),
            };
            SolveResult { status, best_cost, best_assignment, stats }
        };

        let mut engine = Engine::new(instance.num_vars());
        for c in instance.constraints() {
            if engine.add_constraint(c).is_err() {
                return finish(SolveStatus::Infeasible, None, stats, Some(&engine));
            }
        }
        if self.options.probing {
            match probe(instance, &mut engine) {
                ProbeOutcome::Infeasible => {
                    return finish(SolveStatus::Infeasible, None, stats, Some(&engine))
                }
                ProbeOutcome::Done { .. } => {}
            }
        }

        let mut best: Option<(i64, Vec<bool>)> = None;
        let mut restarts = self.options.restart_base.map(LubyRestarts::new);
        let mut conflicts_until_restart = restarts.as_mut().and_then(|r| r.next());
        let mut conflicts_at_last_restart = 0u64;
        // The cost cuts are the tail of the PB store; each improvement
        // deletes the superseded ones back to this mark.
        let cut_base = engine.num_pbs();
        let cost_cuts = CostCuts::new(instance);

        loop {
            if self.options.budget.exhausted(
                start.elapsed(),
                engine.stats.conflicts,
                engine.stats.decisions,
            ) {
                let status =
                    if best.is_some() { SolveStatus::Feasible } else { SolveStatus::Unknown };
                return finish(status, best, stats, Some(&engine));
            }
            if let Some(conflict) = engine.propagate() {
                match engine.resolve_conflict(conflict) {
                    Resolution::Unsat => {
                        let status = if best.is_some() {
                            SolveStatus::Optimal
                        } else {
                            SolveStatus::Infeasible
                        };
                        return finish(status, best, stats, Some(&engine));
                    }
                    Resolution::Backjumped { .. } => {
                        if let Some(limit) = conflicts_until_restart {
                            if engine.stats.conflicts - conflicts_at_last_restart >= limit {
                                engine.restart();
                                conflicts_at_last_restart = engine.stats.conflicts;
                                conflicts_until_restart = restarts.as_mut().and_then(|r| r.next());
                            }
                        }
                        if engine.num_learnts() > self.options.reduce_db_threshold {
                            engine.reduce_learnts();
                        }
                        continue;
                    }
                }
            }
            if engine.assignment().is_complete() {
                let model = engine.model();
                debug_assert!(instance.is_feasible(&model));
                let cost = instance.cost_of(&model);
                let improved = best.as_ref().is_none_or(|(b, _)| cost < *b);
                if improved {
                    best = Some((cost, model));
                    stats.solutions_found += 1;
                }
                if !instance.is_optimization() {
                    return finish(SolveStatus::Optimal, best, stats, Some(&engine));
                }
                // Tighten the cost bound (the linear-search step) and
                // restart the SAT search.
                engine.backjump_to(0);
                engine.truncate_pbs(cut_base);
                let upper = best.as_ref().map(|(c, _)| *c).unwrap_or(0);
                let Some(cut) = cost_cuts.knapsack(upper) else {
                    return finish(SolveStatus::Optimal, best, stats, Some(&engine));
                };
                let cardinality = if self.options.cardinality_cuts {
                    cost_cuts.cardinality(upper)
                } else {
                    Vec::new()
                };
                for c in std::iter::once(&cut).chain(&cardinality) {
                    if engine.add_pb_cut(c).is_err() {
                        return finish(SolveStatus::Optimal, best, stats, Some(&engine));
                    }
                }
                continue;
            }
            // Decide by VSIDS with saved phase.
            if let Some(var) = engine.pick_branch_var() {
                engine.decide(var.lit(engine.phase_of(var)));
            }
        }
    }
}
