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

/// Luby restart base interval in conflicts, the same in both presets.
const RESTART_BASE: u64 = 100;

/// The learned-clause database is reduced when it holds more clauses
/// than this, in both presets.
const REDUCE_DB_THRESHOLD: usize = 4_000;

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
    /// The Galena-like preset: probing and the eqs. 11–13 cost cuts.
    galena: bool,
    budget: Budget,
}

impl LinearSearch {
    /// The PBS-like preset: plain SAT linear search.
    pub fn pbs_like(budget: Budget) -> LinearSearch {
        LinearSearch { galena: false, budget }
    }

    /// The Galena-like preset: linear search with probing and
    /// cardinality cost cuts.
    pub fn galena_like(budget: Budget) -> LinearSearch {
        LinearSearch { galena: true, budget }
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
        if self.galena {
            match probe(instance, &mut engine) {
                ProbeOutcome::Infeasible => {
                    return finish(SolveStatus::Infeasible, None, stats, Some(&engine))
                }
                ProbeOutcome::Done { .. } => {}
            }
        }

        let mut best: Option<(i64, Vec<bool>)> = None;
        let mut restarts = LubyRestarts::new(RESTART_BASE);
        let mut conflicts_until_restart = restarts.next().expect("luby sequence is infinite");
        let mut conflicts_at_last_restart = 0u64;
        // The cost cuts are the tail of the PB store; each improvement
        // tightens or replaces the superseded ones.
        let mut cost_cuts = CostCuts::new(instance, self.galena);

        loop {
            if self.budget.exhausted(
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
                        if engine.stats.conflicts - conflicts_at_last_restart
                            >= conflicts_until_restart
                        {
                            engine.restart();
                            conflicts_at_last_restart = engine.stats.conflicts;
                            conflicts_until_restart =
                                restarts.next().expect("luby sequence is infinite");
                        }
                        if engine.num_learnts() > REDUCE_DB_THRESHOLD {
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
                let upper = best.as_ref().map(|(c, _)| *c).unwrap_or(0);
                if cost_cuts.knapsack(upper).is_none()
                    || cost_cuts.install(&mut engine, upper).is_err()
                {
                    return finish(SolveStatus::Optimal, best, stats, Some(&engine));
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
