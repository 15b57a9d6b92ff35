//! Solver configuration: lower-bound method, cuts, budgets.

use std::time::Duration;

/// Which lower-bound estimation procedure bsolo uses (Table 1 columns).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LbMethod {
    /// No estimation: prune on path cost only ("plain").
    None,
    /// Greedy maximum independent set of constraints ("MIS").
    Mis,
    /// Lagrangian relaxation by subgradient ascent ("LGR").
    Lagrangian,
    /// Linear-programming relaxation by dual simplex ("LPR").
    #[default]
    Lpr,
}

impl LbMethod {
    /// Short name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            LbMethod::None => "plain",
            LbMethod::Mis => "mis",
            LbMethod::Lagrangian => "lgr",
            LbMethod::Lpr => "lpr",
        }
    }
}

/// How the portfolio driver combines the stochastic local search with
/// the exact branch-and-bound (see [`crate::Portfolio`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SolveStrategy {
    /// Branch-and-bound only — the paper's solver, no local search.
    Exact,
    /// Local search and branch-and-bound in one of two orders. On an
    /// optimization instance, when the process has a second core and
    /// [`BsoloOptions::deterministic_join`] is off, they *race*: one
    /// walker runs on its own thread beside the branch-and-bound for the
    /// whole solve, incumbents flowing both ways through the shared
    /// cell; timing dependent, and nothing is polished (the racing
    /// walker re-seeds from the B&B's incumbents). Otherwise the solve
    /// *walks, then searches*: local search runs first until two
    /// 8,192-step chunks in a row bring no new verified incumbent, its
    /// best seeds the upper bound (and the eq. 10 cuts) of the
    /// branch-and-bound, and every improving solution the
    /// branch-and-bound then records on an optimization instance is
    /// polished by a 2,048-step walk from it, whose cheaper find the
    /// search adopts; deterministic given a deterministic LS budget. A
    /// decision instance always walks first and ends at the first
    /// verified model. The default of every front door (`pbo::solve`,
    /// `pbo-solve`).
    #[default]
    LsSeeded,
}

impl SolveStrategy {
    /// Short name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            SolveStrategy::Exact => "exact",
            SolveStrategy::LsSeeded => "ls-seeded",
        }
    }
}

/// Resource budget for a solve. All limits are optional; an empty budget
/// runs to completion.
#[derive(Copy, Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock limit.
    pub time: Option<Duration>,
    /// Conflict limit.
    pub conflicts: Option<u64>,
    /// Decision limit.
    pub decisions: Option<u64>,
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Wall-clock limit only.
    pub fn time_limit(d: Duration) -> Budget {
        Budget { time: Some(d), ..Budget::default() }
    }

    /// Conflict limit only (deterministic budget for tests/benches).
    pub fn conflict_limit(n: u64) -> Budget {
        Budget { conflicts: Some(n), ..Budget::default() }
    }

    /// Returns `true` if any limit is exhausted.
    pub fn exhausted(&self, elapsed: Duration, conflicts: u64, decisions: u64) -> bool {
        if let Some(t) = self.time {
            if elapsed >= t {
                return true;
            }
        }
        if let Some(c) = self.conflicts {
            if conflicts >= c {
                return true;
            }
        }
        if let Some(d) = self.decisions {
            if decisions >= d {
                return true;
            }
        }
        false
    }
}

/// Configuration of the bsolo branch-and-bound solver.
#[derive(Clone, Debug)]
pub struct BsoloOptions {
    /// Lower-bound procedure (sec. 3). It also picks the branching
    /// heuristic (sec. 5): LP-guided under [`LbMethod::Lpr`], whose
    /// relaxation supplies the fractional solution, VSIDS otherwise.
    pub lb_method: LbMethod,
    /// Infer cost cuts from cardinality constraints (eqs. 11–13) on each
    /// improved solution, next to the knapsack cut
    /// `sum c_j x_j <= upper - 1` of eq. 10 that is always added. It
    /// acts under MIS, LGR and plain. Under [`LbMethod::Lpr`] the LP's
    /// reduced-cost fixings take the rows' place, so the option has no
    /// effect there, as LP-guided branching follows the bound.
    pub cardinality_cuts: bool,
    /// Probe variables during preprocessing to detect necessary
    /// assignments (sec. 5 / Savelsbergh-style).
    pub probing: bool,
    /// Luby restart base interval in conflicts (`None` disables
    /// restarts). A restart backjumps to the root and keeps the learned
    /// clauses.
    pub restart_base: Option<u64>,
    /// A parallel worker that has spent this many conflicts on one cube
    /// re-splits its remaining subtree, whatever the cube queue holds:
    /// the complement cubes of its current decision prefix go back to
    /// the queue and the worker continues on the deepened cube, keeping
    /// the frontier self-balancing. The schedule counts conflicts only,
    /// with or without [`BsoloOptions::deterministic_join`]; a cube
    /// deeper than a fixed cap is no longer re-split. 0 acts as 1.
    pub resplit_conflicts: u64,
    /// Deterministic parallel mode: the cube pool runs with one worker.
    /// The head start runs and the root is split into as many cubes as
    /// the racing mode would start from; then one thread takes the
    /// cubes in FIFO order, re-splits on the conflict schedule the
    /// racing mode uses and shares the caller's incumbent cell. With one
    /// writer of that cell and no timing in the schedule, a parallel
    /// run's status, cost, model and counters are a pure function of
    /// instance and options, as long as the solve ends within its budget
    /// and no other thread writes the caller's cell while it runs. The
    /// pool then uses one core, whatever the worker count; intended for
    /// parity suites and debugging.
    /// Under it the portfolio's walker also never races the search:
    /// [`SolveStrategy::LsSeeded`] walks, then searches, on any number
    /// of cores.
    pub deterministic_join: bool,
    /// Record structured telemetry events (decisions, conflicts, bound
    /// calls, incumbents, cube lifecycle) into per-worker buffers merged
    /// into [`crate::SolverStats::trace`] at join. Off by default: the
    /// disabled emission path is a single branch per site and
    /// allocation-free (see `pbo-trace`).
    pub trace: bool,
    /// Resource budget.
    pub budget: Budget,
    /// Cooperative cancellation token. When set, the solver threads it
    /// into every long-running layer — the engine's propagation loop,
    /// the LP relaxation's pivot loop, local-search steps and the
    /// parallel cube queue — so a cancel (external or deadline) tears
    /// the solve down in bounded time with the best verified incumbent
    /// intact and `SolverStats::cancelled` set. A token without a
    /// deadline of its own gets [`Budget::time`]'s through a child token
    /// the solve runs under, so the token itself leaves the solve
    /// unchanged and can be reused.
    /// `None` keeps the seed behaviour: the budget is only checked
    /// between search-loop iterations, which an expensive LP solve can
    /// overshoot.
    pub cancel: Option<pbo_core::CancelToken>,
}

impl Default for BsoloOptions {
    fn default() -> BsoloOptions {
        BsoloOptions {
            lb_method: LbMethod::Lpr,
            cardinality_cuts: true,
            probing: true,
            restart_base: Some(2048),
            resplit_conflicts: 256,
            deterministic_join: false,
            trace: false,
            budget: Budget::unlimited(),
            cancel: None,
        }
    }
}

impl BsoloOptions {
    /// The configuration matching one Table 1 column.
    pub fn with_lb(lb_method: LbMethod) -> BsoloOptions {
        BsoloOptions { lb_method, ..BsoloOptions::default() }
    }

    /// Builder-style budget override.
    pub fn budget(mut self, budget: Budget) -> BsoloOptions {
        self.budget = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_exhaustion() {
        let b = Budget::conflict_limit(10);
        assert!(!b.exhausted(Duration::ZERO, 9, 100));
        assert!(b.exhausted(Duration::ZERO, 10, 0));
        let t = Budget::time_limit(Duration::from_millis(5));
        assert!(t.exhausted(Duration::from_millis(5), 0, 0));
        assert!(!Budget::unlimited().exhausted(Duration::from_secs(3600), u64::MAX - 1, 1));
    }

    /// Branching follows the bound (LP-guided exactly under LPR), so
    /// `with_lb` sets the bound and leaves every other field at its
    /// default: no second knob needs pairing with it.
    #[test]
    fn with_lb_pairs_branching() {
        let default = format!("{:?}", BsoloOptions::default());
        for method in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
            let options = BsoloOptions::with_lb(method);
            assert_eq!(options.lb_method, method);
            let rest = BsoloOptions { lb_method: LbMethod::Lpr, ..options };
            assert_eq!(format!("{rest:?}"), default, "{method:?}");
        }
    }

    #[test]
    fn lb_names() {
        assert_eq!(LbMethod::None.name(), "plain");
        assert_eq!(LbMethod::Lpr.name(), "lpr");
    }

    #[test]
    fn strategy_names_and_default() {
        assert_eq!(SolveStrategy::default(), SolveStrategy::LsSeeded);
        assert_eq!(SolveStrategy::Exact.name(), "exact");
        assert_eq!(SolveStrategy::LsSeeded.name(), "ls-seeded");
    }
}
