//! Solve outcomes and effort statistics shared by all solvers.
//!
//! # Timing semantics
//!
//! `SolverStats` mixes two kinds of wall-clock measurement and the field
//! names make the distinction explicit:
//!
//! * **Wall fields** (`solve_time`, `time_to_best`, `ls_time`) measure
//!   elapsed time on the driver thread. They are *not* summed at join.
//! * **`*_total` fields** (`lb_time_total`, `sub_time_total`,
//!   `queue_wait_total`) are summed across workers by
//!   [`SolverStats::absorb`]; for an N-worker solve they read as CPU
//!   time and may exceed `solve_time` by up to a factor of N.
//!
//! [`SolverStats::utilization`] relates the two: the fraction of total
//! worker-seconds not spent blocked on the cube queue.

use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

use pbo_trace::Event;

use crate::options::LbMethod;

/// Final status of a solve.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// The search finished: the reported solution (if any) is optimal.
    /// For pure satisfaction instances, a satisfying assignment was found.
    Optimal,
    /// The search finished: the constraints are unsatisfiable.
    Infeasible,
    /// The budget ran out with an incumbent solution — the paper's
    /// "`ub` value reported at timeout" rows in Table 1.
    Feasible,
    /// The budget ran out before any solution was found.
    Unknown,
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Optimal => write!(f, "optimal"),
            SolveStatus::Infeasible => write!(f, "infeasible"),
            SolveStatus::Feasible => write!(f, "feasible (budget)"),
            SolveStatus::Unknown => write!(f, "unknown (budget)"),
        }
    }
}

/// Effort counters for one solve.
#[derive(Clone, Default, Debug)]
pub struct SolverStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Conflicts resolved (logic + bound).
    pub conflicts: u64,
    /// Bound conflicts (prunings due to `P.path + P.lower >= P.upper`).
    pub bound_conflicts: u64,
    /// Lower-bound computations performed.
    pub lb_calls: u64,
    /// Literals implied by reduced cost: the LP bound's fixings
    /// ([`pbo_bounds::LbOutcome::fixings`]) the search assigned.
    pub lb_fixings: u64,
    /// The bound method of the solve ([`crate::BsoloOptions::lb_method`]),
    /// recorded once by the solver that builds these stats. Every bound
    /// call of a solve runs it, so `lb_calls`, `lb_time_total` and
    /// `bound_conflicts` are its totals, and `--stats-json` reports them
    /// as its `lb_methods` entry.
    pub lb_method: LbMethod,
    /// Sum over finite lower-bound outcomes of `bound - path_cost` (the
    /// per-node bound margin); divided by `lb_calls` this is the mean
    /// per-node bound strength (reported in `--stats-json`).
    pub lb_margin_sum: u64,
    /// Time spent inside the lower-bound procedure, **summed across
    /// workers** at join (CPU time, not elapsed time, for parallel
    /// solves — may exceed `solve_time`).
    pub lb_time_total: Duration,
    /// Time spent maintaining/building the residual subproblem handed to
    /// the lower-bound procedure (trail sync + view in incremental mode,
    /// the full re-scan in rebuild mode), **summed across workers** at
    /// join like `lb_time_total`.
    pub sub_time_total: Duration,
    /// Total **wall** time of the solve, measured on the driver thread;
    /// never summed at join.
    pub solve_time: Duration,
    /// Wall time from solve start until the final best incumbent was
    /// first recorded (zero when no solution was found) — the anytime
    /// quality metric of the portfolio.
    pub time_to_best: Duration,
    /// Local-search steps of the portfolio: under
    /// [`crate::SolveStrategy::LsSeeded`] the seed phase's plus every
    /// polish walk's (summed across workers at join) when it walks, then
    /// searches, and the racing walker's when it races; zero for every
    /// other solve.
    pub ls_steps: u64,
    /// **Wall** time of the seed phase, from the portfolio's start until
    /// the branch-and-bound started, measured on the driver thread (part
    /// of `solve_time`); zero when no seed phase ran — a racing walker
    /// runs alongside the branch-and-bound and adds none.
    pub ls_time: Duration,
    /// Literal propagations.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Improving solutions found.
    pub solutions_found: u64,
    /// Sum over conflicts of (conflict level − backjump level); a value
    /// well above `conflicts` indicates non-chronological backtracking.
    pub backjump_levels: u64,
    /// Simplex iterations (LPR / MILP only).
    pub lp_iterations: u64,
    /// Branch-and-bound nodes (MILP only).
    pub nodes: u64,
    /// Nodes (decisions) explored by each exact worker of a parallel
    /// solve, merged at join (see [`crate::ParBsolo`]). Empty for plain
    /// sequential solves; a single-element vector equal to
    /// [`SolverStats::decisions`] when a parallel driver ran with one
    /// worker. Under [`crate::BsoloOptions::deterministic_join`] the
    /// cube pool has one worker, so there is one entry.
    pub nodes_per_worker: Vec<u64>,
    /// Dynamic re-splits performed by parallel workers: each takes one
    /// long-running cube and returns the complement cubes of the
    /// worker's current decision prefix to the queue.
    pub resplits: u64,
    /// Times a cube split stopped descending because it hit the maximum
    /// split depth (frontier truncated coarser than requested) — see
    /// [`crate::SplitOutcome::depth_truncated`].
    pub split_depth_truncated: u64,
    /// Time parallel workers spent without a cube to work on, **summed
    /// across workers** at join (the idle-tail metric that dynamic
    /// re-splitting is meant to shrink): the wall time from a worker
    /// asking the cube queue for a cube to receiving one (or to
    /// shutdown), condvar blocks included. Divide by worker count before
    /// comparing against `solve_time`; see [`SolverStats::utilization`].
    pub queue_wait_total: Duration,
    /// Worker threads (B&B or LS) that died mid-solve and were
    /// contained: the solve continued on the survivors. Always 0 unless
    /// a worker panicked (engine bug, injected fault).
    pub workers_lost: u64,
    /// Cubes a dying worker left unexplored (quarantined, not closed).
    /// Any nonzero value forces the final status to degrade from
    /// `Optimal`/`Infeasible` to `Feasible`/`Unknown` — part of the
    /// search space was never visited.
    pub cubes_quarantined: u64,
    /// Whether a cooperative cancellation (deadline or external cancel)
    /// ended the solve before the budget or the search space did.
    pub cancelled: bool,
    /// Telemetry events recorded when tracing was enabled (empty
    /// otherwise). Per-worker buffers are appended here at join by
    /// [`SolverStats::absorb`]; export with [`pbo_trace::write_jsonl`]
    /// or [`pbo_trace::write_chrome`].
    pub trace: Vec<Event>,
}

impl SolverStats {
    /// Folds another worker's counters into this one (the parallel
    /// driver's join step): effort counters are summed — including the
    /// wall-clock effort spent *inside* the bound machinery, which
    /// therefore reads as CPU time, not elapsed time, for parallel
    /// solves — while the wall fields (`solve_time`, `time_to_best`,
    /// `ls_time`) and `lb_method` are left to the driver.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.bound_conflicts += other.bound_conflicts;
        self.lb_calls += other.lb_calls;
        self.lb_fixings += other.lb_fixings;
        self.lb_margin_sum += other.lb_margin_sum;
        self.lb_time_total += other.lb_time_total;
        self.sub_time_total += other.sub_time_total;
        self.ls_steps += other.ls_steps;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.solutions_found += other.solutions_found;
        self.backjump_levels += other.backjump_levels;
        self.lp_iterations += other.lp_iterations;
        self.nodes += other.nodes;
        self.resplits += other.resplits;
        self.split_depth_truncated += other.split_depth_truncated;
        self.queue_wait_total += other.queue_wait_total;
        self.workers_lost += other.workers_lost;
        self.cubes_quarantined += other.cubes_quarantined;
        self.cancelled |= other.cancelled;
        self.trace.extend(other.trace.iter().cloned());
    }

    /// Fraction of total worker-seconds spent doing search rather than
    /// waiting for a cube: `1 - queue_wait_total / (workers *
    /// solve_time)`, clamped to `[0, 1]`, where `workers` is
    /// `nodes_per_worker.len()` (1 for sequential solves). `None` until
    /// `solve_time` has been set by the driver.
    ///
    /// Units: `queue_wait_total` is worker-seconds (CPU-like, summed at
    /// join), `solve_time` is wall seconds — hence the division by
    /// `workers`. The numerator counts *all* time between asking the
    /// cube queue for work and getting it.
    pub fn utilization(&self) -> Option<f64> {
        let wall = self.solve_time.as_secs_f64();
        if wall <= 0.0 {
            return None;
        }
        let workers = self.nodes_per_worker.len().max(1) as f64;
        let busy = 1.0 - self.queue_wait_total.as_secs_f64() / (workers * wall);
        Some(busy.clamp(0.0, 1.0))
    }

    /// Serializes the merged counters as one JSON object — the
    /// machine-readable path behind `pbo-solve --stats-json`. Durations
    /// are emitted in milliseconds with the `_ms` suffix; `*_total`
    /// fields keep their summed-across-workers semantics. The trace
    /// buffer is not included (export it with `--trace`). `steals`,
    /// `clauses_shared` and `clauses_imported` are always 0: the cube
    /// queue has no stealing and workers trade no clauses, and the keys
    /// stay in the schema for existing readers (`pbobench/run.py` reads
    /// them). `lb_methods` has one entry per method (`plain`, `mis`,
    /// `lgr`, `lpr`): [`SolverStats::lb_method`]'s carries `lb_calls`,
    /// `lb_time_total` and `bound_conflicts` as its `calls`,
    /// `time_total_ms` and `prunes`, and the other three read zero.
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"decisions\":{},\"conflicts\":{},\"bound_conflicts\":{},\"lb_calls\":{},\
             \"lb_fixings\":{},\"lb_margin_sum\":{},\"lb_time_total_ms\":{:.3},\"sub_time_total_ms\":{:.3},\
             \"solve_time_ms\":{:.3},\"time_to_best_ms\":{:.3},\"ls_steps\":{},\
             \"ls_time_ms\":{:.3},\"propagations\":{},\
             \"restarts\":{},\"solutions_found\":{},\"backjump_levels\":{},\
             \"lp_iterations\":{},\"nodes\":{},\"resplits\":{},\"clauses_shared\":0,\
             \"clauses_imported\":0,\"split_depth_truncated\":{},\"queue_wait_total_ms\":{:.3},\
             \"steals\":0,\"workers_lost\":{},\"cubes_quarantined\":{},\"cancelled\":{},",
            self.decisions,
            self.conflicts,
            self.bound_conflicts,
            self.lb_calls,
            self.lb_fixings,
            self.lb_margin_sum,
            ms(self.lb_time_total),
            ms(self.sub_time_total),
            ms(self.solve_time),
            ms(self.time_to_best),
            self.ls_steps,
            ms(self.ls_time),
            self.propagations,
            self.restarts,
            self.solutions_found,
            self.backjump_levels,
            self.lp_iterations,
            self.nodes,
            self.resplits,
            self.split_depth_truncated,
            ms(self.queue_wait_total),
            self.workers_lost,
            self.cubes_quarantined,
            self.cancelled,
        );
        s.push_str("\"lb_methods\":{");
        for (i, method) in [LbMethod::None, LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            let (calls, time_total, prunes) = if method == self.lb_method {
                (self.lb_calls, self.lb_time_total, self.bound_conflicts)
            } else {
                (0, Duration::ZERO, 0)
            };
            let _ = write!(
                s,
                "\"{}\":{{\"calls\":{calls},\"time_total_ms\":{:.3},\"prunes\":{prunes}}}",
                method.name(),
                ms(time_total),
            );
        }
        s.push_str("},");
        let _ = write!(
            s,
            "\"utilization\":{},",
            self.utilization().map_or("null".to_string(), |u| format!("{u:.4}"))
        );
        s.push_str("\"nodes_per_worker\":[");
        for (i, n) in self.nodes_per_worker.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{n}");
        }
        s.push_str("]}");
        s
    }
}

/// Result of a solve: status, incumbent and statistics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Final status.
    pub status: SolveStatus,
    /// Cost of the best solution found, if any (0 for satisfaction
    /// instances solved to SAT).
    pub best_cost: Option<i64>,
    /// The best assignment found, if any.
    pub best_assignment: Option<Vec<bool>>,
    /// Effort counters.
    pub stats: SolverStats,
}

/// Machine-readable refinement of [`SolveStatus`] for service callers:
/// *why* the solve ended, not just what it can claim. Derived by
/// [`SolveResult::service_status`] from the status plus the robustness
/// counters, so callers never parse human text.
///
/// The lattice, strongest claim first: `Optimal`/`Infeasible` (search
/// space exhausted), `FeasibleBudget`/`FeasibleDegraded` (verified
/// incumbent, completeness lost to the budget resp. to lost workers),
/// `Cancelled` (caller tore the solve down; incumbent may be present),
/// `Unknown` (nothing provable).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ServiceStatus {
    /// Search space exhausted; the reported solution is optimal.
    Optimal,
    /// Search space exhausted; no solution exists.
    Infeasible,
    /// Verified incumbent in hand; the budget ran out before the
    /// optimality proof finished.
    FeasibleBudget,
    /// Verified incumbent in hand; completeness was lost because part
    /// of the search space was quarantined by a dying worker.
    FeasibleDegraded,
    /// A cooperative cancellation ended the solve (check
    /// [`SolveResult::best_cost`] for an incumbent).
    Cancelled,
    /// The solve ended with neither a solution nor an infeasibility
    /// proof.
    Unknown,
}

impl ServiceStatus {
    /// Stable lower-snake-case name (the `status` field of
    /// `--stats-json`).
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceStatus::Optimal => "optimal",
            ServiceStatus::Infeasible => "infeasible",
            ServiceStatus::FeasibleBudget => "feasible_budget",
            ServiceStatus::FeasibleDegraded => "feasible_degraded",
            ServiceStatus::Cancelled => "cancelled",
            ServiceStatus::Unknown => "unknown",
        }
    }
}

impl fmt::Display for ServiceStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl SolveResult {
    /// Returns `true` if the result proves optimality (or SAT for pure
    /// satisfaction problems).
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Whether the result was degraded by lost workers or quarantined
    /// cubes: the answer is still sound and verified, but weaker than a
    /// fault-free run would have produced.
    pub fn degraded(&self) -> bool {
        self.stats.workers_lost > 0 || self.stats.cubes_quarantined > 0
    }

    /// The service-facing status (see [`ServiceStatus`]). `Optimal` and
    /// `Infeasible` are complete proofs and win outright — a
    /// cancellation or fault that raced a finished proof does not weaken
    /// it. Incomplete outcomes attribute the incompleteness:
    /// cancellation first (the caller asked), then quarantine
    /// degradation, then the plain budget.
    pub fn service_status(&self) -> ServiceStatus {
        match self.status {
            SolveStatus::Optimal => ServiceStatus::Optimal,
            SolveStatus::Infeasible => ServiceStatus::Infeasible,
            SolveStatus::Feasible => {
                if self.stats.cancelled {
                    ServiceStatus::Cancelled
                } else if self.stats.cubes_quarantined > 0 {
                    ServiceStatus::FeasibleDegraded
                } else {
                    ServiceStatus::FeasibleBudget
                }
            }
            SolveStatus::Unknown => {
                if self.stats.cancelled {
                    ServiceStatus::Cancelled
                } else {
                    ServiceStatus::Unknown
                }
            }
        }
    }

    /// Formats the solve outcome the way Table 1 of the paper does:
    /// the time when solved, or `ub <value>` when the budget ran out with
    /// an incumbent.
    pub fn table_cell(&self) -> String {
        match self.status {
            SolveStatus::Optimal => format!("{:.2}", self.stats.solve_time.as_secs_f64()),
            SolveStatus::Infeasible => "UNSAT".to_string(),
            SolveStatus::Feasible => format!("ub {}", self.best_cost.unwrap_or(0)),
            SolveStatus::Unknown => "time".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cell_formats() {
        let mut r = SolveResult {
            status: SolveStatus::Optimal,
            best_cost: Some(5),
            best_assignment: None,
            stats: SolverStats::default(),
        };
        r.stats.solve_time = Duration::from_millis(1500);
        assert_eq!(r.table_cell(), "1.50");
        r.status = SolveStatus::Feasible;
        assert_eq!(r.table_cell(), "ub 5");
        r.status = SolveStatus::Unknown;
        assert_eq!(r.table_cell(), "time");
        r.status = SolveStatus::Infeasible;
        assert_eq!(r.table_cell(), "UNSAT");
    }

    #[test]
    fn absorb_sums_the_fixings_and_json_reports_them() {
        let mut total = SolverStats { lb_fixings: 3, ..SolverStats::default() };
        total.absorb(&SolverStats { lb_fixings: 4, ..SolverStats::default() });
        assert_eq!(total.lb_fixings, 7);
        assert!(total.to_json().contains("\"lb_fixings\":7,"), "{}", total.to_json());
    }

    #[test]
    fn json_charges_the_bound_totals_to_the_solve_method() {
        let stats = SolverStats {
            lb_method: LbMethod::Mis,
            lb_calls: 5,
            lb_time_total: Duration::from_millis(2),
            bound_conflicts: 3,
            ..SolverStats::default()
        };
        let zero = r#"{"calls":0,"time_total_ms":0.000,"prunes":0}"#;
        let own = r#"{"calls":5,"time_total_ms":2.000,"prunes":3}"#;
        let want =
            format!(r#""lb_methods":{{"plain":{zero},"mis":{own},"lgr":{zero},"lpr":{zero}}},"#);
        assert!(stats.to_json().contains(&want), "{}", stats.to_json());
    }

    #[test]
    fn status_display_nonempty() {
        for s in [
            SolveStatus::Optimal,
            SolveStatus::Infeasible,
            SolveStatus::Feasible,
            SolveStatus::Unknown,
        ] {
            assert!(!format!("{s}").is_empty());
        }
    }
}
