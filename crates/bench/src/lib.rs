//! Benchmark harness reproducing the DATE'05 evaluation.
//!
//! The paper's single table (Table 1) compares seven solver columns —
//! PBS, Galena, CPLEX, and bsolo with four lower-bound configurations —
//! over four benchmark families; this reproduction adds a column for the
//! LS-seeded portfolio (anytime) mode. This crate provides:
//!
//! * [`SolverKind`] — the eight columns, each mapped to the workspace
//!   solver that reproduces its algorithm class;
//! * [`family_instances`] — the four families, regenerated synthetically
//!   (see `pbo_benchgen`) with ten seeded instances each;
//! * [`run_table`] / [`format_table`] — the matrix runner and the
//!   paper-style textual table (times for solved instances, `ub <v>` at
//!   budget exhaustion, a `#Solved` summary row).
//!
//! The `table1` binary drives everything and writes one [`json::Report`];
//! `bench_compare` checks it against [`gates`] and baseline snapshots:
//!
//! ```text
//! cargo run --release -p pbo-bench --bin table1 -- --family all --timeout-ms 5000
//! cargo run --release -p pbo-bench --bin bench_compare -- <baseline.json>... BENCH_table1.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use std::time::Instant;

use pbo_benchgen::{AccSchedParams, GroutParams, PtlCmosParams, SynthesisParams};
use pbo_core::Instance;
use pbo_solver::{
    Bsolo, BsoloOptions, Budget, IncumbentCell, LbMethod, LinearSearch, LocalSearch, LsOptions,
    MilpSolver, Portfolio, PortfolioOptions, SolveResult, SolveStatus, SolveStrategy,
};

pub mod compare;
pub mod gates;
pub mod json;
pub mod parse;

pub use json::{
    summarize_par_bb, summarize_portfolio, ParBbProbe, ParBbRun, PortfolioProbe, Report,
};

/// One column of Table 1.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolverKind {
    /// PBS-like SAT linear search.
    Pbs,
    /// Galena-like SAT linear search (probing + cardinality cost cuts).
    Galena,
    /// Generic MILP branch-and-bound (the CPLEX stand-in).
    Cplex,
    /// bsolo without lower bounding ("plain").
    BsoloPlain,
    /// bsolo with the MIS bound.
    BsoloMis,
    /// bsolo with the Lagrangian bound.
    BsoloLgr,
    /// bsolo with the LP-relaxation bound.
    BsoloLpr,
    /// The default portfolio: `pbo-ls` local search races bsolo-LPR on a
    /// second core, or warm-starts its upper bound on one (the anytime
    /// configuration).
    BsoloPortfolio,
}

impl SolverKind {
    /// All eight columns: the paper's seven plus the portfolio mode.
    pub const ALL: [SolverKind; 8] = [
        SolverKind::Pbs,
        SolverKind::Galena,
        SolverKind::Cplex,
        SolverKind::BsoloPlain,
        SolverKind::BsoloMis,
        SolverKind::BsoloLgr,
        SolverKind::BsoloLpr,
        SolverKind::BsoloPortfolio,
    ];

    /// Column header.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Pbs => "pbs",
            SolverKind::Galena => "galena",
            SolverKind::Cplex => "cplex",
            SolverKind::BsoloPlain => "plain",
            SolverKind::BsoloMis => "MIS",
            SolverKind::BsoloLgr => "LGR",
            SolverKind::BsoloLpr => "LPR",
            SolverKind::BsoloPortfolio => "portfolio",
        }
    }

    /// Runs this solver on an instance under a budget.
    pub fn run(self, instance: &Instance, budget: Budget) -> SolveResult {
        match self {
            SolverKind::Pbs => LinearSearch::pbs_like(budget).solve(instance),
            SolverKind::Galena => LinearSearch::galena_like(budget).solve(instance),
            SolverKind::Cplex => MilpSolver::new(budget).solve(instance),
            SolverKind::BsoloPlain => {
                Bsolo::new(BsoloOptions::with_lb(LbMethod::None).budget(budget)).solve(instance)
            }
            SolverKind::BsoloMis => {
                Bsolo::new(BsoloOptions::with_lb(LbMethod::Mis).budget(budget)).solve(instance)
            }
            SolverKind::BsoloLgr => {
                Bsolo::new(BsoloOptions::with_lb(LbMethod::Lagrangian).budget(budget))
                    .solve(instance)
            }
            SolverKind::BsoloLpr => {
                Bsolo::new(BsoloOptions::with_lb(LbMethod::Lpr).budget(budget)).solve(instance)
            }
            SolverKind::BsoloPortfolio => Portfolio::new(portfolio_options(budget)).solve(instance),
        }
    }
}

/// The portfolio configuration used by the benchmark columns and probes:
/// the default strategy over bsolo-LPR. On a machine with a second core
/// it races one walker against the branch-and-bound on these
/// optimization instances, so the warm node count depends on timing and
/// on the machine. Pinned to one core it walks, then searches, with a
/// deterministic LS step budget: the explicit LS time limit keeps that
/// seed phase step-bounded on moderately slow machines instead of
/// letting the budget/5 wall-clock cap truncate it, so the seed
/// incumbent and the warm node count are machine-independent there. The
/// limit never exceeds the table's own per-instance budget, so the
/// portfolio column remains comparable to the other seven.
pub fn portfolio_options(budget: Budget) -> PortfolioOptions {
    let ls_cap = budget.time.map_or(Duration::from_secs(10), |t| t.min(Duration::from_secs(10)));
    PortfolioOptions {
        strategy: SolveStrategy::LsSeeded,
        bsolo: BsoloOptions::with_lb(LbMethod::Lpr).budget(budget),
        ls: LsOptions { max_steps: 50_000, time_limit: Some(ls_cap), ..LsOptions::default() },
        ..PortfolioOptions::default()
    }
}

/// The benchmark families of Table 1.
pub const FAMILIES: [&str; 4] = ["grout", "ptlcmos", "synthesis", "acc"];

/// Generates the instances of one family (`seeds` instances).
///
/// # Panics
///
/// Panics on an unknown family name.
pub fn family_instances(family: &str, seeds: u64) -> Vec<Instance> {
    match family {
        "grout" => (0..seeds)
            .map(|s| {
                GroutParams {
                    width: 6,
                    height: 6,
                    nets: 22,
                    paths_per_net: 6,
                    capacity: 3,
                    bend_penalty: 2,
                }
                .generate(s)
            })
            .collect(),
        "ptlcmos" => (0..seeds)
            .map(|s| {
                PtlCmosParams { gates: 90, fanin: 2.2, ..PtlCmosParams::default() }.generate(s)
            })
            .collect(),
        "synthesis" => (0..seeds)
            .map(|s| {
                SynthesisParams {
                    primes: 70,
                    minterms: 110,
                    cover_density: 4.0,
                    exclusions: 10,
                    ..SynthesisParams::default()
                }
                .generate(s)
            })
            .collect(),
        "acc" => {
            (0..seeds).map(|s| AccSchedParams { teams: 10, home_away: true }.generate(s)).collect()
        }
        other => panic!("unknown family `{other}`"),
    }
}

/// One row of the reproduced table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Instance name.
    pub instance: String,
    /// Results per solver, in [`SolverKind::ALL`] order.
    pub cells: Vec<SolveResult>,
}

/// Runs the full solver matrix over a set of instances.
pub fn run_table(instances: &[Instance], budget: Budget) -> Vec<Row> {
    instances
        .iter()
        .map(|inst| Row {
            instance: inst.name().to_string(),
            cells: SolverKind::ALL.iter().map(|s| s.run(inst, budget)).collect(),
        })
        .collect()
}

/// Number of instances each solver solved to completion.
pub fn count_solved(rows: &[Row]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for (i, kind) in SolverKind::ALL.iter().enumerate() {
        let solved = rows
            .iter()
            .filter(|r| {
                matches!(
                    r.cells[i].status,
                    pbo_solver::SolveStatus::Optimal | pbo_solver::SolveStatus::Infeasible
                )
            })
            .count();
        counts.insert(kind.name(), solved);
    }
    counts
}

/// Formats rows the way the paper's Table 1 does.
pub fn format_table(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<24} {:>8}", "Benchmark", "Sol.");
    for kind in SolverKind::ALL {
        let _ = write!(out, " {:>12}", kind.name());
    }
    let _ = writeln!(out);
    for row in rows {
        // Best known cost across solvers as the "Sol." column.
        let best = row.cells.iter().filter(|c| c.is_optimal()).filter_map(|c| c.best_cost).min();
        let sol = match best {
            Some(v) => v.to_string(),
            None => {
                if row.cells.iter().any(|c| c.status == pbo_solver::SolveStatus::Infeasible) {
                    "UNSAT".to_string()
                } else {
                    "-".to_string()
                }
            }
        };
        let _ = write!(out, "{:<24} {:>8}", row.instance, sol);
        for cell in &row.cells {
            let _ = write!(out, " {:>12}", cell.table_cell());
        }
        let _ = writeln!(out);
    }
    // #Solved summary row.
    let counts = count_solved(rows);
    let _ = write!(out, "{:<24} {:>8}", "#Solved", rows.len());
    for kind in SolverKind::ALL {
        let _ = write!(out, " {:>12}", counts[kind.name()]);
    }
    let _ = writeln!(out);
    out
}

/// Convenience: time-limited budget in milliseconds.
pub fn budget_ms(ms: u64) -> Budget {
    Budget::time_limit(Duration::from_millis(ms))
}

/// Runs the portfolio probe on Table-1-style synthesis instances: for
/// each instance, (1) cold bsolo-LPR as the baseline, (2) the LS-seeded
/// portfolio with its incumbent trajectory, (3) LS alone under
/// `ls_steps`, measuring time-to-target, node counts and the LS
/// optimality gap — the numbers behind the anytime-solving claims in
/// `BENCH_table1.json` and the CI gates.
pub fn run_portfolio_probe(
    instances: &[Instance],
    budget: Budget,
    ls_steps: u64,
) -> Vec<PortfolioProbe> {
    instances
        .iter()
        .map(|inst| {
            // Cold baseline: no warm start.
            let exact = Bsolo::new(BsoloOptions::with_lb(LbMethod::Lpr).budget(budget)).solve(inst);
            let target_cost = exact.best_cost;
            // Warm side: LS-seeded portfolio, trajectory observed through
            // a caller-owned cell.
            let cell = IncumbentCell::new();
            let start = Instant::now();
            let warm = Portfolio::new(portfolio_options(budget)).solve_with_cell(inst, &cell);
            let anytime = cell.history_since(start);
            let warm_time_to_target =
                target_cost.and_then(|t| anytime.iter().find(|&&(_, c)| c <= t).map(|&(d, _)| d));
            // LS alone, for the quality gate.
            let ls_start = Instant::now();
            let ls =
                LocalSearch::new(inst, LsOptions { max_steps: ls_steps, ..LsOptions::default() })
                    .run(None, None);
            let ls_time = ls_start.elapsed();
            let ls_gap = match (ls.best_cost, target_cost) {
                (Some(l), Some(t)) if t > 0 => Some((l - t) as f64 / t as f64),
                (Some(l), Some(t)) => Some(if l <= t { 0.0 } else { f64::INFINITY }),
                _ => None,
            };
            PortfolioProbe {
                instance: inst.name().to_string(),
                target_cost,
                exact_optimal: exact.status == SolveStatus::Optimal,
                exact_time: exact.stats.solve_time,
                exact_nodes: exact.stats.decisions,
                warm_time_to_target,
                warm_time: warm.stats.solve_time,
                warm_nodes: warm.stats.decisions,
                warm_cost: warm.best_cost,
                ls_cost: ls.best_cost,
                ls_time,
                ls_gap,
                anytime,
            }
        })
        .collect()
}

/// Runs of each (instance, worker count) pair of the par_bb probe, the
/// 1-worker baseline included. The gates read each pair's medians: on a
/// 2-core machine a scheduling hiccup of 50 ms is a third of an 8-worker
/// run, and one such run out of five moves no median.
const PAR_BB_REPEATS: usize = 5;

/// Runs the parallel-exact (par_bb) scaling probe: the whole `pool` is
/// first solved by the sequential solver ([`pbo_solver::ParBsolo`] with
/// one worker — bit-identical to `Bsolo` by delegation), the `keep`
/// hardest instances (largest sequential trees) are selected, and those
/// are solved five times (`PAR_BB_REPEATS`) at every worker count in
/// `worker_counts` under the same budget, the ranking run counting as
/// the first 1-worker run. The runs go in rounds over the counts, so a
/// slow stretch of the machine spreads over the counts instead of
/// sinking one count's runs. The gated claims, on the hardest instances
/// (see [`summarize_par_bb`]): no run ever returns a worse optimum, the
/// median total node count (head start + splitter lookahead + all
/// workers) stays within 2x of the sequential tree at every count —
/// i.e. cube duplication and weaker mid-flight incumbents do not blow
/// the search up, they only re-partition it — and the largest pool's
/// median wall time beats the sequential run's by the floor the CI gate
/// sets (re-splitting keeps workers fed, and the shared incumbent and
/// the per-cube primal dives prune what the sequential run spends
/// descending through incumbents).
///
/// Hardest-first matters: parallel search pays fixed costs (the serial
/// head start, per-cube engine setup, one first-descent per worker)
/// that only amortize on trees worth splitting — measured on the
/// synthesis family, the two hardest seeds run at ≈0.8–1.5x sequential
/// nodes with a real wall-clock speedup, while trivial sub-100 ms seeds
/// can triple their node count and still lose time. Parallelizing tiny
/// trees is simply the wrong tool, and the probe documents the regime
/// the tool is for.
///
/// The probe runs the MIS configuration: it proves optimality on the
/// synthesis pool well inside the harness budgets, so the gate compares
/// proven optima and complete trees on both sides (a budget-truncated
/// comparison would measure incumbent luck, not search partitioning).
pub fn run_par_bb_probe(
    pool: &[Instance],
    budget: Budget,
    worker_counts: &[usize],
    keep: usize,
) -> Vec<ParBbProbe> {
    let options = BsoloOptions::with_lb(LbMethod::Mis).budget(budget);
    let solve = |inst: &Instance, workers: usize| {
        pbo_solver::ParBsolo::new(options.clone(), workers).solve(inst)
    };
    let seq_runs: Vec<SolveResult> = pool.iter().map(|inst| solve(inst, 1)).collect();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(seq_runs[i].stats.decisions));
    order.truncate(keep);
    let run_of = |workers: usize, result: &SolveResult| ParBbRun {
        workers,
        cost: result.best_cost,
        optimal: result.status == SolveStatus::Optimal,
        time: result.stats.solve_time,
        nodes: result.stats.decisions,
        resplits: result.stats.resplits,
        depth_truncated: result.stats.split_depth_truncated,
        queue_wait: result.stats.queue_wait_total,
        nodes_per_worker: result.stats.nodes_per_worker.clone(),
    };
    order
        .into_iter()
        .map(|i| {
            let inst = &pool[i];
            let mut runs = Vec::with_capacity(PAR_BB_REPEATS * worker_counts.len());
            for round in 0..PAR_BB_REPEATS {
                for &w in worker_counts {
                    // The ranking pass already ran every instance once
                    // at one worker: that is the first baseline run.
                    runs.push(if w == 1 && round == 0 {
                        run_of(1, &seq_runs[i])
                    } else {
                        run_of(w, &solve(inst, w))
                    });
                }
            }
            runs.sort_by_key(|r| r.workers);
            ParBbProbe { instance: inst.name().to_string(), runs }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_generate() {
        for f in FAMILIES {
            let insts = family_instances(f, 2);
            assert_eq!(insts.len(), 2);
        }
    }

    #[test]
    fn table_runs_on_tiny_budget() {
        let insts = family_instances("synthesis", 1);
        let rows = run_table(&insts, Budget::conflict_limit(5));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 8);
        let text = format_table(&rows);
        assert!(text.contains("#Solved"));
        assert!(text.contains("LPR"));
        assert!(text.contains("portfolio"));
    }

    #[test]
    fn portfolio_probe_measures_both_sides() {
        let insts = family_instances("synthesis", 1);
        let probes = run_portfolio_probe(&insts[..1], budget_ms(2_000), 20_000);
        assert_eq!(probes.len(), 1);
        let p = &probes[0];
        assert!(p.target_cost.is_some(), "synthesis instances are feasible");
        // The warm side must reach the exact side's final cost (it ran
        // under the same budget with a head start).
        assert!(p.warm_cost.is_some());
        assert!(p.ls_cost.is_some(), "LS must find something feasible");
    }
}
