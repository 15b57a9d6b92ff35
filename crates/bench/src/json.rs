//! The `BENCH_table1.json` report, built as one [`JsonValue`] tree by
//! [`Report::to_json`]: the schema [`crate::parse::serialize`] writes and
//! the gates of [`crate::gates`] read. Times are milliseconds rounded to
//! the microsecond, ratios to four decimals; an infinite ratio is `null`.

use std::time::Duration;

use crate::compare::geomean;
use crate::parse::JsonValue;
use crate::{Row, SolverKind};

fn ms(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

fn ratio(x: Option<f64>) -> JsonValue {
    x.map(|x| (x * 1e4).round() / 1e4).into()
}

/// One instance of the portfolio probe: cold bsolo-LPR vs the LS-seeded
/// portfolio vs LS alone (see `run_portfolio_probe`).
#[derive(Clone, Debug)]
pub struct PortfolioProbe {
    /// Instance name.
    pub instance: String,
    /// The cold run's final cost — the target the warm side must reach.
    pub target_cost: Option<i64>,
    /// Whether the cold run proved optimality within the budget.
    pub exact_optimal: bool,
    /// Cold bsolo-LPR wall time.
    pub exact_time: Duration,
    /// Cold bsolo-LPR nodes (decisions).
    pub exact_nodes: u64,
    /// When the portfolio first held an incumbent `<= target_cost`.
    pub warm_time_to_target: Option<Duration>,
    /// Portfolio total wall time.
    pub warm_time: Duration,
    /// Portfolio B&B nodes (decisions) — the warm-start shrinkage metric.
    pub warm_nodes: u64,
    /// Portfolio final cost.
    pub warm_cost: Option<i64>,
    /// LS-alone best cost under the probe step budget.
    pub ls_cost: Option<i64>,
    /// LS-alone wall time.
    pub ls_time: Duration,
    /// Relative gap of `ls_cost` vs `target_cost` (0.0 = optimal).
    pub ls_gap: Option<f64>,
    /// The portfolio's anytime curve: every `(time, cost)` the shared
    /// incumbent cell recorded, strictly improving in cost. The
    /// machine-readable trajectory behind the anytime-solving claims —
    /// `bench_compare` gates the current curve against the snapshot's
    /// final point.
    pub anytime: Vec<(Duration, i64)>,
}

/// One worker-count run of the par_bb scaling probe.
#[derive(Clone, Debug)]
pub struct ParBbRun {
    /// Worker count of this run (1 = the sequential solver, by
    /// delegation).
    pub workers: usize,
    /// Final cost.
    pub cost: Option<i64>,
    /// Whether this run proved optimality within the budget.
    pub optimal: bool,
    /// Wall time.
    pub time: Duration,
    /// Nodes: head start + splitter lookahead + all workers, summed.
    pub nodes: u64,
    /// Dynamic re-splits performed across all workers.
    pub resplits: u64,
    /// Cube splits truncated at the maximum split depth.
    pub depth_truncated: u64,
    /// Total wall time workers spent blocked on the cube queue.
    pub queue_wait: Duration,
    /// Per-worker node counts (merged at join).
    pub nodes_per_worker: Vec<u64>,
}

/// One instance of the parallel-exact (par_bb) probe: the same solve
/// repeated at each probed worker count, the 1-worker runs (the scaling
/// baseline — bit-identical to the sequential solver) first.
#[derive(Clone, Debug)]
pub struct ParBbProbe {
    /// Instance name.
    pub instance: String,
    /// Every run, ascending by worker count; the runs of one count are
    /// adjacent, in the order they ran.
    pub runs: Vec<ParBbRun>,
}

impl ParBbProbe {
    /// The median wall time (seconds) and the median node count of the
    /// runs at `workers`, or `None` without such runs. An even number of
    /// runs takes the mean of the middle two.
    pub fn medians(&self, workers: usize) -> Option<(f64, f64)> {
        let runs: Vec<&ParBbRun> = self.runs.iter().filter(|r| r.workers == workers).collect();
        let time = median(runs.iter().map(|r| r.time.as_secs_f64()).collect())?;
        let nodes = median(runs.iter().map(|r| r.nodes as f64).collect())?;
        Some((time, nodes))
    }
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    match xs.len() {
        0 => None,
        n if n % 2 == 1 => Some(xs[mid]),
        _ => Some((xs[mid - 1] + xs[mid]) / 2.0),
    }
}

/// The probed worker counts, ascending.
fn worker_counts(probes: &[ParBbProbe]) -> Vec<usize> {
    let mut counts: Vec<usize> =
        probes.iter().flat_map(|p| p.runs.iter().map(|r| r.workers)).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The par_bb probe's summary, the numbers its gates read. Every
/// comparison is against the instance's 1-worker runs.
/// `never_worse_optimum` reads every run: it holds when each run at
/// another worker count has a cost `<=` that of every 1-worker run that
/// has one, and proves optimality wherever a 1-worker run proved it. The
/// other two read medians (see [`ParBbProbe::medians`]), so one run
/// slowed by a scheduling hiccup moves neither: `max_nodes_ratio` is the
/// worst `median nodes(w) / median nodes(1)` over the worker counts
/// whose runs, and the 1-worker runs, all proved optimality;
/// `time_speedup_geomean` is the geometric mean over instances of
/// `median time(1) / median time(workers)` at the largest probed count
/// `workers`.
pub fn summarize_par_bb(probes: &[ParBbProbe]) -> JsonValue {
    let counts = worker_counts(probes);
    let max_workers = counts.last().copied().unwrap_or(1);
    let mut never_worse = true;
    let (mut node_ratios, mut speedups) = (Vec::new(), Vec::new());
    for p in probes {
        let (base, runs): (Vec<&ParBbRun>, Vec<&ParBbRun>) =
            p.runs.iter().partition(|r| r.workers == 1);
        for run in &runs {
            for b in &base {
                let cost_ok = match (b.cost, run.cost) {
                    (Some(s), Some(q)) => q <= s,
                    (Some(_), None) => false,
                    _ => true,
                };
                never_worse &= cost_ok && (run.optimal || !b.optimal);
            }
        }
        let Some((base_time, base_nodes)) = p.medians(1) else { continue };
        if base_nodes <= 0.0 || base.iter().any(|b| !b.optimal) {
            continue;
        }
        for &w in counts.iter().filter(|&&w| w > 1) {
            let Some((time, nodes)) = p.medians(w) else { continue };
            if runs.iter().any(|r| r.workers == w && !r.optimal) {
                continue;
            }
            node_ratios.push(nodes / base_nodes);
            if w == max_workers && base_time > 0.0 && time > 0.0 {
                speedups.push(base_time / time);
            }
        }
    }
    JsonValue::object([
        ("workers", max_workers.into()),
        ("never_worse_optimum", never_worse.into()),
        ("max_nodes_ratio", ratio(node_ratios.into_iter().reduce(f64::max))),
        ("time_speedup_geomean", ratio(geomean(&speedups))),
    ])
}

/// The portfolio probe's summary, the numbers its gates read:
/// `time_to_target_ratio` is `sum(warm_time_to_target) / sum(exact_time)`
/// over instances where the warm side reached the target,
/// `missed_targets` counts the instances where it never did, and the node
/// totals and worst LS gap follow.
pub fn summarize_portfolio(probes: &[PortfolioProbe]) -> JsonValue {
    let mut reach_num = 0.0f64;
    let mut reach_den = 0.0f64;
    let mut missed = 0usize;
    for p in probes {
        match p.warm_time_to_target {
            Some(t) if p.target_cost.is_some() => {
                reach_num += t.as_secs_f64();
                reach_den += p.exact_time.as_secs_f64();
            }
            _ if p.target_cost.is_some() => missed += 1,
            _ => {}
        }
    }
    JsonValue::object([
        ("time_to_target_ratio", ratio((reach_den > 0.0).then(|| reach_num / reach_den))),
        ("missed_targets", missed.into()),
        ("nodes_warm", probes.iter().map(|p| p.warm_nodes).sum::<u64>().into()),
        ("nodes_cold", probes.iter().map(|p| p.exact_nodes).sum::<u64>().into()),
        ("max_ls_gap", ratio(probes.iter().filter_map(|p| p.ls_gap).reduce(f64::max))),
    ])
}

fn portfolio_json(probes: &[PortfolioProbe]) -> JsonValue {
    let instances = probes.iter().map(|p| {
        JsonValue::object([
            ("instance", p.instance.as_str().into()),
            ("target_cost", p.target_cost.into()),
            ("exact_optimal", p.exact_optimal.into()),
            ("exact_time_ms", ms(p.exact_time).into()),
            ("exact_nodes", p.exact_nodes.into()),
            ("warm_time_to_target_ms", p.warm_time_to_target.map(ms).into()),
            ("warm_time_ms", ms(p.warm_time).into()),
            ("warm_nodes", p.warm_nodes.into()),
            ("warm_cost", p.warm_cost.into()),
            ("ls_cost", p.ls_cost.into()),
            ("ls_time_ms", ms(p.ls_time).into()),
            ("ls_gap", ratio(p.ls_gap)),
            (
                "anytime",
                p.anytime
                    .iter()
                    .map(|&(t, c)| JsonValue::Array(vec![ms(t).into(), c.into()]))
                    .collect(),
            ),
        ])
    });
    JsonValue::object([
        ("instances", instances.collect()),
        ("summary", summarize_portfolio(probes)),
    ])
}

fn par_bb_json(probes: &[ParBbProbe]) -> JsonValue {
    let run_json = |r: &ParBbRun| {
        JsonValue::object([
            ("workers", r.workers.into()),
            ("cost", r.cost.into()),
            ("optimal", r.optimal.into()),
            ("time_ms", ms(r.time).into()),
            ("nodes", r.nodes.into()),
            ("resplits", r.resplits.into()),
            ("depth_truncated", r.depth_truncated.into()),
            ("queue_wait_ms", ms(r.queue_wait).into()),
            ("nodes_per_worker", r.nodes_per_worker.iter().map(|&n| n.into()).collect()),
        ])
    };
    let instances = probes.iter().map(|p| {
        JsonValue::object([
            ("instance", p.instance.as_str().into()),
            ("runs", p.runs.iter().map(run_json).collect()),
        ])
    });
    JsonValue::object([
        ("workers", worker_counts(probes).into_iter().map(JsonValue::from).collect()),
        ("instances", instances.collect()),
        ("summary", summarize_par_bb(probes)),
    ])
}

fn families_json(families: &[(String, Vec<Row>)]) -> JsonValue {
    let cell_json = |(kind, cell): (&SolverKind, &pbo_solver::SolveResult)| {
        JsonValue::object([
            ("solver", kind.name().into()),
            ("status", JsonValue::String(cell.status.to_string())),
            ("cost", cell.best_cost.into()),
            ("time_ms", ms(cell.stats.solve_time).into()),
            ("nodes", cell.stats.decisions.into()),
            ("lb_calls", cell.stats.lb_calls.into()),
            ("lb_time_ms", ms(cell.stats.lb_time_total).into()),
            ("sub_time_ms", ms(cell.stats.sub_time_total).into()),
        ])
    };
    let row_json = |row: &Row| {
        JsonValue::object([
            ("instance", row.instance.as_str().into()),
            ("cells", SolverKind::ALL.iter().zip(&row.cells).map(cell_json).collect()),
        ])
    };
    families
        .iter()
        .map(|(family, rows)| {
            JsonValue::object([
                ("family", family.as_str().into()),
                ("instances", rows.iter().map(row_json).collect()),
            ])
        })
        .collect()
}

/// The whole benchmark report. Empty probe lists are written as `null`
/// sections.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-instance budget of the Table-1 matrix.
    pub budget_ms: u64,
    /// Instances per family.
    pub seeds: u64,
    /// The Table-1 rows of each family.
    pub families: Vec<(String, Vec<Row>)>,
    /// The portfolio probe.
    pub portfolio: Vec<PortfolioProbe>,
    /// The par_bb scaling probe.
    pub par_bb: Vec<ParBbProbe>,
}

impl Report {
    /// The report as the JSON tree `BENCH_table1.json` holds.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("budget_ms", self.budget_ms.into()),
            ("seeds", self.seeds.into()),
            ("families", families_json(&self.families)),
            (
                "portfolio",
                (!self.portfolio.is_empty()).then(|| portfolio_json(&self.portfolio)).into(),
            ),
            ("par_bb", (!self.par_bb.is_empty()).then(|| par_bb_json(&self.par_bb)).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, serialize};
    use crate::{family_instances, run_table};
    use pbo_solver::Budget;

    #[test]
    fn escape_handles_specials() {
        let report =
            Report { families: vec![("a\"b\\c\nd".into(), Vec::new())], ..Report::default() };
        let text = serialize(&report.to_json());
        assert!(text.contains(r#""family": "a\"b\\c\nd""#), "{text}");
        assert_eq!(parse(&text).unwrap(), report.to_json());
    }

    #[test]
    fn report_is_parseable_shape() {
        let insts = family_instances("synthesis", 1);
        let rows = run_table(&insts, Budget::conflict_limit(5));
        let report = Report {
            budget_ms: 5000,
            seeds: 1,
            families: vec![("synthesis".into(), rows)],
            ..Report::default()
        };
        let v = parse(&serialize(&report.to_json())).unwrap();
        assert_eq!(v, report.to_json());
        let family = &v.get("families").unwrap().items().unwrap()[0];
        let cells = family.get("instances").unwrap().items().unwrap()[0].get("cells").unwrap();
        let solvers: Vec<_> = cells
            .items()
            .unwrap()
            .iter()
            .map(|c| c.get("solver").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(solvers, SolverKind::ALL.map(SolverKind::name));
        for section in ["portfolio", "par_bb"] {
            assert_eq!(v.get(section), Some(&JsonValue::Null), "{section}");
        }
    }
}
