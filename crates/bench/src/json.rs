//! Machine-readable benchmark output (`BENCH_table1.json`).
//!
//! The workspace builds offline with no serde, so this module hand-rolls
//! the small amount of JSON the benchmark harness emits: per-instance
//! wall time, nodes (decisions), lower-bound calls and lower-bound /
//! subproblem-maintenance time per solver column, plus the
//! residual-state ablation that tracks the perf trajectory across PRs.

use std::fmt::Write as _;
use std::time::Duration;

use crate::{Row, SolverKind};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One side of the residual-state ablation.
#[derive(Clone, Debug)]
pub struct AblationSide {
    /// Lower-bound calls performed (== residual views produced).
    pub lb_calls: u64,
    /// Total time maintaining/building the residual subproblem.
    pub sub_time: Duration,
    /// Total time inside the bound procedure itself.
    pub lb_time: Duration,
    /// Decisions explored.
    pub decisions: u64,
}

impl AblationSide {
    /// Average subproblem-maintenance nanoseconds per bound call.
    pub fn sub_ns_per_call(&self) -> f64 {
        if self.lb_calls == 0 {
            0.0
        } else {
            self.sub_time.as_nanos() as f64 / self.lb_calls as f64
        }
    }

    fn write(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"lb_calls\": {}, \"decisions\": {}, \"sub_time_ms\": {:.3}, \
             \"lb_time_ms\": {:.3}, \"sub_ns_per_call\": {:.0}}}",
            self.lb_calls,
            self.decisions,
            ms(self.sub_time),
            ms(self.lb_time),
            self.sub_ns_per_call(),
        );
    }
}

/// The rebuild-vs-incremental ablation result recorded alongside Table 1.
#[derive(Clone, Debug)]
pub struct ResidualAblation {
    /// Instance the ablation ran on.
    pub instance: String,
    /// Lower-bound method used.
    pub lb_method: &'static str,
    /// Per-node rebuild measurements.
    pub rebuild: AblationSide,
    /// Incremental residual-state measurements.
    pub incremental: AblationSide,
}

impl ResidualAblation {
    /// How many times cheaper per-node subproblem maintenance is in
    /// incremental mode.
    pub fn maintenance_speedup(&self) -> f64 {
        let incr = self.incremental.sub_ns_per_call();
        if incr <= 0.0 {
            f64::INFINITY
        } else {
            self.rebuild.sub_ns_per_call() / incr
        }
    }
}

/// One side of the dynamic-rows ablation (`dynamic_rows` off / on).
#[derive(Clone, Debug)]
pub struct DynRowsSide {
    /// Whether the side proved optimality within the budget.
    pub solved: bool,
    /// B&B nodes (decisions) explored.
    pub decisions: u64,
    /// Lower-bound computations performed.
    pub lb_calls: u64,
    /// Bound conflicts (prunings).
    pub bound_conflicts: u64,
    /// Mean per-node bound margin (`bound - path_cost`, averaged over
    /// finite lower-bound outcomes) — the bound-strength metric.
    pub mean_lb_margin: f64,
    /// Wall time of the solve.
    pub solve_time: Duration,
}

impl DynRowsSide {
    fn write(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"solved\": {}, \"decisions\": {}, \"lb_calls\": {}, \
             \"bound_conflicts\": {}, \"mean_lb_margin\": {:.3}, \"time_ms\": {:.3}}}",
            self.solved,
            self.decisions,
            self.lb_calls,
            self.bound_conflicts,
            self.mean_lb_margin,
            ms(self.solve_time),
        );
    }
}

/// The dynamic-rows ablation result recorded alongside Table 1: the
/// same solve with the learned-cut dynamic rows folded into the
/// residual problem (on) and without (off).
#[derive(Clone, Debug)]
pub struct DynamicRowsAblation {
    /// Instance the ablation ran on.
    pub instance: String,
    /// Lower-bound method used.
    pub lb_method: &'static str,
    /// `dynamic_rows: false` measurements.
    pub off: DynRowsSide,
    /// `dynamic_rows: true` measurements.
    pub on: DynRowsSide,
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

/// One instance of the parallel-LS (ParLS) probe: a single deterministic
/// LS worker vs a diversified pool under the same per-worker step
/// budget, gaps measured against the exact solver's cost.
#[derive(Clone, Debug)]
pub struct ParlsProbe {
    /// Instance name.
    pub instance: String,
    /// The exact side's cost (the gap reference), if known.
    pub target_cost: Option<i64>,
    /// Best cost of the single worker (worker 0, base options).
    pub single_cost: Option<i64>,
    /// Best cost of the diversified pool (includes worker 0).
    pub pool_cost: Option<i64>,
    /// Relative gap of the single worker vs the target.
    pub single_gap: Option<f64>,
    /// Relative gap of the pool vs the target.
    pub pool_gap: Option<f64>,
}

/// Aggregate of the ParLS probe: the CI gate numbers.
#[derive(Clone, Debug)]
pub struct ParlsSummary {
    /// Worker count of the pool side.
    pub workers: usize,
    /// Worst single-worker gap across instances.
    pub max_single_gap: Option<f64>,
    /// Worst pool gap across instances.
    pub max_pool_gap: Option<f64>,
    /// Whether the pool cost was `<=` the single cost on every instance
    /// (guaranteed by construction — worker 0 replays the single run —
    /// asserted to catch diversification/seeding bugs).
    pub pool_never_worse: bool,
}

/// Aggregates ParLS probe rows into the gate metrics.
pub fn summarize_parls(probes: &[ParlsProbe], workers: usize) -> ParlsSummary {
    let mut max_single: Option<f64> = None;
    let mut max_pool: Option<f64> = None;
    let mut never_worse = true;
    for p in probes {
        if let Some(g) = p.single_gap {
            max_single = Some(max_single.map_or(g, |m: f64| m.max(g)));
        }
        if let Some(g) = p.pool_gap {
            max_pool = Some(max_pool.map_or(g, |m: f64| m.max(g)));
        }
        match (p.pool_cost, p.single_cost) {
            (Some(pool), Some(single)) => never_worse &= pool <= single,
            (None, Some(_)) => never_worse = false,
            _ => {}
        }
    }
    ParlsSummary {
        workers,
        max_single_gap: max_single,
        max_pool_gap: max_pool,
        pool_never_worse: never_worse,
    }
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
    /// Cube-independent clauses published to the shared pool.
    pub clauses_shared: u64,
    /// Pool clauses imported into worker engines.
    pub clauses_imported: u64,
    /// Cube splits truncated at the maximum split depth.
    pub depth_truncated: u64,
    /// Total wall time workers spent blocked on the cube queue.
    pub queue_wait: Duration,
    /// Per-worker node counts (merged at join).
    pub nodes_per_worker: Vec<u64>,
}

/// One instance of the parallel-exact (par_bb) probe: the same solve at
/// each probed worker count, the 1-worker run first (the scaling
/// baseline — bit-identical to the sequential solver).
#[derive(Clone, Debug)]
pub struct ParBbProbe {
    /// Instance name.
    pub instance: String,
    /// One run per probed worker count, ascending; `runs[0].workers == 1`.
    pub runs: Vec<ParBbRun>,
}

/// Aggregate of the par_bb scaling probe: the CI gate numbers.
#[derive(Clone, Debug)]
pub struct ParBbSummary {
    /// The largest probed worker count (the wall-speedup gate's run).
    pub workers: usize,
    /// No parallel run ever returned a worse optimum: at every probed
    /// worker count, wherever the 1-worker run has a cost the parallel
    /// cost exists and is `<=` it, and wherever the 1-worker run proved
    /// optimality, so did the parallel run.
    pub never_worse_optimum: bool,
    /// Worst `nodes(w) / nodes(1)` over all instances and worker counts
    /// solved on both sides — the duplicated-work bound the gate caps
    /// at 2x.
    pub max_nodes_ratio: Option<f64>,
    /// Geometric mean of `time(1) / time(max workers)` over instances
    /// solved at both counts — the scaling number the PR-6 gate floors
    /// at 1.8x.
    pub time_speedup_geomean: Option<f64>,
}

/// Aggregates par_bb scaling rows into the gate metrics. The baseline of
/// every comparison is each instance's 1-worker run (`runs[0]`).
pub fn summarize_par_bb(probes: &[ParBbProbe]) -> ParBbSummary {
    let mut never_worse = true;
    let mut max_ratio: Option<f64> = None;
    let mut speedups: Vec<f64> = Vec::new();
    let max_workers =
        probes.iter().flat_map(|p| p.runs.iter().map(|r| r.workers)).max().unwrap_or(1);
    for p in probes {
        let Some(base) = p.runs.first() else { continue };
        for run in p.runs.iter().skip(1) {
            match (base.cost, run.cost) {
                (Some(s), Some(q)) => never_worse &= q <= s,
                (Some(_), None) => never_worse = false,
                _ => {}
            }
            if base.optimal {
                never_worse &= run.optimal;
            }
            if base.optimal && run.optimal && base.nodes > 0 {
                let ratio = run.nodes as f64 / base.nodes as f64;
                max_ratio = Some(max_ratio.map_or(ratio, |m: f64| m.max(ratio)));
                if run.workers == max_workers {
                    let (s, q) = (base.time.as_secs_f64(), run.time.as_secs_f64());
                    if s > 0.0 && q > 0.0 {
                        speedups.push(s / q);
                    }
                }
            }
        }
    }
    let geomean = if speedups.is_empty() {
        None
    } else {
        Some((speedups.iter().map(|r| r.ln()).sum::<f64>() / speedups.len() as f64).exp())
    };
    ParBbSummary {
        workers: max_workers,
        never_worse_optimum: never_worse,
        max_nodes_ratio: max_ratio,
        time_speedup_geomean: geomean,
    }
}

/// Aggregate of a probe run: the numbers the CI gates assert on.
#[derive(Clone, Debug)]
pub struct PortfolioSummary {
    /// `sum(warm_time_to_target) / sum(exact_time)` over instances where
    /// the warm side reached the target.
    pub time_to_target_ratio: Option<f64>,
    /// Instances where the warm side never reached the target.
    pub missed_targets: usize,
    /// Total B&B nodes with the LS warm start.
    pub nodes_warm: u64,
    /// Total B&B nodes cold.
    pub nodes_cold: u64,
    /// Worst LS optimality gap across instances.
    pub max_ls_gap: Option<f64>,
}

/// Aggregates probe rows into the gate metrics.
pub fn summarize_portfolio(probes: &[PortfolioProbe]) -> PortfolioSummary {
    let mut reach_num = 0.0f64;
    let mut reach_den = 0.0f64;
    let mut missed = 0usize;
    let mut nodes_warm = 0u64;
    let mut nodes_cold = 0u64;
    let mut max_gap: Option<f64> = None;
    for p in probes {
        nodes_warm += p.warm_nodes;
        nodes_cold += p.exact_nodes;
        match p.warm_time_to_target {
            Some(t) if p.target_cost.is_some() => {
                reach_num += t.as_secs_f64();
                reach_den += p.exact_time.as_secs_f64();
            }
            _ if p.target_cost.is_some() => missed += 1,
            _ => {}
        }
        if let Some(g) = p.ls_gap {
            max_gap = Some(max_gap.map_or(g, |m: f64| m.max(g)));
        }
    }
    PortfolioSummary {
        time_to_target_ratio: (reach_den > 0.0).then(|| reach_num / reach_den),
        missed_targets: missed,
        nodes_warm,
        nodes_cold,
        max_ls_gap: max_gap,
    }
}

fn opt_i64(v: Option<i64>) -> String {
    v.map_or("null".to_string(), |c| c.to_string())
}

fn opt_ms(v: Option<Duration>) -> String {
    v.map_or("null".to_string(), |d| format!("{:.3}", ms(d)))
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        _ => "null".to_string(),
    }
}

/// Renders an anytime curve as a JSON array of `[time_ms, cost]` pairs.
fn anytime_json(curve: &[(Duration, i64)]) -> String {
    let pairs: Vec<String> = curve.iter().map(|&(t, c)| format!("[{:.3}, {c}]", ms(t))).collect();
    format!("[{}]", pairs.join(", "))
}

fn write_portfolio(out: &mut String, probes: &[PortfolioProbe]) {
    out.push_str("  \"portfolio\": {\n    \"instances\": [\n");
    for (i, p) in probes.iter().enumerate() {
        let comma = if i + 1 < probes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"instance\": \"{}\", \"target_cost\": {}, \"exact_optimal\": {}, \
             \"exact_time_ms\": {:.3}, \"exact_nodes\": {}, \
             \"warm_time_to_target_ms\": {}, \"warm_time_ms\": {:.3}, \
             \"warm_nodes\": {}, \"warm_cost\": {}, \
             \"ls_cost\": {}, \"ls_time_ms\": {:.3}, \"ls_gap\": {}, \
             \"anytime\": {}}}{comma}",
            escape(&p.instance),
            opt_i64(p.target_cost),
            p.exact_optimal,
            ms(p.exact_time),
            p.exact_nodes,
            opt_ms(p.warm_time_to_target),
            ms(p.warm_time),
            p.warm_nodes,
            opt_i64(p.warm_cost),
            opt_i64(p.ls_cost),
            ms(p.ls_time),
            opt_f64(p.ls_gap),
            anytime_json(&p.anytime),
        );
    }
    out.push_str("    ],\n");
    let s = summarize_portfolio(probes);
    let _ = writeln!(
        out,
        "    \"summary\": {{\"time_to_target_ratio\": {}, \"missed_targets\": {}, \
         \"nodes_warm\": {}, \"nodes_cold\": {}, \"max_ls_gap\": {}}}",
        opt_f64(s.time_to_target_ratio),
        s.missed_targets,
        s.nodes_warm,
        s.nodes_cold,
        opt_f64(s.max_ls_gap),
    );
    out.push_str("  },\n");
}

fn write_parls(out: &mut String, probes: &[ParlsProbe], workers: usize) {
    let _ = writeln!(out, "  \"parls\": {{\n    \"workers\": {workers},\n    \"instances\": [");
    for (i, p) in probes.iter().enumerate() {
        let comma = if i + 1 < probes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"instance\": \"{}\", \"target_cost\": {}, \"single_cost\": {}, \
             \"pool_cost\": {}, \"single_gap\": {}, \"pool_gap\": {}}}{comma}",
            escape(&p.instance),
            opt_i64(p.target_cost),
            opt_i64(p.single_cost),
            opt_i64(p.pool_cost),
            opt_f64(p.single_gap),
            opt_f64(p.pool_gap),
        );
    }
    out.push_str("    ],\n");
    let s = summarize_parls(probes, workers);
    let _ = writeln!(
        out,
        "    \"summary\": {{\"max_single_gap\": {}, \"max_pool_gap\": {}, \
         \"pool_never_worse\": {}}}",
        opt_f64(s.max_single_gap),
        opt_f64(s.max_pool_gap),
        s.pool_never_worse,
    );
    out.push_str("  },\n");
}

fn write_par_bb(out: &mut String, probes: &[ParBbProbe]) {
    let counts: Vec<String> = probes
        .first()
        .map(|p| p.runs.iter().map(|r| r.workers.to_string()).collect())
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "  \"par_bb\": {{\n    \"workers\": [{}],\n    \"instances\": [",
        counts.join(", ")
    );
    for (i, p) in probes.iter().enumerate() {
        let comma = if i + 1 < probes.len() { "," } else { "" };
        let _ = writeln!(out, "      {{\"instance\": \"{}\", \"runs\": [", escape(&p.instance));
        for (ri, r) in p.runs.iter().enumerate() {
            let rcomma = if ri + 1 < p.runs.len() { "," } else { "" };
            let per: Vec<String> = r.nodes_per_worker.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "        {{\"workers\": {}, \"cost\": {}, \"optimal\": {}, \
                 \"time_ms\": {:.3}, \"nodes\": {}, \"resplits\": {}, \
                 \"clauses_shared\": {}, \"clauses_imported\": {}, \
                 \"depth_truncated\": {}, \"queue_wait_ms\": {:.3}, \
                 \"nodes_per_worker\": [{}]}}{rcomma}",
                r.workers,
                opt_i64(r.cost),
                r.optimal,
                ms(r.time),
                r.nodes,
                r.resplits,
                r.clauses_shared,
                r.clauses_imported,
                r.depth_truncated,
                ms(r.queue_wait),
                per.join(", "),
            );
        }
        let _ = writeln!(out, "      ]}}{comma}");
    }
    out.push_str("    ],\n");
    let s = summarize_par_bb(probes);
    let _ = writeln!(
        out,
        "    \"summary\": {{\"workers\": {}, \"never_worse_optimum\": {}, \
         \"max_nodes_ratio\": {}, \"time_speedup_geomean\": {}}}",
        s.workers,
        s.never_worse_optimum,
        opt_f64(s.max_nodes_ratio),
        opt_f64(s.time_speedup_geomean),
    );
    out.push_str("  },\n");
}

/// Renders the whole benchmark report as a JSON document.
pub fn render_report(
    budget_ms: u64,
    seeds: u64,
    families: &[(String, Vec<Row>)],
    ablation: Option<&ResidualAblation>,
) -> String {
    render_report_full(budget_ms, seeds, families, ablation, &[], None, &[], 0, &[])
}

/// [`render_report`] with the portfolio probe, dynamic-rows ablation,
/// ParLS and parallel-exact (par_bb) sections included.
#[allow(clippy::too_many_arguments)]
pub fn render_report_full(
    budget_ms: u64,
    seeds: u64,
    families: &[(String, Vec<Row>)],
    ablation: Option<&ResidualAblation>,
    portfolio: &[PortfolioProbe],
    dynamic_rows: Option<&DynamicRowsAblation>,
    parls: &[ParlsProbe],
    parls_workers: usize,
    par_bb: &[ParBbProbe],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"budget_ms\": {},", budget_ms);
    let _ = writeln!(out, "  \"seeds\": {},", seeds);
    out.push_str("  \"families\": [\n");
    for (fi, (family, rows)) in families.iter().enumerate() {
        let _ = writeln!(out, "    {{\"family\": \"{}\", \"instances\": [", escape(family));
        for (ri, row) in rows.iter().enumerate() {
            let _ =
                write!(out, "      {{\"instance\": \"{}\", \"cells\": [", escape(&row.instance));
            for (ci, (kind, cell)) in SolverKind::ALL.iter().zip(row.cells.iter()).enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                let cost = match cell.best_cost {
                    Some(c) => c.to_string(),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "{{\"solver\": \"{}\", \"status\": \"{}\", \"cost\": {}, \
                     \"time_ms\": {:.3}, \"nodes\": {}, \"lb_calls\": {}, \
                     \"lb_time_ms\": {:.3}, \"sub_time_ms\": {:.3}}}",
                    kind.name(),
                    cell.status,
                    cost,
                    ms(cell.stats.solve_time),
                    cell.stats.decisions,
                    cell.stats.lb_calls,
                    ms(cell.stats.lb_time_total),
                    ms(cell.stats.sub_time_total),
                );
            }
            let comma = if ri + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(out, "]}}{comma}");
        }
        let comma = if fi + 1 < families.len() { "," } else { "" };
        let _ = writeln!(out, "    ]}}{comma}");
    }
    out.push_str("  ],\n");
    if portfolio.is_empty() {
        out.push_str("  \"portfolio\": null,\n");
    } else {
        write_portfolio(&mut out, portfolio);
    }
    if parls.is_empty() {
        out.push_str("  \"parls\": null,\n");
    } else {
        write_parls(&mut out, parls, parls_workers);
    }
    if par_bb.is_empty() {
        out.push_str("  \"par_bb\": null,\n");
    } else {
        write_par_bb(&mut out, par_bb);
    }
    match dynamic_rows {
        Some(d) => {
            out.push_str("  \"dynamic_rows\": {\n");
            let _ = writeln!(out, "    \"instance\": \"{}\",", escape(&d.instance));
            let _ = writeln!(out, "    \"lb_method\": \"{}\",", d.lb_method);
            out.push_str("    \"off\": ");
            d.off.write(&mut out);
            out.push_str(",\n    \"on\": ");
            d.on.write(&mut out);
            out.push_str("\n  },\n");
        }
        None => out.push_str("  \"dynamic_rows\": null,\n"),
    }
    match ablation {
        Some(a) => {
            out.push_str("  \"residual_ablation\": {\n");
            let _ = writeln!(out, "    \"instance\": \"{}\",", escape(&a.instance));
            let _ = writeln!(out, "    \"lb_method\": \"{}\",", a.lb_method);
            out.push_str("    \"rebuild\": ");
            a.rebuild.write(&mut out);
            out.push_str(",\n    \"incremental\": ");
            a.incremental.write(&mut out);
            // JSON has no Infinity/NaN literal: a degenerate measurement
            // (e.g. zero lower-bound calls within budget) becomes null.
            let speedup = a.maintenance_speedup();
            if speedup.is_finite() {
                let _ = writeln!(out, ",\n    \"maintenance_speedup\": {speedup:.2}");
            } else {
                let _ = writeln!(out, ",\n    \"maintenance_speedup\": null");
            }
            out.push_str("  }\n");
        }
        None => {
            out.push_str("  \"residual_ablation\": null\n");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{family_instances, run_table};
    use pbo_solver::Budget;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn report_is_parseable_shape() {
        let insts = family_instances("synthesis", 1);
        let rows = run_table(&insts, Budget::conflict_limit(5));
        let ablation = ResidualAblation {
            instance: "synthesis-0".into(),
            lb_method: "mis",
            rebuild: AblationSide {
                lb_calls: 100,
                sub_time: Duration::from_micros(900),
                lb_time: Duration::from_micros(500),
                decisions: 120,
            },
            incremental: AblationSide {
                lb_calls: 100,
                sub_time: Duration::from_micros(100),
                lb_time: Duration::from_micros(500),
                decisions: 120,
            },
        };
        let text = render_report(5000, 1, &[("synthesis".into(), rows)], Some(&ablation));
        // Structural smoke checks (no JSON parser in the workspace).
        assert!(text.starts_with("{\n"));
        assert!(text.trim_end().ends_with('}'));
        assert!(text.contains("\"residual_ablation\""));
        assert!(text.contains("\"maintenance_speedup\": 9.00"));
        assert!(text.contains("\"solver\": \"LPR\""));
        assert_eq!(text.matches("\"instance\"").count(), 2);
        // Balanced braces and brackets.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn speedup_of_zero_incremental_cost_is_infinite() {
        let side = |ns: u64| AblationSide {
            lb_calls: 10,
            sub_time: Duration::from_nanos(ns * 10),
            lb_time: Duration::ZERO,
            decisions: 10,
        };
        let a = ResidualAblation {
            instance: "x".into(),
            lb_method: "mis",
            rebuild: side(500),
            incremental: side(0),
        };
        assert!(a.maintenance_speedup().is_infinite());
        // JSON has no Infinity literal: the report must degrade to null.
        let text = render_report(100, 1, &[], Some(&a));
        assert!(text.contains("\"maintenance_speedup\": null"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }
}
