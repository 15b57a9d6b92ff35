//! Snapshot comparison: the gates `bench_compare` runs once per
//! baseline, flagging node-throughput, wall-time or anytime regressions
//! of the current `BENCH_table1.json` against a committed snapshot (the
//! gates on the current report alone are in [`crate::gates`]).
//!
//! Per-PR snapshots live under `benches/snapshots/`; CI regenerates the
//! report with the same parameters and compares it against them. Wall
//! times move with the machine, so these gates are deliberately coarse
//! ratios over geometric means: they catch a hot path collapsing (an
//! accidental O(instance) per node, a pruning bug exploding the tree),
//! not percent-level noise.

use std::collections::BTreeMap;

use crate::parse::JsonValue;

/// Per-cell performance extracted from a report.
#[derive(Copy, Clone, Debug)]
pub struct CellPerf {
    /// Wall time in milliseconds.
    pub time_ms: f64,
    /// Nodes (decisions) explored.
    pub nodes: f64,
    /// Whether the solve finished (optimal or infeasible).
    pub solved: bool,
}

/// `(family, instance, solver)` → performance, for every cell of the
/// report.
pub fn extract_cells(report: &JsonValue) -> BTreeMap<(String, String, String), CellPerf> {
    let text =
        |v: &JsonValue, key| v.get(key).and_then(JsonValue::as_str).unwrap_or("?").to_string();
    let number = |v: &JsonValue, key| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        v.get(key).and_then(JsonValue::items).unwrap_or_default()
    }
    let mut out = BTreeMap::new();
    for fam in items(report, "families") {
        for inst in items(fam, "instances") {
            for cell in items(inst, "cells") {
                let status = text(cell, "status");
                out.insert(
                    (text(fam, "family"), text(inst, "instance"), text(cell, "solver")),
                    CellPerf {
                        time_ms: number(cell, "time_ms"),
                        nodes: number(cell, "nodes"),
                        solved: status == "optimal" || status == "infeasible",
                    },
                );
            }
        }
    }
    out
}

/// Outcome of comparing a current report against a baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Cells present in both reports.
    pub common_cells: usize,
    /// Geometric mean over common cells of
    /// `current node throughput / baseline node throughput`
    /// (cells with zero nodes or time on either side are skipped).
    pub throughput_ratio: Option<f64>,
    /// Geometric mean over cells *solved on both sides* of
    /// `current wall time / baseline wall time`.
    pub time_ratio: Option<f64>,
}

/// Geometric mean of the finite positive ratios, if there are any.
pub(crate) fn geomean(ratios: &[f64]) -> Option<f64> {
    let logs: Vec<f64> =
        ratios.iter().copied().filter(|r| r.is_finite() && *r > 0.0).map(f64::ln).collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Compares two parsed reports cell by cell.
pub fn compare(baseline: &JsonValue, current: &JsonValue) -> Comparison {
    let base = extract_cells(baseline);
    let cur = extract_cells(current);
    let mut throughput = Vec::new();
    let mut times = Vec::new();
    let mut common = 0usize;
    for (key, b) in &base {
        let Some(c) = cur.get(key) else { continue };
        common += 1;
        if b.nodes > 0.0 && b.time_ms > 0.0 && c.nodes > 0.0 && c.time_ms > 0.0 {
            let b_tp = b.nodes / b.time_ms;
            let c_tp = c.nodes / c.time_ms;
            throughput.push(c_tp / b_tp);
        }
        if b.solved && c.solved && b.time_ms > 0.0 && c.time_ms > 0.0 {
            times.push(c.time_ms / b.time_ms);
        }
    }
    Comparison {
        common_cells: common,
        throughput_ratio: geomean(&throughput),
        time_ratio: geomean(&times),
    }
}

/// Fail when the throughput geomean drops below this (a >10x slowdown
/// in nodes/second). Coarse by design: CI runners and dev laptops differ
/// by small integer factors; an order of magnitude means a real
/// regression.
pub const MIN_THROUGHPUT_RATIO: f64 = 0.1;

/// Fail when the solved-instance wall-time geomean rises above this.
pub const MAX_TIME_RATIO: f64 = 10.0;

/// Evaluates a comparison against [`MIN_THROUGHPUT_RATIO`] and
/// [`MAX_TIME_RATIO`]; the returned list of violations is empty on pass.
pub fn evaluate(comparison: &Comparison) -> Vec<String> {
    let mut violations = Vec::new();
    if comparison.common_cells == 0 {
        violations
            .push("no common cells between the reports (different families/seeds?)".to_string());
        return violations;
    }
    if comparison.throughput_ratio.is_none() && comparison.time_ratio.is_none() {
        // Cells exist but none were comparable: every current-side solve
        // returned instantly with zero nodes and nothing solved — the
        // exact collapse the gate exists to catch, not a pass.
        violations.push(
            "no comparable cells: the current report has no solved instances and no \
             node counts (total solver collapse?)"
                .to_string(),
        );
        return violations;
    }
    if let Some(tp) = comparison.throughput_ratio {
        if tp < MIN_THROUGHPUT_RATIO {
            violations.push(format!(
                "node throughput regressed to {tp:.3}x of the baseline (gate {MIN_THROUGHPUT_RATIO:.3}x)"
            ));
        }
    }
    if let Some(t) = comparison.time_ratio {
        if t > MAX_TIME_RATIO {
            violations.push(format!(
                "solved-instance wall time rose to {t:.3}x of the baseline (gate {MAX_TIME_RATIO:.3}x)"
            ));
        }
    }
    violations
}

/// Wall-clock slack applied to the baseline's reference time in the
/// anytime-dominance gate: snapshots are recorded on whatever machine
/// ran them, so "reach the same cost by the same time" is asserted with
/// a 2x allowance (plus an absolute floor, sub-millisecond reference
/// points being pure scheduling noise).
pub const ANYTIME_TIME_SLACK: f64 = 2.0;

/// Absolute floor (ms) on the anytime deadline.
pub const ANYTIME_TIME_FLOOR_MS: f64 = 50.0;

/// One portfolio instance's anytime data extracted from a report.
#[derive(Clone, Debug, Default)]
pub struct AnytimePerf {
    /// The incumbent trajectory as `(time_ms, cost)`, improving in cost.
    /// Empty when the report predates the `anytime` field; the final
    /// point is synthesized from `warm_cost` at `warm_time_ms` then.
    pub curve: Vec<(f64, i64)>,
    /// The portfolio's final cost (`warm_cost`).
    pub final_cost: Option<i64>,
    /// Reference time: when this report's own curve first attained
    /// `final_cost` (its last improvement). Falls back to the full
    /// `warm_time_ms` for pre-anytime reports. Deliberately *not*
    /// `warm_time_to_target_ms` — that clock stops at the *cold run's*
    /// cost, a different (usually far earlier) point than the final
    /// incumbent this gate asks the current curve to match.
    pub ref_time_ms: Option<f64>,
}

/// Extracts per-instance anytime curves from a report's portfolio
/// section (empty map when the report has none).
pub fn extract_anytime(report: &JsonValue) -> BTreeMap<String, AnytimePerf> {
    let mut out = BTreeMap::new();
    let Some(instances) =
        report.get("portfolio").and_then(|p| p.get("instances")).and_then(JsonValue::items)
    else {
        return out;
    };
    for inst in instances {
        let name = inst.get("instance").and_then(JsonValue::as_str).unwrap_or("?").to_string();
        let final_cost = inst.get("warm_cost").and_then(JsonValue::as_f64).map(|c| c as i64);
        let warm_time = inst.get("warm_time_ms").and_then(JsonValue::as_f64);
        let mut curve: Vec<(f64, i64)> = inst
            .get("anytime")
            .and_then(JsonValue::items)
            .map(|points| {
                points
                    .iter()
                    .filter_map(|p| {
                        let pair = p.items()?;
                        let t = pair.first()?.as_f64()?;
                        let c = pair.get(1)?.as_f64()? as i64;
                        Some((t, c))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if curve.is_empty() {
            // Pre-anytime report: its final point is all we know.
            if let (Some(c), Some(t)) = (final_cost, warm_time) {
                curve.push((t, c));
            }
        }
        let ref_time_ms = final_cost
            .and_then(|fc| curve.iter().find(|&&(_, c)| c <= fc).map(|&(t, _)| t))
            .or(warm_time);
        out.insert(name, AnytimePerf { curve, final_cost, ref_time_ms });
    }
    out
}

/// The anytime-dominance gate: on every portfolio instance both reports
/// cover, the current curve must reach the baseline's final cost within
/// the baseline's reference time (x [`ANYTIME_TIME_SLACK`], floored at
/// [`ANYTIME_TIME_FLOOR_MS`]) — or end strictly better. A pass means the
/// current portfolio's anytime behaviour is never dominated by the
/// snapshot's final-cost point; returns the violations, empty on pass.
pub fn evaluate_anytime(baseline: &JsonValue, current: &JsonValue) -> Vec<String> {
    let base = extract_anytime(baseline);
    let cur = extract_anytime(current);
    let mut violations = Vec::new();
    for (name, b) in &base {
        let Some(c) = cur.get(name) else { continue };
        let (Some(b_cost), Some(b_time)) = (b.final_cost, b.ref_time_ms) else { continue };
        let deadline = (b_time * ANYTIME_TIME_SLACK).max(ANYTIME_TIME_FLOOR_MS);
        let reached = c.curve.iter().any(|&(t, cost)| t <= deadline && cost <= b_cost);
        let better_final = c.final_cost.is_some_and(|f| f < b_cost);
        if !reached && !better_final {
            violations.push(format!(
                "{name}: anytime curve dominated by the baseline — no incumbent <= {b_cost} \
                 within {deadline:.1}ms (baseline reached it at {b_time:.1}ms; current curve \
                 {:?}, final cost {:?})",
                c.curve, c.final_cost
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn report(time_ms: f64, nodes: u64) -> JsonValue {
        let text = format!(
            r#"{{"budget_ms": 500, "seeds": 1, "families": [
                {{"family": "synthesis", "instances": [
                    {{"instance": "synth-0", "cells": [
                        {{"solver": "LPR", "status": "optimal", "cost": 5,
                          "time_ms": {time_ms}, "nodes": {nodes},
                          "lb_calls": 10, "lb_time_ms": 1.0, "sub_time_ms": 0.5}}
                    ]}}
                ]}}
            ], "portfolio": null}}"#
        );
        parse(&text).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(100.0, 1000);
        let c = compare(&a, &a);
        assert_eq!(c.common_cells, 1);
        assert!((c.throughput_ratio.unwrap() - 1.0).abs() < 1e-9);
        assert!((c.time_ratio.unwrap() - 1.0).abs() < 1e-9);
        assert!(evaluate(&c).is_empty());
    }

    #[test]
    fn throughput_collapse_is_flagged() {
        // Same nodes, 20x the time: throughput ratio 0.05 < 0.1.
        let base = report(100.0, 1000);
        let cur = report(2000.0, 1000);
        let c = compare(&base, &cur);
        let violations = evaluate(&c);
        assert!(!violations.is_empty(), "{c:?}");
        assert!(violations.iter().any(|v| v.contains("throughput")), "{violations:?}");
    }

    #[test]
    fn modest_machine_noise_passes() {
        // 2x slower machine: within the coarse gates.
        let base = report(100.0, 1000);
        let cur = report(200.0, 1000);
        let c = compare(&base, &cur);
        assert!(evaluate(&c).is_empty());
    }

    #[test]
    fn total_collapse_with_common_cells_is_a_violation() {
        // Same cell keys, but the current side solved nothing and
        // explored zero nodes: both geomeans are None, which must fail,
        // not pass.
        let base = report(100.0, 1000);
        let collapsed = parse(
            r#"{"budget_ms": 500, "seeds": 1, "families": [
                {"family": "synthesis", "instances": [
                    {"instance": "synth-0", "cells": [
                        {"solver": "LPR", "status": "unknown (budget)", "cost": null,
                         "time_ms": 0.1, "nodes": 0,
                         "lb_calls": 0, "lb_time_ms": 0.0, "sub_time_ms": 0.0}
                    ]}
                ]}
            ], "portfolio": null}"#,
        )
        .unwrap();
        let c = compare(&base, &collapsed);
        assert_eq!(c.common_cells, 1);
        let violations = evaluate(&c);
        assert!(!violations.is_empty(), "{c:?}");
        assert!(violations.iter().any(|v| v.contains("no comparable cells")), "{violations:?}");
    }

    fn portfolio_report(warm_cost: i64, warm_tt_ms: f64, anytime: &str) -> JsonValue {
        let text = format!(
            r#"{{"budget_ms": 500, "seeds": 1, "families": [],
                "portfolio": {{"instances": [
                    {{"instance": "synth-0", "target_cost": {warm_cost},
                      "warm_time_to_target_ms": {warm_tt_ms}, "warm_time_ms": 400.0,
                      "warm_cost": {warm_cost}, "anytime": {anytime}}}
                ]}}}}"#
        );
        parse(&text).unwrap()
    }

    #[test]
    fn matching_anytime_curves_pass() {
        let base = portfolio_report(5, 100.0, "[[50.0, 8], [100.0, 5]]");
        let cur = portfolio_report(5, 120.0, "[[60.0, 7], [120.0, 5]]");
        assert!(evaluate_anytime(&base, &cur).is_empty());
    }

    #[test]
    fn dominated_curve_is_flagged() {
        // Baseline had cost 5 by 100ms; current never gets below 7
        // inside 2x100ms and ends worse.
        let base = portfolio_report(5, 100.0, "[[100.0, 5]]");
        let cur = portfolio_report(7, 150.0, "[[150.0, 7]]");
        let violations = evaluate_anytime(&base, &cur);
        assert!(!violations.is_empty());
        assert!(violations[0].contains("dominated"), "{violations:?}");
    }

    #[test]
    fn strictly_better_final_cost_excuses_a_late_curve() {
        // Current reaches the baseline cost late, but its final cost is
        // strictly better: improved quality is not a regression.
        let base = portfolio_report(5, 10.0, "[[10.0, 5]]");
        let cur = portfolio_report(4, 300.0, "[[300.0, 4]]");
        assert!(evaluate_anytime(&base, &cur).is_empty());
    }

    #[test]
    fn pre_anytime_baseline_still_gates_on_its_final_point() {
        // A PR-6-era snapshot has no "anytime" array; its warm point
        // still anchors the gate, and a current run matching it passes.
        let base = parse(
            r#"{"budget_ms": 500, "seeds": 1, "families": [],
                "portfolio": {"instances": [
                    {"instance": "synth-0", "target_cost": 5,
                     "warm_time_to_target_ms": 100.0, "warm_time_ms": 400.0,
                     "warm_cost": 5}
                ]}}"#,
        )
        .unwrap();
        let good = portfolio_report(5, 90.0, "[[90.0, 5]]");
        assert!(evaluate_anytime(&base, &good).is_empty());
        let bad = portfolio_report(9, 350.0, "[[350.0, 9]]");
        assert!(!evaluate_anytime(&base, &bad).is_empty());
    }

    #[test]
    fn disjoint_reports_are_a_violation() {
        let base = report(100.0, 1000);
        let other =
            parse(r#"{"budget_ms": 1, "seeds": 1, "families": [], "portfolio": null}"#).unwrap();
        let c = compare(&base, &other);
        assert_eq!(c.common_cells, 0);
        assert!(!evaluate(&c).is_empty());
    }
}
