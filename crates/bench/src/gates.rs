//! The gate table of the Table-1 smoke report: one declarative list,
//! checked by `bench_compare` on the current `BENCH_table1.json`.
//!
//! Each [`ReportGate`] names the report value it reads (a path into the
//! tree [`crate::json::Report::to_json`] builds), a comparison and a
//! bound. A missing section, a `null` value or a missing cell is a
//! violation. The gates that compare the report with a baseline snapshot
//! are in [`crate::compare`].

use std::fmt;

use crate::parse::{serialize, JsonValue};

/// LPR `lb_time_ms` on `synth-p70-m110-s1` in
/// `benches/snapshots/BENCH_table1_pr8.json`, the last snapshot before
/// the sparse dual simplex. A test reads it back from that file.
const LPR_SNAPSHOT_LB_TIME_MS: f64 = 408.884;

/// One gate on the current report.
#[derive(Copy, Clone, Debug)]
pub struct ReportGate {
    /// Printed with the verdict.
    pub name: &'static str,
    /// Path of the value the gate reads: keys separated by `.`, where
    /// `*` stands for every item of an array and `key=value` for the
    /// items whose `key` member is the string `value`.
    pub value: &'static str,
    /// The comparison and its bound.
    pub check: Check,
}

/// How a gate checks its value. A bound given as a path is read from the
/// same report.
#[derive(Copy, Clone, Debug)]
pub enum Check {
    /// Every value the path selects is `true` (selecting none passes).
    True,
    /// A number `>=` the bound.
    AtLeast(f64),
    /// A number `<=` the bound.
    AtMost(f64),
    /// A number `==` the bound.
    Equals(f64),
    /// A number `<` the number at the path.
    Below(&'static str),
}

use Check::{AtLeast, AtMost, Below, Equals, True};

const fn gate(name: &'static str, value: &'static str, check: Check) -> ReportGate {
    ReportGate { name, value, check }
}

/// Every gate on the current report, each with the reason for its
/// bound.
pub const REPORT_GATES: &[ReportGate] = &[
    // Anytime solving: the LS-seeded portfolio must reach the cold
    // solver's final cost in <= 53% of its wall time, with fewer B&B
    // nodes; LS alone must land within 5% of the optimum on the synthesis
    // probe instances (local reference: ~0.27-0.28 ratio on a 2-core
    // machine, ~4.5x fewer nodes, <=2.5% gap). The ratio gate keeps the
    // original ~1.9x headroom (0.25 over ~0.133). It rose because the
    // denominator got faster, not the warm start slower: with no cost-cut
    // rows in the LP, the cold solves summed 772-815 ms -> 132-165 ms,
    // while the LS phase before the warm start is fixed work
    // (warm-to-target itself fell 92-117 ms -> 36-45 ms).
    gate("portfolio: missed targets", "portfolio.summary.missed_targets", Equals(0.0)),
    gate("portfolio: time-to-target", "portfolio.summary.time_to_target_ratio", AtMost(0.53)),
    gate(
        "portfolio: warm nodes below cold",
        "portfolio.summary.nodes_warm",
        Below("portfolio.summary.nodes_cold"),
    ),
    gate("portfolio: worst LS gap", "portfolio.summary.max_ls_gap", AtMost(0.05)),
    // Parallel-exact scaling: the cube-split pool at every probed worker
    // count {1, 2, 4, 8}, five runs each, vs its own 1-worker runs (the
    // sequential solver, by delegation) on the two hardest synthesis
    // seeds. Same verified optimum in every run, median total nodes (head
    // start + splitter lookahead + dive + all workers) within 2x of the
    // sequential median at every count, and the 8-worker median wall
    // time, in geomean over the seeds, at least 1.8x below the 1-worker
    // median. The speedup is algorithmic — the per-cube primal dive plus
    // the shared incumbent prune most of the sequential run's
    // incumbent-descent work — not core-count parallelism. Both bounds
    // read timing (the 1-worker MIS runs take 48-214 ms, the 8-worker
    // runs 11-73 ms), so they read medians: one run slowed by a
    // scheduling hiccup moves neither, and five slow runs still fail
    // (tested below). Local reference, 2-core box, CI smoke parameters,
    // 30 runs alternated with 30 of the previous build (one run per
    // count, and 8 workers re-splitting early whenever the cube queue
    // starved): a speedup of 2.36-5.49x (median 4.01; 1.77-5.85x, median
    // 3.13, one run below the floor before) and a worst nodes ratio of
    // 0.87-1.19 (median 0.97; 0.87-1.99, median 1.28 before); pinned to
    // one core, 5 runs read 2.42-2.58x and 0.95-1.02 (1.93-2.43x and
    // 1.16-1.42 before).
    gate("par_bb: every run optimal", "par_bb.instances.*.runs.*.optimal", True),
    gate("par_bb: never a worse optimum", "par_bb.summary.never_worse_optimum", True),
    gate("par_bb: worst nodes ratio", "par_bb.summary.max_nodes_ratio", AtMost(2.0)),
    gate("par_bb: 8-worker wall speedup", "par_bb.summary.time_speedup_geomean", AtLeast(1.8)),
    // LPR's lb_time on the hardest synthesis probe must sit >= 1.5x below
    // the 408.9 ms of BENCH_table1_pr8.json (the last snapshot before the
    // sparse dual simplex). The arm is compute-bound with a wide margin
    // (local reference: ~2.6x, and the old number was a budget-exhausted
    // run while the new one proves optimality), so runner-speed noise
    // cannot flip it without a real regression.
    gate(
        "LPR hot path: lb_time_ms on synth-p70-m110-s1",
        "families.family=synthesis.instances.instance=synth-p70-m110-s1.cells.solver=LPR.lb_time_ms",
        AtMost(LPR_SNAPSHOT_LB_TIME_MS / 1.5),
    ),
];

/// Every value `path` (see [`ReportGate::value`]) selects in `report`.
/// A missing member, or `*` or `key=value` applied to a non-array, is an
/// error naming the path up to that segment.
fn select<'a>(report: &'a JsonValue, path: &str) -> Result<Vec<&'a JsonValue>, String> {
    let mut values = vec![report];
    let mut end = 0;
    for segment in path.split('.') {
        end += usize::from(end > 0) + segment.len();
        let at = &path[..end];
        let mut next = Vec::new();
        for value in values {
            if segment == "*" || segment.contains('=') {
                let items = value.items().ok_or_else(|| format!("`{at}`: not an array"))?;
                match segment.split_once('=') {
                    Some((key, want)) => next.extend(
                        items
                            .iter()
                            .filter(|i| i.get(key).and_then(JsonValue::as_str) == Some(want)),
                    ),
                    None => next.extend(items),
                }
            } else {
                next.push(value.get(segment).ok_or_else(|| format!("`{at}` missing"))?);
            }
        }
        values = next;
    }
    Ok(values)
}

/// The one number `path` selects (`None` for `null`), or why there is
/// none.
fn number(report: &JsonValue, path: &str) -> Result<Option<f64>, String> {
    match select(report, path)?.as_slice() {
        [JsonValue::Number(x)] => Ok(Some(*x)),
        [JsonValue::Null] => Ok(None),
        [] => Err(format!("`{path}` matches nothing")),
        [other] => Err(format!("not a number: {}", serialize(other).trim_end())),
        many => Err(format!("`{path}` matches {} values", many.len())),
    }
}

/// Prints a number with at most four decimals.
fn show(x: f64) -> String {
    let text = format!("{x:.4}");
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One gate's verdict on a report.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The gate.
    pub gate: ReportGate,
    /// The value read (or why it could not be read) and its bound.
    pub reading: String,
    /// Whether the gate holds.
    pub passed: bool,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.gate.name, self.reading)
    }
}

impl ReportGate {
    fn check(&self, report: &JsonValue) -> Verdict {
        type Cmp = fn(&f64, &f64) -> bool;
        let (op, cmp, limit): (_, Cmp, _) = match self.check {
            True => return self.check_all_true(report),
            AtLeast(b) => (">=", f64::ge, Ok(Some(b))),
            AtMost(b) => ("<=", f64::le, Ok(Some(b))),
            Equals(b) => ("==", f64::eq, Ok(Some(b))),
            Below(path) => ("<", f64::lt, number(report, path)),
        };
        let value = number(report, self.value);
        let passed = matches!((&value, &limit), (Ok(Some(v)), Ok(Some(b))) if cmp(v, b));
        let shown = |x: Result<Option<f64>, String>| match x {
            Ok(Some(x)) => show(x),
            Ok(None) => "null".to_string(),
            Err(e) => e,
        };
        let reading = format!("{} (gate {op} {})", shown(value), shown(limit));
        Verdict { gate: *self, reading, passed }
    }

    fn check_all_true(&self, report: &JsonValue) -> Verdict {
        let (value, passed) = match select(report, self.value) {
            Ok(values) => {
                let held = values.iter().filter(|v| v.as_bool() == Some(true)).count();
                let value = match values.as_slice() {
                    [one] => serialize(one).trim_end().to_string(),
                    _ => format!("{held} of {} true", values.len()),
                };
                (value, held == values.len())
            }
            Err(e) => (e, false),
        };
        Verdict { gate: *self, reading: format!("{value} (gate true)"), passed }
    }
}

/// Every gate of [`REPORT_GATES`] checked on `report`, in list order.
pub fn check_report(report: &JsonValue) -> Vec<Verdict> {
    REPORT_GATES.iter().map(|gate| gate.check(report)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare, evaluate, evaluate_anytime};
    use crate::parse::tests::{committed, COMMITTED};

    fn violated(report: &JsonValue) -> Vec<&'static str> {
        check_report(report).into_iter().filter(|v| !v.passed).map(|v| v.gate.name).collect()
    }

    /// The paths a gate reads: its value and a bound read from the report.
    fn reads(gate: &ReportGate) -> Vec<&'static str> {
        match gate.check {
            Below(p) => vec![gate.value, p],
            _ => vec![gate.value],
        }
    }

    /// The first value `path` selects, for editing a copy of a report.
    fn first_mut<'a>(mut value: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
        for segment in path.split('.') {
            value = match (value, segment.split_once('=')) {
                (JsonValue::Array(items), Some((key, want))) => items
                    .iter_mut()
                    .find(|i| i.get(key).and_then(JsonValue::as_str) == Some(want))
                    .expect(path),
                (JsonValue::Array(items), None) => items.first_mut().expect(path),
                (JsonValue::Object(map), _) => map.get_mut(segment).expect(path),
                _ => panic!("{path}: no `{segment}`"),
            };
        }
        value
    }

    /// `report` with the first value `gate` reads moved just past its
    /// bound.
    fn past_bound(report: &JsonValue, gate: &ReportGate) -> JsonValue {
        let nudge = |x: f64| 1e-6 * x.abs().max(1.0);
        let moved = match gate.check {
            True => JsonValue::Bool(false),
            AtLeast(b) => JsonValue::Number(b - nudge(b)),
            AtMost(b) => JsonValue::Number(b + nudge(b)),
            Equals(b) => JsonValue::Number(b + 1.0),
            Below(p) => JsonValue::Number(number(report, p).unwrap().unwrap()),
        };
        let mut copy = report.clone();
        *first_mut(&mut copy, gate.value) = moved;
        copy
    }

    #[test]
    fn committed_report_passes_every_gate_against_each_baseline() {
        let current = committed(COMMITTED[0]);
        let verdicts = check_report(&current);
        assert_eq!(verdicts.len(), REPORT_GATES.len());
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:#?}");
        for path in &COMMITTED[1..] {
            let baseline = committed(path);
            assert_eq!(evaluate(&compare(&baseline, &current)), Vec::<String>::new(), "{path}");
            assert_eq!(evaluate_anytime(&baseline, &current), Vec::<String>::new(), "{path}");
        }
    }

    /// A gate's value moved just past its bound, or set to `null`, fails
    /// that gate, and any other gate that fails reads the same value.
    /// Removing the gate's section fails exactly the gates reading that
    /// section.
    #[test]
    fn each_gate_fails_on_its_own_value_null_or_missing_section() {
        let report = committed(COMMITTED[0]);
        let names = |keep: &dyn Fn(&ReportGate) -> bool| -> Vec<&str> {
            REPORT_GATES.iter().filter(|g| keep(g)).map(|g| g.name).collect()
        };
        for gate in REPORT_GATES {
            let sharing = names(&|g| reads(g).contains(&gate.value));
            let mut nulled = report.clone();
            *first_mut(&mut nulled, gate.value) = JsonValue::Null;
            for (how, copy) in
                [("moved past its bound", past_bound(&report, gate)), ("null", nulled)]
            {
                let failed = violated(&copy);
                assert!(failed.contains(&gate.name), "{} {how}: failed {failed:?}", gate.name);
                assert!(
                    failed.iter().all(|name| sharing.contains(name)),
                    "{} {how}: failed {failed:?}, only {sharing:?} read the value",
                    gate.name
                );
            }
            let section = gate.value.split('.').next().unwrap();
            let mut removed = report.clone();
            let JsonValue::Object(map) = &mut removed else { panic!("report is an object") };
            map.remove(section);
            let in_section =
                names(&|g| reads(g).iter().any(|p| p.split('.').next() == Some(section)));
            assert_eq!(violated(&removed), in_section, "`{section}` removed");
        }
    }

    /// The par_bb gates that fail on a report holding only the par_bb
    /// probes `edit` makes of a passing probe set: two instances, five
    /// runs at each of 1, 2, 4 and 8 workers, the 1-worker runs at 300
    /// ms and 4,000 nodes and the others at 100 ms and 4,400 nodes
    /// (speedup 3x, nodes ratio 1.1).
    fn par_bb_violations(edit: impl Fn(&mut [crate::ParBbProbe])) -> Vec<&'static str> {
        use crate::{ParBbProbe, ParBbRun};
        use std::time::Duration;
        let run = |workers: usize| ParBbRun {
            workers,
            cost: Some(100),
            optimal: true,
            time: Duration::from_millis(if workers == 1 { 300 } else { 100 }),
            nodes: if workers == 1 { 4_000 } else { 4_400 },
            resplits: 0,
            depth_truncated: 0,
            queue_wait: Duration::ZERO,
            nodes_per_worker: vec![0; workers],
        };
        let mut probes: Vec<ParBbProbe> = ["synth-a", "synth-b"]
            .into_iter()
            .map(|name| ParBbProbe {
                instance: name.to_string(),
                runs: [1, 2, 4, 8].into_iter().flat_map(|w| (0..5).map(move |_| run(w))).collect(),
            })
            .collect();
        edit(&mut probes);
        let report = crate::json::Report { par_bb: probes, ..Default::default() }.to_json();
        violated(&report).into_iter().filter(|name| name.starts_with("par_bb")).collect()
    }

    /// The 8-worker runs of the first instance.
    fn eight_worker_runs(
        probes: &mut [crate::ParBbProbe],
    ) -> impl Iterator<Item = &mut crate::ParBbRun> {
        probes[0].runs.iter_mut().filter(|r| r.workers == 8)
    }

    #[test]
    fn par_bb_gates_read_the_median_of_five_runs() {
        use std::time::Duration;
        assert_eq!(par_bb_violations(|_| {}), Vec::<&str>::new());
        // Five uniformly slow 8-worker runs: a real scaling regression.
        let slow = par_bb_violations(|probes| {
            for p in probes.iter_mut() {
                for r in p.runs.iter_mut().filter(|r| r.workers == 8) {
                    r.time = Duration::from_millis(250);
                }
            }
        });
        assert_eq!(slow, ["par_bb: 8-worker wall speedup"]);
        // Five runs at 2.1x the sequential nodes: a blown-up search.
        let blown_up = par_bb_violations(|probes| {
            for r in probes[1].runs.iter_mut().filter(|r| r.workers == 4) {
                r.nodes = 8_400;
            }
        });
        assert_eq!(blown_up, ["par_bb: worst nodes ratio"]);
        // One slow run out of five flips neither gate, however slow and
        // however many nodes it took.
        let hiccup = par_bb_violations(|probes| {
            let r = eight_worker_runs(probes).next().unwrap();
            r.time = Duration::from_millis(3_000);
            r.nodes = 40_000;
        });
        assert_eq!(hiccup, Vec::<&str>::new());
        // A worse optimum or a missed proof still fails on any one run.
        let worse = par_bb_violations(|probes| {
            eight_worker_runs(probes).last().unwrap().cost = Some(101);
        });
        assert_eq!(worse, ["par_bb: never a worse optimum"]);
        let unproved = par_bb_violations(|probes| {
            eight_worker_runs(probes).last().unwrap().optimal = false;
        });
        assert_eq!(unproved, ["par_bb: every run optimal", "par_bb: never a worse optimum"]);
    }

    #[test]
    fn lpr_bound_is_derived_from_the_pr8_snapshot() {
        let snapshot = committed("benches/snapshots/BENCH_table1_pr8.json");
        let gate = REPORT_GATES.iter().find(|g| g.name.starts_with("LPR hot path")).unwrap();
        assert_eq!(number(&snapshot, gate.value), Ok(Some(LPR_SNAPSHOT_LB_TIME_MS)));
        assert!(matches!(gate.check, AtMost(b) if b == LPR_SNAPSHOT_LB_TIME_MS / 1.5));
    }

    #[test]
    fn select_follows_keys_wildcards_and_filters() {
        let report = crate::parse::parse(
            r#"{"rows": [{"id": "a", "x": 1}, {"id": "b", "x": 2}], "none": null}"#,
        )
        .unwrap();
        assert_eq!(number(&report, "rows.id=b.x"), Ok(Some(2.0)));
        assert_eq!(number(&report, "none"), Ok(None));
        assert_eq!(select(&report, "rows.*.x").unwrap().len(), 2);
        assert!(number(&report, "rows.id=c.x").unwrap_err().contains("matches nothing"));
        assert!(number(&report, "rows.*.x").unwrap_err().contains("2 values"));
        assert_eq!(select(&report, "none.x"), Err("`none.x` missing".into()));
        assert_eq!(select(&report, "gone.x"), Err("`gone` missing".into()));
        assert_eq!(select(&report, "none.*"), Err("`none.*`: not an array".into()));
    }
}
