//! Checks a `BENCH_table1.json` report: every gate of
//! `pbo_bench::gates::REPORT_GATES` on the report itself, then the
//! node-throughput, wall-time and anytime gates against each baseline.
//!
//! ```text
//! cargo run --release -p pbo-bench --bin bench_compare -- \
//!     benches/snapshots/BENCH_table1_pr7.json benches/snapshots/BENCH_table1_pr8.json \
//!     benches/snapshots/BENCH_table1_pr10.json BENCH_table1.json
//! ```
//!
//! Every path before the last is a baseline; the last is the current
//! report. Exit status 0 = every gate holds, 1 = regression, 2 =
//! usage/IO error. The baseline gates are coarse on purpose (see
//! `pbo_bench::compare`): they trip on order-of-magnitude collapses, not
//! machine-to-machine noise.

use std::process::ExitCode;

use pbo_bench::compare::{
    compare, evaluate, evaluate_anytime, MAX_TIME_RATIO, MIN_THROUGHPUT_RATIO,
};
use pbo_bench::gates::check_report;
use pbo_bench::parse::{parse, JsonValue};

fn usage() -> ! {
    eprintln!("usage: bench_compare <baseline.json>... <current.json>");
    std::process::exit(2);
}

fn load(path: &str) -> JsonValue {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| parse(&text).map_err(|e| format!("{path}: {e}")));
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() < 2 || paths.iter().any(|p| p.starts_with('-')) {
        usage();
    }
    let reports: Vec<JsonValue> = paths.iter().map(|p| load(p)).collect();
    let (current, baselines) = reports.split_last().expect("two or more reports");
    let mut violations = Vec::new();
    println!("report gates on {}:", paths[paths.len() - 1]);
    for verdict in check_report(current) {
        println!("  {} {verdict}", if verdict.passed { "ok  " } else { "FAIL" });
        if !verdict.passed {
            violations.push(verdict.to_string());
        }
    }
    for (path, baseline) in paths.iter().zip(baselines) {
        let comparison = compare(baseline, current);
        println!(
            "vs {path}: compared {} cells: node-throughput ratio {} (gate >= \
             {MIN_THROUGHPUT_RATIO:.3}), solved wall-time ratio {} (gate <= {MAX_TIME_RATIO:.3})",
            comparison.common_cells,
            comparison.throughput_ratio.map_or("-".into(), |r| format!("{r:.3}")),
            comparison.time_ratio.map_or("-".into(), |r| format!("{r:.3}")),
        );
        // Anytime dominance: the current portfolio curve must not be
        // dominated by the baseline's final (time, cost) point.
        let anytime = evaluate_anytime(baseline, current);
        println!("  anytime gate: {} violation(s) against its portfolio curve", anytime.len());
        violations.extend(
            evaluate(&comparison).into_iter().chain(anytime).map(|v| format!("{path}: {v}")),
        );
    }
    if violations.is_empty() {
        println!("OK: every gate holds");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        ExitCode::FAILURE
    }
}
