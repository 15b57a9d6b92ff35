//! Compares two `BENCH_table1.json` reports and fails on perf
//! regressions (node throughput, solved-instance wall time).
//!
//! ```text
//! cargo run --release -p pbo-bench --bin bench_compare -- \
//!     benches/snapshots/BENCH_table1_pr2.json BENCH_table1.json \
//!     [--min-throughput-ratio 0.1] [--max-time-ratio 10.0]
//! ```
//!
//! Exit status 0 = within the gates, 1 = regression, 2 = usage/IO error.
//! The gates are coarse on purpose (see `pbo_bench::compare`): they trip
//! on order-of-magnitude collapses, not machine-to-machine noise.

use std::process::ExitCode;

use pbo_bench::compare::{compare, evaluate, evaluate_anytime, Gate};
use pbo_bench::parse::parse;

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare <baseline.json> <current.json> \
         [--min-throughput-ratio R] [--max-time-ratio R]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> pbo_bench::parse::JsonValue {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let mut gate = Gate::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-throughput-ratio" => {
                gate.min_throughput_ratio =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--max-time-ratio" => {
                gate.max_time_ratio =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => usage(),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else { usage() };
    let baseline = load(baseline_path);
    let current = load(current_path);
    let comparison = compare(&baseline, &current);
    println!(
        "compared {} cells: node-throughput ratio {} (gate >= {:.3}), \
         solved wall-time ratio {} (gate <= {:.3})",
        comparison.common_cells,
        comparison.throughput_ratio.map_or("-".into(), |r| format!("{r:.3}")),
        gate.min_throughput_ratio,
        comparison.time_ratio.map_or("-".into(), |r| format!("{r:.3}")),
        gate.max_time_ratio,
    );
    let mut violations = evaluate(&comparison, gate);
    // Anytime dominance: the current portfolio curve must not be
    // dominated by the baseline's final (time, cost) point.
    let anytime = evaluate_anytime(&baseline, &current);
    println!("anytime gate: {} violation(s) against the baseline portfolio curve", anytime.len());
    violations.extend(anytime);
    if violations.is_empty() {
        println!("OK: no regression vs {baseline_path}");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        ExitCode::FAILURE
    }
}
