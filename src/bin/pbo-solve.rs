//! Command-line PBO solver over OPB files.
//!
//! ```text
//! pbo-solve [--lb plain|mis|lgr|lpr] [--strategy ls-seeded|exact]
//!           [--bb-threads N|auto] [--deterministic]
//!           [--timeout-ms N] [--stats] [--stats-json]
//!           [--trace FILE] [--trace-format jsonl|chrome] [--metrics] <file.opb>
//! cargo run --release --bin pbo-solve -- instance.opb
//! ```
//!
//! Every solve runs through the portfolio ([`pbo::Portfolio`]). The
//! default strategy, `ls-seeded`, combines a stochastic local search
//! with the branch-and-bound in one of two orders. On an optimization
//! instance, on a machine with a second core and without
//! `--deterministic`, one local-search thread races the
//! branch-and-bound for the whole solve, incumbents flowing both ways;
//! such runs are timing dependent. Otherwise the local search runs
//! first, until two 8,192-step chunks in a row bring no new incumbent:
//! its best verified solution seeds the branch-and-bound's upper bound
//! and eq. 10 cost cuts, and on a decision instance its first verified
//! model is the answer (no branch-and-bound runs at all). On an
//! optimization instance every improving solution the branch-and-bound
//! finds is then polished by a 2,048-step walk from it, and the search
//! adopts what the walk finds cheaper; this order is deterministic, and
//! `--deterministic` or a one-core machine (`taskset -c 0`) selects it.
//! Under `--timeout-ms` the default is the anytime mode — a good
//! verified solution fast, then proof effort with whatever time remains
//! (a seed phase takes at most a fifth of the budget). `--strategy
//! exact` is the paper's solver: branch-and-bound only, no local
//! search.
//!
//! `--bb-threads N` runs the exact side as a cube-split parallel
//! branch-and-bound: the root is split into decision-literal cubes and
//! N workers solve the subtrees over the shared term arena, racing
//! incumbents (and eq. 10–13 cost cuts) through the shared cell; with
//! `--strategy exact` this is pure parallel B&B, and `--bb-threads 1`
//! (the default) is bit-identical to the sequential solver. The flag
//! accepts `auto` (or `0`): the count resolves to the machine's
//! available parallelism, and the resolved value is reported in
//! `--stats-json`. Workers re-split long-running cubes back onto the
//! shared cube queue; `--deterministic` trades the incumbent racing for
//! reproducibility (private incumbent snapshots, fixed re-split
//! schedule, cube-ordered join) so repeated runs report identical
//! status, cost, model and counters — for the default strategy too,
//! which then walks, then searches, with a step-bounded seed phase, as
//! long as the solve finishes within its budget: under `--timeout-ms`
//! the seed phase's wall-clock cap (a fifth of the budget) can cut it
//! short at a different step.
//!
//! Output follows the pseudo-Boolean competition conventions:
//! `s OPTIMUM FOUND` / `s SATISFIABLE` / `s UNSATISFIABLE` /
//! `s UNKNOWN`, `o <cost>` for the objective and `v <literals>` for the
//! model.
//!
//! Observability: `--trace FILE` records the structured event stream
//! (decisions, conflicts, bound calls, incumbents, cube lifecycle) of
//! every worker and writes it when the solve ends, before the `s` line:
//! one JSON object per line by default, or a Chrome `trace_event` file
//! (`--trace-format chrome`, open in Perfetto / `chrome://tracing`, one
//! lane per worker).
//! `--metrics` prints event-derived counters and duration histograms as
//! `c`-prefixed comment lines; `--stats-json` prints the merged
//! [`pbo::SolverStats`] as one JSON object on stdout (machine-readable
//! companion of `--stats`), extended with a `status` field (`optimal` /
//! `infeasible` / `feasible_budget` / `feasible_degraded` / `cancelled`
//! / `unknown`) and a `degraded` flag (true when any worker was lost or
//! any cube quarantined) so service callers never parse the human text.
//!
//! Exit codes follow the PB-competition convention and always match the
//! `s` line: 30 optimum found, 10 satisfiable (a decision instance
//! solved, or an optimization instance feasible but unproven — budget,
//! degradation or cancellation), 20 unsatisfiable, 0 unknown, 2 usage or
//! input error. A `--trace` file that cannot be created is an input
//! error, reported before any solving and without an `s` line.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use pbo::pbo_trace::{write_chrome, write_jsonl, MetricsRegistry};
use pbo::{
    parse_opb, BsoloOptions, Budget, LbMethod, Portfolio, PortfolioOptions, SolveStatus,
    SolveStrategy,
};

fn usage() -> ! {
    eprintln!(
        "usage: pbo-solve [--lb plain|mis|lgr|lpr] [--strategy ls-seeded|exact] \
         [--bb-threads N|auto] [--deterministic] [--timeout-ms N] [--stats] [--stats-json] \
         [--trace FILE] [--trace-format jsonl|chrome] [--metrics] <file.opb>\n\
         \n  --strategy ls-seeded  (default) on an optimization instance with a second\
         \n                        core, a local-search thread races the branch-and-bound;\
         \n                        otherwise local search seeds the branch-and-bound and\
         \n                        polishes each incumbent it finds\
         \n  --strategy exact      the paper's solver: branch-and-bound only\
         \n  --deterministic       reproducible runs (the default then always seeds) when\
         \n                        the solve finishes within its budget (under\
         \n                        --timeout-ms the seed phase's budget/5 wall-clock\
         \n                        cap can end it at a different step)"
    );
    std::process::exit(2);
}

/// `N` (≥ 1) taken as-is, `auto` or `0` as the auto sentinel (resolved
/// through [`PortfolioOptions::resolve_threads`] after parsing).
fn parse_threads(v: String) -> Option<usize> {
    if v == "auto" {
        return Some(0);
    }
    v.parse().ok()
}

/// Trace export format selected by `--trace-format`.
#[derive(Copy, Clone, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

fn main() -> ExitCode {
    let mut lb = LbMethod::Lpr;
    let mut strategy = SolveStrategy::default();
    let mut bb_threads = 1usize;
    let mut deterministic = false;
    let mut timeout: Option<u64> = None;
    let mut stats = false;
    let mut stats_json = false;
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut metrics = false;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bb-threads" => {
                bb_threads = args.next().and_then(parse_threads).unwrap_or_else(|| usage())
            }
            "--lb" => {
                lb = match args.next().as_deref() {
                    Some("plain") => LbMethod::None,
                    Some("mis") => LbMethod::Mis,
                    Some("lgr") => LbMethod::Lagrangian,
                    Some("lpr") => LbMethod::Lpr,
                    _ => usage(),
                }
            }
            "--strategy" => {
                strategy = match args.next().as_deref() {
                    Some("exact") => SolveStrategy::Exact,
                    Some("ls-seeded") => SolveStrategy::LsSeeded,
                    _ => usage(),
                }
            }
            "--timeout-ms" => {
                timeout = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--deterministic" => deterministic = true,
            "--stats" => stats = true,
            "--stats-json" => stats_json = true,
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => {
                trace_format = match args.next().as_deref() {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("chrome") => TraceFormat::Chrome,
                    _ => usage(),
                }
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    // Resolve `auto` (0) once, up front, so the banner and
    // `--stats-json` report the same concrete count.
    let bb_threads = PortfolioOptions::resolve_threads(bb_threads);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let instance = match parse_opb(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Create the trace file before solving: an unwritable path is an
    // input error (exit 2, no `s` line), not a finding after the solve.
    let mut trace_out = match trace_path.as_deref() {
        Some(out) => match std::fs::File::create(out) {
            Ok(file) => Some((file, out)),
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    println!(
        "c {} vars, {} constraints, lb={}, strategy={}{}",
        instance.num_vars(),
        instance.num_constraints(),
        lb.name(),
        strategy.name(),
        if bb_threads > 1 { format!(", bb-threads={bb_threads}") } else { String::new() }
    );
    let mut options = BsoloOptions::with_lb(lb);
    options.deterministic_join = deterministic;
    // Metrics are derived from the event stream, so either flag turns
    // the per-worker buffers on.
    options.trace = trace_path.is_some() || metrics;
    if let Some(ms) = timeout {
        options = options.budget(Budget::time_limit(Duration::from_millis(ms)));
    }
    let portfolio =
        PortfolioOptions { strategy, bsolo: options, bb_threads, ..PortfolioOptions::default() };
    let result = Portfolio::new(portfolio).solve(&instance);
    // The trace is written before the `s` line, so a failed write still
    // exits 2 without one.
    let mut trace_events = 0;
    if let Some((file, out)) = &mut trace_out {
        // Buffers are merged per worker at join; interleave by timestamp
        // for the export (lane is the tiebreak, so equal stamps are
        // stable across runs).
        let mut events = result.stats.trace.clone();
        events.sort_by_key(|e| (e.t_ns, e.lane));
        let text = match trace_format {
            TraceFormat::Jsonl => write_jsonl(&events),
            TraceFormat::Chrome => write_chrome(&events),
        };
        if let Err(e) = file.write_all(text.as_bytes()) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        trace_events = events.len();
    }
    let (s_line, exit_code) = verdict(result.status, instance.is_optimization());
    println!("s {s_line}");
    if let Some(cost) = result.best_cost {
        if instance.is_optimization() {
            println!("o {cost}");
        }
    }
    if let Some(model) = &result.best_assignment {
        let mut line = String::from("v");
        for (i, &value) in model.iter().enumerate() {
            line.push(' ');
            if !value {
                line.push('-');
            }
            line.push('x');
            line.push_str(&(i + 1).to_string());
        }
        println!("{line}");
    }
    if stats {
        let s = &result.stats;
        println!(
            "c decisions={} conflicts={} bound_conflicts={} lb_calls={} lb_fixings={} lb_time={:.3}s \
             time={:.3}s",
            s.decisions,
            s.conflicts,
            s.bound_conflicts,
            s.lb_calls,
            s.lb_fixings,
            s.lb_time_total.as_secs_f64(),
            s.solve_time.as_secs_f64()
        );
        if bb_threads > 1 {
            println!(
                "c resplits={} depth_truncated={} queue_wait={:.3}s",
                s.resplits,
                s.split_depth_truncated,
                s.queue_wait_total.as_secs_f64()
            );
        }
        if s.nodes_per_worker.len() > 1 {
            let per: Vec<String> = s.nodes_per_worker.iter().map(u64::to_string).collect();
            println!("c nodes_per_worker={}", per.join(","));
        }
    }
    if metrics {
        for line in MetricsRegistry::from_events(&result.stats.trace).render().lines() {
            println!("c {line}");
        }
    }
    if let Some((_, out)) = &trace_out {
        println!("c trace: {trace_events} events written to {out}");
    }
    if stats_json {
        // Splice the resolved thread count into the stats object — it
        // is a solve-level fact the merged stats cannot know (especially
        // under `auto`).
        let mut json = result.stats.to_json();
        debug_assert!(json.ends_with('}'));
        json.pop();
        json.push_str(&format!(
            ",\"bb_threads\":{bb_threads},\"status\":\"{}\",\"degraded\":{}}}",
            result.service_status(),
            result.degraded()
        ));
        println!("{json}");
    }
    ExitCode::from(exit_code)
}

/// The PB-competition `s` line and exit code of a result, from one table
/// so the two always agree. A decision instance solved to completion is
/// `SATISFIABLE` (10), never `OPTIMUM FOUND` (30). Feasible-but-unproven
/// outcomes — budget exhaustion, degradation after a lost worker, or
/// cancellation — also land on 10; the `--stats-json` `status` field
/// carries the finer distinction.
fn verdict(status: SolveStatus, optimization: bool) -> (&'static str, u8) {
    match status {
        SolveStatus::Optimal if optimization => ("OPTIMUM FOUND", 30),
        SolveStatus::Optimal | SolveStatus::Feasible => ("SATISFIABLE", 10),
        SolveStatus::Infeasible => ("UNSATISFIABLE", 20),
        SolveStatus::Unknown => ("UNKNOWN", 0),
    }
}
