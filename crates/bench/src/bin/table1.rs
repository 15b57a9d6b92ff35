//! Reproduces Table 1 of the paper: seven solver columns over the four
//! benchmark families, with per-instance budgets. Alongside the textual
//! table it writes `BENCH_table1.json` — per-instance wall time, nodes,
//! lower-bound calls and lower-bound / subproblem-maintenance time —
//! plus the dynamic-rows ablation and the portfolio and par_bb probes,
//! so future PRs have a perf trajectory to compare against.
//!
//! ```text
//! cargo run --release -p pbo-bench --bin table1 -- \
//!     [--family grout|ptlcmos|synthesis|acc|all] \
//!     [--timeout-ms N] [--seeds N] [--json PATH]
//! ```

use std::fs::File;
use std::io::Write as _;

use pbo_bench::parse::serialize;
use pbo_bench::{
    budget_ms, family_instances, format_table, run_dynamic_rows_ablation, run_par_bb_probe,
    run_portfolio_probe, run_table, summarize_par_bb, summarize_portfolio, Report, FAMILIES,
};
use pbo_solver::LbMethod;

fn usage() -> ! {
    eprintln!(
        "usage: table1 [--family grout|ptlcmos|synthesis|acc|all] [--timeout-ms N] [--seeds N] \
         [--json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut family = String::from("all");
    let mut timeout_ms = 5_000u64;
    let mut seeds = 10u64;
    let mut json_path = String::from("BENCH_table1.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--family" => family = args.next().unwrap_or_else(|| usage()),
            "--timeout-ms" => {
                timeout_ms = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seeds" => {
                seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--json" => json_path = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let families: Vec<&str> = match FAMILIES.iter().find(|&&f| f == family) {
        Some(&f) => vec![f],
        None if family == "all" => FAMILIES.to_vec(),
        None => usage(),
    };
    // Claim the report file before any solving, so a path that cannot be
    // written fails at once instead of after the whole run.
    let mut json_file = File::create(&json_path).unwrap_or_else(|err| {
        eprintln!("cannot create {json_path}: {err}");
        std::process::exit(2);
    });
    println!(
        "Reproduction of DATE'05 Table 1 — budget {} ms/instance, {} instances/family",
        timeout_ms, seeds
    );
    println!();
    let mut all_rows = Vec::new();
    let mut family_rows = Vec::new();
    for fam in families {
        println!("== family: {fam} ==");
        let instances = family_instances(fam, seeds);
        let rows = run_table(&instances, budget_ms(timeout_ms));
        print!("{}", format_table(&rows));
        println!();
        all_rows.extend(rows.clone());
        family_rows.push((fam.to_string(), rows));
    }
    if all_rows.len() > seeds as usize {
        println!("== overall ==");
        let counts = pbo_bench::count_solved(&all_rows);
        print!("#Solved of {}: ", all_rows.len());
        for kind in pbo_bench::SolverKind::ALL {
            print!("{}={} ", kind.name(), counts[kind.name()]);
        }
        println!();
        println!();
    }

    // Dynamic-rows ablation on the second Table-1 synthesis instance:
    // the same solve with the learned cost cuts folded into the residual
    // problem (on) vs ignored by the bounds (off) — nodes and per-node
    // bound strength are the gated numbers. A decision budget (not wall
    // clock) keeps both sides deterministic, so the CI gate compares
    // exact node counts, machine speed aside.
    let dyn_rows_budget =
        pbo_solver::Budget { decisions: Some(30_000), ..pbo_solver::Budget::default() };
    let dyn_rows_instance = &family_instances("synthesis", 2)[1];
    let dyn_rows = run_dynamic_rows_ablation(dyn_rows_instance, LbMethod::Mis, dyn_rows_budget);
    println!("== dynamic-rows ablation ({}, {}) ==", dyn_rows.instance, dyn_rows.lb_method);
    println!(
        "rows off: {:>6} nodes | {:>6} lb calls | {:>5} bound conflicts | margin {:>8.2}",
        dyn_rows.off.decisions,
        dyn_rows.off.lb_calls,
        dyn_rows.off.bound_conflicts,
        dyn_rows.off.mean_lb_margin,
    );
    println!(
        "rows on:  {:>6} nodes | {:>6} lb calls | {:>5} bound conflicts | margin {:>8.2}",
        dyn_rows.on.decisions,
        dyn_rows.on.lb_calls,
        dyn_rows.on.bound_conflicts,
        dyn_rows.on.mean_lb_margin,
    );

    // Portfolio probe on Table-1-style synthesis instances: cold
    // bsolo-LPR vs LS-seeded portfolio vs LS alone — the anytime-solving
    // numbers (time-to-target, warm-start node shrinkage, LS gap).
    let probe_instances = family_instances("synthesis", 3);
    let probes = run_portfolio_probe(&probe_instances, budget_ms(timeout_ms), 200_000);
    println!();
    println!("== portfolio probe (synthesis) ==");
    for p in &probes {
        println!(
            "{:<24} target {:>5} | cold {:>8.1} ms / {:>6} nodes | \
             warm-to-target {:>8} ms / {:>6} nodes | ls {:>5} ({:>6} gap)",
            p.instance,
            p.target_cost.map_or("-".into(), |c| c.to_string()),
            p.exact_time.as_secs_f64() * 1e3,
            p.exact_nodes,
            p.warm_time_to_target.map_or("-".into(), |d| format!("{:.1}", d.as_secs_f64() * 1e3)),
            p.warm_nodes,
            p.ls_cost.map_or("-".into(), |c| c.to_string()),
            p.ls_gap.map_or("-".into(), |g| format!("{:.1}%", g * 100.0)),
        );
    }
    print!("summary: {}", serialize(&summarize_portfolio(&probes)));

    // Parallel-exact scaling probe: the cube-split pool at 1/2/4/8
    // workers on the two hardest synthesis seeds — ranked by sequential
    // tree size over a wider seed pool, because parallel search only
    // pays off on trees worth splitting (see `run_par_bb_probe`).
    const PAR_BB_WORKERS: &[usize] = &[1, 2, 4, 8];
    const PAR_BB_POOL_SEEDS: u64 = 8;
    let par_bb_pool = family_instances("synthesis", PAR_BB_POOL_SEEDS);
    // 40x the per-cell budget: the probe must let every run *finish*
    // (MIS proves optimality on every pool seed in roughly a second) —
    // the gate is about proven optima and complete trees, not budget
    // truncation.
    let par_bb = run_par_bb_probe(&par_bb_pool, budget_ms(40 * timeout_ms), PAR_BB_WORKERS, 2);
    println!();
    println!("== par_bb scaling (synthesis, workers {PAR_BB_WORKERS:?}) ==");
    for p in &par_bb {
        println!("{}:", p.instance);
        let base_time = p.runs.first().map(|r| r.time.as_secs_f64());
        for r in &p.runs {
            let speedup = match base_time {
                Some(b) if r.time.as_secs_f64() > 0.0 => {
                    format!("{:.2}x", b / r.time.as_secs_f64())
                }
                _ => "-".into(),
            };
            println!(
                "  {:>2} workers: {:>8.1} ms ({:>6}) / {:>6} nodes ({}) | resplits {:>3} \
                 | depth-trunc {:>2} | wait {:>6.1} ms",
                r.workers,
                r.time.as_secs_f64() * 1e3,
                speedup,
                r.nodes,
                r.cost.map_or("-".into(), |c| c.to_string()),
                r.resplits,
                r.depth_truncated,
                r.queue_wait.as_secs_f64() * 1e3,
            );
        }
    }
    print!("summary: {}", serialize(&summarize_par_bb(&par_bb)));

    let report = Report {
        budget_ms: timeout_ms,
        seeds,
        families: family_rows,
        dynamic_rows: Some(dyn_rows),
        portfolio: probes,
        par_bb,
    };
    match json_file.write_all(serialize(&report.to_json()).as_bytes()) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(err) => {
            eprintln!("failed to write {json_path}: {err}");
            std::process::exit(1);
        }
    }
}
