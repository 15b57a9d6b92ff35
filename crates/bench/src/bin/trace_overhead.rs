//! `trace_overhead`: the no-op-sink overhead gate behind PR 7's
//! "observability is free when off" claim.
//!
//! For each Table-1 synthesis seed the harness scripts one deterministic
//! branch-and-bound-shaped trail walk (the `bound_kernels` shape:
//! batched applies, random backjumps, a MIS bound per node) and replays
//! it through two variants in the same process:
//!
//! * **plain** — the bare per-node loop, no telemetry code at all;
//! * **traced-off** — the identical loop plus the emission the
//!   `BoundPipeline` performs per bound call, routed through the
//!   disabled [`Tracer::off`] sink (a single `None` check per site).
//!
//! Because both variants run interleaved on the same machine in the
//! same process, the ratio is machine-independent enough to gate in CI:
//! traced-off node throughput must stay **>= 0.97x** of plain (i.e. the
//! disabled emission path costs at most ~3%, which is measurement noise
//! — the branch itself is sub-nanosecond). Outcome checksums are
//! asserted equal, so the two variants provably do the same work.
//!
//! ```text
//! cargo run --release -p pbo-bench --bin trace_overhead -- \
//!     [--seeds N] [--nodes N] [--reps N] [--min-ratio R] [--json PATH]
//! ```
//!
//! Exit status 0 = within the gate, 1 = overhead regression.

use std::time::Instant;

use pbo_bench::{family_instances, json::escape};
use pbo_bounds::{LbOutcome, LowerBound, MisBound, ResidualState};
use pbo_core::{Assignment, Instance, Lit, Var};
use pbo_solver::{LocalSearch, LsOptions};
use pbo_trace::{BoundOutcome, TraceEvent, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One step of the scripted walk.
enum Op {
    /// Apply these literals (all unassigned at this point), then bound.
    Apply(Vec<Lit>),
    /// Unwind the trail back to this length.
    UnwindTo(usize),
}

/// Scripts a deterministic B&B-shaped walk (same generator as
/// `bound_kernels`, seeded differently so the two benches don't share a
/// script by accident).
fn make_script(instance: &Instance, seed: u64, nodes: usize) -> Vec<Op> {
    let n = instance.num_vars();
    let mut rng = ChaCha8Rng::seed_from_u64(0x7ace ^ seed);
    let mut assigned = vec![false; n];
    let mut trail: Vec<Var> = Vec::new();
    let mut marks: Vec<usize> = Vec::new();
    let mut ops = Vec::new();
    let mut applied_nodes = 0;
    while applied_nodes < nodes {
        let deep = trail.len() > (3 * n) / 4;
        if !marks.is_empty() && (deep || rng.gen_bool(0.3)) {
            let k = rng.gen_range(0..marks.len());
            let target = marks[k];
            marks.truncate(k);
            while trail.len() > target {
                assigned[trail.pop().expect("trail").index()] = false;
            }
            ops.push(Op::UnwindTo(target));
            continue;
        }
        let batch_size = rng.gen_range(1..=4usize.min(n - trail.len()).max(1));
        let mut batch = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let free: Vec<usize> = (0..n).filter(|&v| !assigned[v]).collect();
            if free.is_empty() {
                break;
            }
            let v = free[rng.gen_range(0..free.len())];
            assigned[v] = true;
            trail.push(Var::new(v));
            batch.push(Var::new(v).lit(rng.gen_bool(0.5)));
        }
        if batch.is_empty() {
            marks.clear();
            while let Some(v) = trail.pop() {
                assigned[v.index()] = false;
            }
            ops.push(Op::UnwindTo(0));
            continue;
        }
        marks.push(trail.len() - batch.len());
        ops.push(Op::Apply(batch));
        applied_nodes += 1;
    }
    ops.push(Op::UnwindTo(0));
    ops
}

/// Replays the script; when `tracer` is given, the loop also performs
/// the `BoundPipeline`-shaped emission after every bound call (the
/// traced-off variant passes `Tracer::off`). Returns elapsed nanoseconds
/// and the outcome checksum.
#[allow(clippy::too_many_arguments)]
fn replay(
    instance: &Instance,
    script: &[Op],
    upper: i64,
    state: &mut ResidualState,
    mis: &mut MisBound,
    out: &mut LbOutcome,
    assignment: &mut Assignment,
    mirror: &mut Vec<Lit>,
    tracer: Option<&Tracer>,
) -> (u64, i64) {
    let mut checksum = 0i64;
    let start = Instant::now();
    for op in script {
        match op {
            Op::Apply(batch) => {
                for &lit in batch {
                    assignment.assign_lit(lit);
                    mirror.push(lit);
                    state.apply(instance, lit);
                }
                let view = state.view(instance, assignment);
                mis.lower_bound_into(&view, Some(upper), out);
                checksum = checksum.wrapping_add(if out.infeasible { -1 } else { out.bound });
                if let Some(tracer) = tracer {
                    tracer.emit(TraceEvent::Bound {
                        method: "mis",
                        outcome: if out.infeasible {
                            BoundOutcome::Infeasible
                        } else {
                            BoundOutcome::Open
                        },
                        margin: out.bound,
                        dur_ns: 0,
                    });
                }
            }
            Op::UnwindTo(len) => {
                while mirror.len() > *len {
                    assignment.unassign(mirror.pop().expect("mirror").var());
                }
                state.unwind_to(instance, *len);
            }
        }
    }
    (start.elapsed().as_nanos() as u64, checksum)
}

struct InstanceResult {
    instance: String,
    nodes: usize,
    plain_ns_per_node: f64,
    traced_off_ns_per_node: f64,
    ratio: f64,
}

fn main() {
    let mut seeds = 3u64;
    let mut nodes = 400usize;
    let mut reps = 7usize;
    let mut min_ratio = 0.97f64;
    let mut json_path = String::from("BENCH_trace_overhead.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => seeds = args.next().expect("--seeds").parse().expect("bad seeds"),
            "--nodes" => nodes = args.next().expect("--nodes").parse().expect("bad nodes"),
            "--reps" => reps = args.next().expect("--reps").parse().expect("bad reps"),
            "--min-ratio" => {
                min_ratio = args.next().expect("--min-ratio").parse().expect("bad ratio")
            }
            "--json" => json_path = args.next().expect("--json"),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    println!(
        "trace_overhead: {seeds} synthesis seeds, {nodes} nodes/walk, best of {reps} reps, \
         gate >= {min_ratio:.2}x"
    );

    let instances = family_instances("synthesis", seeds);
    let off = Tracer::off();
    let mut results = Vec::new();
    for (seed, instance) in instances.iter().enumerate() {
        let ls = LocalSearch::new(instance, LsOptions::default().max_steps(20_000)).run(None, None);
        let upper = ls.best_cost.unwrap_or_else(|| {
            instance.objective().map_or(1, |o| o.terms().iter().map(|&(c, _)| c).sum())
        });
        let script = make_script(instance, seed as u64, nodes);
        let node_count = script.iter().filter(|op| matches!(op, Op::Apply(_))).count();

        let mut state = ResidualState::new(instance);
        let mut mis = MisBound::new();
        let mut out = LbOutcome::bound(0, Vec::new());
        let mut assignment = Assignment::new(instance.num_vars());
        let mut mirror: Vec<Lit> = Vec::new();

        // Warm-up + agreement between the two variants.
        let (_, plain_sum) = replay(
            instance,
            &script,
            upper,
            &mut state,
            &mut mis,
            &mut out,
            &mut assignment,
            &mut mirror,
            None,
        );
        let (_, traced_sum) = replay(
            instance,
            &script,
            upper,
            &mut state,
            &mut mis,
            &mut out,
            &mut assignment,
            &mut mirror,
            Some(&off),
        );
        assert_eq!(plain_sum, traced_sum, "variants disagree on {}", instance.name());

        // Interleaved measurement, best-of-N per side.
        let mut best_plain = u64::MAX;
        let mut best_traced = u64::MAX;
        for _ in 0..reps {
            let (tp, sp) = replay(
                instance,
                &script,
                upper,
                &mut state,
                &mut mis,
                &mut out,
                &mut assignment,
                &mut mirror,
                None,
            );
            let (tt, st) = replay(
                instance,
                &script,
                upper,
                &mut state,
                &mut mis,
                &mut out,
                &mut assignment,
                &mut mirror,
                Some(&off),
            );
            assert_eq!(sp, plain_sum, "plain outcome drifted");
            assert_eq!(st, plain_sum, "traced-off outcome drifted");
            best_plain = best_plain.min(tp);
            best_traced = best_traced.min(tt);
        }
        let plain = best_plain as f64 / node_count as f64;
        let traced = best_traced as f64 / node_count as f64;
        // Throughput ratio: traced-off nodes/s over plain nodes/s.
        let ratio = plain / traced;
        println!(
            "{:<24} {:>6} nodes | plain {:>8.0} ns/node | traced-off {:>8.0} ns/node | {:.3}x",
            instance.name(),
            node_count,
            plain,
            traced,
            ratio
        );
        results.push(InstanceResult {
            instance: instance.name().to_string(),
            nodes: node_count,
            plain_ns_per_node: plain,
            traced_off_ns_per_node: traced,
            ratio,
        });
    }

    let geomean =
        (results.iter().map(|r| r.ratio.ln()).sum::<f64>() / results.len().max(1) as f64).exp();
    println!("geomean traced-off throughput ratio: {geomean:.3}x (gate >= {min_ratio:.2}x)");

    let mut outjson = String::new();
    outjson.push_str("{\n  \"instances\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        outjson.push_str(&format!(
            "    {{\"instance\": \"{}\", \"nodes\": {}, \"plain_ns_per_node\": {:.1}, \
             \"traced_off_ns_per_node\": {:.1}, \"ratio\": {:.4}}}{comma}\n",
            escape(&r.instance),
            r.nodes,
            r.plain_ns_per_node,
            r.traced_off_ns_per_node,
            r.ratio
        ));
    }
    outjson.push_str(&format!(
        "  ],\n  \"geomean_ratio\": {geomean:.4},\n  \"min_ratio_gate\": {min_ratio:.4}\n}}\n"
    ));
    match std::fs::write(&json_path, &outjson) {
        Ok(()) => println!("wrote {json_path}"),
        Err(err) => {
            eprintln!("failed to write {json_path}: {err}");
            std::process::exit(1);
        }
    }
    if geomean < min_ratio {
        eprintln!("REGRESSION: traced-off throughput {geomean:.3}x below the {min_ratio:.2}x gate");
        std::process::exit(1);
    }
}
