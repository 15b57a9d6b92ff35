//! Trace/counter coherence: the event stream and [`SolverStats`] are two
//! views of the same run, recorded at the same increment sites — these
//! tests assert they reconcile **exactly**, sequential and parallel,
//! racing and deterministic. A drifting count means an emission site
//! moved away from its counter (or a counter gained a second increment
//! path the trace does not see).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use pbo_core::{Instance, InstanceBuilder, Lit, RelOp};
use pbo_trace::{Event, TraceEvent, LS_LANE_BASE};

use crate::par::tests::{dense_instance, workers_searched};
use crate::{
    Bsolo, BsoloOptions, LbMethod, ParBsolo, Portfolio, PortfolioOptions, SolveStrategy,
    SolverStats,
};

/// Random optimization instance (the solver_tests generator shape).
fn random_instance(rng: &mut ChaCha8Rng, n_max: usize) -> Instance {
    let n = rng.gen_range(4..=n_max);
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    let m = rng.gen_range(3..10);
    for _ in 0..m {
        let k = rng.gen_range(1..=3.min(n));
        let mut idxs: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idxs.swap(i, j);
        }
        let terms: Vec<(i64, Lit)> = idxs[..k]
            .iter()
            .map(|&i| (rng.gen_range(1..4), vars[i].lit(rng.gen_bool(0.75))))
            .collect();
        let maxw: i64 = terms.iter().map(|t| t.0).sum();
        let rhs = rng.gen_range(1..=maxw);
        b.add_linear(terms, RelOp::Ge, rhs);
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(0..6), v.lit(rng.gen_bool(0.85)))));
    b.build().unwrap()
}

/// Event-side tallies of everything the stats side also counts.
#[derive(Default, Debug, PartialEq, Eq)]
struct Tally {
    decisions: u64,
    conflicts: u64,
    restarts: u64,
    solutions: u64,
    resplits: u64,
    bound_calls: u64,
    /// Bound calls whose outcome closed the node (pruned or infeasible).
    bound_prunes: u64,
}

/// Tallies `events`, asserting that every bound call ran `method`.
fn tally(events: &[Event], method: LbMethod, label: &str) -> Tally {
    let mut t = Tally::default();
    // LS lanes carry the local search's own incumbents and restarts,
    // which the branch-and-bound counters do not include.
    for ev in events.iter().filter(|e| e.lane < LS_LANE_BASE) {
        match ev.data {
            TraceEvent::Bound { method: ran, outcome, .. } => {
                assert_eq!(ran, method.name(), "{label}: a bound event names another method");
                t.bound_calls += 1;
                t.bound_prunes += u64::from(outcome != pbo_trace::BoundOutcome::Open);
            }
            TraceEvent::Decision => t.decisions += 1,
            // The splitter's lookahead decisions are recorded in bulk.
            TraceEvent::SplitterDecisions { n } => t.decisions += n,
            TraceEvent::Conflict => t.conflicts += 1,
            TraceEvent::Restart => t.restarts += 1,
            TraceEvent::Solution { .. } => t.solutions += 1,
            TraceEvent::Resplit { .. } => t.resplits += 1,
            _ => {}
        }
    }
    t
}

fn assert_coherent(label: &str, stats: &SolverStats) {
    let t = tally(&stats.trace, stats.lb_method, label);
    assert_eq!(t.decisions, stats.decisions, "{label}: decisions");
    assert_eq!(t.conflicts, stats.conflicts, "{label}: conflicts");
    assert_eq!(t.restarts, stats.restarts, "{label}: restarts");
    assert_eq!(t.solutions, stats.solutions_found, "{label}: solutions");
    assert_eq!(t.resplits, stats.resplits, "{label}: resplits");
    // Every closing bound outcome is one bound conflict, also after the
    // parallel join has absorbed every worker's stats.
    assert_eq!(t.bound_calls, stats.lb_calls, "{label}: bound calls");
    assert_eq!(t.bound_prunes, stats.bound_conflicts, "{label}: closing bound outcomes");
}

fn traced(lb: LbMethod) -> BsoloOptions {
    let mut options = BsoloOptions::with_lb(lb);
    options.trace = true;
    options
}

#[test]
fn sequential_trace_counts_match_stats() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7c0e);
    for round in 0..15 {
        let inst = random_instance(&mut rng, 9);
        for lb in [LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
            let result = Bsolo::new(traced(lb)).solve(&inst);
            // A root-level proof (preprocessing infeasibility) can be
            // event-free; a run that searched must have traced it.
            if result.stats.decisions > 0 || result.stats.lb_calls > 0 {
                assert!(!result.stats.trace.is_empty(), "round {round} {lb:?}: empty trace");
            }
            assert_coherent(&format!("round {round} {lb:?}"), &result.stats);
        }
    }
}

#[test]
fn trace_off_records_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0ff);
    let inst = random_instance(&mut rng, 8);
    let result = Bsolo::new(BsoloOptions::with_lb(LbMethod::Mis)).solve(&inst);
    assert!(result.stats.trace.is_empty(), "default options must not buffer events");
    let par = ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), 4).solve(&inst);
    assert!(par.stats.trace.is_empty(), "parallel default must not buffer events");
}

#[test]
fn parallel_racing_trace_counts_match_stats() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a8a);
    for round in 0..10 {
        let inst = random_instance(&mut rng, 9);
        for threads in [2usize, 4] {
            // Lpr adds the LP trail mirror and the Farkas path to the
            // MIS kernel's per-worker accounting.
            for lb in [LbMethod::Mis, LbMethod::Lpr] {
                let result = ParBsolo::new(traced(lb), threads).solve(&inst);
                assert_coherent(&format!("round {round} {lb:?} x{threads}"), &result.stats);
            }
        }
    }
}

#[test]
fn deterministic_join_trace_is_reproducible_and_coherent() {
    // Instances the head start cannot finish, so the trace covers the
    // one worker's cube tasks and their re-splits.
    let mut rng = ChaCha8Rng::seed_from_u64(0xde7);
    let mut resplit = false;
    for round in 0..2 {
        let inst = dense_instance(&mut rng, 32);
        // Lpr rides along: its bound margins (via stable_key) must
        // reproduce run-to-run like every other event payload.
        for lb in [LbMethod::Mis, LbMethod::Lpr] {
            let mut options = traced(lb);
            options.deterministic_join = true;
            options.resplit_conflicts = 2;
            for threads in [2usize, 8] {
                let label = format!("round {round} {lb:?} x{threads}");
                let a = ParBsolo::new(options.clone(), threads).solve(&inst);
                let b = ParBsolo::new(options.clone(), threads).solve(&inst);
                assert_coherent(&format!("{label} det run a"), &a.stats);
                assert_coherent(&format!("{label} det run b"), &b.stats);
                assert!(workers_searched(&a.stats), "{label}: {:?}", a.stats.nodes_per_worker);
                resplit |= a.stats.resplits > 0;
                // The wall-clock-free view of the event sequence — kind,
                // lane and payload in emission order — must be a pure
                // function of instance + options, like every other
                // deterministic-mode output.
                let ka: Vec<String> = a.stats.trace.iter().map(Event::stable_key).collect();
                let kb: Vec<String> = b.stats.trace.iter().map(Event::stable_key).collect();
                assert_eq!(ka, kb, "{label}: event sequence drifted between runs");
            }
        }
    }
    assert!(resplit, "no round re-split a cube");
}

#[test]
fn single_thread_parallel_trace_matches_sequential_trace() {
    // One worker delegates to the sequential solver; the event sequence
    // (stable view) must be identical, not merely the counters.
    let mut rng = ChaCha8Rng::seed_from_u64(0x111);
    for round in 0..8 {
        let inst = random_instance(&mut rng, 9);
        let seq = Bsolo::new(traced(LbMethod::Mis)).solve(&inst);
        let par = ParBsolo::new(traced(LbMethod::Mis), 1).solve(&inst);
        let ks: Vec<String> = seq.stats.trace.iter().map(Event::stable_key).collect();
        let kp: Vec<String> = par.stats.trace.iter().map(Event::stable_key).collect();
        assert_eq!(ks, kp, "round {round}: 1-worker trace differs from sequential");
    }
}

#[test]
fn adoption_is_an_adopt_event_not_a_solution() {
    // Seed the cell with the optimum: the solver adopts it (Adopt event,
    // solutions_found untouched) instead of discovering it (Solution).
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(3);
    b.add_clause([v[0].positive(), v[1].positive()]);
    b.add_clause([v[1].positive(), v[2].positive()]);
    b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
    let inst = b.build().unwrap();
    let optimum = pbo_core::brute_force(&inst);
    let witness = match optimum {
        pbo_core::BruteForceResult::Optimal { witness, .. } => witness,
        pbo_core::BruteForceResult::Infeasible => unreachable!(),
    };
    let cost = pbo_core::verify_solution(&inst, &witness).unwrap();
    let cell = crate::IncumbentCell::new();
    cell.offer(cost, &witness);
    let result = Bsolo::new(traced(LbMethod::Mis)).solve_with_cell(&inst, Some(&cell));
    let adopts =
        result.stats.trace.iter().filter(|e| matches!(e.data, TraceEvent::Adopt { .. })).count();
    assert!(adopts >= 1, "adoption must be traced");
    assert_coherent("adoption", &result.stats);
}

#[test]
fn ls_seeded_trace_shares_the_portfolio_epoch() {
    // When the default walks, then searches (on one core, and on any
    // number of cores under `deterministic_join`), the seed phase runs
    // before the branch-and-bound, so on the one
    // portfolio clock every seed-phase event (an LS lane, stamped within
    // `ls_time`) must precede the first B&B event. Polish walks trace on
    // LS lanes too, but only once the branch-and-bound runs.
    let inst = pbo_benchgen::PtlCmosParams { gates: 24, ..Default::default() }.generate(0);
    for bb_threads in [1usize, 2] {
        let options = PortfolioOptions {
            strategy: SolveStrategy::LsSeeded,
            bsolo: traced(LbMethod::Lpr),
            bb_threads,
            ..PortfolioOptions::default()
        };
        let cell = crate::IncumbentCell::new();
        let result =
            Portfolio::new(options).walk_then_search(&inst, &cell, std::time::Instant::now());
        let ls_time = result.stats.ls_time.as_nanos() as u64;
        let (ls, exact): (Vec<&Event>, Vec<&Event>) =
            result.stats.trace.iter().partition(|e| e.lane >= LS_LANE_BASE);
        let seed: Vec<u64> = ls.iter().map(|e| e.t_ns).filter(|&t| t <= ls_time).collect();
        assert!(!seed.is_empty(), "x{bb_threads}: the seed phase was traced");
        assert!(!exact.is_empty(), "x{bb_threads}: the branch-and-bound was traced");
        let first_exact = exact.iter().map(|e| e.t_ns).min().unwrap();
        let last_seed = seed.iter().copied().max().unwrap();
        assert!(
            first_exact >= last_seed,
            "x{bb_threads}: B&B event at {first_exact} ns precedes seed event at {last_seed} ns"
        );
        assert_coherent(&format!("ls-seeded x{bb_threads}"), &result.stats);
    }
}
