//! ParLS-PBO-style diversified local-search worker pool.
//!
//! ParLS-PBO's observation is that the anytime side of a PBO portfolio
//! scales near-linearly with *diversified* local-search workers sharing
//! one incumbent: each worker walks the same instance with a different
//! seed, noise level and restart cadence, and the shared
//! [`IncumbentCell`] keeps the best verified solution any of them found.
//! The instance's flat [`TermArena`](pbo_core::TermArena) is read-only
//! and borrowed by every [`LocalSearch`], so a pool of N workers shares
//! one copy of the term and occurrence data — spawning a worker costs
//! per-worker counters only.
//!
//! Two drivers are provided:
//!
//! * [`run_pool_racing`] — live sharing: every worker publishes each
//!   verified improvement to the cell and re-seeds its restarts from
//!   external improvements, until a stop flag is raised. This is what
//!   `Portfolio::Concurrent` runs against the exact solver.
//! * [`run_pool_steps`] — the deterministic probe: workers run
//!   *independently* under a fixed step budget (no mid-run exchange) and
//!   the pool result is the best worker result. Because worker 0 runs
//!   the base options verbatim, the pool is **never worse than a single
//!   worker with the same seed** — the property the `parls` benchmark
//!   gate asserts — and the outcome is bit-reproducible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use pbo_core::Instance;
use pbo_trace::{Event, TraceEvent, Tracer, LS_LANE_BASE};

use crate::cell::IncumbentCell;
use crate::search::{LocalSearch, LsOptions, LsStats};

/// Derives worker `worker`'s diversified configuration from `base`.
///
/// Worker 0 is `base` verbatim (so a 1-worker pool is exactly the
/// single-engine behaviour); later workers get a seed derived by a
/// fixed splitmix-style odd multiplier, progressively higher noise
/// (capped), and a staggered restart cadence — the ParLS-PBO recipe of
/// "same engine, different trajectory".
pub fn diversified_options(base: &LsOptions, worker: usize) -> LsOptions {
    if worker == 0 {
        return base.clone();
    }
    let w = worker as u64;
    LsOptions {
        seed: base.seed ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        noise: (base.noise * (1.0 + 0.4 * worker as f64)).min(0.5),
        restart_interval: base.restart_interval + (w * base.restart_interval) / 4,
        ..base.clone()
    }
}

/// Result of a deterministic pool run ([`run_pool_steps`]).
#[derive(Clone, Debug)]
pub struct PoolResult {
    /// Cost of the best verified solution any worker found.
    pub best_cost: Option<i64>,
    /// The best verified solution itself.
    pub best_model: Option<Vec<bool>>,
    /// Per-worker effort counters, indexed by worker.
    pub worker_stats: Vec<LsStats>,
    /// Per-worker best costs, indexed by worker (worker 0 == the
    /// single-engine baseline).
    pub worker_costs: Vec<Option<i64>>,
    /// Workers that died (panicked) during the run; their slots carry
    /// default stats and no cost. Always 0 unless a fault was injected
    /// or an engine bug fired.
    pub workers_lost: u64,
}

/// Runs `workers` diversified engines **independently** for `max_steps`
/// steps each and returns the best result (ties break toward the lowest
/// worker index). Deterministic: no mid-run exchange, every worker's
/// walk depends only on its derived seed.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_pool_steps(
    instance: &Instance,
    base: &LsOptions,
    workers: usize,
    max_steps: u64,
) -> PoolResult {
    assert!(workers > 0, "a pool needs at least one worker");
    // Panic containment: a dying worker (engine bug, injected fault)
    // loses only its own slot — the pool result is built from the
    // survivors, and the loss is reported instead of propagated.
    let results: Vec<Option<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let opts = LsOptions { max_steps, ..diversified_options(base, w) };
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        LocalSearch::new(instance, opts).run(None, None)
                    }))
                    .ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok().flatten()).collect()
    });
    let workers_lost = results.iter().filter(|r| r.is_none()).count() as u64;
    let mut best: Option<(i64, Vec<bool>)> = None;
    for r in results.iter().flatten() {
        if let (Some(c), Some(m)) = (r.best_cost, r.best_model.as_ref()) {
            if best.as_ref().is_none_or(|(b, _)| c < *b) {
                best = Some((c, m.clone()));
            }
        }
    }
    PoolResult {
        best_cost: best.as_ref().map(|(c, _)| *c),
        best_model: best.map(|(_, m)| m),
        worker_stats: results
            .iter()
            .map(|r| r.as_ref().map(|r| r.stats.clone()).unwrap_or_default())
            .collect(),
        worker_costs: results.iter().map(|r| r.as_ref().and_then(|r| r.best_cost)).collect(),
        workers_lost,
    }
}

/// Runs `workers` diversified engines with **live sharing** through
/// `cell` until `stop` is raised: every verified improvement is
/// published and external improvements re-seed each worker's restarts.
/// Returns the per-worker effort counters (the best solution lives in
/// the cell).
///
/// Each worker's walk is deterministic given its derived seed *and* the
/// sequence of external incumbents it adopts; with one worker and no
/// external producer the run is bit-reproducible.
pub fn run_pool_racing(
    instance: &Instance,
    base: &LsOptions,
    workers: usize,
    chunk_steps: u64,
    cell: &IncumbentCell,
    stop: &AtomicBool,
) -> Vec<LsStats> {
    run_pool_racing_traced(instance, base, workers, chunk_steps, cell, stop, None).worker_stats
}

/// Result of a traced racing pool run ([`run_pool_racing_traced`]).
#[derive(Clone, Debug)]
pub struct PoolRun {
    /// Per-worker effort counters; lost workers carry default stats.
    pub worker_stats: Vec<LsStats>,
    /// The merged telemetry stream (empty without a trace epoch).
    pub events: Vec<Event>,
    /// Workers that died (panicked) during the run. The cell keeps
    /// every incumbent the dead worker published before crashing.
    pub workers_lost: u64,
}

/// [`run_pool_racing`] with telemetry: when `trace_epoch` is given, every
/// worker buffers its restart/incumbent events on lane
/// [`LS_LANE_BASE`]` + worker` with timestamps relative to that epoch
/// (pass the solve's start instant so LS lanes align with the exact
/// side's lanes). The merged event stream rides alongside the per-worker
/// counters; with `trace_epoch == None` the emission path is the
/// allocation-free no-op sink.
pub fn run_pool_racing_traced(
    instance: &Instance,
    base: &LsOptions,
    workers: usize,
    chunk_steps: u64,
    cell: &IncumbentCell,
    stop: &AtomicBool,
    trace_epoch: Option<Instant>,
) -> PoolRun {
    assert!(workers > 0, "a pool needs at least one worker");
    // Panic containment: each worker body runs under `catch_unwind`, so
    // one dying worker (its trace buffer lost with it) degrades the
    // pool to N−1 racers instead of unwinding through the portfolio —
    // every incumbent it published before the crash is already in the
    // cell.
    let results: Vec<Option<(LsStats, Vec<Event>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let opts = LsOptions {
                    max_steps: chunk_steps,
                    time_limit: None,
                    ..diversified_options(base, w)
                };
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut ls = LocalSearch::new(instance, opts);
                        // The tracer is built inside the worker thread: its
                        // buffer is worker-owned (no cross-thread sharing),
                        // only the drained events cross back at join.
                        ls.set_tracer(match trace_epoch {
                            Some(epoch) => Tracer::buffered(LS_LANE_BASE + w as u32, epoch),
                            None => Tracer::off(),
                        });
                        loop {
                            let before = ls.stats.steps;
                            let _ = ls.run(Some(cell), Some(stop));
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                break (ls.stats.clone(), ls.drain_trace());
                            }
                            if ls.stats.steps == before {
                                // Nothing left to do (target/optimum reached):
                                // idle politely until the stop flag rises.
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                        }
                    }))
                    .ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok().flatten()).collect()
    });
    let mut run = PoolRun {
        worker_stats: Vec::with_capacity(results.len()),
        events: Vec::new(),
        workers_lost: 0,
    };
    for (w, r) in results.into_iter().enumerate() {
        match r {
            Some((s, ev)) => {
                run.worker_stats.push(s);
                run.events.extend(ev);
            }
            None => {
                run.worker_stats.push(LsStats::default());
                run.workers_lost += 1;
                // The dead worker's buffer unwound with it; mark the
                // loss on its lane from the outside.
                if let Some(epoch) = trace_epoch {
                    run.events.push(Event {
                        t_ns: epoch.elapsed().as_nanos() as u64,
                        lane: LS_LANE_BASE + w as u32,
                        data: TraceEvent::WorkerLost,
                    });
                }
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::InstanceBuilder;
    use std::sync::atomic::Ordering;

    fn covering_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.add_clause([v[2].positive(), v[3].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (3, v[2].positive()),
            (2, v[3].positive()),
        ]);
        b.build().unwrap()
    }

    #[test]
    fn worker_zero_is_the_base_configuration() {
        let base = LsOptions::default();
        let w0 = diversified_options(&base, 0);
        assert_eq!(w0.seed, base.seed);
        assert_eq!(w0.noise, base.noise);
        assert_eq!(w0.restart_interval, base.restart_interval);
        // Later workers differ and are mutually distinct.
        let w1 = diversified_options(&base, 1);
        let w2 = diversified_options(&base, 2);
        assert_ne!(w1.seed, base.seed);
        assert_ne!(w1.seed, w2.seed);
        assert!(w1.noise > base.noise && w2.noise > w1.noise);
        assert!(w2.noise <= 0.5, "noise stays capped");
    }

    #[test]
    fn deterministic_pool_never_loses_to_its_own_worker_zero() {
        let inst = covering_instance();
        let base = LsOptions::default();
        let single = run_pool_steps(&inst, &base, 1, 20_000);
        let pool = run_pool_steps(&inst, &base, 4, 20_000);
        assert_eq!(pool.worker_costs[0], single.best_cost, "worker 0 replays the single run");
        match (pool.best_cost, single.best_cost) {
            (Some(p), Some(s)) => assert!(p <= s, "pool {p} worse than single {s}"),
            (p, s) => assert_eq!(p, s),
        }
        // And it is reproducible.
        let again = run_pool_steps(&inst, &base, 4, 20_000);
        assert_eq!(again.best_cost, pool.best_cost);
        assert_eq!(again.best_model, pool.best_model);
        assert_eq!(again.worker_costs, pool.worker_costs);
    }

    #[test]
    fn racing_pool_publishes_verified_incumbents() {
        let inst = covering_instance();
        let cell = IncumbentCell::new();
        let stop = AtomicBool::new(false);
        // Let the workers race briefly, then stop them.
        std::thread::scope(|scope| {
            let h = scope
                .spawn(|| run_pool_racing(&inst, &LsOptions::default(), 3, 4_096, &cell, &stop));
            while cell.best_cost().is_none() {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            let stats = h.join().unwrap();
            assert_eq!(stats.len(), 3);
            assert_eq!(stats.iter().map(|s| s.verify_rejects).sum::<u64>(), 0);
        });
        let (cost, model) = cell.snapshot().expect("racing pool must find something");
        assert_eq!(pbo_core::verify_solution(&inst, &model), Ok(cost));
        assert_eq!(cost, 5, "optimum of the covering instance");
    }
}
