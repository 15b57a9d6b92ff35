//! Parallel exact search: cube-split branch-and-bound workers over the
//! shared term arena.
//!
//! PR 4 made every hot data structure shared and read-only — the
//! instance's flat `TermArena` CSR and the lock-free [`IncumbentCell`]
//! — but the exact search was still one sequential loop. This module
//! closes that gap cube-and-conquer style:
//!
//! 1. **[`CubeSplitter`]** runs a learning-free lookahead from the root
//!    for a bounded number of decisions and harvests the open frontier
//!    as [`Cube`]s — decision-literal prefixes that partition the
//!    assignment space (sibling branches carry complementary literals,
//!    so cubes are pairwise disjoint, and together with the refuted and
//!    solved leaves they cover the root exactly; a property the test
//!    suite checks by enumeration).
//! 2. **[`ParBsolo`]** spawns `threads` workers under
//!    `std::thread::scope`. Each worker pulls cubes from the cube queue
//!    (see below) and solves each subtree with a private
//!    `SearchState` — its own engine, bound pipeline and residual state,
//!    all borrowing the *same* `&Instance` (and through it one read-only
//!    `TermArena` block). The cube's literals are assumed at level 0
//!    (`Engine::assume_at_root`), so conflict analysis can never leave
//!    the subtree and everything a worker learns is implied by
//!    *instance ∧ cube*: learned clauses stay with the cube task that
//!    derived them.
//! 3. **Primal dives.** A cube task's first act is one greedy
//!    cost-avoiding descent ([`SearchState::primal_dive`]) — objective
//!    literals decided false, largest coefficient first, propagation but
//!    no bound computation in between. Completing yields a verified
//!    feasible completion of the cube, published immediately, so the
//!    frontier doubles as `threads` diverse primal probes and every
//!    worker proves against a strong upper bound from the start (on few
//!    cores this is where most of the measured speedup over the
//!    sequential solver comes from: its incumbent-descent phase is
//!    skipped almost entirely).
//! 4. **Sharing.** Incumbents flow through the [`IncumbentCell`]: every
//!    worker publishes verified improvements and adopts strictly better
//!    external ones mid-search (re-rooting its cost cuts). Nothing else
//!    crosses between searches: a cube task starts from the instance,
//!    its cube and the cell's incumbent, and learned clauses never leave
//!    the search that derived them. A cross-worker clause pool (kept
//!    sound by assumption-taint tracking in the engine) and a seed of
//!    the head start's learned clauses into every cube task were both
//!    measured against no transfer and won no measurement, so both were
//!    deleted.
//! 5. **Dynamic re-splitting.** A worker that has spent
//!    [`BsoloOptions::resplit_conflicts`] conflicts on its cube
//!    backjumps to its root, harvests the complementary arms of its
//!    first decisions ([`SearchState::resplit`]), pushes them onto the
//!    queue and continues on the deepened cube, whatever the queue
//!    holds. The schedule counts conflicts only, so it is the same with
//!    or without [`BsoloOptions::deterministic_join`]; the fixed initial
//!    frontier becomes self-balancing, and the idle tail (workers waiting
//!    while the last long cube finishes) shrinks. Arms + deepened cube
//!    partition the parent cube exactly, so the exact-partition
//!    invariant is inductive; depth caps bound the recursion
//!    ([`SolverStats::split_depth_truncated`] counts the clips).
//! 6. **Termination.** A worker that exhausts a cube *closes* it (no
//!    completion in the cube beats the final global best — pruning only
//!    ever used upper bounds that the final best also satisfies). The
//!    solve is `Optimal`/`Infeasible` when the frontier — initial cubes
//!    plus every re-split arm — is fully closed. The growing frontier is
//!    safe because the queue reports "all done" only when it is empty
//!    *and* no cube is in flight: a re-splitting worker still holds its
//!    own cube while it pushes the arms. A budget
//!    exhaustion in any worker raises a global abort flag, remaining
//!    cubes are dropped, and the result degrades to
//!    `Feasible`/`Unknown` exactly like the sequential solver.
//!
//! **Scheduler choice.** Cubes are handed out by one central queue
//! (`CubeQueue`): a `Mutex<VecDeque>` plus a `Condvar` for idle workers.
//! A solve starts from one cube per worker and grows only by re-split
//! arms, so hand-offs are rare next to the search work per cube.
//! Chase–Lev work stealing was measured against this queue and lost: it
//! never recorded a steal, its queue wait on 2 cores was 3–4x this
//! queue's, and 2-worker synthesis wall time, time to best and peak
//! memory were the same with either.
//!
//! With `threads == 1` the driver delegates to the sequential
//! [`Bsolo`] verbatim — bit-identical optimum, node count and stats —
//! so the parallel path is strictly opt-in. With
//! [`BsoloOptions::deterministic_join`] set, the same pool runs with one
//! worker: the head start, the split into `threads` cubes, then one
//! thread that takes the cubes in FIFO order, re-splits on the conflict
//! schedule and publishes to (and adopts from) the caller's cell like
//! any racing worker. With one writer of the cell and a schedule that
//! reads no timing, a run's status, cost, model and counters are the
//! same on every run.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pbo_core::{verify_solution, Instance, Lit, Value, Var};
use pbo_engine::Engine;
use pbo_fault::failpoint;
use pbo_ls::{IncumbentCell, LsOptions};
use pbo_trace::{TraceEvent, Tracer};

use crate::bsolo::{under_budget_deadline, Bsolo, SearchState};
use crate::options::BsoloOptions;
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// Hard cap on cube length: beyond this depth the splitter stops
/// refining even if the frontier target was not reached (degenerate
/// instances propagate-complete almost everywhere).
const MAX_SPLIT_DEPTH: usize = 16;

/// Conflict budget of the sequential head start: enough search to find
/// a first incumbent, small enough that the serial prefix stays a
/// fraction of any tree worth parallelizing.
const HEAD_CONFLICTS: u64 = 96;

/// Complement cubes returned to the queue per dynamic re-split (the
/// guiding-path arms of the worker's first decisions): enough to feed
/// several idle workers from one long-running cube, few enough that the
/// deepened cube keeps most of the worker's learned context relevant.
const RESPLIT_ARMS: usize = 4;

/// Cubes deeper than this are never re-split again — arms of a
/// very deep cube are tiny slivers whose root-replay overhead exceeds
/// their search content. Hitting this cap is counted in
/// [`SolverStats::split_depth_truncated`].
const RESPLIT_MAX_DEPTH: usize = 48;

/// An open subtree of the branch-and-bound, described by the decision
/// literals on the path from the root: the subtree contains exactly the
/// assignments extending all of `lits`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cube {
    /// Decision literals of the prefix, in decision order.
    pub lits: Vec<Lit>,
}

/// What became of one frontier leaf during splitting.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    /// Open cubes: the frontier handed to the workers.
    pub open: Vec<Cube>,
    /// Leaves closed by propagation alone (instance ∧ cube is UNSAT).
    pub refuted: Vec<Cube>,
    /// Leaves where propagation completed the assignment: the cube's
    /// unique feasible completion, with its cost.
    pub solved: Vec<(Cube, i64, Vec<bool>)>,
    /// The instance is unsatisfiable at the root (before any decision).
    pub root_unsat: bool,
    /// Decisions spent splitting (counted into the solve's node total).
    pub decisions: u64,
    /// Leaves frozen because they reached the maximum split depth before
    /// the frontier target was met: the frontier is coarser than
    /// requested. Previously this truncation was silent; it is now
    /// surfaced through `SolverStats::split_depth_truncated` and the
    /// CLI's verbose output.
    pub depth_truncated: u64,
}

/// Harvests an open frontier of cubes by bounded learning-free
/// lookahead (cube-and-conquer style).
///
/// The splitter drives a private propagation-only [`Engine`] through a
/// breadth-first expansion of the decision tree: pop a prefix, replay it
/// with propagation, and either close the leaf (conflict → refuted,
/// complete assignment → solved) or branch on the next unassigned
/// variable in a deterministic cost-first order. Expansion stops once
/// the frontier reaches the target (or the depth cap), leaving the
/// still-open prefixes as the cube set.
pub struct CubeSplitter;

impl CubeSplitter {
    /// Splits `instance` into roughly `target` open cubes.
    ///
    /// Deterministic: the branching order is constraint-degree
    /// descending (objective cost, then index, breaking ties; negative
    /// phase first), and no learning or activity feedback is involved —
    /// the same instance always yields the same frontier.
    pub fn split(instance: &Instance, target: usize) -> SplitOutcome {
        Self::split_to_depth(instance, target, MAX_SPLIT_DEPTH)
    }

    /// [`CubeSplitter::split`] with an explicit depth cap (exposed for
    /// the soundness tests).
    pub fn split_to_depth(instance: &Instance, target: usize, max_depth: usize) -> SplitOutcome {
        let mut out = SplitOutcome {
            open: Vec::new(),
            refuted: Vec::new(),
            solved: Vec::new(),
            root_unsat: false,
            decisions: 0,
            depth_truncated: 0,
        };
        let mut engine = Engine::new(instance.num_vars());
        for c in instance.constraints() {
            if engine.add_constraint(c).is_err() {
                out.root_unsat = true;
                return out;
            }
        }
        // Branch on high-degree variables first (most constraint
        // occurrences across both polarities, objective cost as the
        // tie-break): both branches of a busy variable propagate hard,
        // which keeps the resulting subtrees balanced — splitting on the
        // most *expensive* variables instead was measured to produce one
        // near-root-sized cube (every costly-positive sibling prunes
        // instantly once an incumbent exists) and one worker doing most
        // of the search.
        let arena = instance.arena();
        let mut order: Vec<Var> = (0..instance.num_vars()).map(Var::new).collect();
        let var_degree = |v: Var| {
            arena.occurrences(v.positive()).0.len() + arena.occurrences(v.negative()).0.len()
        };
        let var_cost = |v: Var| {
            instance
                .objective()
                .map_or(0, |o| o.cost_of_lit(v.positive()).max(o.cost_of_lit(v.negative())))
        };
        order.sort_by_key(|&v| {
            (std::cmp::Reverse(var_degree(v)), std::cmp::Reverse(var_cost(v)), v.index())
        });

        let mut queue: VecDeque<Vec<Lit>> = VecDeque::from([Vec::new()]);
        while let Some(cube) = queue.pop_front() {
            if out.open.len() + queue.len() + 1 >= target.max(1) {
                out.open.push(Cube { lits: cube });
                continue;
            }
            if cube.len() >= max_depth {
                out.depth_truncated += 1;
                out.open.push(Cube { lits: cube });
                continue;
            }
            engine.backjump_to(0);
            let mut closed = false;
            for &lit in &cube {
                match engine.assignment().lit_value(lit) {
                    Value::True => continue, // already propagated
                    Value::False => {
                        closed = true;
                        break;
                    }
                    Value::Unassigned => {
                        engine.decide(lit);
                        out.decisions += 1;
                        if engine.propagate().is_some() {
                            closed = true;
                            break;
                        }
                    }
                }
            }
            if closed {
                out.refuted.push(Cube { lits: cube });
                continue;
            }
            if engine.assignment().is_complete() {
                // Propagation completed the assignment: the unique
                // feasible completion of this prefix.
                let model = engine.model();
                debug_assert_eq!(verify_solution(instance, &model), Ok(instance.cost_of(&model)));
                let cost = instance.cost_of(&model);
                out.solved.push((Cube { lits: cube }, cost, model));
                continue;
            }
            let var = order
                .iter()
                .copied()
                .find(|&v| engine.assignment().value(v) == Value::Unassigned)
                .expect("incomplete assignment has an unassigned variable");
            // Negative phase first, matching the engine's default saved
            // phase, so worker 0's first cube resembles the sequential
            // solver's first descent.
            let mut neg = cube.clone();
            neg.push(var.negative());
            let mut pos = cube;
            pos.push(var.positive());
            queue.push_back(neg);
            queue.push_back(pos);
        }
        out
    }
}

/// The cube scheduler: a mutex-protected FIFO deque with a condvar for
/// idle workers and a global abort flag (raised on budget exhaustion).
/// Termination is exact: a worker that finds the deque empty waits while
/// any sibling still holds a cube in flight, because that sibling may
/// yet re-split arms back into the deque.
struct CubeQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    cubes: VecDeque<Cube>,
    /// Cubes currently being solved by some worker.
    in_flight: usize,
    /// Raised when a worker exhausts the budget: remaining cubes are
    /// abandoned and the solve reports a budget status.
    aborted: bool,
    /// Cubes abandoned by a dying worker (see [`CubeQueue::quarantine`]):
    /// no longer in flight, never closed. The solve continues without
    /// them, and any positive count forbids an `Optimal`/`Infeasible`
    /// claim at join.
    quarantined: usize,
}

impl CubeQueue {
    fn new(cubes: Vec<Cube>) -> CubeQueue {
        CubeQueue {
            state: Mutex::new(QueueState {
                cubes: cubes.into(),
                in_flight: 0,
                aborted: false,
                quarantined: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until a cube is available, every cube is finished, or the
    /// solve is aborted. `None` means "no more work".
    fn next(&self) -> Option<Cube> {
        let mut s = self.lock();
        loop {
            if s.aborted {
                return None;
            }
            if let Some(cube) = s.cubes.pop_front() {
                s.in_flight += 1;
                return Some(cube);
            }
            if s.in_flight == 0 {
                return None;
            }
            // An in-flight sibling may still abort; wait for its verdict.
            s = self.ready.wait(s).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Enqueues re-split arms, waking idle workers. The pushing worker
    /// still holds its own (deepened) cube in flight, so the queue
    /// cannot have decided "all work done" concurrently — the frontier
    /// only ever grows while someone is searching.
    fn push(&self, cubes: Vec<Cube>) {
        if cubes.is_empty() {
            return;
        }
        // Probe fires before the arms are queued: a worker dying here
        // loses the arms *and* its deepened cube together, which is
        // exactly the parent cube its guard then quarantines.
        failpoint!("sched.push");
        let mut s = self.lock();
        s.cubes.extend(cubes);
        drop(s);
        self.ready.notify_all();
    }

    /// Reports a finished cube; `abort` abandons the remaining frontier.
    fn done(&self, abort: bool) {
        let mut s = self.lock();
        s.in_flight -= 1;
        if abort {
            s.aborted = true;
        }
        if s.aborted || (s.cubes.is_empty() && s.in_flight == 0) {
            self.ready.notify_all();
        }
    }

    /// Reports a cube abandoned by a dying worker: it leaves flight
    /// without closing, the rest of the frontier stays live for the
    /// surviving workers, and the count taints the final status (no
    /// exhaustion claim over a partition with a hole in it).
    fn quarantine(&self) {
        let mut s = self.lock();
        s.in_flight -= 1;
        s.quarantined += 1;
        if s.aborted || (s.cubes.is_empty() && s.in_flight == 0) {
            self.ready.notify_all();
        }
    }

    /// Aborts the solve from outside a cube (cooperative cancellation):
    /// waiters drain and every `next` returns `None`.
    fn abort(&self) {
        let mut s = self.lock();
        s.aborted = true;
        drop(s);
        self.ready.notify_all();
    }

    fn quarantined_count(&self) -> u64 {
        self.lock().quarantined as u64
    }

    fn was_aborted(&self) -> bool {
        self.lock().aborted
    }
}

/// Unwind guard for an in-flight cube: a panic between
/// [`CubeQueue::next`] and [`WorkGuard::finish`] would otherwise leave
/// the cube in flight forever — sibling workers would block for a
/// verdict that never comes, and `thread::scope` would wait on those
/// siblings instead of propagating the panic. On drop (unless defused by
/// a normal [`WorkGuard::finish`]) the guard *quarantines* the cube: it
/// leaves the books without closing, the surviving workers keep draining
/// the rest of the frontier, and the positive quarantine count
/// downgrades the final status — containment, not a solve-wide abort.
struct WorkGuard<'a> {
    queue: &'a CubeQueue,
    armed: bool,
}

impl<'a> WorkGuard<'a> {
    fn new(queue: &'a CubeQueue) -> WorkGuard<'a> {
        WorkGuard { queue, armed: true }
    }

    /// The normal completion path (defuses the guard).
    fn finish(mut self, abort: bool) {
        self.armed = false;
        self.queue.done(abort);
    }
}

impl Drop for WorkGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.queue.quarantine();
        }
    }
}

/// Result of one worker's run, merged by the driver at join. The
/// worker's node count is `stats.decisions`.
struct SubtreeResult {
    /// Effort counters summed over every cube this worker solved.
    stats: SolverStats,
    /// Whether every cube this worker took was closed (subtree
    /// exhausted); `false` means a budget ran out mid-cube.
    all_closed: bool,
    /// The cheapest incumbent this worker's searches held, each verified
    /// by its search.
    best: Option<(i64, Vec<bool>)>,
}

/// Parallel exact branch-and-bound: N cube workers racing over a shared
/// incumbent cell.
///
/// With `threads == 1` this is exactly [`Bsolo`] (delegated, so the
/// sequential trajectory — optimum, node count, every stat — is
/// bit-identical). With more threads the root is split into cubes and
/// solved by a worker pool; the optimum and its proof are unchanged,
/// node counts become timing-dependent. Under
/// [`BsoloOptions::deterministic_join`] one worker drains that pool, and
/// they repeat.
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_solver::{BsoloOptions, LbMethod, ParBsolo};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[1].positive(), v[2].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
/// let inst = b.build()?;
///
/// let result = ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), 2).solve(&inst);
/// assert!(result.is_optimal());
/// assert_eq!(result.best_cost, Some(3));
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ParBsolo {
    options: BsoloOptions,
    threads: usize,
}

impl ParBsolo {
    /// Creates a parallel solver with `threads` exact workers (clamped
    /// to at least 1).
    pub fn new(options: BsoloOptions, threads: usize) -> ParBsolo {
        ParBsolo { options, threads: threads.max(1) }
    }

    /// The active configuration.
    pub fn options(&self) -> &BsoloOptions {
        &self.options
    }

    /// Number of exact workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves `instance` with a private incumbent cell.
    pub fn solve(&self, instance: &Instance) -> SolveResult {
        self.solve_with_cell(instance, None)
    }

    /// Like [`ParBsolo::solve`], but exchanging incumbents through a
    /// caller-owned cell (the portfolio hook). Wall-clock budgets apply
    /// to the whole solve; conflict/decision budgets apply per subtree
    /// task.
    pub fn solve_with_cell(
        &self,
        instance: &Instance,
        cell: Option<&IncumbentCell>,
    ) -> SolveResult {
        self.solve_with_polish(instance, cell, None)
    }

    /// [`ParBsolo::solve_with_cell`], with `polish` handed to the head
    /// start and every cube task: each polishes its improving incumbents
    /// with a walker of its own (see [`Bsolo`]'s crate-private
    /// counterpart). The portfolio default's walk-then-search order
    /// only.
    pub(crate) fn solve_with_polish(
        &self,
        instance: &Instance,
        cell: Option<&IncumbentCell>,
        polish: Option<&LsOptions>,
    ) -> SolveResult {
        if self.threads == 1 {
            let mut result =
                Bsolo::new(self.options.clone()).solve_with_polish(instance, cell, polish);
            result.stats.nodes_per_worker = vec![result.stats.decisions];
            return result;
        }
        let start = Instant::now();
        // Same deadline handling as the sequential driver: one child
        // token carries the wall-clock budget into the head start and
        // every worker (the clone each one holds shares its state).
        let (worker_options, lp_stop) = under_budget_deadline(&self.options);
        // Simplify once; the workers all borrow the simplified instance
        // (and its shared arena). Covering-style simplification preserves
        // the variable space and the exact feasible set, so models and
        // costs transfer 1:1 across the cell.
        let inst = &crate::preprocess::simplify(instance);
        let owned_cell;
        let cell: &IncumbentCell = match cell {
            Some(c) => c,
            None => {
                owned_cell = IncumbentCell::new();
                &owned_cell
            }
        };
        // Deterministic join drains the pool with one worker, so no
        // incumbent race can steer any subtree: the cell has one writer
        // at a time (see [`BsoloOptions::deterministic_join`]).
        let workers = if self.options.deterministic_join { 1 } else { self.threads };

        let mut stats = SolverStats::default();
        // Driver-lane tracer (lane 0): head-start events, splitter
        // decisions and split-time solutions. Worker lanes are created
        // inside the worker threads (the buffer is worker-owned).
        let driver_tracer =
            if self.options.trace { Tracer::buffered(0, start) } else { Tracer::off() };
        // Head start: one decision-bounded sequential prefix. Finding
        // the *first* incumbent is the one phase cube workers would
        // otherwise duplicate per cube (no upper bound, no cost cuts, no
        // pruning) — running it once at the root and publishing the
        // incumbent lets every worker bound against a real upper from
        // node one. Its learned clauses stay with it. The head's nodes
        // count into the solve's total, so the sequential-vs-parallel
        // node accounting stays honest.
        // The head's own caps never exceed the caller's budget (a
        // caller-level conflict or decision limit binds the head too).
        let cap = |own: u64, caller: Option<u64>| Some(caller.map_or(own, |c| c.min(own)));
        let head_budget = crate::options::Budget {
            decisions: cap(8 * inst.num_vars() as u64, self.options.budget.decisions),
            conflicts: cap(HEAD_CONFLICTS, self.options.budget.conflicts),
            time: self.options.budget.time.map(|t| t.saturating_sub(start.elapsed())),
        };
        let mut head_options = worker_options.clone();
        head_options.budget = head_budget;
        let (head_status, head_best) = match SearchState::init(
            inst,
            &head_options,
            Some(cell),
            start,
            &mut stats,
            &[],
            lp_stop.clone(),
            driver_tracer.clone(),
            polish,
        ) {
            Ok(mut search) => {
                let status = search.run(start, &mut stats);
                search.finish_stats(&mut stats);
                let (cost, model) = search.best();
                (status, cost.zip(model.cloned()))
            }
            Err(()) => (SolveStatus::Infeasible, None),
        };
        if matches!(head_status, SolveStatus::Optimal | SolveStatus::Infeasible) {
            // The head start already finished the proof (small instance
            // or a root-contradictory cost cut): no need to go parallel.
            // One serial line of execution did all the nodes; the other
            // worker slots report zero.
            stats.nodes_per_worker = vec![0; workers];
            stats.nodes_per_worker[0] = stats.decisions;
            stats.trace.extend(driver_tracer.drain());
            return assemble(inst, [cell.snapshot(), head_best], true, cell, start, stats);
        }
        let head_nodes = stats.decisions;
        let split = CubeSplitter::split(inst, self.threads);
        // The splitter loads the rows the head start loaded, into the
        // same kind of engine: a root contradiction ended the head first.
        debug_assert!(!split.root_unsat, "the head start proves root infeasibility");
        stats.decisions = head_nodes + split.decisions;
        stats.split_depth_truncated += split.depth_truncated;
        if split.decisions > 0 {
            // Recorded in bulk so traced decision events still reconcile
            // with `stats.decisions` (the splitter's private engine is
            // never traced per node).
            driver_tracer.emit(TraceEvent::SplitterDecisions { n: split.decisions });
        }
        // Solutions found by propagation during splitting seed the cell.
        for (_, cost, model) in &split.solved {
            if verify_solution(inst, model) == Ok(*cost) && cell.offer(*cost, model) {
                stats.solutions_found += 1;
                driver_tracer.emit(TraceEvent::Solution { cost: *cost });
            }
        }
        let queue = CubeQueue::new(split.open);
        stats.trace.extend(driver_tracer.drain());

        let ctx = WorkerCtx {
            instance: inst,
            options: &worker_options,
            cell,
            queue: &queue,
            start,
            lp_stop: lp_stop.as_ref(),
            polish,
        };
        let outcomes: Vec<SubtreeResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let ctx = &ctx;
                    scope.spawn(move || run_worker(ctx, w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(o) => o,
                    // A panic that escaped even the in-worker containment
                    // (e.g. while waiting on the queue, where no
                    // cube is held — the guard has already quarantined
                    // any in-flight cube during the unwind). The worker's
                    // counters are lost; record the death honestly and
                    // let the quarantine accounting below decide whether
                    // coverage was actually lost.
                    Err(_) => SubtreeResult {
                        stats: SolverStats { workers_lost: 1, ..SolverStats::default() },
                        all_closed: true,
                        best: None,
                    },
                })
                .collect()
        });

        // Quarantine accounting is the queue's, not the workers':
        // it is exact even when a worker died outside its own
        // containment. Any quarantined cube is an unexplored part of the
        // frontier partition — the solve may keep its verified incumbent
        // but must not claim exhaustion.
        let quarantined = queue.quarantined_count();
        stats.cubes_quarantined += quarantined;
        let mut all_closed = !queue.was_aborted() && quarantined == 0;
        let mut nodes_per_worker = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            stats.absorb(&o.stats);
            nodes_per_worker.push(o.stats.decisions);
            all_closed &= o.all_closed;
        }
        stats.nodes_per_worker = nodes_per_worker;
        // The global best lives in the cell, unless an unverifiable entry
        // there undercuts every search's own best.
        let bests = std::iter::once(cell.snapshot()).chain(outcomes.into_iter().map(|o| o.best));
        assemble(inst, bests, all_closed, cell, start, stats)
    }
}

/// The result assembly every exit of a parallel solve shares. The best
/// is the cheapest of `bests` that verifies (producers verified theirs,
/// but a cell stores, it does not vouch: a caller's cell may hold an
/// unverifiable entry that undercuts every real incumbent), the first
/// winning a tie. The status follows from that best and from whether
/// every cube closed, and the clocks are stamped (`time_to_best` off
/// `cell`'s history).
fn assemble(
    inst: &Instance,
    bests: impl IntoIterator<Item = Option<(i64, Vec<bool>)>>,
    all_closed: bool,
    cell: &IncumbentCell,
    start: Instant,
    mut stats: SolverStats,
) -> SolveResult {
    let best = bests
        .into_iter()
        .flatten()
        .filter(|(cost, model)| verify_solution(inst, model) == Ok(*cost))
        .reduce(|a, b| if b.0 < a.0 { b } else { a });
    if let Some((at, _)) = cell.history_since(start).last() {
        stats.time_to_best = *at;
    }
    let status = match (&best, all_closed) {
        (Some(_), true) => SolveStatus::Optimal,
        (None, true) => SolveStatus::Infeasible,
        (Some(_), false) => SolveStatus::Feasible,
        (None, false) => SolveStatus::Unknown,
    };
    stats.solve_time = start.elapsed();
    let (best_cost, best_assignment) = best.unzip();
    SolveResult { status, best_cost, best_assignment, stats }
}

/// Everything a worker needs, threaded as one borrow (the fields are
/// all shared read-only or internally synchronized).
struct WorkerCtx<'a> {
    instance: &'a Instance,
    options: &'a BsoloOptions,
    cell: &'a IncumbentCell,
    queue: &'a CubeQueue,
    start: Instant,
    /// The raw cancel flag the workers' LP pivot loops poll (see
    /// [`under_budget_deadline`]).
    lp_stop: Option<&'a Arc<AtomicBool>>,
    /// The polish walk's configuration, when cube tasks polish their
    /// improving incumbents.
    polish: Option<&'a LsOptions>,
}

/// One worker: pull cubes until the frontier drains or the solve
/// aborts, solving each with a private engine + pipeline rooted in the
/// cube.
fn run_worker(ctx: &WorkerCtx<'_>, worker: usize) -> SubtreeResult {
    let mut total = SolverStats::default();
    let mut all_closed = true;
    let mut worker_best: Option<(i64, Vec<bool>)> = None;
    // The worker's lane is `worker + 1` (lane 0 is the driver).
    let tracer = if ctx.options.trace {
        Tracer::buffered(worker as u32 + 1, ctx.start)
    } else {
        Tracer::off()
    };
    loop {
        // Cooperative cancellation between cubes: stop taking work and
        // abort the queue so waiting siblings drain instead of blocking
        // on a frontier nobody will finish.
        if ctx.options.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            // A deadline derived from the budget expiring is budget
            // exhaustion, as in `SearchState::run_capped`.
            total.cancelled = ctx.options.budget.time.is_none_or(|t| ctx.start.elapsed() < t);
            all_closed = false;
            ctx.queue.abort();
            break;
        }
        // Wall time from asking the queue for a cube to receiving one,
        // condvar blocks included (see `SolverStats::queue_wait_total`).
        let wait_from = Instant::now();
        let Some(cube) = ctx.queue.next() else { break };
        // Armed before anything else touches the cube: from here to
        // `finish`, any unwind quarantines it instead of leaking it.
        let guard = WorkGuard::new(ctx.queue);
        let wait = wait_from.elapsed();
        total.queue_wait_total += wait;
        let mut stats = SolverStats::default();
        tracer.emit(TraceEvent::QueueWait {
            wait_ns: u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
        });
        let depth = cube.lits.len() as u32;
        let cube_from = tracer.now_ns();
        tracer.emit(TraceEvent::CubeStart { depth });
        // Panic containment (PR 9): a cube task that unwinds — a bug in
        // a bound kernel, an injected failpoint — takes this worker down
        // but not the solve. The guard quarantines the in-flight cube,
        // the partial effort counters are still folded in (no kernel
        // charges its timer before returning, so nothing double-counts),
        // and the surviving N−1 workers keep draining the frontier (the
        // deterministic pool's one worker leaves the rest unexplored).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_cube(ctx, &cube, &mut stats, tracer.clone())
        }));
        let (status, best) = match outcome {
            Ok(r) => r,
            Err(_) => {
                total.workers_lost += 1;
                tracer.emit(TraceEvent::CubeQuarantined { depth });
                tracer.emit(TraceEvent::WorkerLost);
                stats.trace.extend(tracer.drain());
                total.absorb(&stats);
                // Drop quarantines the cube; the worker itself retires.
                drop(guard);
                break;
            }
        };
        let closed = matches!(status, SolveStatus::Optimal | SolveStatus::Infeasible);
        tracer.emit(TraceEvent::CubeEnd {
            depth,
            closed,
            dur_ns: tracer.now_ns().saturating_sub(cube_from),
        });
        stats.trace.extend(tracer.drain());
        if let (Some(cost), Some(model)) = best {
            if worker_best.as_ref().is_none_or(|(b, _)| cost < *b) {
                worker_best = Some((cost, model));
            }
        }
        total.absorb(&stats);
        guard.finish(!closed);
        if !closed {
            all_closed = false;
            break;
        }
    }
    SubtreeResult { stats: total, all_closed, best: worker_best }
}

/// Solves one subtree task to exhaustion (or budget): the sequential
/// search loop, rooted in `cube`, publishing incumbents to (and
/// adopting from) the shared cell — re-splitting its remaining subtree
/// back to the queue each time it spends its conflict allowance.
/// Returns the final status and the task's best (cost, model).
fn solve_cube(
    ctx: &WorkerCtx<'_>,
    cube: &Cube,
    stats: &mut SolverStats,
    tracer: Tracer,
) -> (SolveStatus, (Option<i64>, Option<Vec<bool>>)) {
    // The canonical injection point for "a worker dies with a cube in
    // hand": fires before any search state exists, so the quarantine
    // path is exercised with zero partial work to account for.
    failpoint!("par.cube");
    match SearchState::init(
        ctx.instance,
        ctx.options,
        Some(ctx.cell),
        ctx.start,
        stats,
        &cube.lits,
        ctx.lp_stop.cloned(),
        tracer,
        ctx.polish,
    ) {
        Ok(mut search) => {
            // Grab a primal bound before proving anything: one greedy
            // cost-avoiding descent per cube task. On one incumbent
            // cell this turns the frontier into `threads` diverse
            // primal probes whose best lands in every worker within the
            // first few milliseconds — without it, proof work done
            // before the first strong incumbent arrives is inflated by
            // a weak (or absent) cost bound and dominates the pool's
            // node count as the worker count grows.
            let dive_refuted = search.primal_dive();
            let status = if let Some(status) = dive_refuted {
                status
            } else {
                let allowance = ctx.options.resplit_conflicts.max(1);
                loop {
                    let cap = search.conflicts().saturating_add(allowance);
                    match search.run_capped(ctx.start, stats, Some(cap)) {
                        Some(status) => break status,
                        None => {
                            // The allowance is spent on this cube:
                            // re-split it, whatever the queue holds, so
                            // the schedule never depends on timing.
                            if search.cube_depth() >= RESPLIT_MAX_DEPTH {
                                stats.split_depth_truncated += 1;
                                continue;
                            }
                            let arms = search.resplit(RESPLIT_ARMS);
                            // A panic between harvesting the arms and
                            // publishing them loses arms + deepened cube
                            // together — exactly the parent cube the
                            // guard quarantines, so the partition stays
                            // account-exact.
                            failpoint!("par.resplit");
                            if !arms.is_empty() {
                                stats.resplits += 1;
                                search
                                    .tracer()
                                    .emit(TraceEvent::Resplit { arms: arms.len() as u32 });
                                ctx.queue
                                    .push(arms.into_iter().map(|lits| Cube { lits }).collect());
                            }
                        }
                    }
                }
            };
            search.finish_stats(stats);
            let (cost, model) = search.best();
            (status, (cost, model.cloned()))
        }
        // The cube is closed by root propagation: an exhausted, empty
        // subtree.
        Err(()) => (SolveStatus::Infeasible, (None, None)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use crate::options::{Budget, LbMethod};

    use pbo_core::{brute_force, InstanceBuilder};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_instance(rng: &mut ChaCha8Rng, n_max: usize) -> Instance {
        let n = rng.gen_range(3..=n_max);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..rng.gen_range(2..9) {
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
            b.add_linear(terms, pbo_core::RelOp::Ge, rng.gen_range(1..=maxw));
        }
        if rng.gen_bool(0.9) {
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..6), v.lit(rng.gen_bool(0.85)))));
        }
        b.build().unwrap()
    }

    /// A denser generator for the re-split tests: enough
    /// constraint structure that a search survives a few dozen conflicts
    /// (the sparse `random_instance` family often closes in one or two,
    /// which never triggers the pause-and-re-split machinery). From
    /// about 24 variables on, the head start rarely finishes it.
    pub(crate) fn dense_instance(rng: &mut ChaCha8Rng, n: usize) -> Instance {
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..3 * n {
            let k = rng.gen_range(3..=4.min(n));
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            b.add_at_least(1, idxs[..k].iter().map(|&i| vars[i].positive()));
        }
        b.minimize(vars.iter().map(|v| (rng.gen_range(1..8), v.positive())));
        b.build().unwrap()
    }

    /// A cube matches an assignment when every cube literal is true
    /// under it.
    fn matches(cube: &Cube, assignment: &[bool]) -> bool {
        cube.lits.iter().all(|l| assignment[l.var().index()] == l.is_positive())
    }

    #[test]
    fn cube_split_partitions_the_assignment_space() {
        // The PR-5 soundness property: open cubes, refuted leaves and
        // solved leaves together cover the root exactly — every complete
        // assignment matches exactly one leaf — leaves are pairwise
        // disjoint, refuted leaves contain no feasible assignment, and a
        // solved leaf's only feasible completion is its recorded model.
        let mut rng = ChaCha8Rng::seed_from_u64(0xc0be);
        for round in 0..25 {
            let inst = random_instance(&mut rng, 8);
            let target = [1usize, 2, 5, 8][round % 4];
            let split = CubeSplitter::split_to_depth(&inst, target, 6);
            if split.root_unsat {
                assert_eq!(brute_force(&inst).cost(), None, "round {round}: UNSAT claim");
                continue;
            }
            let mut leaves: Vec<(&Cube, &str)> = Vec::new();
            leaves.extend(split.open.iter().map(|c| (c, "open")));
            leaves.extend(split.refuted.iter().map(|c| (c, "refuted")));
            leaves.extend(split.solved.iter().map(|(c, _, _)| (c, "solved")));
            // Pairwise disjoint: two leaves always disagree on some
            // shared variable (prefix-tree siblings carry complementary
            // literals).
            for (i, (a, _)) in leaves.iter().enumerate() {
                for (b, _) in &leaves[i + 1..] {
                    let disjoint = a.lits.iter().any(|la| b.lits.contains(&!*la));
                    assert!(disjoint, "round {round}: overlapping leaves {a:?} / {b:?}");
                }
            }
            // Exact cover, by enumeration.
            let n = inst.num_vars();
            for bits in 0..(1u32 << n) {
                let assignment: Vec<bool> = (0..n).map(|v| bits & (1 << v) != 0).collect();
                let hits: Vec<&str> = leaves
                    .iter()
                    .filter(|(c, _)| matches(c, &assignment))
                    .map(|&(_, kind)| kind)
                    .collect();
                assert_eq!(hits.len(), 1, "round {round}: assignment {bits:b} in {hits:?}");
                let feasible = inst.is_feasible(&assignment);
                match hits[0] {
                    "refuted" => {
                        assert!(!feasible, "round {round}: feasible assignment in refuted leaf")
                    }
                    "solved" if feasible => {
                        let (_, cost, model) =
                            split.solved.iter().find(|(c, _, _)| matches(c, &assignment)).unwrap();
                        assert_eq!(&assignment, model, "round {round}");
                        assert_eq!(inst.cost_of(&assignment), *cost, "round {round}");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn split_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let inst = random_instance(&mut rng, 9);
        let a = CubeSplitter::split(&inst, 8);
        let b = CubeSplitter::split(&inst, 8);
        assert_eq!(a.open, b.open);
        assert_eq!(a.refuted, b.refuted);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn parallel_solver_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a8);
        for round in 0..30 {
            let inst = random_instance(&mut rng, 9);
            let expected = brute_force(&inst);
            for threads in [2usize, 4] {
                let got = ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), threads).solve(&inst);
                match expected.cost() {
                    Some(opt) => {
                        assert_eq!(
                            got.status,
                            SolveStatus::Optimal,
                            "round {round} x{threads}: expected optimal"
                        );
                        assert_eq!(got.best_cost, Some(opt), "round {round} x{threads}");
                        let model = got.best_assignment.as_ref().expect("model");
                        assert_eq!(verify_solution(&inst, model), Ok(opt));
                    }
                    None => {
                        assert_eq!(
                            got.status,
                            SolveStatus::Infeasible,
                            "round {round} x{threads}: expected infeasible"
                        );
                    }
                }
                assert_eq!(got.stats.nodes_per_worker.len(), threads);
            }
        }
    }

    #[test]
    fn single_thread_is_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1b17);
        for round in 0..20 {
            let inst = random_instance(&mut rng, 9);
            for lb in [LbMethod::Mis, LbMethod::Lpr] {
                let seq = Bsolo::new(BsoloOptions::with_lb(lb)).solve(&inst);
                let par = ParBsolo::new(BsoloOptions::with_lb(lb), 1).solve(&inst);
                let label = format!("{lb:?} round {round}");
                assert_eq!(par.status, seq.status, "{label}: status");
                assert_eq!(par.best_cost, seq.best_cost, "{label}: cost");
                assert_eq!(par.best_assignment, seq.best_assignment, "{label}: model");
                assert_eq!(par.stats.decisions, seq.stats.decisions, "{label}: decisions");
                assert_eq!(par.stats.conflicts, seq.stats.conflicts, "{label}: conflicts");
                assert_eq!(par.stats.propagations, seq.stats.propagations, "{label}: propagations");
                assert_eq!(par.stats.lb_calls, seq.stats.lb_calls, "{label}: lb calls");
                assert_eq!(
                    par.stats.bound_conflicts, seq.stats.bound_conflicts,
                    "{label}: bound conflicts"
                );
                assert_eq!(
                    par.stats.lb_margin_sum, seq.stats.lb_margin_sum,
                    "{label}: bound strength"
                );
                assert_eq!(par.stats.restarts, seq.stats.restarts, "{label}: restarts");
                assert_eq!(
                    par.stats.backjump_levels, seq.stats.backjump_levels,
                    "{label}: backjumps"
                );
                assert_eq!(
                    par.stats.solutions_found, seq.stats.solutions_found,
                    "{label}: solutions"
                );
                assert_eq!(par.stats.nodes_per_worker, vec![seq.stats.decisions], "{label}");
            }
        }
    }

    #[test]
    fn resplit_arms_partition_the_parent_cube() {
        // PR-6 soundness property, PR-5 style: pause a cube search
        // mid-tree, re-split it, and check by enumeration that the
        // returned arms plus the deepened cube cover the parent cube
        // exactly (every assignment in the parent matches exactly one
        // leaf; assignments outside match none).
        let mut rng = ChaCha8Rng::seed_from_u64(0x5e51);
        let mut exercised = 0usize;
        for round in 0..40 {
            let n = rng.gen_range(12..=14);
            let inst = dense_instance(&mut rng, n);
            let mut options = BsoloOptions::with_lb(LbMethod::None);
            options.probing = false;
            options.cardinality_cuts = false;
            let start = Instant::now();
            let mut stats = SolverStats::default();
            let split = CubeSplitter::split_to_depth(&inst, 4, 3);
            let Some(parent) = split.open.first().cloned() else { continue };
            let Ok(mut search) = SearchState::init(
                &inst,
                &options,
                None,
                start,
                &mut stats,
                &parent.lits,
                None,
                Tracer::off(),
                None,
            ) else {
                continue;
            };
            // Pause after a handful of conflicts so decisions remain on
            // the trail.
            if search.run_capped(start, &mut stats, Some(1 + round as u64 % 8)).is_some() {
                continue;
            }
            let arms = search.resplit(3);
            if arms.is_empty() {
                continue;
            }
            exercised += 1;
            let mut leaves: Vec<Vec<Lit>> = arms;
            leaves.push(search.cube_lits().to_vec());
            let n = inst.num_vars();
            for bits in 0..(1u32 << n) {
                let assignment: Vec<bool> = (0..n).map(|v| bits & (1 << v) != 0).collect();
                let holds = |lits: &[Lit]| {
                    lits.iter().all(|l| assignment[l.var().index()] == l.is_positive())
                };
                let hits = leaves.iter().filter(|lits| holds(lits)).count();
                assert_eq!(
                    hits,
                    usize::from(holds(&parent.lits)),
                    "round {round}: assignment {bits:b} covered {hits} times"
                );
            }
        }
        assert!(exercised >= 5, "only {exercised} rounds exercised a re-split");
    }

    #[test]
    fn worker_panic_mid_resplit_quarantines_not_aborts() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // PR-9 containment semantics: a worker dies between pushing
        // re-split arms and finishing its cube. The WorkGuard drop must
        // *quarantine* the in-flight cube — siblings keep draining the
        // rest of the frontier (including the pushed arm) instead of the
        // whole solve aborting — and the quarantine count must surface
        // so the join cannot claim a complete proof.
        let cube = |i: usize, pos: bool| Cube { lits: vec![Lit::new(i, pos)] };
        let queue = CubeQueue::new(vec![cube(0, true), cube(0, false)]);
        std::thread::scope(|s| {
            let queue = &queue;
            s.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _cube = queue.next().expect("first cube");
                    let _guard = WorkGuard::new(queue);
                    queue.push(vec![Cube { lits: vec![Lit::new(1, true), Lit::new(2, true)] }]);
                    panic!("worker dies mid-re-split");
                }));
            })
            .join()
            .expect("outer thread caught the panic");
        });
        assert!(!queue.was_aborted(), "a dead worker must not abort the solve");
        assert_eq!(queue.quarantined_count(), 1, "the held cube is quarantined");
        // The survivor drains the second frontier cube and the pushed
        // arm, then sees a clean end-of-work.
        let mut drained = 0;
        while let Some(_cube) = queue.next() {
            drained += 1;
            WorkGuard::new(&queue).finish(false);
        }
        assert_eq!(drained, 2, "surviving frontier stays takeable");
        assert!(!queue.was_aborted(), "clean drain after the loss");
        assert_eq!(queue.quarantined_count(), 1, "count stable after drain");
    }

    #[test]
    fn randomized_push_steal_panic_stress_keeps_exact_partition() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        // 2–4 workers over one cube queue: every worker repeatedly takes
        // a cube and either closes it or splits it (recording `cube ∧ d`
        // closed, pushing `cube ∧ ¬d`), under a seeded per-worker
        // interleaving. After the frontier drains, the closed records
        // must partition the root exactly — checked by enumeration —
        // whatever push/take/wait interleaving the OS produced. A final
        // round repeats the run with one worker panicking mid-split and
        // asserts the siblings drain the rest without an abort.
        const N_VARS: usize = 10;
        let root_frontier = || -> Vec<Cube> {
            // Depth-2 prefix tree over v0, v1: four disjoint cubes
            // covering the root.
            let mut cubes = Vec::new();
            for b0 in [false, true] {
                for b1 in [false, true] {
                    cubes.push(Cube { lits: vec![Lit::new(0, b0), Lit::new(1, b1)] });
                }
            }
            cubes
        };
        for trial in 0..8u64 {
            let threads = 2 + (trial as usize % 3); // 2..=4
            let queue = CubeQueue::new(root_frontier());
            let closed: Mutex<Vec<Vec<Lit>>> = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for w in 0..threads {
                    let queue = &queue;
                    let closed = &closed;
                    s.spawn(move || {
                        let mut rng = ChaCha8Rng::seed_from_u64(trial * 31 + w as u64);
                        while let Some(cube) = queue.next() {
                            let guard = WorkGuard::new(queue);
                            let depth = cube.lits.len();
                            if depth < N_VARS && rng.gen_bool(0.6) {
                                // Split: branch on the next variable,
                                // sometimes several arms deep (several
                                // arms per push, like a real re-split).
                                let arms = rng.gen_range(1..=3.min(N_VARS - depth));
                                let mut kept = cube.lits.clone();
                                let mut pushed = Vec::new();
                                for a in 0..arms {
                                    let var = depth + a;
                                    let mut arm = kept.clone();
                                    arm.push(Lit::new(var, false));
                                    pushed.push(Cube { lits: arm });
                                    kept.push(Lit::new(var, true));
                                }
                                queue.push(pushed);
                                closed.lock().unwrap().push(kept);
                            } else {
                                closed.lock().unwrap().push(cube.lits);
                            }
                            guard.finish(false);
                        }
                    });
                }
            });
            assert!(!queue.was_aborted(), "trial {trial}: clean drain");
            let closed = closed.into_inner().unwrap();
            // Exact partition of the root, by enumeration.
            for bits in 0..(1u32 << N_VARS) {
                let assignment: Vec<bool> = (0..N_VARS).map(|v| bits & (1 << v) != 0).collect();
                let hits = closed
                    .iter()
                    .filter(|lits| {
                        lits.iter().all(|l| assignment[l.var().index()] == l.is_positive())
                    })
                    .count();
                assert_eq!(hits, 1, "trial {trial}: assignment {bits:b} covered {hits} times");
            }
        }
        // Panic round: worker 0 dies mid-split. The siblings must keep
        // draining the surviving frontier to a clean end (no abort, no
        // hang — this scope join is itself the liveness assertion), and
        // exactly the one held cube lands in quarantine. The siblings
        // start only once worker 0 holds its cube, so they cannot drain
        // the whole frontier before it takes one.
        let queue = CubeQueue::new(root_frontier());
        let drained = AtomicU64::new(0);
        let held = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let queue = &queue;
            let drained = &drained;
            let held = &held;
            s.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _cube = queue.next().expect("a cube");
                    let _guard = WorkGuard::new(queue);
                    held.wait();
                    queue.push(vec![Cube { lits: vec![Lit::new(5, true)] }]);
                    panic!("stress worker dies mid-split");
                }));
            });
            for _ in 1..3 {
                s.spawn(move || {
                    held.wait();
                    while let Some(_cube) = queue.next() {
                        let guard = WorkGuard::new(queue);
                        drained.fetch_add(1, Ordering::Relaxed);
                        guard.finish(false);
                    }
                });
            }
        });
        assert!(!queue.was_aborted(), "a lost worker must not abort the stress run");
        assert_eq!(queue.quarantined_count(), 1, "exactly the held cube is quarantined");
        // 4 frontier cubes + 1 pushed arm − 1 quarantined = 4 drained.
        assert_eq!(drained.load(Ordering::Relaxed), 4, "survivors drain the rest");
    }

    #[test]
    fn resplitting_and_restarting_match_brute_force() {
        // Stress the PR-6 machinery end to end: re-split on every
        // conflict, restart on every conflict, and check the verified
        // optimum against brute force at 2/4/8 workers.
        let mut rng = ChaCha8Rng::seed_from_u64(0x6a11);
        for round in 0..20 {
            let inst = random_instance(&mut rng, 9);
            let expected = brute_force(&inst);
            let mut options = BsoloOptions::with_lb(LbMethod::Mis);
            options.resplit_conflicts = 1;
            options.restart_base = Some(1);
            for threads in [2usize, 4, 8] {
                let got = ParBsolo::new(options.clone(), threads).solve(&inst);
                match expected.cost() {
                    Some(opt) => {
                        assert_eq!(got.status, SolveStatus::Optimal, "round {round} x{threads}");
                        assert_eq!(got.best_cost, Some(opt), "round {round} x{threads}");
                        let model = got.best_assignment.as_ref().expect("model");
                        assert_eq!(verify_solution(&inst, model), Ok(opt));
                    }
                    None => {
                        assert_eq!(got.status, SolveStatus::Infeasible, "round {round} x{threads}");
                    }
                }
            }
        }
    }

    /// Whether cube workers searched: the head start charges every node
    /// to worker 0, while once cubes launch the head's and the
    /// splitter's nodes are no worker's.
    pub(crate) fn workers_searched(stats: &SolverStats) -> bool {
        let workers = &stats.nodes_per_worker;
        workers.iter().sum::<u64>() < stats.decisions && workers.iter().any(|&n| n > 0)
    }

    #[test]
    fn deterministic_join_is_reproducible_and_exact() {
        // Instances the head start cannot finish, so the one worker
        // drains the cube pool, re-splitting every two conflicts.
        let mut rng = ChaCha8Rng::seed_from_u64(0xde7);
        let mut resplit = false;
        for round in 0..3 {
            let inst = dense_instance(&mut rng, 32);
            let mut options = BsoloOptions::with_lb(LbMethod::Mis);
            let seq = Bsolo::new(options.clone()).solve(&inst);
            options.deterministic_join = true;
            options.resplit_conflicts = 2;
            for threads in [2usize, 8] {
                let a = ParBsolo::new(options.clone(), threads).solve(&inst);
                let b = ParBsolo::new(options.clone(), threads).solve(&inst);
                let label = format!("round {round} x{threads}");
                // Two runs are bit-equal on everything the mode promises:
                // status, cost, model, and the merged integer counters.
                assert_eq!(a.status, b.status, "{label}: status");
                assert_eq!(a.best_cost, b.best_cost, "{label}: cost");
                assert_eq!(a.best_assignment, b.best_assignment, "{label}: model");
                assert_eq!(a.stats.decisions, b.stats.decisions, "{label}: decisions");
                assert_eq!(a.stats.conflicts, b.stats.conflicts, "{label}: conflicts");
                assert_eq!(a.stats.propagations, b.stats.propagations, "{label}: propagations");
                assert_eq!(a.stats.resplits, b.stats.resplits, "{label}: resplits");
                assert_eq!(a.stats.solutions_found, b.stats.solutions_found, "{label}: solutions");
                assert_eq!(a.stats.nodes_per_worker, b.stats.nodes_per_worker, "{label}: nodes");
                // One worker drained the pool.
                assert_eq!(a.stats.nodes_per_worker.len(), 1, "{label}: one worker");
                assert!(workers_searched(&a.stats), "{label}: {:?}", a.stats.nodes_per_worker);
                resplit |= a.stats.resplits > 0;
                // And the answer agrees with the sequential solver.
                assert_eq!(a.status, seq.status, "{label}: vs sequential status");
                assert_eq!(a.best_cost, seq.best_cost, "{label}: vs sequential cost");
            }
        }
        assert!(resplit, "no round re-split a cube");
    }

    #[test]
    fn split_depth_truncation_is_reported() {
        // A depth cap of 1 with a large frontier target: the splitter
        // must freeze leaves early and say so.
        let mut rng = ChaCha8Rng::seed_from_u64(0x77);
        let inst = random_instance(&mut rng, 9);
        let split = CubeSplitter::split_to_depth(&inst, 64, 1);
        assert!(split.open.iter().all(|c| c.lits.len() <= 1));
        assert!(split.depth_truncated > 0, "depth-capped split must report truncation");
    }

    #[test]
    fn budget_exhaustion_degrades_not_lies() {
        // A zero-decision budget with several threads: the solve must
        // come back Unknown or Feasible, never a fabricated Optimal.
        let mut rng = ChaCha8Rng::seed_from_u64(0xbadbed);
        let n = 16;
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for i in 0..n {
            b.add_clause([
                vars[i].positive(),
                vars[(i + 3) % n].positive(),
                vars[(i + 7) % n].positive(),
            ]);
        }
        b.minimize(vars.iter().map(|v| (rng.gen_range(1..9), v.positive())));
        let inst = b.build().unwrap();
        let options = BsoloOptions::with_lb(LbMethod::Mis)
            .budget(Budget { conflicts: Some(1), ..Budget::default() });
        let got = ParBsolo::new(options, 3).solve(&inst);
        assert!(
            matches!(got.status, SolveStatus::Feasible | SolveStatus::Unknown),
            "budget run must degrade: {:?}",
            got.status
        );
        if let (Some(cost), Some(model)) = (got.best_cost, got.best_assignment.as_ref()) {
            assert_eq!(verify_solution(&inst, model), Ok(cost));
        }
    }

    #[test]
    fn unverifiable_cell_entry_does_not_hide_the_optimum() {
        // A caller's cell holding an entry that fails verification and
        // undercuts every real incumbent: no search can publish past it,
        // so the answer must come from the searches' own verified bests,
        // whether the head start finishes the proof (8 variables) or the
        // cube workers launch (24), racing or under deterministic join.
        let mut rng = ChaCha8Rng::seed_from_u64(0xb06);
        for n in [8, 24] {
            let inst = dense_instance(&mut rng, n);
            let mut options = BsoloOptions::with_lb(LbMethod::None);
            options.probing = false;
            options.cardinality_cuts = false;
            let expected = Bsolo::new(options.clone()).solve(&inst);
            let bogus = vec![false; n];
            assert!(verify_solution(&inst, &bogus).is_err(), "every clause is positive");
            for det in [false, true] {
                let cell = IncumbentCell::new();
                cell.offer(0, &bogus);
                options.deterministic_join = det;
                let got = ParBsolo::new(options.clone(), 2).solve_with_cell(&inst, Some(&cell));
                let label = format!("{n} variables, det {det}");
                assert_eq!(got.status, SolveStatus::Optimal, "{label}");
                assert_eq!(got.best_cost, expected.best_cost, "{label}");
                // Racing, both workers search; deterministic, the one
                // worker drains the pool.
                let busy = got.stats.nodes_per_worker.iter().filter(|&&w| w > 0).count();
                let launched = if det { workers_searched(&got.stats) } else { busy > 1 };
                assert_eq!(launched, n == 24, "{label}: workers {:?}", got.stats.nodes_per_worker);
            }
        }
    }

    /// A deterministic solve of a decision instance ends soon after its
    /// first model: the one worker shares the caller's cell, so every
    /// later cube prunes against that model instead of being run to
    /// exhaustion.
    #[test]
    #[ignore = "release-sized: the acc-seq decision shape, 2,040 variables"]
    fn deterministic_join_ends_a_decision_solve_at_its_model() {
        let (tx, rx) = std::sync::mpsc::channel();
        // Not scoped: a hung solve must fail the test, not hang it too.
        std::thread::spawn(move || {
            let inst = pbo_benchgen::AccSchedParams { teams: 16, home_away: true }.generate(0);
            let options = BsoloOptions { deterministic_join: true, ..BsoloOptions::default() };
            let got = ParBsolo::new(options, 2).solve(&inst);
            let model = got.best_assignment.as_ref();
            let verified = model.is_some_and(|m| verify_solution(&inst, m).is_ok());
            let _ = tx.send((got.status, verified));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok((status, verified)) => {
                assert_eq!(status, SolveStatus::Optimal, "a decision instance with a model");
                assert!(verified, "the model must verify");
            }
            Err(_) => panic!("the deterministic solve did not end within 10 s"),
        }
    }

    #[test]
    fn pre_cancelled_token_tears_down_without_a_claim() {
        // Cooperative cancellation end to end: a token cancelled before
        // the solve starts must come back quickly with `cancelled` set
        // and no exhaustion claim — and whatever incumbent it scraped
        // together on the way down must verify.
        let mut rng = ChaCha8Rng::seed_from_u64(0xca9ce1);
        let inst = dense_instance(&mut rng, 12);
        let cancel = pbo_core::CancelToken::new();
        cancel.cancel();
        let mut options = BsoloOptions::with_lb(LbMethod::Mis);
        options.cancel = Some(cancel);
        let got = ParBsolo::new(options, 3).solve(&inst);
        assert!(got.stats.cancelled, "the cancel must be reported");
        assert!(
            matches!(got.status, SolveStatus::Feasible | SolveStatus::Unknown),
            "a cancelled solve cannot claim exhaustion: {:?}",
            got.status
        );
        assert_eq!(got.service_status(), crate::result::ServiceStatus::Cancelled);
        if let (Some(cost), Some(model)) = (got.best_cost, got.best_assignment.as_ref()) {
            assert_eq!(verify_solution(&inst, model), Ok(cost));
        }
    }

    /// PR-9 acceptance criterion: an injected worker panic returns the
    /// pre-panic verified incumbent with a degraded status — never
    /// `Optimal` — and surfaces the loss in `workers_lost` /
    /// `cubes_quarantined` and the trace.
    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_worker_panic_degrades_to_feasible() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xfa171);
        let mut exercised = 0usize;
        for round in 0..6 {
            // Dense set-covering instances big enough that the head
            // start's small conflict budget cannot finish them, so cube
            // workers actually launch and the first one to take a cube
            // dies.
            let inst = dense_instance(&mut rng, 24 + 2 * (round % 3));
            let guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("par.cube", 1));
            let mut options = BsoloOptions::with_lb(LbMethod::None);
            options.probing = false;
            options.cardinality_cuts = false;
            options.trace = true;
            let got = ParBsolo::new(options, 3).solve(&inst);
            if guard.hits("par.cube") == 0 {
                // The head start finished the whole proof; no worker ran.
                assert!(matches!(got.status, SolveStatus::Optimal | SolveStatus::Infeasible));
                continue;
            }
            exercised += 1;
            assert!(got.stats.workers_lost >= 1, "round {round}: loss must be counted");
            assert!(got.stats.cubes_quarantined >= 1, "round {round}: cube must be quarantined");
            assert!(
                matches!(got.status, SolveStatus::Feasible | SolveStatus::Unknown),
                "round {round}: a holed partition cannot claim exhaustion: {:?}",
                got.status
            );
            if got.status == SolveStatus::Feasible {
                assert_eq!(
                    got.service_status(),
                    crate::result::ServiceStatus::FeasibleDegraded,
                    "round {round}"
                );
                let cost = got.best_cost.expect("feasible carries a cost");
                let model = got.best_assignment.as_ref().expect("feasible carries a model");
                assert_eq!(
                    verify_solution(&inst, model),
                    Ok(cost),
                    "round {round}: the surviving incumbent must verify"
                );
            }
            // The loss is visible in the trace, not just the counters.
            let lost =
                got.stats.trace.iter().filter(|e| matches!(e.data, TraceEvent::WorkerLost)).count();
            let quarantined = got
                .stats
                .trace
                .iter()
                .filter(|e| matches!(e.data, TraceEvent::CubeQuarantined { .. }))
                .count();
            assert_eq!(lost as u64, got.stats.workers_lost, "round {round}: trace reconciles");
            assert_eq!(
                quarantined as u64, got.stats.cubes_quarantined,
                "round {round}: trace reconciles"
            );
        }
        assert!(exercised >= 3, "only {exercised} rounds reached the cube workers");
    }

    /// The other harness sites: a fault at the re-split hand-off or the
    /// queue push must still yield a sound, verified result with
    /// exact quarantine accounting (the partition loses exactly the
    /// dying worker's parent cube).
    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_resplit_faults_stay_sound() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5711);
        for site in ["par.resplit", "sched.push"] {
            for round in 0..4 {
                let inst = dense_instance(&mut rng, 11);
                let guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on(site, 1));
                let mut options = BsoloOptions::with_lb(LbMethod::None);
                options.resplit_conflicts = 1;
                let got = ParBsolo::new(options, 3).solve(&inst);
                let fired = guard.hits(site) > 0;
                drop(guard);
                if fired {
                    assert!(
                        !matches!(got.status, SolveStatus::Optimal | SolveStatus::Infeasible)
                            || got.stats.cubes_quarantined == 0,
                        "{site} round {round}: exhaustion claimed over a quarantined cube"
                    );
                    assert!(
                        got.stats.workers_lost >= 1,
                        "{site} round {round}: loss must be counted"
                    );
                } else {
                    // No fault reached: the run must be an ordinary
                    // exact solve.
                    assert_eq!(got.stats.workers_lost, 0, "{site} round {round}");
                    assert_eq!(got.stats.cubes_quarantined, 0, "{site} round {round}");
                }
                if let (Some(cost), Some(model)) = (got.best_cost, got.best_assignment.as_ref()) {
                    assert_eq!(verify_solution(&inst, model), Ok(cost), "{site} round {round}");
                }
            }
        }
    }

    #[test]
    fn satisfaction_instances_solve_in_parallel() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5a7);
        for round in 0..15 {
            let n = rng.gen_range(4..9);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(3..9) {
                let k = rng.gen_range(2..=3.min(n));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                b.add_at_least(
                    rng.gen_range(1..=k as i64),
                    idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.6))),
                );
            }
            let inst = b.build().unwrap();
            let sat = brute_force(&inst).cost().is_some();
            let got = ParBsolo::new(BsoloOptions::with_lb(LbMethod::Lpr), 2).solve(&inst);
            if sat {
                assert_eq!(got.status, SolveStatus::Optimal, "round {round}: expected SAT");
                assert!(inst.is_feasible(got.best_assignment.as_ref().unwrap()));
            } else {
                assert_eq!(got.status, SolveStatus::Infeasible, "round {round}: expected UNSAT");
            }
        }
    }
}
