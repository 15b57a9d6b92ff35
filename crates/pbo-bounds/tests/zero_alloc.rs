//! Steady-state allocation test for the per-node bound kernels.
//!
//! The per-node hot path — residual-state `apply`/`unwind_to`, the
//! `view` snapshot, and the MIS / LGR / LPR bound kernels through
//! `lower_bound_into` (LPR with its warm dual simplex and its trail
//! mirror) — must not allocate once warmed up: every scratch
//! buffer is reusable and epoch-stamped, the hot sorts are unstable
//! (stable sorts allocate merge buffers), and the explanation is built
//! into the caller's reusable `LbOutcome`. This test installs a global
//! allocator that counts each thread's allocations, replays the same
//! apply/bound/unwind script twice, and asserts the second
//! (steady-state) replay performs **zero** allocations on its thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pbo_benchgen::RandomParams;
use pbo_bounds::{LagrangianBound, LbOutcome, LowerBound, LprBound, MisBound, ResidualState};
use pbo_core::{Assignment, Instance, Lit, Var};
use pbo_trace::{BoundOutcome, TraceEvent, Tracer};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A process-wide count also saw
    /// the sibling test and the test harness's own thread allocate
    /// inside the measured window (2% of runs failed that way).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// The pbo-bounds crate itself forbids unsafe code; this integration test
// is a separate crate, and a counting allocator is the only way to
// observe heap traffic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A covering-style instance large enough that the kernels exercise all
/// their scratch paths.
fn probe_instance() -> Instance {
    RandomParams {
        vars: 40,
        constraints: 60,
        arity: (3, 7),
        coeff: (1, 4),
        positive_bias: 1.0,
        optimization: true,
        ..RandomParams::default()
    }
    .generate(11)
}

/// The per-node script: apply a batch of literals, bound with both
/// kernels, unwind — the exact shape of the solver's hot loop,
/// including the telemetry emission the `BoundPipeline` performs after
/// every bound call. With the default no-op sink (`Tracer::off`) the
/// emission must cost a single branch and zero heap traffic — that is
/// the disabled-path overhead contract of `pbo-trace`.
#[allow(clippy::too_many_arguments)]
fn replay_script(
    instance: &Instance,
    state: &mut ResidualState,
    assignment: &mut Assignment,
    mis: &mut MisBound,
    lgr: &mut LagrangianBound,
    out: &mut LbOutcome,
    tracer: &Tracer,
    upper: i64,
    script: &[Vec<Lit>],
) {
    for batch in script {
        for &lit in batch {
            assignment.assign_lit(lit);
            state.apply(instance, lit);
        }
        {
            let view = state.view(instance, assignment);
            mis.lower_bound_into(&view, Some(upper), out);
            tracer.emit(TraceEvent::Bound {
                method: "mis",
                outcome: BoundOutcome::Open,
                margin: out.bound,
                dur_ns: 0,
            });
        }
        {
            let view = state.view(instance, assignment);
            lgr.lower_bound_into(&view, Some(upper), out);
            tracer.emit(TraceEvent::Bound {
                method: "lgr",
                outcome: BoundOutcome::Open,
                margin: out.bound,
                dur_ns: 0,
            });
        }
        for &lit in batch.iter().rev() {
            assignment.unassign(lit.var());
        }
        state.unwind_to(instance, 0);
    }
}

#[test]
fn mis_and_lgr_per_node_calls_are_allocation_free_at_steady_state() {
    let instance = probe_instance();
    let total_cost: i64 =
        instance.objective().expect("optimization").terms().iter().map(|&(c, _)| c).sum();
    let upper = (2 * total_cost) / 3 + 1;

    let mut state = ResidualState::new(&instance);
    let mut assignment = Assignment::new(instance.num_vars());
    let mut mis = MisBound::new();
    let mut lgr = LagrangianBound::new(instance.num_constraints());
    let mut out = LbOutcome::bound(0, Vec::new());
    let tracer = Tracer::off();

    // A deterministic batch script over distinct variables.
    let script: Vec<Vec<Lit>> = (0..8)
        .map(|round| {
            (0..5)
                .map(|k| Var::new((round * 5 + k) % instance.num_vars()).lit(k % 2 == 0))
                .collect()
        })
        .collect();

    // Warm-up: grow every scratch buffer to its steady-state capacity.
    for _ in 0..3 {
        replay_script(
            &instance,
            &mut state,
            &mut assignment,
            &mut mis,
            &mut lgr,
            &mut out,
            &tracer,
            upper,
            &script,
        );
    }

    // Steady state: replaying the same script — telemetry emission
    // through the no-op sink included — must not touch the heap.
    let before = allocs();
    replay_script(
        &instance,
        &mut state,
        &mut assignment,
        &mut mis,
        &mut lgr,
        &mut out,
        &tracer,
        upper,
        &script,
    );
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "per-node apply/view/bound/unwind performed {delta} heap allocations at steady state"
    );
}

/// The LPR per-node script: the pipeline's shape for the LP bound —
/// mirror the batch into the LP bounds through the trail protocol, bound
/// with one warm re-solve, unwind the mirror.
#[allow(clippy::too_many_arguments)]
fn replay_lpr_script(
    instance: &Instance,
    state: &mut ResidualState,
    assignment: &mut Assignment,
    lpr: &mut LprBound,
    out: &mut LbOutcome,
    tracer: &Tracer,
    upper: i64,
    script: &[Vec<Lit>],
) -> u64 {
    let mut infeasible = 0;
    for batch in script {
        for &lit in batch {
            assignment.assign_lit(lit);
            state.apply(instance, lit);
            lpr.apply(lit);
        }
        let view = state.view(instance, assignment);
        lpr.lower_bound_into(&view, Some(upper), out);
        infeasible += out.infeasible as u64;
        tracer.emit(TraceEvent::Bound {
            method: "lpr",
            outcome: BoundOutcome::Open,
            margin: out.bound,
            dur_ns: 0,
        });
        for &lit in batch.iter().rev() {
            assignment.unassign(lit.var());
        }
        state.unwind_to(instance, 0);
        lpr.unwind_to(0);
    }
    infeasible
}

#[test]
fn lpr_per_node_call_is_allocation_free_at_steady_state() {
    let instance = probe_instance();
    let total_cost: i64 =
        instance.objective().expect("optimization").terms().iter().map(|&(c, _)| c).sum();
    let upper = (2 * total_cost) / 3 + 1;
    let mut state = ResidualState::new(&instance);
    let mut assignment = Assignment::new(instance.num_vars());
    let mut lpr = LprBound::new(&instance);
    let mut out = LbOutcome::bound(0, Vec::new());
    let tracer = Tracer::off();

    // Batches of fixings, mostly to 0, so that some nodes are proven
    // LP-infeasible and the Farkas path is replayed too.
    let script: Vec<Vec<Lit>> = (0..12)
        .map(|round| {
            (0..3 + round % 5)
                .map(|k| Var::new((round * 7 + k * 3) % instance.num_vars()).lit(k % 3 == 0))
                .collect()
        })
        .collect();
    let replay = |state: &mut ResidualState,
                  assignment: &mut Assignment,
                  lpr: &mut LprBound,
                  out: &mut LbOutcome| {
        replay_lpr_script(&instance, state, assignment, lpr, out, &tracer, upper, &script)
    };

    // Warm-up: grow every scratch buffer (the simplex's included) to
    // its steady-state capacity.
    for _ in 0..3 {
        replay(&mut state, &mut assignment, &mut lpr, &mut out);
    }
    let pivots = lpr.simplex_iterations();
    let before = allocs();
    let infeasible = replay(&mut state, &mut assignment, &mut lpr, &mut out);
    let delta = allocs() - before;
    assert_eq!(delta, 0, "warm LPR per-node calls performed {delta} heap allocations");
    assert!(lpr.simplex_iterations() > pivots, "the replay must pivot");
    assert!(infeasible > 0, "the replay must reach an LP-infeasible node");
}

#[test]
fn first_calls_do_allocate_making_the_counter_meaningful() {
    // Sanity check of the instrument itself: a cold engine must show
    // allocator traffic, or the zero assertion above proves nothing.
    let instance = probe_instance();
    let before = allocs();
    let mut state = ResidualState::new(&instance);
    let assignment = Assignment::new(instance.num_vars());
    let mut mis = MisBound::new();
    let mut out = LbOutcome::bound(0, Vec::new());
    let view = state.view(&instance, &assignment);
    mis.lower_bound_into(&view, None, &mut out);
    let delta = allocs() - before;
    assert!(delta > 0, "cold-start path must allocate (counter wired correctly)");
}
