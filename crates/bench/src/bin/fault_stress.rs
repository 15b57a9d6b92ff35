//! Randomized crash-recovery stress harness for the fault-injection
//! probe layer (PR 9).
//!
//! Requires the `failpoints` feature:
//!
//! ```text
//! cargo run --release -p pbo-bench --features failpoints --bin fault_stress -- \
//!     [--seed N] [--rounds N] [--workers N]
//! ```
//!
//! Every round generates a seeded covering instance, solves it clean
//! under the deterministic join for a reference optimum, then re-solves
//! it in racing mode with one probe site armed to panic (site and hit
//! count drawn from the seeded schedule), and once more with the default
//! [`Portfolio`] (local-search seed phase, speculative branch-and-bound
//! on a second core, polish walks) under the same plan. The harness
//! asserts that **every** injected fault yields a well-formed, sound
//! result:
//!
//! * a quarantined cube (a worker died holding work) forbids an
//!   `Optimal`/`Infeasible` claim — the result degrades to `Feasible`
//!   (incumbent verified against the instance, cost no better than the
//!   reference optimum) or `Unknown`;
//! * a run that still claims `Optimal` must have zero quarantined cubes
//!   and must match the reference cost exactly;
//! * a fault that unwinds the *driver* thread (head start, splitter),
//!   or any thread of a default solve (the seed walk, a speculative
//!   run), surfaces as a panic to the caller — the harness catches it
//!   and asserts the process state is intact by re-solving clean;
//! * with the probes compiled in but no fault firing, two
//!   deterministic-join runs stay bit-identical (status, cost, decision
//!   and conflict counts), and so do two default solves (status, cost,
//!   and every effort counter) — the parity legs.
//!
//! Exit is zero only if every round passes; the first violation panics
//! with the round's seed, site and hit schedule for replay.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pbo_core::{verify_solution, Instance, InstanceBuilder};
use pbo_fault::{install, FaultPlan};
use pbo_solver::{BsoloOptions, LbMethod, ParBsolo, Portfolio, SolveResult, SolveStatus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Every planted probe site, paired with the lower-bound method that
/// reaches it (the bound dispatch probe needs a non-trivial pipeline;
/// everything else runs fastest with the trivial bound).
const SITES: &[(&str, LbMethod)] = &[
    ("par.cube", LbMethod::None),
    ("par.resplit", LbMethod::None),
    ("sched.push", LbMethod::None),
    ("bound.dispatch", LbMethod::Mis),
    ("cell.offer", LbMethod::None),
];

/// Random covering instance: wide enough that the sequential head start
/// cannot finish it, so the cube frontier (and every probe site behind
/// it) actually runs.
fn covering_instance(rng: &mut ChaCha8Rng, n: usize) -> Instance {
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
    b.build().expect("covering instance is well-formed")
}

/// Racing-mode options tuned so the machinery behind every probe site
/// is exercised: aggressive re-splitting (re-split + push), frequent
/// restarts, a weak head (workers actually launch).
fn racing_options(lb: LbMethod) -> BsoloOptions {
    let mut options = BsoloOptions::with_lb(lb);
    options.probing = false;
    options.cardinality_cuts = false;
    options.resplit_conflicts = Some(4);
    options.restart_base = Some(4);
    options
}

fn solve_digest(r: &SolveResult) -> (SolveStatus, Option<i64>, u64, u64) {
    (r.status, r.best_cost, r.stats.decisions, r.stats.conflicts)
}

/// Status, cost and every effort counter a default solve reproduces.
fn counter_digest(r: &SolveResult) -> (SolveStatus, Option<i64>, [u64; 6]) {
    let s = &r.stats;
    let counters =
        [s.decisions, s.conflicts, s.propagations, s.lb_calls, s.lp_iterations, s.ls_steps];
    (r.status, r.best_cost, counters)
}

/// What one faulted solve came to.
enum Faulted {
    /// It returned after the fault fired.
    Survived,
    /// The fault unwound to the caller.
    Panicked,
    /// Nothing fired.
    Clean,
}

/// Checks one faulted solve against the reference optimum: a returned
/// result must be sound, and a panic must have come from the armed
/// fault and leave the process able to re-solve to the optimum.
fn check_faulted(
    tag: &str,
    inst: &Instance,
    optimum: i64,
    outcome: std::thread::Result<SolveResult>,
    fired: bool,
    resolve: impl Fn() -> SolveResult,
) -> Faulted {
    let got = match outcome {
        Ok(got) => got,
        Err(_) => {
            // The fault unwound a thread the solve does not contain (head
            // start, splitter, sequential fallback, a default solve's
            // walk or speculative run). Acceptable — but the process must
            // remain usable: no poisoned global, no wedged scheduler
            // thread. Prove it with a clean solve.
            assert!(fired, "{tag}: solve panicked yet the armed fault never fired");
            let again = resolve();
            assert_eq!(again.status, SolveStatus::Optimal, "{tag}: state wedged after fault");
            assert_eq!(again.best_cost, Some(optimum), "{tag}: state torn after fault");
            return Faulted::Panicked;
        }
    };
    match got.status {
        SolveStatus::Optimal | SolveStatus::Infeasible => {
            assert_eq!(
                got.stats.cubes_quarantined, 0,
                "{tag}: a holed partition cannot claim exhaustion"
            );
            assert_eq!(got.status, SolveStatus::Optimal, "{tag}: instance is feasible");
            assert_eq!(got.best_cost, Some(optimum), "{tag}: exact claim, exact cost");
        }
        SolveStatus::Feasible => {
            let cost = got.best_cost.expect("feasible carries a cost");
            let model = got.best_assignment.as_ref().expect("feasible carries a model");
            assert_eq!(
                verify_solution(inst, model),
                Ok(cost),
                "{tag}: surviving incumbent must verify"
            );
            assert!(cost >= optimum, "{tag}: cost below the true optimum is unsound");
        }
        SolveStatus::Unknown => {}
    }
    if got.stats.cubes_quarantined > 0 {
        assert!(
            matches!(got.status, SolveStatus::Feasible | SolveStatus::Unknown),
            "{tag}: quarantine must degrade the claim, got {:?}",
            got.status
        );
        assert!(got.degraded(), "{tag}: degraded() must reflect the loss");
    }
    if fired {
        Faulted::Survived
    } else {
        Faulted::Clean
    }
}

fn main() {
    let mut seed = 0xfa17u64;
    let mut rounds = 24usize;
    let mut workers = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().expect("--seed").parse().expect("bad seed"),
            "--rounds" => rounds = args.next().expect("--rounds").parse().expect("bad rounds"),
            "--workers" => workers = args.next().expect("--workers").parse().expect("bad workers"),
            other => panic!("unknown argument {other}"),
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Per leg (racing `ParBsolo`, default `Portfolio`): faults that fired
    // and the solve survived, and faults that surfaced as panics.
    let mut survived = [0usize; 2];
    let mut panicked = [0usize; 2];
    // Injected panics are the point of the exercise; keep their
    // backtraces out of the log. Everything else (the harness's own
    // assertion failures) still prints through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<String>().is_some_and(|m| m.starts_with("failpoint: "));
        if !injected {
            default_hook(info);
        }
    }));
    for round in 0..rounds {
        let (site, lb) = SITES[round % SITES.len()];
        let nth = rng.gen_range(1..=3);
        let inst = covering_instance(&mut rng, 22 + round % 5);
        let tag = format!("round {round} (seed {seed}, site {site}, nth {nth})");

        // Reference: clean deterministic-join run, no plan installed.
        let mut det = racing_options(lb);
        det.deterministic_join = true;
        let reference = ParBsolo::new(det.clone(), workers).solve(&inst);
        assert_eq!(reference.status, SolveStatus::Optimal, "{tag}: clean reference must close");
        let optimum = reference.best_cost.expect("optimal run carries a cost");

        // Faulted runs: one site armed, drawn from the schedule, for the
        // racing parallel solver and for the default portfolio; each with
        // the clean solve that must still reach the optimum after a panic.
        type Solve<'a> = &'a dyn Fn() -> SolveResult;
        let legs: [(&str, Solve, Solve); 2] = [
            ("racing", &|| ParBsolo::new(racing_options(lb), workers).solve(&inst), &|| {
                ParBsolo::new(det.clone(), workers).solve(&inst)
            }),
            ("portfolio", &|| Portfolio::default().solve(&inst), &|| {
                Portfolio::default().solve(&inst)
            }),
        ];
        for (leg, (name, solve, resolve)) in legs.into_iter().enumerate() {
            let guard = install(FaultPlan::new().panic_on(site, nth));
            let outcome = catch_unwind(AssertUnwindSafe(solve));
            let fired = guard.hits(site) >= nth;
            drop(guard);
            match check_faulted(&format!("{tag} [{name}]"), &inst, optimum, outcome, fired, resolve)
            {
                Faulted::Survived => survived[leg] += 1,
                Faulted::Panicked => panicked[leg] += 1,
                Faulted::Clean => {}
            }
        }

        // Parity leg: probes compiled in, armed on this site but far out
        // of reach — the deterministic join must stay bit-identical.
        let guard = install(FaultPlan::new().panic_on(site, u64::MAX));
        let a = ParBsolo::new(det.clone(), workers).solve(&inst);
        let b = ParBsolo::new(det.clone(), workers).solve(&inst);
        let c = Portfolio::default().solve(&inst);
        let d = Portfolio::default().solve(&inst);
        drop(guard);
        assert_eq!(solve_digest(&a), solve_digest(&b), "{tag}: det-join parity broke");
        assert_eq!(solve_digest(&a), solve_digest(&reference), "{tag}: unfired probes perturbed");
        assert_eq!(counter_digest(&c), counter_digest(&d), "{tag}: default-solve parity broke");
        assert_eq!(c.status, SolveStatus::Optimal, "{tag}: clean default solve must close");
        assert_eq!(c.best_cost, Some(optimum), "{tag}: clean default solve disagrees");
    }
    println!(
        "fault_stress: {rounds} rounds ok (seed {seed}; racing: {} faults fired and survived, \
         {} surfaced as driver panics; default portfolio: {} survived, {} surfaced as panics)",
        survived[0], panicked[0], survived[1], panicked[1]
    );
}
