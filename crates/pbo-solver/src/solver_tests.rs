//! Cross-validation of every solver configuration against the exhaustive
//! reference solver, plus behavioural tests of the paper's mechanisms.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use pbo_core::{brute_force, Instance, InstanceBuilder, Lit, RelOp};

use crate::pipeline::with_rebuild_oracle;
use crate::{Bsolo, BsoloOptions, Budget, LbMethod, LinearSearch, MilpSolver, SolveStatus};

/// Random optimization instance with clauses, cardinality and general PB
/// constraints.
fn random_instance(rng: &mut ChaCha8Rng, n_max: usize) -> Instance {
    let n = rng.gen_range(3..=n_max);
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    let m = rng.gen_range(2..10);
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
    if rng.gen_bool(0.9) {
        b.minimize(vars.iter().map(|v| (rng.gen_range(0..6), v.lit(rng.gen_bool(0.85)))));
    }
    b.build().unwrap()
}

fn check_result(
    inst: &Instance,
    got: &crate::SolveResult,
    expected: &pbo_core::BruteForceResult,
    label: &str,
) {
    match expected.cost() {
        Some(opt) => {
            assert_eq!(got.status, SolveStatus::Optimal, "{label}: expected optimal");
            assert_eq!(got.best_cost, Some(opt), "{label}: wrong optimum");
            let model = got.best_assignment.as_ref().expect("model present");
            assert!(inst.is_feasible(model), "{label}: infeasible model");
            assert_eq!(inst.cost_of(model), opt, "{label}: model cost mismatch");
        }
        None => {
            assert_eq!(got.status, SolveStatus::Infeasible, "{label}: expected infeasible");
            assert!(got.best_cost.is_none(), "{label}: phantom solution");
        }
    }
}

#[test]
fn bsolo_lpr_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0110);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 9);
        let expected = brute_force(&inst);
        let got = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
        check_result(&inst, &got, &expected, &format!("lpr round {round}"));
    }
}

#[test]
fn bsolo_mis_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0111);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 9);
        let expected = brute_force(&inst);
        let got = Bsolo::with_lb(LbMethod::Mis).solve(&inst);
        check_result(&inst, &got, &expected, &format!("mis round {round}"));
    }
}

#[test]
fn bsolo_lagrangian_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0112);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 9);
        let expected = brute_force(&inst);
        let got = Bsolo::with_lb(LbMethod::Lagrangian).solve(&inst);
        check_result(&inst, &got, &expected, &format!("lgr round {round}"));
    }
}

#[test]
fn bsolo_plain_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0113);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 8);
        let expected = brute_force(&inst);
        let got = Bsolo::with_lb(LbMethod::None).solve(&inst);
        check_result(&inst, &got, &expected, &format!("plain round {round}"));
    }
}

#[test]
fn linear_search_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0114);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 8);
        let expected = brute_force(&inst);
        let got = LinearSearch::pbs_like(Budget::unlimited()).solve(&inst);
        check_result(&inst, &got, &expected, &format!("pbs round {round}"));
        let got = LinearSearch::galena_like(Budget::unlimited()).solve(&inst);
        check_result(&inst, &got, &expected, &format!("galena round {round}"));
    }
}

#[test]
fn milp_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0115);
    for round in 0..60 {
        let inst = random_instance(&mut rng, 8);
        let expected = brute_force(&inst);
        let got = MilpSolver::new(Budget::unlimited()).solve(&inst);
        check_result(&inst, &got, &expected, &format!("milp round {round}"));
    }
}

#[test]
fn ablation_toggles_preserve_correctness() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0116);
    for round in 0..40 {
        let inst = random_instance(&mut rng, 8);
        let expected = brute_force(&inst);
        for (label, options) in [
            (
                "no-cuts",
                BsoloOptions { cardinality_cuts: false, ..BsoloOptions::with_lb(LbMethod::Lpr) },
            ),
            ("no-probing", BsoloOptions { probing: false, ..BsoloOptions::with_lb(LbMethod::Mis) }),
            ("lpr", BsoloOptions::with_lb(LbMethod::Lpr)),
            ("mis", BsoloOptions::with_lb(LbMethod::Mis)),
            ("lgr", BsoloOptions::with_lb(LbMethod::Lagrangian)),
        ] {
            let got = Bsolo::new(options).solve(&inst);
            check_result(&inst, &got, &expected, &format!("{label} round {round}"));
        }
        let got = with_rebuild_oracle(|| Bsolo::with_lb(LbMethod::Mis).solve(&inst));
        check_result(&inst, &got, &expected, &format!("mis-rebuild round {round}"));
    }
}

#[test]
fn satisfaction_instances_all_solvers() {
    // Pure PB-SAT (acc-style): no objective.
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0117);
    for round in 0..30 {
        let n = rng.gen_range(4..9);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..rng.gen_range(3..10) {
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
        for (label, result) in [
            ("bsolo", Bsolo::with_lb(LbMethod::Lpr).solve(&inst)),
            ("pbs", LinearSearch::pbs_like(Budget::unlimited()).solve(&inst)),
            ("milp", MilpSolver::new(Budget::unlimited()).solve(&inst)),
        ] {
            if sat {
                assert_eq!(
                    result.status,
                    SolveStatus::Optimal,
                    "{label} round {round}: expected SAT"
                );
                let model = result.best_assignment.as_ref().unwrap();
                assert!(inst.is_feasible(model), "{label} round {round}");
            } else {
                assert_eq!(
                    result.status,
                    SolveStatus::Infeasible,
                    "{label} round {round}: expected UNSAT"
                );
            }
        }
    }
}

#[test]
fn bound_conflicts_backjump_non_chronologically() {
    // A structured instance where early cheap decisions force the bound
    // conflict while later free variables do not participate: the solver
    // must report backjump distance above the pure-conflict count.
    let mut b = InstanceBuilder::new();
    let costed = b.new_vars(6);
    let free = b.new_vars(8);
    // Two disjoint "expensive" covers.
    b.add_at_least(2, costed[..3].iter().map(|v| v.positive()));
    b.add_at_least(2, costed[3..].iter().map(|v| v.positive()));
    // Free variables only lightly constrained.
    for w in free.windows(2) {
        b.add_clause([w[0].positive(), w[1].positive()]);
    }
    b.minimize(costed.iter().enumerate().map(|(i, v)| ((i + 1) as i64, v.positive())));
    let inst = b.build().unwrap();
    let result = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    assert!(result.is_optimal());
    // Optimum: 1+2 from the first cover, 4+5 from the second = 12.
    assert_eq!(result.best_cost, Some(12));
}

#[test]
fn budget_exhaustion_reports_incumbent() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0118);
    // A larger instance with a tiny conflict budget: we should get
    // Feasible-or-Unknown, never a wrong Optimal.
    let n = 18;
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    for i in 0..n {
        let j = (i + 1) % n;
        let k = (i + 7) % n;
        b.add_clause([vars[i].positive(), vars[j].positive(), vars[k].positive()]);
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(1..10), v.positive())));
    let inst = b.build().unwrap();
    let opt = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    assert!(opt.is_optimal());
    let budgeted =
        Bsolo::new(BsoloOptions::with_lb(LbMethod::None).budget(Budget::conflict_limit(3)))
            .solve(&inst);
    match budgeted.status {
        SolveStatus::Feasible => {
            assert!(budgeted.best_cost.unwrap() >= opt.best_cost.unwrap());
        }
        SolveStatus::Unknown => {}
        SolveStatus::Optimal => {
            // Legitimate if the optimum was proven within 3 conflicts.
            assert_eq!(budgeted.best_cost, opt.best_cost);
        }
        SolveStatus::Infeasible => panic!("instance is satisfiable"),
    }
}

/// A budgeted solve runs under a child of the caller's cancel token, so
/// the token comes back without a deadline and a later unbudgeted solve
/// on the same token runs to its optimum, sequential and parallel.
#[test]
fn budgeted_solve_leaves_a_reused_cancel_token_unarmed() {
    use std::time::Duration;
    let inst = pbo_benchgen::PtlCmosParams { gates: 60, ..Default::default() }.generate(0);
    for threads in [1usize, 2] {
        let cancel = pbo_core::CancelToken::new();
        let options = BsoloOptions { cancel: Some(cancel.clone()), ..BsoloOptions::default() };
        let solve = |options: BsoloOptions| match threads {
            1 => Bsolo::new(options).solve(&inst),
            n => crate::ParBsolo::new(options, n).solve(&inst),
        };
        solve(options.clone().budget(Budget::time_limit(Duration::from_millis(1))));
        // Past the budget's deadline, had it been left in the token.
        std::thread::sleep(Duration::from_millis(5));
        let reused = solve(options);
        assert_eq!(reused.status, SolveStatus::Optimal, "{threads} thread(s)");
        assert!(!reused.stats.cancelled, "{threads} thread(s): cancelled");
        assert_eq!(cancel.deadline(), None, "{threads} thread(s): the token kept a deadline");
    }
}

/// A time budget bounds a single LP solve even when the caller passes no
/// cancel token (`pbo-solve --timeout-ms`, `pbo::solve`, Table 1): on a
/// tall random instance one root relaxation solve outlasts a 300 ms
/// budget, and the search must still end within a second of it,
/// reporting budget exhaustion rather than a cancellation.
/// Wall-clock-sensitive, so ignored by default; CI runs it in release.
#[test]
#[ignore = "timing-sensitive: run with --release -- --ignored (CI does)"]
fn budget_bounds_a_long_lp_solve_without_a_cancel_token() {
    use std::time::{Duration, Instant};
    // Tall covering rows: eight variables each, a third of the weight
    // required.
    let mut rng = ChaCha8Rng::seed_from_u64(0x7a11);
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(300);
    for _ in 0..3_000 {
        let mut idxs: Vec<usize> = (0..vars.len()).collect();
        for i in 0..8 {
            let j = rng.gen_range(i..vars.len());
            idxs.swap(i, j);
        }
        let terms: Vec<(i64, Lit)> =
            idxs[..8].iter().map(|&i| (rng.gen_range(1..4), vars[i].positive())).collect();
        let rhs = terms.iter().map(|t| t.0).sum::<i64>() / 3;
        b.add_linear(terms, RelOp::Ge, rhs);
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(1..10), v.positive())));
    let inst = b.build().expect("covering rows are satisfiable");
    let budget = Duration::from_millis(300);
    let start = Instant::now();
    let got = Bsolo::new(BsoloOptions::default().budget(Budget::time_limit(budget))).solve(&inst);
    let elapsed = start.elapsed();
    assert!(elapsed < budget + Duration::from_secs(1), "300 ms budget ran {elapsed:?}");
    assert!(
        matches!(got.status, SolveStatus::Unknown | SolveStatus::Feasible),
        "{:?} under an expired budget",
        got.status
    );
    assert!(!got.stats.cancelled, "budget exhaustion reported as a cancellation");
}

#[test]
fn lpr_prunes_more_than_plain() {
    // On a cost-dominated instance the LPR configuration must explore
    // fewer decisions than plain - the paper's central claim.
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0119);
    let n = 14;
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    for _ in 0..10 {
        let mut idxs: Vec<usize> = (0..n).collect();
        for i in 0..4 {
            let j = rng.gen_range(i..n);
            idxs.swap(i, j);
        }
        b.add_at_least(2, idxs[..4].iter().map(|&i| vars[i].positive()));
    }
    b.minimize(vars.iter().map(|v| (rng.gen_range(5..20), v.positive())));
    let inst = b.build().unwrap();
    let lpr = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    let plain = Bsolo::with_lb(LbMethod::None).solve(&inst);
    assert!(lpr.is_optimal() && plain.is_optimal());
    assert_eq!(lpr.best_cost, plain.best_cost);
    assert!(
        lpr.stats.decisions <= plain.stats.decisions,
        "LPR ({}) should not need more decisions than plain ({})",
        lpr.stats.decisions,
        plain.stats.decisions
    );
    assert!(lpr.stats.bound_conflicts > 0, "LPR should prune via bound conflicts");
}

#[test]
fn infeasible_instances_detected() {
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(3);
    // Pigeonhole 3->2 again, with an objective on top.
    b.add_at_least(2, [v[0].positive(), v[1].positive()]);
    b.add_at_least(2, [v[0].negative(), v[1].negative()]);
    b.minimize([(1, v[2].positive())]);
    let inst = b.build().unwrap();
    for (label, result) in [
        ("bsolo-lpr", Bsolo::with_lb(LbMethod::Lpr).solve(&inst)),
        ("bsolo-plain", Bsolo::with_lb(LbMethod::None).solve(&inst)),
        ("pbs", LinearSearch::pbs_like(Budget::unlimited()).solve(&inst)),
        ("milp", MilpSolver::new(Budget::unlimited()).solve(&inst)),
    ] {
        assert_eq!(result.status, SolveStatus::Infeasible, "{label}");
    }
}

#[test]
fn zero_cost_objective_behaves_like_sat() {
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(2);
    b.add_clause([v[0].positive(), v[1].positive()]);
    b.minimize(Vec::<(i64, Lit)>::new());
    let inst = b.build().unwrap();
    let result = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    assert!(result.is_optimal());
    assert_eq!(result.best_cost, Some(0));
}

#[test]
fn incremental_and_rebuild_residual_modes_are_equivalent() {
    // The tentpole invariant: the incrementally maintained residual state
    // must drive the search through exactly the same trajectory as the
    // per-node rebuild. The solver is deterministic, so every effort
    // counter — not just the optimum — must agree.
    let mut rng = ChaCha8Rng::seed_from_u64(0x1234);
    for lb in [LbMethod::Mis, LbMethod::Lagrangian, LbMethod::Lpr] {
        for round in 0..25 {
            let inst = random_instance(&mut rng, 10);
            let incremental = Bsolo::with_lb(lb).solve(&inst);
            let rebuild = with_rebuild_oracle(|| Bsolo::with_lb(lb).solve(&inst));
            let label = format!("{lb:?} round {round}");
            assert_eq!(incremental.status, rebuild.status, "{label}: status");
            assert_eq!(incremental.best_cost, rebuild.best_cost, "{label}: cost");
            assert_eq!(incremental.best_assignment, rebuild.best_assignment, "{label}: model");
            assert_eq!(incremental.stats.decisions, rebuild.stats.decisions, "{label}: decisions");
            assert_eq!(incremental.stats.conflicts, rebuild.stats.conflicts, "{label}: conflicts");
            assert_eq!(incremental.stats.lb_calls, rebuild.stats.lb_calls, "{label}: lb calls");
            assert_eq!(
                incremental.stats.bound_conflicts, rebuild.stats.bound_conflicts,
                "{label}: bound conflicts"
            );
            assert_eq!(
                incremental.stats.lb_margin_sum, rebuild.stats.lb_margin_sum,
                "{label}: bound strength"
            );
        }
    }
}

#[test]
fn lpr_farkas_prunes_before_first_incumbent() {
    // A cost-dominated covering instance where deep subtrees become
    // infeasible: LPR must be allowed to bound (and prune) before any
    // solution exists. The pre-incumbent calls report upper = None, so
    // any pruning they do is infeasibility-only.
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(6);
    // Exactly-one style pair: x1 + x2 >= 1 and ~x1 + ~x2 >= 1.
    b.add_clause([v[0].positive(), v[1].positive()]);
    b.add_clause([v[0].negative(), v[1].negative()]);
    b.add_at_least(2, [v[2].positive(), v[3].positive(), v[4].positive()]);
    b.add_clause([v[4].positive(), v[5].positive()]);
    b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
    let inst = b.build().unwrap();
    let expected = brute_force(&inst);
    let got = Bsolo::with_lb(LbMethod::Lpr).solve(&inst);
    check_result(&inst, &got, &expected, "farkas");
    // The bound procedure ran: before this PR lb_calls stayed 0 until an
    // incumbent existed, so a solve that finds the optimum on its first
    // descent never bounded at all.
    assert!(got.stats.lb_calls > 0, "LPR should bound from the first node");
}

#[test]
fn aggressive_restarts_preserve_correctness_and_fire() {
    // A tiny Luby base forces many restarts; the search must still
    // prove the brute-force optimum, and the restart counter must show
    // the machinery actually ran.
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e57);
    for round in 0..20 {
        let inst = random_instance(&mut rng, 10);
        let expected = brute_force(&inst);
        for lb in [LbMethod::Mis, LbMethod::Lpr] {
            let got =
                Bsolo::new(BsoloOptions { restart_base: Some(2), ..BsoloOptions::with_lb(lb) })
                    .solve(&inst);
            check_result(&inst, &got, &expected, &format!("{lb:?} restarts round {round}"));
        }
    }
    // Tiny instances may solve conflict-free; a synthesis-style covering
    // instance reliably conflicts, so the restart machinery must fire
    // there (and the solve must still be optimal).
    let inst = pbo_benchgen::SynthesisParams {
        primes: 30,
        minterms: 50,
        cover_density: 3.0,
        exclusions: 5,
        ..pbo_benchgen::SynthesisParams::default()
    }
    .generate(0);
    let got =
        Bsolo::new(BsoloOptions { restart_base: Some(2), ..BsoloOptions::with_lb(LbMethod::Mis) })
            .solve(&inst);
    assert_eq!(got.status, SolveStatus::Optimal);
    assert!(got.stats.restarts > 0, "base-2 Luby restarts must fire: {:?}", got.stats);
}

/// Small synthesis-family instances (the paper's covering shape), sized
/// so the {1, 2, 4}-worker matrix stays fast.
fn synthesis_seeds(seeds: u64) -> Vec<Instance> {
    (0..seeds)
        .map(|s| {
            pbo_benchgen::SynthesisParams {
                primes: 24,
                minterms: 40,
                cover_density: 3.0,
                exclusions: 4,
                ..pbo_benchgen::SynthesisParams::default()
            }
            .generate(s)
        })
        .collect()
}

#[test]
fn parallel_workers_agree_on_every_synthesis_seed() {
    // PR-5 parity gate: bb_threads ∈ {1, 2, 4} must all return the same
    // verified optimum on every synthesis seed; the single-worker run is
    // the sequential solver by delegation, so it doubles as the
    // reference.
    for (seed, inst) in synthesis_seeds(4).into_iter().enumerate() {
        let reference = crate::ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), 1).solve(&inst);
        assert!(reference.is_optimal(), "seed {seed}: reference must solve");
        let opt = reference.best_cost.expect("synthesis instances are feasible");
        for threads in [2usize, 4] {
            let got =
                crate::ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), threads).solve(&inst);
            assert!(got.is_optimal(), "seed {seed} x{threads}: must prove optimality");
            assert_eq!(got.best_cost, Some(opt), "seed {seed} x{threads}: optimum mismatch");
            let model = got.best_assignment.as_ref().expect("model present");
            assert_eq!(pbo_core::verify_solution(&inst, model), Ok(opt), "seed {seed}");
            assert_eq!(got.stats.nodes_per_worker.len(), threads, "seed {seed}");
            // The solve's node total is the workers' nodes plus the
            // splitter's lookahead decisions.
            assert!(
                got.stats.nodes_per_worker.iter().sum::<u64>() <= got.stats.decisions,
                "seed {seed} x{threads}: per-worker nodes exceed the total"
            );
        }
    }
}

#[test]
fn every_strategy_agrees_under_parallel_exact_search() {
    // Both SolveStrategy variants with bb_threads = 2 find the verified
    // optimum (the cube pool replaces the sequential exact side in every
    // strategy).
    use crate::{Portfolio, PortfolioOptions, SolveStrategy};
    for (seed, inst) in synthesis_seeds(2).into_iter().enumerate() {
        let expected = Bsolo::with_lb(LbMethod::Mis).solve(&inst);
        assert!(expected.is_optimal());
        for strategy in [SolveStrategy::Exact, SolveStrategy::LsSeeded] {
            let options = PortfolioOptions {
                strategy,
                bsolo: BsoloOptions::with_lb(LbMethod::Mis),
                bb_threads: 2,
                ..PortfolioOptions::default()
            };
            let got = Portfolio::new(options).solve(&inst);
            assert!(got.is_optimal(), "seed {seed} {strategy:?}: must prove optimality");
            assert_eq!(got.best_cost, expected.best_cost, "seed {seed} {strategy:?}");
            let model = got.best_assignment.as_ref().expect("model present");
            assert_eq!(
                pbo_core::verify_solution(&inst, model),
                Ok(expected.best_cost.unwrap()),
                "seed {seed} {strategy:?}"
            );
        }
    }
}

#[test]
fn single_worker_portfolio_stats_are_bit_identical_on_synthesis() {
    // The bb_threads = 1 path delegates to the sequential solver; every
    // effort counter must match, not just the optimum.
    for (seed, inst) in synthesis_seeds(2).into_iter().enumerate() {
        let seq = Bsolo::with_lb(LbMethod::Mis).solve(&inst);
        let par = crate::ParBsolo::new(BsoloOptions::with_lb(LbMethod::Mis), 1).solve(&inst);
        let label = format!("seed {seed}");
        assert_eq!(par.status, seq.status, "{label}: status");
        assert_eq!(par.best_cost, seq.best_cost, "{label}: cost");
        assert_eq!(par.best_assignment, seq.best_assignment, "{label}: model");
        assert_eq!(par.stats.decisions, seq.stats.decisions, "{label}: decisions");
        assert_eq!(par.stats.conflicts, seq.stats.conflicts, "{label}: conflicts");
        assert_eq!(par.stats.propagations, seq.stats.propagations, "{label}: propagations");
        assert_eq!(par.stats.lb_calls, seq.stats.lb_calls, "{label}: lb calls");
        assert_eq!(par.stats.bound_conflicts, seq.stats.bound_conflicts, "{label}: prunings");
        assert_eq!(par.stats.lb_margin_sum, seq.stats.lb_margin_sum, "{label}: margins");
        assert_eq!(par.stats.restarts, seq.stats.restarts, "{label}: restarts");
        assert_eq!(par.stats.backjump_levels, seq.stats.backjump_levels, "{label}: backjumps");
        assert_eq!(par.stats.solutions_found, seq.stats.solutions_found, "{label}: solutions");
        assert_eq!(par.stats.nodes_per_worker, vec![seq.stats.decisions], "{label}: per-worker");
    }
}

#[test]
fn disabling_restarts_is_supported() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9d1e);
    for _ in 0..10 {
        let inst = random_instance(&mut rng, 9);
        let expected = brute_force(&inst);
        let got =
            Bsolo::new(BsoloOptions { restart_base: None, ..BsoloOptions::with_lb(LbMethod::Lpr) })
                .solve(&inst);
        check_result(&inst, &got, &expected, "no restarts");
        assert_eq!(got.stats.restarts, 0, "restart_base: None must never restart");
    }
}

/// The MILP baseline honours its time budget even when a single LP
/// solve runs long: on the Table-1 acc shape one dual-simplex solve
/// outlasts a 300 ms budget many times over, and the search must still
/// end within a bounded overshoot, without an optimality claim.
/// Wall-clock-sensitive, so ignored by default; the CI fault-injection
/// job runs it explicitly.
#[test]
#[ignore = "timing-sensitive: run explicitly (CI fault-injection job)"]
fn milp_deadline_bounds_a_long_lp_solve() {
    use std::time::{Duration, Instant};
    let budget = Budget::time_limit(Duration::from_millis(300));
    for seed in 0..3 {
        let inst = pbo_benchgen::AccSchedParams { teams: 10, home_away: true }.generate(seed);
        let start = Instant::now();
        let got = MilpSolver::new(budget).solve(&inst);
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "seed {seed}: 300 ms budget ran {elapsed:?}");
        assert!(
            matches!(got.status, SolveStatus::Unknown | SolveStatus::Feasible),
            "seed {seed}: {:?} under an expired budget",
            got.status
        );
    }
}
