//! Engine behaviour tests: propagation, learning, backjumping, bound
//! conflicts and end-to-end satisfiability cross-checked against the
//! exhaustive reference solver.

use pbo_core::{brute_force, Instance, InstanceBuilder, Lit, PbConstraint, Var};

use crate::engine::{Conflict, Engine, Reason, Resolution};

fn lit(i: usize, pos: bool) -> Lit {
    Lit::new(i, pos)
}

/// Loads every constraint of `inst` into a fresh engine.
fn engine_for(inst: &Instance) -> Result<Engine, ()> {
    let mut e = Engine::new(inst.num_vars());
    for c in inst.constraints() {
        if e.add_constraint(c).is_err() {
            return Err(());
        }
    }
    Ok(e)
}

/// Minimal CDCL driver used to exercise the engine end to end.
fn solve(e: &mut Engine) -> Option<Vec<bool>> {
    if e.is_root_unsat() {
        return None;
    }
    loop {
        if let Some(confl) = e.propagate() {
            match e.resolve_conflict(confl) {
                Resolution::Unsat => return None,
                Resolution::Backjumped { .. } => {}
            }
        } else if let Some(v) = e.pick_branch_var() {
            let phase = e.phase_of(v);
            e.decide(v.lit(phase));
        } else {
            return Some(e.model());
        }
    }
}

#[test]
fn unit_clause_chain_propagates() {
    let mut e = Engine::new(4);
    // x1;  ~x1 \/ x2;  ~x2 \/ x3;  ~x3 \/ x4
    e.add_constraint(&PbConstraint::clause([lit(0, true)])).unwrap();
    e.add_constraint(&PbConstraint::clause([lit(0, false), lit(1, true)])).unwrap();
    e.add_constraint(&PbConstraint::clause([lit(1, false), lit(2, true)])).unwrap();
    e.add_constraint(&PbConstraint::clause([lit(2, false), lit(3, true)])).unwrap();
    assert!(e.propagate().is_none());
    for i in 0..4 {
        assert!(e.assignment().is_true(lit(i, true)), "x{} should be true", i + 1);
    }
    assert_eq!(e.decision_level(), 0);
}

#[test]
fn pb_constraint_forces_heavy_literal() {
    let mut e = Engine::new(3);
    // 3*x1 + x2 + x3 >= 3 : x1 forced immediately (slack 1 < coeff 3).
    e.add_constraint(
        &PbConstraint::try_new(vec![(3, lit(0, true)), (1, lit(1, true)), (1, lit(2, true))], 3)
            .unwrap(),
    )
    .unwrap();
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_true(lit(0, true)));
    assert!(e.assignment().is_unassigned(lit(1, true)));
}

#[test]
fn pb_propagation_after_decisions() {
    let mut e = Engine::new(3);
    // 2*x1 + x2 + x3 >= 2
    e.add_constraint(
        &PbConstraint::try_new(vec![(2, lit(0, true)), (1, lit(1, true)), (1, lit(2, true))], 2)
            .unwrap(),
    )
    .unwrap();
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_unassigned(lit(0, true)), "nothing forced initially");
    // Falsify x2: slack 1, x1 now forced (coeff 2 > 1).
    e.decide(lit(1, false));
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_true(lit(0, true)));
    assert_eq!(e.level_of(Var::new(0)), 1);
    assert!(matches!(e.reason_of(Var::new(0)), Reason::Pb(_)));
}

#[test]
fn pb_conflict_detected() {
    let mut e = Engine::new(2);
    // x1 + x2 >= 2 forces both at root; adding x1+x2 <= 1 as ~x1 + ~x2 >= 1
    // must conflict.
    e.add_constraint(&PbConstraint::at_least(2, [lit(0, true), lit(1, true)])).unwrap();
    assert!(e.propagate().is_none());
    let err = e.add_constraint(&PbConstraint::clause([lit(0, false), lit(1, false)]));
    assert!(err.is_err());
    assert!(e.is_root_unsat());
}

#[test]
fn learning_and_backjumping() {
    // Deciding a then b forces c and ~c: conflict at level 2; the learned
    // clause (~a \/ ~b shaped) asserts at level 1.
    let mut e = Engine::new(3);
    let (a, b, c) = (lit(0, true), lit(1, true), lit(2, true));
    e.add_constraint(&PbConstraint::clause([!a, !b, c])).unwrap();
    e.add_constraint(&PbConstraint::clause([!a, !b, !c])).unwrap();
    e.decide(a);
    assert!(e.propagate().is_none());
    e.decide(b);
    let confl = e.propagate().expect("conflict expected");
    match e.resolve_conflict(confl) {
        Resolution::Backjumped { level, learnt_len, asserted, .. } => {
            assert_eq!(level, 1, "non-chronological jump to the other decision's level");
            assert_eq!(learnt_len, 2);
            assert_eq!(asserted, !b, "first-UIP flips the deeper decision");
        }
        Resolution::Unsat => panic!("not unsat"),
    }
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_true(!b));
}

#[test]
fn root_conflict_is_unsat() {
    let mut e = Engine::new(1);
    e.add_constraint(&PbConstraint::clause([lit(0, true)])).unwrap();
    assert!(e.add_constraint(&PbConstraint::clause([lit(0, false)])).is_err());
}

#[test]
fn adhoc_conflict_backjumps_non_chronologically() {
    // Decide x1..x4 at levels 1..4; inject a bound conflict mentioning
    // only levels 1 and 2. The engine must jump below level 4.
    let mut e = Engine::new(5);
    for i in 0..4 {
        e.decide(lit(i, true));
        assert!(e.propagate().is_none());
    }
    assert_eq!(e.decision_level(), 4);
    let omega_bc = vec![lit(0, false), lit(1, false)]; // both currently false
    match e.resolve_conflict(Conflict::AdHoc(omega_bc)) {
        Resolution::Backjumped { level, asserted, .. } => {
            assert!(level <= 1, "expected non-chronological jump, got level {level}");
            assert_eq!(asserted, lit(1, false));
        }
        Resolution::Unsat => panic!("not terminal"),
    }
    // Levels 3 and 4 decisions were undone.
    assert!(e.assignment().is_unassigned(lit(2, true)));
    assert!(e.assignment().is_unassigned(lit(3, true)));
    assert_eq!(e.stats.adhoc_conflicts, 1);
}

#[test]
fn adhoc_conflict_at_root_is_unsat() {
    let mut e = Engine::new(2);
    assert_eq!(e.resolve_conflict(Conflict::AdHoc(vec![])), Resolution::Unsat);
    assert!(e.is_root_unsat());
}

#[test]
fn slack_restored_after_backjump() {
    let mut e = Engine::new(3);
    let c = PbConstraint::try_new(vec![(2, lit(0, true)), (2, lit(1, true)), (1, lit(2, true))], 3)
        .unwrap();
    e.add_constraint(&c).unwrap();
    assert!(e.propagate().is_none());
    e.decide(lit(0, false));
    assert!(e.propagate().is_none());
    // x2 forced true (slack 0 after losing coeff 2: 2+1-3 = 0 < 2).
    assert!(e.assignment().is_true(lit(1, true)));
    e.backjump_to(0);
    assert!(e.assignment().is_unassigned(lit(0, true)));
    assert!(e.assignment().is_unassigned(lit(1, true)));
    // Slack must be fully restored: deciding the other branch behaves
    // symmetrically.
    e.decide(lit(1, false));
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_true(lit(0, true)));
}

#[test]
fn cut_addition_and_removal() {
    let mut e = Engine::new(2);
    let base = e.num_pbs();
    // Cut: ~x1 + ~x2 >= 1 (cost bound style). Clause-shaped cuts still
    // go through the PB path via add_pb_cut.
    let id = e.add_pb_cut(&PbConstraint::clause([lit(0, false), lit(1, false)]));
    assert_eq!(id.expect("cut addable").raw() as usize, base);
    assert_eq!(e.num_pbs(), base + 1);
    e.decide(lit(0, true));
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_true(lit(1, false)), "cut propagates ~x2");
    e.backjump_to(0);
    e.truncate_pbs(base);
    assert_eq!(e.num_pbs(), base, "removed cut leaves the store");
    e.decide(lit(0, true));
    assert!(e.propagate().is_none());
    assert!(e.assignment().is_unassigned(lit(1, false)), "removed cut is inert");
}

/// Re-rooting cost cuts deletes the superseded ones outright: after k
/// re-roots the PB store holds exactly the instance's PB rows plus the
/// live cuts, and every row (terms, rhs, slack) and every
/// occurrence list equals that of a fresh engine loaded with the same
/// rows and root facts. No root literal keeps the reason of a deleted
/// cut, and both engines agree on satisfiability.
#[test]
fn rerooted_cuts_leave_the_store_of_a_fresh_engine() {
    use pbo_core::{normalize, RelOp};
    use rand::{Rng, SeedableRng};

    let load = |inst: &Instance, cuts: &[PbConstraint]| {
        let mut e = Engine::new(inst.num_vars());
        for c in inst.constraints() {
            e.add_constraint(c).ok()?;
        }
        for c in cuts {
            e.add_pb_cut(c).ok()?;
        }
        Some(e)
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc7d1);
    let mut reroots = 0;
    for round in 0..80 {
        let n = rng.gen_range(4..10);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..rng.gen_range(2..7) {
            let k = rng.gen_range(2..=n.min(5));
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            let terms: Vec<(i64, Lit)> = idxs[..k]
                .iter()
                .map(|&i| (rng.gen_range(1..4), vars[i].lit(rng.gen_bool(0.7))))
                .collect();
            let max: i64 = terms.iter().map(|t| t.0).sum();
            b.add_linear(terms, RelOp::Ge, rng.gen_range(1..=max));
        }
        let inst = b.build().unwrap();
        // Cost-cut shaped templates: `sum_{S} c_j x_j <= upper - 1 - v`
        // over random cost subsets, all tightening as `upper` falls.
        let costs: Vec<(i64, Lit)> =
            vars.iter().map(|v| (rng.gen_range(1..6), v.positive())).collect();
        let templates: Vec<(Vec<(i64, Lit)>, i64)> = (0..rng.gen_range(1..4))
            .map(|t| {
                let subset =
                    costs.iter().copied().filter(|_| t == 0 || rng.gen_bool(0.6)).collect();
                (subset, if t == 0 { 0 } else { rng.gen_range(0..4) })
            })
            .collect();
        let cuts_at = |upper: i64| -> Vec<PbConstraint> {
            templates
                .iter()
                .flat_map(|(terms, v)| normalize(terms, RelOp::Le, upper - 1 - v).unwrap())
                .collect()
        };
        let Some(mut e) = load(&inst, &[]) else { continue };
        let base = e.num_pbs();
        let mut upper: i64 = costs.iter().map(|c| c.0).sum::<i64>() + 1;
        let mut live = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            // Wander below the root so slacks move, then re-root.
            for _ in 0..rng.gen_range(0..4) {
                let Some(v) = e.pick_branch_var() else { break };
                e.decide(v.lit(rng.gen_bool(0.5)));
                if e.propagate().is_some() {
                    break;
                }
            }
            e.backjump_to(0);
            upper -= rng.gen_range(1i64..4);
            // Some cuts sit a round out, so the store also shrinks.
            let next: Vec<PbConstraint> =
                cuts_at(upper).into_iter().filter(|_| rng.gen_bool(0.75)).collect();
            e.truncate_pbs(base);
            if next.iter().any(|c| e.add_pb_cut(c).is_err()) {
                live.clear();
                break; // the solver would finish here: nothing better exists
            }
            live = next;
            reroots += 1;
        }
        if e.is_root_unsat() {
            continue;
        }
        assert_eq!(e.num_pbs(), base + live.len(), "round {round}: dead cuts left in the store");
        let Some(mut fresh) = load(&inst, &live) else {
            panic!("round {round}: the live rows are consistent in the re-rooted engine");
        };
        for &l in e.trail() {
            // A PB reason left on a root literal must be a live row that
            // forces it, never the (reused) id of a deleted cut.
            if let Reason::Pb(id) = e.reason_of(l.var()) {
                assert!(id.raw() < e.num_pbs() as u32, "round {round}: {l:?} has a deleted reason");
                let coeff = e.pb_terms(id).iter().find(|t| t.lit == l).map(|t| t.coeff);
                assert!(
                    coeff.is_some_and(|c| e.pb_slack(id) < c),
                    "round {round}: {l:?} has a stale reason"
                );
            }
            fresh.assume_at_root(l).expect("root facts are consistent");
        }
        assert_eq!(fresh.trail_len(), e.trail_len(), "round {round}: root facts differ");
        assert_eq!(e.pb_store(), fresh.pb_store(), "round {round}: PB store differs");
        let (got, want) = (solve(&mut e), solve(&mut fresh));
        assert_eq!(got.is_some(), want.is_some(), "round {round}: satisfiability differs");
        if let Some(model) = got {
            assert!(live.iter().all(|c| c.is_satisfied_by(&model)), "round {round}: live cut");
        }
    }
    assert!(reroots > 100, "too few re-roots exercised ({reroots})");
}

/// Raising the degrees of the rows added last matches deleting them and
/// re-adding them with the raised degrees: the same `Ok`/`Err`, the same
/// root trail in the same order, the same propagation count, the same
/// rows and occurrence lists, and the same search afterwards — over
/// random PB instances, random root assumptions, random walks below the
/// root between raises, and raises by zero.
#[test]
fn raised_degrees_match_truncating_and_re_adding() {
    use pbo_core::RelOp;
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x4a15e);
    let (mut raises, mut refuted, mut implied) = (0usize, 0usize, 0usize);
    for round in 0..1_200 {
        let n = rng.gen_range(4..12);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        let random_terms = |rng: &mut rand_chacha::ChaCha8Rng, max_coeff: i64| {
            let k = rng.gen_range(2..=n.min(6));
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            idxs[..k]
                .iter()
                .map(|&i| (rng.gen_range(1..=max_coeff), vars[i].lit(rng.gen_bool(0.6))))
                .collect::<Vec<(i64, Lit)>>()
        };
        for _ in 0..rng.gen_range(1..6) {
            let terms = random_terms(&mut rng, 3);
            let max: i64 = terms.iter().map(|t| t.0).sum();
            b.add_linear(terms, RelOp::Ge, rng.gen_range(1..=max));
        }
        let inst = b.build().unwrap();
        // Unsaturated rows, as a raise needs: every coefficient at most
        // the degree, which only grows.
        let cuts: Vec<PbConstraint> = (0..rng.gen_range(1..5))
            .map(|_| {
                let terms = random_terms(&mut rng, 4);
                let max_coeff = terms.iter().map(|t| t.0).max().unwrap();
                PbConstraint::try_new(terms, rng.gen_range(max_coeff..=max_coeff + 2)).unwrap()
            })
            .collect();
        let assumed: Vec<Lit> = (0..rng.gen_range(0..3))
            .map(|_| vars[rng.gen_range(0..n)].lit(rng.gen_bool(0.5)))
            .collect();
        // Both engines see the same calls, so they stay identical as
        // long as a raise and a re-add do.
        let load = || -> Option<Engine> {
            let mut e = engine_for(&inst).ok()?;
            for &l in &assumed {
                e.assume_at_root(l).ok()?;
            }
            Some(e)
        };
        let (Some(mut raised), Some(mut readded)) = (load(), load()) else { continue };
        let base = raised.num_pbs();
        if cuts.iter().any(|c| raised.add_pb_cut(c).is_err() | readded.add_pb_cut(c).is_err()) {
            continue;
        }
        let mut rows = cuts;
        for _ in 0..rng.gen_range(1..6) {
            for _ in 0..rng.gen_range(0..4) {
                let pick = raised.pick_branch_var();
                assert_eq!(readded.pick_branch_var(), pick, "round {round}");
                let Some(v) = pick else { break };
                let l = v.lit(rng.gen_bool(0.5));
                raised.decide(l);
                readded.decide(l);
                if raised.propagate().is_some() | readded.propagate().is_some() {
                    break;
                }
            }
            raised.backjump_to(0);
            readded.backjump_to(0);
            let delta = rng.gen_range(0i64..3);
            rows = rows
                .iter()
                .map(|c| {
                    let terms = c.terms().iter().map(|t| (t.coeff, t.lit));
                    PbConstraint::try_new(terms, c.rhs() + delta).unwrap()
                })
                .collect();
            let before = raised.trail_len();
            let got = raised.raise_pb_degrees(base, delta);
            readded.truncate_pbs(base);
            let want = rows.iter().try_for_each(|c| readded.add_pb_cut(c).map(drop));
            let context = format!("round {round}, delta {delta}");
            assert_eq!(got, want, "{context}: Ok/Err");
            assert_eq!(raised.is_root_unsat(), readded.is_root_unsat(), "{context}");
            assert_eq!(raised.stats.propagations, readded.stats.propagations, "{context}");
            raises += 1;
            if got.is_err() {
                refuted += 1;
                break;
            }
            implied += raised.trail_len() - before;
            assert_eq!(raised.trail(), readded.trail(), "{context}: root trail");
            assert_eq!(raised.pb_store(), readded.pb_store(), "{context}: PB store");
        }
        if raised.is_root_unsat() {
            continue;
        }
        let (got, want) = (solve(&mut raised), solve(&mut readded));
        assert_eq!(got, want, "round {round}: the search after the raises differs");
        assert_eq!(raised.stats.decisions, readded.stats.decisions, "round {round}");
        assert_eq!(raised.stats.conflicts, readded.stats.conflicts, "round {round}");
        if let Some(model) = got {
            assert!(rows.iter().all(|c| c.is_satisfied_by(&model)), "round {round}");
        }
    }
    assert!(
        raises > 800 && refuted > 100 && implied > 200,
        "coverage: {raises} raises, {refuted} refuted, {implied} literals implied"
    );
}

#[test]
fn solves_satisfiable_formula() {
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(4);
    b.add_clause([v[0].positive(), v[1].positive()]);
    b.add_at_most(1, [v[0].positive(), v[1].positive()]);
    b.add_at_least(2, [v[1].positive(), v[2].positive(), v[3].positive()]);
    let inst = b.build().unwrap();
    let mut e = engine_for(&inst).unwrap();
    let model = solve(&mut e).expect("satisfiable");
    assert!(inst.is_feasible(&model));
}

#[test]
fn detects_unsatisfiable_formula() {
    // Pigeonhole: 3 pigeons, 2 holes.
    let mut b = InstanceBuilder::new();
    let p: Vec<Vec<Var>> = (0..3).map(|_| b.new_vars(2)).collect();
    for row in &p {
        b.add_clause(row.iter().map(|v| v.positive()));
    }
    for h in 0..2 {
        b.add_at_most(1, p.iter().map(|row| row[h].positive()));
    }
    let inst = b.build().unwrap();
    match engine_for(&inst) {
        Err(()) => {} // already unsat at root — fine
        Ok(mut e) => assert!(solve(&mut e).is_none()),
    }
}

#[test]
fn agrees_with_brute_force_on_random_instances() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xb5010);
    for round in 0..60 {
        let n = rng.gen_range(3..9);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        let m = rng.gen_range(2..10);
        for _ in 0..m {
            let len = rng.gen_range(1..=3.min(n));
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..len {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            let terms: Vec<(i64, Lit)> = idxs[..len]
                .iter()
                .map(|&i| (rng.gen_range(1..4), vars[i].lit(rng.gen_bool(0.5))))
                .collect();
            let max: i64 = terms.iter().map(|t| t.0).sum();
            let rhs = rng.gen_range(1..=max);
            b.add_linear(terms, pbo_core::RelOp::Ge, rhs);
        }
        let inst = b.build().unwrap();
        let expected = brute_force(&inst).cost().is_some();
        let got = match engine_for(&inst) {
            Err(()) => false,
            Ok(mut e) => {
                let model = solve(&mut e);
                if let Some(m) = &model {
                    assert!(inst.is_feasible(m), "round {round}: model infeasible");
                }
                model.is_some()
            }
        };
        assert_eq!(got, expected, "round {round}: SAT/UNSAT mismatch");
    }
}

#[test]
fn restart_keeps_learnt_clauses_and_correctness() {
    let mut b = InstanceBuilder::new();
    let v = b.new_vars(6);
    for i in 0..5 {
        b.add_clause([v[i].positive(), v[i + 1].positive()]);
        b.add_at_most(1, [v[i].positive(), v[i + 1].positive()]);
    }
    let inst = b.build().unwrap();
    let mut e = engine_for(&inst).unwrap();
    // Interleave a restart into solving.
    e.decide(Lit::new(0, true));
    assert!(e.propagate().is_none());
    e.restart();
    assert_eq!(e.decision_level(), 0);
    let model = solve(&mut e).expect("satisfiable");
    assert!(inst.is_feasible(&model));
    assert_eq!(e.stats.restarts, 1);
}

#[test]
fn reduce_learnts_keeps_solver_sound() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut b = InstanceBuilder::new();
    let n = 12;
    let vars = b.new_vars(n);
    for _ in 0..30 {
        let a = rng.gen_range(0..n);
        let mut c = rng.gen_range(0..n);
        while c == a {
            c = rng.gen_range(0..n);
        }
        b.add_clause([vars[a].lit(rng.gen_bool(0.5)), vars[c].lit(rng.gen_bool(0.5))]);
    }
    let inst = b.build().unwrap();
    let expected = brute_force(&inst).cost().is_some();
    let got = match engine_for(&inst) {
        Err(()) => false,
        Ok(mut e) => {
            // Force a few conflicts then reduce.
            let mut result = None;
            for _ in 0..200 {
                if let Some(confl) = e.propagate() {
                    if let Resolution::Unsat = e.resolve_conflict(confl) {
                        result = Some(false);
                        break;
                    }
                    e.reduce_learnts();
                } else if let Some(v) = e.pick_branch_var() {
                    e.decide(v.lit(e.phase_of(v)));
                } else {
                    assert!(inst.is_feasible(&e.model()));
                    result = Some(true);
                    break;
                }
            }
            result.unwrap_or_else(|| solve(&mut e).is_some())
        }
    };
    assert_eq!(got, expected);
}

#[test]
fn stats_track_activity() {
    let mut e = Engine::new(2);
    e.add_constraint(&PbConstraint::clause([lit(0, true), lit(1, true)])).unwrap();
    e.decide(lit(0, false));
    assert!(e.propagate().is_none());
    assert!(e.stats.decisions == 1);
    assert!(e.stats.propagations >= 2);
}

#[test]
fn sync_trail_reports_appended_literals() {
    let mut e = Engine::new(4);
    e.add_constraint(&PbConstraint::clause([lit(0, true), lit(1, true)])).unwrap();
    let obs = e.register_trail_observer();
    // First sync from scratch sees the whole trail.
    let keep = e.sync_trail(obs, 0);
    assert_eq!(keep, 0);
    let synced = e.trail_len();
    e.decide(lit(0, false));
    assert!(e.propagate().is_none()); // forces x2
                                      // Only the delta is replayed: keep == old mark, suffix is new.
    let keep = e.sync_trail(obs, synced);
    assert_eq!(keep, synced);
    assert_eq!(e.trail()[keep..].len(), e.trail_len() - synced);
    assert!(e.trail()[keep..].contains(&lit(0, false)));
    assert!(e.trail()[keep..].contains(&lit(1, true)));
}

#[test]
fn sync_trail_watermark_survives_backjump_and_regrowth() {
    let mut e = Engine::new(6);
    let obs = e.register_trail_observer();
    // Observer synced at depth 3; engine backjumps to depth 1 and grows a
    // different branch: keep must be the low watermark, not the mark.
    e.decide(lit(0, true));
    e.decide(lit(1, true));
    e.decide(lit(2, true));
    let mark = e.trail_len();
    assert_eq!(e.sync_trail(obs, 0), 0); // observer now mirrors 3 literals
    e.backjump_to(1); // lose x2, x3
    e.decide(lit(3, false));
    e.decide(lit(4, false));
    let keep = e.sync_trail(obs, mark);
    assert_eq!(keep, 1, "only the level-1 prefix survived");
    let replay: Vec<Lit> = e.trail()[keep..].to_vec();
    assert_eq!(replay, vec![lit(3, false), lit(4, false)]);
}

#[test]
fn sync_trail_watermark_resets_after_ack() {
    let mut e = Engine::new(4);
    let obs = e.register_trail_observer();
    e.decide(lit(0, true));
    assert_eq!(e.sync_trail(obs, 0), 0);
    // No backjump since the ack: the whole synced prefix is still valid.
    e.decide(lit(1, true));
    assert_eq!(e.sync_trail(obs, 1), 1);
    // Backjump to root invalidates everything.
    e.backjump_to(0);
    assert_eq!(e.sync_trail(obs, 2), 0);
}

#[test]
fn trail_observers_have_independent_watermarks() {
    let mut e = Engine::new(6);
    let a = e.register_trail_observer();
    e.decide(lit(0, true));
    e.decide(lit(1, true));
    // Observer `a` acks the 2-literal trail; observer `b` registers late
    // and has seen nothing yet.
    assert_eq!(e.sync_trail(a, 0), 0);
    let b = e.register_trail_observer();
    e.decide(lit(2, true));
    // `b`'s first sync replays from scratch without disturbing `a`.
    assert_eq!(e.sync_trail(b, 0), 0);
    assert_eq!(e.sync_trail(a, 2), 2);
    // A backjump invalidates both, from their own sync points.
    e.backjump_to(1);
    e.decide(lit(3, false));
    assert_eq!(e.sync_trail(a, 3), 1);
    // `a`'s ack must not have reset `b`'s watermark.
    assert_eq!(e.sync_trail(b, 3), 1);
}
