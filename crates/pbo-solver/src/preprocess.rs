//! Probing-based preprocessing (sec. 5 of the paper).
//!
//! For each variable, both polarities are tentatively decided and
//! propagated:
//!
//! * a failed literal (propagation conflict) makes its negation a
//!   *necessary assignment*, asserted at the root;
//! * a literal implied by **both** branches is likewise necessary
//!   (the classic probing/strengthening rule of Savelsbergh and
//!   Dixon–Ginsberg that the paper adopts);
//! * both branches failing proves infeasibility.
//!
//! Probing works directly on the search engine so the detected
//! assignments immediately strengthen the subsequent search.

use pbo_core::{Instance, Lit, Value, Var};
use pbo_engine::{Engine, Reason};

/// Result of the probing pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// Probing proved the instance infeasible.
    Infeasible,
    /// Probing finished; `forced` root assignments were derived.
    Done {
        /// Number of necessary assignments asserted at the root.
        forced: usize,
    },
}

/// Upper limit on instance size for probing (a full pass is quadratic in
/// the worst case).
const PROBE_VAR_LIMIT: usize = 2_000;

/// Runs one probing pass over all variables. The engine must be at
/// decision level 0 with the instance's constraints loaded.
pub fn probe(instance: &Instance, engine: &mut Engine) -> ProbeOutcome {
    debug_assert_eq!(engine.decision_level(), 0);
    if instance.num_vars() > PROBE_VAR_LIMIT {
        return ProbeOutcome::Done { forced: 0 };
    }
    let mut forced = 0usize;
    for v in 0..instance.num_vars() {
        let var = Var::new(v);
        if engine.assignment().value(var) != Value::Unassigned {
            continue;
        }
        // Branch x = 1.
        let (fail_pos, implied_pos) = probe_branch(engine, var.positive());
        // Branch x = 0.
        let (fail_neg, implied_neg) = probe_branch(engine, var.negative());
        match (fail_pos, fail_neg) {
            (true, true) => return ProbeOutcome::Infeasible,
            (true, false) => {
                if !assert_root(engine, var.negative()) {
                    return ProbeOutcome::Infeasible;
                }
                forced += 1;
            }
            (false, true) => {
                if !assert_root(engine, var.positive()) {
                    return ProbeOutcome::Infeasible;
                }
                forced += 1;
            }
            (false, false) => {
                // Literals implied by both branches are necessary.
                for l in implied_pos {
                    if implied_neg.contains(&l)
                        && engine.assignment().lit_value(l) == Value::Unassigned
                    {
                        if !assert_root(engine, l) {
                            return ProbeOutcome::Infeasible;
                        }
                        forced += 1;
                    }
                }
            }
        }
    }
    ProbeOutcome::Done { forced }
}

/// Decides `lit`, propagates, records the implied literals, undoes.
fn probe_branch(engine: &mut Engine, lit: Lit) -> (bool, Vec<Lit>) {
    if engine.assignment().lit_value(lit) != Value::Unassigned {
        // Already decided at root by an earlier probe.
        return (engine.assignment().lit_value(lit) == Value::False, Vec::new());
    }
    let trail_before = engine.trail().len();
    engine.decide(lit);
    let conflict = engine.propagate().is_some();
    let implied: Vec<Lit> =
        if conflict { Vec::new() } else { engine.trail()[trail_before + 1..].to_vec() };
    engine.backjump_to(0);
    (conflict, implied)
}

/// Asserts a literal at the root and propagates. Returns `false` on a
/// root conflict.
fn assert_root(engine: &mut Engine, lit: Lit) -> bool {
    if !engine.enqueue(lit, Reason::None) {
        return false;
    }
    engine.propagate().is_none()
}

/// Marks every clause-class constraint subsumed by a kept clause (a
/// duplicate counts as subsumed by its first copy). Clauses are visited
/// shortest first — a clause can only be subsumed by a shorter or equal
/// one — and each is checked against occurrence lists over the clauses
/// kept so far: a kept clause whose hit count reaches its length is a
/// subset of the candidate. A candidate costs the kept occurrences of
/// its literals, not one subset test per kept clause.
fn subsumed_clauses(instance: &Instance) -> Vec<bool> {
    let mut clauses: Vec<(usize, &[pbo_core::PbTerm])> = instance
        .constraints()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.class() == pbo_core::ConstraintClass::Clause)
        .map(|(i, c)| (i, c.terms()))
        .collect();
    clauses.sort_by_key(|(_, terms)| terms.len());
    let mut drop = vec![false; instance.num_constraints()];
    // Kept clauses by literal, their lengths, and per-candidate hits.
    let mut occur: Vec<Vec<u32>> = vec![Vec::new(); 2 * instance.num_vars()];
    let mut kept_len: Vec<usize> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    for (i, terms) in clauses {
        let mut subsumed = false;
        'scan: for t in terms {
            for &k in &occur[t.lit.code()] {
                let h = &mut hits[k as usize];
                if *h == 0 {
                    touched.push(k);
                }
                *h += 1;
                if *h == kept_len[k as usize] {
                    subsumed = true;
                    break 'scan;
                }
            }
        }
        for k in touched.drain(..) {
            hits[k as usize] = 0;
        }
        if subsumed {
            drop[i] = true;
            continue;
        }
        let id = kept_len.len() as u32;
        kept_len.push(terms.len());
        hits.push(0);
        for t in terms {
            occur[t.lit.code()].push(id);
        }
    }
    drop
}

/// Covering-style simplification (the paper applies the techniques of
/// Hooker / Villa et al. on the synthesis benchmark set): removes
/// duplicate constraints and clauses subsumed by a shorter clause
/// (`{a, b}` makes `{a, b, c}` redundant). Only clause-class constraints
/// participate in subsumption; general PB rows are kept untouched.
pub fn simplify(instance: &Instance) -> Instance {
    use pbo_core::{InstanceBuilder, RelOp};

    let mut drop = subsumed_clauses(instance);
    // Duplicate non-clause constraints.
    let mut seen: std::collections::HashSet<&pbo_core::PbConstraint> =
        std::collections::HashSet::new();
    for (i, c) in instance.constraints().iter().enumerate() {
        if !drop[i] && !seen.insert(c) {
            drop[i] = true;
        }
    }
    if drop.iter().all(|&d| !d) {
        return instance.clone();
    }
    let mut b = InstanceBuilder::with_vars(instance.num_vars());
    b.name(instance.name().to_string());
    for (i, c) in instance.constraints().iter().enumerate() {
        if drop[i] {
            continue;
        }
        b.add_linear(c.terms().iter().map(|t| (t.coeff, t.lit)), RelOp::Ge, c.rhs());
    }
    if let Some(obj) = instance.objective() {
        b.minimize_with_offset(obj.terms().iter().copied(), obj.offset());
    }
    b.build().expect("simplification preserves buildability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{InstanceBuilder, PbConstraint};

    fn engine_for(inst: &Instance) -> Engine {
        let mut e = Engine::new(inst.num_vars());
        for c in inst.constraints() {
            e.add_constraint(c).unwrap();
        }
        e
    }

    #[test]
    fn failed_literal_is_asserted() {
        // x1 -> x2 and x1 -> ~x2 : x1 must be false.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_implies(v[0].positive(), v[1].positive());
        b.add_implies(v[0].positive(), v[1].negative());
        let inst = b.build().unwrap();
        let mut e = engine_for(&inst);
        match probe(&inst, &mut e) {
            ProbeOutcome::Done { forced } => assert!(forced >= 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.assignment().is_true(v[0].negative()));
    }

    #[test]
    fn both_branches_failing_is_infeasible() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        // x1 <-> x2 and x1 <-> ~x2 is unsatisfiable but propagation alone
        // does not see it at the root.
        b.add_implies(v[0].positive(), v[1].positive());
        b.add_implies(v[1].positive(), v[0].positive());
        b.add_implies(v[0].positive(), v[1].negative());
        b.add_implies(v[1].negative(), v[0].positive());
        let inst = b.build().unwrap();
        let mut e = engine_for(&inst);
        assert_eq!(probe(&inst, &mut e), ProbeOutcome::Infeasible);
    }

    #[test]
    fn common_implication_detected() {
        // (x1 -> x3) and (~x1 -> x3): x3 necessary.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_implies(v[0].positive(), v[2].positive());
        b.add_implies(v[0].negative(), v[2].positive());
        let inst = b.build().unwrap();
        let mut e = engine_for(&inst);
        match probe(&inst, &mut e) {
            ProbeOutcome::Done { forced } => assert!(forced >= 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.assignment().is_true(v[2].positive()));
    }

    #[test]
    fn probing_preserves_satisfiability() {
        use pbo_core::brute_force;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9e);
        for round in 0..30 {
            let n = rng.gen_range(3..8);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(2..8) {
                let i = rng.gen_range(0..n);
                let mut j = rng.gen_range(0..n);
                while j == i {
                    j = rng.gen_range(0..n);
                }
                b.add_clause([vars[i].lit(rng.gen_bool(0.5)), vars[j].lit(rng.gen_bool(0.5))]);
            }
            let inst = b.build().unwrap();
            let sat = brute_force(&inst).cost().is_some();
            let mut e = engine_for(&inst);
            let outcome = probe(&inst, &mut e);
            if outcome == ProbeOutcome::Infeasible {
                assert!(!sat, "round {round}: probing declared SAT instance infeasible");
            } else {
                // Forced literals must hold in *some* optimal model; at
                // minimum they may not contradict satisfiability.
                if sat {
                    // Extend the root assignment by brute force.
                    let fixed: Vec<(usize, bool)> =
                        e.assignment().iter_assigned().map(|(v, val)| (v.index(), val)).collect();
                    let mut found = false;
                    'outer: for mask in 0u64..(1 << n) {
                        let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                        for &(i, val) in &fixed {
                            if vals[i] != val {
                                continue 'outer;
                            }
                        }
                        if inst.is_feasible(&vals) {
                            found = true;
                            break;
                        }
                    }
                    assert!(found, "round {round}: forced literals exclude all models");
                }
            }
        }
    }

    #[test]
    fn simplify_drops_subsumed_clauses() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[0].positive(), v[1].positive(), v[2].positive()]); // subsumed
        b.add_clause([v[2].negative(), v[0].positive()]);
        b.add_clause([v[2].negative(), v[0].positive()]); // duplicate
        b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
        let inst = b.build().unwrap();
        let simplified = simplify(&inst);
        assert_eq!(simplified.num_constraints(), 2);
        // Feasible sets identical.
        for mask in 0u8..8 {
            let vals = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(inst.is_feasible(&vals), simplified.is_feasible(&vals), "{vals:?}");
            if inst.is_feasible(&vals) {
                assert_eq!(inst.cost_of(&vals), simplified.cost_of(&vals));
            }
        }
    }

    #[test]
    fn simplify_preserves_objective_offset() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[0].positive(), v[1].positive()]); // duplicate forces rebuild
        b.minimize([(3, v[0].negative()), (2, v[1].positive())]); // offset after normalization
        let inst = b.build().unwrap();
        let simplified = simplify(&inst);
        assert_eq!(simplified.num_constraints(), 1);
        assert_eq!(inst.objective().unwrap().offset(), simplified.objective().unwrap().offset());
        for mask in 0u8..4 {
            let vals = [(mask & 1) != 0, (mask & 2) != 0];
            assert_eq!(inst.cost_of(&vals), simplified.cost_of(&vals));
        }
    }

    #[test]
    fn simplify_keeps_general_pb_rows() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_linear(
            vec![(2, v[0].positive()), (1, v[1].positive()), (1, v[2].positive())],
            pbo_core::RelOp::Ge,
            2,
        );
        b.add_clause([v[0].positive(), v[1].positive()]);
        let inst = b.build().unwrap();
        // The clause is implied by nothing clause-shaped; both rows stay.
        assert_eq!(simplify(&inst).num_constraints(), 2);
    }

    /// The occurrence-list scan drops exactly the rows the all-pairs
    /// subset scan it replaced dropped, kept here as the oracle.
    #[test]
    fn subsumption_matches_quadratic_scan_randomized() {
        use pbo_core::ConstraintClass;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        fn quadratic(instance: &Instance) -> Vec<bool> {
            let mut clause_sets: Vec<(usize, BTreeSet<Lit>)> = Vec::new();
            for (i, c) in instance.constraints().iter().enumerate() {
                if c.class() == ConstraintClass::Clause {
                    clause_sets.push((i, c.terms().iter().map(|t| t.lit).collect()));
                }
            }
            clause_sets.sort_by_key(|(_, s)| s.len());
            let mut kept_sets: Vec<&BTreeSet<Lit>> = Vec::new();
            let mut drop = vec![false; instance.num_constraints()];
            for (i, set) in &clause_sets {
                if kept_sets.iter().any(|k| k.is_subset(set)) {
                    drop[*i] = true;
                } else {
                    kept_sets.push(set);
                }
            }
            drop
        }

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5b5);
        let mut dropped = 0;
        for round in 0..200 {
            let n = rng.gen_range(2..9);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(1..40) {
                let k = rng.gen_range(1..=n.min(4));
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                let lits: Vec<Lit> =
                    idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.6))).collect();
                if rng.gen_bool(0.8) {
                    b.add_clause(lits);
                } else {
                    b.add_at_least(rng.gen_range(1..=k as i64), lits);
                }
            }
            let inst = b.build().unwrap();
            let expect = quadratic(&inst);
            assert_eq!(subsumed_clauses(&inst), expect, "round {round}");
            dropped += expect.iter().filter(|&&d| d).count();
        }
        assert!(dropped > 500, "too few subsumed clauses exercised ({dropped})");
    }

    #[test]
    fn simplify_identity_when_nothing_to_do() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        let inst = b.build().unwrap();
        assert_eq!(simplify(&inst), inst);
    }

    #[test]
    fn pb_constraints_probed_too() {
        // 2x1 + x2 + x3 >= 3 with x1 -> ~x2: probing x1=0 gives conflict
        // (needs x2+x3 >= 3, impossible)... actually 1+1 = 2 < 3: conflict.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_linear(
            vec![(2, v[0].positive()), (1, v[1].positive()), (1, v[2].positive())],
            pbo_core::RelOp::Ge,
            3,
        );
        let inst = b.build().unwrap();
        let mut e = engine_for(&inst);
        let _ = probe(&inst, &mut e);
        // x1 = 0 makes the constraint unsatisfiable -> x1 forced true.
        assert!(e.assignment().is_true(v[0].positive()));
        drop(PbConstraint::clause([v[0].positive()]));
    }
}
