//! Cost-bound cuts (sec. 5 of the paper).
//!
//! * [`knapsack_cut`] — eq. 10: once a solution of cost `upper` is known,
//!   every better solution satisfies `sum c_j l_j <= upper - 1`.
//! * [`cardinality_cost_cuts`] — eqs. 11–13: a cardinality constraint
//!   `sum_{j in K} l_j >= U` forces at least the `U` cheapest costs of
//!   `K` to be paid (`V`), so the objective terms *outside* `K` must fit
//!   in `upper - 1 - V`.
//!
//! Only the degree of a cut depends on the incumbent. [`CostCuts`]
//! derives everything else once per solve: each cut's outside terms,
//! its `V`, its normalized (negated) literals and its duplicates. Per
//! incumbent, each cut is only re-saturated against its new degree.

use std::collections::HashSet;

use pbo_core::{Instance, Lit, PbConstraint};

/// One cost cut `sum_{j in O} c_j l_j <= upper - 1 - v - offset` with its
/// incumbent-independent parts precomputed. Its normal form is
/// `sum_{j in O} c_j ~l_j >= sum_{j in O} c_j - (upper - 1 - v - offset)`
/// with every coefficient saturated at the degree — what
/// [`pbo_core::normalize`] produces for the `<=` form, since objective
/// costs are positive and mention each variable once.
#[derive(Clone, Debug)]
struct CutTemplate {
    /// `(c_j, ~l_j)` for every objective term in `O`, sorted by variable.
    negated: Vec<(i64, Lit)>,
    /// `sum c_j` over `O`, widened like `normalize`'s arithmetic.
    coeff_sum: i128,
    /// `V` of eq. 12 (0 for the knapsack cut) plus the objective offset.
    shift: i64,
}

impl CutTemplate {
    fn new(outside: &[(i64, Lit)], v: i64, offset: i64) -> CutTemplate {
        CutTemplate {
            negated: outside.iter().map(|&(c, l)| (c, !l)).collect(),
            coeff_sum: outside.iter().map(|&(c, _)| i128::from(c)).sum(),
            shift: v + offset,
        }
    }

    /// The eq. 10 template of `instance` (`None` without an objective).
    fn knapsack(instance: &Instance) -> Option<CutTemplate> {
        let obj = instance.objective()?;
        Some(CutTemplate::new(obj.terms(), 0, obj.offset()))
    }

    /// The cut for incumbent cost `upper`: `None` when it is trivially
    /// true (degree `<= 0`) or does not fit the normal form's
    /// arithmetic — the cases in which `normalize` yields no row.
    fn at(&self, upper: i64) -> Option<PbConstraint> {
        let rhs = upper - 1 - self.shift;
        let degree = i64::try_from(self.coeff_sum - i128::from(rhs)).ok()?;
        if degree <= 0 {
            return None;
        }
        PbConstraint::try_new(self.negated.iter().copied(), degree).ok()
    }
}

/// The eq. 10–13 cut set of one instance, derived once per solve (see
/// the module docs). [`CostCuts::cuts`] returns exactly
/// [`cost_cuts`]' list, in the same order.
#[derive(Clone, Debug, Default)]
pub(crate) struct CostCuts {
    knapsack: Option<CutTemplate>,
    /// One template per distinct eqs. 11–13 cut, in source-row order.
    cardinality: Vec<CutTemplate>,
}

impl CostCuts {
    /// Derives the cut templates of `instance`: the knapsack cut, and
    /// one eqs. 11–13 cut per cardinality-class row over literals with
    /// at least one costed member. Two rows yield the same cut at every
    /// incumbent exactly when they share `V` and the outside terms, so
    /// duplicates are dropped here, once.
    pub(crate) fn new(instance: &Instance) -> CostCuts {
        let Some(obj) = instance.objective() else {
            return CostCuts::default();
        };
        let mut in_k = vec![false; instance.num_vars()];
        let mut seen: HashSet<(i64, Vec<(i64, Lit)>)> = HashSet::new();
        let mut cardinality = Vec::new();
        for c in instance.constraints() {
            if c.class() == pbo_core::ConstraintClass::General || c.is_empty() {
                continue;
            }
            // Cardinality form: at least U of the literals in K must be true.
            let u = c.min_true_literals();
            if u <= 0 || u > c.len() as i64 {
                continue;
            }
            // V = sum of the U smallest costs of literals in K (eq. 12).
            let mut costs: Vec<i64> = c.terms().iter().map(|t| obj.cost_of_lit(t.lit)).collect();
            costs.sort_unstable();
            let v: i64 = costs.iter().take(u as usize).sum();
            if v <= 0 {
                continue; // dominated by the knapsack cut
            }
            // Objective terms outside K must fit in upper - 1 - V (eq. 13).
            for t in c.terms() {
                in_k[t.lit.var().index()] = true;
            }
            let outside: Vec<(i64, Lit)> =
                obj.terms().iter().copied().filter(|(_, l)| !in_k[l.var().index()]).collect();
            for t in c.terms() {
                in_k[t.lit.var().index()] = false;
            }
            if outside.is_empty() {
                continue;
            }
            let template = CutTemplate::new(&outside, v, obj.offset());
            if seen.insert((v, outside)) {
                cardinality.push(template);
            }
        }
        CostCuts { knapsack: CutTemplate::knapsack(instance), cardinality }
    }

    /// The eq. 10 cut for incumbent cost `upper` (see [`knapsack_cut`]).
    pub(crate) fn knapsack(&self, upper: i64) -> Option<PbConstraint> {
        self.knapsack.as_ref()?.at(upper)
    }

    /// The eqs. 11–13 cuts for incumbent cost `upper` (see
    /// [`cardinality_cost_cuts`]).
    pub(crate) fn cardinality(&self, upper: i64) -> Vec<PbConstraint> {
        self.cardinality.iter().filter_map(|t| t.at(upper)).collect()
    }

    /// The knapsack cut followed by the eqs. 11–13 cuts (see
    /// [`cost_cuts`]).
    pub(crate) fn cuts(&self, upper: i64) -> Vec<PbConstraint> {
        let mut cuts: Vec<PbConstraint> = self.knapsack(upper).into_iter().collect();
        cuts.extend(self.cardinality.iter().filter_map(|t| t.at(upper)));
        cuts
    }
}

/// Builds the knapsack cut (eq. 10) for objective cost strictly below
/// `upper`. Returns `None` when the cut is trivially true (every
/// assignment already costs less than `upper`) and `Some(unsatisfiable
/// constraint)` is possible when no assignment can be cheaper — callers
/// detect that via [`PbConstraint::is_unsatisfiable`] / the engine's root
/// conflict.
pub fn knapsack_cut(instance: &Instance, upper: i64) -> Option<PbConstraint> {
    CutTemplate::knapsack(instance)?.at(upper)
}

/// The full cost-cut set for an incumbent of cost `upper`: the eq. 10
/// knapsack cut followed by the eqs. 11–13 cardinality cost cuts, each
/// distinct cut once. Each call derives the cut templates afresh; the
/// solvers in this crate derive them once per solve.
pub fn cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
    CostCuts::new(instance).cuts(upper)
}

/// Infers the eqs. 11–13 cuts from every cardinality-class constraint
/// over literals with at least one costed member. `upper` is the current
/// best solution cost. Identical cuts (from duplicate or same-threshold
/// source rows) are emitted once.
pub fn cardinality_cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
    CostCuts::new(instance).cardinality(upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{brute_force, normalize, InstanceBuilder, RelOp};
    use rand::{Rng, SeedableRng};

    #[test]
    fn knapsack_cut_excludes_equal_cost_solutions() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
        let inst = b.build().unwrap();
        let cut = knapsack_cut(&inst, 3).expect("cut exists");
        // Solutions of cost >= 3 must violate the cut; cost <= 2 satisfy.
        assert!(cut.is_satisfied_by(&[true, false])); // cost 2
        assert!(!cut.is_satisfied_by(&[false, true])); // cost 3
        assert!(!cut.is_satisfied_by(&[true, true])); // cost 5
        assert!(cut.is_satisfied_by(&[false, false])); // cost 0
    }

    #[test]
    fn knapsack_cut_none_when_trivial() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_clause([v[0].positive(), v[0].negative()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        // upper = 2: every assignment costs at most 1 < 2, cut trivial.
        assert!(knapsack_cut(&inst, 3).is_none());
    }

    #[test]
    fn knapsack_cut_unsatisfiable_when_no_better_possible() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_clause([v[0].positive()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        // upper = 0: need cost <= -1, impossible since costs >= 0.
        let cut = knapsack_cut(&inst, 0).expect("constraint present");
        assert!(cut.is_unsatisfiable());
    }

    #[test]
    fn cardinality_cut_restricts_outside_costs() {
        // K = {x1, x2, x3} with at least 2 true; costs 2, 3, 4; outside
        // cost 5 on x4. V = 2 + 3 = 5. With upper = 9: outside terms must
        // fit 9 - 1 - 5 = 3 -> 5*x4 <= 3 -> x4 forced false.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (4, v[2].positive()),
            (5, v[3].positive()),
        ]);
        let inst = b.build().unwrap();
        let cuts = cardinality_cost_cuts(&inst, 9);
        assert_eq!(cuts.len(), 1);
        assert!(!cuts[0].is_satisfied_by(&[true, true, false, true]), "x4 = 1 excluded");
        assert!(cuts[0].is_satisfied_by(&[true, true, false, false]));
    }

    #[test]
    fn duplicate_cardinality_rows_yield_one_cut() {
        // The same cardinality constraint twice used to produce the same
        // cut twice, doubling the engine's row count after every re-root.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (4, v[2].positive()),
            (5, v[3].positive()),
        ]);
        let inst = b.build().unwrap();
        let cuts = cardinality_cost_cuts(&inst, 9);
        assert_eq!(cuts.len(), 1, "identical cuts must be deduplicated");
        let all = cost_cuts(&inst, 9);
        assert_eq!(all.len(), 2, "knapsack + one cardinality cut");
        assert!(all.iter().all(|c| all.iter().filter(|d| *d == c).count() == 1));
    }

    #[test]
    fn cuts_preserve_better_solutions_randomized() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc075);
        for round in 0..40 {
            let n = rng.gen_range(3..8);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            for _ in 0..rng.gen_range(1..5) {
                let k = rng.gen_range(2..=n);
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                b.add_at_least(
                    rng.gen_range(1..=k as i64),
                    idxs[..k].iter().map(|&i| vars[i].positive()),
                );
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(0..5), v.positive())));
            let inst = b.build().unwrap();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let upper = opt + rng.gen_range(1i64..4); // pretend incumbent is worse
            let mut cuts = cardinality_cost_cuts(&inst, upper);
            if let Some(kc) = knapsack_cut(&inst, upper) {
                cuts.push(kc);
            }
            // Every strictly-better-than-upper feasible assignment must
            // satisfy every cut.
            for mask in 0u64..(1 << n) {
                let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                if inst.is_feasible(&vals) && inst.cost_of(&vals) < upper {
                    for (ci, cut) in cuts.iter().enumerate() {
                        assert!(
                            cut.is_satisfied_by(&vals),
                            "round {round}: cut {ci} removes solution of cost {} < {upper}",
                            inst.cost_of(&vals)
                        );
                    }
                }
            }
        }
    }

    /// The per-call derivation the templates replace, kept verbatim as
    /// the oracle: normalize every cut from scratch and deduplicate the
    /// finished rows.
    fn oracle_knapsack_cut(instance: &Instance, upper: i64) -> Option<PbConstraint> {
        let obj = instance.objective()?;
        let rhs = upper - 1 - obj.offset();
        normalize(obj.terms(), RelOp::Le, rhs).ok()?.pop()
    }

    fn oracle_cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
        let obj = instance.objective().expect("optimization instance");
        let mut cuts: Vec<PbConstraint> =
            oracle_knapsack_cut(instance, upper).into_iter().collect();
        for c in instance.constraints() {
            let class = c.class();
            if class == pbo_core::ConstraintClass::General || c.is_empty() {
                continue;
            }
            let u = c.min_true_literals();
            if u <= 0 || u > c.len() as i64 {
                continue;
            }
            let mut costs: Vec<i64> = c.terms().iter().map(|t| obj.cost_of_lit(t.lit)).collect();
            costs.sort_unstable();
            let v: i64 = costs.iter().take(u as usize).sum();
            if v <= 0 {
                continue;
            }
            let k_vars: HashSet<usize> = c.terms().iter().map(|t| t.lit.var().index()).collect();
            let outside: Vec<(i64, Lit)> = obj
                .terms()
                .iter()
                .copied()
                .filter(|(_, l)| !k_vars.contains(&l.var().index()))
                .collect();
            if outside.is_empty() {
                continue;
            }
            let rhs = upper - 1 - v - obj.offset();
            if let Ok(cs) = normalize(&outside, RelOp::Le, rhs) {
                for cut in cs {
                    if !cuts.contains(&cut) {
                        cuts.push(cut);
                    }
                }
            }
        }
        cuts
    }

    /// The once-per-solve templates emit the oracle's list, row for row
    /// and in order, at every incumbent — tight, loose, trivial and
    /// infeasible uppers alike — over instances mixing clauses,
    /// cardinality rows (duplicates and same-threshold twins included),
    /// general rows and costs on negative literals with an offset.
    #[test]
    fn templates_match_per_call_derivation_randomized() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc0de);
        let mut compared = 0usize;
        for round in 0..150 {
            let n = rng.gen_range(2..10);
            let mut b = InstanceBuilder::new();
            let vars = b.new_vars(n);
            let mut rows: Vec<(i64, Vec<Lit>)> = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let k = rng.gen_range(1..=n);
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                let lits: Vec<Lit> =
                    idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.8))).collect();
                rows.push((rng.gen_range(1..=k as i64), lits));
            }
            // Repeat a row now and then (identical cuts must dedup).
            if rng.gen_bool(0.5) {
                let twin = rows[rng.gen_range(0..rows.len())].clone();
                rows.push(twin);
            }
            for (degree, lits) in &rows {
                match rng.gen_range(0..3) {
                    0 => b.add_clause(lits.iter().copied()),
                    1 => b.add_at_least(*degree, lits.iter().copied()),
                    _ => {
                        let terms: Vec<(i64, Lit)> =
                            lits.iter().map(|&l| (rng.gen_range(1..4), l)).collect();
                        b.add_linear(terms, RelOp::Ge, *degree)
                    }
                };
            }
            let mut costs = Vec::new();
            for v in &vars {
                if rng.gen_bool(0.85) {
                    costs.push((rng.gen_range(-3..7), v.lit(rng.gen_bool(0.8))));
                }
            }
            b.minimize_with_offset(costs, rng.gen_range(-4..5));
            let inst = b.build().unwrap();
            let Some(obj) = inst.objective() else { continue };
            let total: i64 = obj.terms().iter().map(|&(c, _)| c).sum();
            let templates = CostCuts::new(&inst);
            for upper in (obj.offset() - 2)..=(obj.offset() + total + 2) {
                let context = format!("round {round}, upper {upper}");
                let knapsack = oracle_knapsack_cut(&inst, upper);
                let oracle = oracle_cost_cuts(&inst, upper);
                assert_eq!(templates.cuts(upper), oracle, "{context}");
                assert_eq!(cost_cuts(&inst, upper), oracle, "{context}");
                assert_eq!(knapsack_cut(&inst, upper), knapsack, "{context}");
                let cardinality = &oracle[usize::from(knapsack.is_some())..];
                assert_eq!(cardinality_cost_cuts(&inst, upper), cardinality, "{context}");
                compared += oracle.len();
            }
        }
        assert!(compared > 1_000, "too few cuts compared ({compared})");
    }

    /// An LP relaxation over the instance rows alone makes the same
    /// prune decision as one over the instance rows plus
    /// `cost_cuts(U)`, and reports the same bound whenever both are
    /// feasible — the argument for installing no cost-cut rows into the
    /// LP bound. Eq. 10 only turns `z_LP > U - 1` into infeasibility,
    /// and each eqs. 11–13 cut follows from its source row's relaxation
    /// (a cardinality row whose coefficient divides its degree) plus
    /// eq. 10. Both steps need the cuts' LP form to be their linear
    /// form, i.e. no cost above a cut's degree (saturation tightens a
    /// relaxation); where some cut saturates, dropping the rows is still
    /// sound and only ever prunes less.
    #[test]
    fn cost_cut_rows_never_change_the_lp_prune_decision() {
        use pbo_bounds::{DynRowOrigin, DynamicRows, LowerBound, LprBound, Subproblem};
        use pbo_core::{Assignment, Var};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1b2c);
        let (mut exact, mut saturated) = (0usize, 0usize);
        for round in 0..120 {
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
                let lits: Vec<Lit> =
                    idxs[..k].iter().map(|&i| vars[i].lit(rng.gen_bool(0.85))).collect();
                if rng.gen_bool(0.5) {
                    b.add_clause(lits);
                } else {
                    b.add_at_least(rng.gen_range(1..=k as i64), lits);
                }
            }
            b.minimize(vars.iter().map(|v| (rng.gen_range(1..9), v.positive())));
            let inst = b.build().unwrap();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let total: i64 = inst.objective().unwrap().terms().iter().map(|&(c, _)| c).sum();
            for _ in 0..6 {
                let upper = rng.gen_range(opt.max(1)..=total + 1);
                let cuts = cost_cuts(&inst, upper);
                let obj = inst.objective().unwrap();
                let saturates = cuts
                    .iter()
                    .any(|c| c.terms().iter().any(|t| obj.cost_of_lit(!t.lit) > c.rhs()));
                let mut rows = DynamicRows::for_instance(&inst);
                rows.begin_epoch();
                for (k, cut) in cuts.into_iter().enumerate() {
                    let origin = if k == 0 {
                        DynRowOrigin::ObjectiveCut
                    } else {
                        DynRowOrigin::CardinalityCut
                    };
                    rows.push(cut, origin);
                }
                let mut with_cuts = LprBound::new(&inst);
                with_cuts.install_rows(&inst, &rows);
                let mut bare = LprBound::new(&inst);
                // A random node: a few variables fixed either way.
                let mut a = Assignment::new(n);
                for v in 0..n {
                    if rng.gen_bool(0.3) {
                        a.assign(Var::new(v), rng.gen_bool(0.5));
                    }
                }
                let thin = bare.lower_bound(&Subproblem::new(&inst, &a), Some(upper));
                let full =
                    with_cuts.lower_bound(&Subproblem::with_rows(&inst, &a, &rows), Some(upper));
                let context = format!("round {round}, upper {upper}: bare {thin:?}, cuts {full:?}");
                if saturates {
                    saturated += 1;
                    assert!(!thin.prunes(upper) || full.prunes(upper), "{context}");
                    continue;
                }
                exact += 1;
                assert_eq!(thin.prunes(upper), full.prunes(upper), "{context}");
                if !thin.infeasible && !full.infeasible {
                    assert_eq!(thin.bound, full.bound, "{context}");
                }
            }
        }
        assert!(exact > 200 && saturated > 0, "coverage: {exact} exact, {saturated} saturated");
    }
}
