//! A generic MILP branch-and-bound solver — the CPLEX stand-in of
//! Table 1.
//!
//! This is the *other* algorithm class the paper compares against:
//! LP-relaxation-driven branch-and-bound with best-first node selection
//! and most-fractional branching, but **no SAT machinery** (no
//! propagation, no clause learning, no non-chronological backtracking).
//! It is strong when the cost function dominates (the LP bound prunes
//! early) and weak on pure satisfaction instances, where the zero
//! objective gives the LP nothing to say — exactly the behaviour of the
//! `cplex` column on the `acc` rows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use pbo_core::Instance;
use pbo_lp::{DualSimplex, LpProblem, LpStatus};

use crate::options::Budget;
use crate::result::{SolveResult, SolveStatus, SolverStats};

/// Integrality tolerance of an LP value.
const INT_TOL: f64 = 1e-6;

/// Maximum open nodes kept (best-first memory guard); the search
/// degrades to depth-first pruning of the worst nodes beyond this.
const MAX_OPEN_NODES: usize = 200_000;

/// LP-based branch-and-bound MILP solver over 0-1 variables.
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_solver::{Budget, MilpSolver};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(3);
/// b.add_clause([v[0].positive(), v[1].positive()]);
/// b.add_clause([v[1].positive(), v[2].positive()]);
/// b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
/// let inst = b.build()?;
/// let result = MilpSolver::new(Budget::unlimited()).solve(&inst);
/// assert!(result.is_optimal());
/// assert_eq!(result.best_cost, Some(3));
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MilpSolver {
    /// Resource budget (`decisions` counts branch-and-bound nodes).
    budget: Budget,
}

/// One open node: the LP bound of its parent and its variable fixings.
#[derive(Clone, Debug)]
struct Node {
    bound: i64,
    fixings: Vec<(usize, bool)>,
}

/// Ordering adapter: best-first = smallest bound first, deepest first on
/// ties (cheap dive behaviour).
#[derive(PartialEq, Eq)]
struct NodeKey(i64, Reverse<usize>);

impl PartialOrd for NodeKey {
    fn partial_cmp(&self, other: &NodeKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeKey {
    fn cmp(&self, other: &NodeKey) -> std::cmp::Ordering {
        (self.0, &self.1).cmp(&(other.0, &other.1))
    }
}

impl MilpSolver {
    /// Creates a solver with the given budget (`decisions` counts
    /// branch-and-bound nodes).
    pub fn new(budget: Budget) -> MilpSolver {
        MilpSolver { budget }
    }

    /// Solves `instance` by LP branch-and-bound.
    pub fn solve(&self, instance: &Instance) -> SolveResult {
        let start = Instant::now();
        let mut stats = SolverStats::default();

        // Build the relaxation in variable space (same mapping as the LPR
        // bound: negative literals become negated coefficients plus a
        // right-hand-side shift).
        let n = instance.num_vars();
        let mut p = LpProblem::new(n);
        let mut const_shift = 0.0f64;
        if let Some(obj) = instance.objective() {
            const_shift += obj.offset() as f64;
            let mut costs = vec![0.0f64; n];
            for &(c, l) in obj.terms() {
                if l.is_positive() {
                    costs[l.var().index()] += c as f64;
                } else {
                    const_shift += c as f64;
                    costs[l.var().index()] -= c as f64;
                }
            }
            for (j, &c) in costs.iter().enumerate() {
                if c != 0.0 {
                    p.set_cost(j, c);
                }
            }
        }
        for c in instance.constraints() {
            let mut terms = Vec::with_capacity(c.len());
            let mut rhs = c.rhs() as f64;
            for t in c.terms() {
                if t.lit.is_positive() {
                    terms.push((t.lit.var().index(), t.coeff as f64));
                } else {
                    terms.push((t.lit.var().index(), -(t.coeff as f64)));
                    rhs -= t.coeff as f64;
                }
            }
            p.add_row_ge(&terms, rhs);
        }
        let mut simplex = DualSimplex::new(&p);
        // Cap each node's LP effort so a single oversized solve cannot
        // blow through the whole budget; an iteration-limited node is
        // dropped and optimality claims are downgraded.
        let m = instance.num_constraints() as u64;
        simplex.set_max_iterations((2_000 + 4 * m).min(20_000));
        // The time budget also bounds a single LP solve: a node cancelled
        // at the deadline counts as lost (no optimality claim), and the
        // next budget check ends the search.
        simplex.set_cancel(self.budget.time.map(|t| start + t), None);

        let mut best: Option<(i64, Vec<bool>)> = None;
        // Pure satisfaction instances get depth-first selection (the
        // zero objective makes best-first equivalent to breadth-first,
        // which exhausts memory without finding integral points).
        let best_first = instance.is_optimization();
        let mut heap: BinaryHeap<(Reverse<NodeKey>, usize)> = BinaryHeap::new();
        let mut dfs_stack: Vec<Node> = Vec::new();
        let mut arena: Vec<Node> = Vec::new();

        let root = Node { bound: i64::MIN, fixings: Vec::new() };
        if best_first {
            arena.push(root);
            heap.push((Reverse(NodeKey(i64::MIN, Reverse(0))), 0));
        } else {
            dfs_stack.push(root);
        }

        let mut cached_bounds: Vec<Option<bool>> = vec![None; n];
        // Set when a node is dropped without being explored (LP iteration
        // limit): optimality can no longer be claimed.
        let mut lost_nodes = false;
        loop {
            stats.nodes += 1;
            if self.budget.exhausted(start.elapsed(), stats.nodes, stats.nodes) {
                let status =
                    if best.is_some() { SolveStatus::Feasible } else { SolveStatus::Unknown };
                return self.finish(status, best, stats, start, &simplex);
            }
            let node = if best_first {
                match heap.pop() {
                    Some((_, idx)) => arena[idx].clone(),
                    None => break,
                }
            } else {
                match dfs_stack.pop() {
                    Some(nd) => nd,
                    None => break,
                }
            };
            // Global pruning: the best-first heap is ordered by bound.
            if let Some((ub, _)) = &best {
                if node.bound >= *ub {
                    if best_first {
                        break; // all remaining nodes are at least as bad
                    } else {
                        continue;
                    }
                }
            }
            // Apply the node's fixings to the warm-started simplex.
            let mut wanted: Vec<Option<bool>> = vec![None; n];
            for &(v, val) in &node.fixings {
                wanted[v] = Some(val);
            }
            for v in 0..n {
                if cached_bounds[v] != wanted[v] {
                    match wanted[v] {
                        Some(true) => simplex.set_var_bounds(v, 1.0, 1.0),
                        Some(false) => simplex.set_var_bounds(v, 0.0, 0.0),
                        None => simplex.set_var_bounds(v, 0.0, 1.0),
                    }
                    cached_bounds[v] = wanted[v];
                }
            }
            let sol = simplex.solve();
            match sol.status {
                LpStatus::Infeasible => continue,
                LpStatus::IterationLimit | LpStatus::Cancelled => {
                    lost_nodes = true;
                    continue;
                }
                LpStatus::Optimal => {
                    let z = sol.objective + const_shift;
                    let bound = (z - 1e-6).ceil() as i64;
                    if let Some((ub, _)) = &best {
                        if bound >= *ub {
                            continue;
                        }
                    }
                    // Integral?
                    let frac = sol
                        .x
                        .iter()
                        .enumerate()
                        .filter(|(_, &x)| x > INT_TOL && x < 1.0 - INT_TOL)
                        .min_by(|a, b| {
                            let da = (a.1 - 0.5).abs();
                            let db = (b.1 - 0.5).abs();
                            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                        });
                    match frac {
                        None => {
                            let values: Vec<bool> = sol.x.iter().map(|&x| x > 0.5).collect();
                            debug_assert!(instance.is_feasible(&values));
                            let cost = instance.cost_of(&values);
                            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                                best = Some((cost, values));
                                stats.solutions_found += 1;
                                if !instance.is_optimization() {
                                    // Satisfaction: first integral point wins.
                                    return self.finish(
                                        SolveStatus::Optimal,
                                        best,
                                        stats,
                                        start,
                                        &simplex,
                                    );
                                }
                            }
                        }
                        Some((v, &xv)) => {
                            // Branch on the most fractional variable; dive
                            // toward the nearer integer first.
                            let first = xv > 0.5;
                            for val in [!first, first] {
                                let mut fixings = node.fixings.clone();
                                fixings.push((v, val));
                                let child = Node { bound, fixings };
                                if best_first {
                                    if arena.len() < MAX_OPEN_NODES {
                                        let depth = child.fixings.len();
                                        arena.push(child);
                                        heap.push((
                                            Reverse(NodeKey(bound, Reverse(depth))),
                                            arena.len() - 1,
                                        ));
                                    } else {
                                        dfs_stack.push(child); // overflow: DFS
                                    }
                                } else {
                                    dfs_stack.push(child);
                                }
                            }
                        }
                    }
                }
            }
            // Drain any DFS overflow even in best-first mode.
            if best_first && heap.is_empty() && !dfs_stack.is_empty() {
                let nd = dfs_stack.pop().unwrap();
                arena.push(nd);
                heap.push((Reverse(NodeKey(i64::MIN, Reverse(0))), arena.len() - 1));
            }
        }
        let status = match (&best, lost_nodes) {
            (Some(_), false) => SolveStatus::Optimal,
            (Some(_), true) => SolveStatus::Feasible,
            (None, false) => SolveStatus::Infeasible,
            (None, true) => SolveStatus::Unknown,
        };
        self.finish(status, best, stats, start, &simplex)
    }

    fn finish(
        &self,
        status: SolveStatus,
        best: Option<(i64, Vec<bool>)>,
        mut stats: SolverStats,
        start: Instant,
        simplex: &DualSimplex,
    ) -> SolveResult {
        stats.lp_iterations = simplex.total_iterations;
        stats.solve_time = start.elapsed();
        let (best_cost, best_assignment) = match best {
            Some((c, a)) => (Some(c), Some(a)),
            None => (None, None),
        };
        SolveResult { status, best_cost, best_assignment, stats }
    }
}
