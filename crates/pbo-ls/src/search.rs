//! The WalkSAT/DLS-style local search engine over complete assignments.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pbo_core::{verify_solution, Instance, TermArena, Var};
use pbo_trace::{TraceEvent, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cell::IncumbentCell;

/// Weights are halved across the board once any reaches this cap, so the
/// landscape reshaping never runs away numerically.
const WEIGHT_CAP: u64 = 1 << 24;

/// Sentinel for "constraint not in the violated list".
const NOT_VIOLATED: u32 = u32::MAX;

/// Sentinel for "variable not in the objective".
const NOT_COSTED: u32 = u32::MAX;

/// Restart (from the cached best solution, perturbed) every this many
/// cumulative steps.
const RESTART_INTERVAL: u64 = 8_000;

/// Probability of a random walk move when no improving flip exists.
const NOISE: f64 = 0.12;

/// Candidate flips examined per move (larger constraints are subsampled
/// from a random rotation).
const MAX_CANDIDATES: usize = 16;

/// Run-control options of the local search: seed, budgets and
/// cancellation.
#[derive(Clone, Debug)]
pub struct LsOptions {
    /// RNG seed; equal seeds give bit-identical runs (no time limit).
    pub seed: u64,
    /// Maximum flips/steps per [`LocalSearch::run`] call.
    pub max_steps: u64,
    /// Wall-clock cap per [`LocalSearch::run`] call.
    pub time_limit: Option<Duration>,
    /// Cooperative cancellation, polled every 512 steps with the time
    /// limit; a tripped token ends the run with the best verified
    /// incumbent so far.
    pub cancel: Option<pbo_core::CancelToken>,
}

impl Default for LsOptions {
    fn default() -> LsOptions {
        LsOptions { seed: 0xb50d, max_steps: 200_000, time_limit: None, cancel: None }
    }
}

impl LsOptions {
    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> LsOptions {
        self.seed = seed;
        self
    }

    /// Builder-style step-budget override.
    pub fn max_steps(mut self, max_steps: u64) -> LsOptions {
        self.max_steps = max_steps;
        self
    }

    /// Builder-style wall-clock cap override.
    pub fn time_limit(mut self, limit: Duration) -> LsOptions {
        self.time_limit = Some(limit);
        self
    }

    /// Builder-style cancellation-token override.
    pub fn cancel(mut self, cancel: pbo_core::CancelToken) -> LsOptions {
        self.cancel = Some(cancel);
        self
    }
}

/// Cumulative effort counters of a [`LocalSearch`].
#[derive(Clone, Default, Debug)]
pub struct LsStats {
    /// Search steps taken (each step is one flip or one weight bump).
    pub steps: u64,
    /// Variable flips performed.
    pub flips: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Weight-bump (local-minimum escape) events.
    pub weight_bumps: u64,
    /// Verified improving incumbents recorded.
    pub incumbents: u64,
    /// Candidate incumbents rejected by verification (always 0 unless the
    /// incremental counters are broken).
    pub verify_rejects: u64,
    /// Time from engine construction to the last improving incumbent.
    pub time_to_best: Option<Duration>,
}

/// Outcome of a [`LocalSearch::run`] call.
#[derive(Clone, Debug)]
pub struct LsResult {
    /// Cost of the best verified solution found so far, if any.
    pub best_cost: Option<i64>,
    /// The best verified solution itself.
    pub best_model: Option<Vec<bool>>,
    /// Cumulative effort counters (across all `run` calls).
    pub stats: LsStats,
}

/// Stochastic local search over complete assignments of one instance.
///
/// See the crate docs for the algorithm. The engine is resumable: each
/// [`run`](LocalSearch::run) call continues from the current state with a
/// fresh step budget, so a portfolio driver can interleave chunks of
/// search with incumbent exchanges.
///
/// # Examples
///
/// ```
/// use pbo_core::InstanceBuilder;
/// use pbo_ls::{LocalSearch, LsOptions};
///
/// let mut b = InstanceBuilder::new();
/// let v = b.new_vars(4);
/// b.add_at_least(2, v.iter().map(|x| x.positive()));
/// b.minimize(v.iter().enumerate().map(|(i, x)| ((i + 1) as i64, x.positive())));
/// let inst = b.build()?;
///
/// let result = LocalSearch::new(&inst, LsOptions::default()).run(None, None);
/// assert_eq!(result.best_cost, Some(3)); // x1 + x2
/// # Ok::<(), pbo_core::BuildError>(())
/// ```
pub struct LocalSearch<'a> {
    instance: &'a Instance,
    options: LsOptions,
    rng: ChaCha8Rng,
    created: Instant,
    optimization: bool,
    /// Instance contains a constraint no assignment satisfies: skip the
    /// walk entirely.
    hopeless: bool,
    // --- static per-instance data ---
    /// The instance's flat CSR/SoA arena: row terms, right-hand sides
    /// and the literal → occurrence CSR of the rows, **borrowed, never
    /// copied** — the walker and the exact side's workers share this one
    /// read-only block.
    arena: &'a TermArena,
    /// Objective cost per literal code.
    lit_cost: Vec<i64>,
    /// Position of each variable's term in the objective's term list
    /// (`NOT_COSTED` for a variable the objective does not mention).
    obj_pos: Vec<u32>,
    /// Best possible objective value (offset): the perfection test.
    min_cost: i64,
    // --- dynamic state ---
    /// Current complete assignment.
    values: Vec<bool>,
    /// Per row, its right-hand side minus the weight of its true
    /// literals: the row is violated exactly when this is positive, and
    /// `max(0, slack)` is its deficiency. A flip reads and writes one
    /// `i64` per occurrence.
    slack: Vec<i64>,
    /// Dynamic constraint weights, an array of their own: packed with
    /// `slack` into one array of pairs, the walk was never clearly
    /// faster.
    weights: Vec<u64>,
    /// Bitset over the objective's term positions: bit `k` is set when
    /// term `k` is true, so the objective move gathers its candidates
    /// with a set-bit scan instead of a truth test per term.
    obj_true: Vec<u64>,
    /// Weight of the objective pseudo-constraint `cost <= upper - 1`.
    obj_weight: u64,
    /// Objective value of the current assignment (offset included).
    cost: i64,
    /// Violated constraints (unordered) with O(1) membership updates.
    violated: Vec<u32>,
    vio_pos: Vec<u32>,
    /// Active incumbent bound: the search wants `cost < upper`.
    upper: Option<i64>,
    best: Option<(i64, Vec<bool>)>,
    /// Reusable candidate buffer.
    cand: Vec<usize>,
    /// Effort counters.
    pub stats: LsStats,
    /// Telemetry sink (off by default; see [`LocalSearch::set_tracer`]).
    tracer: Tracer,
}

impl<'a> LocalSearch<'a> {
    /// Builds the engine and seeds it with an objective-biased random
    /// assignment.
    pub fn new(instance: &'a Instance, options: LsOptions) -> LocalSearch<'a> {
        let n = instance.num_vars();
        let m = instance.num_constraints();
        let hopeless = instance.constraints().iter().any(|c| c.is_unsatisfiable());
        let mut lit_cost = vec![0i64; 2 * n];
        let mut obj_pos = vec![NOT_COSTED; n];
        let mut min_cost = 0;
        let mut obj_terms = 0;
        if let Some(obj) = instance.objective() {
            min_cost = obj.offset();
            obj_terms = obj.terms().len();
            for (k, &(c, l)) in obj.terms().iter().enumerate() {
                lit_cost[l.code()] = c;
                obj_pos[l.var().index()] = k as u32;
            }
        }
        let seed = options.seed;
        let mut ls = LocalSearch {
            instance,
            options,
            rng: ChaCha8Rng::seed_from_u64(seed),
            created: Instant::now(),
            optimization: instance.is_optimization(),
            hopeless,
            arena: instance.arena(),
            lit_cost,
            obj_pos,
            min_cost,
            values: vec![false; n],
            slack: vec![0; m],
            weights: vec![1; m],
            obj_true: vec![0; obj_terms.div_ceil(64)],
            obj_weight: 1,
            cost: 0,
            violated: Vec::with_capacity(m),
            vio_pos: vec![NOT_VIOLATED; m],
            upper: None,
            best: None,
            cand: Vec::new(),
            stats: LsStats::default(),
            tracer: Tracer::off(),
        };
        ls.reset_to(None);
        ls
    }

    /// Installs a telemetry tracer: restarts and verified incumbents are
    /// emitted into its buffer. Drain with
    /// [`LocalSearch::drain_trace`] when the walk is done.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drains the buffered telemetry events recorded so far.
    pub fn drain_trace(&mut self) -> Vec<pbo_trace::Event> {
        self.tracer.drain()
    }

    /// The best verified solution found so far.
    pub fn best(&self) -> Option<(i64, &[bool])> {
        self.best.as_ref().map(|(c, m)| (*c, m.as_slice()))
    }

    /// Runs the search until the per-call step budget, the per-call time
    /// limit, the cancel token, or `stop` ends it, or nothing is left to
    /// improve; returns the cumulative
    /// result. `cell` (when given) receives every verified improving
    /// incumbent and is polled for external improvements, which re-seed
    /// the walk. `stop` is read before every step, the time limit, the
    /// token and the cell every 512 steps.
    pub fn run(&mut self, cell: Option<&IncumbentCell>, stop: Option<&AtomicBool>) -> LsResult {
        let deadline = self.options.time_limit.map(|d| Instant::now() + d);
        let start_steps = self.stats.steps;
        if !self.hopeless {
            loop {
                let done = self.stats.steps - start_steps;
                if done >= self.options.max_steps {
                    break;
                }
                // A racing walker reads its stop flag every step: the
                // branch-and-bound waits on it when it finishes first.
                if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                    break;
                }
                if done.is_multiple_of(512) {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    if self.options.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        break;
                    }
                    self.adopt_external(cell);
                }
                if self.satisfied_with_best() {
                    break;
                }
                // The restart cadence counts *cumulative* steps, so a
                // driver feeding the engine short per-call budgets (the
                // portfolio's chunked seed phase) restarts exactly as
                // often as one long run would — even when every chunk is
                // shorter than the interval.
                if self.stats.steps > 0 && self.stats.steps.is_multiple_of(RESTART_INTERVAL) {
                    self.restart();
                }
                self.step(cell);
            }
        }
        LsResult {
            best_cost: self.best.as_ref().map(|(c, _)| *c),
            best_model: self.best.as_ref().map(|(_, m)| m.clone()),
            stats: self.stats.clone(),
        }
    }

    /// True when no further improvement is possible: a satisfaction
    /// instance is satisfied, or the incumbent already attains the
    /// objective's unconstrained minimum.
    fn satisfied_with_best(&self) -> bool {
        let Some((best, _)) = &self.best else { return false };
        !self.optimization || *best <= self.min_cost
    }

    /// One search step: record a feasible improvement, or repair a
    /// violated constraint, or descend on the objective.
    fn step(&mut self, cell: Option<&IncumbentCell>) {
        self.stats.steps += 1;
        if self.violated.is_empty() {
            if self.upper.is_none_or(|u| self.cost < u) {
                self.record_incumbent(cell);
                if !self.optimization {
                    return;
                }
            }
            self.objective_move();
            return;
        }
        let ci = self.violated[self.rng.gen_range(0..self.violated.len())];
        self.repair_move(ci as usize);
    }

    /// Repair move on violated constraint `ci`: flip one of its false
    /// literals.
    fn repair_move(&mut self, ci: usize) {
        // Candidates: variables of false literals of `ci`, sampled from a
        // random rotation so subsampling has no positional bias.
        self.cand.clear();
        let row = self.arena.row(ci);
        let len = row.lits.len();
        let start = if len == 0 { 0 } else { self.rng.gen_range(0..len) };
        let (head, tail) = row.lits.split_at(start);
        for &lit in tail.iter().chain(head) {
            if self.cand.len() >= MAX_CANDIDATES {
                break;
            }
            if self.values[lit.var().index()] != lit.is_positive() {
                self.cand.push(lit.var().index());
            }
        }
        self.choose_and_flip();
    }

    /// Objective descent move: flip a costed literal that is currently
    /// true (reducing the objective), chosen by the same weighted score.
    /// The candidates are the first true terms from a random position
    /// on, cyclically, read off the set bits of `obj_true`.
    fn objective_move(&mut self) {
        self.cand.clear();
        let Some(obj) = self.instance.objective() else { return };
        let terms = obj.terms();
        if terms.is_empty() {
            return;
        }
        let start = self.rng.gen_range(0..terms.len());
        self.collect_true_terms(terms, start, terms.len());
        self.collect_true_terms(terms, 0, start);
        self.choose_and_flip();
    }

    /// Pushes the variables of the true objective terms at positions
    /// `from..to`, in order, until the candidate buffer is full.
    fn collect_true_terms(&mut self, terms: &[(i64, pbo_core::Lit)], from: usize, to: usize) {
        let mut k = from;
        while k < to && self.cand.len() < MAX_CANDIDATES {
            // The set bits of `k`'s word at or after `k`, below `to`.
            let mut word = self.obj_true[k / 64] >> (k % 64);
            let width = (64 - k % 64).min(to - k);
            if width < 64 {
                word &= (1u64 << width) - 1;
            }
            while word != 0 && self.cand.len() < MAX_CANDIDATES {
                let bit = word.trailing_zeros() as usize;
                self.cand.push(terms[k + bit].1.var().index());
                word &= word - 1;
            }
            k += width;
        }
    }

    /// Scores the candidate buffer and performs the WalkSAT/DLS move:
    /// best improving flip, else noise-directed random flip, else weight
    /// bump + least-damaging flip.
    fn choose_and_flip(&mut self) {
        if self.cand.is_empty() {
            // Nothing flippable (e.g. an unsatisfiable-by-flips row):
            // reshape the landscape and move on.
            self.bump_weights();
            return;
        }
        let mut best_idx = 0;
        let mut best_key = (i128::MAX, i64::MAX);
        for i in 0..self.cand.len() {
            let v = self.cand[i];
            let cost_delta = self.cost_delta(v);
            let key = (self.score_flip(v, cost_delta), cost_delta);
            if key < best_key {
                best_key = key;
                best_idx = i;
            }
        }
        if best_key.0 < 0 {
            let v = self.cand[best_idx];
            self.flip(v);
            return;
        }
        if self.rng.gen_bool(NOISE) {
            let v = self.cand[self.rng.gen_range(0..self.cand.len())];
            self.flip(v);
            return;
        }
        self.bump_weights();
        let v = self.cand[best_idx];
        self.flip(v);
    }

    /// Weighted deficiency delta of flipping `v`, whose objective change
    /// is `cost_delta`: negative is good. The occurrences come straight
    /// off the shared arena CSR; a row satisfied before and after the
    /// flip changes nothing, so its weight is not read.
    fn score_flip(&self, v: usize, cost_delta: i64) -> i128 {
        let now_true = Var::new(v).lit(!self.values[v]);
        let now_false = !now_true;
        let mut delta: i128 = 0;
        let (rows, coeffs) = self.arena.occurrences(now_true);
        for (&ci, &coeff) in rows.iter().zip(coeffs) {
            let slack = self.slack[ci as usize];
            if slack > 0 {
                let change = (slack - coeff).max(0) - slack;
                delta += self.weights[ci as usize] as i128 * change as i128;
            }
        }
        let (rows, coeffs) = self.arena.occurrences(now_false);
        for (&ci, &coeff) in rows.iter().zip(coeffs) {
            let slack = self.slack[ci as usize];
            if slack + coeff > 0 {
                let change = slack + coeff - slack.max(0);
                delta += self.weights[ci as usize] as i128 * change as i128;
            }
        }
        if let Some(u) = self.upper {
            // Objective pseudo-constraint `cost <= u - 1`.
            let before = (self.cost - (u - 1)).max(0);
            let after = (self.cost + cost_delta - (u - 1)).max(0);
            delta += self.obj_weight as i128 * (after - before) as i128;
        }
        delta
    }

    /// Objective change of flipping `v` (the universal tie-break).
    fn cost_delta(&self, v: usize) -> i64 {
        let now_true = Var::new(v).lit(!self.values[v]);
        self.lit_cost[now_true.code()] - self.lit_cost[(!now_true).code()]
    }

    /// Flips `v`, updating the slacks, the violated set and the true
    /// objective terms in O(occurrences of `v`), read from the shared
    /// arena CSR (two contiguous arrays).
    fn flip(&mut self, v: usize) {
        self.stats.flips += 1;
        let now_true = Var::new(v).lit(!self.values[v]);
        let now_false = !now_true;
        self.values[v] = !self.values[v];
        let arena = self.arena;
        let (rows, coeffs) = arena.occurrences(now_true);
        for (&ci, &coeff) in rows.iter().zip(coeffs) {
            let was = self.slack[ci as usize];
            self.slack[ci as usize] = was - coeff;
            if was > 0 && was <= coeff {
                self.remove_violated(ci);
            }
        }
        let (rows, coeffs) = arena.occurrences(now_false);
        for (&ci, &coeff) in rows.iter().zip(coeffs) {
            let was = self.slack[ci as usize];
            self.slack[ci as usize] = was + coeff;
            if was <= 0 && was + coeff > 0 {
                self.add_violated(ci);
            }
        }
        let pos = self.obj_pos[v];
        if pos != NOT_COSTED {
            self.obj_true[pos as usize / 64] ^= 1 << (pos % 64);
        }
        self.cost += self.lit_cost[now_true.code()] - self.lit_cost[now_false.code()];
    }

    #[inline]
    fn add_violated(&mut self, c: u32) {
        debug_assert_eq!(self.vio_pos[c as usize], NOT_VIOLATED);
        self.vio_pos[c as usize] = self.violated.len() as u32;
        self.violated.push(c);
    }

    #[inline]
    fn remove_violated(&mut self, c: u32) {
        let pos = self.vio_pos[c as usize];
        debug_assert_ne!(pos, NOT_VIOLATED);
        let last = *self.violated.last().expect("violated list cannot be empty here");
        self.violated.swap_remove(pos as usize);
        if last != c {
            self.vio_pos[last as usize] = pos;
        }
        self.vio_pos[c as usize] = NOT_VIOLATED;
    }

    /// Bumps the weights of everything currently violated (the DLS
    /// landscape reshaping), halving across the board at the cap.
    fn bump_weights(&mut self) {
        self.stats.weight_bumps += 1;
        let mut max_seen = self.obj_weight;
        for &c in &self.violated {
            let w = &mut self.weights[c as usize];
            *w += 1;
            max_seen = max_seen.max(*w);
        }
        if self.upper.is_some_and(|u| self.cost >= u) {
            self.obj_weight += 1;
        }
        if max_seen >= WEIGHT_CAP {
            for w in &mut self.weights {
                *w = (*w / 2).max(1);
            }
            self.obj_weight = (self.obj_weight / 2).max(1);
        }
    }

    /// Verifies and records the current assignment as an incumbent;
    /// publishes improvements to `cell`.
    fn record_incumbent(&mut self, cell: Option<&IncumbentCell>) {
        match verify_solution(self.instance, &self.values) {
            Ok(cost) => {
                debug_assert_eq!(cost, self.cost, "LS cost counter drifted");
                let improved = self.best.as_ref().is_none_or(|(b, _)| cost < *b);
                if improved {
                    self.best = Some((cost, self.values.clone()));
                    self.stats.incumbents += 1;
                    self.stats.time_to_best = Some(self.created.elapsed());
                    self.tracer.emit(TraceEvent::Solution { cost });
                    if let Some(cell) = cell {
                        cell.offer(cost, &self.values);
                    }
                }
                if self.optimization {
                    let u = self.upper.map_or(cost, |u| u.min(cost));
                    self.upper = Some(u);
                }
            }
            Err(_) => {
                debug_assert!(false, "LS incumbent failed verification");
                self.stats.verify_rejects += 1;
            }
        }
    }

    /// Adopts a strictly better external incumbent from the cell: it
    /// becomes the cached best and the walk re-seeds from it.
    fn adopt_external(&mut self, cell: Option<&IncumbentCell>) {
        let Some(cell) = cell else { return };
        let mine = self.best.as_ref().map(|(c, _)| *c);
        if cell.best_cost().is_none_or(|c| mine.is_some_and(|m| c >= m)) {
            return;
        }
        let Some((cost, model)) = cell.snapshot() else { return };
        if mine.is_some_and(|m| cost >= m) {
            return; // raced: someone (us?) improved meanwhile
        }
        // Trust nothing across the thread boundary unverified.
        if verify_solution(self.instance, &model) != Ok(cost) {
            self.stats.verify_rejects += 1;
            return;
        }
        self.best = Some((cost, model.clone()));
        if self.optimization {
            self.upper = Some(cost);
        }
        self.reset_to(Some(&model));
    }

    /// Restart: decay weights, re-seed from the perturbed best solution
    /// (or fresh randomness before any incumbent exists).
    fn restart(&mut self) {
        self.stats.restarts += 1;
        self.tracer.emit(TraceEvent::LsRestart);
        for w in &mut self.weights {
            *w = (*w / 2).max(1);
        }
        self.obj_weight = (self.obj_weight / 2).max(1);
        match self.best.as_ref().map(|(_, m)| m.clone()) {
            Some(model) => {
                self.reset_to(Some(&model));
                // Perturb so the walk does not redo the identical descent.
                let n = self.values.len();
                if n > 0 {
                    let kicks = 2 + self.rng.gen_range(0..n / 16 + 1);
                    for _ in 0..kicks {
                        let v = self.rng.gen_range(0..n);
                        self.flip(v);
                    }
                }
            }
            None => self.reset_to(None),
        }
    }

    /// Resets the dynamic state to `model`, or to an objective-biased
    /// random assignment (costed literals preferentially false).
    fn reset_to(&mut self, model: Option<&[bool]>) {
        match model {
            Some(m) => self.values.copy_from_slice(m),
            None => {
                for v in 0..self.values.len() {
                    let pos_cost = self.lit_cost[Var::new(v).positive().code()];
                    let neg_cost = self.lit_cost[Var::new(v).negative().code()];
                    self.values[v] = if pos_cost > neg_cost {
                        // Positive literal costed: prefer false.
                        !self.rng.gen_bool(0.9)
                    } else if neg_cost > pos_cost {
                        self.rng.gen_bool(0.9)
                    } else {
                        self.rng.gen_bool(0.5)
                    };
                }
            }
        }
        self.violated.clear();
        self.vio_pos.fill(NOT_VIOLATED);
        for ci in 0..self.slack.len() {
            let row = self.arena.row(ci);
            let mut slack = self.arena.rhs(ci);
            for (&coeff, &lit) in row.coeffs.iter().zip(row.lits) {
                if self.values[lit.var().index()] == lit.is_positive() {
                    slack -= coeff;
                }
            }
            self.slack[ci] = slack;
            if slack > 0 {
                self.add_violated(ci as u32);
            }
        }
        self.obj_true.fill(0);
        if let Some(obj) = self.instance.objective() {
            for (k, &(_, l)) in obj.terms().iter().enumerate() {
                let is_true = self.values[l.var().index()] == l.is_positive();
                self.obj_true[k / 64] |= u64::from(is_true) << (k % 64);
            }
        }
        self.cost = self.instance.cost_of(&self.values);
    }
}

impl std::fmt::Debug for LocalSearch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalSearch")
            .field("best", &self.best.as_ref().map(|(c, _)| *c))
            .field("violated", &self.violated.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::InstanceBuilder;

    fn covering_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[1].positive(), v[2].positive()]);
        b.minimize([(2, v[0].positive()), (3, v[1].positive()), (2, v[2].positive())]);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_covering_optimum() {
        let inst = covering_instance();
        let result = LocalSearch::new(&inst, LsOptions::default()).run(None, None);
        assert_eq!(result.best_cost, Some(3));
        let model = result.best_model.unwrap();
        assert_eq!(verify_solution(&inst, &model), Ok(3));
        assert_eq!(result.stats.verify_rejects, 0);
    }

    #[test]
    fn handles_general_pb_constraints() {
        // 3x1 + 2x2 + 2x3 >= 5, costs 4/1/1: optimum is x1+x2 (or x1+x3) = 5.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(3);
        b.add_linear(
            vec![(3, v[0].positive()), (2, v[1].positive()), (2, v[2].positive())],
            pbo_core::RelOp::Ge,
            5,
        );
        b.minimize([(4, v[0].positive()), (1, v[1].positive()), (1, v[2].positive())]);
        let inst = b.build().unwrap();
        let result = LocalSearch::new(&inst, LsOptions::default()).run(None, None);
        assert_eq!(result.best_cost, Some(5));
    }

    #[test]
    fn satisfaction_instance_stops_at_first_solution() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.add_clause([v[2].negative(), v[3].positive()]);
        let inst = b.build().unwrap();
        let mut ls = LocalSearch::new(&inst, LsOptions::default());
        let result = ls.run(None, None);
        assert_eq!(result.best_cost, Some(0));
        assert!(result.stats.steps < LsOptions::default().max_steps, "must stop early");
    }

    #[test]
    fn hopeless_instance_returns_nothing_quickly() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_linear(vec![(1, v[0].positive())], pbo_core::RelOp::Ge, 5);
        let inst = b.build().unwrap();
        let result = LocalSearch::new(&inst, LsOptions::default()).run(None, None);
        assert_eq!(result.best_cost, None);
        assert_eq!(result.stats.steps, 0, "unsatisfiable-by-sum rows short-circuit");
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = pbo_benchgen::RandomParams {
            vars: 20,
            constraints: 30,
            arity: (2, 5),
            coeff: (1, 4),
            positive_bias: 1.0,
            optimization: true,
            ..pbo_benchgen::RandomParams::default()
        }
        .generate(7);
        let opts = LsOptions { max_steps: 20_000, time_limit: None, ..LsOptions::default() };
        let a = LocalSearch::new(&inst, opts.clone()).run(None, None);
        let b = LocalSearch::new(&inst, opts.clone()).run(None, None);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best_model, b.best_model);
        assert_eq!(a.stats.steps, b.stats.steps);
        assert_eq!(a.stats.flips, b.stats.flips);
        // A different seed is allowed to differ (and usually does in
        // effort, even when it lands on the same optimum).
        let c = LocalSearch::new(&inst, opts.seed(999)).run(None, None);
        if let (Some(ca), Some(cc)) = (a.best_cost, c.best_cost) {
            // Both must still be verified-feasible costs.
            assert!(ca >= 0 && cc >= 0);
        }
    }

    #[test]
    fn publishes_and_adopts_through_the_cell() {
        let inst = covering_instance();
        let cell = IncumbentCell::new();
        // Pre-load the cell with the (verified) optimum; LS must adopt it
        // rather than regress.
        assert_eq!(verify_solution(&inst, &[false, true, false]), Ok(3));
        cell.offer(3, &[false, true, false]);
        let mut ls = LocalSearch::new(&inst, LsOptions::default().max_steps(5_000));
        let result = ls.run(Some(&cell), None);
        assert_eq!(result.best_cost, Some(3));
        // And the cell still holds the optimum (LS cannot beat it here).
        assert_eq!(cell.best_cost(), Some(3));
    }

    #[test]
    fn stop_flag_halts_the_run() {
        let inst = covering_instance();
        let stop = AtomicBool::new(true);
        let mut ls = LocalSearch::new(&inst, LsOptions::default());
        let result = ls.run(None, Some(&stop));
        assert_eq!(result.stats.steps, 0, "pre-raised stop flag halts before any step");
    }
}
