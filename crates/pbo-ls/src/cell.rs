//! The shared incumbent cell: where local search and branch-and-bound
//! exchange solutions.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pbo_fault::failpoint;

/// `cost` value meaning "no incumbent yet".
const EMPTY: i64 = i64::MAX;

struct CellInner {
    model: Option<Vec<bool>>,
    /// Improving offers in arrival order, for incumbent trajectories.
    history: Vec<(Instant, i64)>,
}

/// A thread-safe best-solution cell shared between solution producers.
///
/// The cost of the current best is mirrored in an atomic so readers on
/// the hot path (the branch-and-bound loop, the LS step loop) can check
/// "is there something better than mine?" without taking the lock; the
/// model itself lives behind a mutex and is only touched on actual
/// improvements.
///
/// The cell stores, it does not check: callers must only
/// [`offer`](IncumbentCell::offer) solutions that already passed
/// [`pbo_core::verify_solution`], and consumers re-verify on adoption —
/// feasibility is established at both edges of the exchange, never
/// assumed in the middle.
///
/// # Examples
///
/// ```
/// use pbo_ls::IncumbentCell;
///
/// let cell = IncumbentCell::new();
/// assert_eq!(cell.best_cost(), None);
/// assert!(cell.offer(10, &[true, false]));
/// assert!(!cell.offer(12, &[false, true])); // not an improvement
/// assert!(cell.offer(7, &[false, true]));
/// assert_eq!(cell.best_cost(), Some(7));
/// assert_eq!(cell.snapshot(), Some((7, vec![false, true])));
/// ```
pub struct IncumbentCell {
    cost: AtomicI64,
    inner: Mutex<CellInner>,
}

impl IncumbentCell {
    /// Creates an empty cell.
    pub fn new() -> IncumbentCell {
        IncumbentCell {
            cost: AtomicI64::new(EMPTY),
            inner: Mutex::new(CellInner { model: None, history: Vec::new() }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CellInner> {
        // A panicking holder cannot leave a torn state: cost and model
        // are written together under the lock, so recover the guard.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Cost of the best solution offered so far (lock-free read).
    #[inline]
    pub fn best_cost(&self) -> Option<i64> {
        match self.cost.load(Ordering::Acquire) {
            EMPTY => None,
            c => Some(c),
        }
    }

    /// Offers a solution; it is stored only if strictly cheaper than the
    /// current best. Returns `true` if the cell was updated.
    ///
    /// The caller vouches for `model` being feasible with exactly this
    /// cost (run it through `pbo_core::verify_solution` first).
    pub fn offer(&self, cost: i64, model: &[bool]) -> bool {
        if cost >= self.cost.load(Ordering::Acquire) {
            return false; // fast path: not an improvement
        }
        let mut inner = self.lock();
        // Re-check under the lock: another producer may have won the race.
        if cost >= self.cost.load(Ordering::Acquire) {
            return false;
        }
        // Probe placed while the lock is held but before any write: an
        // injected panic here poisons the mutex with the *previous*
        // incumbent fully intact, which is exactly what the
        // poison-recovery in `lock` must survive.
        failpoint!("cell.offer");
        self.cost.store(cost, Ordering::Release);
        inner.model = Some(model.to_vec());
        inner.history.push((Instant::now(), cost));
        true
    }

    /// Merges a cell that another search ran against: `other`'s history
    /// entries that beat this cell's running best are appended with the
    /// instants they were found at, and `other`'s model is taken if it is
    /// cheaper. A speculative or deterministic-join search works on a
    /// private cell; this hands its incumbents to the shared one without
    /// restamping them as found at the merge.
    pub fn absorb(&self, other: &IncumbentCell) {
        let (history, model) = {
            let theirs = other.lock();
            (theirs.history.clone(), theirs.model.clone())
        };
        let Some(model) = model else { return };
        let mut inner = self.lock();
        let mut best = self.cost.load(Ordering::Acquire);
        for &(at, cost) in &history {
            if cost < best {
                inner.history.push((at, cost));
                best = cost;
            }
        }
        // `other`'s last history entry is the cost of its model.
        if best < self.cost.load(Ordering::Acquire) {
            self.cost.store(best, Ordering::Release);
            inner.model = Some(model);
        }
    }

    /// Clones the current best solution, if any.
    pub fn snapshot(&self) -> Option<(i64, Vec<bool>)> {
        let inner = self.lock();
        let cost = self.cost.load(Ordering::Acquire);
        inner.model.as_ref().map(|m| (cost, m.clone()))
    }

    /// The incumbent trajectory as `(time since start, cost)` pairs —
    /// every successful offer, in order. Used by the benchmark harness to
    /// measure time-to-target.
    pub fn history_since(&self, start: Instant) -> Vec<(Duration, i64)> {
        self.lock()
            .history
            .iter()
            .map(|&(at, cost)| (at.saturating_duration_since(start), cost))
            .collect()
    }
}

impl Default for IncumbentCell {
    fn default() -> IncumbentCell {
        IncumbentCell::new()
    }
}

impl std::fmt::Debug for IncumbentCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncumbentCell").field("best_cost", &self.best_cost()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cell_reports_nothing() {
        let cell = IncumbentCell::new();
        assert_eq!(cell.best_cost(), None);
        assert_eq!(cell.snapshot(), None);
        assert!(cell.history_since(Instant::now()).is_empty());
    }

    #[test]
    fn only_improvements_are_kept() {
        let cell = IncumbentCell::new();
        assert!(cell.offer(5, &[true]));
        assert!(!cell.offer(5, &[false]), "equal cost is not an improvement");
        assert!(!cell.offer(9, &[false]));
        assert_eq!(cell.snapshot(), Some((5, vec![true])));
        assert!(cell.offer(3, &[false]));
        assert_eq!(cell.snapshot(), Some((3, vec![false])));
    }

    #[test]
    fn history_records_every_improvement() {
        let start = Instant::now();
        let cell = IncumbentCell::new();
        cell.offer(10, &[true]);
        cell.offer(12, &[true]); // rejected: not in history
        cell.offer(4, &[false]);
        let history = cell.history_since(start);
        let costs: Vec<i64> = history.iter().map(|&(_, c)| c).collect();
        assert_eq!(costs, vec![10, 4]);
    }

    /// Satellite of the robustness PR: a producer that panics while
    /// holding the model lock (injected via the `cell.offer` failpoint)
    /// poisons the mutex, and every later reader and writer must still
    /// see the incumbent published before the crash.
    #[cfg(feature = "failpoints")]
    #[test]
    fn poisoned_lock_still_serves_the_incumbent() {
        let _guard = pbo_fault::install(pbo_fault::FaultPlan::new().panic_on("cell.offer", 2));
        let cell = IncumbentCell::new();
        assert!(cell.offer(10, &[true, false])); // first hit: publishes
                                                 // Second offer panics mid-hold, poisoning the mutex.
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.offer(5, &[false, true]);
        }));
        assert!(crashed.is_err(), "failpoint must fire inside the lock hold");
        // The pre-crash incumbent survives for readers...
        assert_eq!(cell.best_cost(), Some(10));
        assert_eq!(cell.snapshot(), Some((10, vec![true, false])));
        // ...and the cell keeps accepting offers after recovery.
        assert!(cell.offer(7, &[false, true]));
        assert_eq!(cell.snapshot(), Some((7, vec![false, true])));
    }

    #[test]
    fn absorb_keeps_instants_and_a_strictly_improving_history() {
        let start = Instant::now();
        let shared = IncumbentCell::new();
        shared.offer(10, &[true, true]);
        let private = IncumbentCell::new();
        private.offer(12, &[true, false]); // worse than the shared best
        private.offer(10, &[false, true]); // only equal to it
        private.offer(7, &[false, false]);
        private.offer(5, &[true, false]);
        let found: Vec<(Duration, i64)> = private.history_since(start);
        shared.absorb(&private);
        let history = shared.history_since(start);
        let costs: Vec<i64> = history.iter().map(|&(_, c)| c).collect();
        assert_eq!(costs, vec![10, 7, 5]);
        assert_eq!(&history[1..], &found[2..], "the instants of the finds are kept");
        assert_eq!(shared.snapshot(), Some((5, vec![true, false])));
    }

    #[test]
    fn absorb_never_replaces_a_cheaper_model() {
        let start = Instant::now();
        let shared = IncumbentCell::new();
        shared.offer(3, &[true]);
        let private = IncumbentCell::new();
        private.offer(8, &[false]);
        private.offer(4, &[false]);
        shared.absorb(&private);
        assert_eq!(shared.snapshot(), Some((3, vec![true])));
        assert_eq!(shared.history_since(start).len(), 1, "nothing beat the running best");
        // Absorbing an empty cell changes nothing; absorbing into an
        // empty cell copies the trajectory.
        shared.absorb(&IncumbentCell::new());
        assert_eq!(shared.best_cost(), Some(3));
        let fresh = IncumbentCell::new();
        fresh.absorb(&private);
        assert_eq!(fresh.snapshot(), Some((4, vec![false])));
        assert_eq!(fresh.history_since(start), private.history_since(start));
    }

    #[test]
    fn concurrent_offers_keep_the_minimum() {
        let cell = std::sync::Arc::new(IncumbentCell::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..50 {
                        cell.offer(100 - i - t, &[true, false]);
                    }
                });
            }
        });
        assert_eq!(cell.best_cost(), Some(100 - 49 - 3));
    }
}
