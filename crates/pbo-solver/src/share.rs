//! Cross-worker shared-clause pool for the parallel exact search.
//!
//! Incumbents cross workers through the `IncumbentCell`; this pool
//! carries the stream of **cube-independent learned clauses** —
//! clauses whose first-UIP derivation never resolved on a root
//! assumption (`Taint::ASSUMPTION` unset, tracked by `pbo-engine`).
//! Such clauses are implied by the instance alone (or by instance ∧
//! cost-bound when stamped, see [`SharedClause::upper`]) and therefore
//! sound to install in *any* worker, whatever cube it owns.
//!
//! Design: **per-publisher lanes**, each an append-only fixed-capacity
//! slot array with a release-stored length. Every publisher (the driver's
//! head start plus each worker) owns exactly one lane, so a publish is a
//! plain slot write + length store — no lock, no CAS, no contention with
//! other publishers. Importers keep a per-lane read watermark
//! ([`PoolWatermarks`]) and poll with N relaxed length loads; only lanes
//! that actually grew are walked. This replaced the PR-6 single
//! `Mutex<Vec>` when thousand-cube frontiers made restart-cadence
//! publish/import a measurable contention point on the one pool lock.
//!
//! The mutex pool deduplicated globally on the sorted literal set; lanes
//! have no shared writer state, so dedup moved to the *importer*: each
//! worker records the keys it has learned or imported (`my_keys` in the
//! search state) and skips re-imports, which gives the same install-once
//! guarantee with purely thread-local state. A clause rediscovered by two
//! workers may now occupy two lane slots — bounded by the per-lane cap —
//! but still installs at most once per importer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pbo_core::Lit;
use pbo_fault::failpoint;

/// Hard cap per publisher lane: beyond this, that publisher's publishes
/// are dropped (the pool is a best-effort accelerator; a full lane just
/// means no new sharing from that worker). With one lane per worker the
/// whole pool is bounded by `publishers * LANE_CAP`.
const LANE_CAP: usize = 1024;

/// One clause published to the pool.
#[derive(Clone, Debug)]
pub struct SharedClause {
    /// The literals (a disjunction).
    pub lits: Vec<Lit>,
    /// Literal block distance at learn time (quality hint for importers).
    pub lbd: u32,
    /// `None`: implied by the instance alone. `Some(u)`: implied by
    /// *instance ∧ (cost ≤ u − 1)* — the producer's incumbent cost at
    /// publish time. Sound to import anywhere sharing the same
    /// [`crate::IncumbentCell`], because the incumbent of cost `u` was
    /// offered to the cell *before* any clause conditional on it was
    /// derived, so pruning assignments of cost ≥ `u` can never lose the
    /// global optimum.
    pub upper: Option<i64>,
}

impl SharedClause {
    /// Canonical dedup key: the sorted literal set.
    pub fn key(&self) -> Vec<Lit> {
        let mut k = self.lits.clone();
        k.sort();
        k.dedup();
        k
    }
}

/// One publisher's append-only clause lane: slots are written exactly
/// once by the owning publisher, then exposed by a release store of the
/// new length. Readers pair an acquire length load with `OnceLock::get`,
/// so every visible slot is fully initialized.
#[derive(Debug)]
struct Lane {
    slots: Vec<OnceLock<SharedClause>>,
    len: AtomicUsize,
}

impl Lane {
    fn new() -> Lane {
        let mut slots = Vec::with_capacity(LANE_CAP);
        slots.resize_with(LANE_CAP, OnceLock::new);
        Lane { slots, len: AtomicUsize::new(0) }
    }
}

/// Per-lane read watermarks held by one importer: `marks[lane]` is how
/// many of that lane's clauses the importer has already seen.
#[derive(Clone, Debug, Default)]
pub struct PoolWatermarks {
    marks: Vec<usize>,
}

/// One publisher's view of the pool: the shared pool plus the single
/// lane this publisher is allowed to write. Copy-cheap; a worker builds
/// one at spawn (lane = worker index + 1, the driver owns lane 0).
#[derive(Clone, Copy, Debug)]
pub struct PoolHandle<'a> {
    /// The shared pool.
    pub pool: &'a ClausePool,
    /// Lane this publisher owns. Must be unique per publisher thread —
    /// see [`ClausePool::publish`].
    pub lane: usize,
}

/// The sharded shared-clause pool (see module docs).
#[derive(Debug)]
pub struct ClausePool {
    lanes: Vec<Lane>,
}

impl ClausePool {
    /// Creates a pool with one lane per publisher. For a parallel solve
    /// that is `workers + 1`: lane 0 belongs to the driver (head-start
    /// seed clauses), lanes `1..=N` to the workers.
    pub fn new(publishers: usize) -> ClausePool {
        ClausePool { lanes: (0..publishers.max(1)).map(|_| Lane::new()).collect() }
    }

    /// Number of publisher lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Publishes a batch on the caller's own lane. Returns how many
    /// clauses were accepted (empty clauses and overflow past the lane
    /// cap are dropped). Lock-free: one slot write plus one release
    /// store per accepted clause, and no other publisher is ever
    /// touched. **Each lane must have a single publisher thread**; a
    /// second publisher racing the same lane loses its batch (slot
    /// already set) but cannot corrupt the pool.
    pub fn publish(&self, lane: usize, batch: Vec<SharedClause>) -> u64 {
        // Probe sits before any slot write: an unwinding publisher loses
        // only its own batch — the lane length was never advanced, so
        // importers see a consistent prefix.
        failpoint!("pool.publish");
        let lane = &self.lanes[lane];
        let mut len = lane.len.load(Ordering::Relaxed);
        let mut accepted = 0u64;
        for c in batch {
            if len >= LANE_CAP {
                break;
            }
            if c.lits.is_empty() {
                continue;
            }
            if lane.slots[len].set(c).is_ok() {
                len += 1;
                accepted += 1;
            } else {
                break;
            }
        }
        if accepted > 0 {
            lane.len.store(len, Ordering::Release);
        }
        accepted
    }

    /// Returns every clause published after the caller's watermarks and
    /// advances them — or `None` if the caller is already current. The
    /// up-to-date check is one relaxed length load per lane; no lock is
    /// taken in either case.
    pub fn snapshot_since(&self, seen: &mut PoolWatermarks) -> Option<Vec<SharedClause>> {
        // Probe sits before the watermarks move: an unwinding importer
        // keeps its marks where they were, so a later retry (or a
        // successor worker) re-reads the same clauses instead of
        // skipping them.
        failpoint!("pool.import");
        seen.marks.resize(self.lanes.len(), 0);
        let mut fresh: Vec<SharedClause> = Vec::new();
        for (lane, mark) in self.lanes.iter().zip(seen.marks.iter_mut()) {
            let len = lane.len.load(Ordering::Acquire);
            while *mark < len {
                if let Some(c) = lane.slots[*mark].get() {
                    fresh.push(c.clone());
                }
                *mark += 1;
            }
        }
        if fresh.is_empty() {
            None
        } else {
            Some(fresh)
        }
    }

    /// Total clauses currently pooled, summed over lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len.load(Ordering::Acquire)).sum()
    }

    /// Returns `true` if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    fn sc(lits: Vec<Lit>, upper: Option<i64>) -> SharedClause {
        SharedClause { lits, lbd: 2, upper }
    }

    #[test]
    fn publish_and_snapshot_incrementally_across_lanes() {
        let pool = ClausePool::new(3);
        assert!(pool.is_empty());
        let mut marks = PoolWatermarks::default();
        assert!(pool.snapshot_since(&mut marks).is_none());
        let a = vec![lit(0, true), lit(1, false)];
        let b = vec![lit(2, true)];
        assert_eq!(pool.publish(0, vec![sc(a.clone(), None), sc(b.clone(), Some(5))]), 2);
        assert_eq!(pool.publish(2, vec![sc(vec![lit(3, true)], None)]), 1);
        let batch = pool.snapshot_since(&mut marks).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1].upper, Some(5));
        // Current watermarks: lock-free None.
        assert!(pool.snapshot_since(&mut marks).is_none());
        // A later publish is visible only past the watermarks.
        assert_eq!(pool.publish(1, vec![sc(vec![lit(4, true)], None)]), 1);
        let tail = pool.snapshot_since(&mut marks).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn lane_cap_bounds_growth() {
        let pool = ClausePool::new(2);
        for i in 0..(LANE_CAP + 100) {
            let v = i % 64;
            let tag = i / 64;
            pool.publish(0, vec![sc(vec![lit(v, true), lit(64 + tag, tag % 2 == 0)], None)]);
        }
        assert_eq!(pool.len(), LANE_CAP, "lane 0 capped, lane 1 untouched");
        // The other lane still accepts.
        assert_eq!(pool.publish(1, vec![sc(vec![lit(0, false)], None)]), 1);
        assert_eq!(pool.len(), LANE_CAP + 1);
    }

    #[test]
    fn empty_clauses_rejected() {
        let pool = ClausePool::new(1);
        assert_eq!(pool.publish(0, vec![sc(Vec::new(), None)]), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicate_clauses_keep_distinct_slots_but_share_a_key() {
        // Global dedup moved to the importer: two publishers of the same
        // clause occupy two slots, and the importer's key set collapses
        // them (see `SearchState::sync_share`).
        let pool = ClausePool::new(2);
        pool.publish(0, vec![sc(vec![lit(0, true), lit(1, false)], None)]);
        pool.publish(1, vec![sc(vec![lit(1, false), lit(0, true)], None)]);
        let mut marks = PoolWatermarks::default();
        let all = pool.snapshot_since(&mut marks).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].key(), all[1].key());
    }

    #[test]
    fn concurrent_publish_and_snapshot() {
        let pool = ClausePool::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let pool = &pool;
                s.spawn(move || {
                    let mut marks = PoolWatermarks::default();
                    for i in 0..50usize {
                        pool.publish(t, vec![sc(vec![lit(t * 50 + i, true)], None)]);
                        let _ = pool.snapshot_since(&mut marks);
                    }
                });
            }
        });
        assert_eq!(pool.len(), 200);
        let mut marks = PoolWatermarks::default();
        let all = pool.snapshot_since(&mut marks).unwrap();
        assert_eq!(all.len(), 200);
    }
}
