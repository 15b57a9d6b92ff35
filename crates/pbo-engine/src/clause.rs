//! Clause storage: a slotted arena with stable ids, activities and lazy
//! deletion, holding both problem clauses and learned (bound-)conflict
//! clauses.

use pbo_core::Lit;

/// Stable identifier of a clause in the [`ClauseDb`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClauseId(pub(crate) u32);

impl ClauseId {
    /// Raw index value (for diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A clause: a disjunction of literals. The first two literals are the
/// watched ones.
#[derive(Clone, Debug)]
pub struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    /// Literal block distance at learn time (number of distinct decision
    /// levels among the clause's literals); 0 for problem clauses.
    lbd: u32,
}

impl Clause {
    /// The literals; `lits()[0]` and `lits()[1]` are watched.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Mutable access for watch maintenance (crate-internal).
    #[inline]
    pub(crate) fn lits_mut(&mut self) -> &mut [Lit] {
        &mut self.lits
    }

    /// Whether this clause was learned during search.
    #[inline]
    pub fn is_learnt(&self) -> bool {
        self.learnt
    }

    /// Activity used by the learned-clause reduction policy.
    #[inline]
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Literal block distance recorded when the clause was learned — the
    /// Glucose-style quality measure (lower is better); 0 for problem
    /// clauses.
    #[inline]
    pub fn lbd(&self) -> u32 {
        self.lbd
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause has no literals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

/// Arena of clauses with stable ids and a free list.
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    slots: Vec<Option<Clause>>,
    free: Vec<u32>,
    num_learnt: usize,
    activity_inc: f64,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> ClauseDb {
        ClauseDb { slots: Vec::new(), free: Vec::new(), num_learnt: 0, activity_inc: 1.0 }
    }

    /// Inserts a clause, returning its stable id.
    pub fn insert(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseId {
        if learnt {
            self.num_learnt += 1;
        }
        let clause = Clause { lits, learnt, activity: 0.0, lbd: 0 };
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(clause);
            ClauseId(slot)
        } else {
            self.slots.push(Some(clause));
            ClauseId((self.slots.len() - 1) as u32)
        }
    }

    /// Records the LBD of a (just-learned) clause.
    pub fn set_lbd(&mut self, id: ClauseId, lbd: u32) {
        self.get_mut(id).lbd = lbd;
    }

    /// Removes a clause (its id may be reused later).
    pub fn remove(&mut self, id: ClauseId) {
        if let Some(c) = self.slots[id.0 as usize].take() {
            if c.learnt {
                self.num_learnt -= 1;
            }
            self.free.push(id.0);
        }
    }

    /// Borrows a clause.
    ///
    /// # Panics
    ///
    /// Panics if the id was removed.
    #[inline]
    pub fn get(&self, id: ClauseId) -> &Clause {
        self.slots[id.0 as usize].as_ref().expect("clause was removed")
    }

    /// Mutably borrows a clause.
    ///
    /// # Panics
    ///
    /// Panics if the id was removed.
    #[inline]
    pub fn get_mut(&mut self, id: ClauseId) -> &mut Clause {
        self.slots[id.0 as usize].as_mut().expect("clause was removed")
    }

    /// Returns `true` if the id refers to a live clause.
    pub fn is_live(&self, id: ClauseId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(|s| s.is_some())
    }

    /// Number of live clauses.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if the database holds no live clause.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live learned clauses.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Iterates over `(id, clause)` pairs of live clauses.
    pub fn iter(&self) -> impl Iterator<Item = (ClauseId, &Clause)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| (ClauseId(i as u32), c)))
    }

    /// Bumps a clause's activity (for the reduction policy).
    pub fn bump_activity(&mut self, id: ClauseId) {
        let inc = self.activity_inc;
        let c = self.get_mut(id);
        c.activity += inc;
        if c.activity > 1e20 {
            for slot in self.slots.iter_mut().flatten() {
                slot.activity *= 1e-20;
            }
            self.activity_inc *= 1e-20;
        }
    }

    /// Decays all clause activities (O(1)).
    pub fn decay_activity(&mut self) {
        self.activity_inc /= 0.999;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::new(i, pos)
    }

    #[test]
    fn insert_get_remove() {
        let mut db = ClauseDb::new();
        let a = db.insert(vec![lit(0, true), lit(1, false)], false);
        let b = db.insert(vec![lit(2, true)], true);
        assert_eq!(db.len(), 2);
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.get(a).len(), 2);
        assert!(db.get(b).is_learnt());
        db.remove(b);
        assert_eq!(db.len(), 1);
        assert_eq!(db.num_learnt(), 0);
        assert!(!db.is_live(b));
    }

    #[test]
    fn slot_reuse_keeps_ids_distinct_over_time() {
        let mut db = ClauseDb::new();
        let a = db.insert(vec![lit(0, true)], false);
        db.remove(a);
        let b = db.insert(vec![lit(1, true)], false);
        // Slot is reused but the clause is the new one.
        assert_eq!(db.get(b).lits(), &[lit(1, true)]);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn iter_skips_removed() {
        let mut db = ClauseDb::new();
        let a = db.insert(vec![lit(0, true)], false);
        let _b = db.insert(vec![lit(1, true)], false);
        db.remove(a);
        let ids: Vec<ClauseId> = db.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let a = db.insert(vec![lit(0, true)], true);
        for _ in 0..50 {
            db.decay_activity();
        }
        db.bump_activity(a);
        assert!(db.get(a).activity() > 0.0);
    }
}
