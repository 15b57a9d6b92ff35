//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between a solve
//! and its caller (and between the solve's own threads). It latches
//! two independent stop conditions into one flag:
//!
//! * an **external cancel** ([`CancelToken::cancel`]) — the service
//!   caller pulling the plug;
//! * a **deadline** ([`CancelToken::set_deadline`]) — checked lazily by
//!   [`CancelToken::is_cancelled`], so inner loops that poll the token
//!   enforce wall-clock limits *inside* a node, not just between nodes.
//!
//! Once either condition trips, the flag stays set: every poll site sees
//! the same answer and the solve tears down in bounded time with its
//! best verified incumbent intact.
//!
//! A [`CancelToken::child`] adds a third: its parent tripping. A child
//! can be cancelled on its own — one speculative branch-and-bound of
//! the portfolio, say — while the caller's cancel and deadline still
//! reach it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared cancellation handle (see the [module docs](self)).
///
/// Clones share one underlying state. The raw latch is exposed as an
/// `Arc<AtomicBool>` ([`CancelToken::flag`]) so dependency-free layers
/// (the LP simplex) can poll it without knowing this type.
///
/// # Examples
///
/// ```
/// use pbo_core::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    /// The latch itself, handed out raw to dependency-free pollers.
    flag: Arc<AtomicBool>,
    deadline: Arc<Mutex<Option<Instant>>>,
    /// The token this one was made from ([`CancelToken::child`]).
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, untripped token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token with a latch of its own under this one: its own
    /// [`cancel`](CancelToken::cancel) trips it and leaves this token
    /// alone, while this token's cancel or deadline trips it at its next
    /// [`is_cancelled`](CancelToken::is_cancelled) poll, which latches
    /// the child's raw [`flag`](CancelToken::flag) too.
    pub fn child(&self) -> CancelToken {
        CancelToken { parent: Some(Arc::new(self.clone())), ..CancelToken::default() }
    }

    /// Trips the token immediately (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Arms (or replaces) the wall-clock deadline.
    pub fn set_deadline(&self, deadline: Instant) {
        *lock(&self.deadline) = Some(deadline);
    }

    /// Convenience: a deadline `limit` from now.
    pub fn deadline_in(&self, limit: Duration) {
        self.set_deadline(Instant::now() + limit);
    }

    /// The armed deadline, if any — pollers that keep their own clock
    /// (the LP simplex) read it once per solve instead of per check. A
    /// child reports the earlier of its own and its parent's.
    pub fn deadline(&self) -> Option<Instant> {
        let own = *lock(&self.deadline);
        match self.parent.as_ref().and_then(|p| p.deadline()) {
            Some(inherited) => Some(own.map_or(inherited, |d| d.min(inherited))),
            None => own,
        }
    }

    /// Whether the token has tripped. Latches an expired deadline, or a
    /// tripped parent, as a side effect, so one poller's observation is
    /// every poller's.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        if lock(&self.deadline).is_some_and(|d| Instant::now() >= d)
            || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
        {
            self.cancel();
            return true;
        }
        false
    }

    /// The raw latch, for dependency-free layers that poll an
    /// `AtomicBool` instead of this type. A deadline trip surfaces here
    /// too (once some poller latched it).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Poison-tolerant lock: the guarded value is a plain `Option<Instant>`
/// that is never left half-written, so recovering it after a panicking
/// thread held the lock is sound.
fn lock(m: &Mutex<Option<Instant>>) -> std::sync::MutexGuard<'_, Option<Instant>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_latches_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        assert!(c.flag().load(Ordering::Acquire));
    }

    #[test]
    fn expired_deadline_trips_and_latches() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        // Latched into the raw flag for dependency-free pollers.
        assert!(t.flag().load(Ordering::Acquire));
    }

    #[test]
    fn parent_cancel_and_deadline_reach_the_child() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        assert_eq!(child.deadline(), None);
        parent.cancel();
        assert!(!child.flag().load(Ordering::Acquire), "the raw flag latches at a poll");
        assert!(child.is_cancelled());
        assert!(child.flag().load(Ordering::Acquire), "latched after the poll");

        let parent = CancelToken::new();
        let child = parent.child();
        let expired = Instant::now() - Duration::from_millis(1);
        parent.set_deadline(expired);
        assert_eq!(child.deadline(), Some(expired), "the parent's deadline is reported");
        child.deadline_in(Duration::from_secs(3600));
        assert_eq!(child.deadline(), Some(expired), "the earlier deadline wins");
        assert!(child.is_cancelled());
    }

    #[test]
    fn child_cancel_leaves_the_parent_alone() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "a cancel reaches every descendant");
        assert!(!parent.is_cancelled());
        assert!(!parent.flag().load(Ordering::Acquire));
        // A child's own deadline is its own too.
        let child = parent.child();
        child.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        assert_eq!(parent.deadline(), None);
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::new();
        t.deadline_in(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
    }
}
