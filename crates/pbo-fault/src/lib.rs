//! Fault-injection probes for the pbo workspace.
//!
//! The crate provides one macro, [`failpoint!`], which marks a *site* in
//! production code where a test may inject a fault (today: a panic).
//! The expansion is gated on the **consuming crate's** `failpoints`
//! feature — each crate that plants probes declares its own
//! `failpoints` feature forwarding to `pbo-fault/failpoints` — so with
//! the feature off (the default, and all release builds) every probe
//! expands to an empty block: no branch, no atomic load, no code.
//!
//! With the feature on, a probe is a single relaxed atomic load until a
//! `FaultPlan` is installed; tests install one with `install`, which
//! also serializes fault-injecting tests process-wide (the plan is
//! global state). Both exist only with the `failpoints` feature.
//!
//! That serialization covers only the tests that hold a plan. A test
//! that merely crosses a probe site, running concurrently with one that
//! armed it, can take the other test's fault and fail for no reason of
//! its own. Run probe-compiled test binaries single-threaded:
//!
//! ```text
//! cargo test --features failpoints -p pbo-solver -p pbo-ls -p pbo-fault -- --test-threads=1
//! ```
//!
//! # Examples
//!
//! Production code plants a probe:
//!
//! ```
//! use pbo_fault::failpoint;
//!
//! fn push_cubes() {
//!     failpoint!("sched.push");
//!     // ... the real work ...
//! }
//! # push_cubes();
//! ```
//!
//! A test (built with `--features failpoints`) injects a panic at the
//! second hit of that site:
//!
//! ```
//! # #[cfg(feature = "failpoints")] {
//! use pbo_fault::{install, FaultPlan};
//!
//! let guard = install(FaultPlan::new().panic_on("sched.push", 2));
//! pbo_fault::fire("sched.push"); // first hit: passes
//! let err = std::panic::catch_unwind(|| pbo_fault::fire("sched.push"));
//! assert!(err.is_err()); // second hit: panics
//! assert_eq!(guard.hits("sched.push"), 2);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Plants a fault-injection probe at a named site.
///
/// Expands to an empty block unless the *consuming* crate's
/// `failpoints` feature is enabled (the consumer must declare such a
/// feature, typically forwarding to `pbo-fault/failpoints`). Site names
/// are dotted paths by convention (`"sched.push"`, `"cell.offer"`).
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {{
        #[cfg(feature = "failpoints")]
        $crate::fire($site);
    }};
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Fast-path gate: probes are a single relaxed load until a plan is
    /// installed.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(State::default()))
    }

    /// Serializes fault-injecting tests: the plan is process-global, so
    /// two concurrent tests would otherwise trip each other's faults.
    fn serial() -> &'static Mutex<()> {
        static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
        SERIAL.get_or_init(|| Mutex::new(()))
    }

    /// Recovers from a poisoned lock: the guarded state is always left
    /// fully written (we never panic mid-update while holding it), and
    /// fault-injection tests poison locks by design.
    fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[derive(Default)]
    struct State {
        triggers: Vec<Trigger>,
        hits: HashMap<&'static str, u64>,
    }

    struct Trigger {
        site: &'static str,
        nth: u64,
        fired: bool,
    }

    /// A schedule of faults to inject: which site panics at which hit.
    ///
    /// Triggers are *one-shot*: after firing, a trigger disarms, so a
    /// worker dying at a probe does not take every sibling that later
    /// crosses the same site with it — exactly the N−1-survivors
    /// scenario the harness exists to exercise.
    #[derive(Default, Debug)]
    pub struct FaultPlan {
        triggers: Vec<(&'static str, u64)>,
    }

    impl FaultPlan {
        /// An empty plan (no faults fire; probes still count hits).
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Panics at the `nth` (1-based) hit of `site`.
        pub fn panic_on(mut self, site: &'static str, nth: u64) -> FaultPlan {
            self.triggers.push((site, nth.max(1)));
            self
        }
    }

    /// Keeps the installed [`FaultPlan`] alive; uninstalls (and resets
    /// hit counters) on drop. Holds the process-wide serialization lock
    /// for its lifetime.
    pub struct FaultGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl FaultGuard {
        /// Hits recorded at `site` since this plan was installed.
        pub fn hits(&self, site: &str) -> u64 {
            relock(state()).hits.get(site).copied().unwrap_or(0)
        }

        /// Whether every trigger of the plan has fired.
        pub fn all_fired(&self) -> bool {
            relock(state()).triggers.iter().all(|t| t.fired)
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
            let mut s = relock(state());
            s.triggers.clear();
            s.hits.clear();
        }
    }

    /// Installs `plan` globally and returns the guard that owns it.
    /// Blocks until any previously installed plan is dropped.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let serial = serial().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut s = relock(state());
            s.triggers = plan
                .triggers
                .into_iter()
                .map(|(site, nth)| Trigger { site, nth, fired: false })
                .collect();
            s.hits.clear();
        }
        ACTIVE.store(true, Ordering::SeqCst);
        FaultGuard { _serial: serial }
    }

    /// Probe entry point — called by [`failpoint!`](crate::failpoint);
    /// not meant to be called directly. Panics (with a
    /// `"failpoint: <site>"` message) when an armed trigger matches.
    pub fn fire(site: &'static str) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let fired = {
            let mut s = relock(state());
            let n = s.hits.entry(site).or_insert(0);
            *n += 1;
            let n = *n;
            match s.triggers.iter_mut().find(|t| !t.fired && t.site == site && t.nth == n) {
                Some(t) => {
                    t.fired = true;
                    true
                }
                None => false,
            }
        };
        // The state lock is released before unwinding so the counters
        // stay readable (and un-poisoned) after the injected panic.
        if fired {
            panic!("failpoint: {site}");
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{fire, install, FaultGuard, FaultPlan};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::{install, FaultPlan};

    #[test]
    fn probes_count_and_fire_once() {
        let guard = install(FaultPlan::new().panic_on("t.site", 3));
        super::fire("t.site");
        super::fire("t.site");
        assert!(std::panic::catch_unwind(|| super::fire("t.site")).is_err());
        // One-shot: the fourth hit passes.
        super::fire("t.site");
        assert_eq!(guard.hits("t.site"), 4);
        assert!(guard.all_fired());
    }

    #[test]
    fn inactive_probes_are_silent() {
        {
            let _g = install(FaultPlan::new().panic_on("t.other", 1));
        }
        // Guard dropped: nothing fires.
        super::fire("t.other");
    }
}
