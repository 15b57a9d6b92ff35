//! Seeded benchmark generators mirroring the four instance families of
//! the DATE'05 evaluation (Table 1).
//!
//! The original benchmark files are no longer retrievable (dead 2005
//! URLs, proprietary conversions), so each family is regenerated
//! synthetically with the same constraint *structure* and
//! constrainedness regime:
//!
//! | Table 1 family | Generator | Character |
//! |---|---|---|
//! | `grout-4-3-*` (global routing) | [`GroutParams`] | one-hot path selection + channel capacities, cost-dominated |
//! | `9symml`, `C432`, ... (PTL/CMOS synthesis) | [`PtlCmosParams`] | binate implication chains, wide cost spread |
//! | `5xp1.b`, `9sym.b`, ... (MCNC two-level) | [`SynthesisParams`] | weighted (binate) covering |
//! | `acc-tight:*` (ACC scheduling) | [`AccSchedParams`] | pure PB satisfaction, tight round-robin rows |
//!
//! [`RandomParams`] adds unstructured instances for tests and
//! throughput benchmarks. All generators are deterministic per seed
//! (ChaCha8-based), so every generated table and benchmark run is
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use pbo_benchgen::GroutParams;
//!
//! let instance = GroutParams::default().generate(42);
//! assert!(instance.is_optimization());
//! assert_eq!(instance, GroutParams::default().generate(42)); // seeded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc_sched;
mod grout;
mod ptl_cmos;
mod random;
mod synthesis;

pub use acc_sched::AccSchedParams;
pub use grout::GroutParams;
pub use ptl_cmos::PtlCmosParams;
pub use random::RandomParams;
pub use synthesis::SynthesisParams;
