//! Heap allocations of OPB ingest.
//!
//! `parse_opb` borrows its tokens from the text, keeps the raw terms of
//! every statement in one flat buffer, and normalizes every row through
//! one reused sort-and-merge scratch, so what it allocates per row is
//! essentially the normalized row's own term vector; the shared buffers
//! only grow. This test installs a counting global allocator, parses a
//! generated document of 4,800 statements and asserts at most 4
//! allocations per normalized row. A reader that allocates per token or
//! builds a map per row makes several times that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use pbo_core::parse_opb;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The pbo-core crate itself forbids unsafe code; this integration test
// is a separate crate, and a counting allocator is the only way to
// observe heap traffic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation budget per normalized row.
const MAX_ALLOCS_PER_ROW: f64 = 4.0;

/// A scheduling-shaped document over 2,000 variables: mostly 3-literal
/// clauses and 15-literal cardinality rows, as `write_opb` prints them,
/// plus `<=` and `=` rows with mixed-sign coefficients and repeated
/// literals, an objective and comment lines.
fn document(statements: usize) -> String {
    const VARS: usize = 2_000;
    let mut rng = ChaCha8Rng::seed_from_u64(0xacc);
    let mut text = format!("* #variable= {VARS} #constraint= {statements}\n");
    text.push_str("min:");
    for v in 1..=VARS / 4 {
        let _ = write!(text, " +{} x{v}", rng.gen_range(1..10i64));
    }
    text.push_str(" ;\n");
    for row in 0..statements {
        if row % 500 == 0 {
            let _ = writeln!(text, "* block {}", row / 500);
        }
        let (len, op, rhs) = match row % 8 {
            0..=4 => (3, ">=", 1),
            5 => (15, ">=", 14),
            6 => (8, "<=", 1),
            _ => (6, "=", 2),
        };
        for _ in 0..len {
            let coeff = if op == ">=" { 1 } else { rng.gen_range(-3..=3i64) };
            let neg = if rng.gen_bool(0.5) { "~" } else { "" };
            let _ = write!(text, "{coeff:+} {neg}x{} ", rng.gen_range(1..=VARS));
        }
        let _ = writeln!(text, "{op} {rhs} ;");
    }
    text
}

#[test]
fn parse_allocates_at_most_four_times_per_row() {
    let text = document(4_800);
    let before = ALLOCS.load(Ordering::Relaxed);
    let instance = parse_opb(&text).expect("generated document is well-formed");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let rows = instance.num_constraints();
    assert!(rows >= 4_000, "only {rows} normalized rows");
    let per_row = allocs as f64 / rows as f64;
    println!("{allocs} allocations for {rows} normalized rows ({per_row:.2} per row)");
    assert!(
        per_row <= MAX_ALLOCS_PER_ROW,
        "{allocs} allocations for {rows} rows: {per_row:.2} per row, budget {MAX_ALLOCS_PER_ROW}"
    );
}
