//! The dual simplex's memory follows its structural kernel, not `m^2`.
//!
//! A tall LP — 300 columns, 4,000 rows — has at most 300 basic
//! structurals, so the kernel inverse is at most `300 x 300`. This test
//! counts the bytes the test thread asks the allocator for while it
//! builds a solver and runs a root solve plus a few warm re-solves, and
//! bounds them by `O(nnz + n + m + n^2)`. A dense `m x m` basis inverse
//! alone would be 128 MB here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pbo_lp::{DualSimplex, LpProblem, LpStatus};
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    /// Bytes requested by this thread (allocations plus the new size of
    /// every reallocation), so the harness's other threads do not count.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

// The pbo-lp crate itself forbids unsafe code; this integration test is
// a separate crate, and a counting allocator is the only way to observe
// heap traffic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn tall_lp_allocates_for_the_kernel_not_the_rows_squared() {
    let (n, m) = (300, 4_000);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7a11);
    let mut p = LpProblem::new(n);
    for j in 0..n {
        p.set_cost(j, rng.gen_range(1..10) as f64);
    }
    // Every tenth row is a cover the solve must satisfy; the others
    // hold at any point of the box (non-negative terms, rhs -1), so
    // their logicals stay basic, as most of a relaxation's rows do.
    let mut nnz = 0;
    for i in 0..m {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        while terms.len() < 3 {
            let j = rng.gen_range(0..n);
            if terms.iter().all(|&(jj, _)| jj != j) {
                terms.push((j, rng.gen_range(1..3) as f64));
            }
        }
        nnz += terms.len();
        p.add_row_ge(&terms, if i % 10 == 0 { 1.0 } else { -1.0 });
    }

    let before = bytes();
    let mut lp = DualSimplex::new(&p);
    let root = lp.solve();
    assert_eq!(root.status, LpStatus::Optimal);
    let mut warm = 0;
    for j in 0..8 {
        lp.set_var_bounds(j * 37 % n, 1.0, 1.0);
        if lp.solve().status == LpStatus::Optimal {
            warm += 1;
        }
    }
    let used = bytes() - before;
    assert_eq!(warm, 8, "fixing variables to 1 keeps a covering LP feasible");
    assert!(lp.total_iterations > 100, "the solves must pivot the kernel up");
    // The kernel inverse and its refactorization scratch grow by
    // doubling up to k <= n, about 16 n^2 bytes each counted over every
    // growth step; the sparse rows and columns, the per-row and
    // per-column state and each `solve()` result copy are O(nnz + n + m).
    let budget = (256 * (nnz + n + m) + 48 * n * n) as u64;
    assert!(
        used <= budget,
        "solver allocated {used} bytes on a {n} x {m} LP with {nnz} nonzeros (budget {budget})"
    );
}
