//! The zero-allocation contract of the eigenfunction solver's block-Jacobi
//! preconditioner: an apply gathers each chunk of interleaved blocks into
//! a fixed stack buffer and allocates nothing, however the blocks are
//! sized — every PCG iteration of every solve runs one.
//!
//! This file holds a single test on purpose: it installs a counting
//! global allocator, and any sibling test running in the same binary
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subsparse_layout::{generators, Contact, Rect};
use subsparse_linalg::LinOp;
use subsparse_substrate::{EigenSolver, EigenSolverConfig, Substrate};

/// Forwards to the system allocator, counting allocations.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn block_jacobi_apply_allocates_nothing() {
    // the benchmark's 4- and 9-panel blocks in full chunks, and one
    // contact split at the cap beside a class of one-panel blocks that
    // ends in a partial chunk
    let mut split = subsparse_layout::Layout::new(32.0, 32.0);
    split.push(Contact::rect(Rect::new(2.0, 20.0, 30.0, 23.0)));
    for j in 0..40 {
        let (x, y) = ((2 * (j % 16)) as f64, (2 * (j / 16)) as f64);
        split.push(Contact::rect(Rect::new(x, y, x + 1.0, y + 1.0)));
    }
    let cases = [(generators::alternating_grid(128.0, 32, 3.0, 1.5), 128), (split, 32)];
    for (layout, panels) in cases {
        let cfg = EigenSolverConfig { panels, ..Default::default() };
        let solver = EigenSolver::new(&Substrate::thesis_standard(), &layout, cfg).unwrap();
        let pre = solver.preconditioner();
        let r: Vec<f64> = (0..pre.dim()).map(|k| (k % 13) as f64 - 6.0).collect();
        let mut z = vec![0.0; pre.dim()];
        pre.apply(&r, &mut z);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..3 {
            pre.apply(&r, &mut z);
        }
        let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(allocs, 0, "P = {panels}: {allocs} allocations in three warm applies");
    }
}
