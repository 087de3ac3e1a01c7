//! The zero-allocation contract of the lane-batched 2-D DCT: once a
//! [`Dct2dScratch`] has grown to the grid, `dct2d_with` allocates nothing
//! in either direction — the eigenfunction solver runs two of these per
//! CG iteration on a per-worker scratch.
//!
//! This file holds a single test on purpose: it installs a counting
//! global allocator, and any sibling test running in the same binary
//! would pollute the count. The count is per thread: `dct2d_with` runs
//! on its caller's thread, while the test harness's own thread may
//! allocate at any moment (it did, four times, in about one run in ten).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subsparse_linalg::dct::{dct2d_with, Dct, Dct2dScratch};

/// Forwards to the system allocator, counting each thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn dct2d_with_allocates_nothing_once_warm() {
    // square (the eigen solver's grid) and rectangular (an FD plane)
    for (nx, ny) in [(128usize, 128usize), (64, 16)] {
        let (px, py) = (Dct::new(nx), Dct::new(ny));
        let mut grid: Vec<f64> =
            (0..nx * ny).map(|i| ((i * 13 % 29) as f64 - 14.0) * 0.1).collect();
        let mut sc = Dct2dScratch::default();
        dct2d_with(&px, &py, &mut grid, nx, ny, true, &mut sc);
        let before = allocations();
        for _ in 0..3 {
            dct2d_with(&px, &py, &mut grid, nx, ny, true, &mut sc);
            dct2d_with(&px, &py, &mut grid, nx, ny, false, &mut sc);
        }
        let allocs = allocations() - before;
        assert_eq!(allocs, 0, "{nx}x{ny}: {allocs} allocations with a warm scratch");
    }
}
