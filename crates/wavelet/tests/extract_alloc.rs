//! The memory-lean extraction contract: the large-`n` wavelet pipeline
//! (matrix-free kernel black box, combine-solves extraction with
//! pattern-first `Gw` assembly) never allocates an `n x n` dense buffer.
//!
//! Enforced with a counting global allocator that records the *largest
//! single allocation* of each pipeline stage at `n = 1024` (the smallest
//! scaling-sweep point), where a dense `n x n` `f64` matrix is 8 MiB in
//! one request:
//!
//! * the kernel black box solves in `O(n x batch)` buffers — its biggest
//!   allocation is bounded by a fraction of a dense *column block*;
//! * the combine-solves extraction assembles `Gw` pattern-first: its
//!   biggest allocations are the pattern's value array and the final
//!   `Gw` built in place from it, so the largest single request is
//!   bounded by the *final* `Gw` (`2 x 8 B x nnz(Gw)`, room for slots
//!   that finish drops) plus an `O(n x BATCH)` solve block. A hash
//!   map, a triplet copy or any dense `n x n` buffer breaks the bound;
//! * the basis construction writes `Q`'s CSR arrays directly: its biggest
//!   allocation is no larger than `Q`'s largest array, where a triplet
//!   list of `Q`'s entries (16 B each) would be twice its value array.
//!
//! This file holds a single test on purpose: it installs a global
//! allocator, and any sibling test in the same binary would race the
//! high-water tracking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subsparse_layout::generators;
use subsparse_linalg::Mat;
use subsparse_substrate::{solver, CountingSolver, SubstrateSolver};
use subsparse_wavelet::{build_basis, extract, ExtractOptions};

/// Forwards to the system allocator, tracking the largest single request.
struct MaxAlloc;

static MAX_SINGLE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MAX_SINGLE.fetch_max(layout.size(), Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        MAX_SINGLE.fetch_max(new_size, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: MaxAlloc = MaxAlloc;

/// Largest single allocation made while `f` runs.
fn max_single_allocation_during(f: impl FnOnce()) -> usize {
    MAX_SINGLE.store(0, Ordering::SeqCst);
    f();
    MAX_SINGLE.load(Ordering::SeqCst)
}

#[test]
fn wavelet_extraction_never_allocates_a_dense_n_by_n_buffer() {
    let layout = generators::regular_grid(128.0, 32, 2.0);
    let n = layout.n_contacts();
    assert_eq!(n, 1024);
    let dense_bytes = n * n * std::mem::size_of::<f64>();

    // the matrix-free black box: construction is O(n), a 32-wide batch
    // solve is O(n x 32) — nowhere near a dense column span of G
    let kernel = solver::kernel(&layout);
    let v = Mat::from_fn(n, 32, |i, j| ((i * 7 + j * 3) as f64 * 0.19).sin());
    let max_single = max_single_allocation_during(|| {
        let y = kernel.solve_batch(&v);
        assert_eq!(y.n_cols(), 32);
    });
    assert!(
        max_single < dense_bytes / 16,
        "kernel solve_batch made a {max_single}-byte allocation (dense n x n is {dense_bytes})"
    );

    let black_box = CountingSolver::new(kernel);
    let mut basis = None;
    let max_single = max_single_allocation_during(|| {
        basis = Some(build_basis(&layout, 3, 2).expect("basis"));
    });
    let basis = basis.expect("the basis was built");
    let q = basis.q();
    let q_bytes =
        (q.nnz() * std::mem::size_of::<f64>()).max((n + 1) * std::mem::size_of::<usize>());
    assert!(
        max_single <= q_bytes,
        "build_basis made a {max_single}-byte allocation, above the {q_bytes} bytes of Q's \
         largest CSR array (nnz(Q) = {}); Q is no longer written directly",
        q.nnz()
    );

    // the combine-solves extraction: nothing bigger than the final Gw's
    // values (with slack for dropped slots) or one block of solves
    let options = ExtractOptions::default();
    let before = black_box.count();
    let mut gw_nnz = 0;
    let max_single = max_single_allocation_during(|| {
        gw_nnz = extract(&black_box, &basis, &options).gw.nnz();
    });
    assert!(gw_nnz > 0);
    let bound =
        2 * std::mem::size_of::<f64>() * gw_nnz + n * solver::BATCH * std::mem::size_of::<f64>();
    assert!(
        max_single <= bound,
        "extract made a {max_single}-byte allocation, above the {bound}-byte bound set by \
         nnz(Gw) = {gw_nnz}; the assembly is no longer pattern-first"
    );
    let solves = black_box.count() - before;
    assert!(solves < n, "combine-solves spent {solves} solves at n = {n}");
}
