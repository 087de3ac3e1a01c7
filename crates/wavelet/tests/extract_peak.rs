//! The extraction's peak heap follows the model it returns. A counting
//! global allocator tracks the live heap while `build_basis` plus
//! `extract` run on a regular and an irregular 1024-site layout, and the
//! high-water mark above the heap live at the start must stay within
//! [`PEAK_OVER_MODEL`] times the bytes of the final `Gw` and `Q` CSR
//! arrays (12 B per stored entry, 8 B per row pointer).
//!
//! The bound leaves room for the basis (its column ranges, and the `Q`
//! and transform it shares with the model), the assembler's pattern with
//! its per-slot estimates and presence bits, the output indices `finish`
//! writes, and one block of solves: the ratio reads 1.08x and 1.09x.
//! Copying `Q` into the model, or keeping per-row column indices and
//! one-byte estimate counts beside the estimates, read 1.43x and 1.49x;
//! a transpose that goes through a sorted triplet copy of `Q` read 1.99x
//! on the regular layout.
//!
//! This file holds a single test on purpose: it installs a global
//! allocator, and any sibling test in the same binary would race the
//! high-water tracking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subsparse_layout::generators;
use subsparse_linalg::Csr;
use subsparse_substrate::solver;
use subsparse_wavelet::{build_basis, extract, ExtractOptions};

/// Peak live heap of an extraction over its final CSR bytes.
const PEAK_OVER_MODEL: f64 = 1.21;

/// Forwards to the system allocator, tracking live bytes and their
/// high-water mark.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only touches
// atomics and never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` meets `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and every block here came from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Bytes of a CSR matrix's three arrays.
fn csr_bytes(m: &Csr) -> usize {
    12 * m.nnz() + 8 * (m.n_rows() + 1)
}

#[test]
fn extraction_peak_heap_stays_within_its_final_model() {
    let layouts = [
        ("regular_grid(128, 32, 2)", generators::regular_grid(128.0, 32, 2.0)),
        ("irregular_same_size(128, 32, 1, 5)", generators::irregular_same_size(128.0, 32, 1.0, 5)),
    ];
    for (name, layout) in layouts {
        let black_box = solver::kernel(&layout);
        let live0 = LIVE.load(Ordering::SeqCst);
        PEAK.store(live0, Ordering::SeqCst);
        let basis = build_basis(&layout, 3, 2).expect("basis");
        let rep = extract(&black_box, &basis, &ExtractOptions::default());
        let peak = PEAK.load(Ordering::SeqCst) - live0;
        let model = csr_bytes(&rep.gw) + csr_bytes(&rep.q);
        let ratio = peak as f64 / model as f64;
        println!("{name}: n = {}, peak {peak} B, model {model} B, ratio {ratio:.3}", rep.n());
        assert!(
            ratio <= PEAK_OVER_MODEL,
            "{name}: the extraction's live heap peaked at {peak} B, {ratio:.2}x its final \
             Gw + Q CSR bytes ({model} B); the bound is {PEAK_OVER_MODEL}x"
        );
    }
}
