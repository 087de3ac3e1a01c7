//! A size line cannot make the loader allocate what the file does not
//! hold. A digest-consistent factor whose size line claims
//! `4000000000 x 4000000000` fits the `u32` index range, yet converting
//! it to CSR would allocate 32 GB of row pointers, and a failed
//! allocation aborts the process instead of returning a
//! [`ModelLoadError`]. The loader checks each factor's stated shape
//! against the entries it holds before converting.
//!
//! This binary's allocator returns null for any request above 64 MB, so
//! a loader that trusts the size line again aborts this test binary at
//! once, without touching memory. The file holds a single test on
//! purpose: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;

use subsparse_hier::rep::ModelLoadError;
use subsparse_hier::BasisRep;
use subsparse_linalg::io::fnv1a64;
use subsparse_linalg::{Csr, Triplets};

/// Refuses every request above [`CAP`] bytes; forwards the rest to the
/// system allocator.
struct Capped;

const CAP: usize = 64 << 20;

// SAFETY: every request either returns null, which `GlobalAlloc` allows
// for an allocation that cannot be satisfied, or is forwarded unchanged
// to `System`, which upholds the contract.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller guarantees `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block handed out came from `System` with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Capped = Capped;

/// A 16-contact model on the explicit-CSR path: identity `Q`, a
/// tridiagonal-plus-corner `Gw`.
fn example_rep() -> BasisRep {
    let n = 16;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 + (i % 5) as f64 * 0.25);
        t.push(i, (i + 1) % n, -0.3);
    }
    BasisRep::new(Csr::identity(n), t.to_csr())
}

/// Rewrites the size line of a Matrix Market factor to `size`,
/// re-stamping the digest (which covers every line but its own) so the
/// claim reaches the parser.
fn restamp_size_line(path: &Path, size: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<&str> =
        text.split('\n').filter(|l| !l.contains("subsparse digest fnv1a64")).collect();
    let size_line = lines.iter().position(|l| !l.starts_with('%')).unwrap();
    lines[size_line] = size;
    let edited = lines.join("\n");
    let (banner, rest) = edited.split_once('\n').unwrap();
    let digest = fnv1a64(edited.as_bytes());
    std::fs::write(path, format!("{banner}\n% subsparse digest fnv1a64 {digest:016x}\n{rest}"))
        .unwrap();
}

#[test]
fn restamped_size_lines_beyond_the_entries_are_typed_errors() {
    let dir = std::env::temp_dir().join("subsparse_size_lines");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("model");
    let rep = example_rep();
    let (q_nnz, gw_nnz) = (rep.q.nnz(), rep.gw.nnz());
    let huge = 4_000_000_000u64;
    let cases = [
        (".q.mtx", format!("{huge} {huge} {q_nnz}")),
        (".q.mtx", format!("{huge} 16 {q_nnz}")),
        (".q.mtx", format!("16 {huge} {q_nnz}")),
        (".gw.mtx", format!("{huge} {huge} {gw_nnz}")),
        (".gw.mtx", format!("16 {huge} {gw_nnz}")),
        (".gw.mtx", format!("{huge} 16 {gw_nnz}")),
    ];
    for (suffix, size) in &cases {
        rep.save(&stem).unwrap();
        restamp_size_line(&dir.join(format!("model{suffix}")), size);
        let scenario = format!("{suffix} size line {size:?}, digest re-stamped");
        match BasisRep::load(&stem) {
            Err(ModelLoadError::Malformed { file, detail }) => {
                assert!(file.ends_with(suffix), "{scenario}: names {file}");
                assert!(detail.contains("entries"), "{scenario}: {detail}");
            }
            Err(ModelLoadError::Structure { detail }) => {
                assert_eq!(*suffix, ".gw.mtx", "{scenario}: {detail}");
                assert!(detail.contains("inconsistent factor shapes"), "{scenario}: {detail}");
            }
            other => panic!("{scenario}: expected a typed error, got {other:?}"),
        }
    }
    rep.save(&stem).unwrap();
    let back = BasisRep::load(&stem).expect("the pristine model loads");
    assert_eq!((back.q.nnz(), back.gw.nnz()), (q_nnz, gw_nnz));
    for suffix in [".q.mtx", ".gw.mtx"] {
        std::fs::remove_file(dir.join(format!("model{suffix}"))).ok();
    }
}
