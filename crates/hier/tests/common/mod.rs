//! Fixtures shared by the serving-overhead and fault suites: a deep
//! binary Haar transform, a banded `Gw` to serve through it, and the
//! calling thread's CPU clock.

// each suite uses a different subset
#![allow(dead_code)]

use std::ffi::c_long;

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::{BasisRep, FastWaveletTransform};
use subsparse_linalg::{Csr, Triplets};

/// A full binary Haar transform on `n = 2^k` contacts: every level pairs
/// adjacent scaling coefficients into one scaling + one wavelet output,
/// down to a single root scaling coefficient — `log2(n)` levels, the
/// deepest tree the serving path can see at this size.
pub fn binary_haar(n: usize) -> FastWaveletTransform {
    assert!(n.is_power_of_two() && n >= 2);
    let r = 0.5f64.sqrt();
    let mut blocks = Vec::new();
    let mut levels = Vec::new();
    let mut m = n;
    while m >= 2 {
        let half = m / 2;
        let base = blocks.len();
        let nodes = (0..half)
            .map(|s| FwtNode {
                in_offset: 2 * s,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: s,
                col_start: half + s,
                block_offset: base + 4 * s,
            })
            .collect();
        for _ in 0..half {
            blocks.extend_from_slice(&[r, r, r, -r]); // column-major [v | w]
        }
        levels.push(FwtLevel { nodes, coeff_len: half });
        m = half;
    }
    FastWaveletTransform::from_parts(n, 1, levels, (0..n as u32).collect(), blocks)
        .expect("valid binary haar transform")
}

/// A banded `n x n` `Gw`: a diagonal plus two wrapped off-diagonals.
pub fn banded_gw(n: usize) -> Csr {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 + (i % 7) as f64 * 0.1);
        t.push(i, (i + 1) % n, -0.4);
        t.push(i, (i + 17) % n, -0.2);
    }
    t.to_csr()
}

/// The FWT-served model of [`banded_gw`] on [`binary_haar`] (with an
/// identity `Q` as its exchange format).
pub fn example_rep(n: usize) -> BasisRep {
    BasisRep::with_fwt(Csr::identity(n), banded_gw(n), binary_haar(n))
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run so far.
///
/// A ratio timed on this clock keeps hypervisor steal out: on a shared
/// virtual machine the hypervisor can take the CPU away for milliseconds,
/// and the kernel's steal accounting keeps that time out of a thread's
/// CPU clock, so it cannot land on one side of the ratio.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The median of a set of ratios (sorted in place).
pub fn median(ratios: &mut [f64]) -> f64 {
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}
