//! The disabled-recorder overhead contract: with tracing off, the
//! instrumented fast-wavelet-transform serving path must cost within 2%
//! of the same arithmetic with no instrumentation at all.
//!
//! The instrumented side is `BasisRep::apply_into` on the FWT path (one
//! disabled histogram probe per call plus the workspace plumbing); the
//! control hand-inlines the identical forward / Gw / inverse sequence on
//! raw preallocated buffers. Both sides are timed interleaved, in short
//! alternating runs within each batch, and the statistic is the median of
//! the per-batch ratios: a batch that one slow stretch of the machine
//! inflates moves one ratio, not the median. The clock is the calling
//! thread's CPU time (`CLOCK_THREAD_CPUTIME_ID`), not wall-clock: on a
//! shared virtual machine the hypervisor can take the CPU away for
//! milliseconds ("steal"), and the kernel's steal accounting keeps that
//! time out of a thread's CPU clock, so it cannot land on one side of the
//! ratio.

mod common;

use std::hint::black_box;

use common::{banded_gw, binary_haar, median, thread_cpu_s};
use subsparse_hier::BasisRep;
use subsparse_linalg::{trace, ApplyWorkspace, CouplingOp, Csr};

#[test]
fn disabled_recorder_overhead_under_two_percent() {
    assert!(!trace::enabled(), "trace recorder must ship disabled");
    let n = 1024;
    let fwt = binary_haar(n);
    let gw = banded_gw(n);
    let rep = BasisRep::with_fwt(Csr::identity(n), gw.clone(), fwt.clone());
    assert_eq!(rep.kind(), "basis-rep-fwt");

    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut ws = ApplyWorkspace::new();
    rep.apply_into(&x, &mut y, &mut ws); // warm the workspace once

    // the uninstrumented control's buffers, shaped exactly like the
    // workspace the instrumented path reuses
    let scratch = fwt.scratch_len();
    let mut coeffs = vec![0.0; n];
    let mut cur = vec![0.0; scratch];
    let mut nxt = vec![0.0; scratch];
    let mut mid = vec![0.0; n];
    let mut yc = vec![0.0; n];

    const ITERS: usize = 200;
    const BATCHES: usize = 25;
    // applies per side between clock reads: a batch alternates the sides
    // in runs this short, so a slow stretch lands on both of them
    const RUN: usize = 10;
    let mut ratios = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut inst, mut ctrl) = (0.0, 0.0);
        for _ in 0..ITERS / RUN {
            let t0 = thread_cpu_s();
            for _ in 0..RUN {
                rep.apply_into(black_box(&x), &mut y, &mut ws);
                black_box(&y);
            }
            let t1 = thread_cpu_s();
            for _ in 0..RUN {
                fwt.forward_into(black_box(&x), &mut coeffs, &mut cur, &mut nxt);
                gw.matvec_into(&coeffs, &mut mid);
                fwt.inverse_into(&mid, &mut yc, &mut cur, &mut nxt);
                black_box(&yc);
            }
            inst += t1 - t0;
            ctrl += thread_cpu_s() - t1;
        }
        ratios.push(inst / ctrl);
    }
    let ratio = median(&mut ratios);

    // both sides computed the same product (the control really is the
    // same arithmetic, not a cheaper stand-in)
    for (a, b) in y.iter().zip(&yc) {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "control diverged: {a} vs {b}");
    }

    // The 2% contract is about optimized serving. A debug build cannot
    // inline the probes' relaxed-load fast path (every disabled probe
    // becomes an outlined call), so it gets a looser sanity bound; the
    // release run (CI's trace-smoke job, `cargo test --release`) holds
    // the real line.
    let bound = if cfg!(debug_assertions) { 1.15 } else { 1.02 };
    assert!(
        ratio < bound,
        "disabled tracing costs {:.2}% over the uninstrumented control, bound {:.0}% \
         (median of {BATCHES} per-batch ratios; sorted: {ratios:.3?})",
        (ratio - 1.0) * 100.0,
        (bound - 1.0) * 100.0
    );
}
