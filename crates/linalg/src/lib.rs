//! Dense and sparse linear algebra kernels for the `subsparse` workspace.
//!
//! Everything the substrate-coupling extraction algorithms need is
//! implemented here from scratch:
//!
//! * [`Mat`] — column-major dense matrices with the handful of BLAS-like
//!   operations the algorithms use.
//! * [`mod@svd`] — one-sided Jacobi singular value decomposition, the workhorse
//!   of both the wavelet basis construction and the low-rank method.
//! * [`qr`] — Householder QR and orthonormal-basis completion.
//! * [`mod@cg`] — conjugate gradient and preconditioned CG with pluggable
//!   [`LinOp`] operators, used by both substrate solvers.
//! * [`fft`]/[`dct`] — radix-2 FFT and DCT-II plans used by the
//!   eigenfunction substrate solver and the fast-Poisson preconditioner.
//! * [`tridiag`] — Thomas-algorithm tridiagonal solves (fast-Poisson
//!   preconditioner).
//! * [`sparse`] — CSR matrices for the change-of-basis matrix `Q` and the
//!   sparsified conductance matrix `Gw`.
//! * [`op`] — the [`CouplingOp`] serving layer: one zero-allocation,
//!   blocked apply path over every operator representation.
//! * [`exec`] — the persistent parked-worker [`Executor`] every
//!   thread-parallel path (serving pool, dense materialization, batch
//!   solvers) dispatches through: zero-alloc
//!   hand-off, panic isolation, barriered completion.
//! * [`kernels`] — the lane-blocked inner kernels of the serving hot
//!   loops (fixed-lane accumulator dots, fused column updates) together
//!   with the scalar references they are property-tested against.
//! * [`simd`] — run-time instruction-set tiers: the lane-batched kernels
//!   are compiled at AVX2 and AVX-512F width beside the baseline and
//!   dispatched to the widest the CPU reports, with the baseline bits.
//! * [`trace`] — zero-dependency observability: RAII spans, atomic
//!   counters, latency histograms, Chrome-trace export. Off by default;
//!   the disabled fast path costs one relaxed atomic load.
//! * [`faults`] — zero-dependency fault injection: named failpoints at
//!   the fragile seams (loads, solves, pool workers), armed at runtime.
//!   Off by default with the same one-relaxed-load disabled cost.
//! * [`io`] — Matrix Market import/export of the sparse factors.
//!
//! # Example
//!
//! ```
//! use subsparse_linalg::{Mat, svd::svd};
//!
//! let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]);
//! let f = svd(&a);
//! assert!((f.s[0] - 3.0).abs() < 1e-12 && (f.s[1] - 2.0).abs() < 1e-12);
//! ```

pub mod cg;
pub mod chol;
pub mod dct;
pub mod exec;
pub mod faults;
pub mod fft;
pub mod io;
pub mod kernels;
pub mod mat;
pub mod op;
pub mod qr;
pub mod rng;
pub mod simd;
pub mod sparse;
pub mod svd;
pub mod trace;
pub mod tridiag;

pub use cg::{cg, pcg, pcg_with, CgResult, CgScratch, IdentityPrecond, LinOp};
pub use exec::Executor;
pub use mat::{axpy, dot, nrm2, Mat};
pub use op::{resolve_threads, ApplyWorkspace, CouplingOp, ParallelApply};
pub use sparse::{Csr, Triplets};
pub use svd::{svd, Svd};
