//! # subsparse — fast extraction and sparsification of substrate coupling
//!
//! A from-scratch Rust reproduction of *"Fast Methods for Extraction and
//! Sparsification of Substrate Coupling"* (Kanapka, Phillips, White; DAC
//! 2000 / ICCAD 2001 / MIT PhD thesis 2002).
//!
//! Mixed-signal ICs couple every substrate contact to every other one
//! through the resistive substrate, so the conductance matrix `G` (contact
//! voltages → contact currents) is dense: extracting it naively costs one
//! substrate solve *per contact*, and storing or applying it costs
//! `O(n^2)`. This crate reduces both, assuming nothing about the solver
//! beyond a black box `v ↦ G v`:
//!
//! * **`O(log n)` black-box solves** instead of `n`, via *combine-solves*
//!   (summing basis vectors from well-separated squares into one solve);
//! * **`O(n log n)` nonzeros** in a representation `G ≈ Q Gw Q'` with a
//!   sparse orthogonal change of basis `Q`, via two alternative methods:
//!   the geometric **wavelet** construction ([`wavelet`], thesis Ch. 3) and
//!   the operator-adaptive **low-rank** construction ([`lowrank`], Ch. 4).
//!
//! Whatever the construction, the extracted model is *served* through one
//! trait, [`CouplingOp`]: zero-allocation single-vector applies
//! ([`CouplingOp::apply_into`] with a reusable [`ApplyWorkspace`]) and
//! blocked multi-vector applies ([`CouplingOp::apply_block_into`]) that
//! are bit-identical to the per-vector path but stream each stored
//! nonzero once per lane tile of eight vectors — the fast path for the
//! repeated-apply workload inside a circuit simulator.
//!
//! The workspace also contains everything needed to *be* the black box:
//! a finite-difference substrate solver and an eigenfunction-expansion
//! solver ([`substrate`]), the dense/sparse linear algebra ([`linalg`]),
//! layout generators for the thesis's evaluation examples ([`layout`]),
//! and the quadtree machinery shared by both methods ([`hier`]).
//!
//! ## The `sparsify` subsystem
//!
//! Every sparsification method runs through one front door,
//! [`Method::sparsify`]: black-box solver + layout in, a
//! [`BasisRep`] with cost accounting out. Methods are registered by name
//! ([`Method`], [`sparsify::all_methods`]) and graded by one shared
//! harness ([`sparsify::eval`]) reporting relative Frobenius/column
//! error, nonzero ratio, and apply time — so `cli sparsify`, the bench
//! `method_matrix`, and the `sparsify_compare` example all print the
//! same apples-to-apples comparison.
//!
//! Which method to pick:
//!
//! * [`Method::Wavelet`] — `O(log n)` solves; basis built from contact
//!   geometry alone. Best on layouts with uniform contact sizes; degrades
//!   on mixed sizes (thesis Table 3.1, Example 3).
//! * [`Method::LowRank`] — `O(log n)` solves; basis adapted to the
//!   operator's sampled responses. The robust default, especially for
//!   mixed contact sizes and shapes (thesis Table 4.2).
//! * [`Method::Threshold`] / [`Method::TopK`] — `n` solves; drop small
//!   entries of the dense `G` globally / per row. Fine when `n` dense
//!   solves are affordable and the coupling decays fast; `topk` keeps
//!   small contacts from being starved.
//!
//! A new method (spectral, trace-reduction, randomized, ...) is a new
//! [`Method`] variant and one arm of [`Method::sparsify`].
//!
//! ## Quickstart
//!
//! ```
//! use subsparse::layout::generators;
//! use subsparse::substrate::{EigenSolver, EigenSolverConfig, Substrate};
//! use subsparse::{extract_lowrank, lowrank::LowRankOptions};
//!
//! // a 16x16 grid of contacts on the thesis's two-layer substrate
//! let layout = generators::regular_grid(128.0, 16, 2.0);
//! let solver = EigenSolver::new(
//!     &Substrate::thesis_standard(),
//!     &layout,
//!     EigenSolverConfig { panels: 64, ..EigenSolverConfig::default() },
//! )?;
//! let (x, _) = extract_lowrank(&solver, &layout, 4, &LowRankOptions::default())?;
//! println!(
//!     "n = {}, solves = {} ({:.1}x reduction), Gw sparsity {:.1}x",
//!     x.n(), x.solves, x.solve_reduction_factor(), x.rep.sparsity_factor(),
//! );
//! let currents = x.rep.apply(&vec![1.0; x.n()]); // i = G v in O(n log n)
//! assert_eq!(currents.len(), 256);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod extraction;
pub mod spy;

pub use extraction::{choose_levels, extract_lowrank};

/// Shared error/sparsity metrics (lives in [`sparsify`], re-exported here
/// so `subsparse::metrics` keeps working).
pub use subsparse_sparsify::metrics;

/// Dense/sparse linear algebra kernels (SVD, QR, CG, FFT/DCT, CSR).
pub use subsparse_linalg as linalg;

/// Contact layout geometry and the thesis's example generators.
pub use subsparse_layout as layout;

/// Substrate models and black-box solvers (finite-difference and
/// eigenfunction).
pub use subsparse_substrate as substrate;

/// Quadtree hierarchy, moments, and the shared `Q Gw Q'` representation.
pub use subsparse_hier as hier;

/// The wavelet sparsification method (thesis Ch. 3, DAC 2000).
pub use subsparse_wavelet as wavelet;

/// The low-rank sparsification method (thesis Ch. 4, ICCAD 2001).
pub use subsparse_lowrank as lowrank;

/// The unified sparsification subsystem: the method registry with its
/// one front door [`Method::sparsify`], and the shared evaluation harness.
pub use subsparse_sparsify as sparsify;

// The sparsify vocabulary most users touch, at the root.
pub use subsparse_sparsify::{Method, SparsifyError, SparsifyOptions, SparsifyOutcome};

// The types that almost every user touches, re-exported at the root.
pub use subsparse_hier::BasisRep;
pub use subsparse_layout::{Contact, Layout, Rect};
pub use subsparse_linalg::{ApplyWorkspace, CouplingOp, ParallelApply};
pub use subsparse_substrate::{Backplane, Layer, Substrate, SubstrateSolver};

/// Zero-dependency observability: runtime-switchable RAII spans, atomic
/// counters, latency histograms, and summary/Chrome-trace exporters over
/// the extraction and serving hot paths (re-export of
/// [`subsparse_linalg::trace`]).
pub use subsparse_linalg::trace;

/// Zero-dependency fault injection: named failpoints at the fragile
/// seams (model reads, solver outputs, pool and FWT workers),
/// configurable from code, a spec string, or `SUBSPARSE_FAULTS`
/// (re-export of [`subsparse_linalg::faults`]).
pub use subsparse_linalg::faults;
