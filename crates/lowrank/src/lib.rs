//! Low-rank sparsification of substrate coupling (thesis Chapter 4 — the
//! ICCAD 2001 algorithm).
//!
//! Where the wavelet method of Chapter 3 builds its basis from contact
//! *geometry* alone (polynomial moments), the low-rank method builds it
//! from sampled *responses of the operator itself*: interactions between
//! well-separated squares are numerically low-rank (Fig 4-3), so an SVD of
//! a few sampled rows recovers, per square, a small "row basis" `V_s` that
//! captures everything faraway contacts can see.
//!
//! The algorithm has two phases:
//!
//! 1. **Coarse-to-fine sweep** ([`rowbasis`]): build the multilevel
//!    row-basis representation — per square, the basis `V_s` and the
//!    responses `G_{P_s,s} V_s` over the local-plus-interactive region,
//!    plus explicit finest-level local blocks. One loop runs every level
//!    from 2 to the finest: sample, respond, build the row bases, respond
//!    to them. Level 2 solves directly; finer levels split through the
//!    parent row bases (eq. 4.22/4.24) and share black-box solves across
//!    squares with the wavelet method's combine-solves grouping of §3.5
//!    ([`Quadtree::combine_groups`](subsparse_hier::Quadtree::combine_groups)),
//!    so only `O(log n)` solves are needed. The result, [`RowBasisRep`],
//!    can already apply `G` in `O(n log n)` operations (eq. 4.16).
//! 2. **Fine-to-coarse sweep** ([`sweep`]): recombine slow-decaying basis
//!    functions into the orthogonal wavelet-like `Q` (eq. 4.27) and
//!    assemble the sparse `Gw`, yielding the same `G ~ Q Gw Q'` form as the
//!    wavelet method (`BasisRep`) so the two can be compared and
//!    thresholded identically. The sweep's blocks are the wavelet basis's
//!    two kinds (`[U | T]` in contact coordinates at the finest level, an
//!    orthogonal recombination of the children's `U` coefficients above
//!    it), so both methods build `Q` and its fast wavelet transform with
//!    one [`TreeBasisBuilder`](subsparse_hier::TreeBasisBuilder), and
//!    low-rank models serve through the transform too.
//!
//! # Example
//!
//! ```
//! use subsparse_layout::generators;
//! use subsparse_substrate::{solver, CountingSolver, SubstrateSolver};
//! use subsparse_lowrank::{extract, LowRankOptions};
//!
//! let layout = generators::regular_grid(128.0, 8, 2.0);
//! let black_box = CountingSolver::new(solver::synthetic(&layout));
//! let result = extract(&black_box, &layout, 3, &LowRankOptions::default())?;
//! // the solve count is O(log n): a constant per level, independent of n
//! assert!(black_box.count() > 0);
//! assert_eq!(result.rep.n(), layout.n_contacts());
//! # Ok::<(), subsparse_hier::HierError>(())
//! ```

pub mod rowbasis;
pub mod sweep;

pub use rowbasis::{build_row_basis, RowBasisRep};
pub use sweep::{to_basis_rep, Sweep};

use subsparse_hier::{BasisRep, HierError};
use subsparse_layout::Layout;
use subsparse_substrate::SubstrateSolver;

/// Relative singular-value threshold of every rank truncation, in both
/// phases: keep `sigma_i > RANK_TOL * sigma_1` (thesis §4.6 uses 1/100).
pub const RANK_TOL: f64 = 1e-2;

/// Hard cap on the rank of any row basis and any sweep `U` block (thesis
/// §4.6 uses 6, matching the 6 constraints of order-2 moments on the
/// wavelet side).
pub const MAX_RANK: usize = 6;

/// Tuning parameters of the low-rank method.
#[derive(Clone, Copy, Debug)]
pub struct LowRankOptions {
    /// Combine-solves square separation (3 in the thesis). 0 solves every
    /// level directly, as level 2 always is: the reference mode, at one
    /// solve per vector.
    pub spacing: usize,
    /// Seed for the deterministic sample-vector generator (one random
    /// sample vector per square, as in the thesis).
    pub seed: u64,
}

impl Default for LowRankOptions {
    fn default() -> Self {
        LowRankOptions { spacing: 3, seed: 1 }
    }
}

/// The output of the full two-phase low-rank extraction.
#[derive(Clone, Debug)]
pub struct LowRankResult {
    /// The phase-1 multilevel row-basis representation (usable on its own
    /// as a fast approximate operator).
    pub row_basis: RowBasisRep,
    /// The phase-2 sparse `G ~ Q Gw Q'` representation.
    pub rep: BasisRep,
}

/// Runs both phases of the low-rank method against a black-box solver.
///
/// `levels` is the quadtree depth (finest squares `2^levels` per side);
/// contacts must not cross finest-square boundaries (split the layout with
/// [`Layout::split_to_squares`] first if needed).
///
/// # Errors
///
/// Returns an error if the layout is empty or a contact crosses a
/// finest-level square boundary.
pub fn extract<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    levels: usize,
    options: &LowRankOptions,
) -> Result<LowRankResult, HierError> {
    let row_basis = build_row_basis(solver, layout, levels, options)?;
    let rep = to_basis_rep(&row_basis);
    Ok(LowRankResult { row_basis, rep })
}
