//! [`Method::sparsify`] and the four methods behind it: the wavelet and
//! low-rank pipelines, plus baselines that operate on any extracted
//! dense `G`.
//!
//! The baselines exist for two reasons. First, they are the honest
//! yardstick: the thesis's headline claim is that changing basis *before*
//! dropping entries beats dropping entries of `G` directly, and that claim
//! needs the direct methods implemented under the same interface and
//! measured by the same harness. Second, they cover the regime the
//! hierarchical methods do not: when `n` is small enough that `n` dense
//! solves are affordable, a thresholded `G` is a perfectly good model —
//! at `n` solves instead of `O(log n)`.

use std::time::Instant;

use subsparse_hier::{BasisRep, HierError};
use subsparse_layout::Layout;
use subsparse_linalg::{Csr, Mat, Triplets};
use subsparse_substrate::{extract_dense, CountingSolver, SubstrateSolver};
use subsparse_wavelet::{ExtractOptions, MOMENT_ORDER};

use crate::metrics::threshold_dense;
use crate::{Method, SparsifyError, SparsifyOptions, SparsifyOutcome};

impl Method {
    /// Runs the method: black-box solver + layout in, sparse
    /// `G ~ Q Gw Q'` representation with its solve count and build time
    /// out.
    ///
    /// Solves are counted through one [`CountingSolver`] around `solver`,
    /// so the method assumes nothing about the solver beyond
    /// [`SubstrateSolver::solve`] and
    /// [`solve_batch`](SubstrateSolver::solve_batch).
    ///
    /// # Errors
    ///
    /// Returns [`SparsifyError::Hier`] if the layout is empty or violates
    /// the quadtree constraints of a hierarchical method, and
    /// [`SparsifyError::InvalidOptions`] for option combinations the
    /// method cannot honor.
    pub fn sparsify<S: SubstrateSolver + ?Sized>(
        &self,
        solver: &S,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError> {
        let t0 = Instant::now();
        let counting = CountingSolver::new(solver);
        let rep = match self {
            Method::Wavelet => wavelet(&counting, layout, opts)?,
            Method::LowRank => lowrank(&counting, layout, opts)?,
            Method::Threshold => threshold(&dense_reference(&counting, layout)?, opts),
            Method::TopK => topk(&dense_reference(&counting, layout)?, opts),
        };
        Ok(SparsifyOutcome { rep, solves: counting.count(), build_time: t0.elapsed() })
    }
}

/// The wavelet pipeline (thesis Ch. 3): vanishing-moment basis of order
/// [`MOMENT_ORDER`] on a quadtree of [`SparsifyOptions::levels`],
/// extracted with combine-solves.
///
/// `O(log n)` solves; sparsity falls out of the basis construction (the
/// `target_sparsity` budget is ignored).
fn wavelet<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    opts: &SparsifyOptions,
) -> Result<BasisRep, SparsifyError> {
    let basis = subsparse_wavelet::build_basis(layout, opts.resolve_levels(layout), MOMENT_ORDER)?;
    Ok(subsparse_wavelet::extract(solver, &basis, &ExtractOptions::default()))
}

/// The low-rank pipeline (thesis Ch. 4): sampled row bases per quadtree
/// square, recombined into an orthogonal `Q`.
///
/// `O(log n)` solves; needs a quadtree of depth at least 2.
fn lowrank<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    opts: &SparsifyOptions,
) -> Result<BasisRep, SparsifyError> {
    let levels = opts.resolve_levels(layout);
    if levels < 2 {
        return Err(SparsifyError::InvalidOptions(format!(
            "the low-rank method needs levels >= 2, got {levels}"
        )));
    }
    Ok(subsparse_lowrank::extract(solver, layout, levels, &opts.lowrank)?.rep)
}

/// Extracts the dense `G` with one solve per contact; the shared front
/// half of every baseline method.
fn dense_reference<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
) -> Result<Mat, SparsifyError> {
    if layout.n_contacts() == 0 {
        return Err(SparsifyError::Hier(HierError::EmptyLayout));
    }
    Ok(extract_dense(solver))
}

/// Wraps a sparsified `Gw` (in the *original* contact basis) as a
/// `BasisRep` with `Q = I`.
fn identity_rep(gw: Csr) -> BasisRep {
    let n = gw.n_rows();
    BasisRep::new(Csr::identity(n), gw)
}

/// Global magnitude thresholding of the extracted `G` (thesis §3.7's
/// naive baseline): keep the budgeted number of largest-magnitude entries,
/// `Q = I`.
///
/// `n` solves; accuracy collapses once the budget cuts into the slowly
/// decaying mid-range couplings — which is exactly what the basis-changing
/// methods fix.
fn threshold(g: &Mat, opts: &SparsifyOptions) -> BasisRep {
    let n = g.n_rows();
    // Q = I stores n ones; spend the rest of the budget on Gw.
    let budget = opts.nnz_budget(n).saturating_sub(n).max(n);
    identity_rep(Csr::from_dense(&threshold_dense(g, budget), 0.0))
}

/// Per-row top-`k` thresholding of the extracted `G`: each row keeps its
/// `k` largest-magnitude entries, `Q = I`.
///
/// `n` solves. Unlike the global threshold, every contact keeps a model of
/// its strongest neighbors, so small contacts are not starved — the usual
/// failure mode of global thresholding on mixed-size layouts.
fn topk(g: &Mat, opts: &SparsifyOptions) -> BasisRep {
    let n = g.n_rows();
    let k = (opts.nnz_budget(n).saturating_sub(n) / n).clamp(1, n);
    let mut t = Triplets::new(n, n);
    // G is column-major; work on columns and emit transposed entries,
    // which by symmetry of G is per-row top-k.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for j in 0..n {
        let col = g.col(j);
        order.clear();
        order.extend(0..n);
        order.sort_by(|&a, &b| col[b].abs().partial_cmp(&col[a].abs()).unwrap());
        for &i in order.iter().take(k) {
            t.push(j, i, col[i]);
        }
    }
    identity_rep(t.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rel_fro_error;
    use subsparse_layout::generators;
    use subsparse_substrate::solver;

    fn setup() -> (Layout, subsparse_substrate::DenseSolver) {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        (layout, s)
    }

    #[test]
    fn threshold_obeys_budget_and_reconstructs() {
        let (layout, s) = setup();
        let opts = SparsifyOptions { target_sparsity: 2.0, ..Default::default() };
        let out = Method::Threshold.sparsify(&s, &layout, &opts).unwrap();
        assert_eq!(out.solves, 64);
        assert!(out.nnz() <= 64 * 64);
        let err = rel_fro_error(s.matrix(), &out.rep.to_dense());
        assert!(err < 0.05, "threshold err {err}");
    }

    #[test]
    fn topk_keeps_k_per_row() {
        let (layout, s) = setup();
        let opts = SparsifyOptions { target_sparsity: 4.0, ..Default::default() };
        let out = Method::TopK.sparsify(&s, &layout, &opts).unwrap();
        let n = 64;
        let k = (opts.nnz_budget(n) - n) / n;
        assert_eq!(out.rep.gw.nnz(), n * k);
        // every row has exactly k stored entries
        for i in 0..n {
            assert_eq!(out.rep.gw.row(i).0.len(), k);
        }
    }

    #[test]
    fn lowrank_below_two_levels_is_invalid() {
        let (layout, s) = setup();
        let opts = SparsifyOptions { levels: Some(1), ..Default::default() };
        let err = Method::LowRank.sparsify(&s, &layout, &opts).unwrap_err();
        assert!(matches!(err, SparsifyError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn empty_layout_is_an_error() {
        let layout = Layout::new(10.0, 10.0);
        let s = solver::synthetic(&generators::regular_grid(128.0, 2, 2.0));
        let err = Method::Threshold.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap_err();
        assert!(matches!(err, SparsifyError::Hier(_)));
    }
}
