//! The registered sparsification methods: adapters over the existing
//! wavelet and low-rank pipelines, plus baselines that operate on any
//! extracted dense `G`.
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

use subsparse_hier::BasisRep;
use subsparse_layout::Layout;
use subsparse_linalg::{Csr, Mat, Triplets};
use subsparse_lowrank::LowRankOptions;
use subsparse_substrate::{extract_dense_batched, CountingSolver, SubstrateSolver};
use subsparse_wavelet::ExtractOptions;

use crate::metrics::threshold_dense;
use crate::{Sparsifier, SparsifyError, SparsifyOptions, SparsifyOutcome};

/// Adapter over the wavelet pipeline (thesis Ch. 3): vanishing-moment
/// basis of order [`SparsifyOptions::moment_order`] on a quadtree of
/// [`SparsifyOptions::levels`], extracted with combine-solves.
///
/// `O(log n)` solves; sparsity falls out of the basis construction (the
/// `target_sparsity` budget is ignored).
#[derive(Clone, Copy, Debug, Default)]
pub struct WaveletSparsifier;

impl Sparsifier for WaveletSparsifier {
    fn name(&self) -> &'static str {
        "wavelet"
    }

    fn sparsify(
        &self,
        solver: &dyn SubstrateSolver,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError> {
        let t0 = Instant::now();
        let counting = CountingSolver::new(solver);
        let basis =
            subsparse_wavelet::build_basis(layout, opts.resolve_levels(layout), opts.moment_order)?;
        let xopts = ExtractOptions { max_batch: opts.max_batch, ..Default::default() };
        let rep = subsparse_wavelet::extract(&counting, &basis, &xopts);
        Ok(SparsifyOutcome { rep, solves: counting.count(), build_time: t0.elapsed() })
    }
}

/// Adapter over the low-rank pipeline (thesis Ch. 4): sampled row bases
/// per quadtree square, recombined into an orthogonal `Q`.
///
/// `O(log n)` solves; needs a quadtree of depth at least 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct LowRankSparsifier;

impl Sparsifier for LowRankSparsifier {
    fn name(&self) -> &'static str {
        "lowrank"
    }

    fn sparsify(
        &self,
        solver: &dyn SubstrateSolver,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError> {
        let levels = opts.resolve_levels(layout);
        if levels < 2 {
            return Err(SparsifyError::InvalidOptions(format!(
                "the low-rank method needs levels >= 2, got {levels}"
            )));
        }
        let t0 = Instant::now();
        let counting = CountingSolver::new(solver);
        let lr_opts = LowRankOptions { max_batch: opts.max_batch, ..opts.lowrank };
        let result = subsparse_lowrank::extract(&counting, layout, levels, &lr_opts)?;
        Ok(SparsifyOutcome { rep: result.rep, solves: counting.count(), build_time: t0.elapsed() })
    }
}

/// Extracts the dense `G` with one solve per contact — issued as
/// `max_batch`-wide RHS blocks — and reports the count; the shared front
/// half of every baseline method.
fn dense_reference(
    solver: &dyn SubstrateSolver,
    layout: &Layout,
    opts: &SparsifyOptions,
) -> Result<(Mat, usize), SparsifyError> {
    if layout.n_contacts() == 0 {
        return Err(SparsifyError::Hier(subsparse_hier::HierError::EmptyLayout));
    }
    let counting = CountingSolver::new(solver);
    let g = extract_dense_batched(&counting, opts.max_batch);
    Ok((g, counting.count()))
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
#[derive(Clone, Copy, Debug, Default)]
pub struct ThresholdSparsifier;

impl Sparsifier for ThresholdSparsifier {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn sparsify(
        &self,
        solver: &dyn SubstrateSolver,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError> {
        let t0 = Instant::now();
        let (g, solves) = dense_reference(solver, layout, opts)?;
        let n = g.n_rows();
        // Q = I stores n ones; spend the rest of the budget on Gw.
        let budget = opts.nnz_budget(n).saturating_sub(n).max(n);
        let gw = Csr::from_dense(&threshold_dense(&g, budget), 0.0);
        Ok(SparsifyOutcome { rep: identity_rep(gw), solves, build_time: t0.elapsed() })
    }
}

/// Per-row top-`k` thresholding of the extracted `G`: each row keeps its
/// `k` largest-magnitude entries, `Q = I`.
///
/// `n` solves. Unlike the global threshold, every contact keeps a model of
/// its strongest neighbors, so small contacts are not starved — the usual
/// failure mode of global thresholding on mixed-size layouts.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopKSparsifier;

impl Sparsifier for TopKSparsifier {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn sparsify(
        &self,
        solver: &dyn SubstrateSolver,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError> {
        let t0 = Instant::now();
        let (g, solves) = dense_reference(solver, layout, opts)?;
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
        Ok(SparsifyOutcome { rep: identity_rep(t.to_csr()), solves, build_time: t0.elapsed() })
    }
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
        let out = ThresholdSparsifier.sparsify(&s, &layout, &opts).unwrap();
        assert_eq!(out.solves, 64);
        assert!(out.nnz() <= 64 * 64);
        let err = rel_fro_error(s.matrix(), &out.rep.to_dense());
        assert!(err < 0.05, "threshold err {err}");
    }

    #[test]
    fn topk_keeps_k_per_row() {
        let (layout, s) = setup();
        let opts = SparsifyOptions { target_sparsity: 4.0, ..Default::default() };
        let out = TopKSparsifier.sparsify(&s, &layout, &opts).unwrap();
        let n = 64;
        let k = (opts.nnz_budget(n) - n) / n;
        assert_eq!(out.rep.gw.nnz(), n * k);
        // every row has exactly k stored entries
        for i in 0..n {
            assert_eq!(out.rep.gw.row(i).0.len(), k);
        }
    }

    #[test]
    fn empty_layout_is_an_error() {
        let layout = Layout::new(10.0, 10.0);
        let s = solver::synthetic(&generators::regular_grid(128.0, 2, 2.0));
        let err =
            ThresholdSparsifier.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap_err();
        assert!(matches!(err, SparsifyError::Hier(_)));
    }
}
