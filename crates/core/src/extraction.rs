//! High-level extraction entry points beside
//! [`Method::sparsify`](crate::Method::sparsify): the low-rank pipeline
//! with its phase-1 row basis, and quadtree depth selection.

use std::time::Instant;

use subsparse_hier::{HierError, Quadtree};
use subsparse_layout::Layout;
use subsparse_lowrank::{LowRankOptions, RowBasisRep};
use subsparse_sparsify::SparsifyOutcome;
use subsparse_substrate::{CountingSolver, SubstrateSolver};

/// Runs the low-rank method end to end (thesis Ch. 4): phase-1 row-basis
/// construction and phase-2 fine-to-coarse sweep.
///
/// Returns what [`Method::sparsify`](crate::Method::sparsify) returns for
/// [`Method::LowRank`](crate::Method::LowRank) plus the intermediate
/// [`RowBasisRep`], which is itself a fast approximate operator.
///
/// # Errors
///
/// Returns an error if the layout is empty or a contact crosses a
/// finest-level square boundary (split the layout first with
/// [`Layout::split_to_squares`]).
///
/// # Example
///
/// ```
/// use subsparse::extract_lowrank;
/// use subsparse::layout::generators;
/// use subsparse::lowrank::LowRankOptions;
/// use subsparse::substrate::solver;
///
/// let layout = generators::regular_grid(128.0, 8, 2.0);
/// let black_box = solver::synthetic(&layout);
/// let (x, _row_basis) =
///     extract_lowrank(&black_box, &layout, 3, &LowRankOptions::default())?;
/// assert_eq!(x.n(), 64);
/// # Ok::<(), subsparse::hier::HierError>(())
/// ```
pub fn extract_lowrank<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    levels: usize,
    options: &LowRankOptions,
) -> Result<(SparsifyOutcome, RowBasisRep), HierError> {
    let t0 = Instant::now();
    let counting = CountingSolver::new(solver);
    let result = subsparse_lowrank::extract(&counting, layout, levels, options)?;
    let outcome =
        SparsifyOutcome { rep: result.rep, solves: counting.count(), build_time: t0.elapsed() };
    Ok((outcome, result.row_basis))
}

/// Picks a quadtree depth for a layout: the deepest level at which no
/// finest square holds more than `cap` contacts (see
/// [`Quadtree::choose_levels`]).
pub fn choose_levels(layout: &Layout, cap: usize) -> usize {
    Quadtree::choose_levels(layout, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_hier::Square;
    use subsparse_layout::generators;
    use subsparse_sparsify::{Method, SparsifyOptions};
    use subsparse_substrate::solver;

    #[test]
    fn wavelet_pipeline_reports_costs() {
        // the combine-solves reduction needs finest squares holding more
        // contacts than the 6 moment constraints (thesis §3.4.3: c > d)
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let s = solver::synthetic(&layout);
        let opts = SparsifyOptions { levels: Some(2), ..Default::default() };
        let x = Method::Wavelet.sparsify(&s, &layout, &opts).unwrap();
        assert!(x.solves > 0);
        assert!(x.solve_reduction_factor() > 1.0, "factor {}", x.solve_reduction_factor());
        assert!(x.rep.sparsity_factor() > 1.0);
    }

    #[test]
    fn lowrank_pipeline_reports_costs() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let (x, rb) = extract_lowrank(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        assert!(x.solves > 0);
        assert_eq!(rb.n(), 64);
    }

    #[test]
    fn every_method_reaches_but_never_exceeds_batch() {
        /// Records the width of every `solve_batch` call it forwards.
        struct Widths {
            inner: subsparse_substrate::DenseSolver,
            widths: std::sync::Mutex<Vec<usize>>,
        }
        impl SubstrateSolver for Widths {
            fn n_contacts(&self) -> usize {
                self.inner.n_contacts()
            }
            fn solve(&self, v: &[f64]) -> Vec<f64> {
                self.inner.solve(v)
            }
            fn solve_batch(&self, v: &subsparse_linalg::Mat) -> subsparse_linalg::Mat {
                self.widths.lock().unwrap().push(v.n_cols());
                self.inner.solve_batch(v)
            }
        }
        // every method spends more than BATCH solves on this grid, so its
        // widest block reaches the bound and none exceeds it; wavelet
        // calls hold one combine phase each, and a phase runs one group
        // per `W` column of its fullest square, so its widest block is
        // the largest phase run, or level 0's single-square call, which
        // also carries the root `V` columns
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let opts = SparsifyOptions::default();
        let basis = subsparse_wavelet::build_basis(
            &layout,
            opts.resolve_levels(&layout),
            subsparse_wavelet::MOMENT_ORDER,
        )
        .unwrap();
        let tree = basis.tree();
        let root = basis.root_v() + basis.w_count(Square::new(0, 0, 0));
        let largest_run = (1..=tree.finest())
            .flat_map(|l| tree.squares(l))
            .map(|s| basis.w_count(s))
            .fold(root, usize::max);
        for &method in subsparse_sparsify::all_methods() {
            let s = Widths { inner: solver::synthetic(&layout), widths: Default::default() };
            method.sparsify(&s, &layout, &opts).unwrap();
            let widths = s.widths.into_inner().unwrap();
            let widest = widths.iter().copied().max();
            let want = match method {
                Method::Wavelet => largest_run.min(solver::BATCH),
                _ => solver::BATCH,
            };
            assert_eq!(widest, Some(want), "{}: batch widths {widths:?}", method.name());
        }
    }

    #[test]
    fn choose_levels_reasonable() {
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let levels = choose_levels(&layout, 4);
        assert!(levels >= 3);
    }
}
