//! High-level extraction pipelines: layout + black-box solver in, sparse
//! `G ~ Q Gw Q'` representation and cost statistics out.

use subsparse_hier::{BasisRep, HierError, Quadtree};
use subsparse_layout::Layout;
use subsparse_lowrank::{LowRankOptions, RowBasisRep};
use subsparse_sparsify::{Method, SparsifyError, SparsifyOptions, SparsifyOutcome};
use subsparse_substrate::{CountingSolver, SubstrateSolver};

/// The result of a sparsifying extraction: the representation plus the
/// cost metrics the thesis tables report.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The sparse `G ~ Q Gw Q'` representation.
    pub rep: BasisRep,
    /// Black-box solves spent.
    pub solves: usize,
}

impl Extraction {
    /// Runs any registered sparsification [`Method`] through the
    /// [`Sparsifier`](crate::Sparsifier) trait — the generic front door
    /// the named pipelines below are sugar over.
    ///
    /// # Errors
    ///
    /// Propagates the method's [`SparsifyError`].
    ///
    /// # Example
    ///
    /// ```
    /// use subsparse::layout::generators;
    /// use subsparse::substrate::solver;
    /// use subsparse::{Extraction, Method, SparsifyOptions};
    ///
    /// let layout = generators::regular_grid(128.0, 8, 2.0);
    /// let black_box = solver::synthetic(&layout);
    /// let x = Extraction::with_method(
    ///     Method::Threshold,
    ///     &black_box,
    ///     &layout,
    ///     &SparsifyOptions::default(),
    /// )?;
    /// assert_eq!(x.n(), 64);
    /// # Ok::<(), subsparse::SparsifyError>(())
    /// ```
    pub fn with_method<S: SubstrateSolver + ?Sized>(
        method: Method,
        solver: &S,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<Extraction, SparsifyError> {
        // the &dyn adapter lives here, once, instead of at every call site
        let outcome = method.build().sparsify(&solver as &dyn SubstrateSolver, layout, opts)?;
        Ok(Extraction::from(outcome))
    }

    /// Number of contacts.
    pub fn n(&self) -> usize {
        self.rep.n()
    }

    /// `n / solves` — the thesis's solve-reduction factor.
    pub fn solve_reduction_factor(&self) -> f64 {
        self.n() as f64 / self.solves as f64
    }

    /// Sparsity factor of `Gw` (`n^2 / nnz`).
    pub fn sparsity_factor(&self) -> f64 {
        self.rep.sparsity_factor()
    }
}

/// Runs the wavelet method end to end (thesis Ch. 3): build the
/// vanishing-moment basis of order `p` on a depth-`levels` quadtree, then
/// extract `Gw` with combine-solves.
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
/// use subsparse::extract_wavelet;
/// use subsparse::layout::generators;
/// use subsparse::substrate::solver;
///
/// let layout = generators::regular_grid(128.0, 8, 2.0);
/// let black_box = solver::synthetic(&layout);
/// let x = extract_wavelet(&black_box, &layout, 3, 2)?;
/// assert_eq!(x.n(), 64);
/// assert!(x.rep.q_sparsity_factor() > 1.0); // Gw sparsity shows at larger n
/// # Ok::<(), subsparse::hier::HierError>(())
/// ```
pub fn extract_wavelet<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    levels: usize,
    p: usize,
) -> Result<Extraction, HierError> {
    let opts = SparsifyOptions { levels: Some(levels), moment_order: p, ..Default::default() };
    match Extraction::with_method(Method::Wavelet, solver, layout, &opts) {
        Ok(x) => Ok(x),
        Err(SparsifyError::Hier(e)) => Err(e),
        // the wavelet adapter only produces layout/hierarchy errors
        Err(e) => unreachable!("wavelet sparsifier returned non-hier error: {e}"),
    }
}

/// Runs the low-rank method end to end (thesis Ch. 4): phase-1 row-basis
/// construction and phase-2 fine-to-coarse sweep.
///
/// Returns the sparse representation plus the intermediate
/// [`RowBasisRep`], which is itself a fast approximate operator.
///
/// # Errors
///
/// Same conditions as [`extract_wavelet`].
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
) -> Result<(Extraction, RowBasisRep), HierError> {
    let counting = CountingSolver::new(solver);
    let result = subsparse_lowrank::extract(&counting, layout, levels, options)?;
    Ok((Extraction { rep: result.rep, solves: counting.count() }, result.row_basis))
}

/// Picks a quadtree depth for a layout: the deepest level at which no
/// finest square holds more than `cap` contacts (see
/// [`Quadtree::choose_levels`]).
pub fn choose_levels(layout: &Layout, cap: usize) -> usize {
    Quadtree::choose_levels(layout, cap)
}

impl From<SparsifyOutcome> for Extraction {
    fn from(outcome: SparsifyOutcome) -> Self {
        Extraction { rep: outcome.rep, solves: outcome.solves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_layout::generators;
    use subsparse_substrate::solver;

    #[test]
    fn wavelet_pipeline_reports_costs() {
        // the combine-solves reduction needs finest squares holding more
        // contacts than the 6 moment constraints (thesis §3.4.3: c > d)
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let s = solver::synthetic(&layout);
        let x = extract_wavelet(&s, &layout, 2, 2).unwrap();
        assert!(x.solves > 0);
        assert!(x.solve_reduction_factor() > 1.0, "factor {}", x.solve_reduction_factor());
        assert!(x.sparsity_factor() > 1.0);
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
    fn every_method_keeps_its_batches_within_max_batch() {
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
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let opts = SparsifyOptions { max_batch: 5, ..Default::default() };
        for &method in subsparse_sparsify::all_methods() {
            let s = Widths { inner: solver::synthetic(&layout), widths: Default::default() };
            Extraction::with_method(method, &s, &layout, &opts).unwrap();
            let widths = s.widths.into_inner().unwrap();
            let widest = widths.iter().copied().max();
            assert_eq!(widest, Some(5), "{}: batch widths {widths:?}", method.name());
        }
    }

    #[test]
    fn choose_levels_reasonable() {
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let levels = choose_levels(&layout, 4);
        assert!(levels >= 3);
    }
}
