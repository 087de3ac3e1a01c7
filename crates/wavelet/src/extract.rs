//! Combine-solves extraction of the transformed matrix `Gw` (thesis §3.5).
//!
//! Naively, filling `Gw = Q' G Q` needs one black-box solve per basis
//! vector (`n` solves). The combine-solves technique instead applies `G` to
//! *sums* of basis vectors taken from squares at least three squares apart
//! on the same level (Fig 3-5). Because the current response of a
//! vanishing-moment basis vector decays fast with distance, the response to
//! each summand can be read off near its own square without contamination
//! from the others. The retained entries of `Gw` are exactly the
//! "not-assumed-small" ones: interactions of basis vectors in squares whose
//! coarser-level ancestor is local (same or neighbor) to the other square,
//! plus everything involving the coarsest-level nonvanishing vectors.
//!
//! That pattern depends only on the quadtree and the basis, so [`extract`]
//! runs in three stages: build the pattern ([`GwAssembler::new`]) before
//! any solve, fill it in place with every estimate the solves yield
//! ([`extract_into`]), and average, symmetrize and compact it
//! ([`GwAssembler::finish`]). Peak memory follows the final `nnz(Gw)`.
//! The fill reads each block of responses through one blocked forward
//! fast wavelet transform (`Q'` in `O(n·p)` per column), and each
//! black-box call carries one combine phase (see [`extract_into`]).

use std::sync::Arc;

use subsparse_hier::{BasisRep, GwAssembler, GwSink, Square};
use subsparse_linalg::{trace, Csr, Mat};
use subsparse_substrate::{solver, SubstrateSolver};

use crate::basis::WaveletBasis;

/// Options for the combine-solves extraction.
#[derive(Clone, Copy, Debug)]
pub struct ExtractOptions {
    /// Minimum square separation of basis vectors combined into one solve
    /// (the thesis uses 3: squares with equal `(ix mod 3, iy mod 3)`
    /// phases, Fig 3-5). Setting this to 0 disables combining entirely and
    /// performs one solve per basis vector — useful as an accuracy
    /// reference, at `n` solves.
    pub spacing: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { spacing: 3 }
    }
}

/// Extracts `Gw` in the wavelet basis with the combine-solves technique,
/// returning the `G ~ Q Gw Q'` representation (the thesis's `Gws`).
///
/// Pattern, fill, finish: the kept pattern of `Gw` is built from the
/// basis's quadtree before any solve, [`extract_into`] writes each
/// estimate into its slot, and [`GwAssembler::finish`] takes the mean of
/// the two directions of each pair (or the one that was estimated) and
/// drops exact zeros, in place. The model shares `Q` and the transform
/// with `basis`: neither is copied.
///
/// The number of black-box solves is `root_v` (coarsest nonvanishing
/// vectors) plus, per level, at most `spacing^2` times the level's largest
/// `W` count (the groups of
/// [`Quadtree::combine_groups`](subsparse_hier::Quadtree::combine_groups)),
/// i.e. `O(log n)` for regular layouts, versus `n` for naive extraction.
///
/// # Panics
///
/// Panics if the solver's contact count differs from the basis's.
pub fn extract<S: SubstrateSolver + ?Sized>(
    solver: &S,
    basis: &WaveletBasis,
    options: &ExtractOptions,
) -> BasisRep {
    let mut gw = GwAssembler::new(basis.tree(), basis.root_v(), |s| basis.w_cols(s));
    extract_into(solver, basis, options, &mut gw);
    // serve through the tree-structured transform: O(n·p) per basis
    // apply instead of traversing the explicit CSR factors (the flat Q
    // is still attached as the exchange/inspection format)
    BasisRep::with_fwt(Arc::clone(basis.q()), gw.finish(), Arc::clone(basis.fwt()))
}

/// The fill stage of [`extract`]: runs the combine-solves and records
/// every estimate of a `Gw` entry in `sink`, in extraction order.
///
/// Estimates land in the coarsest-level columns `0..root_v` (one
/// [`GwSink::add`] per nonzero entry of each root column) and in the
/// tiles between each square and its
/// [`local_descendants`](subsparse_hier::Quadtree::local_descendants),
/// in the source column's row (one [`GwSink::add_tile`] per source column
/// and destination square). Each directed entry gets at most one estimate;
/// the sink supplies the mirrors.
///
/// Each response block `Y` goes through one blocked forward transform of
/// the basis's [`FastWaveletTransform`](subsparse_hier::FastWaveletTransform):
/// a root column's estimates are its column of `Q' Y`, and a tile is the
/// slice of its source's column at the destination square's `W` columns.
///
/// Each black-box call holds the groups of one combine phase, whose
/// squares' contacts are the support of every column: a black box whose
/// cost follows its voltages' support (such as
/// [`KernelSolver`](subsparse_substrate::KernelSolver)) then pays for one
/// phase in every column, not for the union of the phases a wider block
/// would mix. A black box that solves each column on its own (the PCG
/// solvers) gains nothing: it gets more, narrower calls, and its workers
/// idle at the tail of each call. Spacing 0 has no phases: each call
/// holds one square's vectors.
///
/// The root `V` columns ride in level 0's call: the root square holds
/// every contact, so its `W` vectors already excite them all, and one call
/// of `root_v + w_count(root)` columns (at most [`solver::BATCH`] per
/// block) costs the kernel black box what its `W` columns alone did. A
/// column's response does not depend on the block it rides in, for any of
/// the black boxes, so the estimates keep their bits.
///
/// # Panics
///
/// Panics if the solver's contact count differs from the basis's.
pub fn extract_into<S: SubstrateSolver + ?Sized, K: GwSink + ?Sized>(
    solver: &S,
    basis: &WaveletBasis,
    options: &ExtractOptions,
    sink: &mut K,
) {
    let n = basis.n();
    assert_eq!(solver.n_contacts(), n, "solver/basis contact count mismatch");
    let tree = basis.tree();
    let fwt = basis.fwt();
    // Q' of each response block, and the transform's scratch, reused
    // across blocks
    let (mut coef, mut s1, mut s2) = (Mat::zeros(0, 0), Mat::zeros(0, 0), Mat::zeros(0, 0));
    // the coarsest-level nonvanishing vectors: one solve per root `V`
    // column, whose response is projected onto *all* basis vectors
    // (forms 3.21-3.23 of the thesis are never assumed small). Every
    // contact lies in the root, so these columns ride in level 0's call.
    let mut root = q_columns(basis.q(), basis.root_v());

    // ---- vanishing-moment vectors, level by level (source level l).
    // Each phase's run of groups streams through `solve_batch` in RHS
    // blocks (the padded vectors are built at most `solver::BATCH` at a
    // time), in `combine_groups` order. A source square `s` yields the
    // entries against destination vectors on levels `l' >= l` whose
    // level-`l` ancestor is local to `s` (thesis eq. 3.25); the `l' < l`
    // entries come from symmetry of `G` when that level is the source.
    for l in 0..=tree.finest() {
        let _s = trace::span_arg("extract.wavelet.combine-level", l as u64);
        let groups = tree.combine_groups(l, options.spacing, |s| basis.w_count(s));
        // a phase's groups count `m` up from 0, so a new phase starts
        // wherever `m` does not rise. Level 0 holds one square, so it has
        // one phase, or none when the root has no `W` vectors: the root
        // columns then go alone
        let mut runs: Vec<&[(Vec<Square>, usize)]> = groups.chunk_by(|a, b| b.1 > a.1).collect();
        if l == 0 && runs.is_empty() {
            runs.push(&[]);
        }
        for run in runs {
            let _r = (l == 0).then(|| trace::span("extract.wavelet.root-solves"));
            let roots = std::mem::take(&mut root).into_iter().enumerate();
            // the excitations are built `solver::BATCH` groups at a time
            let ws = run.chunks(solver::BATCH).flat_map(|chunk| {
                let thetas = excitations(basis, chunk);
                thetas
                    .into_iter()
                    .zip(chunk)
                    .map(|(theta, (group, m))| (Column::W(group, *m), theta))
            });
            let items = roots.map(|(j, v)| (Column::Root(j), v)).chain(ws);
            solver::for_each_batched(solver, items, |tags, y| {
                fwt.forward_block_into(y, &mut coef, &mut s1, &mut s2);
                // the root columns' estimates, then each source square's
                // tiles, one destination square at a time: the block's
                // first `W` group holds every square of the later ones
                let mut ws = Vec::with_capacity(tags.len());
                for (b, tag) in tags.into_iter().enumerate() {
                    match tag {
                        Column::Root(j) => {
                            for (i, &v) in coef.col(b).iter().enumerate() {
                                if v != 0.0 {
                                    sink.add(i, j, v);
                                }
                            }
                        }
                        Column::W(group, m) => ws.push((b, group, m)),
                    }
                }
                let Some(&(_, squares, _)) = ws.first() else { return };
                for &s in squares {
                    let count = basis.w_count(s);
                    for d in tree.local_descendants(s) {
                        let dst = basis.w_cols(d);
                        for &(b, _, m) in ws.iter().filter(|&&(_, _, m)| m < count) {
                            sink.add_tile(
                                basis.w_col(s, m),
                                dst.clone(),
                                &coef.col(b)[dst.clone()],
                            );
                        }
                    }
                }
            });
        }
    }
}

/// What one solved column excites: root `V` column `j`, or the sum of the
/// `m`-th `W` vectors of a group of squares.
enum Column<'a> {
    Root(usize),
    W(&'a [Square], usize),
}

/// The first `width` columns of a sparse `Q` as dense vectors, gathered
/// from its rows in one pass.
fn q_columns(q: &Csr, width: usize) -> Vec<Vec<f64>> {
    let mut cols = vec![vec![0.0; q.n_rows()]; width];
    for i in 0..q.n_rows() {
        let (js, vals) = q.row(i);
        for (&j, &v) in js.iter().zip(vals) {
            if (j as usize) < width {
                cols[j as usize][i] = v;
            }
        }
    }
    cols
}

/// The summed excitations of a chunk of one phase run's groups: item `b`
/// is the sum of the `m`-th `W` vectors of `chunk[b].0`'s squares.
///
/// A run's groups count `m` up by one, and group `m` holds the phase's
/// squares with more than `m` vectors, so the chunk's first group holds
/// every square of the others. Each contact of those squares gets one
/// search in its row of `Q`, which then yields its entries for every `m`
/// of the chunk in order. Each excitation entry gets one add (the squares
/// of a group are disjoint), so the voltages are `Q`'s entries, bit for
/// bit.
fn excitations(basis: &WaveletBasis, chunk: &[(Vec<Square>, usize)]) -> Vec<Vec<f64>> {
    let mut thetas = vec![vec![0.0; basis.n()]; chunk.len()];
    let Some((squares, m0)) = chunk.first() else { return thetas };
    debug_assert!(chunk.iter().enumerate().all(|(b, g)| g.1 == m0 + b), "m counts up by one");
    for &s in squares {
        // the columns of `s`'s vectors `m0..m0 + chunk.len()`
        let cols = basis.w_cols(s);
        let (lo, hi) = (cols.start + m0, (cols.start + m0 + chunk.len()).min(cols.end));
        for &ci in basis.tree().contacts_in_square(s) {
            let (js, vals) = basis.q().row(ci as usize);
            let k = js.partition_point(|&j| (j as usize) < lo);
            for (&j, &v) in js[k..].iter().zip(&vals[k..]).take_while(|(&j, _)| (j as usize) < hi) {
                thetas[j as usize - lo][ci as usize] += v;
            }
        }
    }
    thetas
}

/// Transforms a dense `G` exactly into the wavelet basis: `Gw = Q' G Q`.
///
/// This is the `n`-solve reference against which the combine-solves
/// extraction is validated, and the basis of the "drop small entries of
/// `Gw` versus drop small entries of `G`" comparison of §3.7. It holds
/// two `n x n` matrices, so it is a small-`n` test reference: the scaling
/// bench gates [`extract`]'s `Gw` against it on the kept pattern.
pub fn transform_dense(g: &Mat, basis: &WaveletBasis) -> Mat {
    let n = basis.n();
    assert_eq!(g.n_rows(), n);
    assert_eq!(g.n_cols(), n);
    let q = basis.q();
    let mut gw = Mat::zeros(n, n);
    for (j, qj) in q_columns(q, n).iter().enumerate() {
        gw.col_mut(j).copy_from_slice(&q.matvec_t(&g.matvec(qj)));
    }
    gw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::build_basis;
    use subsparse_layout::generators;
    use subsparse_substrate::{solver, CountingSolver};

    fn max_rel_err_on_exact(rep: &BasisRep, g: &Mat) -> f64 {
        let approx = rep.to_dense();
        let mut worst = 0.0_f64;
        for i in 0..g.n_rows() {
            for j in 0..g.n_cols() {
                let denom = g[(i, j)].abs();
                if denom > 0.0 {
                    worst = worst.max((approx[(i, j)] - g[(i, j)]).abs() / denom);
                }
            }
        }
        worst
    }

    #[test]
    fn combine_solves_uses_few_solves() {
        // finest squares hold 16 contacts (> 6 moment constraints), the
        // regime the thesis's complexity analysis assumes (§3.4.3: c > d)
        let layout = generators::regular_grid(128.0, 16, 2.0);
        let black_box = CountingSolver::new(solver::synthetic(&layout));
        let basis = build_basis(&layout, 2, 2).unwrap();
        let _ = extract(&black_box, &basis, &ExtractOptions::default());
        let n = layout.n_contacts();
        assert!(
            black_box.count() < (3 * n) / 4,
            "expected solve reduction: {} solves for n = {n}",
            black_box.count()
        );
    }

    #[test]
    fn extraction_is_accurate_on_regular_grid() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let basis = build_basis(&layout, 3, 2).unwrap();
        let rep = extract(&s, &basis, &ExtractOptions::default());
        let err = max_rel_err_on_exact(&rep, &g);
        assert!(err < 0.05, "max relative error {err} too large");
    }

    #[test]
    fn no_combining_matches_dense_transform_on_kept_pattern() {
        // the readout goes through the FWT and the reference through the
        // CSR Q, so the two agree to rounding
        let cases = [
            (generators::regular_grid(64.0, 4, 2.0), 2),
            (generators::irregular_same_size(128.0, 16, 2.0, 3), 3),
            (generators::irregular_same_size(128.0, 16, 2.0, 3), 4),
        ];
        for (layout, levels) in cases {
            let s = solver::synthetic(&layout);
            let g = s.matrix().clone();
            let basis = build_basis(&layout, levels, 2).unwrap();
            let rep = extract(&s, &basis, &ExtractOptions { spacing: 0 });
            let gw_exact = transform_dense(&g, &basis);
            // every *kept* entry must match the exact transform
            for (i, j, v) in rep.gw.iter() {
                let e = gw_exact[(i, j)];
                assert!(
                    (v - e).abs() <= 1e-12 * gw_exact.max_abs(),
                    "levels {levels}: kept entry ({i},{j}) = {v} differs from exact {e}"
                );
            }
        }
    }

    #[test]
    fn every_call_excites_one_phase_of_one_level() {
        /// Records the width and the support (entries that are not `+0.0`
        /// by bits, in any column) of every voltage block it is handed.
        struct Supports {
            inner: subsparse_substrate::DenseSolver,
            calls: std::cell::RefCell<Vec<(usize, Vec<bool>)>>,
        }
        impl Supports {
            fn record(&self, v: &Mat) {
                let mut support = vec![false; v.n_rows()];
                for j in 0..v.n_cols() {
                    for (s, x) in support.iter_mut().zip(v.col(j)) {
                        *s |= x.to_bits() != 0;
                    }
                }
                self.calls.borrow_mut().push((v.n_cols(), support));
            }
        }
        impl SubstrateSolver for Supports {
            fn n_contacts(&self) -> usize {
                self.inner.n_contacts()
            }
            fn solve(&self, v: &[f64]) -> Vec<f64> {
                self.record(&Mat::from_cols(&[v.to_vec()]));
                self.inner.solve(v)
            }
            fn solve_batch(&self, v: &Mat) -> Mat {
                self.record(v);
                self.inner.solve_batch(v)
            }
        }
        let layout = generators::irregular_same_size(128.0, 32, 1.0, 11);
        for levels in [3, 4] {
            let basis = build_basis(&layout, levels, 2).unwrap();
            let tree = basis.tree();
            let s = Supports { inner: solver::synthetic(&layout), calls: Default::default() };
            let options = ExtractOptions::default();
            let _ = extract(&s, &basis, &options);
            // is `support` exactly the contacts of some level-`l` squares
            // that share one phase `(ix mod k, iy mod k)`?
            let one_phase = |support: &[bool], l: usize| {
                let k = options.spacing.min(tree.side(l));
                let phase = |q: &Square| (q.ix as usize % k, q.iy as usize % k);
                let touched: Vec<Square> = tree
                    .squares(l)
                    .filter(|q| tree.contacts_in_square(*q).iter().any(|&c| support[c as usize]))
                    .collect();
                let mut covered = vec![false; support.len()];
                for q in &touched {
                    for &c in tree.contacts_in_square(*q) {
                        covered[c as usize] = true;
                    }
                }
                covered == support && touched.iter().all(|q| phase(q) == phase(&touched[0]))
            };
            let calls = s.calls.into_inner();
            assert!(calls.len() > 1, "levels {levels}: {} calls", calls.len());
            for (call, (width, support)) in calls.iter().enumerate() {
                assert!(*width <= solver::BATCH, "levels {levels}: call {call} has width {width}");
                assert!(
                    (0..=tree.finest()).any(|l| one_phase(support, l)),
                    "levels {levels}: call {call} (width {width}) spans more than one phase"
                );
            }
        }
    }

    #[test]
    fn kept_pattern_reconstructs_g_well() {
        // with spacing 0 (exact entries) the only error is the dropped
        // far-field pattern; QGwQ' must still be close to G
        let layout = generators::regular_grid(64.0, 4, 2.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let basis = build_basis(&layout, 2, 2).unwrap();
        let rep = extract(&s, &basis, &ExtractOptions { spacing: 0 });
        let approx = rep.to_dense();
        let mut diff = approx.clone();
        diff.add_scaled(-1.0, &g);
        assert!(diff.fro_norm() < 1e-2 * g.fro_norm());
    }

    #[test]
    fn gw_is_symmetric() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let basis = build_basis(&layout, 3, 2).unwrap();
        let rep = extract(&s, &basis, &ExtractOptions::default());
        let d = rep.gw.to_dense();
        for i in 0..d.n_rows() {
            for j in (i + 1)..d.n_cols() {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-12, "Gw not symmetric at ({i},{j})");
            }
        }
    }

    #[test]
    fn solve_count_grows_slowly() {
        // doubling the grid should grow solves much slower than n; finest
        // squares hold 16 contacts each (thesis regime c > d)
        let mut counts = Vec::new();
        for (k, levels) in [(8usize, 1usize), (16, 2), (32, 3)] {
            let layout = generators::regular_grid(128.0, k, 2.0);
            let bb = CountingSolver::new(solver::synthetic(&layout));
            let basis = build_basis(&layout, levels, 2).unwrap();
            let _ = extract(&bb, &basis, &ExtractOptions::default());
            counts.push((k * k, bb.count()));
        }
        let (n0, s0) = counts[0];
        let (n2, s2) = counts[2];
        let n_growth = n2 as f64 / n0 as f64; // 16x
        let s_growth = s2 as f64 / s0 as f64;
        assert!(
            s_growth < n_growth / 2.0,
            "solves grew {s_growth}x while n grew {n_growth}x: {counts:?}"
        );
        // at n = 1024 the reduction factor must match the thesis's ~2.9
        let (n, s) = counts[2];
        assert!((n as f64 / s as f64) > 2.0, "solve reduction {} at n = {n}", n as f64 / s as f64);
    }
}
