//! Construction of the multilevel vanishing-moment basis (thesis §3.4).
//!
//! Finest level: in each square `s`, the SVD of the moment matrix `M_s`
//! splits the square's voltage space into `V_s` (nonvanishing moments,
//! at most `(p+1)(p+2)/2` vectors) and `W_s` (vanishing moments). Coarser
//! levels recombine the children's `V` vectors by the SVD of their
//! translated moments (eq. 3.16). The zero-padded `W` columns of every
//! square plus the root `V` columns form the orthogonal sparse `Q`.
//!
//! The moments decide each square's block; [`TreeBasisBuilder`] numbers
//! the columns and builds `Q` and the fast wavelet transform from the
//! blocks, which live only while the basis is built. The built basis
//! keeps each square's column range and nothing `Q` or the transform
//! already holds.

use std::ops::Range;
use std::sync::Arc;

use subsparse_hier::moments::{moment_matrix, n_moments, translation_matrix};
use subsparse_hier::{
    BasisCols, FastWaveletTransform, HierError, Quadtree, Square, TreeBasisBuilder,
};
use subsparse_layout::Layout;
use subsparse_linalg::qr::orthonormal_completion;
use subsparse_linalg::svd::svd;
use subsparse_linalg::{trace, Csr, Mat};

/// Relative singular-value tolerance used to decide the rank of moment
/// matrices ("number of nonzero singular values", §3.4.1).
const RANK_TOL: f64 = 1e-10;

/// The multilevel wavelet basis: quadtree, each square's `W` columns, and
/// the sparse orthogonal `Q` with its fast transform, both shared with
/// the representations [`extract`](crate::extract()) builds.
#[derive(Clone, Debug)]
pub struct WaveletBasis {
    pub(crate) tree: Quadtree,
    cols: BasisCols,
    q: Arc<Csr>,
    fwt: Arc<FastWaveletTransform>,
}

impl WaveletBasis {
    /// Number of contacts (= number of basis vectors).
    pub fn n(&self) -> usize {
        self.q.n_rows()
    }

    /// The quadtree the basis is built on.
    pub fn tree(&self) -> &Quadtree {
        &self.tree
    }

    /// The sparse orthogonal change-of-basis matrix, as the shared handle
    /// a representation stores without copying.
    pub fn q(&self) -> &Arc<Csr> {
        &self.q
    }

    /// The tree-structured fast form of the same change of basis:
    /// applies `Q'`/`Q` in `O(n·p)` per vector by walking the quadtree
    /// level by level instead of traversing the flat CSR factors. This is
    /// the serving path [`extract`](crate::extract()) attaches to the
    /// representations it produces, as the shared handle they store.
    pub fn fwt(&self) -> &Arc<FastWaveletTransform> {
        &self.fwt
    }

    /// Number of coarsest-level nonvanishing basis vectors; they occupy
    /// columns `0..root_v()` of `Q`.
    pub fn root_v(&self) -> usize {
        self.cols.root_v()
    }

    /// Global `Q` column of the `m`-th vanishing basis vector of a square.
    pub fn w_col(&self, s: Square, m: usize) -> usize {
        self.cols.detail(s).start + m
    }

    /// The contiguous `Q` columns of a square's vanishing basis vectors
    /// (empty when it has none).
    pub fn w_cols(&self, s: Square) -> Range<usize> {
        self.cols.detail(s)
    }

    /// Number of vanishing basis vectors in a square.
    pub fn w_count(&self, s: Square) -> usize {
        self.cols.detail(s).len()
    }

    /// The `m`-th vanishing basis vector of `s` in the square's contact
    /// coordinates (entry `r` belongs to `tree().contacts_in_square(s)[r]`),
    /// gathered from `Q`'s rows: one search in each contact's row. `Q`
    /// stores no zeros, so an entry it skips is `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= w_count(s)`.
    pub fn w_column(&self, s: Square, m: usize) -> Vec<f64> {
        assert!(m < self.w_count(s), "square {s:?} has no W vector {m}");
        let col = self.w_col(s, m) as u32;
        let cs = self.tree.contacts_in_square(s);
        let mut out = vec![0.0; cs.len()];
        for (o, &ci) in out.iter_mut().zip(cs) {
            let (js, vals) = self.q.row(ci as usize);
            if let Ok(k) = js.binary_search(&col) {
                *o = vals[k];
            }
        }
        out
    }
}

/// The vanishing-moment order `p` the thesis uses (§3.2.1), and the one
/// every extraction pipeline builds its basis with.
pub const MOMENT_ORDER: usize = 2;

/// Builds the wavelet basis for a layout.
///
/// `levels` is the quadtree depth (finest squares `2^levels` per side) and
/// `p` the vanishing-moment order (the thesis uses [`MOMENT_ORDER`]).
///
/// # Errors
///
/// Returns an error if a contact crosses a finest-square boundary (split
/// the layout first) or the layout is empty.
pub fn build_basis(layout: &Layout, levels: usize, p: usize) -> Result<WaveletBasis, HierError> {
    let _s = trace::span("extract.wavelet.basis-build");
    let tree = Quadtree::new(layout, levels)?;
    let d = n_moments(p);
    let finest = tree.finest();
    let mut blocks = TreeBasisBuilder::new(&tree, 0);
    // `[level][flat square]`: moments of each square's `V` columns about
    // its center (`d x v_s`)
    let mut cm: Vec<Vec<Mat>> =
        (0..=finest).map(|l| vec![Mat::zeros(d, 0); tree.side(l) * tree.side(l)]).collect();

    // ---- finest level: SVD of the moment matrices (eq. 3.14/3.15)
    for s in tree.squares(finest) {
        let cs = tree.contacts_in_square(s);
        if cs.is_empty() {
            continue;
        }
        let contacts: Vec<&subsparse_layout::Contact> =
            cs.iter().map(|&ci| &layout.contacts()[ci as usize]).collect();
        let m = moment_matrix(&contacts, tree.center(s), p);
        let f = svd(&m);
        let rank = f.rank(RANK_TOL, None);
        let v = f.v.col_block(0, rank);
        // cm = M * V = U_r * Sigma_r
        cm[finest][s.flat()] = m.matmul(&v);
        let w = orthonormal_completion(&v);
        blocks.set_finest(s, v.hcat(&w), rank);
    }

    // ---- coarser levels: recombine child V's (eq. 3.16)
    for l in (0..finest).rev() {
        for s in tree.squares(l) {
            if tree.contacts_in_square(s).is_empty() {
                continue;
            }
            let center = tree.center(s);
            // A = M_p X = [T_1 cm_1 | ... | T_4 cm_4]  (d x total_v)
            let total_v: usize = s.children().iter().map(|c| cm[l + 1][c.flat()].n_cols()).sum();
            if total_v == 0 {
                // children are all empty of V vectors (can only happen if
                // the square itself has no contacts, handled above)
                continue;
            }
            let mut a = Mat::zeros(d, total_v);
            let mut col = 0;
            for c in s.children() {
                let ccm = &cm[l + 1][c.flat()];
                if ccm.n_cols() == 0 {
                    continue;
                }
                let shifted = translation_matrix(tree.center(c), center, p).matmul(ccm);
                for j in 0..shifted.n_cols() {
                    a.col_mut(col + j).copy_from_slice(shifted.col(j));
                }
                col += shifted.n_cols();
            }
            let f = svd(&a);
            let rank = f.rank(RANK_TOL, None);
            let tcoef = f.v.col_block(0, rank);
            let rcoef = orthonormal_completion(&tcoef);
            cm[l][s.flat()] = a.matmul(&tcoef);
            // the coefficient-space `[T | R]` is the square's step of the
            // fast wavelet transform
            let x = blocks.child_scaling(s);
            blocks.set_coarse(s, &x, tcoef.hcat(&rcoef), rank);
        }
    }

    drop(cm);
    let (cols, q) = blocks.columns_and_q();
    let fwt = blocks.into_transform(&cols);
    Ok(WaveletBasis { tree, cols, q: Arc::new(q), fwt: Arc::new(fwt) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_hier::moments::contact_moments;
    use subsparse_layout::generators;

    fn basis64() -> (Layout, WaveletBasis) {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let basis = build_basis(&layout, 3, 2).unwrap();
        (layout, basis)
    }

    #[test]
    fn q_is_orthogonal() {
        let (_, basis) = basis64();
        let qd = basis.q().to_dense();
        let qtq = qd.matmul_tn(&qd);
        for i in 0..64 {
            for j in 0..64 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (qtq[(i, j)] - expect).abs() < 1e-9,
                    "Q'Q differs from I at ({i},{j}): {}",
                    qtq[(i, j)]
                );
            }
        }
    }

    #[test]
    fn column_count_and_root() {
        let (_, basis) = basis64();
        assert_eq!(basis.q().n_cols(), 64);
        // with p=2 there are at most 6 root nonvanishing vectors
        assert!(basis.root_v() <= 6 && basis.root_v() > 0);
    }

    #[test]
    fn w_columns_have_vanishing_moments() {
        let (layout, basis) = basis64();
        let tree = basis.tree();
        for l in 0..=tree.finest() {
            for s in tree.squares(l) {
                let cs = tree.contacts_in_square(s);
                let center = tree.center(s);
                for j in 0..basis.w_count(s) {
                    // moments of the voltage function sum_i w_i chi_i
                    let w = basis.w_column(s, j);
                    let mut m = [0.0; 6];
                    for (r, &ci) in cs.iter().enumerate() {
                        let cm = contact_moments(&layout.contacts()[ci as usize], center, 2);
                        for (k, v) in cm.iter().enumerate() {
                            m[k] += w[r] * v;
                        }
                    }
                    for (k, v) in m.iter().enumerate() {
                        assert!(
                            v.abs() < 1e-6,
                            "moment {k} of W column {j} in {s:?} is {v}, expected 0"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn q_is_sparse() {
        let layout = generators::regular_grid(128.0, 16, 2.0); // 256 contacts
        let basis = build_basis(&layout, 4, 2).unwrap();
        // thesis: Q sparsity at least ~15 for the real examples; even this
        // small case must be clearly sparse
        assert!(
            basis.q().sparsity_factor() > 4.0,
            "Q sparsity factor {}",
            basis.q().sparsity_factor()
        );
    }

    #[test]
    fn haar_case_p0() {
        // with p = 0 on a 2x2 grid of equal contacts the construction is
        // the Haar wavelet: root V column is the normalized all-ones vector
        let layout = generators::regular_grid(16.0, 2, 4.0);
        let basis = build_basis(&layout, 1, 0).unwrap();
        assert_eq!(basis.root_v(), 1);
        let qd = basis.q().to_dense();
        for i in 0..4 {
            assert!((qd[(i, 0)].abs() - 0.5).abs() < 1e-12, "root column should be +-1/2");
        }
    }

    #[test]
    fn irregular_layout_builds() {
        let layout = generators::irregular_same_size(128.0, 16, 2.0, 3);
        let n = layout.n_contacts();
        let basis = build_basis(&layout, 4, 2).unwrap();
        assert_eq!(basis.q().n_cols(), n);
        let qd = basis.q().to_dense();
        let qtq = qd.matmul_tn(&qd);
        for i in 0..n {
            assert!((qtq[(i, i)] - 1.0).abs() < 1e-9);
        }
    }
}
