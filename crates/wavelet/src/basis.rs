//! Construction of the multilevel vanishing-moment basis (thesis §3.4).
//!
//! Finest level: in each square `s`, the SVD of the moment matrix `M_s`
//! splits the square's voltage space into `V_s` (nonvanishing moments,
//! at most `(p+1)(p+2)/2` vectors) and `W_s` (vanishing moments). Coarser
//! levels recombine the children's `V` vectors by the SVD of their
//! translated moments (eq. 3.16). The zero-padded `W` columns of every
//! square plus the root `V` columns form the orthogonal sparse `Q`.
//!
//! The per-square factors live only while the basis is built: `Q` holds
//! every `W` column and the root `V` columns, and the fast wavelet
//! transform holds every square's `[V|W]` or `[T|R]` block, so the built
//! basis keeps each square's column range and nothing it would duplicate.

use std::ops::Range;
use std::sync::Arc;

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::moments::{moment_matrix, n_moments, translation_matrix};
use subsparse_hier::{FastWaveletTransform, HierError, Quadtree, Square};
use subsparse_layout::Layout;
use subsparse_linalg::qr::orthonormal_completion;
use subsparse_linalg::svd::svd;
use subsparse_linalg::{trace, Csr, Mat};

/// Relative singular-value tolerance used to decide the rank of moment
/// matrices ("number of nonzero singular values", §3.4.1).
const RANK_TOL: f64 = 1e-10;

/// Per-square factors of the basis construction.
#[derive(Clone, Debug)]
struct SquareBasis {
    /// Nonvanishing-moment basis `V_s` in the square's contact coordinates
    /// (`n_s x v_s`).
    v: Mat,
    /// Vanishing-moment basis `W_s` (`n_s x w_s`).
    w: Mat,
    /// Moments of the `V_s` columns about the square center (`d x v_s`).
    cm: Mat,
    /// Coefficient-space transform `T_s` producing `V_s` from the
    /// children's scaling coefficients (`total_v x v_s`; empty at the
    /// finest level, where `v` itself is the transform).
    tc: Mat,
    /// Coefficient-space complement `R_s` producing `W_s`
    /// (`total_v x w_s`; empty at the finest level).
    rc: Mat,
    /// Global column index of this square's first `W` column in `Q`.
    col_start: usize,
}

/// A square's `W` columns in `Q`: `col_start..col_start + w`.
#[derive(Clone, Copy, Debug)]
struct SquareCols {
    col_start: usize,
    w: usize,
}

/// The multilevel wavelet basis: quadtree, each square's `W` columns, and
/// the sparse orthogonal `Q` with its fast transform, both shared with
/// the representations [`extract`](crate::extract()) builds.
#[derive(Clone, Debug)]
pub struct WaveletBasis {
    pub(crate) tree: Quadtree,
    n: usize,
    /// `[level][flat square]`
    squares: Vec<Vec<SquareCols>>,
    /// Number of root nonvanishing columns (they occupy columns `0..root_v`).
    pub(crate) root_v: usize,
    q: Arc<Csr>,
    fwt: Arc<FastWaveletTransform>,
}

impl WaveletBasis {
    /// Number of contacts (= number of basis vectors).
    pub fn n(&self) -> usize {
        self.n
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
        self.root_v
    }

    /// Global `Q` column of the `m`-th vanishing basis vector of a square.
    pub fn w_col(&self, s: Square, m: usize) -> usize {
        self.squares[s.level as usize][s.flat()].col_start + m
    }

    /// The contiguous `Q` columns of a square's vanishing basis vectors
    /// (empty when it has none).
    pub fn w_cols(&self, s: Square) -> Range<usize> {
        let sb = self.squares[s.level as usize][s.flat()];
        match sb.w {
            0 => 0..0,
            w => sb.col_start..sb.col_start + w,
        }
    }

    /// Number of vanishing basis vectors in a square.
    pub fn w_count(&self, s: Square) -> usize {
        self.squares[s.level as usize][s.flat()].w
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
    let n = layout.n_contacts();
    let d = n_moments(p);
    let finest = tree.finest();

    let mut squares: Vec<Vec<SquareBasis>> = Vec::with_capacity(finest + 1);
    for l in 0..=finest {
        let k = tree.side(l);
        squares.push(vec![
            SquareBasis {
                v: Mat::zeros(0, 0),
                w: Mat::zeros(0, 0),
                cm: Mat::zeros(d, 0),
                tc: Mat::zeros(0, 0),
                rc: Mat::zeros(0, 0),
                col_start: usize::MAX,
            };
            k * k
        ]);
    }

    // ---- finest level: SVD of the moment matrices (eq. 3.14/3.15)
    for s in tree.squares(finest).collect::<Vec<_>>() {
        let cs = tree.contacts_in_square(s);
        if cs.is_empty() {
            continue;
        }
        let contacts: Vec<&subsparse_layout::Contact> =
            cs.iter().map(|&ci| &layout.contacts()[ci as usize]).collect();
        let center = tree.center(s);
        let m = moment_matrix(&contacts, center, p);
        let f = svd(&m);
        let rank = f.rank(RANK_TOL, None);
        let v = f.v.col_block(0, rank);
        let w = orthonormal_completion(&v);
        // cm = M * V = U_r * Sigma_r
        let cm = m.matmul(&v);
        squares[finest][s.flat()] = SquareBasis {
            v,
            w,
            cm,
            tc: Mat::zeros(0, 0),
            rc: Mat::zeros(0, 0),
            col_start: usize::MAX,
        };
    }

    // ---- coarser levels: recombine child V's (eq. 3.16)
    for l in (0..finest).rev() {
        for s in tree.squares(l).collect::<Vec<_>>() {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let center = tree.center(s);
            // collect child blocks
            let mut total_v = 0;
            let children = s.children();
            for c in &children {
                total_v += squares[l + 1][c.flat()].v.n_cols();
            }
            if total_v == 0 {
                // children are all empty of V vectors (can only happen if
                // the square itself has no contacts, handled above)
                continue;
            }
            // A = M_p X = [T_1 cm_1 | ... | T_4 cm_4]  (d x total_v)
            let mut a = Mat::zeros(d, total_v);
            let mut col = 0;
            for c in &children {
                let cb = &squares[l + 1][c.flat()];
                if cb.v.n_cols() == 0 {
                    continue;
                }
                let t = translation_matrix(tree.center(*c), center, p);
                let shifted = t.matmul(&cb.cm);
                for j in 0..shifted.n_cols() {
                    a.col_mut(col + j).copy_from_slice(shifted.col(j));
                }
                col += shifted.n_cols();
            }
            let f = svd(&a);
            let rank = f.rank(RANK_TOL, None);
            let tcoef = f.v.col_block(0, rank);
            let rcoef = orthonormal_completion(&tcoef);
            // build X in the parent's contact coordinates
            let x = build_child_block(&tree, layout, s, &squares[l + 1]);
            let v = x.matmul(&tcoef);
            let w = x.matmul(&rcoef);
            let cm = a.matmul(&tcoef);
            // the coefficient-space transforms are kept: they ARE the
            // square's step of the fast wavelet transform
            squares[l][s.flat()] =
                SquareBasis { v, w, cm, tc: tcoef, rc: rcoef, col_start: usize::MAX };
        }
    }

    // ---- assign column ordering: root V first, then W level by level in
    // Morton (quadrant-hierarchical) order (§3.7.1)
    let root_v = squares[0][0].v.n_cols();
    let mut next_col = root_v;
    for l in 0..=finest {
        for s in tree.squares_morton(l) {
            let sb = &mut squares[l][s.flat()];
            if sb.w.n_cols() > 0 {
                sb.col_start = next_col;
                next_col += sb.w.n_cols();
            }
        }
    }
    assert_eq!(next_col, n, "basis must have exactly n columns (got {next_col} of {n})");

    let q = assemble_q(&tree, &squares, n);
    let fwt = build_fwt(&tree, &squares, n, root_v);
    let squares = squares
        .iter()
        .map(|level| {
            level
                .iter()
                .map(|sb| SquareCols { col_start: sb.col_start, w: sb.w.n_cols() })
                .collect()
        })
        .collect();

    Ok(WaveletBasis { tree, n, squares, root_v, q: Arc::new(q), fwt: Arc::new(fwt) })
}

/// Writes `Q`'s CSR arrays directly, with no triplets and no sort.
///
/// Row `ci` of `Q` holds the root `V` columns, then the `W` columns of each
/// square holding contact `ci`, coarsest level first: columns are numbered
/// root `V` first, then `W` level by level, so that is ascending column
/// order. Exact `±0.0` entries are skipped, as `Triplets::push` skips them.
/// One pass counts each row's entries, and a second writes them, with
/// `indptr[ci]` as row `ci`'s cursor (as `Csr::transpose` does).
fn assemble_q(tree: &Quadtree, squares: &[Vec<SquareBasis>], n: usize) -> Csr {
    // calls `f(contacts, block, first column)` for the root `V` block and
    // each square's `W` block, coarsest level first
    let for_each_block = |f: &mut dyn FnMut(&[u32], &Mat, usize)| {
        f(tree.contacts_in(0, 0, 0), &squares[0][0].v, 0);
        for (l, level) in squares.iter().enumerate() {
            for s in tree.squares(l) {
                let sb = &level[s.flat()];
                if sb.w.n_cols() > 0 {
                    f(tree.contacts_in_square(s), &sb.w, sb.col_start);
                }
            }
        }
    };
    let mut indptr = vec![0usize; n + 1];
    for_each_block(&mut |cs, m, _| {
        for (r, &ci) in cs.iter().enumerate() {
            indptr[ci as usize + 1] += (0..m.n_cols()).filter(|&j| m[(r, j)] != 0.0).count();
        }
    });
    for i in 0..n {
        indptr[i + 1] += indptr[i];
    }
    let nnz = indptr[n];
    let (mut indices, mut data) = (vec![0u32; nnz], vec![0.0; nnz]);
    for_each_block(&mut |cs, m, col0| {
        for (r, &ci) in cs.iter().enumerate() {
            let k = &mut indptr[ci as usize];
            for j in 0..m.n_cols() {
                let v = m[(r, j)];
                if v != 0.0 {
                    (indices[*k], data[*k]) = ((col0 + j) as u32, v);
                    *k += 1;
                }
            }
        }
    });
    // each cursor now sits at the start of the next row
    indptr.copy_within(0..n, 1);
    indptr[0] = 0;
    Csr::from_parts(n, n, indptr, indices, data)
}

/// Assembles the tree-structured fast transform from the per-square
/// blocks the basis construction just computed: finest-level `[V_s|W_s]`
/// in contact coordinates, coarser `[T_s|R_s]` in child-coefficient
/// coordinates.
///
/// Squares are laid out in Morton order per level, which makes the four
/// children of any square occupy one contiguous run of the finer level's
/// coefficient buffer — a coarse square's gather is then a plain slice.
fn build_fwt(
    tree: &Quadtree,
    squares: &[Vec<SquareBasis>],
    n: usize,
    root_v: usize,
) -> FastWaveletTransform {
    let finest = tree.finest();
    let mut levels = Vec::with_capacity(finest + 1);
    let mut contact_idx: Vec<u32> = Vec::with_capacity(n);
    let mut blocks: Vec<f64> = Vec::new();
    // per finer-level square: its scaling-coefficient offset and count
    let mut child_off: Vec<usize> = Vec::new();
    let mut child_v: Vec<usize> = Vec::new();
    for l in (0..=finest).rev() {
        let side = tree.side(l);
        let mut nodes = Vec::new();
        let mut off = 0usize;
        let mut this_off = vec![usize::MAX; side * side];
        let mut this_v = vec![0usize; side * side];
        for s in tree.squares_morton(l) {
            let sb = &squares[l][s.flat()];
            let (in_offset, in_len) = if l == finest {
                let cs = tree.contacts_in_square(s);
                if cs.is_empty() {
                    continue;
                }
                let io = contact_idx.len();
                contact_idx.extend_from_slice(cs);
                blocks.extend_from_slice(sb.v.data());
                blocks.extend_from_slice(sb.w.data());
                (io, cs.len())
            } else {
                // the children sit consecutively, in `children()` order,
                // in the finer level's Morton-ordered buffer
                let mut io = usize::MAX;
                let mut total = 0usize;
                for c in s.children() {
                    let co = child_off[c.flat()];
                    if co != usize::MAX {
                        if io == usize::MAX {
                            io = co;
                        }
                        debug_assert_eq!(co, io + total, "children not contiguous under {s:?}");
                        total += child_v[c.flat()];
                    }
                }
                if total == 0 {
                    continue;
                }
                debug_assert_eq!(sb.tc.n_rows(), total, "transform height mismatch at {s:?}");
                blocks.extend_from_slice(sb.tc.data());
                blocks.extend_from_slice(sb.rc.data());
                (io, total)
            };
            let v_cols = sb.v.n_cols();
            let w_cols = sb.w.n_cols();
            let block_offset = blocks.len() - in_len * (v_cols + w_cols);
            nodes.push(FwtNode {
                in_offset,
                in_len,
                v_cols,
                w_cols,
                out_offset: off,
                col_start: sb.col_start,
                block_offset,
            });
            this_off[s.flat()] = off;
            this_v[s.flat()] = v_cols;
            off += v_cols;
        }
        levels.push(FwtLevel { nodes, coeff_len: off });
        child_off = this_off;
        child_v = this_v;
    }
    FastWaveletTransform::from_parts(n, root_v, levels, contact_idx, blocks)
        .expect("basis construction must produce a consistent transform")
}

/// Builds the block matrix `X` whose columns are the children's `V`
/// vectors expressed in the parent square's contact coordinates.
fn build_child_block(
    tree: &Quadtree,
    _layout: &Layout,
    parent: Square,
    child_bases: &[SquareBasis],
) -> Mat {
    let pcs = tree.contacts_in_square(parent);
    let index_of = |ci: u32| -> usize {
        pcs.binary_search(&ci).expect("child contact must be in the parent square")
    };
    let total_v: usize = parent.children().iter().map(|c| child_bases[c.flat()].v.n_cols()).sum();
    let mut x = Mat::zeros(pcs.len(), total_v);
    let mut col = 0;
    for c in parent.children() {
        let cb = &child_bases[c.flat()];
        if cb.v.n_cols() == 0 {
            continue;
        }
        let ccs = tree.contacts_in_square(c);
        let rows: Vec<usize> = ccs.iter().map(|&ci| index_of(ci)).collect();
        for j in 0..cb.v.n_cols() {
            let src = cb.v.col(j);
            let dst = x.col_mut(col + j);
            for (r, &pr) in rows.iter().enumerate() {
                dst[pr] = src[r];
            }
        }
        col += cb.v.n_cols();
    }
    x
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
        assert!(basis.root_v <= 6 && basis.root_v > 0);
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
        assert_eq!(basis.root_v, 1);
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
