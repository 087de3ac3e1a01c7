//! One quadtree orthogonal basis, numbered and stored one way for both
//! methods.
//!
//! The wavelet basis (thesis §3.4) and the low-rank sweep (§4.4) build
//! `Q` from the same two kinds of square block: at the finest level an
//! orthogonal `[V | W]` in the square's contact coordinates, above it an
//! orthogonal `[T | R]` over the children's stacked scaling vectors `X`,
//! which makes `X [T | R]` the square's vectors. A method computes the
//! blocks (from moments, or from sampled responses); [`TreeBasisBuilder`]
//! decides how the basis is numbered and stored:
//!
//! * the column order ([`BasisCols`]): the top level's scaling columns,
//!   then each square's detail columns level by level from the top,
//!   squares in Morton order (§3.7.1);
//! * the explicit `Q`, its CSR rows written directly;
//! * the [`FastWaveletTransform`], which holds each block once.

use std::ops::Range;

use subsparse_linalg::{Csr, Mat};

use crate::fwt::{FastWaveletTransform, FwtLevel, FwtNode};
use crate::tree::{Quadtree, Square};

/// One square's block while the basis is built.
#[derive(Clone, Debug)]
struct Block {
    /// `[V | W]` in the square's contact coordinates.
    basis: Mat,
    /// Number of scaling columns.
    v: usize,
    /// Above the finest level, `[T | R]`: the square's step of the
    /// transform (at the finest level the step is `basis`).
    coef: Mat,
}

impl Block {
    fn w(&self) -> usize {
        self.basis.n_cols() - self.v
    }

    fn step(&self) -> &Mat {
        if self.coef.is_empty() {
            &self.basis
        } else {
            &self.coef
        }
    }
}

/// Collects a quadtree basis square by square, finest level first; then
/// [`columns_and_q`](Self::columns_and_q) numbers its columns and writes
/// `Q`, and [`into_transform`](Self::into_transform) turns the blocks
/// into the fast transform.
///
/// Levels `top..=finest` carry blocks: the top level's scaling vectors
/// are columns of `Q`, every other level's pass up to the parent. A
/// square without contacts, or whose children pass up nothing, has no
/// block.
#[derive(Debug)]
pub struct TreeBasisBuilder<'t> {
    tree: &'t Quadtree,
    top: usize,
    /// `[level - top][flat square]`
    blocks: Vec<Vec<Block>>,
}

impl<'t> TreeBasisBuilder<'t> {
    /// An empty builder over levels `top..=tree.finest()`.
    pub fn new(tree: &'t Quadtree, top: usize) -> Self {
        let empty = Block { basis: Mat::zeros(0, 0), v: 0, coef: Mat::zeros(0, 0) };
        let blocks = (top..=tree.finest())
            .map(|l| vec![empty.clone(); tree.side(l) * tree.side(l)])
            .collect();
        TreeBasisBuilder { tree, top, blocks }
    }

    fn at(&self, s: Square) -> &Block {
        &self.blocks[s.level as usize - self.top][s.flat()]
    }

    /// Sets a finest square's `[V | W]`, `v` scaling columns first.
    pub fn set_finest(&mut self, s: Square, basis: Mat, v: usize) {
        assert_eq!(basis.n_rows(), self.tree.contacts_in_square(s).len(), "{s:?}");
        self.blocks[s.level as usize - self.top][s.flat()] =
            Block { basis, v, coef: Mat::zeros(0, 0) };
    }

    /// The children's scaling vectors stacked in `s`'s contact coordinates
    /// (`X`): children in [`Square::children`] order, which is Morton
    /// order.
    pub fn child_scaling(&self, s: Square) -> Mat {
        let pcs = self.tree.contacts_in_square(s);
        let total: usize = s.children().iter().map(|&c| self.at(c).v).sum();
        let mut x = Mat::zeros(pcs.len(), total);
        let mut col = 0;
        for c in s.children() {
            let cb = self.at(c);
            let rows: Vec<usize> = (self.tree.contacts_in_square(c).iter())
                .map(|ci| pcs.binary_search(ci).expect("child contact in the parent square"))
                .collect();
            for j in 0..cb.v {
                let (src, dst) = (cb.basis.col(j), x.col_mut(col + j));
                for (r, &pr) in rows.iter().enumerate() {
                    dst[pr] = src[r];
                }
            }
            col += cb.v;
        }
        x
    }

    /// Sets a coarser square's `coef = [T | R]`, `v` scaling columns
    /// first, over `x` = [`child_scaling(s)`](Self::child_scaling): the
    /// square's vectors are `x coef`.
    pub fn set_coarse(&mut self, s: Square, x: &Mat, coef: Mat, v: usize) {
        let basis = x.matmul(&coef);
        self.blocks[s.level as usize - self.top][s.flat()] = Block { basis, v, coef };
    }

    /// A square's `[V | W]` in its contact coordinates and its number of
    /// scaling columns (empty and 0 without a block).
    pub fn block(&self, s: Square) -> (&Mat, usize) {
        let b = self.at(s);
        (&b.basis, b.v)
    }

    /// Numbers the columns and writes `Q`.
    ///
    /// # Panics
    ///
    /// Panics unless the blocks give exactly one column per contact.
    pub fn columns_and_q(&self) -> (BasisCols, Csr) {
        let cols = self.number();
        let q = self.write_q(&cols);
        (cols, q)
    }

    fn number(&self) -> BasisCols {
        let mut scaling = vec![0..0; self.blocks[0].len()];
        let mut next = 0;
        for s in self.tree.squares_morton(self.top) {
            scaling[s.flat()] = next..next + self.at(s).v;
            next += self.at(s).v;
        }
        let root_v = next;
        let mut detail: Vec<Vec<Range<usize>>> =
            self.blocks.iter().map(|level| vec![0..0; level.len()]).collect();
        for l in self.top..=self.tree.finest() {
            for s in self.tree.squares_morton(l) {
                let w = self.at(s).w();
                if w > 0 {
                    detail[l - self.top][s.flat()] = next..next + w;
                    next += w;
                }
            }
        }
        let n = self.tree.n_contacts();
        assert_eq!(next, n, "basis must have exactly n columns (got {next} of {n})");
        BasisCols { top: self.top, root_v, scaling, detail }
    }

    /// Writes `Q`'s CSR arrays directly, with no triplets and no sort.
    ///
    /// Row `ci` holds its top square's scaling columns, then the detail
    /// columns of each square holding `ci`, from the top level down: that
    /// is ascending column order. Exact `±0.0` is skipped, as
    /// `Triplets::push` skips it. One pass counts each row's entries and a
    /// second writes them, with `indptr[ci]` as row `ci`'s cursor (as
    /// `Csr::transpose` does).
    fn write_q(&self, cols: &BasisCols) -> Csr {
        let n = self.tree.n_contacts();
        let mut indptr = vec![0usize; n + 1];
        self.for_each_q_block(cols, |cs, m, js, _| {
            for (r, &ci) in cs.iter().enumerate() {
                indptr[ci as usize + 1] += js.clone().filter(|&j| m[(r, j)] != 0.0).count();
            }
        });
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let nnz = indptr[n];
        let (mut indices, mut data) = (vec![0u32; nnz], vec![0.0; nnz]);
        self.for_each_q_block(cols, |cs, m, js, first| {
            for (r, &ci) in cs.iter().enumerate() {
                let k = &mut indptr[ci as usize];
                for j in js.clone() {
                    let v = m[(r, j)];
                    if v != 0.0 {
                        (indices[*k], data[*k]) = ((first + j - js.start) as u32, v);
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

    /// Calls `f(contacts, basis, its columns, their first Q column)` for
    /// each top square's scaling columns, then each square's detail
    /// columns, from the top level down.
    fn for_each_q_block(
        &self,
        cols: &BasisCols,
        mut f: impl FnMut(&[u32], &Mat, Range<usize>, usize),
    ) {
        let tree = self.tree;
        for s in tree.squares(self.top) {
            let b = self.at(s);
            f(tree.contacts_in_square(s), &b.basis, 0..b.v, cols.scaling(s).start);
        }
        for l in self.top..=tree.finest() {
            for s in tree.squares(l) {
                let b = self.at(s);
                f(
                    tree.contacts_in_square(s),
                    &b.basis,
                    b.v..b.basis.n_cols(),
                    cols.detail(s).start,
                );
            }
        }
    }

    /// The fast transform of the basis `cols` numbers, which takes the
    /// blocks over: levels finest first, squares in Morton order. A
    /// square's inputs are its contacts at the finest level and its
    /// children's scaling coefficients above it; in Morton order those
    /// sit consecutively in the finer level's buffer, so each level
    /// gathers its inputs in one contiguous sweep.
    pub fn into_transform(self, cols: &BasisCols) -> FastWaveletTransform {
        let (tree, n) = (self.tree, self.tree.n_contacts());
        let mut contact_idx: Vec<u32> = Vec::with_capacity(n);
        let stored = self.blocks.iter().flatten().map(|b| b.step().data().len()).sum();
        let mut blocks: Vec<f64> = Vec::with_capacity(stored);
        let mut levels = Vec::with_capacity(self.blocks.len());
        for l in (self.top..=tree.finest()).rev() {
            let (mut nodes, mut in_offset, mut out_offset) = (Vec::new(), 0, 0);
            for s in tree.squares_morton(l) {
                let b = self.at(s);
                let step = b.step();
                if step.is_empty() {
                    continue;
                }
                if l == tree.finest() {
                    contact_idx.extend_from_slice(tree.contacts_in_square(s));
                }
                nodes.push(FwtNode {
                    in_offset,
                    in_len: step.n_rows(),
                    v_cols: b.v,
                    w_cols: b.w(),
                    out_offset,
                    col_start: if b.w() > 0 { cols.detail(s).start } else { usize::MAX },
                    block_offset: blocks.len(),
                });
                blocks.extend_from_slice(step.data());
                in_offset += step.n_rows();
                out_offset += b.v;
            }
            levels.push(FwtLevel { nodes, coeff_len: out_offset });
        }
        FastWaveletTransform::from_parts(n, cols.root_v, levels, contact_idx, blocks)
            .expect("the basis blocks must form a consistent transform")
    }
}

/// Where each square's columns sit in `Q`: the top level's scaling
/// columns `0..root_v`, then each square's detail columns level by level
/// from the top, squares in Morton order.
#[derive(Clone, Debug)]
pub struct BasisCols {
    top: usize,
    root_v: usize,
    /// Top-level squares' scaling columns, by flat index.
    scaling: Vec<Range<usize>>,
    /// `[level - top][flat square]`: detail columns.
    detail: Vec<Vec<Range<usize>>>,
}

impl BasisCols {
    /// Number of top-level scaling columns (they occupy `0..root_v`).
    pub fn root_v(&self) -> usize {
        self.root_v
    }

    /// A top-level square's scaling columns (empty on other levels).
    pub fn scaling(&self, s: Square) -> Range<usize> {
        if s.level as usize == self.top {
            self.scaling[s.flat()].clone()
        } else {
            0..0
        }
    }

    /// A square's detail columns (empty without any, and above the top
    /// level).
    pub fn detail(&self, s: Square) -> Range<usize> {
        match (s.level as usize).checked_sub(self.top) {
            Some(l) => self.detail[l][s.flat()].clone(),
            None => 0..0,
        }
    }
}
