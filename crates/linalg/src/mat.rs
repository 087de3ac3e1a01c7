//! Column-major dense matrices and small vector kernels.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernels;

/// Dense column-major `f64` matrix.
///
/// Column-major storage is chosen because the extraction algorithms
/// constantly slice out and orthogonalize *columns* (basis vectors, matrix
/// responses `G(:, j)`), which become contiguous `&[f64]` slices.
///
/// # Example
///
/// ```
/// use subsparse_linalg::Mat;
/// let mut a = Mat::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// let y = a.matvec(&[3.0, 4.0]);
/// assert_eq!(y, vec![3.0, 8.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Mat {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates an `n_rows x n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Mat { n_rows, n_cols, data: vec![0.0; n_rows * n_cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(n_rows: usize, n_cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(n_rows, n_cols);
        for j in 0..n_cols {
            for i in 0..n_rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let n_rows = rows.len();
        let n_cols = if n_rows == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), n_cols, "inconsistent row lengths");
        }
        Mat::from_fn(n_rows, n_cols, |i, j| rows[i][j])
    }

    /// Builds a matrix whose columns are the given vectors.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths.
    pub fn from_cols(cols: &[Vec<f64>]) -> Self {
        let n_cols = cols.len();
        let n_rows = if n_cols == 0 { 0 } else { cols[0].len() };
        let mut m = Mat::zeros(n_rows, n_cols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), n_rows, "inconsistent column lengths");
            m.col_mut(j).copy_from_slice(c);
        }
        m
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Returns `true` if the matrix has zero rows or zero columns.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0 || self.n_cols == 0
    }

    /// Contiguous view of column `j`.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Mutable view of column `j`.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Raw column-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data.
    ///
    /// The executor call sites wrap this in
    /// [`ShardSlices`](crate::exec::ShardSlices) to hand disjoint column
    /// panels to pool workers.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator of mutable contiguous column slices.
    ///
    /// The slices are disjoint, so they can be handed to scoped threads
    /// for per-column parallel fills (the multi-RHS solver backends do
    /// exactly this).
    pub fn cols_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_mut(self.n_rows.max(1))
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Computes `y = A x` into an existing buffer (overwritten), with no
    /// allocation.
    ///
    /// Accumulation order (shared, entry for entry, by every dense
    /// product kernel in this module): ascending `k`, fused in aligned
    /// groups of four columns via [`kernels::fused_axpy4_lanes`] at width
    /// 1 — left to right within a group, groups whose four multipliers
    /// are all zero skipped, zero multipliers in the ragged tail skipped.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "matvec output length mismatch");
        y.fill(0.0);
        self.accumulate_cols(x, 0, self.n_cols, y);
    }

    /// `y += sum_{k in [k0, k1)} coeff[k] * A[.., k]`, columns fused in
    /// groups of four — the one accumulation kernel behind
    /// [`matvec_into`](Self::matvec_into) and
    /// [`matmul_into`](Self::matmul_into), which is what makes those two
    /// bit-identical per output entry.
    ///
    /// Groups are aligned to `k0`; callers must pass `k0` a multiple of 4
    /// (or the whole range at once) so the grouping pattern matches the
    /// single-sweep call.
    #[inline]
    fn accumulate_cols(&self, coeff: &[f64], k0: usize, k1: usize, y: &mut [f64]) {
        debug_assert_eq!(k0 % 4, 0, "column groups must stay aligned across k-panels");
        let mut k = k0;
        while k + 4 <= k1 {
            let a = [coeff[k], coeff[k + 1], coeff[k + 2], coeff[k + 3]];
            if a[0] != 0.0 || a[1] != 0.0 || a[2] != 0.0 || a[3] != 0.0 {
                kernels::fused_axpy4_lanes(
                    a.map(|v| [v]),
                    self.col(k),
                    self.col(k + 1),
                    self.col(k + 2),
                    self.col(k + 3),
                    y,
                );
            }
            k += 4;
        }
        while k < k1 {
            let ak = coeff[k];
            if ak != 0.0 {
                axpy(ak, self.col(k), y);
            }
            k += 1;
        }
    }

    /// Computes `y = A' x` (transpose apply).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_rows, "matvec_t dimension mismatch");
        (0..self.n_cols).map(|j| dot(self.col(j), x)).collect()
    }

    /// Reshapes the matrix in place to `n_rows x n_cols`, reusing the
    /// backing buffer (growing it only when the new shape exceeds its
    /// capacity). The resulting entries are unspecified — callers are
    /// expected to overwrite them, which is exactly what the `*_into`
    /// kernels do. This is what lets
    /// [`ApplyWorkspace`](crate::op::ApplyWorkspace) scratch matrices
    /// change shape between applies without steady-state allocation.
    pub fn resize(&mut self, n_rows: usize, n_cols: usize) {
        self.n_rows = n_rows;
        self.n_cols = n_cols;
        if n_rows * n_cols > self.data.capacity() {
            crate::trace::add(crate::trace::Counter::WorkspaceGrows, 1);
        }
        self.data.resize(n_rows * n_cols, 0.0);
    }

    /// Dense matrix product `A * B`, cache-blocked over the inner
    /// dimension.
    ///
    /// The panel of `A` columns reused across every column of `B` is
    /// sized to stay resident in cache, which is what makes batched
    /// multi-RHS applies (`G * V`) faster than column-at-a-time
    /// `matvec` calls. Blocking runs over `k` only, so each output entry
    /// accumulates its terms in exactly the same order as the unblocked
    /// loop — results are bit-identical to per-column [`matvec`](Self::matvec).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, b: &Mat) -> Mat {
        let mut c = Mat::zeros(0, 0);
        self.matmul_into(b, &mut c);
        c
    }

    /// In-place variant of [`matmul`](Self::matmul): resizes `c` to
    /// `n_rows x b.n_cols` (reusing its buffer) and overwrites it with
    /// `A * B`. Accumulation order per output column is identical to
    /// [`matvec`](Self::matvec), so blocked multi-RHS applies are
    /// bit-identical to column-at-a-time ones.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, b: &Mat, c: &mut Mat) {
        assert_eq!(self.n_cols, b.n_rows, "matmul dimension mismatch");
        c.resize(self.n_rows, b.n_cols);
        // inner-dimension panel: ~256 KiB of A-panel per block (f64), at
        // least 8 columns, and — so the fused groups of four of
        // `accumulate_cols` stay aligned across panel boundaries — a
        // multiple of 4 whenever more than one panel is needed
        let kb = (((32 * 1024 / self.n_rows.max(1)).max(8)) & !3).min(self.n_cols.max(1));
        for cj in c.cols_mut() {
            cj.fill(0.0);
        }
        for k0 in (0..self.n_cols).step_by(kb) {
            let k1 = (k0 + kb).min(self.n_cols);
            for j in 0..b.n_cols {
                self.accumulate_cols(b.col(j), k0, k1, c.col_mut(j));
            }
        }
    }

    /// Dense matrix product `A' * B`, one dot product per output entry.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`A` and `B` must have equal row counts).
    pub fn matmul_tn(&self, b: &Mat) -> Mat {
        assert_eq!(self.n_rows, b.n_rows, "matmul_tn dimension mismatch");
        Mat::from_fn(self.n_cols, b.n_cols, |i, j| dot(self.col(i), b.col(j)))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.n_cols, self.n_rows, |i, j| self[(j, i)])
    }

    /// Selects a subset of rows, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Mat {
        let mut m = Mat::zeros(rows.len(), self.n_cols);
        for j in 0..self.n_cols {
            let src = self.col(j);
            let dst = m.col_mut(j);
            for (k, &r) in rows.iter().enumerate() {
                dst[k] = src[r];
            }
        }
        m
    }

    /// Selects a subset of columns, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> Mat {
        let mut m = Mat::zeros(self.n_rows, cols.len());
        for (k, &c) in cols.iter().enumerate() {
            m.col_mut(k).copy_from_slice(self.col(c));
        }
        m
    }

    /// Returns the contiguous column block `[j0, j1)`.
    pub fn col_block(&self, j0: usize, j1: usize) -> Mat {
        assert!(j0 <= j1 && j1 <= self.n_cols);
        let mut m = Mat::zeros(self.n_rows, j1 - j0);
        for j in j0..j1 {
            m.col_mut(j - j0).copy_from_slice(self.col(j));
        }
        m
    }

    /// Horizontal concatenation `[A | B]`.
    ///
    /// Empty (zero-column) operands are allowed as long as row counts match
    /// or one operand has zero rows *and* zero columns.
    pub fn hcat(&self, b: &Mat) -> Mat {
        if self.n_cols == 0 && self.n_rows == 0 {
            return b.clone();
        }
        if b.n_cols == 0 && b.n_rows == 0 {
            return self.clone();
        }
        assert_eq!(self.n_rows, b.n_rows, "hcat row mismatch");
        let mut m = Mat::zeros(self.n_rows, self.n_cols + b.n_cols);
        for j in 0..self.n_cols {
            m.col_mut(j).copy_from_slice(self.col(j));
        }
        for j in 0..b.n_cols {
            m.col_mut(self.n_cols + j).copy_from_slice(b.col(j));
        }
        m
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        nrm2(&self.data)
    }

    /// Largest absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Entry-wise `self += s * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, s: f64, other: &Mat) {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        axpy(s, &other.data, &mut self.data);
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.n_rows && j < self.n_cols);
        &self.data[j * self.n_rows + i]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.n_rows && j < self.n_cols);
        &mut self.data[j * self.n_rows + i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.n_rows, self.n_cols)?;
        let rmax = self.n_rows.min(8);
        let cmax = self.n_cols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if cmax < self.n_cols { "..." } else { "" })?;
        }
        if rmax < self.n_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices, computed with the fixed
/// eight-partial summation order of [`kernels::dot8`] (eight independent
/// accumulator chains instead of one latency-bound chain; identical bits
/// for identical inputs everywhere it is used).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    kernels::dot8(x, y)
}

/// Euclidean norm of a slice.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y += a * x`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let a = Mat::identity(3);
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn transpose_products_agree() {
        let a = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = Mat::from_fn(4, 2, |i, j| (i + j) as f64 * 0.5);
        let c1 = a.matmul_tn(&b);
        let c2 = a.transpose().matmul(&b);
        for i in 0..3 {
            for j in 0..2 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let r = a.select_rows(&[3, 1]);
        assert_eq!(r[(0, 2)], 32.0);
        assert_eq!(r[(1, 0)], 10.0);
        let c = a.select_cols(&[2, 0]);
        assert_eq!(c[(1, 0)], 12.0);
        assert_eq!(c[(3, 1)], 30.0);
    }

    #[test]
    fn hcat_shapes() {
        let a = Mat::zeros(3, 2);
        let b = Mat::identity(3);
        let c = a.hcat(&b);
        assert_eq!(c.n_cols(), 5);
        assert_eq!(c[(2, 4)], 1.0);
        let e = Mat::zeros(0, 0);
        assert_eq!(e.hcat(&b).n_cols(), 3);
        assert_eq!(b.hcat(&e).n_cols(), 3);
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = Mat::from_fn(3, 5, |i, j| ((i + 1) * (j + 2)) as f64);
        let x = [1.0, -2.0, 0.5];
        let y1 = a.matvec_t(&x);
        let y2 = a.transpose().matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-13);
        }
    }
}
