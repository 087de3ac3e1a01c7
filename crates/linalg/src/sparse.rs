//! Compressed sparse row matrices.
//!
//! The change-of-basis matrix `Q` and the sparsified conductance matrix
//! `Gw` are stored in CSR form; the headline cost claims of the thesis
//! (`O(n log n)` apply, sparsity factors in Tables 3.1/4.1–4.3) are
//! measured on these.

use crate::kernels::{
    self, ColMajor, ColTile, ColTileMut, PanelLayout, TileRows, TileRowsMut, LANES,
};
use crate::mat::Mat;

/// A triplet (COO) accumulator for building [`Csr`] matrices.
///
/// Duplicate entries are summed during conversion.
#[derive(Clone, Debug, Default)]
pub struct Triplets {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl Triplets {
    /// Creates an empty accumulator with the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Triplets { n_rows, n_cols, entries: Vec::new() }
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// Zero values are skipped.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n_rows && col < self.n_cols, "triplet index out of bounds");
        if value != 0.0 {
            self.entries.push((row as u32, col as u32, value));
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, summing duplicates.
    ///
    /// Consumes the triplets and sorts them in place, so the conversion
    /// never holds a second copy of the entries.
    pub fn to_csr(self) -> Csr {
        let mut ents = self.entries;
        ents.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut indptr = vec![0usize; self.n_rows + 1];
        let mut indices = Vec::with_capacity(ents.len());
        let mut data = Vec::with_capacity(ents.len());
        let mut i = 0;
        while i < ents.len() {
            let (r, c, mut v) = ents[i];
            let mut j = i + 1;
            while j < ents.len() && ents[j].0 == r && ents[j].1 == c {
                v += ents[j].2;
                j += 1;
            }
            indptr[r as usize + 1] += 1;
            indices.push(c);
            data.push(v);
            i = j;
        }
        for r in 0..self.n_rows {
            indptr[r + 1] += indptr[r];
        }
        Csr { n_rows: self.n_rows, n_cols: self.n_cols, indptr, indices, data }
    }
}

/// A compressed sparse row matrix.
#[derive(Clone, Debug)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

impl Csr {
    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Csr { n_rows, n_cols, indptr: vec![0; n_rows + 1], indices: Vec::new(), data: Vec::new() }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            data: vec![1.0; n],
        }
    }

    /// Wraps already-compressed arrays: row `i` holds columns
    /// `indices[indptr[i]..indptr[i + 1]]` with values `data[..]` at the
    /// same positions.
    ///
    /// # Panics
    ///
    /// Panics unless `indptr` has `n_rows + 1` nondecreasing offsets from
    /// 0 to `indices.len() == data.len()` and every row's columns are
    /// strictly increasing and below `n_cols`.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), n_rows + 1, "csr indptr length");
        assert_eq!(indptr[0], 0, "csr indptr must start at 0");
        assert_eq!(indptr[n_rows], indices.len(), "csr indptr must end at nnz");
        assert_eq!(indices.len(), data.len(), "csr indices/data length mismatch");
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "csr indptr must be nondecreasing");
            let cols = &indices[w[0]..w[1]];
            assert!(cols.windows(2).all(|c| c[0] < c[1]), "csr row columns must be increasing");
            assert!(cols.last().is_none_or(|&c| (c as usize) < n_cols), "csr column out of range");
        }
        Csr { n_rows, n_cols, indptr, indices, data }
    }

    /// Builds a CSR matrix from a dense one, keeping entries with
    /// `|a_ij| > threshold`.
    pub fn from_dense(a: &Mat, threshold: f64) -> Self {
        let mut t = Triplets::new(a.n_rows(), a.n_cols());
        for j in 0..a.n_cols() {
            let col = a.col(j);
            for (i, &v) in col.iter().enumerate() {
                if v.abs() > threshold {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Sparsity factor `n_rows * n_cols / nnz` (the thesis's "sparsity").
    ///
    /// Returns infinity for an all-zero matrix.
    pub fn sparsity_factor(&self) -> f64 {
        if self.nnz() == 0 {
            f64::INFINITY
        } else {
            (self.n_rows as f64) * (self.n_cols as f64) / self.nnz() as f64
        }
    }

    /// Row `i` as `(column indices, values)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[a..b], &self.data[a..b])
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Computes `y = A x` into an existing buffer (overwritten), with no
    /// allocation.
    ///
    /// Each output row is one [`kernels::gather_dot4_lanes`] over the
    /// row's stored entries, at width 1 — four independent accumulator
    /// chains with the fixed `(s0+s1)+(s2+s3)+tail` combination order.
    /// The lane tiles of [`matmul_panel_into`](Self::matmul_panel_into)
    /// run the same row loop at width [`LANES`], which is what keeps
    /// blocked applies bit-identical to this one.
    /// (A single sequential accumulator was the serving bottleneck at
    /// typical 50–100-nonzero rows: every multiply-add waited on the
    /// previous one.)
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[inline]
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "csr matvec dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "csr matvec output length mismatch");
        rows_into(self, &ColTile([x]), &mut ColTileMut([y]));
    }

    /// Computes `y = A' x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_rows, "csr matvec_t dimension mismatch");
        let mut y = vec![0.0; self.n_cols];
        let mut start = self.indptr[0];
        for (&xi, &end) in x.iter().zip(&self.indptr[1..]) {
            if xi != 0.0 {
                let cols = &self.indices[start..end];
                let vals = &self.data[start..end];
                for (c, v) in cols.iter().zip(vals) {
                    y[*c as usize] += v * xi;
                }
            }
            start = end;
        }
        y
    }

    /// Dense-block product `Y = A * X` (CSR times dense, column-major
    /// blocks), resizing `y` to `n_rows x x.n_cols()` in place:
    /// [`matmul_panel_into`](Self::matmul_panel_into) with both panels
    /// column-major.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_dense_into(&self, x: &Mat, y: &mut Mat) {
        self.matmul_panel_into::<ColMajor, ColMajor>(x, y);
    }

    /// Allocating convenience over
    /// [`matmul_dense_into`](Self::matmul_dense_into).
    pub fn matmul_dense(&self, x: &Mat) -> Mat {
        let mut y = Mat::zeros(0, 0);
        self.matmul_dense_into(x, &mut y);
        y
    }

    /// Lane-tiled block product `Y = A * X`, reading `x` in layout `XL`
    /// and writing `y` (resized to `n_rows x x.n_cols()`) in layout `YL`
    /// (see [`PanelLayout`]).
    ///
    /// Each full tile of [`LANES`] columns runs
    /// [`kernels::gather_dot4_lanes`] per row at width `LANES`, so a
    /// row's indices and values are streamed once per tile instead of
    /// once per column; the `b % LANES` columns after the last full tile
    /// run [`matvec_into`](Self::matvec_into), the same row loop at width
    /// one. Lanes never mix, so every output column is bit-identical to
    /// `matvec_into` on its input column, whatever the layouts and the
    /// block width.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_panel_into<XL: PanelLayout, YL: PanelLayout>(&self, x: &Mat, y: &mut Mat) {
        assert_eq!(x.n_rows(), self.n_cols, "csr matmul_dense dimension mismatch");
        let b = x.n_cols();
        y.resize(self.n_rows, b);
        let tiles = b / LANES;
        for t in 0..tiles {
            tile_into(self, &XL::tile(x, t), &mut YL::tile_mut(y, t));
        }
        for j in tiles * LANES..b {
            self.matvec_into(x.col(j), y.col_mut(j));
        }
    }

    /// Returns the transpose.
    ///
    /// A two-pass counting transpose: count the entries of each column,
    /// prefix-sum the counts into the output's row pointers, then scatter
    /// the rows in order, so each output row lists its columns in
    /// increasing order without a sort. `O(nnz + n_rows + n_cols)` time,
    /// and the output's three arrays are its only allocations. Explicit
    /// `±0.0` entries are dropped, as [`Triplets::push`] drops them.
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.n_cols + 1];
        for (&c, &v) in self.indices.iter().zip(&self.data) {
            if v != 0.0 {
                indptr[c as usize + 1] += 1;
            }
        }
        for c in 0..self.n_cols {
            indptr[c + 1] += indptr[c];
        }
        let nnz = indptr[self.n_cols];
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0.0; nnz];
        // `indptr[c]` is column c's write cursor: after the scatter it
        // has advanced to the start of column c + 1, so shifting the
        // array up by one restores the row pointers
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if v != 0.0 {
                    let k = &mut indptr[c as usize];
                    indices[*k] = i as u32;
                    data[*k] = v;
                    *k += 1;
                }
            }
        }
        indptr.copy_within(0..self.n_cols, 1);
        indptr[0] = 0;
        Csr { n_rows: self.n_cols, n_cols: self.n_rows, indptr, indices, data }
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                m[(i, *c as usize)] += *v;
            }
        }
        m
    }

    /// Returns a copy with entries `|a_ij| <= threshold` dropped.
    pub fn drop_below(&self, threshold: f64) -> Csr {
        let mut t = Triplets::new(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                if v.abs() > threshold {
                    t.push(i, *c as usize, *v);
                }
            }
        }
        t.to_csr()
    }

    /// All stored absolute values (used for threshold selection).
    pub fn abs_values(&self) -> Vec<f64> {
        self.data.iter().map(|v| v.abs()).collect()
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(c, v)| (i, *c as usize, *v))
        })
    }
}

/// `y = A x` on `W` lanes at once: one [`kernels::gather_dot4_lanes`]
/// per row. [`Csr::matvec_into`] runs it at width 1 and the baseline
/// tier; full tiles run it at width [`LANES`] through [`tile_into`].
#[inline(always)]
fn rows_into<const W: usize, X: TileRows<W>, Y: TileRowsMut<W>>(a: &Csr, x: &X, y: &mut Y) {
    // walk the row-pointer array as windows so each row's index/value
    // slices come straight off the running offsets (no per-row double
    // lookup through `row`)
    let mut start = a.indptr[0];
    for (i, &end) in a.indptr[1..].iter().enumerate() {
        y.set_lanes(i, kernels::gather_dot4_lanes(&a.data[start..end], &a.indices[start..end], x));
        start = end;
    }
}

crate::simd::tiered! {
    /// One lane tile of [`Csr::matmul_panel_into`] ([`rows_into`] at
    /// width [`LANES`]), at the widest [`Tier`](crate::simd::Tier) the
    /// CPU reports.
    fn tile_into<X: TileRows<LANES>, Y: TileRowsMut<LANES>>(a: &Csr, x: &X, y: &mut Y) {
        rows_into(a, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn build_and_matvec() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 2, 3.0);
        t.push(1, 2, 1.0); // duplicate accumulates
        t.push(2, 1, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 3);
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0, 12.0, -2.0]);
        let yt = a.matvec_t(&[1.0, 1.0, 1.0]);
        assert_eq!(yt, vec![2.0, -1.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut t = Triplets::new(2, 4);
        t.push(0, 3, 5.0);
        t.push(1, 0, -2.0);
        let a = t.to_csr();
        let att = a.transpose().transpose();
        let (d1, d2) = (a.to_dense(), att.to_dense());
        for i in 0..2 {
            for j in 0..4 {
                assert_eq!(d1[(i, j)], d2[(i, j)]);
            }
        }
    }

    /// The reference transpose: every entry through [`Triplets`], then a
    /// sort.
    fn transpose_via_triplets(a: &Csr) -> Csr {
        let mut t = Triplets::new(a.n_cols(), a.n_rows());
        for (i, j, v) in a.iter() {
            t.push(j, i, v);
        }
        t.to_csr()
    }

    fn assert_same_bits(got: &Csr, want: &Csr, label: &str) {
        assert_eq!((got.n_rows, got.n_cols), (want.n_rows, want.n_cols), "{label}: shape");
        assert_eq!(got.indptr, want.indptr, "{label}: indptr");
        assert_eq!(got.indices, want.indices, "{label}: indices");
        let bits = |m: &Csr| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{label}: data bits");
    }

    #[test]
    fn counting_transpose_matches_the_triplet_path_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x7A05);
        let mut explicit_zeros = 0;
        for (n_rows, n_cols, fill) in
            [(1, 1, 1.0), (7, 13, 0.3), (40, 9, 0.1), (9, 40, 0.05), (64, 64, 0.02), (33, 1, 0.5)]
        {
            // one row and one column held empty, and explicit +0.0 and
            // -0.0 entries, which `Triplets` could not store
            let empty_row = rng.next_u64() as usize % n_rows;
            let empty_col = rng.next_u64() as usize % n_cols;
            let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
            for i in 0..n_rows {
                for j in 0..n_cols {
                    if i != empty_row && j != empty_col && rng.gen_bool(fill) {
                        let v = match rng.next_u64() % 8 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.range_f64(-3.0, 3.0),
                        };
                        explicit_zeros += usize::from(v == 0.0);
                        indices.push(j as u32);
                        data.push(v);
                    }
                }
                indptr.push(indices.len());
            }
            let a = Csr::from_parts(n_rows, n_cols, indptr, indices, data);
            let label = format!("{n_rows}x{n_cols} at fill {fill}");
            assert_same_bits(&a.transpose(), &transpose_via_triplets(&a), &label);
        }
        assert!(explicit_zeros > 0, "the inputs must exercise explicit zeros");
        for (n_rows, n_cols) in [(0, 5), (5, 0), (0, 0)] {
            let a = Csr::zeros(n_rows, n_cols);
            let label = format!("{n_rows}x{n_cols}");
            assert_same_bits(&a.transpose(), &transpose_via_triplets(&a), &label);
        }
    }

    #[test]
    fn dense_roundtrip_with_threshold() {
        let m = Mat::from_rows(&[&[1.0, 1e-12], &[0.0, -3.0]]);
        let a = Csr::from_dense(&m, 1e-9);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.sparsity_factor(), 2.0);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], -3.0);
    }

    #[test]
    fn drop_below_keeps_large() {
        let m = Mat::from_rows(&[&[1.0, 0.5], &[0.25, -3.0]]);
        let a = Csr::from_dense(&m, 0.0);
        let b = a.drop_below(0.4);
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.to_dense()[(1, 0)], 0.0);
    }

    #[test]
    fn matmul_dense_matches_per_column_matvec() {
        // one full lane tile plus a ragged tail, with empty rows and zero
        // inputs
        let mut t = Triplets::new(5, 4);
        for (i, j, v) in [(0, 0, 2.0), (0, 3, -1.0), (2, 1, 3.5), (4, 0, 0.25), (4, 2, -4.0)] {
            t.push(i, j, v);
        }
        let a = t.to_csr();
        let x = Mat::from_fn(4, 11, |i, j| if (i + j) % 3 == 0 { 0.0 } else { (i * 7 + j) as f64 });
        let y = a.matmul_dense(&x);
        for j in 0..x.n_cols() {
            let serial = a.matvec(x.col(j));
            for i in 0..a.n_rows() {
                assert_eq!(y[(i, j)], serial[i], "blocked apply must be bit-identical");
            }
        }
    }
}
