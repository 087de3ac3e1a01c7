//! Lane-blocked serving kernels, and the scalar references they are
//! tested against.
//!
//! ## Why lanes
//!
//! A sequential `f64` accumulation (`acc += v * x`) is one latency chain:
//! the compiler may not reassociate floating-point adds, so every
//! multiply-add waits ~4 cycles on the previous one and a 67-nonzero CSR
//! row costs ~270 cycles no matter how wide the machine is. Splitting the
//! accumulation into a small fixed number of *lanes* (independent partial
//! sums, combined in a fixed order at the end) breaks the chain without
//! giving up determinism: the summation order is part of each kernel's
//! contract, so identical inputs produce identical bits everywhere the
//! kernel is used — which is what keeps the serving layer's
//! blocked ≡ per-vector ≡ column-sharded bit-identity promises intact.
//!
//! ## The documented summation orders
//!
//! * [`dot4`] / [`gather_dot4`] — four partials over aligned chunks of 4
//!   (lane `l` takes element `l` of each chunk), a sequential tail for the
//!   remaining `len % 4` elements, combined as `(s0+s1) + (s2+s3) + tail`.
//!   This is the order the fast-wavelet-transform kernels have used since
//!   they were introduced, now shared by the CSR row kernels.
//! * [`dot8`] — the same scheme with eight partials (`len % 8` tail),
//!   combined as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`. Used for
//!   long contiguous dots (dense transpose applies, `V' x`, norms), where
//!   eight chains keep two FMA ports saturated.
//! * [`fused_axpy4`] — four column updates fused into one sweep:
//!   `y[i] = (((y[i] + a0*c0[i]) + a1*c1[i]) + a2*c2[i]) + a3*c3[i]`,
//!   left to right. This is **bit-identical** to four sequential
//!   `axpy` passes in the same column order — fusing only removes three
//!   round trips of `y` through memory per group of four columns.
//!
//! ## Lane tiles
//!
//! The blocked serving applies go one step further: they cut a panel of
//! right-hand sides into tiles of [`LANES`] columns and handle each row of
//! a tile as one `[f64; LANES]` step, so every stored value and index is
//! read once per tile instead of once per column. [`gather_dot4_lanes`],
//! [`dot4_lanes`], [`fused_axpy4_lanes`] and [`axpy_lanes`] are
//! [`gather_dot4`], [`dot4`] and [`fused_axpy4`] (and one column pass of
//! it) run on every lane at once, each lane in exactly the one-vector
//! operation order — so every column of a blocked apply is bit-identical
//! to the one-vector apply. Where a tile's rows live is a
//! [`PanelLayout`]: the [`Mat`]'s own columns ([`ColMajor`]) or adjacent
//! lane values ([`LaneMajor`]).
//!
//! The lane kernels are `#[inline(always)]`, so the tile loops that call
//! them (the CSR lane tile, the FWT's `forward_tile`/`inverse_tile`)
//! compile them at each [`Tier`](crate::simd::Tier) those loops are
//! built for: one body, run at AVX-512F or AVX2 width where the CPU
//! reports it. A wider register holds more lanes of the same step; each
//! lane still sees its one-vector operations in order, lanes never mix
//! and no tier enables `fma`, so every tier yields the baseline bits. The
//! one-vector kernels ([`gather_dot4`], [`dot4`], ...) and the per-vector
//! applies built on them stay baseline-only: their latency chains gain
//! nothing from wider registers.
//!
//! The scalar reference implementations in [`scalar`] stay compiled into
//! every build; the property suite in `crates/linalg/tests/kernel_props.rs`
//! cross-checks each lane-blocked kernel against its reference on random
//! shapes (including ragged tails), bit-exactly where the contract is
//! bit-identity and to `<= 1e-12` relative error where only the
//! reassociation differs.

use crate::mat::Mat;

/// Dot product with four independent partial sums.
///
/// Order contract: lane `l` accumulates elements `l, l+4, l+8, ...` of the
/// aligned prefix, the `len % 4` remainder accumulates sequentially into a
/// tail sum, and the result is `(s0+s1) + (s2+s3) + tail`.
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot4 length mismatch");
    let len4 = a.len() & !3;
    let mut s = [0.0f64; 4];
    for (ca, cb) in a[..len4].chunks_exact(4).zip(b[..len4].chunks_exact(4)) {
        s[0] += ca[0] * cb[0];
        s[1] += ca[1] * cb[1];
        s[2] += ca[2] * cb[2];
        s[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[len4..].iter().zip(&b[len4..]) {
        tail += x * y;
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// [`dot4`] against a gathered vector: `sum_i a[i] * x[idx[i]]`, same
/// four-partial order. This is the CSR row kernel (`a` the stored values,
/// `idx` the column indices) and the finest-level FWT gather kernel.
#[inline]
pub fn gather_dot4(a: &[f64], idx: &[u32], x: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), idx.len(), "gather_dot4 length mismatch");
    let len4 = a.len() & !3;
    let mut s = [0.0f64; 4];
    for (ca, ci) in a[..len4].chunks_exact(4).zip(idx[..len4].chunks_exact(4)) {
        s[0] += ca[0] * x[ci[0] as usize];
        s[1] += ca[1] * x[ci[1] as usize];
        s[2] += ca[2] * x[ci[2] as usize];
        s[3] += ca[3] * x[ci[3] as usize];
    }
    let mut tail = 0.0;
    for (av, &ci) in a[len4..].iter().zip(&idx[len4..]) {
        tail += av * x[ci as usize];
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// Dot product with eight independent partial sums.
///
/// Order contract: lane `l` accumulates elements `l, l+8, l+16, ...` of
/// the aligned prefix, the `len % 8` remainder accumulates sequentially
/// into a tail sum, and the result is
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`.
#[inline]
pub fn dot8(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot8 length mismatch");
    let len8 = a.len() & !7;
    let mut s = [0.0f64; 8];
    for (ca, cb) in a[..len8].chunks_exact(8).zip(b[..len8].chunks_exact(8)) {
        for (sl, (av, bv)) in s.iter_mut().zip(ca.iter().zip(cb)) {
            *sl += av * bv;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[len8..].iter().zip(&b[len8..]) {
        tail += x * y;
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + tail
}

/// Four fused column updates:
/// `y[i] = (((y[i] + a[0]*c0[i]) + a[1]*c1[i]) + a[2]*c2[i]) + a[3]*c3[i]`.
///
/// Bit-identical to four sequential [`scalar::axpy`] passes
/// (`axpy(a[0], c0, y)` … `axpy(a[3], c3, y)`): the per-element update is
/// evaluated left to right, which is exactly the order the four passes
/// apply. Fusing removes three of the four read-modify-write sweeps of
/// `y` and gives the optimizer four independent FMA streams per element.
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths differ.
#[inline]
pub fn fused_axpy4(a: [f64; 4], c0: &[f64], c1: &[f64], c2: &[f64], c3: &[f64], y: &mut [f64]) {
    debug_assert!(
        c0.len() == y.len() && c1.len() == y.len() && c2.len() == y.len() && c3.len() == y.len(),
        "fused_axpy4 length mismatch"
    );
    for ((((yi, &v0), &v1), &v2), &v3) in y.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
        *yi = (((*yi + a[0] * v0) + a[1] * v1) + a[2] * v2) + a[3] * v3;
    }
}

/// [`fused_axpy4`] against a scattered output:
/// `x[idx[i]] = (((x[idx[i]] + a[0]*c0[i]) + a[1]*c1[i]) + a[2]*c2[i]) + a[3]*c3[i]`,
/// left to right — bit-identical to four sequential scattered axpy passes
/// in the same column order (the contract of [`fused_axpy4`], applied
/// through a gather index). This is the finest-level inverse-FWT kernel:
/// `idx` holds a node's contact indices, `c0..c3` four of its block
/// columns. `idx` must not repeat an index (FWT nodes gather disjoint
/// contacts), but the kernel is correct either way — entries are updated
/// one `i` at a time.
///
/// # Panics
///
/// Panics (in debug builds) if the column lengths differ from `idx`'s.
#[inline]
pub fn fused_scatter_axpy4(
    a: [f64; 4],
    c0: &[f64],
    c1: &[f64],
    c2: &[f64],
    c3: &[f64],
    idx: &[u32],
    x: &mut [f64],
) {
    debug_assert!(
        c0.len() == idx.len()
            && c1.len() == idx.len()
            && c2.len() == idx.len()
            && c3.len() == idx.len(),
        "fused_scatter_axpy4 length mismatch"
    );
    for ((((&ci, &v0), &v1), &v2), &v3) in idx.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
        let xi = &mut x[ci as usize];
        *xi = (((*xi + a[0] * v0) + a[1] * v1) + a[2] * v2) + a[3] * v3;
    }
}

/// Columns per lane tile: the blocked serving kernels split a panel of
/// right-hand sides into tiles of `LANES` columns and run every row of a
/// tile as one `[f64; LANES]` step, so each stored operator value and
/// index is read once per tile instead of once per column. Sized from
/// measurement: serving 32-column blocks of a 3300-contact wavelet model
/// on a 2-vCPU Xeon cost 240–251 µs of CPU per vector with 4 lanes,
/// 181–196 with 8 and 198–215 with 16. That was measured at the baseline
/// SIMD tier; the wider [`Tier`](crate::simd::Tier)s keep 8.
pub const LANES: usize = 8;

/// Read access to the rows of one lane tile: row `r`'s values, lane `l`
/// holding the tile's column `l`.
pub trait TileRows {
    /// Row `r` across the tile's `LANES` columns.
    fn lanes(&self, r: usize) -> [f64; LANES];
}

/// Write access to the rows of one lane tile.
pub trait TileRowsMut {
    /// Overwrites row `r` across the tile's `LANES` columns.
    fn set_lanes(&mut self, r: usize, v: [f64; LANES]);
}

/// A tile stored lane-major: row `r` is `self.0[r * LANES..(r + 1) * LANES]`.
#[derive(Clone, Copy, Debug)]
pub struct LaneTile<'a>(pub &'a [f64]);

/// A writable lane-major tile (see [`LaneTile`]).
#[derive(Debug)]
pub struct LaneTileMut<'a>(pub &'a mut [f64]);

/// A tile stored as `LANES` column slices.
#[derive(Clone, Copy, Debug)]
pub struct ColTile<'a>(pub [&'a [f64]; LANES]);

/// A writable tile stored as `LANES` disjoint column slices.
#[derive(Debug)]
pub struct ColTileMut<'a>(pub [&'a mut [f64]; LANES]);

impl TileRows for LaneTile<'_> {
    #[inline(always)]
    fn lanes(&self, r: usize) -> [f64; LANES] {
        self.0[r * LANES..(r + 1) * LANES].try_into().expect("a lane row is LANES wide")
    }
}

impl TileRowsMut for LaneTileMut<'_> {
    #[inline(always)]
    fn set_lanes(&mut self, r: usize, v: [f64; LANES]) {
        self.0[r * LANES..(r + 1) * LANES].copy_from_slice(&v);
    }
}

impl TileRows for ColTile<'_> {
    #[inline(always)]
    fn lanes(&self, r: usize) -> [f64; LANES] {
        std::array::from_fn(|l| self.0[l][r])
    }
}

impl TileRowsMut for ColTileMut<'_> {
    #[inline(always)]
    fn set_lanes(&mut self, r: usize, v: [f64; LANES]) {
        for (c, x) in self.0.iter_mut().zip(v) {
            c[r] = x;
        }
    }
}

/// How a panel [`Mat`] of `b` columns stores its full lane tiles. Tile
/// `t` covers columns `t * LANES..(t + 1) * LANES` and always lives in
/// exactly the `LANES * n_rows` values those columns occupy column-major;
/// the `b % LANES` columns after the last full tile are plain columns in
/// every layout, read and written with [`Mat::col`]/[`Mat::col_mut`].
pub trait PanelLayout {
    /// Read view of one tile.
    type Tile<'a>: TileRows;
    /// Write view of one tile.
    type TileMut<'a>: TileRowsMut;
    /// Tile `t` of `p`.
    fn tile(p: &Mat, t: usize) -> Self::Tile<'_>;
    /// Tile `t` of `p`, writable.
    fn tile_mut(p: &mut Mat, t: usize) -> Self::TileMut<'_>;
}

/// The [`Mat`]'s own column-major layout: a tile is its `LANES` columns.
#[derive(Clone, Copy, Debug)]
pub struct ColMajor;

/// Lane-major tiles: each tile's rows sit back to back, row `r`'s
/// `LANES` values adjacent, so a row gather is one contiguous load. The
/// serving pipelines keep intermediate coefficients in this layout from
/// stage to stage.
#[derive(Clone, Copy, Debug)]
pub struct LaneMajor;

/// Tile `t`'s footprint in a column-major buffer of `n`-row columns.
#[inline]
fn footprint(p: &Mat, t: usize) -> &[f64] {
    let w = LANES * p.n_rows();
    &p.data()[t * w..(t + 1) * w]
}

/// Writable [`footprint`].
#[inline]
fn footprint_mut(p: &mut Mat, t: usize) -> &mut [f64] {
    let w = LANES * p.n_rows();
    &mut p.data_mut()[t * w..(t + 1) * w]
}

impl PanelLayout for ColMajor {
    type Tile<'a> = ColTile<'a>;
    type TileMut<'a> = ColTileMut<'a>;

    #[inline]
    fn tile(p: &Mat, t: usize) -> ColTile<'_> {
        ColTile(std::array::from_fn(|l| p.col(t * LANES + l)))
    }

    #[inline]
    fn tile_mut(p: &mut Mat, t: usize) -> ColTileMut<'_> {
        let n = p.n_rows();
        let mut rest = footprint_mut(p, t);
        ColTileMut(std::array::from_fn(|_| {
            let (col, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            col
        }))
    }
}

impl PanelLayout for LaneMajor {
    type Tile<'a> = LaneTile<'a>;
    type TileMut<'a> = LaneTileMut<'a>;

    #[inline]
    fn tile(p: &Mat, t: usize) -> LaneTile<'_> {
        LaneTile(footprint(p, t))
    }

    #[inline]
    fn tile_mut(p: &mut Mat, t: usize) -> LaneTileMut<'_> {
        LaneTileMut(footprint_mut(p, t))
    }
}

/// [`gather_dot4`] on every lane of a tile at once:
/// lane `l` of the result is `gather_dot4(a, idx, column l)`, to the bit.
/// Each lane keeps its own four partials and tail and combines them as
/// `(s0+s1) + (s2+s3) + tail`; the index and value of each term are read
/// once for all `LANES` columns. This is the blocked CSR row kernel.
#[inline(always)]
pub fn gather_dot4_lanes(a: &[f64], idx: &[u32], x: &impl TileRows) -> [f64; LANES] {
    debug_assert_eq!(a.len(), idx.len(), "gather_dot4_lanes length mismatch");
    let len4 = a.len() & !3;
    let mut s = [[0.0f64; LANES]; 4];
    for (ca, ci) in a[..len4].chunks_exact(4).zip(idx[..len4].chunks_exact(4)) {
        for ((sp, &av), &c) in s.iter_mut().zip(ca).zip(ci) {
            let xr = x.lanes(c as usize);
            for (sl, xv) in sp.iter_mut().zip(xr) {
                *sl += av * xv;
            }
        }
    }
    let mut tail = [0.0f64; LANES];
    for (&av, &c) in a[len4..].iter().zip(&idx[len4..]) {
        let xr = x.lanes(c as usize);
        for (tl, xv) in tail.iter_mut().zip(xr) {
            *tl += av * xv;
        }
    }
    std::array::from_fn(|l| (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]) + tail[l])
}

/// [`dot4`] of `a` against every lane of the lane-major rows `xt`
/// (`a.len()` rows, see [`LaneTile`]): lane `l` of the result is
/// `dot4(a, column l)`, to the bit. The FWT node kernel.
#[inline(always)]
pub fn dot4_lanes(a: &[f64], xt: &[f64]) -> [f64; LANES] {
    debug_assert_eq!(a.len() * LANES, xt.len(), "dot4_lanes length mismatch");
    let len4 = a.len() & !3;
    let mut s = [[0.0f64; LANES]; 4];
    for (ca, cx) in a[..len4].chunks_exact(4).zip(xt.chunks_exact(4 * LANES)) {
        for ((sp, &av), xr) in s.iter_mut().zip(ca).zip(cx.chunks_exact(LANES)) {
            for (sl, xv) in sp.iter_mut().zip(xr) {
                *sl += av * xv;
            }
        }
    }
    let mut tail = [0.0f64; LANES];
    for (&av, xr) in a[len4..].iter().zip(xt[len4 * LANES..].chunks_exact(LANES)) {
        for (tl, xv) in tail.iter_mut().zip(xr) {
            *tl += av * xv;
        }
    }
    std::array::from_fn(|l| (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]) + tail[l])
}

/// [`fused_axpy4`] on every lane of the lane-major rows `y`, with a
/// per-lane multiplier: `y[i][l] = (((y[i][l] + a[0][l]*c0[i]) +
/// a[1][l]*c1[i]) + a[2][l]*c2[i]) + a[3][l]*c3[i]`, left to right —
/// lane `l` is bit-identical to `fused_axpy4` with multipliers
/// `a[k][l]` on column `l`. The inverse-FWT node kernel.
///
/// # Panics
///
/// Panics (in debug builds) unless `y` holds `c0.len()` rows.
#[inline(always)]
pub fn fused_axpy4_lanes(
    a: [[f64; LANES]; 4],
    c0: &[f64],
    c1: &[f64],
    c2: &[f64],
    c3: &[f64],
    y: &mut [f64],
) {
    debug_assert!(
        c1.len() == c0.len() && c2.len() == c0.len() && c3.len() == c0.len(),
        "fused_axpy4_lanes column length mismatch"
    );
    debug_assert_eq!(y.len(), c0.len() * LANES, "fused_axpy4_lanes row count mismatch");
    for ((((yr, &v0), &v1), &v2), &v3) in y.chunks_exact_mut(LANES).zip(c0).zip(c1).zip(c2).zip(c3)
    {
        for (l, yv) in yr.iter_mut().enumerate() {
            *yv = (((*yv + a[0][l] * v0) + a[1][l] * v1) + a[2][l] * v2) + a[3][l] * v3;
        }
    }
}

/// One lane-major column update `y[i][l] += c[i] * a[l]` — a single
/// column pass of [`fused_axpy4_lanes`], for the `ncols % 4` remainder.
#[inline(always)]
pub fn axpy_lanes(a: [f64; LANES], c: &[f64], y: &mut [f64]) {
    debug_assert_eq!(y.len(), c.len() * LANES, "axpy_lanes row count mismatch");
    for (yr, &cv) in y.chunks_exact_mut(LANES).zip(c) {
        for (yv, av) in yr.iter_mut().zip(a) {
            *yv += cv * av;
        }
    }
}

/// Scalar reference kernels: the single-accumulator loops the lane-blocked
/// kernels replaced. They stay compiled in every build and are the ground
/// truth of the property suite — a lane kernel is only trusted while it
/// agrees with its reference here.
pub mod scalar {
    /// Sequential single-accumulator dot product.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "scalar dot length mismatch");
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    /// Sequential gathered dot product `sum_i a[i] * x[idx[i]]` — the
    /// reference for CSR rows and FWT finest-level gathers.
    #[inline]
    pub fn gather_dot(a: &[f64], idx: &[u32], x: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), idx.len(), "scalar gather_dot length mismatch");
        let mut s = 0.0;
        for (av, &ci) in a.iter().zip(idx) {
            s += av * x[ci as usize];
        }
        s
    }

    /// Sequential `y += a * x` — the reference pass of
    /// [`fused_axpy4`](super::fused_axpy4).
    #[inline]
    pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len(), "scalar axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// Sequential scattered `x[idx[i]] += a * c[i]` — the reference pass
    /// of [`fused_scatter_axpy4`](super::fused_scatter_axpy4).
    #[inline]
    pub fn scatter_axpy(a: f64, c: &[f64], idx: &[u32], x: &mut [f64]) {
        debug_assert_eq!(c.len(), idx.len(), "scalar scatter_axpy length mismatch");
        for (cv, &ci) in c.iter().zip(idx) {
            x[ci as usize] += a * cv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_kernels_are_exact_on_integers() {
        // integer-valued inputs stay exact under any association, so the
        // lane kernels must match the references to the bit
        let a: Vec<f64> = (0..23).map(|i| (i % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..23).map(|i| (i % 5) as f64).collect();
        assert_eq!(dot4(&a, &b), scalar::dot(&a, &b));
        assert_eq!(dot8(&a, &b), scalar::dot(&a, &b));
        let idx: Vec<u32> = (0..23).map(|i| (i * 7 % 23) as u32).collect();
        assert_eq!(gather_dot4(&a, &idx, &b), scalar::gather_dot(&a, &idx, &b));
    }

    #[test]
    fn fused_axpy4_is_bit_identical_to_four_passes() {
        let cols: Vec<Vec<f64>> =
            (0..4).map(|k| (0..13).map(|i| ((i * 3 + k) as f64).sin()).collect()).collect();
        let a = [0.3, -1.7, 0.0, 2.5];
        let mut y1: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        let mut y2 = y1.clone();
        fused_axpy4(a, &cols[0], &cols[1], &cols[2], &cols[3], &mut y1);
        for (ak, ck) in a.iter().zip(&cols) {
            scalar::axpy(*ak, ck, &mut y2);
        }
        assert_eq!(y1, y2);
    }

    #[test]
    fn fused_scatter_axpy4_is_bit_identical_to_four_passes() {
        let cols: Vec<Vec<f64>> =
            (0..4).map(|k| (0..9).map(|i| ((i * 5 + k) as f64).cos()).collect()).collect();
        let idx: Vec<u32> = [12, 3, 7, 0, 9, 5, 14, 1, 11].into();
        let a = [1.25, -0.5, 3.0, 0.0];
        let mut x1: Vec<f64> = (0..16).map(|i| (i as f64) * 0.1).collect();
        let mut x2 = x1.clone();
        fused_scatter_axpy4(a, &cols[0], &cols[1], &cols[2], &cols[3], &idx, &mut x1);
        for (ak, ck) in a.iter().zip(&cols) {
            scalar::scatter_axpy(*ak, ck, &idx, &mut x2);
        }
        assert_eq!(x1, x2);
    }
}
