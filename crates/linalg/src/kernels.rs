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
//! Each order is stated for one vector; a kernel runs it on every lane.
//!
//! * [`dot4_lanes`] / [`gather_dot4_lanes`] — four partials over aligned
//!   chunks of 4 (partial `k` takes element `k` of each chunk), a
//!   sequential tail for the remaining `len % 4` elements, combined as
//!   `(s0+s1) + (s2+s3) + tail`. The fast wavelet transform and the CSR
//!   row kernels share this order.
//! * [`dot8`] — the same scheme with eight partials (`len % 8` tail),
//!   combined as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`. Used for
//!   long contiguous dots (dense transpose applies, `V' x`, norms), where
//!   eight chains keep two FMA ports saturated.
//! * [`fused_axpy4_lanes`] — four column updates fused into one sweep:
//!   `y[i] = (((y[i] + a0*c0[i]) + a1*c1[i]) + a2*c2[i]) + a3*c3[i]`,
//!   left to right. This is **bit-identical** to four sequential
//!   [`axpy_lanes`] passes in the same column order — fusing only removes
//!   three round trips of `y` through memory per group of four columns.
//!
//! ## One kernel family, at widths 1 and `LANES`
//!
//! The blocked serving applies cut a panel of right-hand sides into tiles
//! of [`LANES`] columns and handle each row of a tile as one `[f64; W]`
//! step, so every stored value and index is read once per tile instead
//! of once per column. The kernels and the tile views ([`TileRows`],
//! [`LaneTile`], [`ColTile`] and their writable forms) are generic over
//! that lane count `W`. Full tiles run them at `W = LANES`; a single
//! vector, and each of the `b % LANES` columns after the last full tile,
//! runs the same functions at `W = 1` (one vector is `ColTile::<1>([x])`,
//! or a plain slice as width-1 lane-major rows). Lanes never mix, so
//! every lane of a tile gets the width-1 bits: blocked ≡ per-vector holds
//! with one body per operation. Where a full tile's rows live is a
//! [`PanelLayout`]: the [`Mat`]'s own columns ([`ColMajor`]) or adjacent
//! lane values ([`LaneMajor`]).
//!
//! The kernels are `#[inline(always)]`, so the `W = LANES` tile loops
//! that call them (the CSR lane tile, the FWT tile transforms) compile
//! them at each [`Tier`](crate::simd::Tier) those loops are built for:
//! one body, run at AVX-512F or AVX2 width where the CPU reports it. A
//! wider register holds more lanes of the same step; each lane still
//! sees its operations in order, lanes never mix and no tier enables
//! `fma`, so every tier yields the baseline bits. The width-1 calls reach
//! the kernels directly and stay at the baseline tier (see
//! [`simd`](crate::simd)).
//!
//! The scalar reference implementations in [`scalar`] stay compiled into
//! every build; the property suite in `crates/linalg/tests/kernel_props.rs`
//! cross-checks each kernel against its reference on random shapes
//! (including ragged tails), bit-exactly where the contract is
//! bit-identity and to `<= 1e-12` relative error where only the
//! reassociation differs.

use crate::mat::Mat;

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

/// Columns per full lane tile. Sized from measurement: serving 32-column
/// blocks of a 3300-contact wavelet model on a 2-vCPU Xeon cost 240–251
/// µs of CPU per vector with 4 lanes, 181–196 with 8 and 198–215 with 16.
/// That was measured at the baseline SIMD tier; the wider
/// [`Tier`](crate::simd::Tier)s keep 8.
pub const LANES: usize = 8;

/// Read access to the rows of a `W`-lane tile: row `r`'s values, lane `l`
/// holding the tile's column `l`.
pub trait TileRows<const W: usize> {
    /// Row `r` across the tile's `W` columns.
    fn lanes(&self, r: usize) -> [f64; W];
}

/// Write access to the rows of a `W`-lane tile.
pub trait TileRowsMut<const W: usize> {
    /// Overwrites row `r` across the tile's `W` columns.
    fn set_lanes(&mut self, r: usize, v: [f64; W]);
}

/// A tile stored lane-major: row `r` is `self.0[r * W..(r + 1) * W]`.
#[derive(Clone, Copy, Debug)]
pub struct LaneTile<'a, const W: usize>(pub &'a [f64]);

/// A writable lane-major tile (see [`LaneTile`]).
#[derive(Debug)]
pub struct LaneTileMut<'a, const W: usize>(pub &'a mut [f64]);

/// A tile stored as `W` column slices.
#[derive(Clone, Copy, Debug)]
pub struct ColTile<'a, const W: usize>(pub [&'a [f64]; W]);

/// A writable tile stored as `W` disjoint column slices.
#[derive(Debug)]
pub struct ColTileMut<'a, const W: usize>(pub [&'a mut [f64]; W]);

impl<const W: usize> TileRows<W> for LaneTile<'_, W> {
    #[inline(always)]
    fn lanes(&self, r: usize) -> [f64; W] {
        self.0[r * W..(r + 1) * W].try_into().expect("a lane row is W wide")
    }
}

impl<const W: usize> TileRowsMut<W> for LaneTileMut<'_, W> {
    #[inline(always)]
    fn set_lanes(&mut self, r: usize, v: [f64; W]) {
        self.0[r * W..(r + 1) * W].copy_from_slice(&v);
    }
}

impl<const W: usize> TileRows<W> for ColTile<'_, W> {
    #[inline(always)]
    fn lanes(&self, r: usize) -> [f64; W] {
        std::array::from_fn(|l| self.0[l][r])
    }
}

impl<const W: usize> TileRowsMut<W> for ColTileMut<'_, W> {
    #[inline(always)]
    fn set_lanes(&mut self, r: usize, v: [f64; W]) {
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
    type Tile<'a>: TileRows<LANES>;
    /// Write view of one tile.
    type TileMut<'a>: TileRowsMut<LANES>;
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
    type Tile<'a> = ColTile<'a, LANES>;
    type TileMut<'a> = ColTileMut<'a, LANES>;

    #[inline]
    fn tile(p: &Mat, t: usize) -> ColTile<'_, LANES> {
        ColTile(std::array::from_fn(|l| p.col(t * LANES + l)))
    }

    #[inline]
    fn tile_mut(p: &mut Mat, t: usize) -> ColTileMut<'_, LANES> {
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
    type Tile<'a> = LaneTile<'a, LANES>;
    type TileMut<'a> = LaneTileMut<'a, LANES>;

    #[inline]
    fn tile(p: &Mat, t: usize) -> LaneTile<'_, LANES> {
        LaneTile(footprint(p, t))
    }

    #[inline]
    fn tile_mut(p: &mut Mat, t: usize) -> LaneTileMut<'_, LANES> {
        LaneTileMut(footprint_mut(p, t))
    }
}

/// Gathered dot products on every lane of a tile: lane `l` of the result
/// is `sum_i a[i] * x.lanes(idx[i])[l]`, in the `dot4` order (module
/// docs). Each lane keeps its own four partials and tail and combines
/// them as `(s0+s1) + (s2+s3) + tail`; the index and value of each term
/// are read once for all `W` lanes. The CSR row kernel (`a` the stored
/// values, `idx` the column indices).
#[inline(always)]
pub fn gather_dot4_lanes<const W: usize>(a: &[f64], idx: &[u32], x: &impl TileRows<W>) -> [f64; W] {
    debug_assert_eq!(a.len(), idx.len(), "gather_dot4_lanes length mismatch");
    let len4 = a.len() & !3;
    let mut s = [[0.0f64; W]; 4];
    for (ca, ci) in a[..len4].chunks_exact(4).zip(idx[..len4].chunks_exact(4)) {
        for ((sp, &av), &c) in s.iter_mut().zip(ca).zip(ci) {
            let xr = x.lanes(c as usize);
            for (sl, xv) in sp.iter_mut().zip(xr) {
                *sl += av * xv;
            }
        }
    }
    let mut tail = [0.0f64; W];
    for (&av, &c) in a[len4..].iter().zip(&idx[len4..]) {
        let xr = x.lanes(c as usize);
        for (tl, xv) in tail.iter_mut().zip(xr) {
            *tl += av * xv;
        }
    }
    std::array::from_fn(|l| (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]) + tail[l])
}

/// Dot products of `a` against every lane of the lane-major rows `xt`
/// (`a.len()` rows of `W`, see [`LaneTile`]), in the `dot4` order (module
/// docs). At `W = 1`, `xt` is a plain vector. The FWT node kernel.
#[inline(always)]
pub fn dot4_lanes<const W: usize>(a: &[f64], xt: &[f64]) -> [f64; W] {
    debug_assert_eq!(a.len() * W, xt.len(), "dot4_lanes length mismatch");
    let len4 = a.len() & !3;
    let mut s = [[0.0f64; W]; 4];
    for (ca, cx) in a[..len4].chunks_exact(4).zip(xt[..len4 * W].chunks_exact(4 * W)) {
        for ((sp, &av), xr) in s.iter_mut().zip(ca).zip(cx.chunks_exact(W)) {
            for (sl, xv) in sp.iter_mut().zip(xr) {
                *sl += av * xv;
            }
        }
    }
    let mut tail = [0.0f64; W];
    for (&av, xr) in a[len4..].iter().zip(xt[len4 * W..].chunks_exact(W)) {
        for (tl, xv) in tail.iter_mut().zip(xr) {
            *tl += av * xv;
        }
    }
    std::array::from_fn(|l| (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]) + tail[l])
}

/// Four fused column updates on every lane of the lane-major rows `y`,
/// with a per-lane multiplier: `y[i][l] = (((y[i][l] + a[0][l]*c0[i]) +
/// a[1][l]*c1[i]) + a[2][l]*c2[i]) + a[3][l]*c3[i]`, left to right —
/// bit-identical to four sequential [`axpy_lanes`] passes
/// (`a[0]` on `c0` … `a[3]` on `c3`), the order the four passes apply.
/// Fusing removes three of the four read-modify-write sweeps of `y` and
/// gives the optimizer four independent streams per element. The
/// inverse-FWT node kernel, and at `W = 1` the dense column kernel.
///
/// # Panics
///
/// Panics (in debug builds) unless `y` holds `c0.len()` rows.
#[inline(always)]
pub fn fused_axpy4_lanes<const W: usize>(
    a: [[f64; W]; 4],
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
    debug_assert_eq!(y.len(), c0.len() * W, "fused_axpy4_lanes row count mismatch");
    for ((((yr, &v0), &v1), &v2), &v3) in y.chunks_exact_mut(W).zip(c0).zip(c1).zip(c2).zip(c3) {
        for (l, yv) in yr.iter_mut().enumerate() {
            *yv = (((*yv + a[0][l] * v0) + a[1][l] * v1) + a[2][l] * v2) + a[3][l] * v3;
        }
    }
}

/// One lane-major column update `y[i][l] += c[i] * a[l]` — a single
/// column pass of [`fused_axpy4_lanes`], for the `ncols % 4` remainder.
#[inline(always)]
pub fn axpy_lanes<const W: usize>(a: [f64; W], c: &[f64], y: &mut [f64]) {
    debug_assert_eq!(y.len(), c.len() * W, "axpy_lanes row count mismatch");
    for (yr, &cv) in y.chunks_exact_mut(W).zip(c) {
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
    /// reference for CSR rows.
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
    /// [`fused_axpy4_lanes`](super::fused_axpy4_lanes).
    #[inline]
    pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len(), "scalar axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
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
        assert_eq!(dot4_lanes::<1>(&a, &b)[0], scalar::dot(&a, &b));
        assert_eq!(dot8(&a, &b), scalar::dot(&a, &b));
        let idx: Vec<u32> = (0..23).map(|i| (i * 7 % 23) as u32).collect();
        assert_eq!(
            gather_dot4_lanes(&a, &idx, &ColTile([&b[..]]))[0],
            scalar::gather_dot(&a, &idx, &b)
        );
    }

    #[test]
    fn fused_axpy4_is_bit_identical_to_four_passes() {
        let cols: Vec<Vec<f64>> =
            (0..4).map(|k| (0..13).map(|i| ((i * 3 + k) as f64).sin()).collect()).collect();
        let a = [0.3, -1.7, 0.0, 2.5];
        let mut y1: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        let mut y2 = y1.clone();
        fused_axpy4_lanes(a.map(|v| [v]), &cols[0], &cols[1], &cols[2], &cols[3], &mut y1);
        for (ak, ck) in a.iter().zip(&cols) {
            scalar::axpy(*ak, ck, &mut y2);
        }
        assert_eq!(y1, y2);
    }
}
