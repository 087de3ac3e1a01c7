//! DCT-II plans (forward, inverse, and transpose application).
//!
//! The unnormalized DCT-II used throughout the workspace is
//!
//! ```text
//! C_k = sum_{j=0}^{n-1} x_j cos(pi k (2j+1) / (2n)),   k = 0..n-1
//! ```
//!
//! i.e. `C = E x` with `E_{kj} = cos(pi k (2j+1)/(2n))`. This kernel appears
//! twice in the thesis:
//!
//! * the eigenfunction substrate solver's mode transform (§2.3.1, Fig 2-6),
//!   where panel integrals of the cosine eigenfunctions reduce exactly to
//!   `E`, and
//! * the fast-Poisson FD preconditioner (§2.2.2), which diagonalizes the
//!   Neumann Laplacian in the x/y directions.
//!
//! # Algorithm
//!
//! Makhoul's algorithm turns the DCT into the DFT `V` of the reordered
//! real sequence `v` (`v_j = x_{2j}`, `v_{n-1-j} = x_{2j+1}`), with
//! `C_k = Re(exp(-i pi k / 2n) V_k)`. Since `v` is real, the textbook
//! real-data FFT computes `V` with a half-length complex FFT: pack
//! `z_m = v_{2m} + i v_{2m+1}`, take the `n/2`-point FFT `Z`, and recover
//! `V` in one split step,
//!
//! ```text
//! V_k = 1/2 (Z_k + conj Z_{n/2-k}) - 1/2 i W_n^k (Z_k - conj Z_{n/2-k}),
//! ```
//!
//! with `W_n = exp(-2 pi i / n)`. Conjugate symmetry gives `V_{n-k}`, and
//! the same two rows `Z_k`, `Z_{n/2-k}` give `V_{n/2 +- k}`, so the split
//! step emits `C_k`, `C_{n-k}`, `C_{n/2-k}` and `C_{n/2+k}` together. The
//! inverse and transpose directions run it backwards: from the rotated
//! `d = c` (inverse) or `d = D c` (transpose, `D = diag(n, n/2, ...,
//! n/2)`, since `E E' = D`), form
//! `Z_k = (V_k + V_{k+n/2}) + i W_n^{-k} (V_k - V_{k+n/2})`, run the
//! inverse butterflies, and read the even and odd `v` off the real and
//! imaginary planes. Every FFT is `n/2` points, so a plan costs
//! `O(n log n)` per transform with no trigonometry in the hot loop.
//!
//! # Lane layout
//!
//! There is one kernel, and it is lane-batched: it transforms every lane
//! (column) of a row-major `n x lanes` block at once, in the split-plane
//! layout of [`crate::fft`] (two `n/2 x lanes` planes). Its load folds in
//! the Makhoul reordering, the packing and the FFT's bit reversal (and,
//! for the inverse directions, the phase rotation and the inverse split
//! step); the butterflies run over whole rows of lanes; its store applies
//! the split step and phase rotation, or the unpacking, the `1/n` scaling
//! and the de-permutation. Every inner loop runs over contiguous lanes.
//! [`Dct::transform_lanes`] runs it directly; [`Dct::transform_rows`] runs
//! it on a blocked transpose, so the rows of a grid become lanes;
//! [`dct2d_with`] does the rows, then the columns (whose lanes are the
//! grid rows). The 1-D [`Dct::forward`], [`Dct::inverse`] and
//! [`Dct::transpose`] are `lanes = 1` calls.
//!
//! # Order contract
//!
//! Per lane, the kernel performs identical operations, in identical
//! order, to the single-signal half-length algorithm: the packed load,
//! the butterflies in the order documented in [`crate::fft`], and the
//! split step, phase, scaling and `D` arithmetic spelled out in the
//! kernel's helpers. Lanes never mix, so every output bit is independent
//! of the lane count: a row or column of a 2-D transform carries exactly
//! the bits of the 1-D transform of that row or column. `n = 1` is the
//! identity in every direction; `n = 2` is the split step alone (a
//! one-point FFT).
//!
//! The kernel, its load and store helpers inlined, is compiled once per
//! [`Tier`](crate::simd::Tier) from one body, like the butterflies, and
//! runs at the widest the CPU reports. The tiers differ only in how many
//! lanes one instruction carries: per lane the operations and their order
//! are the ones above, and no tier enables `fma`, so every tier yields
//! the baseline bits.

use crate::fft::Fft;

/// A DCT-II plan of fixed power-of-two length.
#[derive(Clone, Debug)]
pub struct Dct {
    n: usize,
    /// the half-length (`n / 2`-point) complex FFT; unused for `n = 1`
    fft: Fft,
    /// `exp(-i pi k / (2n))` for `k < n`, real and imaginary parts
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    /// the split-step twiddles `W_n^k = exp(-2 pi i k / n)` for `k <= n/4`
    w_re: Vec<f64>,
    w_im: Vec<f64>,
    /// Makhoul's even/odd reordering: signal element `i` is element
    /// `perm[i]` of the real sequence `v` (`x[2j]` goes to `j`, `x[2j+1]`
    /// to `n-1-j`); `v_j` is packed into `z_{j/2}`, real part if `j` is
    /// even, imaginary part if odd
    perm: Vec<u32>,
}

/// Which of the three DCT-II maps a kernel pass applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `E x`
    Forward,
    /// `E^{-1} c`
    Inverse,
    /// `E' c`
    Transpose,
}

impl Kind {
    fn of(forward: bool) -> Self {
        if forward {
            Kind::Forward
        } else {
            Kind::Transpose
        }
    }
}

impl Dct {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "DCT size must be a power of two, got {n}");
        let fft = Fft::new((n / 2).max(1));
        let (ph_re, ph_im) = (0..n)
            .map(|k| {
                let ang = -std::f64::consts::PI * k as f64 / (2.0 * n as f64);
                (ang.cos(), ang.sin())
            })
            .unzip();
        let (w_re, w_im) = (0..=n / 4)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .unzip();
        let perm = (0..n).map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 } as u32).collect();
        Dct { n, fft, ph_re, ph_im, w_re, w_im, perm }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan length is zero (never happens; see
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DCT-II: `out = E x` (unnormalized).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the plan length.
    pub fn forward(&self, x: &[f64], out: &mut [f64]) {
        self.single(x, out, Kind::Forward);
    }

    /// Inverse of [`forward`](Self::forward): given `c = E x`, recovers `x`
    /// (i.e. computes `E^{-1} c`).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the plan length.
    pub fn inverse(&self, c: &[f64], out: &mut [f64]) {
        self.single(c, out, Kind::Inverse);
    }

    /// Transpose application: `out = E' c`, i.e.
    /// `out_j = sum_k c_k cos(pi k (2j+1)/(2n))`.
    ///
    /// Uses the identity `E E' = diag(n, n/2, ..., n/2)`, so
    /// `E' c = E^{-1} (D c)`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the plan length.
    pub fn transpose(&self, c: &[f64], out: &mut [f64]) {
        self.single(c, out, Kind::Transpose);
    }

    /// One signal is the `lanes = 1` block; its work planes are allocated
    /// per call (the solvers' hot loops use the scratch-taking block
    /// transforms instead).
    fn single(&self, x: &[f64], out: &mut [f64], kind: Kind) {
        assert_eq!(x.len(), self.n, "DCT input length mismatch");
        assert_eq!(out.len(), self.n, "DCT output length mismatch");
        out.copy_from_slice(x);
        run(self, out, 1, kind, &mut Vec::new(), &mut Vec::new());
    }

    /// Transforms every lane (column) of a row-major `n x lanes` block in
    /// place: forward DCT-II (`E`) if `forward`, else its transpose
    /// (`E'`). Per lane the result is bit-identical to the 1-D
    /// [`forward`](Self::forward) / [`transpose`](Self::transpose).
    /// Zero heap allocation once `sc` has grown to the block size.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n * lanes`.
    pub fn transform_lanes(
        &self,
        block: &mut [f64],
        lanes: usize,
        forward: bool,
        sc: &mut Dct2dScratch,
    ) {
        run(self, block, lanes, Kind::of(forward), &mut sc.re, &mut sc.im);
    }

    /// Transforms every row of a row-major `rows x n` block in place, as
    /// [`transform_lanes`](Self::transform_lanes) on the block's
    /// transpose (the rows become lanes through a blocked transpose into
    /// `sc`, and back). Same per-row bits as the 1-D transforms.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != rows * n`.
    pub fn transform_rows(
        &self,
        block: &mut [f64],
        rows: usize,
        forward: bool,
        sc: &mut Dct2dScratch,
    ) {
        let n = self.n;
        assert_eq!(block.len(), rows * n, "DCT block length mismatch");
        let Dct2dScratch { re, im, t } = sc;
        t.resize(rows * n, 0.0);
        transpose_into(block, rows, n, t);
        run(self, t, rows, Kind::of(forward), re, im);
        transpose_into(t, n, rows, block);
    }

    /// `z_m = v_{2m} + i v_{2m+1}` for the Makhoul-reordered `v = x`,
    /// rows bit-reversed for the half-length FFT.
    #[inline(always)]
    fn load_forward(&self, x: &[f64], lanes: usize, re: &mut [f64], im: &mut [f64]) {
        for (i, src) in x.chunks_exact(lanes).enumerate() {
            let j = self.perm[i] as usize;
            let r = self.fft.bit_reverse(j / 2);
            let plane = if j.is_multiple_of(2) { &mut *re } else { &mut *im };
            plane[r * lanes..(r + 1) * lanes].copy_from_slice(src);
        }
    }

    /// The split step from `Z = FFT(z)` to the `n`-point spectrum `V` of
    /// the real `v`, then `C_k = Re(exp(-i pi k / 2n) V_k)`. With
    /// `E = 1/2 (Z_k + conj Z_{n/2-k})`, `O = -1/2 i (Z_k - conj Z_{n/2-k})`
    /// and `T = W_n^k O`: `V_k = E + T`, `V_{n/2+k} = E - T`, and by
    /// conjugate symmetry `V_{n-k} = conj V_k`, `V_{n/2-k} = conj V_{n/2+k}`,
    /// so one pair of rows emits `C_k`, `C_{n-k}`, `C_{n/2+k}` and
    /// `C_{n/2-k}`.
    #[inline(always)]
    fn store_forward(&self, re: &[f64], im: &[f64], lanes: usize, out: &mut [f64]) {
        let (n, h) = (self.n, self.n / 2);
        let (lo, hi) = out.split_at_mut(h * lanes);
        // k = 0: V_0 = Re Z_0 + Im Z_0 and V_{n/2} = Re Z_0 - Im Z_0 are real
        let (zr, zi) = (lane_row(re, lanes, 0), lane_row(im, lanes, 0));
        let (c0, ch, p) = (&mut lo[..lanes], &mut hi[..lanes], self.ph_re[h]);
        for l in 0..lanes {
            c0[l] = zr[l] + zi[l];
            ch[l] = p * (zr[l] - zi[l]);
        }
        for k in 1..=n / 4 {
            let (ar, ai) = (lane_row(re, lanes, k), lane_row(im, lanes, k));
            let (cr, ci) = (lane_row(re, lanes, h - k), lane_row(im, lanes, h - k));
            let w = (self.w_re[k], self.w_im[k]);
            let (p0r, p0i) = (self.ph_re[k], self.ph_im[k]);
            let (p1r, p1i) = (self.ph_re[n - k], self.ph_im[n - k]);
            if 2 * k == h {
                // Z_{n/2-k} is Z_k: only C_k and C_{n-k}
                let (ck, cnk) = (&mut lo[k * lanes..][..lanes], &mut hi[k * lanes..][..lanes]);
                for l in 0..lanes {
                    let (sr, si, _, _) = split((ar[l], ai[l]), (cr[l], ci[l]), w);
                    ck[l] = p0r * sr - p0i * si;
                    cnk[l] = p1r * sr + p1i * si;
                }
                continue;
            }
            let (p2r, p2i) = (self.ph_re[h + k], self.ph_im[h + k]);
            let (p3r, p3i) = (self.ph_re[h - k], self.ph_im[h - k]);
            // rows k < n/2 - k of each half: C_k and C_{n/2-k} in `lo`,
            // C_{n/2+k} and C_{n-k} in `hi`
            let (ck, chk) = two_rows(lo, lanes, k, h - k);
            let (cpk, cnk) = two_rows(hi, lanes, k, h - k);
            for l in 0..lanes {
                let (sr, si, dr, di) = split((ar[l], ai[l]), (cr[l], ci[l]), w);
                ck[l] = p0r * sr - p0i * si;
                cnk[l] = p1r * sr + p1i * si;
                cpk[l] = p2r * dr - p2i * di;
                chk[l] = p3r * dr + p3i * di;
            }
        }
    }

    /// Inverts the split step and Makhoul's last step. Per row `k`,
    /// `V_k = exp(+i pi k / 2n) (d_k - i d_{n-k})` with `d_n = 0`, where
    /// `d = D c` for the transpose (`D = diag(n, n/2, ..., n/2)`, applied
    /// by `d0` to row 0 and by `d` to the rest) and `d = c` for the
    /// inverse. Then `Z_k = S + U` and `Z_{n/2-k} = conj(S - U)` with
    /// `S = V_k + V_{n/2+k}` and `U = i W_n^{-k} (V_k - V_{n/2+k})`, which
    /// is twice the spectrum of `z = v_even + i v_odd`; rows bit-reversed.
    #[inline(always)]
    fn load_inverse(
        &self,
        c: &[f64],
        lanes: usize,
        re: &mut [f64],
        im: &mut [f64],
        d0: impl Fn(f64) -> f64,
        d: impl Fn(f64) -> f64,
    ) {
        let (n, h) = (self.n, self.n / 2);
        let row = |k: usize| lane_row(c, lanes, k);
        // k = 0: V_0 = d_0 and V_{n/2} = sqrt(2) d_{n/2} are real, and
        // W_n^0 = 1
        let (c0, ch) = (row(0), row(h));
        let (zr, zi) = (&mut re[..lanes], &mut im[..lanes]);
        for l in 0..lanes {
            let (v0, vh) = (d0(c0[l]), std::f64::consts::SQRT_2 * d(ch[l]));
            zr[l] = v0 + vh;
            zi[l] = v0 - vh;
        }
        for k in 1..=n / 4 {
            let (ck, cnk, chk, cmk) = (row(k), row(n - k), row(h + k), row(h - k));
            let w = (self.w_re[k], self.w_im[k]);
            // conj(phase) = exp(+i pi k / 2n)
            let p0 = (self.ph_re[k], -self.ph_im[k]);
            let p1 = (self.ph_re[h + k], -self.ph_im[h + k]);
            let (ra, rb) = (self.fft.bit_reverse(k), self.fft.bit_reverse(h - k));
            if ra == rb {
                // k = n/4: Z_{n/2-k} is Z_k
                let (zr, zi) = (&mut re[ra * lanes..][..lanes], &mut im[ra * lanes..][..lanes]);
                for l in 0..lanes {
                    let (sr, si, ur, ui) =
                        unsplit([d(ck[l]), d(cnk[l]), d(chk[l]), d(cmk[l])], p0, p1, w);
                    zr[l] = sr + ur;
                    zi[l] = si + ui;
                }
                continue;
            }
            let (ar, br) = two_rows(re, lanes, ra, rb);
            let (ai, bi) = two_rows(im, lanes, ra, rb);
            for l in 0..lanes {
                let (sr, si, ur, ui) =
                    unsplit([d(ck[l]), d(cnk[l]), d(chk[l]), d(cmk[l])], p0, p1, w);
                ar[l] = sr + ur;
                ai[l] = si + ui;
                br[l] = sr - ur;
                bi[l] = ui - si;
            }
        }
    }

    /// `out_i = v_{perm[i]} / n`, with `v_{2m} = Re z_m` and
    /// `v_{2m+1} = Im z_m`: the unpacking, the inverse FFT's normalization
    /// and the undoing of Makhoul's reordering.
    #[inline(always)]
    fn store_inverse(&self, re: &[f64], im: &[f64], lanes: usize, out: &mut [f64]) {
        let inv = 1.0 / self.n as f64;
        for (i, o) in out.chunks_exact_mut(lanes).enumerate() {
            let j = self.perm[i] as usize;
            let plane = if j.is_multiple_of(2) { re } else { im };
            for (o, &r) in o.iter_mut().zip(&plane[j / 2 * lanes..(j / 2 + 1) * lanes]) {
                *o = r * inv;
            }
        }
    }
}

crate::simd::tiered! {
    /// The kernel: load into the half-length planes (Makhoul reordering,
    /// packing, bit reversal and, for the inverse directions, the phase
    /// rotation and the inverse split step folded in), lane-batched
    /// `n/2`-point butterflies, store (the split step and phase rotation,
    /// or the unpacking, `1/n` scaling and de-permutation). Per lane,
    /// operation for operation what the single-signal algorithm does, at
    /// the widest [`Tier`](crate::simd::Tier) the CPU reports.
    fn run(
        plan: &Dct,
        block: &mut [f64],
        lanes: usize,
        kind: Kind,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
    ) {
        let n = plan.n;
        assert_eq!(block.len(), n * lanes, "DCT block length mismatch");
        if n == 1 || lanes == 0 {
            // n = 1: E = D = [1], every map is the identity
            return;
        }
        re.resize(n / 2 * lanes, 0.0);
        im.resize(n / 2 * lanes, 0.0);
        match kind {
            Kind::Forward => plan.load_forward(block, lanes, re, im),
            Kind::Inverse => plan.load_inverse(block, lanes, re, im, |x| x, |x| x),
            Kind::Transpose => {
                let nf = n as f64;
                plan.load_inverse(block, lanes, re, im, |x| x * nf, |x| x * nf / 2.0);
            }
        }
        plan.fft.butterflies(re, im, lanes, kind != Kind::Forward);
        if kind == Kind::Forward {
            plan.store_forward(re, im, lanes, block);
        } else {
            plan.store_inverse(re, im, lanes, block);
        }
    }
}

/// Row `k` of a row-major block with `lanes` columns.
#[inline(always)]
fn lane_row(block: &[f64], lanes: usize, k: usize) -> &[f64] {
    &block[k * lanes..(k + 1) * lanes]
}

/// Rows `i != j` of a row-major block with `lanes` columns, both mutable.
#[inline(always)]
fn two_rows(block: &mut [f64], lanes: usize, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
    if i < j {
        let (a, b) = block.split_at_mut(j * lanes);
        (&mut a[i * lanes..(i + 1) * lanes], &mut b[..lanes])
    } else {
        let (a, b) = block.split_at_mut(i * lanes);
        (&mut b[..lanes], &mut a[j * lanes..(j + 1) * lanes])
    }
}

/// One lane of the forward split step from `a = Z_k` and `c = Z_{n/2-k}`:
/// `E = 1/2 (a + conj c)`, `O = -1/2 i (a - conj c)`, `T = W O` (in the
/// butterfly's operand order); returns `V_k = E + T` and
/// `V_{n/2+k} = E - T`.
#[inline(always)]
fn split((ar, ai): (f64, f64), (cr, ci): (f64, f64), (wr, wi): (f64, f64)) -> (f64, f64, f64, f64) {
    let (er, ei) = (0.5 * (ar + cr), 0.5 * (ai - ci));
    let (or, oi) = (0.5 * (ai + ci), 0.5 * (cr - ar));
    let (tr, ti) = (or * wr - oi * wi, or * wi + oi * wr);
    (er + tr, ei + ti, er - tr, ei - ti)
}

/// One lane of the inverse split step from the scaled coefficients
/// `d = [d_k, d_{n-k}, d_{n/2+k}, d_{n/2-k}]`: the rotations
/// `V_k = p0 (d_k - i d_{n-k})` and `V_{n/2+k} = p1 (d_{n/2+k} - i d_{n/2-k})`,
/// then `S = V_k + V_{n/2+k}` and `U = i conj(w) (V_k - V_{n/2+k})`.
#[inline(always)]
fn unsplit(
    [dk, dnk, dhk, dmk]: [f64; 4],
    (p0r, p0i): (f64, f64),
    (p1r, p1i): (f64, f64),
    (wr, wi): (f64, f64),
) -> (f64, f64, f64, f64) {
    let (ar, ai) = (p0r * dk + p0i * dnk, p0i * dk - p0r * dnk);
    let (br, bi) = (p1r * dhk + p1i * dmk, p1i * dhk - p1r * dmk);
    let (sr, si, mr, mi) = (ar + br, ai + bi, ar - br, ai - bi);
    (sr, si, wi * mr - wr * mi, wr * mr + wi * mi)
}

/// `dst = src'` for a row-major `rows x cols` `src`, in cache-sized tiles.
fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    const TILE: usize = 16;
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            for r in r0..(r0 + TILE).min(rows) {
                for c in c0..(c0 + TILE).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Reusable work buffers for the lane-batched transforms ([`dct2d_with`],
/// [`Dct::transform_lanes`], [`Dct::transform_rows`]): the real and
/// imaginary half-length FFT planes and the transpose staging of the row
/// pass — at most `2 n^2` values for an `n x n` grid. Every buffer is fully
/// overwritten before it is read, so reuse never changes a result.
#[derive(Clone, Debug, Default)]
pub struct Dct2dScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    t: Vec<f64>,
}

/// Applies a 1-D transform along every row and then every column of a
/// row-major `ny x nx` grid, in place, in the caller's work buffers — zero
/// heap allocation once `sc` has grown to the grid size. `forward`
/// selects forward (`true`) or transpose (`false`) DCT-II.
///
/// The column pass runs directly on the grid (its rows are the lanes);
/// the row pass runs on its blocked transpose. Both passes are the
/// lane-batched kernel, so every row and column gets exactly the bits of
/// the 1-D [`Dct::forward`] / [`Dct::transpose`].
///
/// # Panics
///
/// Panics if `grid.len() != nx * ny` or plan sizes don't match.
pub fn dct2d_with(
    plan_x: &Dct,
    plan_y: &Dct,
    grid: &mut [f64],
    nx: usize,
    ny: usize,
    forward: bool,
    sc: &mut Dct2dScratch,
) {
    assert_eq!(grid.len(), nx * ny);
    assert_eq!(plan_x.len(), nx);
    assert_eq!(plan_y.len(), ny);
    // rows (x direction)
    plan_x.transform_rows(grid, ny, forward, sc);
    // columns (y direction)
    plan_y.transform_lanes(grid, nx, forward, sc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_forward(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(j, &xj)| {
                        xj * (std::f64::consts::PI * k as f64 * (2 * j + 1) as f64
                            / (2.0 * n as f64))
                            .cos()
                    })
                    .sum()
            })
            .collect()
    }

    fn naive_transpose(c: &[f64]) -> Vec<f64> {
        let n = c.len();
        (0..n)
            .map(|j| {
                c.iter()
                    .enumerate()
                    .map(|(k, &ck)| {
                        ck * (std::f64::consts::PI * k as f64 * (2 * j + 1) as f64
                            / (2.0 * n as f64))
                            .cos()
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let plan = Dct::new(n);
            let x: Vec<f64> = (0..n).map(|i| ((i * i + 3) as f64 * 0.1).sin()).collect();
            let mut out = vec![0.0; n];
            plan.forward(&x, &mut out);
            let expect = naive_forward(&x);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-10 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for &n in &[2usize, 4, 32, 128] {
            let plan = Dct::new(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 - 3.5) * 0.25).collect();
            let mut c = vec![0.0; n];
            let mut back = vec![0.0; n];
            plan.forward(&x, &mut c);
            plan.inverse(&c, &mut back);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-11, "n={n}");
            }
        }
    }

    #[test]
    fn transpose_matches_naive() {
        for &n in &[2usize, 4, 8, 32, 256] {
            let plan = Dct::new(n);
            let c: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).ln()).collect();
            let mut out = vec![0.0; n];
            plan.transpose(&c, &mut out);
            let expect = naive_transpose(&c);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-10 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    /// Grid data that exercises signed zeros: exact `0.0` and `-0.0`
    /// entries among values spanning five decades.
    fn signed_zero_grid(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => ((i * i + 3) as f64 * 0.37).sin() * 10f64.powi((i % 5) as i32 - 2),
            })
            .collect()
    }

    /// The 2-D transform spelled out with the 1-D plan: every row, then
    /// every column through a gathered copy.
    fn dct2d_by_1d(px: &Dct, py: &Dct, grid: &[f64], nx: usize, ny: usize, fwd: bool) -> Vec<f64> {
        let apply = |p: &Dct, x: &[f64], out: &mut [f64]| {
            if fwd {
                p.forward(x, out)
            } else {
                p.transpose(x, out)
            }
        };
        let mut g = grid.to_vec();
        for row in g.chunks_exact_mut(nx) {
            let x = row.to_vec();
            apply(px, &x, row);
        }
        let mut out = vec![0.0; ny];
        for c in 0..nx {
            let col: Vec<f64> = (0..ny).map(|r| g[r * nx + c]).collect();
            apply(py, &col, &mut out);
            for r in 0..ny {
                g[r * nx + c] = out[r];
            }
        }
        g
    }

    /// Scalar array-of-structs Makhoul DCT through the half-length real-data
    /// FFT: the packed load (or the rotation and inverse split step), the
    /// textbook radix-2 FFT of `n/2` points (bit-reversal swaps, then
    /// butterflies), and the split step (or the unpacking), one complex
    /// record per element: the order contract of the lane kernel, written
    /// out.
    fn scalar_reference(x: &[f64], fwd: bool) -> Vec<f64> {
        type C = (f64, f64);
        let n = x.len();
        if n == 1 {
            return vec![if fwd { x[0] } else { x[0] * n as f64 }];
        }
        let (h, nf) = (n / 2, n as f64);
        let ph = |k: usize| {
            let ang = -std::f64::consts::PI * k as f64 / (2.0 * n as f64);
            (ang.cos(), ang.sin())
        };
        let w = |k: usize| {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            (ang.cos(), ang.sin())
        };
        let perm = |i: usize| if i.is_multiple_of(2) { i / 2 } else { n - 1 - i / 2 };
        let mut z: Vec<C> = vec![(0.0, 0.0); h];
        if fwd {
            for (i, &xi) in x.iter().enumerate() {
                let j = perm(i);
                if j % 2 == 0 {
                    z[j / 2].0 = xi;
                } else {
                    z[j / 2].1 = xi;
                }
            }
        } else {
            let d = |k: usize| if k == 0 { x[0] * nf } else { x[k] * nf / 2.0 };
            // V_k = exp(+i pi k / 2n) (d_k - i d_{n-k})
            let rot = |k: usize| -> C {
                let (pr, pi) = (ph(k).0, -ph(k).1);
                (pr * d(k) + pi * d(n - k), pi * d(k) - pr * d(n - k))
            };
            let vh = std::f64::consts::SQRT_2 * d(h);
            z[0] = (d(0) + vh, d(0) - vh);
            for k in 1..=n / 4 {
                let (a, b) = (rot(k), rot(h + k));
                let (s, m) = ((a.0 + b.0, a.1 + b.1), (a.0 - b.0, a.1 - b.1));
                let (wr, wi) = w(k);
                let u = (wi * m.0 - wr * m.1, wr * m.0 + wi * m.1);
                z[k] = (s.0 + u.0, s.1 + u.1);
                if 2 * k != h {
                    z[h - k] = (s.0 - u.0, u.1 - s.1);
                }
            }
        }
        let bits = h.trailing_zeros();
        for i in 0..h {
            let j = if bits == 0 { 0 } else { (i as u32).reverse_bits() as usize >> (32 - bits) };
            if i < j {
                z.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= h {
            for base in (0..h).step_by(len) {
                for k in 0..len / 2 {
                    let ang = -2.0 * std::f64::consts::PI * (k * (h / len)) as f64 / h as f64;
                    let w = (ang.cos(), if fwd { ang.sin() } else { -ang.sin() });
                    let (u, b) = (z[base + k], z[base + k + len / 2]);
                    let t = (b.0 * w.0 - b.1 * w.1, b.0 * w.1 + b.1 * w.0);
                    z[base + k] = (u.0 + t.0, u.1 + t.1);
                    z[base + k + len / 2] = (u.0 - t.0, u.1 - t.1);
                }
            }
            len <<= 1;
        }
        if !fwd {
            let part = |j: usize| if j.is_multiple_of(2) { z[j / 2].0 } else { z[j / 2].1 };
            return (0..n).map(|i| part(perm(i)) * (1.0 / nf)).collect();
        }
        let mut c = vec![0.0; n];
        c[0] = z[0].0 + z[0].1;
        c[h] = ph(h).0 * (z[0].0 - z[0].1);
        for k in 1..=n / 4 {
            let (a, b) = (z[k], z[h - k]);
            let e = (0.5 * (a.0 + b.0), 0.5 * (a.1 - b.1));
            let o = (0.5 * (a.1 + b.1), 0.5 * (b.0 - a.0));
            let (wr, wi) = w(k);
            let t = (o.0 * wr - o.1 * wi, o.0 * wi + o.1 * wr);
            // V_k and V_{n/2+k}
            let (v, u) = ((e.0 + t.0, e.1 + t.1), (e.0 - t.0, e.1 - t.1));
            c[k] = ph(k).0 * v.0 - ph(k).1 * v.1;
            c[n - k] = ph(n - k).0 * v.0 + ph(n - k).1 * v.1;
            if 2 * k != h {
                c[h + k] = ph(h + k).0 * u.0 - ph(h + k).1 * u.1;
                c[h - k] = ph(h - k).0 * u.0 + ph(h - k).1 * u.1;
            }
        }
        c
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn one_d_bits_match_scalar_reference() {
        crate::simd::each_tier(|tier| {
            for &n in &[1usize, 2, 4, 8, 16, 128, 256] {
                let plan = Dct::new(n);
                let x = signed_zero_grid(n);
                let mut out = vec![0.0; n];
                plan.forward(&x, &mut out);
                assert_bits_eq(
                    &out,
                    &scalar_reference(&x, true),
                    &format!("{tier:?} forward n={n}"),
                );
                plan.transpose(&x, &mut out);
                assert_bits_eq(
                    &out,
                    &scalar_reference(&x, false),
                    &format!("{tier:?} transpose n={n}"),
                );
            }
        });
    }

    #[test]
    fn dct2d_bits_match_row_then_column_1d_plan() {
        crate::simd::each_tier(|tier| {
            for &(nx, ny) in &[(128usize, 128usize), (16, 64), (64, 16)] {
                let (px, py) = (Dct::new(nx), Dct::new(ny));
                let grid = signed_zero_grid(nx * ny);
                for fwd in [true, false] {
                    let mut g = grid.clone();
                    dct2d_with(&px, &py, &mut g, nx, ny, fwd, &mut Dct2dScratch::default());
                    let want = dct2d_by_1d(&px, &py, &grid, nx, ny, fwd);
                    assert_bits_eq(&g, &want, &format!("{tier:?} {nx}x{ny} forward={fwd}"));
                }
            }
        });
    }

    #[test]
    fn reused_scratch_gives_identical_bits() {
        crate::simd::each_tier(|tier| {
            // a scratch warmed on a larger grid (stale values past the new
            // block) and then reused must not change a bit
            let mut sc = Dct2dScratch::default();
            let big = Dct::new(64);
            let mut g = signed_zero_grid(64 * 64);
            dct2d_with(&big, &big, &mut g, 64, 64, true, &mut sc);
            let (px, py) = (Dct::new(32), Dct::new(8));
            let grid = signed_zero_grid(32 * 8);
            for fwd in [true, false] {
                let mut warm = grid.clone();
                dct2d_with(&px, &py, &mut warm, 32, 8, fwd, &mut sc);
                let mut cold = grid.clone();
                dct2d_with(&px, &py, &mut cold, 32, 8, fwd, &mut Dct2dScratch::default());
                assert_bits_eq(&warm, &cold, &format!("{tier:?} forward={fwd}"));
            }
        });
    }

    #[test]
    fn dct2d_forward_then_transpose_is_diagonal_scaling() {
        // E' D^{-1} E = I where D = diag(n, n/2, ...): check that a forward
        // 2-D transform followed by mode-wise division by d_m d_n and a
        // transpose transform returns the input.
        let (nx, ny) = (8, 4);
        let px = Dct::new(nx);
        let py = Dct::new(ny);
        let orig: Vec<f64> = (0..nx * ny).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut g = orig.clone();
        let mut sc = Dct2dScratch::default();
        dct2d_with(&px, &py, &mut g, nx, ny, true, &mut sc);
        for r in 0..ny {
            for c in 0..nx {
                let dm = if c == 0 { nx as f64 } else { nx as f64 / 2.0 };
                let dn = if r == 0 { ny as f64 } else { ny as f64 / 2.0 };
                g[r * nx + c] /= dm * dn;
            }
        }
        dct2d_with(&px, &py, &mut g, nx, ny, false, &mut sc);
        for (a, b) in g.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
