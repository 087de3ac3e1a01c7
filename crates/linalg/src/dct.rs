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
//! Both directions are computed via a single length-`n` FFT (Makhoul's
//! algorithm), so a plan costs `O(n log n)` per transform with no
//! trigonometry in the hot loop.
//!
//! # Lane layout
//!
//! There is one kernel, and it is lane-batched: it transforms every lane
//! (column) of a row-major `n x lanes` block at once, in the split-plane
//! layout of [`crate::fft`]. Its load folds in Makhoul's even/odd
//! reordering and the FFT's bit reversal (and, for the inverse
//! directions, the pre-FFT phase rotation); the butterflies run over
//! whole rows of lanes; its store applies the phase rotation, or the
//! `1/n` scaling and the de-permutation. [`Dct::transform_lanes`] runs it
//! directly; [`Dct::transform_rows`] runs it on a blocked transpose, so
//! the rows of a grid become lanes; [`dct2d_with`] does the rows, then
//! the columns (whose lanes are the grid rows). The 1-D [`Dct::forward`],
//! [`Dct::inverse`] and [`Dct::transpose`] are `lanes = 1` calls.
//!
//! # Order contract
//!
//! Per lane, the kernel performs identical operations, in identical
//! order, to the 1-D radix-2 plan: the Makhoul load, the butterflies in
//! the order documented in [`crate::fft`], and the same phase, scaling
//! and `D` (`c_k n / 2`) arithmetic. Lanes never mix, so every output bit
//! is independent of the lane count: a row or column of a 2-D transform
//! carries exactly the bits of the 1-D transform of that row or column.

use crate::fft::Fft;

/// A DCT-II plan of fixed power-of-two length.
#[derive(Clone, Debug)]
pub struct Dct {
    n: usize,
    fft: Fft,
    /// `exp(-i pi k / (2n))` for `k < n`, real and imaginary parts
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    /// Makhoul's even/odd reordering: signal element `i` is element
    /// `perm[i]` of the sequence the FFT transforms (`x[2j]` goes to `j`,
    /// `x[2j+1]` to `n-1-j`)
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
        let fft = Fft::new(n);
        let (ph_re, ph_im) = (0..n)
            .map(|k| {
                let ang = -std::f64::consts::PI * k as f64 / (2.0 * n as f64);
                (ang.cos(), ang.sin())
            })
            .unzip();
        let perm = (0..n).map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 } as u32).collect();
        Dct { n, fft, ph_re, ph_im, perm }
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
        self.run(out, 1, kind, &mut Vec::new(), &mut Vec::new());
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
        self.run(block, lanes, Kind::of(forward), &mut sc.re, &mut sc.im);
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
        self.run(t, rows, Kind::of(forward), re, im);
        transpose_into(t, n, rows, block);
    }

    /// The kernel: load (with the Makhoul reordering, bit reversal and,
    /// for the inverse directions, the pre-FFT rotation folded in),
    /// lane-batched butterflies, store (phase rotation, or `1/n` scaling
    /// and de-permutation). Per lane, operation for operation what the
    /// single-signal algorithm does.
    fn run(
        &self,
        block: &mut [f64],
        lanes: usize,
        kind: Kind,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
    ) {
        let n = self.n;
        assert_eq!(block.len(), n * lanes, "DCT block length mismatch");
        if n == 1 || lanes == 0 {
            // n = 1: E = D = [1], every map is the identity
            return;
        }
        re.resize(n * lanes, 0.0);
        im.resize(n * lanes, 0.0);
        if kind == Kind::Forward {
            self.load_forward(block, lanes, re, im);
        } else {
            self.load_inverse(block, lanes, kind == Kind::Transpose, re, im);
        }
        self.fft.butterflies(re, im, lanes, kind != Kind::Forward);
        if kind == Kind::Forward {
            self.store_forward(re, im, lanes, block);
        } else {
            self.store_inverse(re, lanes, block);
        }
    }

    /// `v = x` reordered (Makhoul), real, rows bit-reversed for the FFT.
    fn load_forward(&self, x: &[f64], lanes: usize, re: &mut [f64], im: &mut [f64]) {
        for (i, src) in x.chunks_exact(lanes).enumerate() {
            let r = self.fft.bit_reverse(self.perm[i] as usize);
            re[r * lanes..(r + 1) * lanes].copy_from_slice(src);
        }
        im.fill(0.0);
    }

    /// `C_k = Re(exp(-i pi k / 2n) V_k)`.
    fn store_forward(&self, re: &[f64], im: &[f64], lanes: usize, out: &mut [f64]) {
        let rows =
            out.chunks_exact_mut(lanes).zip(re.chunks_exact(lanes)).zip(im.chunks_exact(lanes));
        for (k, ((o, r), m)) in rows.enumerate() {
            let (pr, pi) = (self.ph_re[k], self.ph_im[k]);
            for ((o, &r), &m) in o.iter_mut().zip(r).zip(m) {
                *o = pr * r - pi * m;
            }
        }
    }

    /// Inverts Makhoul's last step: `V_k = exp(+i pi k / 2n) (d_k - i d_{n-k})`
    /// with `d_n = 0`, where `d = D c` for the transpose (`D = diag(n,
    /// n/2, ..., n/2)`) and `d = c` for the inverse; rows bit-reversed.
    fn load_inverse(
        &self,
        c: &[f64],
        lanes: usize,
        transpose: bool,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let n = self.n;
        let nf = n as f64;
        let rows = re.chunks_exact_mut(lanes).zip(im.chunks_exact_mut(lanes));
        for (i, (dre, dim)) in rows.enumerate() {
            let k = self.fft.bit_reverse(i);
            let ck = &c[k * lanes..(k + 1) * lanes];
            if k == 0 {
                if transpose {
                    for (d, &x) in dre.iter_mut().zip(ck) {
                        *d = x * nf;
                    }
                } else {
                    dre.copy_from_slice(ck);
                }
                dim.fill(0.0);
                continue;
            }
            let cnk = &c[(n - k) * lanes..(n - k + 1) * lanes];
            // conj(phase) = exp(+i pi k / 2n)
            let (pr, pi) = (self.ph_re[k], -self.ph_im[k]);
            if transpose {
                rotate_row(dre, dim, ck, cnk, pr, pi, |x| x * nf / 2.0);
            } else {
                rotate_row(dre, dim, ck, cnk, pr, pi, |x| x);
            }
        }
    }

    /// `out_i = Re(v_{perm[i]}) / n`: the inverse FFT's normalization and
    /// the undoing of Makhoul's reordering.
    fn store_inverse(&self, re: &[f64], lanes: usize, out: &mut [f64]) {
        let inv = 1.0 / self.n as f64;
        for (i, o) in out.chunks_exact_mut(lanes).enumerate() {
            let j = self.perm[i] as usize;
            for (o, &r) in o.iter_mut().zip(&re[j * lanes..(j + 1) * lanes]) {
                *o = r * inv;
            }
        }
    }
}

/// One row of [`Dct::load_inverse`]: `(pr + i pi) (d(a) - i d(b))`.
#[inline(always)]
fn rotate_row(
    dre: &mut [f64],
    dim: &mut [f64],
    ck: &[f64],
    cnk: &[f64],
    pr: f64,
    pi: f64,
    d: impl Fn(f64) -> f64,
) {
    for (((r, m), &a), &b) in dre.iter_mut().zip(dim.iter_mut()).zip(ck).zip(cnk) {
        let (zr, zi) = (d(a), -d(b));
        *r = pr * zr - pi * zi;
        *m = pr * zi + pi * zr;
    }
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

/// Applies a 1-D transform along every row and then every column of a
/// row-major `ny x nx` grid, in place.
///
/// `forward` selects forward (`true`) or transpose (`false`) DCT-II.
/// Allocates its work buffers per call; repeated callers use
/// [`dct2d_with`].
///
/// # Panics
///
/// Panics if `grid.len() != nx * ny` or plan sizes don't match.
pub fn dct2d(plan_x: &Dct, plan_y: &Dct, grid: &mut [f64], nx: usize, ny: usize, forward: bool) {
    dct2d_with(plan_x, plan_y, grid, nx, ny, forward, &mut Dct2dScratch::default());
}

/// Reusable work buffers for the lane-batched transforms ([`dct2d_with`],
/// [`Dct::transform_lanes`], [`Dct::transform_rows`]): the real and
/// imaginary FFT planes and the transpose staging of the row pass — at
/// most `3 n^2` values for an `n x n` grid. Every buffer is fully
/// overwritten before it is read, so reuse never changes a result.
#[derive(Clone, Debug, Default)]
pub struct Dct2dScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    t: Vec<f64>,
}

/// [`dct2d`] with caller-provided work buffers — zero heap allocation
/// once `sc` has grown to the grid size, identical results.
///
/// The column pass runs directly on the grid (its rows are the lanes);
/// the row pass runs on its blocked transpose. Both passes are the
/// lane-batched kernel, so every row and column gets exactly the bits of
/// the 1-D [`Dct::forward`] / [`Dct::transpose`].
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
        for &n in &[1usize, 2, 8, 16, 64] {
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
        for &n in &[2usize, 8, 32] {
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

    /// Scalar array-of-structs Makhoul DCT through the textbook radix-2
    /// FFT (bit-reversal swaps, then butterflies), one complex record per
    /// element: the order contract of the lane kernel, written out.
    fn scalar_reference(x: &[f64], fwd: bool) -> Vec<f64> {
        type C = (f64, f64);
        let n = x.len();
        if n == 1 {
            return vec![if fwd { x[0] } else { x[0] * n as f64 }];
        }
        let ph = |k: usize| {
            let ang = -std::f64::consts::PI * k as f64 / (2.0 * n as f64);
            (ang.cos(), ang.sin())
        };
        let perm = |i: usize| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 };
        let mut v: Vec<C> = vec![(0.0, 0.0); n];
        if fwd {
            for (i, &xi) in x.iter().enumerate() {
                v[perm(i)].0 = xi;
            }
        } else {
            let d: Vec<f64> = (0..n)
                .map(|k| if k == 0 { x[0] * n as f64 } else { x[k] * n as f64 / 2.0 })
                .collect();
            v[0] = (d[0], 0.0);
            for k in 1..n {
                let (p, z) = ((ph(k).0, -ph(k).1), (d[k], -d[n - k]));
                v[k] = (p.0 * z.0 - p.1 * z.1, p.0 * z.1 + p.1 * z.0);
            }
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() as usize >> (32 - bits);
            if i < j {
                v.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            for base in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let ang = -2.0 * std::f64::consts::PI * (k * (n / len)) as f64 / n as f64;
                    let w = (ang.cos(), if fwd { ang.sin() } else { -ang.sin() });
                    let (u, b) = (v[base + k], v[base + k + len / 2]);
                    let t = (b.0 * w.0 - b.1 * w.1, b.0 * w.1 + b.1 * w.0);
                    v[base + k] = (u.0 + t.0, u.1 + t.1);
                    v[base + k + len / 2] = (u.0 - t.0, u.1 - t.1);
                }
            }
            len <<= 1;
        }
        if fwd {
            (0..n).map(|k| ph(k).0 * v[k].0 - ph(k).1 * v[k].1).collect()
        } else {
            (0..n).map(|i| v[perm(i)].0 * (1.0 / n as f64)).collect()
        }
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn one_d_bits_match_scalar_reference() {
        for &n in &[1usize, 2, 4, 16, 128] {
            let plan = Dct::new(n);
            let x = signed_zero_grid(n);
            let mut out = vec![0.0; n];
            plan.forward(&x, &mut out);
            assert_bits_eq(&out, &scalar_reference(&x, true), &format!("forward n={n}"));
            plan.transpose(&x, &mut out);
            assert_bits_eq(&out, &scalar_reference(&x, false), &format!("transpose n={n}"));
        }
    }

    #[test]
    fn dct2d_bits_match_row_then_column_1d_plan() {
        for &(nx, ny) in &[(128usize, 128usize), (16, 64), (64, 16)] {
            let (px, py) = (Dct::new(nx), Dct::new(ny));
            let grid = signed_zero_grid(nx * ny);
            for fwd in [true, false] {
                let mut g = grid.clone();
                dct2d_with(&px, &py, &mut g, nx, ny, fwd, &mut Dct2dScratch::default());
                let want = dct2d_by_1d(&px, &py, &grid, nx, ny, fwd);
                assert_bits_eq(&g, &want, &format!("{nx}x{ny} forward={fwd}"));
            }
        }
    }

    #[test]
    fn reused_scratch_gives_identical_bits() {
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
            assert_bits_eq(&warm, &cold, &format!("forward={fwd}"));
        }
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
        dct2d(&px, &py, &mut g, nx, ny, true);
        for r in 0..ny {
            for c in 0..nx {
                let dm = if c == 0 { nx as f64 } else { nx as f64 / 2.0 };
                let dn = if r == 0 { ny as f64 } else { ny as f64 / 2.0 };
                g[r * nx + c] /= dm * dn;
            }
        }
        dct2d(&px, &py, &mut g, nx, ny, false);
        for (a, b) in g.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
