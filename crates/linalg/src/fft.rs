//! Lane-batched radix-2 complex FFT with precomputed twiddle factors.
//!
//! Backs the DCT plans in [`crate::dct`]; those in turn drive the
//! eigenfunction substrate solver's current-to-potential operator and the
//! fast-Poisson FD preconditioner. Sizes are restricted to powers of two,
//! which is all the surface/volume grids use.
//!
//! # Lane layout
//!
//! A transform works on a *block* of `lanes` independent length-`n`
//! signals stored as an `n x lanes` row-major array: element `j` of lane
//! `l` sits at `j * lanes + l`. Real and imaginary parts live in two
//! separate planes of that shape. Every butterfly of the plan is applied
//! to a whole row of lanes at once, so the innermost loop runs over
//! contiguous memory and compiles to packed SIMD without intrinsics.
//! A single signal is the `lanes = 1` block.
//!
//! # Order contract
//!
//! Per lane, [`Fft::butterflies`] performs exactly the operations of the
//! iterative radix-2 decimation-in-time plan, in the same order: stages
//! `len = 2, 4, ..., n`; within a stage, blocks in increasing `base`;
//! within a block, butterflies `k = 0..len/2` with twiddle
//! `w = tw[k * n / len]`, each computing `t = b * w` as
//! `(b.re w.re - b.im w.im, b.re w.im + b.im w.re)` and then
//! `a <- a + t`, `b <- a - t`. Lanes never mix and rustc never contracts
//! `a * b + c` into a fused multiply-add, so each lane's output bits are
//! independent of the lane count and of where the block came from.

/// An FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors so
/// repeated transforms (the hot path of the eigenfunction solver) do no
/// trigonometry.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    rev: Vec<u32>,
    /// `exp(-2 pi i k / n)` for `k < n/2`, split into real and imaginary
    /// parts
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl Fft {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "FFT size must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = if n == 1 {
            vec![0]
        } else {
            (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect()
        };
        let (tw_re, tw_im) = (0..n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .unzip();
        Fft { n, rev, tw_re, tw_im }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan length is zero (never; kept for API
    /// completeness alongside [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bit-reversed index of `i`: the row that input element `i`
    /// must be loaded into before [`butterflies`](Self::butterflies).
    /// An involution, so it also maps a loaded row back to its element.
    #[inline]
    pub fn bit_reverse(&self, i: usize) -> usize {
        self.rev[i] as usize
    }

    /// In-place radix-2 butterflies over an `n x lanes` split-plane block
    /// whose rows are in bit-reversed order (see
    /// [`bit_reverse`](Self::bit_reverse)); the result is in natural
    /// order.
    ///
    /// Forward computes `X_k = sum_j x_j exp(-2 pi i j k / n)` for every
    /// lane; `inverse` conjugates the twiddles and leaves the `1/n`
    /// normalization to the caller.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length is not `n * lanes`.
    pub fn butterflies(&self, re: &mut [f64], im: &mut [f64], lanes: usize, inverse: bool) {
        let n = self.n;
        assert_eq!(re.len(), n * lanes, "FFT real plane length mismatch");
        assert_eq!(im.len(), n * lanes, "FFT imaginary plane length mismatch");
        if lanes == 0 {
            return;
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            let span = len * lanes;
            for (re_blk, im_blk) in re.chunks_exact_mut(span).zip(im.chunks_exact_mut(span)) {
                let (re_a, re_b) = re_blk.split_at_mut(half * lanes);
                let (im_a, im_b) = im_blk.split_at_mut(half * lanes);
                for k in 0..half {
                    let wr = self.tw_re[k * step];
                    let wi = if inverse { -self.tw_im[k * step] } else { self.tw_im[k * step] };
                    let row = k * lanes..(k + 1) * lanes;
                    let a = re_a[row.clone()].iter_mut().zip(&mut im_a[row.clone()]);
                    let b = re_b[row.clone()].iter_mut().zip(&mut im_b[row]);
                    for ((ar, ai), (br, bi)) in a.zip(b) {
                        let tr = *br * wr - *bi * wi;
                        let ti = *br * wi + *bi * wr;
                        let (ur, ui) = (*ar, *ai);
                        *ar = ur + tr;
                        *ai = ui + ti;
                        *br = ur - tr;
                        *bi = ui - ti;
                    }
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads `x` (natural order, one lane) into bit-reversed split planes.
    fn load(plan: &Fft, x: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let n = x.len();
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        for (j, &(r, i)) in x.iter().enumerate() {
            re[plan.bit_reverse(j)] = r;
            im[plan.bit_reverse(j)] = i;
        }
        (re, im)
    }

    fn naive_dft(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter().enumerate().fold((0.0, 0.0), |(sr, si), (j, &(xr, xi))| {
                    let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    let (c, s) = (ang.cos(), ang.sin());
                    (sr + xr * c - xi * s, si + xr * s + xi * c)
                })
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = Fft::new(n);
            let x: Vec<(f64, f64)> =
                (0..n).map(|i| ((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect();
            let expect = naive_dft(&x);
            let (mut re, mut im) = load(&plan, &x);
            plan.butterflies(&mut re, &mut im, 1, false);
            for k in 0..n {
                assert!((re[k] - expect[k].0).abs() < 1e-9 * n as f64, "n={n}");
                assert!((im[k] - expect[k].1).abs() < 1e-9 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let n = 64;
        let plan = Fft::new(n);
        let orig: Vec<(f64, f64)> =
            (0..n).map(|i| ((i as f64).sqrt(), -(i as f64) * 0.01)).collect();
        let (mut re, mut im) = load(&plan, &orig);
        plan.butterflies(&mut re, &mut im, 1, false);
        let spectrum: Vec<(f64, f64)> = re.iter().copied().zip(im.iter().copied()).collect();
        let (mut re, mut im) = load(&plan, &spectrum);
        plan.butterflies(&mut re, &mut im, 1, true);
        for (k, &(r, i)) in orig.iter().enumerate() {
            assert!((re[k] / n as f64 - r).abs() < 1e-12);
            assert!((im[k] / n as f64 - i).abs() < 1e-12);
        }
    }

    #[test]
    fn lanes_transform_independently_and_bit_identically() {
        // every lane of a 3-lane block must carry exactly the bits of its
        // own single-lane transform, in both directions
        let (n, lanes) = (16, 3);
        let plan = Fft::new(n);
        let (mut re, mut im) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
        for (i, (r, m)) in re.iter_mut().zip(&mut im).enumerate() {
            *r = ((i * 37 % 11) as f64 - 5.0) * 0.3;
            *m = if i % 4 == 0 { -0.0 } else { (i as f64 * 0.9).cos() };
        }
        for inverse in [false, true] {
            let (mut bre, mut bim) = (re.clone(), im.clone());
            plan.butterflies(&mut bre, &mut bim, lanes, inverse);
            for l in 0..lanes {
                let mut lre: Vec<f64> = (0..n).map(|j| re[j * lanes + l]).collect();
                let mut lim: Vec<f64> = (0..n).map(|j| im[j * lanes + l]).collect();
                plan.butterflies(&mut lre, &mut lim, 1, inverse);
                for j in 0..n {
                    assert_eq!(bre[j * lanes + l].to_bits(), lre[j].to_bits());
                    assert_eq!(bim[j * lanes + l].to_bits(), lim[j].to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(12);
    }
}
