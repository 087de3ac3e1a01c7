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
//! Per lane, [`Fft::butterflies`] computes exactly what the iterative
//! radix-2 decimation-in-time plan computes: stages `len = 2, 4, ..., n`,
//! each pairing rows `base + k` and `base + k + len/2` of every `len`-row
//! block with twiddle `w = tw[k * n / len]`, and each butterfly computing
//! `t = b * w` as `(b.re w.re - b.im w.im, b.re w.im + b.im w.re)` and then
//! `a <- a + t`, `b <- a - t`. Lanes never mix and rustc never contracts
//! `a * b + c` into a fused multiply-add, so each lane's output bits are
//! independent of the lane count and of where the block came from.
//!
//! Two stages run per pass over the planes: stages `len` and `2 len` are
//! fused, so each group of rows `k, k + h, k + 2h, k + 3h` of a `2 len`
//! block (`h = len / 2`) takes its two stage-`len` butterflies and then
//! its two stage-`2 len` ones in registers, and the planes stream through
//! the cache `log2(n) / 2` times instead of `log2(n)`. An odd stage count
//! runs one plain `len = 2` stage first. A butterfly reads only the two
//! values the previous stage left in its rows, so this interleaving
//! leaves every bit where the stage-by-stage loop puts it.

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
        let tw = |k: usize| {
            let wi = self.tw_im[k];
            (self.tw_re[k], if inverse { -wi } else { wi })
        };
        let mut len = 2;
        if n.trailing_zeros() % 2 == 1 {
            // an odd stage count: one plain `len = 2` stage first
            let w = tw(0);
            let pairs = re.chunks_exact_mut(2 * lanes).zip(im.chunks_exact_mut(2 * lanes));
            for (re_blk, im_blk) in pairs {
                let (r0, r1) = re_blk.split_at_mut(lanes);
                let (i0, i1) = im_blk.split_at_mut(lanes);
                for l in 0..lanes {
                    let (a, b) = butterfly((r0[l], i0[l]), (r1[l], i1[l]), w);
                    (r0[l], i0[l], r1[l], i1[l]) = (a.0, a.1, b.0, b.1);
                }
            }
            len = 4;
        }
        // stages `len` and `2 len` in one pass: rows `k, k+h, k+2h, k+3h`
        // of a `2 len` block (`h = len / 2`) take their two stage-`len`
        // butterflies, then their two stage-`2 len` ones, in registers
        while len < n {
            let h = len / 2;
            let span = 2 * len * lanes;
            for (re_blk, im_blk) in re.chunks_exact_mut(span).zip(im.chunks_exact_mut(span)) {
                let (r01, r23) = re_blk.split_at_mut(len * lanes);
                let ((r0, r1), (r2, r3)) =
                    (r01.split_at_mut(h * lanes), r23.split_at_mut(h * lanes));
                let (i01, i23) = im_blk.split_at_mut(len * lanes);
                let ((i0, i1), (i2, i3)) =
                    (i01.split_at_mut(h * lanes), i23.split_at_mut(h * lanes));
                for k in 0..h {
                    let w1 = tw(k * (n / len));
                    let (w2, w3) = (tw(k * (n / (2 * len))), tw((k + h) * (n / (2 * len))));
                    let row = k * lanes..(k + 1) * lanes;
                    let (r0, r1) = (&mut r0[row.clone()], &mut r1[row.clone()]);
                    let (r2, r3) = (&mut r2[row.clone()], &mut r3[row.clone()]);
                    let (i0, i1) = (&mut i0[row.clone()], &mut i1[row.clone()]);
                    let (i2, i3) = (&mut i2[row.clone()], &mut i3[row]);
                    for l in 0..lanes {
                        let (a0, a1) = butterfly((r0[l], i0[l]), (r1[l], i1[l]), w1);
                        let (a2, a3) = butterfly((r2[l], i2[l]), (r3[l], i3[l]), w1);
                        let (b0, b2) = butterfly(a0, a2, w2);
                        let (b1, b3) = butterfly(a1, a3, w3);
                        (r0[l], i0[l], r1[l], i1[l]) = (b0.0, b0.1, b1.0, b1.1);
                        (r2[l], i2[l], r3[l], i3[l]) = (b2.0, b2.1, b3.0, b3.1);
                    }
                }
            }
            len <<= 2;
        }
    }
}

/// One radix-2 butterfly on one lane, in the order the [module
/// docs](self) fix: `t = b w`, then `(a + t, a - t)`.
#[inline(always)]
fn butterfly(a: (f64, f64), b: (f64, f64), w: (f64, f64)) -> ((f64, f64), (f64, f64)) {
    let tr = b.0 * w.0 - b.1 * w.1;
    let ti = b.0 * w.1 + b.1 * w.0;
    ((a.0 + tr, a.1 + ti), (a.0 - tr, a.1 - ti))
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

    /// The stage-by-stage loop of the order contract: one pass over the
    /// planes per stage.
    fn textbook(plan: &Fft, re: &mut [f64], im: &mut [f64], lanes: usize, inverse: bool) {
        let n = plan.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for base in (0..n).step_by(len) {
                for k in 0..half {
                    let wr = plan.tw_re[k * n / len];
                    let wi =
                        if inverse { -plan.tw_im[k * n / len] } else { plan.tw_im[k * n / len] };
                    for l in 0..lanes {
                        let (a, b) = ((base + k) * lanes + l, (base + k + half) * lanes + l);
                        let tr = re[b] * wr - im[b] * wi;
                        let ti = re[b] * wi + im[b] * wr;
                        let (ur, ui) = (re[a], im[a]);
                        re[a] = ur + tr;
                        im[a] = ui + ti;
                        re[b] = ur - tr;
                        im[b] = ui - ti;
                    }
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn fused_passes_match_the_textbook_loop_bit_for_bit() {
        // odd and even stage counts, one to many lanes, signed zeros in
        // the input, both directions
        for n in (0..=9).map(|b| 1usize << b) {
            let plan = Fft::new(n);
            for lanes in [1, 3, 80, 128] {
                let (mut re, mut im) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
                for (i, (r, m)) in re.iter_mut().zip(&mut im).enumerate() {
                    *r = if i % 7 == 3 { -0.0 } else { ((i * 37 % 23) as f64 - 11.0) * 0.3 };
                    *m = if i % 5 == 1 { 0.0 } else { (i as f64 * 0.9).cos() };
                }
                for inverse in [false, true] {
                    let (mut fre, mut fim) = (re.clone(), im.clone());
                    plan.butterflies(&mut fre, &mut fim, lanes, inverse);
                    let (mut tre, mut tim) = (re.clone(), im.clone());
                    textbook(&plan, &mut tre, &mut tim, lanes, inverse);
                    for (i, (f, t)) in
                        fre.iter().chain(&fim).zip(tre.iter().chain(&tim)).enumerate()
                    {
                        assert_eq!(
                            f.to_bits(),
                            t.to_bits(),
                            "n {n}, lanes {lanes}, inverse {inverse}, value {i}"
                        );
                    }
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
