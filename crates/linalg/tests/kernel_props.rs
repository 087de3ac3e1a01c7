//! Property suite for the lane-blocked serving kernels: every kernel in
//! `subsparse_linalg::kernels` is pinned against its retained scalar
//! reference on random shapes — lengths that are multiples of the lane
//! width and ragged remainders (`len % 8 != 0`, `len % 4 != 0`), block
//! widths 1/3/8/11, and inputs with exact zeros (the dense kernels skip
//! zero multipliers).
//!
//! Two kinds of agreement, per each kernel's documented contract:
//!
//! * **bit-equality** where the contract promises it — the fused column
//!   updates are defined to be bit-identical to sequential scalar passes,
//!   and the documented lane summation orders are re-derived here
//!   independently and must match to the bit;
//! * **`<= 1e-12` relative error** against the sequential scalar
//!   references, where only the reassociation differs.
//!
//! The higher-level composites (dense matvec/matmul, CSR applies) are
//! then checked against naive scalar reference implementations written
//! out here, so a regression in the wiring — not just in a kernel — also
//! fails this suite.
//!
//! The lane kernels (`*_lanes`) run at width `LANES` on full tiles and
//! at width 1 on single vectors and ragged tail columns. Width `LANES`
//! is pinned lane by lane to width 1, to the bit: every lane must repeat
//! the one-vector operation order exactly, which is what keeps every
//! column of a blocked apply bit-identical to `apply_into`. Width `LANES`
//! runs at every SIMD tier the host supports (`simd::each_tier`),
//! compiled per tier through `simd::tiered!` as the serving kernels that
//! inline it are, against width 1 compiled at the baseline tier, as the
//! one-vector applies run it.

use subsparse_linalg::kernels::{
    self, axpy_lanes, dot4_lanes, dot8, fused_axpy4_lanes, gather_dot4_lanes, scalar, ColMajor,
    ColTile, LaneMajor, LaneTile, PanelLayout, LANES,
};
use subsparse_linalg::rng::SmallRng;
use subsparse_linalg::simd;
use subsparse_linalg::{Mat, Triplets};

/// `dot4_lanes` at width 1: the one-vector dot.
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    dot4_lanes::<1>(a, b)[0]
}

/// `gather_dot4_lanes` at width 1: the one-vector CSR row kernel.
fn gather_dot4(a: &[f64], idx: &[u32], x: &[f64]) -> f64 {
    gather_dot4_lanes(a, idx, &ColTile([x]))[0]
}

/// `fused_axpy4_lanes` at width 1: the one-vector fused column update.
fn fused_axpy4(a: [f64; 4], c0: &[f64], c1: &[f64], c2: &[f64], c3: &[f64], y: &mut [f64]) {
    fused_axpy4_lanes(a.map(|v| [v]), c0, c1, c2, c3, y)
}

/// Random vector with a sprinkling of exact zeros.
fn random_vec(rng: &mut SmallRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| if rng.gen_bool(0.1) { 0.0 } else { rng.range_f64(-2.0, 2.0) }).collect()
}

fn assert_close(a: f64, b: f64, label: &str) {
    let tol = 1e-12 * b.abs().max(1.0);
    assert!((a - b).abs() <= tol, "{label}: {a} vs {b}");
}

/// The documented `dot4` order, written out independently: lane `l`
/// takes element `l` of each aligned chunk of 4, the remainder sums
/// sequentially, combined `(s0+s1) + (s2+s3) + tail`.
fn dot4_reference(a: &[f64], b: &[f64]) -> f64 {
    let len4 = a.len() & !3;
    let mut s = [0.0f64; 4];
    for i in (0..len4).step_by(4) {
        for l in 0..4 {
            s[l] += a[i + l] * b[i + l];
        }
    }
    let mut tail = 0.0;
    for i in len4..a.len() {
        tail += a[i] * b[i];
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// The documented `dot8` order: eight lanes over aligned chunks of 8,
/// combined `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`.
fn dot8_reference(a: &[f64], b: &[f64]) -> f64 {
    let len8 = a.len() & !7;
    let mut s = [0.0f64; 8];
    for i in (0..len8).step_by(8) {
        for l in 0..8 {
            s[l] += a[i + l] * b[i + l];
        }
    }
    let mut tail = 0.0;
    for i in len8..a.len() {
        tail += a[i] * b[i];
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + tail
}

/// Lengths covering empty, sub-lane, aligned, and ragged tails for both
/// lane widths.
const LENGTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 67, 128];

#[test]
fn dot_kernels_match_their_documented_order_bitwise() {
    let mut rng = SmallRng::seed_from_u64(0xD07);
    for &len in &LENGTHS {
        for rep in 0..8 {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let label = format!("len={len} rep={rep}");
            // the order contract is bit-exact…
            assert_eq!(dot4(&a, &b), dot4_reference(&a, &b), "dot4 order: {label}");
            assert_eq!(dot8(&a, &b), dot8_reference(&a, &b), "dot8 order: {label}");
            // …and the value agrees with the sequential reference
            assert_close(dot4(&a, &b), scalar::dot(&a, &b), &format!("dot4 value: {label}"));
            assert_close(dot8(&a, &b), scalar::dot(&a, &b), &format!("dot8 value: {label}"));
        }
    }
}

#[test]
fn gather_dot_matches_dense_dot_through_a_permutation() {
    let mut rng = SmallRng::seed_from_u64(0x6A7);
    for &len in &LENGTHS {
        for rep in 0..8 {
            let a = random_vec(&mut rng, len);
            let x = random_vec(&mut rng, len.max(1) * 2);
            // random (possibly repeating) gather indices into x
            let idx: Vec<u32> =
                (0..len).map(|_| (rng.next_u64() % x.len() as u64) as u32).collect();
            let gathered: Vec<f64> = idx.iter().map(|&ci| x[ci as usize]).collect();
            let label = format!("len={len} rep={rep}");
            // gathering then dotting must equal the contiguous dot4 on
            // the gathered values, to the bit — same kernel, same order
            assert_eq!(
                gather_dot4(&a, &idx, &x),
                dot4(&a, &gathered),
                "gather_dot4 vs dot4: {label}"
            );
            assert_close(
                gather_dot4(&a, &idx, &x),
                scalar::gather_dot(&a, &idx, &x),
                &format!("gather_dot4 value: {label}"),
            );
        }
    }
}

#[test]
fn fused_updates_are_bit_identical_to_sequential_passes() {
    let mut rng = SmallRng::seed_from_u64(0xF03D);
    for &len in &LENGTHS {
        for rep in 0..8 {
            let cols: Vec<Vec<f64>> = (0..4).map(|_| random_vec(&mut rng, len)).collect();
            // include exact-zero multipliers: the dense kernels rely on
            // zero-skip never changing the bits
            let a = [
                rng.range_f64(-2.0, 2.0),
                if rep % 3 == 0 { 0.0 } else { rng.range_f64(-2.0, 2.0) },
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(-2.0, 2.0),
            ];
            let y0 = random_vec(&mut rng, len);
            let label = format!("len={len} rep={rep}");

            let mut fused = y0.clone();
            fused_axpy4(a, &cols[0], &cols[1], &cols[2], &cols[3], &mut fused);
            let mut seq = y0.clone();
            for (ak, ck) in a.iter().zip(&cols) {
                scalar::axpy(*ak, ck, &mut seq);
            }
            assert_eq!(fused, seq, "fused_axpy4: {label}");
        }
    }
}

#[test]
fn lane_constants_describe_the_kernels() {
    assert_eq!(LANES, 8);
}

/// `len` rows of `LANES` random lanes, lane-major, plus the same values
/// as `LANES` separate columns.
fn random_lane_rows(rng: &mut SmallRng, len: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let cols: Vec<Vec<f64>> = (0..LANES).map(|_| random_vec(rng, len)).collect();
    let rows = (0..len * LANES).map(|k| cols[k % LANES][k / LANES]).collect();
    (rows, cols)
}

// The lane kernels at width `LANES`, compiled per tier as the tiered
// serving kernels that inline them are; the width-1 calls they are
// checked against stay baseline.
simd::tiered! {
    fn dot4_lanes_tiered(a: &[f64], xt: &[f64]) -> [f64; LANES] {
        dot4_lanes(a, xt)
    }
}

simd::tiered! {
    fn gather_dot4_lanes_tiered(a: &[f64], idx: &[u32], x: &LaneTile<'_, LANES>) -> [f64; LANES] {
        gather_dot4_lanes(a, idx, x)
    }
}

simd::tiered! {
    fn fused_axpy4_lanes_tiered(
        m: [[f64; LANES]; 4],
        c0: &[f64],
        c1: &[f64],
        c2: &[f64],
        c3: &[f64],
        y: &mut [f64],
    ) {
        fused_axpy4_lanes(m, c0, c1, c2, c3, y)
    }
}

simd::tiered! {
    fn axpy_lanes_tiered(m: [f64; LANES], c: &[f64], y: &mut [f64]) {
        axpy_lanes(m, c, y)
    }
}

#[test]
fn lane_kernels_are_bit_identical_to_their_one_vector_kernels_per_lane() {
    simd::each_tier(lane_kernels_match_one_vector_kernels);
}

fn lane_kernels_match_one_vector_kernels(tier: simd::Tier) {
    let mut rng = SmallRng::seed_from_u64(0x1A4E);
    for len in (0..=9).chain(LENGTHS) {
        for rep in 0..4 {
            let label = format!("{tier:?} len={len} rep={rep}");
            let a = random_vec(&mut rng, len);
            let (rows, cols) = random_lane_rows(&mut rng, len);
            let d = dot4_lanes_tiered(&a, &rows);
            for (l, col) in cols.iter().enumerate() {
                assert_eq!(d[l].to_bits(), dot4(&a, col).to_bits(), "dot4_lanes lane {l}: {label}");
            }

            // gather through random (possibly repeating) indices into a
            // longer lane-major x
            let xlen = len * 2 + 1;
            let (xrows, xcols) = random_lane_rows(&mut rng, xlen);
            let idx: Vec<u32> = (0..len).map(|_| (rng.next_u64() % xlen as u64) as u32).collect();
            let g = gather_dot4_lanes_tiered(&a, &idx, &LaneTile(&xrows));
            for (l, col) in xcols.iter().enumerate() {
                let one = gather_dot4(&a, &idx, col);
                assert_eq!(g[l].to_bits(), one.to_bits(), "gather_dot4_lanes lane {l}: {label}");
            }

            // fused and single column updates with per-lane multipliers
            // (exact zeros included)
            let c: Vec<Vec<f64>> = (0..4).map(|_| random_vec(&mut rng, len)).collect();
            let m: [[f64; LANES]; 4] =
                std::array::from_fn(|_| {
                    std::array::from_fn(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.range_f64(-2.0, 2.0)
                        }
                    })
                });
            let mut fused = rows.clone();
            fused_axpy4_lanes_tiered(m, &c[0], &c[1], &c[2], &c[3], &mut fused);
            let mut single = rows.clone();
            axpy_lanes_tiered(m[0], &c[0], &mut single);
            for (l, col) in cols.iter().enumerate() {
                let mut y = col.clone();
                fused_axpy4(
                    [m[0][l], m[1][l], m[2][l], m[3][l]],
                    &c[0],
                    &c[1],
                    &c[2],
                    &c[3],
                    &mut y,
                );
                let mut y1 = col.clone();
                scalar::axpy(m[0][l], &c[0], &mut y1);
                for i in 0..len {
                    assert_eq!(
                        fused[i * LANES + l].to_bits(),
                        y[i].to_bits(),
                        "fused_axpy4_lanes lane {l} row {i}: {label}"
                    );
                    assert_eq!(
                        single[i * LANES + l].to_bits(),
                        y1[i].to_bits(),
                        "axpy_lanes lane {l} row {i}: {label}"
                    );
                }
            }
        }
    }
}

/// Column `j` of a panel stored in layout `L`.
fn panel_col<L: PanelLayout>(p: &Mat, j: usize) -> Vec<f64> {
    let t = j / LANES;
    if t < p.n_cols() / LANES {
        let tile = L::tile(p, t);
        (0..p.n_rows()).map(|r| kernels::TileRows::lanes(&tile, r)[j % LANES]).collect()
    } else {
        p.col(j).to_vec()
    }
}

/// A panel in layout `L` whose column `j` is `x.col(j)`.
fn to_panel<L: PanelLayout>(x: &Mat) -> Mat {
    let mut p = Mat::zeros(x.n_rows(), x.n_cols());
    let tiles = x.n_cols() / LANES;
    for t in 0..tiles {
        let mut tile = L::tile_mut(&mut p, t);
        for r in 0..x.n_rows() {
            let v = std::array::from_fn(|l| x[(r, t * LANES + l)]);
            kernels::TileRowsMut::set_lanes(&mut tile, r, v);
        }
    }
    for j in tiles * LANES..x.n_cols() {
        p.col_mut(j).copy_from_slice(x.col(j));
    }
    p
}

/// Every column of `A * X` through `matmul_panel_into::<XL, YL>` against
/// the one-vector `gather_dot4` row kernel, to the bit.
fn assert_panel_product_matches<XL: PanelLayout, YL: PanelLayout>(
    a: &subsparse_linalg::Csr,
    x: &Mat,
    label: &str,
) {
    let mut y = Mat::zeros(0, 0);
    a.matmul_panel_into::<XL, YL>(&to_panel::<XL>(x), &mut y);
    assert_eq!((y.n_rows(), y.n_cols()), (a.n_rows(), x.n_cols()), "{label}");
    for j in 0..x.n_cols() {
        let got = panel_col::<YL>(&y, j);
        for (i, g) in got.iter().enumerate() {
            let (idx, vals) = a.row(i);
            let want = gather_dot4(vals, idx, x.col(j));
            assert_eq!(g.to_bits(), want.to_bits(), "{label} row {i} col {j}");
        }
    }
}

#[test]
fn csr_lane_tiles_are_bit_identical_to_per_lane_gather_dot4() {
    simd::each_tier(csr_lane_tiles_match_gather_dot4);
}

fn csr_lane_tiles_match_gather_dot4(tier: simd::Tier) {
    let mut rng = SmallRng::seed_from_u64(0x7115);
    for rep in 0..3 {
        // every row length 0..=9 (each `len % 4` tail, empty rows
        // included), in shuffled order, over random columns
        let n_cols = 23;
        let mut lens: Vec<usize> = (0..=9).chain(0..=9).collect();
        for i in (1..lens.len()).rev() {
            lens.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut t = Triplets::new(lens.len(), n_cols);
        for (i, &len) in lens.iter().enumerate() {
            let mut cols: Vec<usize> = (0..n_cols).collect();
            for k in 0..len {
                cols.swap(k, k + (rng.next_u64() % (n_cols - k) as u64) as usize);
                t.push(i, cols[k], rng.range_f64(-3.0, 3.0));
            }
        }
        let a = t.to_csr();
        for (i, &len) in lens.iter().enumerate() {
            assert_eq!(a.row(i).0.len(), len, "row {i} length");
        }
        // widths 1..=33: no tile, full tiles, and every ragged tail
        for b in 1..=33 {
            let x = Mat::from_fn(n_cols, b, |_, _| {
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.range_f64(-2.0, 2.0)
                }
            });
            let label = format!("{tier:?} rep={rep} b={b}");
            assert_panel_product_matches::<ColMajor, ColMajor>(&a, &x, &format!("cc {label}"));
            assert_panel_product_matches::<ColMajor, LaneMajor>(&a, &x, &format!("cl {label}"));
            assert_panel_product_matches::<LaneMajor, LaneMajor>(&a, &x, &format!("ll {label}"));
            assert_panel_product_matches::<LaneMajor, ColMajor>(&a, &x, &format!("lc {label}"));
        }
    }
}

/// Naive scalar `y = G x` — the ground-truth for the dense composite.
fn naive_matvec(g: &Mat, x: &[f64]) -> Vec<f64> {
    (0..g.n_rows()).map(|i| (0..g.n_cols()).map(|k| g[(i, k)] * x[k]).sum()).collect()
}

#[test]
fn dense_matvec_and_matmul_agree_with_scalar_reference() {
    let mut rng = SmallRng::seed_from_u64(0xDE45E);
    // sizes straddling the lane width and the k-panel width
    for &n in &[1usize, 3, 5, 8, 13, 33, 67] {
        let g = Mat::from_fn(
            n,
            n,
            |_, _| {
                if rng.gen_bool(0.15) {
                    0.0
                } else {
                    rng.range_f64(-1.5, 1.5)
                }
            },
        );
        for &b in &[1usize, 3, 8, 11] {
            let x =
                Mat::from_fn(
                    n,
                    b,
                    |_, _| {
                        if rng.gen_bool(0.15) {
                            0.0
                        } else {
                            rng.range_f64(-2.0, 2.0)
                        }
                    },
                );
            let mut y = Mat::zeros(0, 0);
            g.matmul_into(&x, &mut y);
            for j in 0..b {
                // value: <= 1e-12 relative against the naive reference
                let reference = naive_matvec(&g, x.col(j));
                for (i, r) in reference.iter().enumerate() {
                    assert_close(y[(i, j)], *r, &format!("matmul n={n} b={b} ({i},{j})"));
                }
                // contract: blocked == per-vector, to the bit
                let mut yv = vec![0.0; n];
                g.matvec_into(x.col(j), &mut yv);
                assert_eq!(y.col(j), yv.as_slice(), "matmul vs matvec n={n} b={b} col {j}");
            }
        }
    }
}

#[test]
fn csr_applies_agree_with_scalar_reference() {
    let mut rng = SmallRng::seed_from_u64(0xC52);
    for &n in &[1usize, 5, 13, 41, 67] {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if rng.gen_bool(0.25) {
                    t.push(i, j, rng.range_f64(-3.0, 3.0));
                }
            }
        }
        let a = t.to_csr();
        for &b in &[1usize, 3, 8, 11] {
            let x = Mat::from_fn(n, b, |_, _| rng.range_f64(-2.0, 2.0));
            let mut y = Mat::zeros(0, 0);
            a.matmul_dense_into(&x, &mut y);
            for j in 0..b {
                // value: each row is a gathered dot; check against the
                // sequential scalar gather reference
                for i in 0..n {
                    let (idx, vals) = a.row(i);
                    let reference = scalar::gather_dot(vals, idx, x.col(j));
                    assert_close(y[(i, j)], reference, &format!("csr n={n} b={b} ({i},{j})"));
                }
                // contract: blocked == per-vector, to the bit
                let mut yv = vec![0.0; n];
                a.matvec_into(x.col(j), &mut yv);
                assert_eq!(y.col(j), yv.as_slice(), "csr matmul vs matvec n={n} b={b} col {j}");
            }
        }
    }
}
