//! The FWT ≡ explicit-Q contract: on every basis the workspace can
//! build, the fast wavelet transform serving path must agree with the
//! explicit-CSR fallback to ≤ 1e-12 relative error — per vector and
//! blocked, for 1-column and panel-straddling widths, across quadtree
//! depths, moment orders, and irregular layouts — and the blocked FWT
//! apply must stay bit-identical to the looped per-vector FWT apply.

use subsparse_hier::BasisRep;
use subsparse_layout::{generators, Layout};
use subsparse_linalg::rng::SmallRng;
use subsparse_linalg::{ApplyWorkspace, CouplingOp, Csr, Mat, Triplets};
use subsparse_wavelet::build_basis;

/// Largest relative 2-norm error between two equal-length slices.
fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let mut diff2 = 0.0;
    let mut ref2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        diff2 += (x - y) * (x - y);
        ref2 += y * y;
    }
    if ref2 == 0.0 {
        diff2.sqrt()
    } else {
        (diff2 / ref2).sqrt()
    }
}

/// A deterministic symmetric sparse matrix standing in for `Gw` (the
/// FWT-vs-Q agreement is a property of the basis factors alone, so any
/// transformed matrix exercises it).
fn random_sym_csr(n: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, rng.range_f64(1.0, 3.0));
        for _ in 0..4 {
            let j = (rng.next_u64() % n as u64) as usize;
            let v = rng.range_f64(-0.5, 0.5);
            t.push(i, j, v);
            t.push(j, i, v);
        }
    }
    t.to_csr()
}

fn random_mat(n: usize, b: usize, seed: u64) -> Mat {
    let mut rng = SmallRng::seed_from_u64(seed);
    Mat::from_fn(n, b, |_, _| rng.range_f64(-1.0, 1.0))
}

/// The contract for one basis: fwt path vs explicit-CSR path on single
/// vectors and on block widths with no full lane tile (1, 3), one tile
/// (8), one tile plus a ragged tail (11), two tiles with and without a
/// one-column tail (16, 17), and four tiles (32).
fn assert_paths_agree(layout: &Layout, levels: usize, p: usize, label: &str) {
    let basis = build_basis(layout, levels, p).unwrap();
    let n = basis.n();
    let gw = random_sym_csr(n, 0xFACADE ^ (levels * 10 + p) as u64);
    let fast = BasisRep::with_fwt(basis.q().clone(), gw.clone(), basis.fwt().clone());
    let slow = fast.without_fwt();
    assert_eq!(fast.kind(), "basis-rep-fwt", "{label}");
    assert_eq!(slow.kind(), "basis-rep", "{label}");

    let mut ws = ApplyWorkspace::new();
    let mut y_fast = vec![0.0; n];
    let mut y_slow = vec![0.0; n];
    // per-vector agreement
    for seed in 0..3u64 {
        let x = random_mat(n, 1, 100 + seed);
        fast.apply_into(x.col(0), &mut y_fast, &mut ws);
        slow.apply_into(x.col(0), &mut y_slow, &mut ws);
        let err = rel_err(&y_fast, &y_slow);
        assert!(err <= 1e-12, "{label}: single-vector paths diverge, rel err {err:.3e}");
    }
    // blocked agreement, and blocked-fwt ≡ looped-fwt bit-identity
    for block in [1usize, 3, 8, 11, 16, 17, 32] {
        let x = random_mat(n, block, 0xB10C ^ block as u64);
        let mut yb_fast = Mat::zeros(0, 0);
        let mut yb_slow = Mat::zeros(0, 0);
        fast.apply_block_into(&x, &mut yb_fast, &mut ws);
        slow.apply_block_into(&x, &mut yb_slow, &mut ws);
        for j in 0..block {
            let err = rel_err(yb_fast.col(j), yb_slow.col(j));
            assert!(
                err <= 1e-12,
                "{label}: blocked paths diverge at width {block} column {j}, rel err {err:.3e}"
            );
            fast.apply_into(x.col(j), &mut y_fast, &mut ws);
            assert_eq!(
                yb_fast.col(j),
                y_fast.as_slice(),
                "{label}: blocked fwt apply not bit-identical at width {block} column {j}"
            );
        }
    }
}

#[test]
fn fwt_matches_explicit_q_across_levels_and_moment_orders() {
    // a 16x16 grid supports quadtree depths 2..4 (finest squares hold
    // 16, 4, and 1 contacts respectively)
    let layout = generators::regular_grid(128.0, 16, 2.0);
    for levels in [2usize, 3, 4] {
        for p in [1usize, 2] {
            assert_paths_agree(&layout, levels, p, &format!("regular levels={levels} p={p}"));
        }
    }
}

#[test]
fn fwt_matches_explicit_q_on_irregular_layouts() {
    // irregular placements leave some squares empty, exercising the
    // skipped-node paths of the tree traversal
    for seed in [3u64, 9] {
        let layout = generators::irregular_same_size(128.0, 16, 2.0, seed);
        for p in [1usize, 2] {
            assert_paths_agree(&layout, 4, p, &format!("irregular seed={seed} p={p}"));
        }
    }
}

#[test]
fn fwt_transform_matches_q_directly() {
    // beyond the full sandwich: forward ≡ Q'x and inverse ≡ Qc on their own
    let layout = generators::regular_grid(128.0, 8, 2.0);
    let basis = build_basis(&layout, 3, 2).unwrap();
    let n = basis.n();
    let q = basis.q();
    let fwt = basis.fwt();
    assert_eq!(fwt.n(), n);
    assert!(fwt.stored() < q.nnz(), "factored transform must be smaller than the flat Q");
    let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
    let x = random_mat(n, 1, 42);
    let mut fwd = vec![0.0; n];
    fwt.forward_into(x.col(0), &mut fwd, &mut s1, &mut s2);
    let qa = q.matvec_t(x.col(0));
    assert!(rel_err(&fwd, &qa) <= 1e-12, "forward vs Q': {:.3e}", rel_err(&fwd, &qa));
    let mut inv = vec![0.0; n];
    fwt.inverse_into(&fwd, &mut inv, &mut s1, &mut s2);
    // Q (Q' x) = x for an orthogonal basis: the roundtrip recovers x
    assert!(rel_err(&inv, x.col(0)) <= 1e-12, "roundtrip: {:.3e}", rel_err(&inv, x.col(0)));
}

#[test]
fn blocked_transforms_are_bit_identical_to_per_vector_on_real_bases() {
    // multi-level bases from the real construction: lane tiles must carry
    // the one-vector bits through every level, at widths with full tiles
    // and ragged tails
    for (layout, levels, p) in [
        (generators::regular_grid(128.0, 16, 2.0), 4, 2),
        (generators::irregular_same_size(128.0, 16, 2.0, 9), 4, 1),
    ] {
        let basis = build_basis(&layout, levels, p).unwrap();
        let fwt = basis.fwt();
        let n = fwt.n();
        assert!(fwt.n_levels() >= 3, "levels={levels}: want a multi-level transform");
        let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
        let (mut cj, mut bj) = (vec![0.0; n], vec![0.0; n]);
        let (mut m1, mut m2) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
        for block in [1usize, 8, 16, 17] {
            let x = random_mat(n, block, 0xF3D ^ block as u64);
            let (mut c, mut back) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            fwt.forward_block_into(&x, &mut c, &mut m1, &mut m2);
            fwt.inverse_block_into(&c, &mut back, &mut m1, &mut m2);
            for j in 0..block {
                fwt.forward_into(x.col(j), &mut cj, &mut s1, &mut s2);
                fwt.inverse_into(c.col(j), &mut bj, &mut s1, &mut s2);
                let label = format!("levels={levels} p={p} width {block} column {j}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(c.col(j)), bits(&cj), "forward {label}");
                assert_eq!(bits(back.col(j)), bits(&bj), "inverse {label}");
            }
        }
    }
}

#[test]
fn extracted_rep_serves_on_the_fwt_path_and_roundtrips_through_disk() {
    use subsparse_substrate::solver;
    let layout = generators::regular_grid(128.0, 8, 2.0);
    let s = solver::synthetic(&layout);
    let basis = build_basis(&layout, 3, 2).unwrap();
    let rep = subsparse_wavelet::extract(&s, &basis, &Default::default());
    assert_eq!(rep.kind(), "basis-rep-fwt", "extraction must attach the fast path");
    assert!(
        CouplingOp::nnz(&rep) < rep.q.nnz() + rep.gw.nnz(),
        "served nonzeros must shrink under the factored transform"
    );
    // thresholding keeps the serving path
    let (thr, _) = rep.thresholded_to_sparsity(rep.sparsity_factor() * 2.0);
    assert_eq!(thr.kind(), "basis-rep-fwt");

    let dir = std::env::temp_dir().join("subsparse_fwt_contract_test");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("model");
    rep.save(&stem).unwrap();
    let back = BasisRep::load(&stem).unwrap();
    assert!(back.fwt().is_some());
    let x = random_mat(rep.n(), 1, 7);
    // shortest-roundtrip f64 serialization: applies agree bit for bit
    assert_eq!(back.apply(x.col(0)), rep.apply(x.col(0)));
    for suffix in [".q.mtx", ".gw.mtx", ".fwt"] {
        let mut p = stem.as_os_str().to_owned();
        p.push(suffix);
        std::fs::remove_file(std::path::PathBuf::from(p)).ok();
    }
}
