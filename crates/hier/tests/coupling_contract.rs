//! Contract suite for the `CouplingOp` serving layer: on every
//! implementation in the workspace, a blocked apply must be bit-identical,
//! column for column, to the per-vector apply — for one-column blocks,
//! panel-divisible widths, and widths that straddle panel boundaries —
//! and the thread-parallel executor must reproduce the serial bits for
//! every worker count (1, several, auto, and more workers than the
//! operator has rows or columns).

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::{BasisRep, FastWaveletTransform};
use subsparse_linalg::rng::SmallRng;
use subsparse_linalg::simd;
use subsparse_linalg::{ApplyWorkspace, CouplingOp, Csr, Mat, ParallelApply, Triplets};

/// Deterministic dense matrix with a sprinkling of exact zeros (the
/// kernels skip zero inputs, so zeros must be exercised).
fn random_mat(n_rows: usize, n_cols: usize, seed: u64) -> Mat {
    let mut rng = SmallRng::seed_from_u64(seed);
    Mat::from_fn(
        n_rows,
        n_cols,
        |_, _| {
            if rng.gen_bool(0.15) {
                0.0
            } else {
                rng.range_f64(-2.0, 2.0)
            }
        },
    )
}

/// Deterministic sparse matrix with ~`fill` density (rows may be empty).
fn random_csr(n_rows: usize, n_cols: usize, fill: f64, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Triplets::new(n_rows, n_cols);
    for i in 0..n_rows {
        for j in 0..n_cols {
            if rng.gen_bool(fill) {
                t.push(i, j, rng.range_f64(-3.0, 3.0));
            }
        }
    }
    t.to_csr()
}

/// The contract: for every block width, every column of the blocked apply
/// bit-equals the per-vector apply of that column, and the block entry
/// points agree with the allocating conveniences — with the lane tiles at
/// every SIMD tier the host supports, against the baseline one-vector
/// paths.
fn assert_block_bit_agrees(op: &dyn CouplingOp, label: &str) {
    simd::each_tier(|tier| assert_block_bit_agrees_at(op, &format!("{tier:?} {label}")));
}

fn assert_block_bit_agrees_at(op: &dyn CouplingOp, label: &str) {
    let n = op.n();
    let mut ws = ApplyWorkspace::new();
    let mut serial = vec![0.0; n];
    // 1 column, a panel-divisible width, and non-divisible widths that
    // straddle the internal 8-column panels
    for block in [1usize, 3, 8, 11, 16, 29] {
        let x = random_mat(n, block, 0xC0FFEE ^ block as u64);
        let mut blocked = Mat::zeros(0, 0);
        op.apply_block_into(&x, &mut blocked, &mut ws);
        assert_eq!(blocked.n_rows(), n, "{label}: wrong output rows");
        assert_eq!(blocked.n_cols(), block, "{label}: wrong output cols");
        for j in 0..block {
            op.apply_into(x.col(j), &mut serial, &mut ws);
            for i in 0..n {
                assert_eq!(
                    blocked[(i, j)],
                    serial[i],
                    "{label}: block width {block}, column {j}, row {i} diverged"
                );
            }
        }
        let convenience = op.apply_block(&x);
        for j in 0..block {
            assert_eq!(convenience.col(j), blocked.col(j), "{label}: apply_block diverged");
        }
    }
}

/// The thread-parallel contract: for every worker count, the executor's
/// output is bit-identical to the serial blocked apply (whose columns
/// `assert_block_bit_agrees` already pins to the per-vector apply) — on
/// one-column blocks, widths that straddle both the internal panels and
/// the per-worker shard boundaries, and operators smaller than the
/// worker count. Every SIMD tier the host supports, on the workers too.
fn assert_parallel_bit_agrees(op: &(dyn CouplingOp + Sync), label: &str) {
    simd::each_tier(|tier| assert_parallel_bit_agrees_at(op, &format!("{tier:?} {label}")));
}

fn assert_parallel_bit_agrees_at(op: &(dyn CouplingOp + Sync), label: &str) {
    let n = op.n();
    let mut ws = ApplyWorkspace::new();
    let mut serial = Mat::zeros(0, 0);
    let mut threaded = Mat::zeros(0, 0);
    // the contract fixtures sit far below the default min-work inline
    // threshold, so the threaded paths this suite exists to pin would
    // silently degrade to serial; min_work 0 forces them to engage
    // 1, 2, auto-detected, and more workers than rows/columns
    for threads in [1usize, 2, 0, n + 7] {
        let mut pool = ParallelApply::new(threads).with_min_work(0);
        for block in [1usize, 3, 8, 11] {
            let x = random_mat(n, block, 0xBEEF ^ (threads as u64) << 8 ^ block as u64);
            op.apply_block_into(&x, &mut serial, &mut ws);
            pool.apply_block_into(op, &x, &mut threaded);
            assert_eq!(threaded.n_rows(), n, "{label}: threads {threads} wrong rows");
            assert_eq!(threaded.n_cols(), block, "{label}: threads {threads} wrong cols");
            for j in 0..block {
                for i in 0..n {
                    assert_eq!(
                        threaded[(i, j)],
                        serial[(i, j)],
                        "{label}: threads {threads}, block {block}, ({i}, {j}) diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_apply_bit_agrees_on_every_representation() {
    let dense = random_mat(37, 37, 21);
    assert_parallel_bit_agrees(&dense, "dense");
    let sparse = random_csr(41, 41, 0.2, 22);
    assert_parallel_bit_agrees(&sparse, "csr");
    let rep = BasisRep::new(random_csr(45, 45, 0.3, 23), random_csr(45, 45, 0.4, 24));
    assert_parallel_bit_agrees(&rep, "basis-rep");
    // the fast-wavelet-transform serving path threads like the rest
    let fwt_rep = haar8_rep();
    assert_eq!(fwt_rep.kind(), "basis-rep-fwt");
    assert_parallel_bit_agrees(&fwt_rep, "basis-rep-fwt");
    // and a multi-level tree, column panels cutting through every level
    let big_fwt_rep = haar_chain_rep(64);
    assert_eq!(big_fwt_rep.kind(), "basis-rep-fwt");
    assert_parallel_bit_agrees(&big_fwt_rep, "basis-rep-fwt-64");
}

/// The dispatch rule: column panels are the only parallel axis. Every
/// representation shards a wide block across workers, and a one-column
/// apply plans a single (inline) worker even with the min-work threshold
/// disabled.
#[test]
fn every_operator_shards_by_column_panels_only() {
    let n = 64;
    let pool = ParallelApply::new(2).with_min_work(0);
    let fwt_rep = haar_chain_rep(n);
    let csr_rep = fwt_rep.without_fwt();
    let dense = random_mat(n, n, 29);
    let sparse = random_csr(n, n, 0.2, 30);
    let ops: [(&(dyn CouplingOp + Sync), &str); 4] =
        [(&dense, "dense"), (&sparse, "csr"), (&fwt_rep, "basis-rep-fwt"), (&csr_rep, "basis-rep")];
    for (op, label) in ops {
        assert_eq!(op.kind(), label);
        assert_eq!(pool.planned_workers(op, 1), 1, "{label}: one column must serve inline");
        assert_eq!(pool.planned_workers(op, 8), 2, "{label}: wide blocks shard by columns");
    }
}

#[test]
fn parallel_apply_handles_ops_smaller_than_the_worker_pool() {
    // n = 3 with 8 workers: fewer column shards than workers
    // (min_work 0 so the sharding logic, not the inline threshold, is
    // what this test exercises)
    let tiny = random_mat(3, 3, 31);
    let mut pool = ParallelApply::new(8).with_min_work(0);
    for block in [1usize, 2, 5] {
        let x = random_mat(3, block, 32 + block as u64);
        let serial = tiny.apply_block(&x);
        let threaded = pool.apply_block(&tiny, &x);
        for j in 0..block {
            assert_eq!(threaded.col(j), serial.col(j), "tiny op, block {block}");
        }
    }
}

/// An 8-contact, 2-level Haar-style `BasisRep` with a fast transform
/// attached (mirrors the hierarchy used by the allocation tests).
fn haar8_rep() -> BasisRep {
    let r = 0.5f64.sqrt();
    let mut blocks = Vec::new();
    for _ in 0..4 {
        blocks.extend_from_slice(&[r, r, r, -r]);
    }
    blocks.extend_from_slice(&[
        0.5, 0.5, 0.5, 0.5, 0.5, -0.5, 0.5, -0.5, 0.5, 0.5, -0.5, -0.5, 0.5, -0.5, -0.5, 0.5,
    ]);
    let finest = FwtLevel {
        nodes: (0..4)
            .map(|s| FwtNode {
                in_offset: 2 * s,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: s,
                col_start: 4 + s,
                block_offset: 4 * s,
            })
            .collect(),
        coeff_len: 4,
    };
    let root = FwtLevel {
        nodes: vec![FwtNode {
            in_offset: 0,
            in_len: 4,
            v_cols: 1,
            w_cols: 3,
            out_offset: 0,
            col_start: 1,
            block_offset: 16,
        }],
        coeff_len: 1,
    };
    let fwt = FastWaveletTransform::from_parts(8, 1, vec![finest, root], (0..8).collect(), blocks)
        .unwrap();
    BasisRep::with_fwt(Csr::identity(8), random_csr(8, 8, 0.5, 26), fwt)
}

/// A complete binary Haar chain on `n = 2^k` contacts (pairs of scaling
/// coefficients combined per level) with a random sparse `Gw`.
fn haar_chain_rep(n: usize) -> BasisRep {
    assert!(n.is_power_of_two() && n >= 2);
    let r = 0.5f64.sqrt();
    let mut levels = Vec::new();
    let mut blocks = Vec::new();
    let mut m = n;
    let mut li = 0;
    while m >= 2 {
        let pairs = m / 2;
        let wavelet_base = n >> (li + 1);
        let nodes = (0..pairs)
            .map(|i| {
                let block_offset = blocks.len();
                blocks.extend_from_slice(&[r, r, r, -r]);
                FwtNode {
                    in_offset: 2 * i,
                    in_len: 2,
                    v_cols: 1,
                    w_cols: 1,
                    out_offset: i,
                    col_start: wavelet_base + i,
                    block_offset,
                }
            })
            .collect();
        levels.push(FwtLevel { nodes, coeff_len: pairs });
        m = pairs;
        li += 1;
    }
    let fwt =
        FastWaveletTransform::from_parts(n, 1, levels, (0..n as u32).collect(), blocks).unwrap();
    BasisRep::with_fwt(Csr::identity(n), random_csr(n, n, 0.2, 27), fwt)
}

#[test]
fn dense_mat_block_apply_is_bit_identical() {
    let g = random_mat(37, 37, 1);
    assert_block_bit_agrees(&g, "dense");
    assert_eq!(g.kind(), "dense");
    assert_eq!(CouplingOp::nnz(&g), 37 * 37);
}

#[test]
fn csr_block_apply_is_bit_identical() {
    let a = random_csr(41, 41, 0.2, 2);
    assert_block_bit_agrees(&a, "csr");
    assert_eq!(a.kind(), "csr");
    // an all-zero operator serves too
    assert_block_bit_agrees(&Csr::zeros(7, 7), "csr-empty");
}

#[test]
fn basis_rep_block_apply_is_bit_identical() {
    // a rectangular Q (n x m with m < n) exercises the fused pipeline's
    // intermediate dimension handling
    let q = random_csr(45, 30, 0.3, 3);
    let gw = random_csr(30, 30, 0.4, 4);
    let rep = BasisRep::new(q, gw);
    assert_block_bit_agrees(&rep, "basis-rep");
    assert_eq!(rep.kind(), "basis-rep");
}

#[test]
fn basis_rep_dense_columns_matches_per_vector_apply() {
    // dense_columns goes through the blocked path in 32-wide panels; a
    // 45-contact rep crosses one panel boundary
    let q = random_csr(45, 45, 0.2, 6);
    let gw = random_csr(45, 45, 0.3, 7);
    let rep = BasisRep::new(q, gw);
    let d = rep.to_dense();
    let mut e = vec![0.0; 45];
    for j in 0..45 {
        e[j] = 1.0;
        let col = rep.apply(&e);
        for i in 0..45 {
            assert_eq!(d[(i, j)], col[i], "to_dense column {j} diverged");
        }
        e[j] = 0.0;
    }
    // arbitrary column subsets, including repeats
    let cols = rep.dense_columns(&[44, 0, 13, 13]);
    for (k, &j) in [44usize, 0, 13, 13].iter().enumerate() {
        for i in 0..45 {
            assert_eq!(cols[(i, k)], d[(i, j)]);
        }
    }
}

#[test]
fn workspace_is_shareable_across_representations() {
    // one warm workspace serving heterogeneous ops back to back must not
    // leak state between them
    let dense = random_mat(20, 20, 8);
    let sparse = Csr::from_dense(&dense, 0.5);
    let rep = BasisRep::new(Csr::identity(20), sparse.clone());
    let mut ws = ApplyWorkspace::new();
    ws.warm(20, 4);
    let x = random_mat(20, 4, 9);
    let mut y = Mat::zeros(0, 0);
    for _ in 0..3 {
        for op in [&dense as &dyn CouplingOp, &sparse, &rep] {
            op.apply_block_into(&x, &mut y, &mut ws);
            let fresh = op.apply_block(&x);
            for j in 0..4 {
                assert_eq!(y.col(j), fresh.col(j));
            }
        }
    }
}
