//! Batching contract tests: `solve_batch` must return, column for column,
//! exactly what sequential `solve` calls return — on every backend, for
//! every batch shape, and for every thread count. "Exactly" is meant
//! bitwise (well inside the 1e-12 the extraction pipelines rely on): the
//! dense backend's blocked gemm preserves accumulation order and the
//! threaded backends run the identical serial PCG per column.

use subsparse_layout::{generators, Layout};
use subsparse_linalg::Mat;
use subsparse_substrate::{
    extract_dense, solver::extract_columns, solver::BATCH, CountingSolver, DenseSolver,
    EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, Substrate, SubstrateSolver,
};

/// A deterministic, dense voltage block (no zeros, mixed signs).
fn voltage_block(n: usize, cols: usize) -> Mat {
    Mat::from_fn(n, cols, |i, j| ((i * 31 + j * 17 + 3) % 101) as f64 / 50.5 - 1.0)
}

/// Asserts every column of `solve_batch` bit-agrees with a serial `solve`.
fn assert_batch_matches_serial<S: SubstrateSolver + ?Sized>(solver: &S, cols: usize) {
    let v = voltage_block(solver.n_contacts(), cols);
    let batch = solver.solve_batch(&v);
    assert_eq!(batch.n_rows(), solver.n_contacts());
    assert_eq!(batch.n_cols(), cols);
    for j in 0..cols {
        let serial = solver.solve(v.col(j));
        for (r, (a, b)) in batch.col(j).iter().zip(&serial).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "column {j} row {r}: batch {a} != serial {b}");
        }
    }
}

fn small_layout() -> Layout {
    generators::regular_grid(128.0, 2, 32.0) // 4 contacts
}

#[test]
fn dense_backend_matches_serial_for_all_batch_shapes() {
    let layout = generators::regular_grid(128.0, 4, 8.0); // 16 contacts
    let s = subsparse_substrate::solver::synthetic(&layout);
    // 1-column batch, non-divisible widths, full width
    for cols in [1, 3, 5, 16] {
        assert_batch_matches_serial(&s, cols);
    }
}

#[test]
fn fd_backend_matches_serial() {
    let cfg = FdSolverConfig { nx: 16, ny: 16, nz: 8, tol: 1e-9, ..Default::default() };
    let s = FdSolver::new(&Substrate::thesis_standard(), &small_layout(), cfg).unwrap();
    for cols in [1, 3] {
        assert_batch_matches_serial(&s, cols);
    }
}

#[test]
fn eigen_backend_matches_serial() {
    let cfg = EigenSolverConfig { panels: 16, tol: 1e-10, ..Default::default() };
    let s = EigenSolver::new(&Substrate::thesis_standard(), &small_layout(), cfg).unwrap();
    for cols in [1, 3] {
        assert_batch_matches_serial(&s, cols);
    }
}

#[test]
fn fd_threads_are_deterministic() {
    // threads = 1 and threads = N must agree to the last bit (each column
    // runs the identical serial PCG)
    let layout = small_layout();
    let sub = Substrate::thesis_standard();
    let base = FdSolverConfig { nx: 16, ny: 16, nz: 8, tol: 1e-9, ..Default::default() };
    let serial = FdSolver::new(&sub, &layout, FdSolverConfig { threads: 1, ..base }).unwrap();
    let threaded = FdSolver::new(&sub, &layout, FdSolverConfig { threads: 4, ..base }).unwrap();
    let v = voltage_block(4, 4);
    let a = serial.solve_batch(&v);
    let b = threaded.solve_batch(&v);
    assert_eq!(a.data(), b.data(), "threads=1 vs threads=4 disagree");
    // threads also go through the serial path when asked for one column
    let a1 = serial.solve_batch(&voltage_block(4, 1));
    let b1 = threaded.solve_batch(&voltage_block(4, 1));
    assert_eq!(a1.data(), b1.data());
}

#[test]
fn eigen_threads_are_deterministic() {
    let layout = generators::regular_grid(128.0, 4, 16.0); // 16 contacts
    let sub = Substrate::thesis_standard();
    let base = EigenSolverConfig { panels: 32, tol: 1e-10, ..Default::default() };
    let serial = EigenSolver::new(&sub, &layout, EigenSolverConfig { threads: 1, ..base }).unwrap();
    let threaded =
        EigenSolver::new(&sub, &layout, EigenSolverConfig { threads: 3, ..base }).unwrap();
    let v = voltage_block(16, 7); // non-divisible by 3 threads
    let a = serial.solve_batch(&v);
    let b = threaded.solve_batch(&v);
    assert_eq!(a.data(), b.data(), "threads=1 vs threads=3 disagree");
}

#[test]
fn counting_solver_counts_columns_not_calls() {
    let layout = generators::regular_grid(128.0, 4, 8.0);
    let counting = CountingSolver::new(subsparse_substrate::solver::synthetic(&layout));
    let _ = counting.solve_batch(&voltage_block(16, 5));
    assert_eq!(counting.count(), 5, "a 5-column batch is 5 solves");
    let _ = counting.solve(&[0.5; 16]);
    assert_eq!(counting.count(), 6);
    // batched dense extraction costs exactly n solves, like the naive loop
    counting.reset();
    let _ = extract_dense(&counting);
    assert_eq!(counting.count(), 16);
}

#[test]
fn batched_extraction_is_batch_size_invariant() {
    // 49 contacts: one full BATCH-wide block and a ragged tail
    let layout = generators::regular_grid(128.0, 7, 8.0);
    let s = subsparse_substrate::solver::synthetic(&layout);
    let n = s.n_contacts();
    assert!(n > BATCH && !n.is_multiple_of(BATCH), "n = {n} must split into uneven blocks");
    let reference = extract_dense(&s);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        assert_eq!(reference.col(j), s.solve(&e).as_slice(), "column {j}");
        e[j] = 0.0;
    }
    // column subsets too, in arbitrary order and across the block boundary
    let cols = [48usize, 2, 33, 7, 0, 31, 32];
    let sub = extract_columns(&s, &cols);
    for (k, &c) in cols.iter().enumerate() {
        assert_eq!(sub.col(k), reference.col(c), "column {c}");
    }
}

#[test]
fn default_trait_impl_loops_solve() {
    /// A solver that only implements the required methods — the trait's
    /// default `solve_batch` must keep it working.
    struct External(DenseSolver);
    impl SubstrateSolver for External {
        fn n_contacts(&self) -> usize {
            self.0.n_contacts()
        }
        fn solve(&self, v: &[f64]) -> Vec<f64> {
            self.0.solve(v)
        }
    }
    let layout = generators::regular_grid(128.0, 4, 8.0);
    let ext = External(subsparse_substrate::solver::synthetic(&layout));
    assert_batch_matches_serial(&ext, 5);
}
