//! Convergence checking on the iterative batch paths: a `CgResult` with
//! `converged == false` must never be dropped on the floor. Starved
//! solvers surface `SolverError::NotConverged` through `try_solve` /
//! `try_solve_batch`, the infallible paths return best-effort currents
//! without panicking, and a solve that merely needs the bounded retry
//! (one warm-started re-run at 4x the budget) recovers transparently.

use subsparse_layout::generators;
use subsparse_linalg::Mat;
use subsparse_substrate::{
    EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, HasSolveStats, SolverError,
    Substrate, SubstrateSolver,
};

fn fd_solver(max_iter: usize, tol: f64, threads: usize) -> FdSolver {
    let layout = generators::regular_grid(128.0, 2, 32.0);
    let cfg =
        FdSolverConfig { nx: 16, ny: 16, nz: 8, tol, max_iter, threads, ..Default::default() };
    FdSolver::new(&Substrate::thesis_standard(), &layout, cfg).unwrap()
}

fn eigen_solver(max_iter: usize, tol: f64) -> EigenSolver {
    let layout = generators::regular_grid(128.0, 2, 32.0);
    let cfg = EigenSolverConfig { panels: 32, tol, max_iter, ..Default::default() };
    EigenSolver::new(&Substrate::thesis_standard(), &layout, cfg).unwrap()
}

#[test]
fn fd_starved_solver_reports_not_converged() {
    // one iteration at 1e-14 tolerance cannot solve a 16x16x(>=6) grid,
    // even with the 4x retry budget
    let s = fd_solver(1, 1e-14, 1);
    let v = [1.0, 0.0, 0.0, 0.0];
    match s.try_solve(&v) {
        Err(SolverError::NotConverged { relres, iters }) => {
            assert!(relres > 1e-14, "failing solve must report its residual, got {relres}");
            assert!(iters >= 1);
        }
        other => panic!("starved fd solve must report NotConverged, got {other:?}"),
    }
    // the infallible path returns best-effort currents without panicking
    let i = s.solve(&v);
    assert_eq!(i.len(), 4);
    assert!(i.iter().all(|c| c.is_finite()));
}

#[test]
fn fd_starved_batch_reports_lowest_failing_column() {
    for threads in [1, 2] {
        let s = fd_solver(1, 1e-14, threads);
        let block = Mat::identity(4);
        let err = s.try_solve_batch(&block).expect_err("starved batch must fail");
        assert!(matches!(err, SolverError::NotConverged { .. }), "got {err:?}");
        // infallible batch: every column still solved, best effort,
        // bit-identical to the per-column infallible solves
        let out = s.solve_batch(&block);
        for j in 0..4 {
            let serial = s.solve(block.col(j));
            assert_eq!(out.col(j), &serial[..], "column {j} diverged from serial solve");
        }
    }
}

#[test]
fn fd_bounded_retry_recovers_a_tight_budget() {
    // learn the unconstrained iteration count, then rebuild with a budget
    // just below it: the first attempt must fail, the 4x retry must land
    let probe = fd_solver(10_000, 1e-10, 1);
    let v = [1.0, -0.5, 0.25, 0.0];
    probe.try_solve(&v).expect("generous budget must converge");
    let need = probe.solve_stats().inner_iterations;
    assert!(need > 4, "fixture too easy to starve meaningfully (took {need} iterations)");
    let tight = fd_solver(need - 1, 1e-10, 1);
    let currents = tight.try_solve(&v).expect("bounded retry should recover");
    // the retry really ran: total iterations exceed the first budget
    assert!(
        tight.solve_stats().inner_iterations > need - 1,
        "expected a retry beyond the {}-iteration budget, used {}",
        need - 1,
        tight.solve_stats().inner_iterations
    );
    // and the answer matches the generous solve closely
    let reference = probe.try_solve(&v).unwrap();
    for (a, b) in currents.iter().zip(&reference) {
        assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "retry result diverged: {a} vs {b}");
    }
}

#[test]
fn eigen_starved_solver_reports_not_converged() {
    let s = eigen_solver(1, 1e-14);
    let v = [1.0, 0.0, 0.0, 0.0];
    match s.try_solve(&v) {
        Err(SolverError::NotConverged { relres, iters }) => {
            assert!(relres > 1e-14);
            assert!(iters >= 1);
        }
        other => panic!("starved eigen solve must report NotConverged, got {other:?}"),
    }
    let err = s.try_solve_batch(&Mat::identity(4)).expect_err("starved batch must fail");
    assert!(matches!(err, SolverError::NotConverged { .. }), "got {err:?}");
    // infallible paths stay panic-free and finite
    let i = s.solve(&v);
    assert!(i.iter().all(|c| c.is_finite()));
    let out = s.solve_batch(&Mat::identity(4));
    assert_eq!(out.n_cols(), 4);
}

#[test]
fn healthy_solvers_pass_through_unchanged() {
    // typed paths agree bit-for-bit with the infallible paths when
    // nothing fails, for both backends
    let fd = fd_solver(4000, 1e-10, 1);
    let v = [0.3, -1.0, 2.0, 0.5];
    assert_eq!(fd.try_solve(&v).unwrap(), fd.solve(&v));
    let block = Mat::from_cols(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.5, -0.5, 0.0]]);
    let (a, b) = (fd.try_solve_batch(&block).unwrap(), fd.solve_batch(&block));
    for j in 0..block.n_cols() {
        assert_eq!(a.col(j), b.col(j));
    }
    let eig = eigen_solver(4000, 1e-10);
    assert_eq!(eig.try_solve(&v).unwrap(), eig.solve(&v));
}

#[test]
fn starved_batch_reports_its_lowest_failing_column() {
    // column 0 is all zeros and converges at once; columns 1..3 all fail,
    // each with its own residual, so the reported error names the column
    let block = Mat::from_cols(&[
        vec![0.0; 4],
        vec![1.0, -0.5, 0.25, 0.0],
        vec![0.3, 1.0, 0.0, -2.0],
        vec![0.0, 0.0, 1.0, 0.0],
    ]);
    let layout = generators::regular_grid(128.0, 2, 32.0);
    let sub = Substrate::thesis_standard();
    for threads in [1, 2] {
        let fd = FdSolverConfig {
            nx: 16,
            ny: 16,
            nz: 8,
            tol: 1e-14,
            max_iter: 1,
            threads,
            ..Default::default()
        };
        let eigen = EigenSolverConfig { panels: 32, tol: 1e-14, max_iter: 1, threads };
        let solvers: [(&str, Box<dyn SubstrateSolver>); 2] = [
            ("fd", Box::new(FdSolver::new(&sub, &layout, fd).unwrap())),
            ("eigen", Box::new(EigenSolver::new(&sub, &layout, eigen).unwrap())),
        ];
        for (name, s) in solvers {
            assert!(s.try_solve(block.col(0)).is_ok(), "{name}: a zero column converges");
            let errors: Vec<SolverError> =
                (1..4).map(|j| s.try_solve(block.col(j)).expect_err("starved column")).collect();
            assert!(
                errors[0] != errors[1] && errors[0] != errors[2],
                "{name}: fixture columns must fail distinguishably, got {errors:?}"
            );
            let got = s.try_solve_batch(&block).expect_err("starved batch must fail");
            assert_eq!(got, errors[0], "{name}, threads = {threads}: lowest failing column");
        }
    }
}
