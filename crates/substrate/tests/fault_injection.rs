//! The fault-injection contract on the solver seam: the `solve.*`
//! failpoints inside `pcg_with` must surface through the substrate
//! solvers as the bounded retry (transient failure absorbed,
//! bit-identical result), a typed `SolverError` (persistent failure), or
//! a stalled-but-correct solve — never a panic, never a silently wrong
//! current. Every contract runs on both iterative backends.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and leaves the registry disarmed.

use std::sync::Mutex;

use subsparse_layout::generators;
use subsparse_linalg::faults::{self, Failpoint, FireMode};
use subsparse_substrate::{
    EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, SolverError, Substrate,
    SubstrateSolver,
};

static FAULTS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The FD and eigenfunction solvers on one 4-contact layout.
fn solvers() -> Vec<(&'static str, Box<dyn SubstrateSolver>)> {
    let layout = generators::regular_grid(128.0, 2, 32.0);
    let sub = Substrate::thesis_standard();
    let fd = FdSolverConfig { nx: 16, ny: 16, nz: 8, tol: 1e-10, threads: 1, ..Default::default() };
    let eigen = EigenSolverConfig { panels: 32, tol: 1e-10, threads: 1, ..Default::default() };
    vec![
        ("fd", Box::new(FdSolver::new(&sub, &layout, fd).unwrap())),
        ("eigen", Box::new(EigenSolver::new(&sub, &layout, eigen).unwrap())),
    ]
}

#[test]
fn transient_non_convergence_is_absorbed_by_the_bounded_retry() {
    let _g = lock();
    for (name, s) in solvers() {
        faults::reset();
        let v = [1.0, -0.5, 0.25, 0.0];
        let want = s.try_solve(&v).expect("healthy solve");

        // one forced non-convergence: the first CG attempt reports failure
        // without touching the solution, the warm-started retry runs the
        // identical iteration from the same start — bit-identical recovery
        faults::configure(Failpoint::SolveNoConverge, FireMode::Once);
        let got = s.try_solve(&v).expect("one transient failure must be retried away");
        assert_eq!(got, want, "{name}: retried solve must be bit-identical");
    }
    faults::reset();
}

#[test]
fn persistent_non_convergence_is_a_typed_error() {
    let _g = lock();
    for (name, s) in solvers() {
        faults::reset();
        let v = [1.0, 0.0, 0.0, 0.0];
        faults::configure(Failpoint::SolveNoConverge, FireMode::EveryN(1));
        match s.try_solve(&v) {
            Err(SolverError::NotConverged { .. }) => {}
            other => panic!("{name}: persistent non-convergence must be typed, got {other:?}"),
        }
        // the infallible path warns and returns best-effort currents
        let i = s.solve(&v);
        assert_eq!(i.len(), 4);
        assert!(i.iter().all(|c| c.is_finite()), "{name}: best-effort currents must be finite");
    }
    faults::reset();
}

#[test]
fn poisoned_solver_output_is_a_typed_error() {
    let _g = lock();
    for (name, s) in solvers() {
        faults::reset();
        let v = [1.0, 0.0, 0.0, 0.0];
        // NaN-poisoned potentials must be caught at the current extraction,
        // not handed to the caller as garbage
        faults::configure(Failpoint::SolvePoisonNan, FireMode::EveryN(1));
        match s.try_solve(&v) {
            Err(SolverError::NonFinite { .. }) => {}
            other => panic!("{name}: poisoned output must be typed NonFinite, got {other:?}"),
        }
        // infallible path: no panic (the currents themselves are suspect and
        // the stderr warning says so)
        let i = s.solve(&v);
        assert_eq!(i.len(), 4);
    }
    faults::reset();
}

#[test]
fn stalled_solves_finish_correct() {
    let _g = lock();
    for (name, s) in solvers() {
        faults::reset();
        let v = [0.5, 0.5, -1.0, 0.0];
        let want = s.try_solve(&v).expect("healthy solve");
        faults::configure_with_arg(Failpoint::SolveStall, FireMode::Once, Some(60));
        let t0 = std::time::Instant::now();
        let got = s.try_solve(&v).expect("a stalled solve still completes");
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(60),
            "{name}: stall must actually delay"
        );
        assert_eq!(got, want, "{name}: a stalled solve must not change the result");
    }
    faults::reset();
}
