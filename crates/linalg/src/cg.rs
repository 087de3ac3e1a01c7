//! Conjugate gradient and preconditioned conjugate gradient.
//!
//! Both substrate solvers (finite difference, thesis §2.2.2, and the
//! eigenfunction surface solver, §2.3.1) solve their symmetric positive
//! definite systems with (P)CG through the [`LinOp`] abstraction; the
//! preconditioner study of Table 2.1 plugs different [`LinOp`]
//! preconditioners into [`pcg`].

use crate::faults;
use crate::mat::{axpy, dot, nrm2};

/// A symmetric linear operator `y = A x` applied matrix-free.
pub trait LinOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`. Implementations must not read `y`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if slice lengths differ from [`dim`](Self::dim).
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// The identity preconditioner (plain CG when used with [`pcg`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Creates an identity operator of the given dimension.
    pub fn new(n: usize) -> Self {
        IdentityPrecond { n }
    }
}

impl LinOp for IdentityPrecond {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

/// Outcome of a (preconditioned) conjugate gradient solve.
#[derive(Clone, Copy, Debug)]
pub struct CgResult {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the relative-residual tolerance was met.
    pub converged: bool,
    /// Final `||b - A x|| / ||b||`.
    pub relative_residual: f64,
}

/// Reusable work vectors for [`pcg_with`].
///
/// A PCG solve needs five `n`-vectors (residual, operator output,
/// preconditioned residual, search direction, operator-times-direction);
/// [`pcg`] allocates them per call, which is fine for one solve but turns
/// into five heap allocations *per column* in the batched extraction
/// paths. Hoist one `CgScratch` out of the column loop and call
/// [`pcg_with`] instead: every vector is (re)sized and fully overwritten
/// on each solve, so results are bit-identical to the allocating path.
#[derive(Clone, Debug, Default)]
pub struct CgScratch {
    r: Vec<f64>,
    ax: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgScratch {
    /// An empty scratch; vectors grow to the operator dimension on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        CgScratch::default()
    }

    fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.ax.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Solves `A x = b` by plain conjugate gradient.
///
/// `x` holds the initial guess on entry and the solution on exit.
/// Convergence is declared when the true-residual estimate drops below
/// `tol * ||b||`.
pub fn cg(op: &dyn LinOp, b: &[f64], x: &mut [f64], tol: f64, max_iter: usize) -> CgResult {
    let id = IdentityPrecond::new(op.dim());
    pcg(op, &id, b, x, tol, max_iter)
}

/// Solves `A x = b` by preconditioned conjugate gradient with
/// preconditioner application `z = M^{-1} r` given by `precond`.
///
/// `precond` must be symmetric positive definite for PCG theory to hold.
/// Allocates its work vectors; batch callers should hoist a [`CgScratch`]
/// and use [`pcg_with`] (identical results).
///
/// # Panics
///
/// Panics if operator, preconditioner, `b` and `x` dimensions disagree.
pub fn pcg(
    op: &dyn LinOp,
    precond: &dyn LinOp,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> CgResult {
    pcg_with(op, precond, b, x, tol, max_iter, &mut CgScratch::new())
}

/// [`pcg`] with caller-provided work vectors — zero heap allocation once
/// `scratch` has reached the operator dimension, bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn pcg_with(
    op: &dyn LinOp,
    precond: &dyn LinOp,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    scratch: &mut CgScratch,
) -> CgResult {
    // Fault injection (no-ops unless armed; one relaxed load each):
    // `solve.stall` delays the solve, `solve.no_converge` reports failure
    // without iterating, and `solve.poison_nan` corrupts the solution —
    // exercising the retry/typed-error paths of the substrate solvers.
    if faults::enabled() {
        faults::sleep_if(faults::Failpoint::SolveStall);
        if faults::fire(faults::Failpoint::SolveNoConverge) {
            return CgResult { iterations: 0, converged: false, relative_residual: 1.0 };
        }
        if faults::fire(faults::Failpoint::SolvePoisonNan) {
            let out = pcg_with_inner(op, precond, b, x, tol, max_iter, scratch);
            x.fill(f64::NAN);
            return out;
        }
    }
    pcg_with_inner(op, precond, b, x, tol, max_iter, scratch)
}

#[allow(clippy::too_many_arguments)]
fn pcg_with_inner(
    op: &dyn LinOp,
    precond: &dyn LinOp,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    scratch: &mut CgScratch,
) -> CgResult {
    let n = op.dim();
    assert_eq!(precond.dim(), n, "preconditioner dimension mismatch");
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x.len(), n, "solution dimension mismatch");

    let bnorm = nrm2(b);
    if bnorm == 0.0 {
        x.fill(0.0);
        return CgResult { iterations: 0, converged: true, relative_residual: 0.0 };
    }

    scratch.resize(n);
    let CgScratch { r, ax, z, p, ap } = scratch;
    let (r, z, p) = (&mut r[..], &mut z[..], &mut p[..]);
    if x.iter().all(|v| v.to_bits() == 0) {
        // a `+0.0` start: `A·0` is zero, so skip the apply. `b − A·0` is
        // `b` up to the sign of a `−0.0` entry of `b`
        r.copy_from_slice(b);
    } else {
        op.apply(x, ax);
        for i in 0..n {
            r[i] = b[i] - ax[i];
        }
    }
    precond.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);
    let mut relres = nrm2(r) / bnorm;
    if relres <= tol {
        return CgResult { iterations: 0, converged: true, relative_residual: relres };
    }

    for it in 1..=max_iter {
        op.apply(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            // operator numerically indefinite or singular along p; bail out
            return CgResult { iterations: it, converged: false, relative_residual: relres };
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        relres = nrm2(r) / bnorm;
        if relres <= tol {
            return CgResult { iterations: it, converged: true, relative_residual: relres };
        }
        precond.apply(r, z);
        let rz_new = dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    CgResult { iterations: max_iter, converged: false, relative_residual: relres }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    struct DenseOp(Mat);
    impl LinOp for DenseOp {
        fn dim(&self) -> usize {
            self.0.n_rows()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(&self.0.matvec(x));
        }
    }

    fn laplacian_1d(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 32;
        let op = DenseOp(laplacian_1d(n));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut x = vec![0.0; n];
        let res = cg(&op, &b, &mut x, 1e-10, 500);
        assert!(res.converged, "cg did not converge: {res:?}");
        let mut ax = vec![0.0; n];
        op.apply(&x, &mut ax);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn a_zero_start_skips_the_initial_apply_and_keeps_the_bits() {
        /// Counts applies of the 1-D Laplacian.
        struct Counted(DenseOp, std::cell::Cell<usize>);
        impl LinOp for Counted {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.1.set(self.1.get() + 1);
                self.0.apply(x, y);
            }
        }
        let n = 24;
        let op = Counted(DenseOp(laplacian_1d(n)), Default::default());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        // a `−0.0` start is zero but not `+0.0` by bits: it pays the apply
        let (mut x, mut y) = (vec![0.0; n], vec![-0.0; n]);
        let res = cg(&op, &b, &mut x, 1e-10, 500);
        assert_eq!(op.1.replace(0), res.iterations);
        let res_signed = cg(&op, &b, &mut y, 1e-10, 500);
        assert_eq!(op.1.get(), res_signed.iterations + 1);
        assert_eq!(res.iterations, res_signed.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&y));
    }

    #[test]
    fn exact_preconditioner_converges_immediately() {
        let n = 16;
        let a = laplacian_1d(n);
        let op = DenseOp(a.clone());
        // "Exact" preconditioner: apply A^{-1} via dense Cholesky.
        struct InvOp(crate::chol::Cholesky, usize);
        impl LinOp for InvOp {
            fn dim(&self) -> usize {
                self.1
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y.copy_from_slice(&self.0.solve(x));
            }
        }
        let pre = InvOp(crate::chol::Cholesky::new(&a).unwrap(), n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(&op, &pre, &b, &mut x, 1e-12, 10);
        assert!(res.converged);
        assert!(res.iterations <= 2, "exact preconditioner took {} iters", res.iterations);
    }

    #[test]
    fn zero_rhs() {
        let op = DenseOp(laplacian_1d(4));
        let mut x = vec![1.0; 4];
        let res = cg(&op, &[0.0; 4], &mut x, 1e-10, 10);
        assert!(res.converged);
        assert_eq!(x, vec![0.0; 4]);
    }

    #[test]
    fn reports_non_convergence() {
        let a = laplacian_1d(50);
        struct DenseOp(Mat);
        impl LinOp for DenseOp {
            fn dim(&self) -> usize {
                self.0.n_rows()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y.copy_from_slice(&self.0.matvec(x));
            }
        }
        let op = DenseOp(a);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let res = cg(&op, &b, &mut x, 1e-14, 2);
        assert!(!res.converged, "2 iterations cannot solve a 50-node Laplacian");
        assert!(res.relative_residual > 1e-14);
        assert_eq!(res.iterations, 2);
    }

    #[test]
    fn jacobi_pcg_beats_plain_cg_on_scaled_system() {
        // a dominant diagonal with a 1e6 spread plus weak coupling:
        // Jacobi preconditioning makes the system near-identity while
        // plain CG struggles with the spread
        let n = 64;
        let mut a = laplacian_1d(n);
        a.scale(0.01);
        for i in 0..n {
            a[(i, i)] += 10.0_f64.powi((i % 7) as i32 - 3);
        }
        struct DenseOp(Mat);
        impl LinOp for DenseOp {
            fn dim(&self) -> usize {
                self.0.n_rows()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y.copy_from_slice(&self.0.matvec(x));
            }
        }
        struct JacobiOp(Vec<f64>);
        impl LinOp for JacobiOp {
            fn dim(&self) -> usize {
                self.0.len()
            }
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                for i in 0..r.len() {
                    z[i] = r[i] / self.0[i];
                }
            }
        }
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let op = DenseOp(a);
        let mut x1 = vec![0.0; n];
        let plain = cg(&op, &b, &mut x1, 1e-10, 10_000);
        let mut x2 = vec![0.0; n];
        let pre = JacobiOp(diag);
        let jac = pcg(&op, &pre, &b, &mut x2, 1e-10, 10_000);
        assert!(plain.converged && jac.converged);
        assert!(
            jac.iterations * 3 < plain.iterations * 2,
            "jacobi {} should be at least 1.5x faster than plain {}",
            jac.iterations,
            plain.iterations
        );
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-6, "solutions disagree");
        }
    }
}
