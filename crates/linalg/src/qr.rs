//! Householder QR factorization and orthonormal-basis completion.
//!
//! The wavelet and low-rank constructions repeatedly need, given a set of
//! orthonormal columns `V` (from an SVD), an explicit orthonormal basis `W`
//! of the complementary subspace so that `[V W]` is square orthogonal
//! (thesis §3.4.1, §4.3.1). [`orthonormal_completion`] provides exactly
//! that.

use crate::mat::{dot, Mat};

/// Compact Householder QR factorization of an `m x n` matrix with `m >= n`.
///
/// Stores the Householder vectors and their scalings; `R` is not kept, since
/// [`orthonormal_completion`] only applies `Q`.
#[derive(Clone, Debug)]
pub struct HouseholderQr {
    /// `m x n` matrix holding the Householder vectors `v_k` in columns
    /// (below and including the diagonal).
    vs: Mat,
    /// `tau[k] = 2 / (v_k' v_k)` scaling for each reflector.
    tau: Vec<f64>,
}

impl HouseholderQr {
    /// Factors `a` (requires `n_rows >= n_cols`).
    ///
    /// # Panics
    ///
    /// Panics if `a` has more columns than rows.
    pub fn new(a: &Mat) -> Self {
        let (m, n) = (a.n_rows(), a.n_cols());
        assert!(m >= n, "HouseholderQr requires rows >= cols");
        let mut w = a.clone();
        let mut vs = Mat::zeros(m, n);
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build reflector for column k, rows k..m.
            let mut normx = 0.0;
            for i in k..m {
                normx += w[(i, k)] * w[(i, k)];
            }
            let normx = normx.sqrt();
            if normx == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if w[(k, k)] >= 0.0 { -normx } else { normx };
            // v = x - alpha * e1
            let mut vnorm2 = 0.0;
            for i in k..m {
                let vi = if i == k { w[(i, k)] - alpha } else { w[(i, k)] };
                vs[(i, k)] = vi;
                vnorm2 += vi * vi;
            }
            if vnorm2 == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            tau[k] = 2.0 / vnorm2;
            // Apply reflector to the columns of w still to be reduced.
            for j in (k + 1)..n {
                let mut d = 0.0;
                for i in k..m {
                    d += vs[(i, k)] * w[(i, j)];
                }
                let d = d * tau[k];
                for i in k..m {
                    w[(i, j)] -= d * vs[(i, k)];
                }
            }
        }
        HouseholderQr { vs, tau }
    }

    /// Applies `Q` to a vector in place (`x <- Q x`), where
    /// `Q = H_0 H_1 ... H_{n-1}`.
    pub fn apply_q(&self, x: &mut [f64]) {
        let (m, n) = (self.vs.n_rows(), self.vs.n_cols());
        assert_eq!(x.len(), m);
        for k in (0..n).rev() {
            if self.tau[k] == 0.0 {
                continue;
            }
            let v = self.vs.col(k);
            let mut d = 0.0;
            for i in k..m {
                d += v[i] * x[i];
            }
            let d = d * self.tau[k];
            for i in k..m {
                x[i] -= d * v[i];
            }
        }
    }
}

/// Given a matrix `v` with `k` (nearly) orthonormal columns of length `n`,
/// returns an `n x (n - k)` matrix `w` with orthonormal columns such that
/// `[v w]` is orthogonal.
///
/// Used to form the "leftover" spaces `W_s` of the wavelet construction and
/// the finest-level complements of the low-rank method.
///
/// # Panics
///
/// Panics if `v` has more columns than rows.
pub fn orthonormal_completion(v: &Mat) -> Mat {
    let (n, k) = (v.n_rows(), v.n_cols());
    assert!(k <= n, "cannot complete more columns than the dimension");
    if k == 0 {
        return Mat::identity(n);
    }
    if k == n {
        return Mat::zeros(n, 0);
    }
    let qr = HouseholderQr::new(v);
    let mut w = Mat::zeros(n, n - k);
    for j in 0..(n - k) {
        let mut x = vec![0.0; n];
        x[k + j] = 1.0;
        qr.apply_q(&mut x);
        w.col_mut(j).copy_from_slice(&x);
    }
    // Re-orthogonalize against v for safety (v may be orthonormal only to
    // ~1e-14; one Gram-Schmidt pass keeps everything clean).
    for j in 0..w.n_cols() {
        for c in 0..k {
            let d = dot(w.col(j), v.col(c));
            let (wcol, vcol) = (j, c);
            for i in 0..n {
                let t = v[(i, vcol)] * d;
                w[(i, wcol)] -= t;
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::nrm2;
    use crate::svd::svd;

    /// The first `k` columns of the full `Q` factor.
    fn q_columns(qr: &HouseholderQr, k: usize) -> Mat {
        let m = qr.vs.n_rows();
        let mut q = Mat::zeros(m, k);
        for j in 0..k {
            let mut x = vec![0.0; m];
            x[j] = 1.0;
            qr.apply_q(&mut x);
            q.col_mut(j).copy_from_slice(&x);
        }
        q
    }

    #[test]
    fn qr_reconstructs() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let qr = HouseholderQr::new(&a);
        let q = q_columns(&qr, 6);
        // Q orthogonal
        let qtq = q.matmul_tn(&q);
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-12);
            }
        }
        // R = Q' A is upper trapezoidal, and Q[:, :4] * R[:4, :] == A
        let r = q.matmul_tn(&a);
        for j in 0..4 {
            for i in (j + 1)..6 {
                assert!(r[(i, j)].abs() < 1e-12, "R({i},{j}) = {}", r[(i, j)]);
            }
        }
        let qk = q_columns(&qr, 4);
        let recon = qk.matmul(&Mat::from_fn(4, 4, |i, j| r[(i, j)]));
        for i in 0..6 {
            for j in 0..4 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn completion_is_orthogonal() {
        // orthonormal columns from an SVD
        let a = Mat::from_fn(8, 3, |i, j| ((i + 2 * j + 1) as f64).sin());
        let f = svd(&a);
        let v = f.u;
        let w = orthonormal_completion(&v);
        assert_eq!(w.n_cols(), 5);
        let full = v.hcat(&w);
        let g = full.matmul_tn(&full);
        for i in 0..8 {
            for j in 0..8 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-10,
                    "[V W] not orthogonal at ({i},{j}): {}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn completion_edge_cases() {
        let w = orthonormal_completion(&Mat::zeros(4, 0));
        assert_eq!(w.n_cols(), 4);
        assert!((nrm2(w.col(0)) - 1.0).abs() < 1e-14);
        let v = Mat::identity(3);
        let w = orthonormal_completion(&v);
        assert_eq!(w.n_cols(), 0);
    }
}
