//! Eigenvalues of the layered-substrate current-to-potential operator.
//!
//! For a rectangular substrate with Neumann sidewalls, the surface
//! current-density-to-surface-potential operator `A` has the cosine
//! eigenfunctions `f_mn(x, y) = cos(m pi x / a) cos(n pi y / b)` (thesis
//! §2.3.1). The eigenvalue `lambda_mn` depends only on
//! `gamma = sqrt((m pi / a)^2 + (n pi / b)^2)` and the layer stack.
//!
//! The thesis derives a recursion on coefficients `(zeta, xi)` that grows
//! like `e^{gamma d}`; we instead propagate the *reflection coefficient*
//! `R(z) = (xi e^{-gamma (d+z)}) / (zeta e^{gamma (d+z)})`, which stays in
//! `(-1, 1)` and never overflows:
//!
//! * within a layer of thickness `h`: `R <- R e^{-2 gamma h}`;
//! * across an interface (conductivity `sigma_below` to `sigma_above`):
//!   `Y = (1-R)/(1+R)`, `Y <- Y sigma_below / sigma_above`,
//!   `R <- (1-Y)/(1+Y)`;
//! * at the surface: `lambda = (1 + R) / (sigma_top gamma (1 - R))`
//!   (thesis eq. 2.35).
//!
//! Base cases: `R = -1` at a grounded backplane (Dirichlet), `R = +1` at a
//! floating backplane (Neumann).

use crate::{Backplane, Substrate};

/// Surface impedance eigenvalue `lambda(gamma)` for one spatial frequency.
///
/// For `gamma == 0` (the uniform mode): a grounded backplane gives the
/// series resistance-per-unit-area `sum h_k / sigma_k`; a floating
/// backplane gives `+inf` (no path for net current, thesis §2.3.1).
///
/// # Panics
///
/// Panics if `gamma` is negative or not finite.
pub fn mode_eigenvalue(substrate: &Substrate, gamma: f64) -> f64 {
    assert!(gamma >= 0.0 && gamma.is_finite(), "gamma must be non-negative and finite");
    let layers = substrate.layers();
    if gamma == 0.0 {
        return match substrate.backplane() {
            Backplane::Grounded => layers.iter().map(|l| l.thickness / l.conductivity).sum::<f64>(),
            Backplane::Floating => f64::INFINITY,
        };
    }
    let mut r = match substrate.backplane() {
        Backplane::Grounded => -1.0_f64,
        Backplane::Floating => 1.0_f64,
    };
    // walk from the bottom layer to the top layer
    for (i, layer) in layers.iter().enumerate().rev() {
        // propagate up through the layer thickness
        r *= (-2.0 * gamma * layer.thickness).exp();
        // cross the interface into the layer above, unless this is the top
        if i > 0 {
            let sigma_below = layer.conductivity;
            let sigma_above = layers[i - 1].conductivity;
            let y = (1.0 - r) / (1.0 + r) * sigma_below / sigma_above;
            r = (1.0 - y) / (1.0 + y);
        }
    }
    let sigma_top = layers[0].conductivity;
    (1.0 + r) / (sigma_top * gamma * (1.0 - r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    /// 1-D finite-difference reference: solve
    /// `(sigma(z) phi')' - sigma(z) gamma^2 phi = 0` on `[-d, 0]` with the
    /// bottom boundary condition and unit current density injected at the
    /// top, returning `phi(0)`.
    fn reference_lambda(substrate: &Substrate, gamma: f64, n: usize) -> f64 {
        let d = substrate.depth();
        let h = d / n as f64;
        // nodes at depth (i + 0.5) h below the surface, i = 0 (top) .. n-1
        let sigma: Vec<f64> =
            (0..n).map(|i| substrate.conductivity_at((i as f64 + 0.5) * h)).collect();
        // vertical conductances between node i and i+1 (series through interfaces)
        let gz: Vec<f64> = (0..n - 1)
            .map(|i| {
                1.0 / substrate.resistivity_integral((i as f64 + 0.5) * h, (i as f64 + 1.5) * h)
            })
            .collect();
        let mut lower = vec![0.0; n - 1];
        let mut diag = vec![0.0; n];
        let mut upper = vec![0.0; n - 1];
        for i in 0..n {
            let mut dg = sigma[i] * gamma * gamma * h;
            if i > 0 {
                dg += gz[i - 1];
                lower[i - 1] = -gz[i - 1];
            }
            if i + 1 < n {
                dg += gz[i];
                upper[i] = -gz[i];
            }
            diag[i] = dg;
        }
        match substrate.backplane() {
            Backplane::Grounded => {
                // bottom node ties to ground a half-spacing below
                diag[n - 1] += substrate.conductivity_at(d - 0.25 * h) / (0.5 * h);
            }
            Backplane::Floating => {}
        }
        // unit current density in at the top node
        let mut rhs = vec![0.0; n];
        rhs[0] = 1.0;
        let mut scratch = vec![0.0; n];
        subsparse_linalg::tridiag::solve_in_place(&lower, &diag, &upper, &mut rhs, &mut scratch);
        // extrapolate from node center (h/2 deep) to the surface using the
        // known top current density: phi(0) = phi(h/2) + (h/2) * j / sigma
        rhs[0] + 0.5 * h / sigma[0]
    }

    #[test]
    fn uniform_grounded_matches_tanh() {
        let s = Substrate::uniform(40.0, 2.0, Backplane::Grounded);
        for &gamma in &[0.01, 0.1, 1.0, 10.0] {
            let lam = mode_eigenvalue(&s, gamma);
            let expect = (gamma * 40.0).tanh() / (2.0 * gamma);
            assert!(
                (lam - expect).abs() < 1e-12 * expect.abs().max(1.0),
                "gamma={gamma}: {lam} vs {expect}"
            );
        }
    }

    #[test]
    fn uniform_floating_matches_coth() {
        let s = Substrate::uniform(10.0, 1.0, Backplane::Floating);
        for &gamma in &[0.05, 0.5, 5.0] {
            let lam = mode_eigenvalue(&s, gamma);
            let expect = 1.0 / (gamma * (gamma * 10.0).tanh());
            assert!((lam - expect).abs() < 1e-10 * expect, "gamma={gamma}: {lam} vs {expect}");
        }
    }

    #[test]
    fn uniform_mode_series_resistance() {
        let s = Substrate::thesis_standard();
        let lam = mode_eigenvalue(&s, 0.0);
        let expect = 0.5 / 1.0 + 38.5 / 100.0 + 1.0 / 0.1;
        assert!((lam - expect).abs() < 1e-12);
        let f = Substrate::uniform(1.0, 1.0, Backplane::Floating);
        assert!(mode_eigenvalue(&f, 0.0).is_infinite());
    }

    #[test]
    fn layered_matches_1d_reference() {
        let s = Substrate::thesis_standard();
        for &gamma in &[0.05, 0.2, 1.0] {
            let lam = mode_eigenvalue(&s, gamma);
            let reference = reference_lambda(&s, gamma, 40000);
            let rel = (lam - reference).abs() / reference.abs();
            assert!(rel < 2e-3, "gamma={gamma}: ladder {lam} vs reference {reference}");
        }
    }

    #[test]
    fn floating_layered_matches_1d_reference() {
        let s =
            Substrate::new(vec![Layer::new(2.0, 1.0), Layer::new(38.0, 50.0)], Backplane::Floating);
        for &gamma in &[0.1, 0.7] {
            let lam = mode_eigenvalue(&s, gamma);
            let reference = reference_lambda(&s, gamma, 40000);
            let rel = (lam - reference).abs() / reference.abs();
            assert!(rel < 2e-3, "gamma={gamma}: ladder {lam} vs reference {reference}");
        }
    }

    #[test]
    fn high_frequency_half_space_limit() {
        // for gamma * d >> 1 the substrate looks like a half space of the
        // top-layer conductivity: lambda -> 1 / (sigma_top gamma)
        let s = Substrate::thesis_standard();
        let gamma = 50.0;
        let lam = mode_eigenvalue(&s, gamma);
        // the top layer is only 0.5 deep; gamma h = 25, fully screened
        let expect = 1.0 / (1.0 * gamma);
        assert!((lam - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn eigenvalues_positive_and_decreasing() {
        // modes (m, n) of a 128 x 128 surface, m, n < 32
        let s = Substrate::thesis_standard();
        let lambda = |m: usize, n: usize| {
            let k = std::f64::consts::PI / 128.0;
            mode_eigenvalue(&s, (m as f64 * k).hypot(n as f64 * k))
        };
        for n in 0..32 {
            for m in 0..32 {
                assert!(lambda(m, n) > 0.0);
            }
        }
        // along the diagonal the eigenvalue decreases with frequency
        for k in 1..31 {
            assert!(lambda(k + 1, k + 1) < lambda(k, k));
        }
    }
}
