//! Substrate models and black-box substrate solvers (thesis Chapter 2).
//!
//! The substrate is a layered block of resistive material with perfectly
//! conducting contacts on its top surface ([`Substrate`], [`Layer`],
//! [`Backplane`]). Two solvers compute contact currents from contact
//! voltages:
//!
//! * [`fd::FdSolver`] — a 3-D finite-difference "grid of resistors"
//!   discretization solved with preconditioned conjugate gradient
//!   (thesis §2.2), and
//! * [`eigen::EigenSolver`] — a surface-variable method using the analytic
//!   cosine eigenfunctions of the layered-media current-to-potential
//!   operator, applied with 2-D DCTs (thesis §2.3).
//!
//! Both implement the [`SubstrateSolver`] trait, which is all the
//! extraction algorithms ever see — the "black box" of the thesis.
//!
//! # Example
//!
//! ```
//! use subsparse_substrate::{Backplane, Layer, Substrate};
//!
//! // Two-layer substrate: thin lightly doped epi over a heavily doped bulk.
//! let sub = Substrate::new(
//!     vec![Layer::new(0.5, 1.0), Layer::new(39.5, 100.0)],
//!     Backplane::Grounded,
//! );
//! assert_eq!(sub.depth(), 40.0);
//! ```

pub mod eigen;
pub mod eigenvalues;
pub mod fd;
pub mod solver;

pub use eigen::{EigenSolver, EigenSolverConfig};
pub use fd::{DirichletPlacement, FdPrecond, FdSolver, FdSolverConfig, TopBc};
pub use solver::{
    extract_dense, CountingSolver, DenseSolver, HasSolveStats, KernelSolver, SolveStats,
    SubstrateSolver,
};

use std::fmt;

/// One conductive layer of the substrate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Layer {
    /// Layer thickness (same length units as the surface extent).
    pub thickness: f64,
    /// Electrical conductivity (1 / (resistivity * length)).
    pub conductivity: f64,
}

impl Layer {
    /// Creates a layer.
    ///
    /// # Panics
    ///
    /// Panics if thickness or conductivity are not positive and finite.
    pub fn new(thickness: f64, conductivity: f64) -> Self {
        assert!(thickness > 0.0 && thickness.is_finite(), "layer thickness must be positive");
        assert!(
            conductivity > 0.0 && conductivity.is_finite(),
            "layer conductivity must be positive"
        );
        Layer { thickness, conductivity }
    }
}

/// Bottom boundary condition of the substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backplane {
    /// A grounded contact covering the whole bottom surface (Dirichlet).
    Grounded,
    /// No backplane contact (Neumann / floating). Produces stronger global
    /// coupling; the conductance matrix becomes singular with a rank-one
    /// deficiency (thesis §2.4).
    Floating,
}

/// A layered substrate profile (thesis Fig 1-1): layers listed from the
/// *top surface down*, plus the bottom boundary condition.
#[derive(Clone, Debug, PartialEq)]
pub struct Substrate {
    layers: Vec<Layer>,
    backplane: Backplane,
}

impl Substrate {
    /// Creates a substrate from top-first layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Layer>, backplane: Backplane) -> Self {
        assert!(!layers.is_empty(), "substrate needs at least one layer");
        Substrate { layers, backplane }
    }

    /// A single uniform layer.
    pub fn uniform(depth: f64, conductivity: f64, backplane: Backplane) -> Self {
        Substrate::new(vec![Layer::new(depth, conductivity)], backplane)
    }

    /// The thesis's standard evaluation substrate (§3.7): top layer of unit
    /// conductivity down to depth 0.5, a 100x more conductive bulk down to
    /// depth 39, and — emulating a floating backplane with an
    /// integral-equation solver that needs a groundplane — a resistive
    /// (0.1) layer down to depth 40 over a grounded backplane.
    pub fn thesis_standard() -> Self {
        Substrate::new(
            vec![Layer::new(0.5, 1.0), Layer::new(38.5, 100.0), Layer::new(1.0, 0.1)],
            Backplane::Grounded,
        )
    }

    /// Layers, top first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Bottom boundary condition.
    pub fn backplane(&self) -> Backplane {
        self.backplane
    }

    /// Total substrate depth.
    pub fn depth(&self) -> f64 {
        self.layers.iter().map(|l| l.thickness).sum()
    }

    /// Conductivity at a depth below the top surface (`0 <= depth <= total`).
    ///
    /// Exactly on an interface, the layer *below* is reported.
    pub fn conductivity_at(&self, depth: f64) -> f64 {
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.thickness;
            if depth < acc {
                return l.conductivity;
            }
        }
        self.layers.last().expect("non-empty").conductivity
    }

    /// Integral of resistivity `1/sigma` over a depth interval
    /// `[d0, d1]` below the surface (used by the FD solver for resistors
    /// crossing layer boundaries, thesis Fig 2-2).
    pub fn resistivity_integral(&self, d0: f64, d1: f64) -> f64 {
        assert!(d1 >= d0);
        let mut top = 0.0_f64;
        let mut covered = 0.0_f64;
        let mut total = 0.0;
        for l in &self.layers {
            let bottom = top + l.thickness;
            let lo = d0.max(top);
            let hi = d1.min(bottom);
            if hi > lo {
                total += (hi - lo) / l.conductivity;
            }
            top = bottom;
            covered = bottom;
        }
        // extend the bottom layer if the interval pokes past the depth
        if d1 > covered {
            let lo = covered.max(d0);
            total += (d1 - lo) / self.layers.last().expect("non-empty").conductivity;
        }
        total
    }
}

/// Errors constructing or running a substrate solver.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The layout failed validation.
    Layout(subsparse_layout::LayoutError),
    /// The surface must be square for the eigenfunction solver.
    NonSquareSurface,
    /// A grid/panel dimension must be a power of two.
    NotPowerOfTwo {
        /// The offending dimension.
        value: usize,
    },
    /// A contact covers no grid cell at the chosen resolution.
    ContactUnresolved {
        /// Index of the contact.
        contact: usize,
    },
    /// Two contacts claim the same grid cell.
    CellConflict {
        /// Flat index of the contested cell.
        cell: usize,
    },
    /// The eigenfunction solver requires a grounded backplane (the uniform
    /// current mode has infinite impedance otherwise, thesis §2.3.1); add a
    /// thin resistive bottom layer to emulate a floating backplane.
    FloatingBackplaneUnsupported,
    /// An iterative solve missed its relative-residual tolerance even
    /// after the bounded retry (one warm-started re-run at 4x the
    /// iteration budget). Surfaced by
    /// [`SubstrateSolver::try_solve`] / [`try_solve_batch`](SubstrateSolver::try_solve_batch);
    /// the infallible paths warn and return best-effort currents instead.
    NotConverged {
        /// Final `||b - A x|| / ||b||` of the failing solve.
        relres: f64,
        /// Total inner iterations spent on the failing column (initial
        /// attempt plus retry).
        iters: usize,
    },
    /// A solve produced NaN or +-Inf contact currents.
    NonFinite {
        /// Index of the first non-finite output entry.
        entry: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Layout(e) => write!(f, "invalid layout: {e}"),
            SolverError::NonSquareSurface => {
                write!(f, "eigenfunction solver requires a square surface")
            }
            SolverError::NotPowerOfTwo { value } => {
                write!(f, "dimension {value} must be a power of two")
            }
            SolverError::ContactUnresolved { contact } => {
                write!(f, "contact {contact} covers no cell; increase the grid resolution")
            }
            SolverError::CellConflict { cell } => {
                write!(f, "two contacts claim grid cell {cell}")
            }
            SolverError::FloatingBackplaneUnsupported => write!(
                f,
                "eigenfunction solver requires a grounded backplane (use a resistive bottom layer)"
            ),
            SolverError::NotConverged { relres, iters } => write!(
                f,
                "solve did not converge: relative residual {relres:.3e} after {iters} \
                 iterations (including the bounded retry)"
            ),
            SolverError::NonFinite { entry } => {
                write!(f, "solve produced a non-finite current at entry {entry}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

impl From<subsparse_layout::LayoutError> for SolverError {
    fn from(e: subsparse_layout::LayoutError) -> Self {
        SolverError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductivity_lookup() {
        let s = Substrate::thesis_standard();
        assert_eq!(s.conductivity_at(0.1), 1.0);
        assert_eq!(s.conductivity_at(0.5), 100.0); // interface -> layer below
        assert_eq!(s.conductivity_at(20.0), 100.0);
        assert_eq!(s.conductivity_at(39.5), 0.1);
        assert_eq!(s.depth(), 40.0);
    }

    #[test]
    fn resistivity_integral_crossing_boundary() {
        let s =
            Substrate::new(vec![Layer::new(1.0, 1.0), Layer::new(1.0, 2.0)], Backplane::Grounded);
        // half in each layer: 0.5/1 + 0.5/2 = 0.75
        let r = s.resistivity_integral(0.5, 1.5);
        assert!((r - 0.75).abs() < 1e-12);
        // entirely in layer 2
        assert!((s.resistivity_integral(1.2, 1.7) - 0.25).abs() < 1e-12);
    }
}
