//! Eigenfunction-based surface-variable substrate solver (thesis §2.3).
//!
//! The substrate surface is discretized into `P x P` square panels. The
//! current-to-potential operator `A` is applied in the cosine-mode basis
//! (thesis Fig 2-6): scatter panel currents to the grid, 2-D DCT, scale by
//! the mode eigenvalues, inverse transform, gather panel potentials. The
//! conductance solve `A i = v` restricted to contact panels is done with
//! (optionally Jacobi-preconditioned) conjugate gradient; contact currents
//! are the sums of panel currents.
//!
//! Discretization detail: expanding piecewise-constant panel currents in
//! the cosine modes and averaging potentials back over panels makes both
//! transforms *exactly* the unnormalized DCT-II kernel
//! `E_{mq} = cos(m pi (q + 1/2) / P)` with per-mode weights
//! `w_m = (2a / m pi) sin(m pi / 2P)` (`w_0 = a / P`), so the discrete
//! operator is symmetric positive definite by construction. Modes are
//! truncated at the panel Nyquist (`P x P` modes). This matches the
//! precorrected-DCT formulation the thesis builds on; the thesis's own
//! QuickSub backend used multigrid instead of CG, so absolute iteration
//! counts differ (documented in EXPERIMENTS.md).

use crate::eigenvalues::mode_eigenvalue;
use crate::solver::SubstrateSolver;
use crate::{SolverError, Substrate};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use subsparse_layout::Layout;
use subsparse_linalg::cg::{pcg_with, CgResult, CgScratch, IdentityPrecond, LinOp};
use subsparse_linalg::dct::{dct2d_with, Dct, Dct2dScratch};
use subsparse_linalg::trace;

/// Configuration for [`EigenSolver`].
#[derive(Clone, Copy, Debug)]
pub struct EigenSolverConfig {
    /// Panels per side (power of two).
    pub panels: usize,
    /// CG relative-residual tolerance.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iter: usize,
    /// Use the Jacobi (diagonal) preconditioner.
    pub jacobi: bool,
    /// Worker threads for [`SubstrateSolver::solve_batch`] (0 = one per
    /// available CPU). Each column runs the identical serial CG — with its
    /// own 2-D DCT scratch grid — so results are bit-equal for every
    /// thread count; 1 disables threading.
    pub threads: usize,
}

impl Default for EigenSolverConfig {
    fn default() -> Self {
        EigenSolverConfig { panels: 128, tol: 1e-8, max_iter: 4000, jacobi: true, threads: 1 }
    }
}

/// The eigenfunction (surface-variable) substrate solver.
///
/// Each CG iteration applies the current-to-potential operator — a
/// forward 2-D DCT, the mode scaling and a transpose 2-D DCT on the
/// `P x P` panel grid — and that is nearly all of a solve's time. Both
/// transforms run the lane-batched kernel of [`subsparse_linalg::dct`]
/// (all grid rows or columns per sweep, with the bits of the
/// one-row-at-a-time transform). Batch solves give each worker its own
/// transform scratch (`3 P^2` values, allocated once per worker), so
/// adding columns allocates nothing.
///
/// # Example
///
/// ```
/// use subsparse_layout::generators;
/// use subsparse_substrate::{EigenSolver, EigenSolverConfig, Substrate, SubstrateSolver};
///
/// let layout = generators::regular_grid(128.0, 4, 16.0);
/// let solver = EigenSolver::new(
///     &Substrate::thesis_standard(),
///     &layout,
///     EigenSolverConfig { panels: 32, ..Default::default() },
/// )?;
/// let currents = solver.solve(&vec![1.0; 16]);
/// assert!(currents[0] > 0.0); // driven contact sources current
/// # Ok::<(), subsparse_substrate::SolverError>(())
/// ```
#[derive(Debug)]
pub struct EigenSolver {
    n_contacts: usize,
    p: usize,
    /// flat panel indices (qy * P + qx) per contact
    contact_panels: Vec<Vec<u32>>,
    /// all contact panels, sorted
    panel_list: Vec<u32>,
    /// owning contact per entry of `panel_list`
    panel_owner: Vec<u32>,
    /// mode multipliers, row-major `[n * P + m]`
    mu: Vec<f64>,
    dct: Dct,
    /// `A_cc` diagonal over `panel_list` (empty if Jacobi disabled)
    diag: Vec<f64>,
    cfg: EigenSolverConfig,
    solves: AtomicUsize,
    iterations: AtomicUsize,
}

impl EigenSolver {
    /// Builds the solver for a substrate and contact layout.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout is invalid, the surface is not
    /// square, `panels` is not a power of two, a contact covers no panel,
    /// two contacts share a panel, or the backplane is floating (use a
    /// resistive bottom layer instead, as the thesis does).
    pub fn new(
        substrate: &Substrate,
        layout: &Layout,
        cfg: EigenSolverConfig,
    ) -> Result<Self, SolverError> {
        layout.validate()?;
        let (a, b) = layout.extent();
        if (a - b).abs() > 1e-9 * a {
            return Err(SolverError::NonSquareSurface);
        }
        let p = cfg.panels;
        if !p.is_power_of_two() || p == 0 {
            return Err(SolverError::NotPowerOfTwo { value: p });
        }
        if mode_eigenvalue(substrate, 0.0).is_infinite() {
            return Err(SolverError::FloatingBackplaneUnsupported);
        }
        let contact_panels = layout.cell_indices(p, p);
        let mut owner = vec![u32::MAX; p * p];
        for (ci, panels) in contact_panels.iter().enumerate() {
            if panels.is_empty() {
                return Err(SolverError::ContactUnresolved { contact: ci });
            }
            for &q in panels {
                if owner[q as usize] != u32::MAX {
                    return Err(SolverError::CellConflict { cell: q as usize });
                }
                owner[q as usize] = ci as u32;
            }
        }
        let mut panel_list: Vec<u32> = Vec::new();
        let mut panel_owner: Vec<u32> = Vec::new();
        for (q, &o) in owner.iter().enumerate() {
            if o != u32::MAX {
                panel_list.push(q as u32);
                panel_owner.push(o);
            }
        }
        // mode multipliers mu_mn = lambda_mn w_m^2 w_n^2 / (N_mn A_p^2)
        let panel_area = (a / p as f64) * (a / p as f64);
        let w: Vec<f64> = (0..p)
            .map(|m| {
                if m == 0 {
                    a / p as f64
                } else {
                    let mp = m as f64 * std::f64::consts::PI;
                    2.0 * a / mp * (mp / (2.0 * p as f64)).sin()
                }
            })
            .collect();
        let eta = |m: usize| if m == 0 { 1.0 } else { 0.5 };
        let mut mu = vec![0.0; p * p];
        for n in 0..p {
            for m in 0..p {
                let gx = m as f64 * std::f64::consts::PI / a;
                let gy = n as f64 * std::f64::consts::PI / a;
                let lambda = mode_eigenvalue(substrate, gx.hypot(gy));
                let nmn = a * a * eta(m) * eta(n);
                mu[n * p + m] =
                    lambda * w[m] * w[m] * w[n] * w[n] / (nmn * panel_area * panel_area);
            }
        }
        let dct = Dct::new(p);
        let mut solver = EigenSolver {
            n_contacts: layout.n_contacts(),
            p,
            contact_panels,
            panel_list,
            panel_owner,
            mu,
            dct,
            diag: Vec::new(),
            cfg,
            solves: AtomicUsize::new(0),
            iterations: AtomicUsize::new(0),
        };
        if cfg.jacobi {
            solver.diag = solver.compute_diag();
        }
        Ok(solver)
    }

    /// Number of surface panels per side.
    pub fn panels(&self) -> usize {
        self.p
    }

    /// Total number of contact panels (the CG system size).
    pub fn n_contact_panels(&self) -> usize {
        self.panel_list.len()
    }

    /// Panel indices per contact (flat `qy * P + qx`).
    pub fn contact_panels(&self) -> &[Vec<u32>] {
        &self.contact_panels
    }

    /// Cumulative solve statistics.
    pub fn stats(&self) -> crate::solver::SolveStats {
        crate::solver::SolveStats {
            solves: self.solves.load(Ordering::Relaxed),
            inner_iterations: self.iterations.load(Ordering::Relaxed),
        }
    }

    /// Resets the solve statistics.
    pub fn reset_stats(&self) {
        self.solves.store(0, Ordering::Relaxed);
        self.iterations.store(0, Ordering::Relaxed);
    }

    /// Applies the full-surface current-to-potential operator to a `P x P`
    /// grid of *total panel currents* in place, leaving panel-average
    /// potentials (the pipeline of thesis Fig 2-6). Allocates its
    /// transform scratch per call; the CG solves reuse one per worker.
    pub fn apply_current_to_potential(&self, grid: &mut [f64]) {
        self.apply_current_to_potential_with(grid, &mut Dct2dScratch::default());
    }

    /// [`apply_current_to_potential`](Self::apply_current_to_potential)
    /// with caller-provided transform scratch — zero heap allocation once
    /// warm, identical results.
    fn apply_current_to_potential_with(&self, grid: &mut [f64], sc: &mut Dct2dScratch) {
        let p = self.p;
        assert_eq!(grid.len(), p * p);
        dct2d_with(&self.dct, &self.dct, grid, p, p, true, sc);
        for (g, m) in grid.iter_mut().zip(&self.mu) {
            *g *= m;
        }
        dct2d_with(&self.dct, &self.dct, grid, p, p, false, sc);
    }

    /// `A_cc` diagonal over contact panels via
    /// `diag(qx, qy) = sum_mn mu_mn E_{m,qx}^2 E_{n,qy}^2`.
    fn compute_diag(&self) -> Vec<f64> {
        let p = self.p;
        // u[m][q] = E_{m,q}^2
        let mut u = vec![0.0; p * p];
        for m in 0..p {
            for q in 0..p {
                let c =
                    (std::f64::consts::PI * m as f64 * (2 * q + 1) as f64 / (2.0 * p as f64)).cos();
                u[m * p + q] = c * c;
            }
        }
        // t[m][qy] = sum_n mu[n][m] u[n][qy]
        let mut t = vec![0.0; p * p];
        for m in 0..p {
            for n in 0..p {
                let munm = self.mu[n * p + m];
                if munm == 0.0 {
                    continue;
                }
                let urow = &u[n * p..(n + 1) * p];
                let trow = &mut t[m * p..(m + 1) * p];
                for qy in 0..p {
                    trow[qy] += munm * urow[qy];
                }
            }
        }
        self.panel_list
            .iter()
            .map(|&q| {
                let (qx, qy) = ((q as usize) % p, (q as usize) / p);
                let mut acc = 0.0;
                for m in 0..p {
                    acc += u[m * p + qx] * t[m * p + qy];
                }
                acc
            })
            .collect()
    }

    /// Solves for the panel currents given contact voltages.
    ///
    /// # Panics
    ///
    /// Panics if `contact_voltages.len() != n_contacts`.
    pub fn solve_panels(&self, contact_voltages: &[f64]) -> Vec<f64> {
        let mut sc = EigenScratch::default();
        let result = self.solve_panels_with(contact_voltages, &mut sc);
        if !result.converged {
            trace::add(trace::Counter::SolvesFailed, 1);
            eprintln!(
                "warning: eigen solve_panels did not converge (relres {:.3e} after {} \
                 iterations including retry); returning best-effort panel currents",
                result.relative_residual, result.iterations
            );
        }
        sc.x
    }

    /// [`solve_panels`](Self::solve_panels) into caller-provided reusable
    /// state (solution lands in `sc.x`) — the batch path hoists one
    /// [`EigenScratch`] per worker so a `k`-column batch sets up
    /// `O(threads)` times instead of `k` times. Every buffer is fully
    /// overwritten per solve: bit-identical results.
    ///
    /// A solve that misses tolerance within `max_iter` is retried exactly
    /// once, warm-started from the partial solution, with 4x the budget;
    /// the returned [`CgResult`] aggregates both attempts (total
    /// iterations, final convergence state and residual).
    fn solve_panels_with(&self, contact_voltages: &[f64], sc: &mut EigenScratch) -> CgResult {
        assert_eq!(contact_voltages.len(), self.n_contacts, "voltage vector length mismatch");
        let np = self.panel_list.len();
        sc.rhs.clear();
        sc.rhs.extend(self.panel_owner.iter().map(|&o| contact_voltages[o as usize]));
        sc.x.clear();
        sc.x.resize(np, 0.0);
        sc.grid.get_mut().resize(self.p * self.p, 0.0);
        let EigenScratch { rhs, x, grid, dct, cg } = sc;
        let (rhs, grid, dct) = (&*rhs, &*grid, &*dct);
        let op = RestrictedOp { solver: self, grid, dct };
        let run = |budget: usize, x: &mut [f64], cg: &mut CgScratch| {
            if self.cfg.jacobi {
                let pre = JacobiOp { diag: &self.diag };
                pcg_with(&op, &pre, rhs, x, self.cfg.tol, budget, cg)
            } else {
                let id = IdentityPrecond::new(np);
                pcg_with(&op, &id, rhs, x, self.cfg.tol, budget, cg)
            }
        };
        let mut result = run(self.cfg.max_iter, x, cg);
        let mut total_iters = result.iterations;
        self.solves.fetch_add(1, Ordering::Relaxed);
        if !result.converged {
            trace::add(trace::Counter::SolveRetries, 1);
            result = run(self.cfg.max_iter * crate::solver::RETRY_BUDGET_FACTOR, x, cg);
            total_iters += result.iterations;
        }
        self.iterations.fetch_add(total_iters, Ordering::Relaxed);
        CgResult {
            iterations: total_iters,
            converged: result.converged,
            relative_residual: result.relative_residual,
        }
    }
}

/// Reusable per-worker state for the eigenfunction solver's CG solves:
/// the panel RHS, panel solution, the `P x P` operator grid, and the CG
/// work vectors.
#[derive(Debug, Default)]
struct EigenScratch {
    rhs: Vec<f64>,
    x: Vec<f64>,
    grid: RefCell<Vec<f64>>,
    dct: RefCell<Dct2dScratch>,
    cg: CgScratch,
}

struct RestrictedOp<'a> {
    solver: &'a EigenSolver,
    grid: &'a RefCell<Vec<f64>>,
    dct: &'a RefCell<Dct2dScratch>,
}

impl LinOp for RestrictedOp<'_> {
    fn dim(&self) -> usize {
        self.solver.panel_list.len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut grid = self.grid.borrow_mut();
        grid.fill(0.0);
        for (k, &q) in self.solver.panel_list.iter().enumerate() {
            grid[q as usize] = x[k];
        }
        self.solver.apply_current_to_potential_with(&mut grid, &mut self.dct.borrow_mut());
        for (k, &q) in self.solver.panel_list.iter().enumerate() {
            y[k] = grid[q as usize];
        }
    }
}

struct JacobiOp<'a> {
    diag: &'a [f64],
}

impl LinOp for JacobiOp<'_> {
    fn dim(&self) -> usize {
        self.diag.len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..x.len() {
            y[i] = x[i] / self.diag[i];
        }
    }
}

impl EigenSolver {
    /// One CG solve plus the panel-to-contact accumulation — the shared
    /// core of [`SubstrateSolver::solve`] and the threaded
    /// [`SubstrateSolver::solve_batch`]. The mode multipliers, DCT plans,
    /// and Jacobi diagonal are built once and only read here; each worker
    /// owns its [`EigenScratch`], so concurrent columns never share
    /// mutable state.
    fn solve_contacts_one(
        &self,
        contact_voltages: &[f64],
        currents: &mut [f64],
        sc: &mut EigenScratch,
    ) -> Result<(), SolverError> {
        let result = self.solve_panels_with(contact_voltages, sc);
        currents.fill(0.0);
        for (k, &o) in self.panel_owner.iter().enumerate() {
            currents[o as usize] += sc.x[k];
        }
        if !result.converged {
            return Err(SolverError::NotConverged {
                relres: result.relative_residual,
                iters: result.iterations,
            });
        }
        if let Some(entry) = currents.iter().position(|c| !c.is_finite()) {
            return Err(SolverError::NonFinite { entry });
        }
        Ok(())
    }

    /// The shared batch core: every column is solved (best effort); the
    /// lowest failing column, if any, is reported alongside the matrix.
    fn solve_batch_impl(
        &self,
        voltages: &subsparse_linalg::Mat,
    ) -> (subsparse_linalg::Mat, Option<crate::solver::ColumnFailure>) {
        assert_eq!(voltages.n_rows(), self.n_contacts, "voltage block row mismatch");
        let _t = crate::solver::SolveTrace::begin("solve_batch.eigen", voltages.n_cols());
        crate::solver::solve_columns_threaded_with(
            voltages,
            self.n_contacts,
            self.cfg.threads,
            EigenScratch::default,
            |v, out, sc| self.solve_contacts_one(v, out, sc),
        )
    }
}

impl SubstrateSolver for EigenSolver {
    fn n_contacts(&self) -> usize {
        self.n_contacts
    }

    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        let _t = crate::solver::SolveTrace::begin("solve.eigen", 1);
        let mut currents = vec![0.0; self.n_contacts];
        if let Err(e) =
            self.solve_contacts_one(contact_voltages, &mut currents, &mut EigenScratch::default())
        {
            trace::add(trace::Counter::SolvesFailed, 1);
            eprintln!(
                "warning: eigen solve: {e}; returning best-effort currents \
                 (use try_solve for a typed error)"
            );
        }
        currents
    }

    fn solve_batch(&self, voltages: &subsparse_linalg::Mat) -> subsparse_linalg::Mat {
        let (out, fail) = self.solve_batch_impl(voltages);
        crate::solver::warn_batch_failure("eigen", fail, out)
    }

    fn try_solve(&self, contact_voltages: &[f64]) -> Result<Vec<f64>, SolverError> {
        let _t = crate::solver::SolveTrace::begin("solve.eigen", 1);
        let mut currents = vec![0.0; self.n_contacts];
        match self.solve_contacts_one(contact_voltages, &mut currents, &mut EigenScratch::default())
        {
            Ok(()) => Ok(currents),
            Err(e) => {
                trace::add(trace::Counter::SolvesFailed, 1);
                Err(e)
            }
        }
    }

    fn try_solve_batch(
        &self,
        voltages: &subsparse_linalg::Mat,
    ) -> Result<subsparse_linalg::Mat, SolverError> {
        let (out, fail) = self.solve_batch_impl(voltages);
        match fail {
            None => Ok(out),
            Some(f) => {
                trace::add(trace::Counter::SolvesFailed, 1);
                Err(f.error)
            }
        }
    }
}

impl crate::solver::HasSolveStats for EigenSolver {
    fn solve_stats(&self) -> crate::solver::SolveStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::extract_dense;
    use subsparse_layout::generators;

    fn small_solver() -> EigenSolver {
        let layout = generators::regular_grid(128.0, 4, 16.0);
        EigenSolver::new(
            &Substrate::thesis_standard(),
            &layout,
            EigenSolverConfig { panels: 32, tol: 1e-10, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn operator_is_symmetric() {
        let s = small_solver();
        let grid = RefCell::new(vec![0.0; 32 * 32]);
        let dct = RefCell::new(Dct2dScratch::default());
        let op = RestrictedOp { solver: &s, grid: &grid, dct: &dct };
        let n = op.dim();
        // probe a few (i, j) pairs: e_i' A e_j == e_j' A e_i
        let mut x = vec![0.0; n];
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        for (i, j) in [(0, 1), (3, n - 1), (n / 2, n / 3)] {
            x.fill(0.0);
            x[i] = 1.0;
            op.apply(&x, &mut y1);
            x.fill(0.0);
            x[j] = 1.0;
            op.apply(&x, &mut y2);
            assert!((y1[j] - y2[i]).abs() <= 1e-12 * y1[j].abs().max(1e-30), "A not symmetric");
        }
    }

    #[test]
    fn g_matrix_properties() {
        // thesis §2.4: G symmetric, diagonally dominant, positive diagonal,
        // negative off-diagonals; strict dominance with a grounded path.
        let s = small_solver();
        let g = extract_dense(&s);
        let n = g.n_rows();
        for i in 0..n {
            assert!(g[(i, i)] > 0.0, "diagonal must be positive");
            let mut off = 0.0;
            for j in 0..n {
                if i != j {
                    assert!(g[(i, j)] < 0.0, "off-diagonals must be negative");
                    assert!(
                        (g[(i, j)] - g[(j, i)]).abs() < 1e-6 * g[(i, i)],
                        "G must be symmetric"
                    );
                    off += g[(i, j)].abs();
                }
            }
            assert!(g[(i, i)] > off, "G must be strictly diagonally dominant (grounded)");
        }
    }

    #[test]
    fn distance_dependence() {
        // coupling decays with contact separation
        let s = small_solver();
        let g = extract_dense(&s);
        // contact 0 at corner; contact 1 adjacent; contact 3 far end of row
        assert!(g[(1, 0)].abs() > g[(3, 0)].abs());
    }

    #[test]
    fn current_conservation_mostly_through_backplane() {
        // with 1V on one contact and others grounded, the driven current
        // splits between other contacts and the backplane; all currents sum
        // to the backplane current (nonzero here).
        let s = small_solver();
        let mut v = vec![0.0; 16];
        v[5] = 1.0;
        let i = s.solve(&v);
        assert!(i[5] > 0.0);
        for (k, &ik) in i.iter().enumerate() {
            if k != 5 {
                assert!(ik < 0.0, "grounded contacts sink current");
            }
        }
    }

    #[test]
    fn rejects_floating_backplane() {
        let layout = generators::regular_grid(64.0, 2, 8.0);
        let sub = Substrate::uniform(10.0, 1.0, crate::Backplane::Floating);
        let err = EigenSolver::new(&sub, &layout, EigenSolverConfig::default()).unwrap_err();
        assert_eq!(err, SolverError::FloatingBackplaneUnsupported);
    }

    #[test]
    fn rejects_unresolved_contact() {
        let mut layout = subsparse_layout::Layout::new(128.0, 128.0);
        layout
            .push(subsparse_layout::Contact::rect(subsparse_layout::Rect::new(0.0, 0.0, 0.1, 0.1)));
        let err = EigenSolver::new(
            &Substrate::thesis_standard(),
            &layout,
            EigenSolverConfig { panels: 32, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, SolverError::ContactUnresolved { contact: 0 });
    }

    #[test]
    fn jacobi_does_not_change_answer() {
        let layout = generators::regular_grid(128.0, 4, 16.0);
        let sub = Substrate::thesis_standard();
        let cfg = EigenSolverConfig { panels: 32, tol: 1e-11, ..Default::default() };
        let s1 = EigenSolver::new(&sub, &layout, cfg).unwrap();
        let s2 =
            EigenSolver::new(&sub, &layout, EigenSolverConfig { jacobi: false, ..cfg }).unwrap();
        let mut v = vec![0.0; 16];
        v[0] = 1.0;
        v[7] = -0.5;
        let i1 = s1.solve(&v);
        let i2 = s2.solve(&v);
        for (a, b) in i1.iter().zip(&i2) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
    }
}
