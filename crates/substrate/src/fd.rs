//! Finite-difference "grid of resistors" substrate solver (thesis §2.2).
//!
//! Poisson's equation is discretized on a regular 3-D grid of nodes, one
//! per cell center, giving the resistor network of thesis Fig 2-1:
//!
//! * in-plane resistors with conductance `sigma(z) * (hy hz) / hx` (and the
//!   y analog),
//! * vertical resistors that cross layer boundaries computed as series
//!   resistances (Fig 2-2),
//! * Neumann sidewalls by simply omitting resistors (Fig 2-3),
//! * Dirichlet contact nodes placed either just *outside* the surface
//!   (method 1 of Fig 2-4) or half a spacing *inside* it (method 2, the
//!   thesis's conservative choice and our default),
//! * an optional grounded backplane as a Dirichlet plane at the bottom.
//!
//! The SPD system is solved per black-box call with preconditioned
//! conjugate gradient; preconditioners are none, incomplete Cholesky
//! ([`FdPrecond::IncompleteCholesky`], the thesis's "cheap but not very
//! effective" baseline), or the fast-Poisson solver ([`FdPrecond::FastPoisson`])
//! that diagonalizes the x/y directions with DCTs and solves a tridiagonal
//! system in z per mode — with the pure-Dirichlet, pure-Neumann, or
//! area-weighted uniform top boundary condition of Table 2.1.

use crate::solver::{HasSolveStats, PcgBackend, PcgCore, SolveStats, SubstrateSolver};
use crate::{Backplane, SolverError, Substrate};
use std::cell::RefCell;
use subsparse_layout::Layout;
use subsparse_linalg::cg::{pcg_with, CgResult, CgScratch, IdentityPrecond, LinOp};
use subsparse_linalg::dct::{Dct, Dct2dScratch};
use subsparse_linalg::{tridiag, Mat};

/// Where the Dirichlet (contact) nodes sit relative to the top surface
/// (thesis Fig 2-4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DirichletPlacement {
    /// Method 1: fictitious contact nodes half a spacing *above* the
    /// surface; every grid node remains an unknown. Better sparsification
    /// behaviour per the thesis, but less conservative.
    OutsideSurface,
    /// Method 2 (default): top-plane nodes under contacts are pinned to the
    /// contact voltage and eliminated. The thesis uses this for results.
    #[default]
    InsideSurface,
}

/// Uniform top boundary condition used to *build the preconditioner*
/// (thesis Table 2.1). The actual system always has the mixed BC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopBc {
    /// Pretend every top node is a Dirichlet (contact) node.
    Dirichlet,
    /// Pretend every top node is a Neumann (bare surface) node.
    Neumann,
    /// Weight the Dirichlet coupling by the contact area fraction.
    AreaWeighted,
}

/// Preconditioner selection for the FD solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FdPrecond {
    /// Plain CG.
    None,
    /// Incomplete Cholesky (diagonal variant, zero fill-in).
    IncompleteCholesky,
    /// DCT-based fast Poisson solver with the given uniform top BC.
    FastPoisson(TopBc),
    /// Galerkin-aggregation multigrid V-cycle with the given number of
    /// pre/post smoothing sweeps (the extension the thesis points to in
    /// §2.2.2; handles layer boundaries by summing conductances).
    Multigrid {
        /// Weighted-Jacobi sweeps before and after each coarse correction.
        smooth: usize,
    },
}

/// Configuration for [`FdSolver`].
#[derive(Clone, Copy, Debug)]
pub struct FdSolverConfig {
    /// Grid nodes in x (power of two required for [`FdPrecond::FastPoisson`]).
    pub nx: usize,
    /// Grid nodes in y (power of two required for [`FdPrecond::FastPoisson`]).
    pub ny: usize,
    /// Target grid planes in z. The actual grid is *layer-resolving*: every
    /// layer receives at least [`min_planes_per_layer`](Self::min_planes_per_layer)
    /// planes (uniform within a layer), so thin epi layers are never
    /// smeared into the bulk.
    pub nz: usize,
    /// Minimum z planes per layer (default 2).
    pub min_planes_per_layer: usize,
    /// Dirichlet contact-node placement.
    pub placement: DirichletPlacement,
    /// Preconditioner.
    pub precond: FdPrecond,
    /// PCG relative-residual tolerance.
    pub tol: f64,
    /// PCG iteration cap.
    pub max_iter: usize,
    /// Worker threads for [`SubstrateSolver::solve_batch`] (0 = one per
    /// available CPU). Each column runs the identical serial PCG, so the
    /// results are bit-equal for every thread count; 1 disables threading.
    pub threads: usize,
}

impl Default for FdSolverConfig {
    fn default() -> Self {
        FdSolverConfig {
            nx: 64,
            ny: 64,
            nz: 20,
            min_planes_per_layer: 2,
            placement: DirichletPlacement::InsideSurface,
            precond: FdPrecond::FastPoisson(TopBc::AreaWeighted),
            tol: 1e-8,
            max_iter: 5000,
            threads: 1,
        }
    }
}

/// Builds layer-resolving z cell boundaries: each layer is divided
/// uniformly into `max(min_per_layer, round(nz_target * thickness / depth))`
/// cells.
fn z_cell_bounds(substrate: &Substrate, nz_target: usize, min_per_layer: usize) -> Vec<f64> {
    let depth = substrate.depth();
    let mut bounds = vec![0.0];
    let mut top = 0.0;
    for layer in substrate.layers() {
        let want = (nz_target as f64 * layer.thickness / depth).round() as usize;
        let k = want.max(min_per_layer).max(1);
        for i in 1..=k {
            bounds.push(top + layer.thickness * i as f64 / k as f64);
        }
        top += layer.thickness;
    }
    bounds
}

/// The finite-difference substrate solver.
///
/// # Example
///
/// ```
/// use subsparse_layout::generators;
/// use subsparse_substrate::{FdSolver, FdSolverConfig, Substrate, SubstrateSolver};
///
/// let layout = generators::regular_grid(128.0, 2, 32.0);
/// let cfg = FdSolverConfig { nx: 16, ny: 16, nz: 8, ..Default::default() };
/// let solver = FdSolver::new(&Substrate::thesis_standard(), &layout, cfg)?;
/// let i = solver.solve(&[1.0, 0.0, 0.0, 0.0]);
/// assert!(i[0] > 0.0 && i[1] < 0.0);
/// # Ok::<(), subsparse_substrate::SolverError>(())
/// ```
#[derive(Debug)]
pub struct FdSolver {
    nx: usize,
    ny: usize,
    nz: usize,
    /// conductance to the +x neighbor (0 on the x-boundary), length n
    gx: Vec<f64>,
    /// conductance to the +y neighbor
    gy: Vec<f64>,
    /// conductance to the +z (downward) neighbor
    gz: Vec<f64>,
    /// assembled diagonal; 1.0 for pinned nodes
    diag: Vec<f64>,
    /// method-2 pinned top nodes
    pinned: Vec<bool>,
    /// top-plane node indices per contact
    contact_nodes: Vec<Vec<u32>>,
    /// contact owning each pinned top node (u32::MAX if none)
    node_contact: Vec<u32>,
    /// method-1 coupling conductance to the fictitious contact node
    g_top: f64,
    placement: DirichletPlacement,
    precond: PrecondData,
    cfg: FdSolverConfig,
    core: PcgCore,
}

#[derive(Debug)]
enum PrecondData {
    None,
    Dic(Vec<f64>),
    Fast(Box<FastPoisson>),
    Mg(Box<crate::multigrid::Multigrid>),
}

impl FdSolver {
    /// Builds the solver for a substrate and layout.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout is invalid, a contact covers no grid
    /// cell, two contacts share a cell, or the fast-Poisson preconditioner
    /// is requested with non-power-of-two `nx`/`ny`.
    pub fn new(
        substrate: &Substrate,
        layout: &Layout,
        cfg: FdSolverConfig,
    ) -> Result<Self, SolverError> {
        layout.validate()?;
        let (a, b) = layout.extent();
        let (nx, ny) = (cfg.nx, cfg.ny);
        let bounds = z_cell_bounds(substrate, cfg.nz, cfg.min_planes_per_layer.max(1));
        let nz = bounds.len() - 1;
        let dz: Vec<f64> = (0..nz).map(|i| bounds[i + 1] - bounds[i]).collect();
        let zc: Vec<f64> = (0..nz).map(|i| 0.5 * (bounds[i] + bounds[i + 1])).collect();
        let n = nx * ny * nz;
        let hx = a / nx as f64;
        let hy = b / ny as f64;
        let d = substrate.depth();
        if let FdPrecond::FastPoisson(_) = cfg.precond {
            if !nx.is_power_of_two() {
                return Err(SolverError::NotPowerOfTwo { value: nx });
            }
            if !ny.is_power_of_two() {
                return Err(SolverError::NotPowerOfTwo { value: ny });
            }
        }

        // contact cells on the top plane
        let cells = layout.cell_indices(nx, ny);
        let mut node_contact = vec![u32::MAX; nx * ny];
        let mut contact_nodes = vec![Vec::new(); layout.n_contacts()];
        for (ci, cs) in cells.iter().enumerate() {
            if cs.is_empty() {
                return Err(SolverError::ContactUnresolved { contact: ci });
            }
            for &q in cs {
                if node_contact[q as usize] != u32::MAX {
                    return Err(SolverError::CellConflict { cell: q as usize });
                }
                node_contact[q as usize] = ci as u32;
                contact_nodes[ci].push(q);
            }
        }

        // conductances
        let sigma_plane: Vec<f64> = (0..nz).map(|iz| substrate.conductivity_at(zc[iz])).collect();
        let gxp: Vec<f64> = (0..nz).map(|iz| sigma_plane[iz] * hy * dz[iz] / hx).collect();
        let gyp: Vec<f64> = (0..nz).map(|iz| sigma_plane[iz] * hx * dz[iz] / hy).collect();
        let gz_plane: Vec<f64> = (0..nz.saturating_sub(1))
            .map(|iz| hx * hy / substrate.resistivity_integral(zc[iz], zc[iz + 1]))
            .collect();
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let idx = (iz * ny + iy) * nx + ix;
                    if ix + 1 < nx {
                        gx[idx] = gxp[iz];
                    }
                    if iy + 1 < ny {
                        gy[idx] = gyp[iz];
                    }
                    if iz + 1 < nz {
                        gz[idx] = gz_plane[iz];
                    }
                }
            }
        }

        // extras
        let sigma_top = substrate.conductivity_at(0.0);
        let g_top = sigma_top * hx * hy / dz[0];
        let g_bp = match substrate.backplane() {
            Backplane::Grounded => hx * hy / substrate.resistivity_integral(zc[nz - 1], d),
            Backplane::Floating => 0.0,
        };

        // pinned mask (method 2)
        let mut pinned = vec![false; n];
        if cfg.placement == DirichletPlacement::InsideSurface {
            for (q, &c) in node_contact.iter().enumerate() {
                if c != u32::MAX {
                    pinned[q] = true; // top plane is iz == 0, idx == q
                }
            }
        }

        // diagonal assembly
        let mut diag = vec![0.0; n];
        let nxy = nx * ny;
        for idx in 0..n {
            let mut dsum = 0.0;
            let ix = idx % nx;
            let iy = (idx / nx) % ny;
            let iz = idx / nxy;
            if ix + 1 < nx {
                dsum += gx[idx];
            }
            if ix > 0 {
                dsum += gx[idx - 1];
            }
            if iy + 1 < ny {
                dsum += gy[idx];
            }
            if iy > 0 {
                dsum += gy[idx - nx];
            }
            if iz + 1 < nz {
                dsum += gz[idx];
            }
            if iz > 0 {
                dsum += gz[idx - nxy];
            }
            if iz == nz - 1 {
                dsum += g_bp;
            }
            if iz == 0
                && cfg.placement == DirichletPlacement::OutsideSurface
                && node_contact[idx] != u32::MAX
            {
                dsum += g_top;
            }
            diag[idx] = if pinned[idx] { 1.0 } else { dsum };
        }

        // preconditioner
        let precond = match cfg.precond {
            FdPrecond::None => PrecondData::None,
            FdPrecond::IncompleteCholesky => {
                PrecondData::Dic(build_dic(nx, ny, nz, &gx, &gy, &gz, &diag, &pinned))
            }
            FdPrecond::FastPoisson(top_bc) => {
                let p = match top_bc {
                    TopBc::Dirichlet => 1.0,
                    TopBc::Neumann => 0.0,
                    TopBc::AreaWeighted => layout.contact_area_fraction(),
                };
                PrecondData::Fast(Box::new(FastPoisson::new(
                    nx,
                    ny,
                    nz,
                    &gxp,
                    &gyp,
                    &gz_plane,
                    p * g_top,
                    g_bp,
                )))
            }
            FdPrecond::Multigrid { smooth } => PrecondData::Mg(Box::new(
                crate::multigrid::Multigrid::new(nx, ny, nz, &gx, &gy, &gz, &diag, &pinned, smooth),
            )),
        };

        Ok(FdSolver {
            nx,
            ny,
            nz,
            gx,
            gy,
            gz,
            diag,
            pinned,
            contact_nodes,
            node_contact,
            g_top,
            placement: cfg.placement,
            precond,
            cfg,
            core: PcgCore::new(layout.n_contacts(), cfg.max_iter, cfg.threads),
        })
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn grid(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Cumulative solve statistics.
    pub fn stats(&self) -> SolveStats {
        self.core.stats()
    }

    fn n_nodes(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Builds the PCG right-hand side for the given contact voltages into
    /// a caller-owned buffer (resized and zeroed here).
    fn build_rhs_into(&self, v: &[f64], b: &mut Vec<f64>) {
        b.clear();
        b.resize(self.n_nodes(), 0.0);
        let nxy = self.nx * self.ny;
        match self.placement {
            DirichletPlacement::OutsideSurface => {
                for (ci, nodes) in self.contact_nodes.iter().enumerate() {
                    for &q in nodes {
                        b[q as usize] += self.g_top * v[ci];
                    }
                }
            }
            DirichletPlacement::InsideSurface => {
                for (ci, nodes) in self.contact_nodes.iter().enumerate() {
                    let vc = v[ci];
                    for &q in nodes {
                        let idx = q as usize;
                        let ix = idx % self.nx;
                        let iy = idx / self.nx;
                        // couple the pinned node's value into unpinned neighbors
                        if ix + 1 < self.nx && !self.pinned[idx + 1] {
                            b[idx + 1] += self.gx[idx] * vc;
                        }
                        if ix > 0 && !self.pinned[idx - 1] {
                            b[idx - 1] += self.gx[idx - 1] * vc;
                        }
                        if iy + 1 < self.ny && !self.pinned[idx + self.nx] {
                            b[idx + self.nx] += self.gy[idx] * vc;
                        }
                        if iy > 0 && !self.pinned[idx - self.nx] {
                            b[idx - self.nx] += self.gy[idx - self.nx] * vc;
                        }
                        // node below is never pinned
                        b[idx + nxy] += self.gz[idx] * vc;
                    }
                }
            }
        }
    }

    /// Computes contact currents from the interior solution.
    fn contact_currents_into(&self, v: &[f64], sol: &[f64], currents: &mut [f64]) {
        let nxy = self.nx * self.ny;
        currents.fill(0.0);
        match self.placement {
            DirichletPlacement::OutsideSurface => {
                for (ci, nodes) in self.contact_nodes.iter().enumerate() {
                    let mut acc = 0.0;
                    for &q in nodes {
                        acc += self.g_top * (v[ci] - sol[q as usize]);
                    }
                    currents[ci] = acc;
                }
            }
            DirichletPlacement::InsideSurface => {
                for (ci, nodes) in self.contact_nodes.iter().enumerate() {
                    let vc = v[ci];
                    let mut acc = 0.0;
                    for &q in nodes {
                        let idx = q as usize;
                        let ix = idx % self.nx;
                        let iy = idx / self.nx;
                        let val = |j: usize| -> f64 {
                            if self.pinned[j] {
                                v[self.node_contact[j] as usize]
                            } else {
                                sol[j]
                            }
                        };
                        if ix + 1 < self.nx {
                            acc += self.gx[idx] * (vc - val(idx + 1));
                        }
                        if ix > 0 {
                            acc += self.gx[idx - 1] * (vc - val(idx - 1));
                        }
                        if iy + 1 < self.ny {
                            acc += self.gy[idx] * (vc - val(idx + self.nx));
                        }
                        if iy > 0 {
                            acc += self.gy[idx - self.nx] * (vc - val(idx - self.nx));
                        }
                        acc += self.gz[idx] * (vc - sol[idx + nxy]);
                    }
                    currents[ci] = acc;
                }
            }
        }
    }
}

/// Reusable per-worker state for the FD solver's PCG solves: the RHS and
/// solution node vectors, the PCG work vectors, and the fast-Poisson
/// preconditioner scratch. One of these lives per batch worker (hoisted
/// out of the column loop), so a `k`-column batch performs per-column
/// setup `O(threads)` times instead of `k` times. Every buffer is fully
/// overwritten per solve, so results are bit-identical to fresh state.
#[derive(Debug, Default)]
pub(crate) struct FdScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    cg: CgScratch,
    fp: RefCell<FpScratch>,
}

impl PcgBackend for FdSolver {
    const NAME: &'static str = "fd";
    const SPANS: [&'static str; 2] = ["solve.fd", "solve_batch.fd"];
    type Scratch = FdScratch;

    fn load(&self, v: &[f64], sc: &mut FdScratch) {
        self.build_rhs_into(v, &mut sc.b);
        sc.x.clear();
        sc.x.resize(self.n_nodes(), 0.0);
    }

    fn attempt(&self, budget: usize, sc: &mut FdScratch) -> CgResult {
        let FdScratch { b, x, cg, fp } = sc;
        let op = GridOp { s: self };
        match &self.precond {
            PrecondData::None => {
                let id = IdentityPrecond::new(self.n_nodes());
                pcg_with(&op, &id, b, x, self.cfg.tol, budget, cg)
            }
            PrecondData::Dic(dhat) => {
                let pre = DicOp { s: self, dhat };
                pcg_with(&op, &pre, b, x, self.cfg.tol, budget, cg)
            }
            PrecondData::Fast(fpd) => {
                let pre = FastOp { fp: fpd, pinned: &self.pinned, scratch: fp };
                pcg_with(&op, &pre, b, x, self.cfg.tol, budget, cg)
            }
            PrecondData::Mg(mg) => {
                let pre = MgOp { mg, n: self.n_nodes() };
                pcg_with(&op, &pre, b, x, self.cfg.tol, budget, cg)
            }
        }
    }

    fn currents(&self, v: &[f64], sc: &FdScratch, out: &mut [f64]) {
        self.contact_currents_into(v, &sc.x, out);
    }
}

impl SubstrateSolver for FdSolver {
    fn n_contacts(&self) -> usize {
        self.core.n_contacts()
    }
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        self.core.solve(self, contact_voltages)
    }
    fn solve_batch(&self, voltages: &Mat) -> Mat {
        self.core.solve_batch(self, voltages)
    }
    fn try_solve(&self, contact_voltages: &[f64]) -> Result<Vec<f64>, SolverError> {
        self.core.try_solve(self, contact_voltages)
    }
    fn try_solve_batch(&self, voltages: &Mat) -> Result<Mat, SolverError> {
        self.core.try_solve_batch(self, voltages)
    }
}

impl HasSolveStats for FdSolver {
    fn solve_stats(&self) -> SolveStats {
        self.stats()
    }
}

struct GridOp<'a> {
    s: &'a FdSolver,
}

impl LinOp for GridOp<'_> {
    fn dim(&self) -> usize {
        self.s.n_nodes()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let s = self.s;
        let (nx, nxy, n) = (s.nx, s.nx * s.ny, s.n_nodes());
        for i in 0..n {
            y[i] = s.diag[i] * x[i];
        }
        // x-direction couplings: gx[i] connects i and i+1 (0 on boundary)
        for i in 0..n - 1 {
            let g = s.gx[i];
            if g != 0.0 {
                y[i] -= g * x[i + 1];
                y[i + 1] -= g * x[i];
            }
        }
        for i in 0..n - nx {
            let g = s.gy[i];
            if g != 0.0 {
                y[i] -= g * x[i + nx];
                y[i + nx] -= g * x[i];
            }
        }
        for i in 0..n - nxy {
            let g = s.gz[i];
            if g != 0.0 {
                y[i] -= g * x[i + nxy];
                y[i + nxy] -= g * x[i];
            }
        }
        // pinned rows act as identity; Krylov vectors keep them at zero
        for i in 0..n {
            if s.pinned[i] {
                y[i] = x[i];
            }
        }
    }
}

/// Diagonal incomplete-Cholesky data: the modified diagonal `dhat`.
#[allow(clippy::too_many_arguments)] // mirrors the 3-D grid's axis data
fn build_dic(
    nx: usize,
    ny: usize,
    nz: usize,
    gx: &[f64],
    gy: &[f64],
    gz: &[f64],
    diag: &[f64],
    pinned: &[bool],
) -> Vec<f64> {
    let n = nx * ny * nz;
    let nxy = nx * ny;
    let mut dhat = vec![1.0; n];
    for i in 0..n {
        if pinned[i] {
            continue;
        }
        let mut d = diag[i];
        let ix = i % nx;
        let iy = (i / nx) % ny;
        let iz = i / nxy;
        if ix > 0 && !pinned[i - 1] {
            d -= gx[i - 1] * gx[i - 1] / dhat[i - 1];
        }
        if iy > 0 && !pinned[i - nx] {
            d -= gy[i - nx] * gy[i - nx] / dhat[i - nx];
        }
        if iz > 0 && !pinned[i - nxy] {
            d -= gz[i - nxy] * gz[i - nxy] / dhat[i - nxy];
        }
        dhat[i] = d.max(1e-300);
    }
    dhat
}

struct MgOp<'a> {
    mg: &'a crate::multigrid::Multigrid,
    n: usize,
}

impl LinOp for MgOp<'_> {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.mg.v_cycle(r, z);
    }
}

struct DicOp<'a> {
    s: &'a FdSolver,
    dhat: &'a [f64],
}

impl LinOp for DicOp<'_> {
    fn dim(&self) -> usize {
        self.s.n_nodes()
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let s = self.s;
        let (nx, ny, nz) = (s.nx, s.ny, s.nz);
        let (nxy, n) = (nx * ny, s.n_nodes());
        // forward solve (Dhat + L) u = r, storing u in z
        for i in 0..n {
            if s.pinned[i] {
                z[i] = 0.0;
                continue;
            }
            let mut acc = r[i];
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / nxy;
            if ix > 0 {
                acc += s.gx[i - 1] * z[i - 1];
            }
            if iy > 0 {
                acc += s.gy[i - nx] * z[i - nx];
            }
            if iz > 0 {
                acc += s.gz[i - nxy] * z[i - nxy];
            }
            z[i] = acc / self.dhat[i];
        }
        // w = Dhat u  (in place)
        for i in 0..n {
            z[i] *= self.dhat[i];
        }
        // backward solve (Dhat + L') z = w
        for i in (0..n).rev() {
            if s.pinned[i] {
                z[i] = 0.0;
                continue;
            }
            let mut acc = z[i];
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / nxy;
            if ix + 1 < nx {
                acc += s.gx[i] * z[i + 1];
            }
            if iy + 1 < ny {
                acc += s.gy[i] * z[i + nx];
            }
            if iz + 1 < nz {
                acc += s.gz[i] * z[i + nxy];
            }
            z[i] = acc / self.dhat[i];
        }
    }
}

/// DCT-diagonalized fast Poisson solver used as a preconditioner
/// (thesis §2.2.2 "Fast-solver preconditioners").
///
/// Each z-plane goes through the lane-batched DCT kernel of
/// [`subsparse_linalg::dct`]: the x pass transforms every row of the
/// plane at once ([`Dct::transform_rows`]), the y pass every column
/// ([`Dct::transform_lanes`], the plane rows being the lanes). The
/// orthonormal `sx`/`sy` scalings sit where the per-row/per-column loops
/// applied them — after each forward pass, before each transpose pass —
/// so every bit matches the one-vector-at-a-time transform.
#[derive(Debug)]
struct FastPoisson {
    nx: usize,
    ny: usize,
    nz: usize,
    dctx: Dct,
    dcty: Dct,
    /// 1-D Neumann Laplacian eigenvalues 2 - 2 cos(pi k / n)
    mu_x: Vec<f64>,
    mu_y: Vec<f64>,
    /// per-plane x/y resistor conductances
    gxp: Vec<f64>,
    gyp: Vec<f64>,
    /// z-direction conductances between planes
    gzp: Vec<f64>,
    /// uniform top/bottom extra diagonal
    top_extra: f64,
    bot_extra: f64,
    /// orthonormal DCT scalings
    sx: Vec<f64>,
    sy: Vec<f64>,
}

#[derive(Debug, Default)]
struct FpScratch {
    zdiag: Vec<f64>,
    zrhs: Vec<f64>,
    zscr: Vec<f64>,
    lower: Vec<f64>,
    dct: Dct2dScratch,
}

impl FastPoisson {
    #[allow(clippy::too_many_arguments)]
    fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        gxp: &[f64],
        gyp: &[f64],
        gz_plane: &[f64],
        top_extra: f64,
        bot_extra: f64,
    ) -> Self {
        let mu =
            |k: usize, n: usize| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
        let gxp = gxp.to_vec();
        let gyp = gyp.to_vec();
        let sx: Vec<f64> = (0..nx)
            .map(|k| if k == 0 { (1.0 / nx as f64).sqrt() } else { (2.0 / nx as f64).sqrt() })
            .collect();
        let sy: Vec<f64> = (0..ny)
            .map(|k| if k == 0 { (1.0 / ny as f64).sqrt() } else { (2.0 / ny as f64).sqrt() })
            .collect();
        FastPoisson {
            nx,
            ny,
            nz,
            dctx: Dct::new(nx),
            dcty: Dct::new(ny),
            mu_x: (0..nx).map(|k| mu(k, nx)).collect(),
            mu_y: (0..ny).map(|k| mu(k, ny)).collect(),
            gxp,
            gyp,
            gzp: gz_plane.to_vec(),
            top_extra,
            bot_extra,
            sx,
            sy,
        }
    }

    /// Applies the inverse of the uniform-BC grid operator: one orthonormal
    /// 2-D DCT per z-plane, a tridiagonal solve in z per (kx, ky) mode, and
    /// the inverse transform.
    ///
    /// The caller owns the scratch (one per PCG solve, not per
    /// preconditioner), which keeps this type free of interior mutability
    /// so concurrent batch solves can share one `FastPoisson`.
    fn apply_inverse(&self, x: &[f64], y: &mut [f64], sc: &mut FpScratch) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let nxy = nx * ny;
        y.copy_from_slice(x);
        sc.zdiag.resize(nz, 0.0);
        sc.zrhs.resize(nz, 0.0);
        sc.zscr.resize(nz, 0.0);
        sc.lower.resize(nz.saturating_sub(1), 0.0);
        for plane in y.chunks_exact_mut(nxy) {
            // forward orthonormal DCT rows (x)
            self.dctx.transform_rows(plane, ny, true, &mut sc.dct);
            self.scale_x(plane);
            // forward orthonormal DCT columns (y): plane rows are the lanes
            self.dcty.transform_lanes(plane, nx, true, &mut sc.dct);
            self.scale_y(plane);
        }
        // per-mode tridiagonal solve in z
        for ky in 0..ny {
            for kx in 0..nx {
                for iz in 0..nz {
                    let mut d = self.gxp[iz] * self.mu_x[kx] + self.gyp[iz] * self.mu_y[ky];
                    if iz > 0 {
                        d += self.gzp[iz - 1];
                    }
                    if iz + 1 < nz {
                        d += self.gzp[iz];
                    }
                    if iz == 0 {
                        d += self.top_extra;
                    }
                    if iz == nz - 1 {
                        d += self.bot_extra;
                    }
                    sc.zdiag[iz] = d;
                    sc.zrhs[iz] = y[iz * nxy + ky * nx + kx];
                }
                // guard the all-Neumann singular mode
                if kx == 0 && ky == 0 && self.top_extra == 0.0 && self.bot_extra == 0.0 {
                    let reg = 1e-10 * self.gzp.iter().fold(1.0_f64, |m, &g| m.max(g));
                    for d in sc.zdiag.iter_mut() {
                        *d += reg;
                    }
                }
                for iz in 0..nz - 1 {
                    sc.lower[iz] = -self.gzp[iz];
                }
                let (lower, zdiag, zrhs, zscr) =
                    (&sc.lower[..], &sc.zdiag[..], &mut sc.zrhs, &mut sc.zscr);
                tridiag::solve_in_place(lower, zdiag, lower, zrhs, zscr);
                for iz in 0..nz {
                    y[iz * nxy + ky * nx + kx] = sc.zrhs[iz];
                }
            }
        }
        // inverse orthonormal transforms
        for plane in y.chunks_exact_mut(nxy) {
            self.scale_y(plane);
            self.dcty.transform_lanes(plane, nx, false, &mut sc.dct);
            self.scale_x(plane);
            self.dctx.transform_rows(plane, ny, false, &mut sc.dct);
        }
    }

    /// Multiplies every x-mode (column) of a plane by its `sx` scaling.
    fn scale_x(&self, plane: &mut [f64]) {
        for row in plane.chunks_exact_mut(self.nx) {
            for (v, s) in row.iter_mut().zip(&self.sx) {
                *v *= s;
            }
        }
    }

    /// Multiplies every y-mode (row) of a plane by its `sy` scaling.
    fn scale_y(&self, plane: &mut [f64]) {
        for (row, s) in plane.chunks_exact_mut(self.nx).zip(&self.sy) {
            row.iter_mut().for_each(|v| *v *= s);
        }
    }
}

struct FastOp<'a> {
    fp: &'a FastPoisson,
    pinned: &'a [bool],
    /// Worker-owned scratch: each batch worker hands its own cell to the
    /// `FastOp`s it constructs, so concurrent columns never share it and
    /// the buffers persist across the worker's solves.
    scratch: &'a RefCell<FpScratch>,
}

impl LinOp for FastOp<'_> {
    fn dim(&self) -> usize {
        self.fp.nx * self.fp.ny * self.fp.nz
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // restriction/extension keeps the preconditioner SPD on the
        // unknown subspace: input pinned entries are zero, and we zero the
        // output pinned entries
        self.fp.apply_inverse(x, y, &mut self.scratch.borrow_mut());
        for (i, &p) in self.pinned.iter().enumerate() {
            if p {
                y[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::extract_dense;
    use crate::Layer;
    use subsparse_layout::generators;

    fn two_contact_layout() -> Layout {
        generators::regular_grid(128.0, 2, 32.0)
    }

    fn config(precond: FdPrecond) -> FdSolverConfig {
        FdSolverConfig { nx: 16, ny: 16, nz: 10, precond, tol: 1e-9, ..Default::default() }
    }

    #[test]
    fn single_contact_spreading_resistance_positive() {
        let mut layout = Layout::new(128.0, 128.0);
        layout.push(subsparse_layout::Contact::rect(subsparse_layout::Rect::new(
            48.0, 48.0, 80.0, 80.0,
        )));
        let sub = Substrate::uniform(40.0, 1.0, Backplane::Grounded);
        let s = FdSolver::new(&sub, &layout, config(FdPrecond::FastPoisson(TopBc::AreaWeighted)))
            .unwrap();
        let i = s.solve(&[1.0]);
        assert!(i[0] > 0.0);
        // resistance should be on the order of d / (sigma A) as a sanity band
        let r = 1.0 / i[0];
        assert!(r > 0.005 && r < 5.0, "spreading resistance {r} out of band");
    }

    #[test]
    fn g_properties_all_preconditioners_agree() {
        let layout = two_contact_layout();
        let sub = Substrate::thesis_standard();
        let mut gs = Vec::new();
        for pc in [
            FdPrecond::None,
            FdPrecond::IncompleteCholesky,
            FdPrecond::FastPoisson(TopBc::Dirichlet),
            FdPrecond::FastPoisson(TopBc::Neumann),
            FdPrecond::FastPoisson(TopBc::AreaWeighted),
            FdPrecond::Multigrid { smooth: 2 },
        ] {
            let s = FdSolver::new(&sub, &layout, config(pc)).unwrap();
            gs.push(extract_dense(&s));
        }
        let g0 = &gs[0];
        for g in &gs[1..] {
            for i in 0..4 {
                for j in 0..4 {
                    assert!(
                        (g[(i, j)] - g0[(i, j)]).abs() < 1e-4 * g0[(i, i)].abs(),
                        "preconditioners disagree at ({i},{j})"
                    );
                }
            }
        }
        // thesis §2.4 properties
        for i in 0..4 {
            assert!(g0[(i, i)] > 0.0);
            let mut off = 0.0;
            for j in 0..4 {
                if i != j {
                    assert!(g0[(i, j)] < 0.0);
                    assert!((g0[(i, j)] - g0[(j, i)]).abs() < 1e-5 * g0[(i, i)]);
                    off += g0[(i, j)].abs();
                }
            }
            assert!(g0[(i, i)] > off);
        }
    }

    #[test]
    fn fast_precond_beats_no_precond() {
        let layout = two_contact_layout();
        let sub = Substrate::thesis_standard();
        let none = FdSolver::new(&sub, &layout, config(FdPrecond::None)).unwrap();
        let fast =
            FdSolver::new(&sub, &layout, config(FdPrecond::FastPoisson(TopBc::Neumann))).unwrap();
        let v = [1.0, 0.0, 0.0, 0.0];
        let _ = none.solve(&v);
        let _ = fast.solve(&v);
        let (n_it, f_it) = (none.stats().inner_iterations, fast.stats().inner_iterations);
        assert!(
            f_it * 3 < n_it,
            "fast preconditioner ({f_it} iters) should beat plain CG ({n_it} iters)"
        );
    }

    #[test]
    fn multigrid_precond_beats_no_precond() {
        // the thesis's §2.2.2 multigrid suggestion, implemented: V-cycle
        // preconditioning must cut iteration counts like the fast solver
        let layout = two_contact_layout();
        let sub = Substrate::thesis_standard();
        let none = FdSolver::new(&sub, &layout, config(FdPrecond::None)).unwrap();
        let mg = FdSolver::new(&sub, &layout, config(FdPrecond::Multigrid { smooth: 2 })).unwrap();
        let v = [1.0, 0.0, 0.0, 0.0];
        let _ = none.solve(&v);
        let _ = mg.solve(&v);
        let (n_it, m_it) = (none.stats().inner_iterations, mg.stats().inner_iterations);
        assert!(
            m_it * 3 < n_it,
            "multigrid preconditioner ({m_it} iters) should beat plain CG ({n_it} iters)"
        );
    }

    #[test]
    fn multigrid_handles_layer_boundaries() {
        // a 1000x conductivity contrast straddling the coarse-grid
        // boundary — "the major issue" the thesis flags for multigrid
        let layout = two_contact_layout();
        let sub = Substrate::new(
            vec![Layer::new(0.7, 1.0), Layer::new(39.3, 1000.0)],
            Backplane::Grounded,
        );
        let cfg = FdSolverConfig {
            nx: 32,
            ny: 32,
            nz: 20,
            min_planes_per_layer: 3,
            precond: FdPrecond::Multigrid { smooth: 2 },
            tol: 1e-9,
            ..Default::default()
        };
        let mg = FdSolver::new(&sub, &layout, cfg).unwrap();
        let mut cfg_ref = cfg;
        cfg_ref.precond = FdPrecond::None;
        let reference = FdSolver::new(&sub, &layout, cfg_ref).unwrap();
        let g_mg = extract_dense(&mg);
        let g_ref = extract_dense(&reference);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (g_mg[(i, j)] - g_ref[(i, j)]).abs() < 1e-4 * g_ref[(i, i)],
                    "multigrid-preconditioned solve disagrees at ({i},{j})"
                );
            }
        }
        // and converges in few iterations despite the contrast
        assert!(
            mg.stats().iterations_per_solve() < 40.0,
            "multigrid iterations too high: {}",
            mg.stats().iterations_per_solve()
        );
    }

    #[test]
    fn floating_backplane_rank_deficiency() {
        // thesis §2.4: with no backplane, columns of G sum to ~0
        let layout = two_contact_layout();
        let sub = Substrate::new(
            vec![crate::Layer::new(0.5, 1.0), crate::Layer::new(39.5, 100.0)],
            Backplane::Floating,
        );
        let cfg = FdSolverConfig {
            nx: 16,
            ny: 16,
            nz: 10,
            precond: FdPrecond::FastPoisson(TopBc::AreaWeighted),
            tol: 1e-10,
            ..Default::default()
        };
        let s = FdSolver::new(&sub, &layout, cfg).unwrap();
        let g = extract_dense(&s);
        for j in 0..4 {
            let col_sum: f64 = (0..4).map(|i| g[(i, j)]).sum();
            assert!(
                col_sum.abs() < 1e-5 * g[(j, j)],
                "column {j} sums to {col_sum}, expected ~0 (floating backplane)"
            );
        }
    }

    #[test]
    fn placements_converge_under_refinement() {
        // The two Dirichlet placements differ at finite h (thesis §2.2.1:
        // "we found substantial differences in the results") but must
        // approach each other as the grid refines.
        let layout = two_contact_layout();
        let sub = Substrate::thesis_standard();
        let gap = |nx: usize, nz: usize, per_layer: usize| -> f64 {
            let mut cfg = config(FdPrecond::FastPoisson(TopBc::AreaWeighted));
            cfg.nx = nx;
            cfg.ny = nx;
            cfg.nz = nz;
            cfg.min_planes_per_layer = per_layer;
            let s_in = FdSolver::new(&sub, &layout, cfg).unwrap();
            cfg.placement = DirichletPlacement::OutsideSurface;
            let s_out = FdSolver::new(&sub, &layout, cfg).unwrap();
            let g_in = extract_dense(&s_in);
            let g_out = extract_dense(&s_out);
            let mut worst = 0.0_f64;
            for i in 0..4 {
                for j in 0..4 {
                    worst = worst.max((g_in[(i, j)] - g_out[(i, j)]).abs() / g_in[(i, i)]);
                }
            }
            worst
        };
        let coarse = gap(16, 8, 2);
        let fine = gap(32, 16, 4);
        assert!(
            fine < 0.75 * coarse,
            "placement gap should shrink under refinement: coarse {coarse}, fine {fine}"
        );
    }
}
