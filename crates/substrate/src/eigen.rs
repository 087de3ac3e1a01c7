//! Eigenfunction-based surface-variable substrate solver (thesis §2.3).
//!
//! The substrate surface is discretized into `P x P` square panels. The
//! current-to-potential operator `A` is applied in the cosine-mode basis
//! (thesis Fig 2-6): scatter panel currents to the grid, 2-D DCT, scale by
//! the mode eigenvalues, transpose transform, gather panel potentials. The
//! conductance solve `A i = v` restricted to contact panels is done with
//! conjugate gradient, preconditioned by block Jacobi over contacts;
//! contact currents are the sums of panel currents.
//!
//! # The restricted operator, staged in two layouts
//!
//! CG only ever applies `A_cc`, the operator between contact panels, and
//! only the `R` grid rows that hold a contact panel carry input or output
//! (the *occupied rows*, found once in [`EigenSolver::new`]). One apply:
//!
//! 1. scatters the contact currents into a compact `[x][occupied row]`
//!    plane of `P x R` values;
//! 2. transforms along x with `R` lanes, then expands into the `[y][x]`
//!    grid (zero in every unoccupied row);
//! 3. transforms along y with `P` lanes and scales by the mode
//!    multipliers;
//! 4. applies `E'` along y, compacts back to the `R` occupied rows,
//!    applies `E'` along x with `R` lanes, and gathers.
//!
//! Every pass is the lane kernel of [`subsparse_linalg::dct`] run directly
//! on its layout, so an apply does two blocked transposes (the expand and
//! the compact), and the x passes transform `R` rows instead of `P`.
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
//!
//! # The preconditioner's blocks in closed form
//!
//! With `E_{m,q1} E_{m,q2} = 1/2 [cos(m pi (q1+q2+1)/P) + cos(m pi (q1-q2)/P)]`
//! in both directions, every entry of `A` between panels
//! `q1 = (x1, y1)` and `q2 = (x2, y2)` is
//!
//! ```text
//! A(q1, q2) = 1/4 sum_{a in {x1+x2+1, |x1-x2|}} sum_{b in {y1+y2+1, |y1-y2|}} D(a, b),
//! D(a, b)   = sum_mn mu_nm cos(pi m a / P) cos(pi n b / P),   a, b < 2P.
//! ```
//!
//! `D` is one `2P x 2P` table: the real part of a zero-padded `2P`-point
//! DFT of `mu` along `n`, then of that real part along `m`. The diagonal
//! (Jacobi) entries are `A(q, q)`, so one table serves every entry of
//! every block.

use crate::eigenvalues::mode_eigenvalue;
use crate::solver::{HasSolveStats, PcgBackend, PcgCore, SolveStats, SubstrateSolver};
use crate::{SolverError, Substrate};
use std::cell::RefCell;
use subsparse_layout::Layout;
use subsparse_linalg::cg::{pcg_with, CgResult, CgScratch, LinOp};
use subsparse_linalg::chol::Cholesky;
use subsparse_linalg::dct::{Dct, Dct2dScratch};
use subsparse_linalg::fft::Fft;
use subsparse_linalg::Mat;

/// Most panels in one block of the preconditioner. A contact with more
/// panels is split into consecutive chunks of its sorted panel list, each
/// its own block, so the apply runs on a fixed stack buffer. 64 panels
/// keep an 8 x 8-panel contact whole at a 16 KB packed factor.
pub const BLOCK_CAP: usize = 64;

/// Configuration for [`EigenSolver`].
#[derive(Clone, Copy, Debug)]
pub struct EigenSolverConfig {
    /// Panels per side (power of two).
    pub panels: usize,
    /// CG relative-residual tolerance.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iter: usize,
    /// Worker threads for [`SubstrateSolver::solve_batch`] (0 = one per
    /// available CPU). Each column runs the identical serial CG — with its
    /// own 2-D DCT scratch grid — so results are bit-equal for every
    /// thread count; 1 disables threading.
    pub threads: usize,
}

impl Default for EigenSolverConfig {
    fn default() -> Self {
        EigenSolverConfig { panels: 128, tol: 1e-8, max_iter: 4000, threads: 1 }
    }
}

/// The eigenfunction (surface-variable) substrate solver.
///
/// Each CG iteration applies the current-to-potential operator between
/// contact panels — forward DCTs, the mode scaling and transpose DCTs —
/// and that is nearly all of a solve's time. The apply is staged in two
/// layouts (see the [module docs](self)): the x passes run on a compact
/// plane of the `R` occupied grid rows, the y passes on the `P x P`
/// grid, with one blocked transpose between them in each direction. Every
/// pass runs the lane-batched kernel of [`subsparse_linalg::dct`], whose
/// FFT fuses two radix-2 stages per pass over its planes. Batch
/// solves give each worker its own operator scratch (the grid, the
/// compact plane and the two half-length FFT planes: at most `3 P^2`
/// values, allocated once per worker), so adding columns allocates
/// nothing.
///
/// CG is preconditioned by block Jacobi over contacts: each contact's
/// dense block of `A_cc` over its panels, factored by Cholesky in
/// [`EigenSolver::new`] from the closed-form table `D(a, b)` of the
/// [module docs](self). A contact of more than [`BLOCK_CAP`] panels is
/// split into consecutive chunks of its sorted panel list; a single-panel
/// contact is a `1 x 1` block, i.e. plain Jacobi. The factors of
/// equal-size blocks are stored interleaved, so an apply runs the
/// triangular solves of up to [`LANE_BLOCKS`] blocks side by side, each
/// bit for bit its own scalar solve (see [`BlockJacobi`]), and allocates
/// nothing.
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
    p: usize,
    /// flat panel indices (qy * P + qx) per contact
    contact_panels: Vec<Vec<u32>>,
    /// all contact panels, sorted
    panel_list: Vec<u32>,
    /// owning contact per entry of `panel_list`
    panel_owner: Vec<u32>,
    /// the occupied grid rows `y` (those holding a contact panel),
    /// increasing; `R = rows.len()`
    rows: Vec<u32>,
    /// place of each entry of `panel_list` in the compact `[x][r]` plane:
    /// `x * R + r` for panel `(x, rows[r])`
    slot: Vec<u32>,
    /// mode multipliers, row-major `[n * P + m]`
    mu: Vec<f64>,
    dct: Dct,
    precond: BlockJacobi,
    cfg: EigenSolverConfig,
    core: PcgCore,
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
        // position of each contact panel in `panel_list`
        let mut position = vec![u32::MAX; p * p];
        for (q, &o) in owner.iter().enumerate() {
            if o != u32::MAX {
                position[q] = panel_list.len() as u32;
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
        let precond = BlockJacobi::new(&cosine_table(&mu, p), p, &contact_panels, &position);
        let mut rows: Vec<u32> = panel_list.iter().map(|&q| q / p as u32).collect();
        rows.dedup();
        let mut row_of = vec![0u32; p];
        for (r, &y) in rows.iter().enumerate() {
            row_of[y as usize] = r as u32;
        }
        let slot = panel_list
            .iter()
            .map(|&q| (q as usize % p * rows.len()) as u32 + row_of[q as usize / p])
            .collect();
        Ok(EigenSolver {
            p,
            contact_panels,
            panel_list,
            panel_owner,
            rows,
            slot,
            mu,
            dct: Dct::new(p),
            precond,
            cfg,
            core: PcgCore::new(layout.n_contacts(), cfg.max_iter, cfg.threads),
        })
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

    /// The block-Jacobi preconditioner the CG solves apply, over the
    /// contact panels in increasing flat index.
    pub fn preconditioner(&self) -> &BlockJacobi {
        &self.precond
    }

    /// Cumulative solve statistics.
    pub fn stats(&self) -> SolveStats {
        self.core.stats()
    }
}

/// Reusable per-worker state for the eigenfunction solver's CG solves:
/// the panel RHS, panel solution, the operator's work buffer and
/// transform planes, and the CG work vectors.
#[derive(Debug, Default)]
pub(crate) struct EigenScratch {
    rhs: Vec<f64>,
    x: Vec<f64>,
    grid: RefCell<Vec<f64>>,
    dct: RefCell<Dct2dScratch>,
    cg: CgScratch,
}

/// `A_cc`, the current-to-potential operator between contact panels,
/// staged as in the [module docs](self). `grid` holds the `P x P` grid
/// followed by the compact `P x R` plane; both are sized on first use and
/// fully rewritten by every apply.
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
        let s = self.solver;
        let (p, rows) = (s.p, &s.rows[..]);
        let (mut buf, sc) = (self.grid.borrow_mut(), &mut *self.dct.borrow_mut());
        buf.resize(p * p + p * rows.len(), 0.0);
        let (grid, plane) = buf.split_at_mut(p * p);
        plane.fill(0.0);
        for (&k, &xk) in s.slot.iter().zip(x) {
            plane[k as usize] = xk;
        }
        s.dct.transform_lanes(plane, rows.len(), true, sc);
        let mut occupied = rows.iter().peekable();
        for (yy, g) in grid.chunks_exact_mut(p).enumerate() {
            if occupied.next_if(|&&r| r as usize == yy).is_none() {
                g.fill(0.0);
            }
        }
        exchange(plane, grid, rows, p, true);
        s.dct.transform_lanes(grid, p, true, sc);
        for (g, m) in grid.iter_mut().zip(&s.mu) {
            *g *= m;
        }
        s.dct.transform_lanes(grid, p, false, sc);
        exchange(plane, grid, rows, p, false);
        s.dct.transform_lanes(plane, rows.len(), false, sc);
        for (yk, &k) in y.iter_mut().zip(&s.slot) {
            *yk = plane[k as usize];
        }
    }
}

/// Moves values between the compact `[x][r]` plane (`P x R`, row-major)
/// and the occupied rows `rows[r]` of the `[y][x]` grid, in cache-sized
/// tiles: into the grid if `expand`, else back into the plane.
fn exchange(plane: &mut [f64], grid: &mut [f64], rows: &[u32], p: usize, expand: bool) {
    const TILE: usize = 16;
    let nr = rows.len();
    for r0 in (0..nr).step_by(TILE) {
        let tile = &rows[r0..(r0 + TILE).min(nr)];
        for x0 in (0..p).step_by(TILE) {
            for (r, &y) in (r0..).zip(tile) {
                let g = &mut grid[y as usize * p..][x0..(x0 + TILE).min(p)];
                for (x, g) in (x0..).zip(g) {
                    let c = &mut plane[x * nr + r];
                    if expand {
                        *g = *c;
                    } else {
                        *c = *g;
                    }
                }
            }
        }
    }
}

/// The table `D(a, b) = sum_mn mu_nm cos(pi m a / P) cos(pi n b / P)` for
/// `a, b < 2P`, row-major `[a * 2P + b]` (see the module docs). Two
/// lane-batched `2P`-point FFT passes over zero-padded planes: along `n`
/// with the modes `m` as lanes, whose real part is
/// `T(b, m) = sum_n mu_nm cos(pi n b / P)`; then along `m` with `b` as
/// lanes.
fn cosine_table(mu: &[f64], p: usize) -> Vec<f64> {
    let p2 = 2 * p;
    let fft = Fft::new(p2);
    let mut re = vec![0.0; p2 * p];
    let mut im = vec![0.0; p2 * p];
    for (n, row) in mu.chunks_exact(p).enumerate() {
        let r = fft.bit_reverse(n);
        re[r * p..(r + 1) * p].copy_from_slice(row);
    }
    fft.butterflies(&mut re, &mut im, p, false);
    let mut table = vec![0.0; p2 * p2];
    for m in 0..p {
        let r = fft.bit_reverse(m);
        for (b, t) in table[r * p2..(r + 1) * p2].iter_mut().enumerate() {
            *t = re[b * p + m];
        }
    }
    im.clear();
    im.resize(p2 * p2, 0.0);
    fft.butterflies(&mut table, &mut im, p2, false);
    table
}

/// The entry `A(q1, q2)` of the current-to-potential operator between
/// flat panels `q1` and `q2`, from the [`cosine_table`] `d`.
fn table_entry(d: &[f64], p: usize, q1: usize, q2: usize) -> f64 {
    let (x1, y1, x2, y2) = (q1 % p, q1 / p, q2 % p, q2 / p);
    let row = |a: usize| &d[a * 2 * p..(a + 1) * 2 * p];
    let (sum, diff) = (row(x1 + x2 + 1), row(x1.abs_diff(x2)));
    let (bs, bd) = (y1 + y2 + 1, y1.abs_diff(y2));
    0.25 * ((sum[bs] + sum[bd]) + (diff[bs] + diff[bd]))
}

/// Blocks of one size whose factors interleave in one chunk of the
/// [`BlockJacobi`] layout: its apply runs the triangular solves of up to
/// this many blocks side by side, the innermost loop over the blocks.
/// At the 4- and 9-panel blocks of the benchmark layout, chunks of 8
/// applied in 62–69 µs against 42–64 µs for 16 to 64 (factors of those
/// shapes, 2-vCPU Xeon). The apply's stack buffer is
/// `BLOCK_CAP x LANE_BLOCKS` values.
pub const LANE_BLOCKS: usize = 32;

/// Block-Jacobi preconditioner over contacts: `z = M^{-1} r`, where `M`
/// keeps the blocks of `A_cc` between panels of one contact (split at
/// [`BLOCK_CAP`] panels) and drops every other entry.
///
/// Each block is held as its packed lower Cholesky factor `L` (row `i`
/// holds `L[i][0..i]`, then `1 / L[i][i]`), so an apply is a forward and
/// a backward triangular solve per block, with no division.
///
/// # Interleaved layout
///
/// Blocks are grouped by size, and each size class is cut into chunks of
/// up to [`LANE_BLOCKS`] blocks. A chunk of `c` blocks of `k` panels
/// stores its packed factors `[entry][block]` (entry `e` of block `b` at
/// `e * c + b`) and its system positions `[row][block]`, so the apply
/// gathers a chunk's values `[row][block]` into a stack buffer and runs
/// one forward and one backward solve whose innermost loop walks the `c`
/// blocks in step. Each block keeps exactly the operation order of its
/// own scalar solve — every dot product of the forward solve starts from
/// `-0.0`, as `f64::sum` does, and adds its terms in column order — so
/// the output bits do not depend on how blocks were grouped. An apply
/// allocates nothing.
#[derive(Clone, Debug)]
pub struct BlockJacobi {
    /// positions in the system (contact-panel) ordering, chunk by chunk,
    /// `[row][block]` within a chunk
    index: Vec<u32>,
    /// packed factors, chunk by chunk, `[entry][block]` within a chunk
    factors: Vec<f64>,
    /// `(panels per block, blocks)` of each chunk, in storage order
    chunks: Vec<(u32, u32)>,
}

impl BlockJacobi {
    /// Builds and factors the blocks of every contact from the table `d`,
    /// writing each factor straight into its chunk; `position` maps a
    /// flat panel to its place in the system ordering.
    ///
    /// # Panics
    ///
    /// Panics if a block is not numerically positive definite, which the
    /// symmetric positive definite operator rules out.
    fn new(d: &[f64], p: usize, contact_panels: &[Vec<u32>], position: &[u32]) -> Self {
        let mut blocks: Vec<&[u32]> =
            contact_panels.iter().flat_map(|panels| panels.chunks(BLOCK_CAP)).collect();
        blocks.sort_by_key(|block| block.len());
        let n_factors = blocks.iter().map(|b| b.len() * (b.len() + 1) / 2).sum();
        let mut pc = BlockJacobi {
            index: vec![0; blocks.iter().map(|b| b.len()).sum()],
            factors: vec![0.0; n_factors],
            chunks: Vec::new(),
        };
        let (mut index_at, mut factor_at) = (0, 0);
        let mut rest = &blocks[..];
        while let Some(first) = rest.first() {
            let k = first.len();
            let (class, tail) = rest.split_at(rest.iter().take_while(|b| b.len() == k).count());
            rest = tail;
            for chunk in class.chunks(LANE_BLOCKS) {
                let c = chunk.len();
                for (b, block) in chunk.iter().enumerate() {
                    let a = Mat::from_fn(k, k, |i, j| {
                        table_entry(d, p, block[i] as usize, block[j] as usize)
                    });
                    let chol = Cholesky::new(&a).expect("A_cc blocks are positive definite");
                    let l = chol.l();
                    for (i, &q) in block.iter().enumerate() {
                        pc.index[index_at + i * c + b] = position[q as usize];
                        let row = &mut pc.factors[factor_at + i * (i + 1) / 2 * c..];
                        for j in 0..i {
                            row[j * c + b] = l[(i, j)];
                        }
                        row[i * c + b] = 1.0 / l[(i, i)];
                    }
                }
                pc.chunks.push((k as u32, c as u32));
                index_at += k * c;
                factor_at += k * (k + 1) / 2 * c;
            }
        }
        pc
    }
}

impl LinOp for BlockJacobi {
    fn dim(&self) -> usize {
        self.index.len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut buf = [0.0; BLOCK_CAP * LANE_BLOCKS];
        let mut dot = [0.0; LANE_BLOCKS];
        let (mut index, mut factors) = (&self.index[..], &self.factors[..]);
        for &(k, c) in &self.chunks {
            let (k, c) = (k as usize, c as usize);
            let (idx, rest) = index.split_at(k * c);
            index = rest;
            let (l, rest) = factors.split_at(k * (k + 1) / 2 * c);
            factors = rest;
            let (w, dot) = (&mut buf[..k * c], &mut dot[..c]);
            for (wi, &i) in w.iter_mut().zip(idx) {
                *wi = x[i as usize];
            }
            // L u = r, row by row
            for i in 0..k {
                let (row, inv) = l[i * (i + 1) / 2 * c..][..(i + 1) * c].split_at(i * c);
                let (head, wi) = w.split_at_mut(i * c);
                dot.fill(-0.0);
                for (lj, wj) in row.chunks_exact(c).zip(head.chunks_exact(c)) {
                    for ((s, a), b) in dot.iter_mut().zip(lj).zip(wj) {
                        *s += a * b;
                    }
                }
                for ((v, s), inv) in wi[..c].iter_mut().zip(&*dot).zip(inv) {
                    *v = (*v - s) * inv;
                }
            }
            // L' z = u, column by column from the last
            for i in (0..k).rev() {
                let (row, inv) = l[i * (i + 1) / 2 * c..][..(i + 1) * c].split_at(i * c);
                let (head, wi) = w.split_at_mut(i * c);
                let wi = &mut wi[..c];
                for (v, inv) in wi.iter_mut().zip(inv) {
                    *v *= inv;
                }
                for (lj, wj) in row.chunks_exact(c).zip(head.chunks_exact_mut(c)) {
                    for ((v, a), b) in wj.iter_mut().zip(lj).zip(&*wi) {
                        *v -= a * b;
                    }
                }
            }
            for (&wi, &i) in w.iter().zip(idx) {
                y[i as usize] = wi;
            }
        }
    }
}

impl PcgBackend for EigenSolver {
    const NAME: &'static str = "eigen";
    const SPANS: [&'static str; 2] = ["solve.eigen", "solve_batch.eigen"];
    type Scratch = EigenScratch;

    fn load(&self, v: &[f64], sc: &mut EigenScratch) {
        sc.rhs.clear();
        sc.rhs.extend(self.panel_owner.iter().map(|&o| v[o as usize]));
        sc.x.clear();
        sc.x.resize(self.panel_list.len(), 0.0);
    }

    fn attempt(&self, budget: usize, sc: &mut EigenScratch) -> CgResult {
        let EigenScratch { rhs, x, grid, dct, cg } = sc;
        let op = RestrictedOp { solver: self, grid, dct };
        pcg_with(&op, &self.precond, rhs, x, self.cfg.tol, budget, cg)
    }

    /// Contact currents are the sums of their panel currents.
    fn currents(&self, _v: &[f64], sc: &EigenScratch, out: &mut [f64]) {
        out.fill(0.0);
        for (k, &o) in self.panel_owner.iter().enumerate() {
            out[o as usize] += sc.x[k];
        }
    }
}

impl SubstrateSolver for EigenSolver {
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

impl HasSolveStats for EigenSolver {
    fn solve_stats(&self) -> SolveStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::extract_dense;
    use subsparse_layout::generators;
    use subsparse_linalg::cg::{pcg, IdentityPrecond};
    use subsparse_linalg::dct::dct2d_with;

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

    /// Contact currents of a solve of `s`'s panel system preconditioned by
    /// `pre`, with its CG outcome.
    fn pcg_currents(s: &EigenSolver, pre: &dyn LinOp, v: &[f64]) -> (Vec<f64>, CgResult) {
        let grid = RefCell::new(vec![0.0; s.p * s.p]);
        let dct = RefCell::new(Dct2dScratch::default());
        let op = RestrictedOp { solver: s, grid: &grid, dct: &dct };
        let rhs: Vec<f64> = s.panel_owner.iter().map(|&o| v[o as usize]).collect();
        let mut x = vec![0.0; rhs.len()];
        let res = pcg(&op, pre, &rhs, &mut x, s.cfg.tol, s.cfg.max_iter);
        let mut currents = vec![0.0; s.n_contacts()];
        for (k, &o) in s.panel_owner.iter().enumerate() {
            currents[o as usize] += x[k];
        }
        (currents, res)
    }

    /// `A_cc` diagonal by the separable sum
    /// `sum_mn mu_nm E_{m,qx}^2 E_{n,qy}^2`, independent of the table.
    fn separable_diag(s: &EigenSolver) -> Vec<f64> {
        let p = s.p;
        let e = |m: usize, q: usize| {
            (std::f64::consts::PI * (m * (2 * q + 1)) as f64 / (2 * p) as f64).cos()
        };
        s.panel_list
            .iter()
            .map(|&q| {
                let (qx, qy) = (q as usize % p, q as usize / p);
                let mut acc = 0.0;
                for n in 0..p {
                    for m in 0..p {
                        acc += s.mu[n * p + m] * (e(m, qx) * e(m, qx)) * (e(n, qy) * e(n, qy));
                    }
                }
                acc
            })
            .collect()
    }

    /// Diagonal (point) Jacobi, the preconditioner block Jacobi replaced.
    struct DiagPrecond(Vec<f64>);

    impl LinOp for DiagPrecond {
        fn dim(&self) -> usize {
            self.0.len()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for ((yi, xi), d) in y.iter_mut().zip(x).zip(&self.0) {
                *yi = xi / d;
            }
        }
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> subsparse_layout::Contact {
        subsparse_layout::Contact::rect(subsparse_layout::Rect::new(x0, y0, x1, y1))
    }

    /// 32 one-unit panels per side with contacts on rows and columns 0
    /// and P - 1, and empty grid rows between contacts.
    fn edge_layout() -> subsparse_layout::Layout {
        let mut layout = subsparse_layout::Layout::new(32.0, 32.0);
        for c in [
            rect(0.0, 0.0, 3.0, 3.0),
            rect(29.0, 29.0, 32.0, 32.0),
            rect(0.0, 10.0, 1.0, 12.0),
            rect(31.0, 5.0, 32.0, 9.0),
            rect(10.0, 0.0, 16.0, 1.0),
            rect(12.0, 31.0, 20.0, 32.0),
            rect(14.0, 14.0, 15.0, 15.0),
            rect(8.0, 20.0, 13.0, 25.0),
            subsparse_layout::Contact::new(vec![
                subsparse_layout::Rect::new(20.0, 8.0, 24.0, 10.0),
                subsparse_layout::Rect::new(20.0, 10.0, 22.0, 13.0),
            ]),
        ] {
            layout.push(c);
        }
        layout
    }

    fn solver_32(layout: &subsparse_layout::Layout) -> EigenSolver {
        let cfg = EigenSolverConfig { panels: 32, ..Default::default() };
        EigenSolver::new(&Substrate::thesis_standard(), layout, cfg).unwrap()
    }

    /// Each block of `pc` out of its chunk: its system positions and its
    /// packed factor (row `i` holds `L[i][0..i]`, then `1 / L[i][i]`).
    fn per_block(pc: &BlockJacobi) -> Vec<(Vec<u32>, Vec<f64>)> {
        let (mut index_at, mut factor_at) = (0, 0);
        let mut blocks = Vec::new();
        for &(k, c) in &pc.chunks {
            let (k, c) = (k as usize, c as usize);
            for b in 0..c {
                let index = (0..k).map(|i| pc.index[index_at + i * c + b]).collect();
                let factor = (0..k * (k + 1) / 2).map(|e| pc.factors[factor_at + e * c + b]);
                blocks.push((index, factor.collect()));
            }
            index_at += k * c;
            factor_at += k * (k + 1) / 2 * c;
        }
        blocks
    }

    /// The per-block packed apply the lane-batched one replaced: a
    /// forward and a backward triangular solve per block, one at a time.
    fn per_block_apply(blocks: &[(Vec<u32>, Vec<f64>)], x: &[f64], y: &mut [f64]) {
        for (index, l) in blocks {
            let k = index.len();
            let mut w: Vec<f64> = index.iter().map(|&i| x[i as usize]).collect();
            // L u = r, row by row
            for i in 0..k {
                let (row, inv) = l[i * (i + 1) / 2..][..=i].split_at(i);
                let dot: f64 = row.iter().zip(&w[..i]).map(|(a, b)| a * b).sum();
                w[i] = (w[i] - dot) * inv[0];
            }
            // L' z = u, column by column from the last
            for i in (0..k).rev() {
                let (row, inv) = l[i * (i + 1) / 2..][..=i].split_at(i);
                w[i] *= inv[0];
                let (head, wi) = w.split_at_mut(i);
                for (wj, lij) in head.iter_mut().zip(row) {
                    *wj -= lij * wi[0];
                }
            }
            for (&wi, &i) in w.iter().zip(index) {
                y[i as usize] = wi;
            }
        }
    }

    /// One-panel contacts in a size class of 40 blocks (one full chunk and
    /// a partial one), 20 contacts of 2 x 2 panels, and a 3 x 28-panel bar
    /// split into blocks of 64 and 20 panels, on 32 one-unit panels per
    /// side.
    fn lane_layout() -> subsparse_layout::Layout {
        let mut layout = subsparse_layout::Layout::new(32.0, 32.0);
        for j in 0..40 {
            let (x, y) = ((2 * (j % 16)) as f64, (2 * (j / 16)) as f64);
            layout.push(rect(x, y, x + 1.0, y + 1.0));
        }
        for j in 0..20 {
            let (x, y) = ((3 * (j % 10)) as f64, (8 + 4 * (j / 10)) as f64);
            layout.push(rect(x, y, x + 2.0, y + 2.0));
        }
        layout.push(rect(2.0, 20.0, 30.0, 23.0));
        layout
    }

    #[test]
    fn lane_batched_apply_matches_the_per_block_solve_bit_for_bit() {
        let bench = generators::alternating_grid(128.0, 32, 3.0, 1.5);
        let solvers = [
            solver_32(&edge_layout()),
            solver_32(&lane_layout()),
            EigenSolver::new(&Substrate::thesis_standard(), &bench, EigenSolverConfig::default())
                .unwrap(),
        ];
        let classes = |s: &EigenSolver| {
            let mut count = std::collections::BTreeMap::new();
            for &(k, c) in &s.precond.chunks {
                *count.entry(k as usize).or_insert(0) += c as usize;
            }
            count
        };
        // mixed sizes; one-panel blocks in a class that ends in a partial
        // chunk; a contact split at the cap; the benchmark's full chunks
        assert!(classes(&solvers[0]).len() > 3);
        let lanes = classes(&solvers[1]);
        assert_eq!(lanes[&1], LANE_BLOCKS + 8);
        assert_eq!((lanes[&BLOCK_CAP], lanes[&20]), (1, 1));
        assert_eq!(classes(&solvers[2]).into_iter().collect::<Vec<_>>(), [(4, 512), (9, 512)]);
        for s in &solvers {
            let pc = &s.precond;
            let blocks = per_block(pc);
            let n = pc.dim();
            let signed_zeros = (0..n).map(|k| if k % 2 == 0 { -0.0 } else { 0.0 });
            let mixed = (0..n).map(|k| match k % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => (k as f64 * 0.37).sin() * 1e3,
            });
            for x in [signed_zeros.collect::<Vec<_>>(), mixed.collect()] {
                let (mut got, mut want) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                pc.apply(&x, &mut got);
                per_block_apply(&blocks, &x, &mut want);
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "P = {}, panel {k}: {a} vs {b}", s.p);
                }
            }
        }
    }

    #[test]
    fn restricted_operator_matches_full_grid_pipeline() {
        // the staged operator against scatter, full 2-D forward DCT, mode
        // scaling, full 2-D transpose DCT, gather
        let mut all_rows = subsparse_layout::Layout::new(32.0, 32.0);
        for c in
            [rect(0.0, 0.0, 1.0, 32.0), rect(31.0, 0.0, 32.0, 16.0), rect(10.0, 3.0, 20.0, 9.0)]
        {
            all_rows.push(c);
        }
        let mut one_row = subsparse_layout::Layout::new(32.0, 32.0);
        for c in [rect(0.0, 7.0, 4.0, 8.0), rect(10.0, 7.0, 11.0, 8.0), rect(28.0, 7.0, 32.0, 8.0)]
        {
            one_row.push(c);
        }
        for (layout, want_rows) in [(edge_layout(), 20), (all_rows, 32), (one_row, 1)] {
            let s = solver_32(&layout);
            assert_eq!(s.rows.len(), want_rows, "occupied rows");
            let p = s.p;
            let dct = RefCell::new(Dct2dScratch::default());
            let grid = RefCell::new(Vec::new());
            let op = RestrictedOp { solver: &s, grid: &grid, dct: &dct };
            let n = op.dim();
            let mut inputs: Vec<Vec<f64>> = [0, n / 2, n - 1]
                .iter()
                .map(|&i| (0..n).map(|k| f64::from(u8::from(k == i))).collect())
                .collect();
            inputs.push((0..n).map(|k| (k as f64 * 0.73).sin() - 0.2).collect());
            let mut got = vec![0.0; n];
            for x in &inputs {
                op.apply(x, &mut got);
                let mut full = vec![0.0; p * p];
                for (&q, &xk) in s.panel_list.iter().zip(x) {
                    full[q as usize] = xk;
                }
                let mut sc = Dct2dScratch::default();
                dct2d_with(&s.dct, &s.dct, &mut full, p, p, true, &mut sc);
                for (g, m) in full.iter_mut().zip(&s.mu) {
                    *g *= m;
                }
                dct2d_with(&s.dct, &s.dct, &mut full, p, p, false, &mut sc);
                let want: Vec<f64> = s.panel_list.iter().map(|&q| full[q as usize]).collect();
                let scale = want.iter().fold(0.0f64, |m, w| m.max(w.abs()));
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-13 * scale,
                        "R = {want_rows}, panel {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_blocks_match_the_operator() {
        // one-unit panels; contacts on rows and columns 0 and P - 1 take
        // the reflected (`x1 + x2 + 1`) terms to both ends of the table
        let layout = edge_layout();
        let s = solver_32(&layout);
        let (p, pc) = (s.p, &s.precond);
        let blocks = per_block(pc);
        assert_eq!(blocks.len(), layout.n_contacts());
        let table = cosine_table(&s.mu, p);
        let diag = separable_diag(&s);
        let grid = RefCell::new(vec![0.0; p * p]);
        let dct = RefCell::new(Dct2dScratch::default());
        let op = RestrictedOp { solver: &s, grid: &grid, dct: &dct };
        let n = op.dim();
        let (mut e, mut col) = (vec![0.0; n], vec![0.0; n]);
        // `M x` for the block-diagonal `M`, to check the factors against
        let x: Vec<f64> = (0..n).map(|k| 1.0 + (k as f64 * 0.37).sin()).collect();
        let mut mx = vec![0.0; n];
        for (block, _) in &blocks {
            for &j in block {
                let j = j as usize;
                e.fill(0.0);
                e[j] = 1.0;
                op.apply(&e, &mut col);
                let qj = s.panel_list[j] as usize;
                for &i in block {
                    let i = i as usize;
                    let got = table_entry(&table, p, s.panel_list[i] as usize, qj);
                    let err = (got - col[i]).abs();
                    assert!(err <= 1e-12 * col[i].abs(), "A({i},{j}) = {got} vs {}", col[i]);
                    mx[i] += col[i] * x[j];
                }
                assert!((table_entry(&table, p, qj, qj) - diag[j]).abs() <= 1e-12 * diag[j]);
            }
        }
        let mut z = vec![0.0; n];
        pc.apply(&mx, &mut z);
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() <= 1e-10 * xi.abs(), "M^-1 M x = {zi} vs {xi}");
        }
    }

    #[test]
    fn contact_above_the_cap_is_split_and_converges() {
        // a 3 x 28-panel bar is 84 panels: two blocks of its sorted list
        let mut layout = subsparse_layout::Layout::new(32.0, 32.0);
        layout.push(rect(2.0, 14.0, 30.0, 17.0));
        for x0 in [2.0, 10.0, 20.0] {
            layout.push(rect(x0, 4.0, x0 + 2.0, 6.0));
            layout.push(rect(x0, 24.0, x0 + 3.0, 27.0));
        }
        let sub = Substrate::thesis_standard();
        let cfg = EigenSolverConfig { panels: 32, tol: 1e-11, ..Default::default() };
        let s = EigenSolver::new(&sub, &layout, cfg).unwrap();
        assert!(s.contact_panels[0].len() > BLOCK_CAP);
        assert_eq!(per_block(&s.precond).len(), layout.n_contacts() + 1);
        let mut v = vec![0.0; layout.n_contacts()];
        v[0] = 1.0;
        v[3] = -0.5;
        let got = s.try_solve(&v).expect("block-PCG converges");
        let (want, res) = pcg_currents(&s, &IdentityPrecond::new(s.n_contact_panels()), &v);
        assert!(res.converged);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() <= 1e-6 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn block_jacobi_cuts_iterations_against_diagonal_jacobi() {
        let layout = generators::alternating_grid(32.0, 8, 3.0, 1.5);
        let cfg = EigenSolverConfig { panels: 32, ..Default::default() };
        let s = EigenSolver::new(&Substrate::thesis_standard(), &layout, cfg).unwrap();
        let diag = DiagPrecond(separable_diag(&s));
        let n = layout.n_contacts();
        let mut rhs: Vec<Vec<f64>> = [0, 9, 27, 40, 63]
            .iter()
            .map(|&c| (0..n).map(|k| f64::from(u8::from(k == c))).collect())
            .collect();
        rhs.push((0..n).map(|k| (k as f64 * 0.61).sin()).collect());
        let mut point = 0;
        for v in &rhs {
            let (_, res) = pcg_currents(&s, &diag, v);
            assert!(res.converged);
            point += res.iterations;
            assert!(s.try_solve(v).is_ok());
        }
        let block = s.stats().inner_iterations;
        assert!(
            block as f64 <= 0.7 * point as f64,
            "block-Jacobi {block} vs diagonal-Jacobi {point} iterations"
        );
    }

    #[test]
    fn jacobi_does_not_change_answer() {
        // the block-Jacobi solve against plain CG
        let layout = generators::regular_grid(128.0, 4, 16.0);
        let sub = Substrate::thesis_standard();
        let cfg = EigenSolverConfig { panels: 32, tol: 1e-11, ..Default::default() };
        let s = EigenSolver::new(&sub, &layout, cfg).unwrap();
        let mut v = vec![0.0; 16];
        v[0] = 1.0;
        v[7] = -0.5;
        let i1 = s.solve(&v);
        let (i2, _) = pcg_currents(&s, &IdentityPrecond::new(s.n_contact_panels()), &v);
        for (a, b) in i1.iter().zip(&i2) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
    }
}
