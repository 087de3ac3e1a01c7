//! The workloads, run the way a user runs `subsparse`: layout → black box
//! → wavelet or low-rank extraction → `ParallelApply` serving of the
//! thresholded model. Every step is a call into a crate's public API,
//! timed here on the process CPU clock ([`clock`]); with tracing on, each
//! call also sits inside a `bench.*` span of the `subsparse::trace`
//! recorder, so the library's own tracing runs as it would for a user.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use subsparse::layout::generators;
use subsparse::linalg::rng::SmallRng;
use subsparse::linalg::{Csr, Mat};
use subsparse::lowrank::LowRankOptions;
use subsparse::substrate::{
    solver, EigenSolver, EigenSolverConfig, HasSolveStats, SolverError, Substrate,
};
use subsparse::wavelet::{build_basis, ExtractOptions};
use subsparse::{
    extract_lowrank, trace, ApplyWorkspace, BasisRep, CouplingOp, Layout, Method, ParallelApply,
    SubstrateSolver,
};

use crate::{alloc, clock};

/// Names of the spans this benchmark records around library calls.
pub mod span {
    /// One black-box call (`solve` or `solve_batch`); the argument is
    /// the column count.
    pub const SUBSTRATE: &str = "bench.substrate.call";
    /// `wavelet::build_basis`.
    pub const BASIS: &str = "bench.wavelet.build_basis";
    /// `wavelet::extract` (combine-solves).
    pub const WAVELET: &str = "bench.wavelet.extract";
    /// `extract_lowrank`.
    pub const LOWRANK: &str = "bench.lowrank.extract";
    /// One served request through `ParallelApply`.
    pub const REQUEST: &str = "bench.serve.request";
    /// `FastWaveletTransform::forward_into`.
    pub const FWT_FWD_B1: &str = "bench.hier.fwt_fwd_b1";
    /// `FastWaveletTransform::inverse_into`.
    pub const FWT_INV_B1: &str = "bench.hier.fwt_inv_b1";
    /// `FastWaveletTransform::forward_block_into`, 32 columns.
    pub const FWT_FWD_B32: &str = "bench.hier.fwt_fwd_b32";
    /// `FastWaveletTransform::inverse_block_into`, 32 columns.
    pub const FWT_INV_B32: &str = "bench.hier.fwt_inv_b32";
    /// `Csr::matvec_into` on `Gw`.
    pub const GW_B1: &str = "bench.linalg.gw_b1";
    /// `Csr::matmul_dense_into` on `Gw`, 32 columns.
    pub const GW_B32: &str = "bench.linalg.gw_b32";
    /// `BasisRep::apply_block_into`, one column, warm workspace.
    pub const SERIAL_B1: &str = "bench.linalg.serial_b1";
    /// `BasisRep::apply_block_into`, 32 columns, warm workspace.
    pub const SERIAL_B32: &str = "bench.linalg.serial_b32";
    /// `ParallelApply::apply_block_into`, one column.
    pub const POOL_B1: &str = "bench.linalg.pool_b1";
    /// `ParallelApply::apply_block_into`, 32 columns.
    pub const POOL_B32: &str = "bench.linalg.pool_b32";
}

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Wavelet combine-solves on an irregular layout against the
    /// matrix-free kernel black box: the system's own extraction work
    /// shows, because the black box is cheap.
    ExtractWaveletKernel,
    /// The low-rank method against the eigenfunction black box: solves
    /// dominate, so the solve count and solver cost show.
    ExtractLowrankEigen,
    /// A closed loop of apply requests on workload 1's thresholded model:
    /// extraction sits in set-up, serving does all the measured work.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ExtractWaveletKernel, Workload::ExtractLowrankEigen, Workload::ServeMixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExtractWaveletKernel => "extract_wavelet_kernel",
            Workload::ExtractLowrankEigen => "extract_lowrank_eigen",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sparsification method the workload extracts with.
    pub fn method(self) -> Method {
        match self {
            Workload::ExtractLowrankEigen => Method::LowRank,
            _ => Method::Wavelet,
        }
    }
}

/// Problem sizes: the benchmark's own, or tiny ones for its self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// Seconds-long pipelines for the self-tests.
    Tiny,
}

/// Contact-count band the full-size wavelet layout is redrawn into, so
/// that every seed extracts the same amount of work: the generator's
/// count moves by ±5% with the seed, and kernel solve cost by twice that.
/// The band also keeps `nnz(Gw)` (0.18 to 0.20 n²) above the 1.84M
/// entries where the extraction's hash accumulator doubles its table,
/// which would otherwise move `extract_peak_mb` by 30% between seeds.
const WAVELET_N_BAND: (usize, usize) = (3250, 3350);

/// The black box a workload extracts from.
trait BlackBox: SubstrateSolver + HasSolveStats {}
impl<T: SubstrateSolver + HasSolveStats> BlackBox for T {}

enum Extractor {
    Wavelet { levels: usize },
    LowRank { levels: usize, options: LowRankOptions },
}

/// A workload's generated inputs: the layout and its black box.
pub struct Inputs {
    /// The contact layout.
    pub layout: Layout,
    black_box: Box<dyn BlackBox>,
    extractor: Extractor,
}

/// Generates the workload's inputs from `seed`.
///
/// # Errors
///
/// Returns a description when the black box cannot be built or no layout
/// falls in the size band.
pub fn make_inputs(workload: Workload, scale: Scale, seed: u64) -> Result<Inputs, String> {
    if workload == Workload::ExtractLowrankEigen {
        // thesis Ch. 4 Example 2: alternating large and small contacts
        let (layout, panels, levels) = match scale {
            Scale::Full => (generators::alternating_grid(128.0, 32, 3.0, 1.5), 128, 3),
            Scale::Tiny => (generators::alternating_grid(32.0, 8, 3.0, 1.5), 32, 2),
        };
        let config = EigenSolverConfig { panels, threads: 2, ..Default::default() };
        let black_box = EigenSolver::new(&Substrate::thesis_standard(), &layout, config)
            .map_err(|e| format!("eigen black box: {e}"))?;
        let options = LowRankOptions { seed, ..Default::default() };
        return Ok(Inputs {
            layout,
            black_box: Box::new(black_box),
            extractor: Extractor::LowRank { levels, options },
        });
    }
    // thesis Example 2: same-size contacts, irregular placement
    let layout = match scale {
        Scale::Full => {
            let mut draws = SmallRng::seed_from_u64(seed);
            (0..10_000)
                .map(|_| generators::irregular_same_size(128.0, 64, 1.0, draws.next_u64()))
                .find(|l| (WAVELET_N_BAND.0..=WAVELET_N_BAND.1).contains(&l.n_contacts()))
                .ok_or("no irregular layout in the contact-count band")?
        }
        Scale::Tiny => generators::irregular_same_size(128.0, 16, 1.0, seed),
    };
    let levels = subsparse::choose_levels(&layout, 16);
    let black_box = solver::kernel(&layout);
    Ok(Inputs { layout, black_box: Box::new(black_box), extractor: Extractor::Wavelet { levels } })
}

/// Counts black-box calls and columns, sums the CPU time spent inside
/// them, and records each call in a [`span::SUBSTRATE`] span.
struct Probe<'a> {
    inner: &'a dyn BlackBox,
    calls: Cell<usize>,
    columns: Cell<usize>,
    busy_s: Cell<f64>,
}

impl Probe<'_> {
    fn call<R>(&self, columns: usize, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        self.columns.set(self.columns.get() + columns);
        let _s = trace::span_arg(span::SUBSTRATE, columns as u64);
        let c0 = clock::cpu_s();
        let out = f();
        self.busy_s.set(self.busy_s.get() + clock::cpu_s() - c0);
        out
    }
}

impl SubstrateSolver for Probe<'_> {
    fn n_contacts(&self) -> usize {
        self.inner.n_contacts()
    }
    fn solve(&self, v: &[f64]) -> Vec<f64> {
        self.call(1, || self.inner.solve(v))
    }
    fn solve_batch(&self, v: &Mat) -> Mat {
        self.call(v.n_cols(), || self.inner.solve_batch(v))
    }
    fn try_solve(&self, v: &[f64]) -> Result<Vec<f64>, SolverError> {
        self.call(1, || self.inner.try_solve(v))
    }
    fn try_solve_batch(&self, v: &Mat) -> Result<Mat, SolverError> {
        self.call(v.n_cols(), || self.inner.try_solve_batch(v))
    }
}

/// Per-layer split of one extraction, CPU seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtractLayers {
    /// Inside black-box calls.
    pub busy_s: f64,
    /// `wavelet::build_basis`.
    pub basis_s: f64,
    /// `wavelet::extract` minus black-box time.
    pub wavelet_self_s: f64,
    /// `extract_lowrank` minus black-box time.
    pub lowrank_self_s: f64,
}

/// One extraction and what it cost.
pub struct Extracted {
    /// The `G ≈ Q Gw Q'` model.
    pub rep: BasisRep,
    /// CPU time of basis build plus extraction, or of `extract_lowrank`.
    pub cpu_s: f64,
    /// Wall-clock of the same.
    pub wall_s: f64,
    /// Black-box calls.
    pub calls: usize,
    /// Black-box columns solved.
    pub solves: usize,
    /// Peak live heap above the heap live at the start, bytes.
    pub peak_bytes: usize,
    /// Inner CG iterations the black box ran.
    pub cg_iters: usize,
    /// The per-layer split.
    pub layers: ExtractLayers,
}

/// Runs the workload's extraction on `inputs`, with the trace recorder on
/// when `traced`.
///
/// # Errors
///
/// Returns a description when the layout does not fit the quadtree.
pub fn extract(inputs: &Inputs, traced: bool) -> Result<Extracted, String> {
    let probe = Probe {
        inner: &*inputs.black_box,
        calls: Cell::new(0),
        columns: Cell::new(0),
        busy_s: Cell::new(0.0),
    };
    let iters0 = inputs.black_box.solve_stats().inner_iterations;
    trace::set_enabled(traced);
    let live0 = alloc::reset_peak();
    let (t0, c0) = (Instant::now(), clock::cpu_s());
    let mut basis_s = 0.0;
    let rep = match &inputs.extractor {
        Extractor::Wavelet { levels } => {
            let mut basis = None;
            basis_s = {
                let _s = trace::span(span::BASIS);
                clock::cpu_us_of(|| basis = Some(build_basis(&inputs.layout, *levels, 2))) * 1e-6
            };
            basis.expect("the basis build ran").map(|basis| {
                let _s = trace::span(span::WAVELET);
                subsparse::wavelet::extract(&probe, &basis, &ExtractOptions::default())
            })
        }
        Extractor::LowRank { levels, options } => {
            let _s = trace::span(span::LOWRANK);
            extract_lowrank(&probe, &inputs.layout, *levels, options).map(|(x, _)| x.rep)
        }
    };
    let cpu_s = clock::cpu_s() - c0;
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak_bytes().saturating_sub(live0);
    trace::set_enabled(false);
    trace::reset();
    let rep = rep.map_err(|e| format!("extraction: {e}"))?;
    let busy_s = probe.busy_s.get();
    let own_s = cpu_s - basis_s - busy_s;
    let (wavelet_self_s, lowrank_self_s) = match inputs.extractor {
        Extractor::Wavelet { .. } => (own_s, 0.0),
        Extractor::LowRank { .. } => (0.0, own_s),
    };
    Ok(Extracted {
        rep,
        cpu_s,
        wall_s,
        calls: probe.calls.get(),
        solves: probe.columns.get(),
        peak_bytes,
        cg_iters: inputs.black_box.solve_stats().inner_iterations - iters0,
        layers: ExtractLayers { busy_s, basis_s, wavelet_self_s, lowrank_self_s },
    })
}

/// The black box's exact columns at seeded sample positions, the
/// reference `model_col_err` is measured against.
pub struct Reference {
    cols: Vec<usize>,
    exact: Mat,
}

impl Reference {
    /// Solves `count` distinct seeded unit columns through the raw black
    /// box (outside any timed window and outside the solve counts).
    pub fn new(inputs: &Inputs, seed: u64, count: usize) -> Reference {
        let n = inputs.layout.n_contacts();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC015);
        let mut cols = Vec::new();
        while cols.len() < count.min(n) {
            let j = (rng.next_u64() % n as u64) as usize;
            if !cols.contains(&j) {
                cols.push(j);
            }
        }
        let mut units = Mat::zeros(n, cols.len());
        for (k, &j) in cols.iter().enumerate() {
            units.col_mut(k)[j] = 1.0;
        }
        let exact = inputs.black_box.solve_batch(&units);
        Reference { cols, exact }
    }

    /// Relative errors of the model's sampled columns: the Frobenius
    /// error of the whole sampled block (the measure the methods'
    /// documented tolerances are stated in, and steady between seeds; NaN
    /// when any column is), and the largest single-column 2-norm error
    /// (which moves by ±20% between seeds, so it is only printed).
    pub fn col_err(&self, rep: &BasisRep) -> ColErr {
        let model = rep.dense_columns(&self.cols);
        let (mut diff, mut norm, mut largest) = (0.0, 0.0, 0.0_f64);
        for k in 0..self.cols.len() {
            let (m, g) = (model.col(k), self.exact.col(k));
            let d: f64 = m.iter().zip(g).map(|(a, b)| (a - b) * (a - b)).sum();
            let n: f64 = g.iter().map(|b| b * b).sum();
            (diff, norm, largest) = (diff + d, norm + n, largest.max((d / n).sqrt()));
        }
        ColErr { fro: (diff / norm).sqrt(), largest_col: largest }
    }
}

/// Sampled-column error of a model against the black box.
#[derive(Clone, Copy, Debug)]
pub struct ColErr {
    /// Relative Frobenius error of the sampled column block.
    pub fro: f64,
    /// Largest relative 2-norm error of one sampled column.
    pub largest_col: f64,
}

/// The extraction gates: the sampled-column error within the method's
/// documented (relative-Frobenius) tolerance, every `Gw` value finite,
/// and `Gw` symmetric. Returns how many missed.
pub fn model_failures(rep: &BasisRep, err: ColErr, method: Method) -> usize {
    let accurate = err.fro <= method.doc_tolerance();
    let finite = rep.gw.iter().all(|(_, _, v)| v.is_finite());
    [accurate, finite, is_symmetric(&rep.gw)].iter().filter(|ok| !**ok).count()
}

/// Same pattern as the transpose, values within 1e-12 of the largest.
fn is_symmetric(a: &Csr) -> bool {
    let t = a.transpose();
    let tol = 1e-12 * a.iter().fold(0.0_f64, |m, (_, _, v)| m.max(v.abs()));
    (0..a.n_rows()).all(|i| {
        let ((ca, va), (ct, vt)) = (a.row(i), t.row(i));
        ca == ct && va.iter().zip(vt).all(|(x, y)| (x - y).abs() <= tol)
    })
}

/// Requests per repetition of the pattern: seven single-vector requests,
/// then one block.
const PATTERN: usize = 8;
/// Columns of a block request.
const BLOCK: usize = 32;
/// One request in this many is checked against the serial path.
const CHECK_EVERY: usize = 16;
/// Distinct inputs in the seeded request pool, per kind.
const POOL_SINGLES: usize = 16;
const POOL_BLOCKS: usize = 4;
/// The served `Gwt` keeps this many times fewer `Gw` entries than the
/// extracted model (thesis §3.7).
const SPARSITY_GAIN: f64 = 6.0;

/// A served model: thresholded `Gwt`, its `ParallelApply` pool, and the
/// seeded request pool.
pub struct Served {
    rep: BasisRep,
    pool: ParallelApply,
    singles: Vec<Mat>,
    blocks: Vec<Mat>,
    y: Mat,
    y_ref: Mat,
    ws: ApplyWorkspace,
    /// Requests served so far: picks the next input and the next check.
    next: usize,
}

/// Raw per-request samples of some serving windows.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// CPU time of each single-vector request, µs.
    pub single_cpu_us: Vec<f64>,
    /// Wall-clock latency of each single-vector request, µs.
    pub single_wall_us: Vec<f64>,
    /// Per-vector CPU time of each block request, µs.
    pub block_cpu_us: Vec<f64>,
    /// Per-vector wall-clock of each block request, µs.
    pub block_wall_us: Vec<f64>,
    /// Requests served.
    pub requests: usize,
    /// Allocations inside the timed calls.
    pub allocs: u64,
    /// Requests checked against the serial path.
    pub checked: usize,
    /// Checked requests that were not bit-identical.
    pub failures: usize,
}

impl ServeStats {
    /// Appends `other`'s samples and counts.
    pub fn append(&mut self, mut other: ServeStats) {
        self.single_cpu_us.append(&mut other.single_cpu_us);
        self.single_wall_us.append(&mut other.single_wall_us);
        self.block_cpu_us.append(&mut other.block_cpu_us);
        self.block_wall_us.append(&mut other.block_wall_us);
        self.requests += other.requests;
        self.allocs += other.allocs;
        self.checked += other.checked;
        self.failures += other.failures;
    }
}

impl Served {
    /// Thresholds `model` to `Gwt`, checks the FWT path against the CSR
    /// path once, builds the seeded request pool, and warms the pool with
    /// `warm_cycles` repetitions of the request pattern. Returns the
    /// served model and the number of failed set-up checks.
    pub fn new(model: &BasisRep, seed: u64, warm_cycles: usize) -> (Served, usize) {
        let (rep, _) = model.thresholded_to_sparsity(SPARSITY_GAIN * model.sparsity_factor());
        let n = rep.n();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E7E);
        let mut draw = |cols| Mat::from_fn(n, cols, |_, _| rng.range_f64(-1.0, 1.0));
        let singles: Vec<Mat> = (0..POOL_SINGLES).map(|_| draw(1)).collect();
        let blocks: Vec<Mat> = (0..POOL_BLOCKS).map(|_| draw(BLOCK)).collect();
        let failures = usize::from(!fwt_matches_csr(&rep, &blocks[0]));
        let mut pool = ParallelApply::new(2);
        pool.warm(&rep, BLOCK);
        let mut served = Served {
            rep,
            pool,
            singles,
            blocks,
            y: Mat::zeros(0, 0),
            y_ref: Mat::zeros(0, 0),
            ws: ApplyWorkspace::new(),
            next: 0,
        };
        let warm = served.serve(warm_cycles);
        (served, failures + warm.failures)
    }

    /// Serves `patterns` repetitions of the request pattern in a closed
    /// loop with one caller.
    pub fn serve(&mut self, patterns: usize) -> ServeStats {
        let Served { rep, pool, singles, blocks, y, y_ref, ws, next } = self;
        let singles_len = patterns * (PATTERN - 1);
        let mut stats = ServeStats {
            single_cpu_us: Vec::with_capacity(singles_len),
            single_wall_us: Vec::with_capacity(singles_len),
            block_cpu_us: Vec::with_capacity(patterns),
            block_wall_us: Vec::with_capacity(patterns),
            ..Default::default()
        };
        for i in *next..*next + patterns * PATTERN {
            let pos = i % PATTERN;
            let x = if pos + 1 < PATTERN {
                &singles[(i / PATTERN * (PATTERN - 1) + pos) % singles.len()]
            } else {
                &blocks[(i / PATTERN) % blocks.len()]
            };
            let allocs0 = alloc::allocations();
            let (t, c) = (Instant::now(), clock::cpu_s());
            {
                let _s = trace::span(span::REQUEST);
                pool.apply_block_into(&*rep, x, y);
            }
            let cpu_us = (clock::cpu_s() - c) * 1e6;
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            stats.allocs += alloc::allocations() - allocs0;
            if x.n_cols() == 1 {
                stats.single_cpu_us.push(cpu_us);
                stats.single_wall_us.push(wall_us);
            } else {
                let cols = x.n_cols() as f64;
                stats.block_cpu_us.push(cpu_us / cols);
                stats.block_wall_us.push(wall_us / cols);
            }
            // one request in every 16, rotating through the pattern's
            // positions so both request kinds get checked
            if i % CHECK_EVERY == (i / CHECK_EVERY) % PATTERN {
                rep.apply_block_into(x, y_ref, ws);
                stats.checked += 1;
                if !bits_equal(y, y_ref) {
                    stats.failures += 1;
                }
            }
        }
        *next += patterns * PATTERN;
        stats.requests = patterns * PATTERN;
        stats
    }

    /// Times each layer of an apply serially (and the pool beside it),
    /// `rounds` single-vector rounds and a quarter as many 32-column
    /// rounds, interleaved so every layer sees the same machine state.
    pub fn layers(&mut self, rounds: usize) -> ServeLayers {
        let Served { rep, pool, singles, blocks, y, y_ref, ws, .. } = self;
        let (x1, x32) = (&singles[0], &blocks[0]);
        let n = rep.n();
        let fwt = rep.fwt();
        let scratch = fwt.map_or(0, |f| f.scratch_len());
        let (mut c1, mut v1, mut g1) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut s1, mut s2) = (vec![0.0; scratch], vec![0.0; scratch]);
        let (mut c32, mut v32, mut m1, mut m2) =
            (Mat::zeros(0, 0), Mat::zeros(0, 0), Mat::zeros(0, 0), Mat::zeros(0, 0));
        let mut t = HashMap::new();
        for r in 0..rounds {
            if let Some(f) = fwt {
                timed(&mut t, span::FWT_FWD_B1, || {
                    f.forward_into(x1.col(0), &mut c1, &mut s1, &mut s2)
                });
                timed(&mut t, span::FWT_INV_B1, || {
                    f.inverse_into(black_box(&c1), &mut v1, &mut s1, &mut s2)
                });
            }
            timed(&mut t, span::GW_B1, || rep.gw.matvec_into(x1.col(0), &mut g1));
            timed(&mut t, span::SERIAL_B1, || rep.apply_block_into(x1, y_ref, ws));
            timed(&mut t, span::POOL_B1, || pool.apply_block_into(&*rep, x1, y));
            if r % 4 != 0 {
                continue;
            }
            if let Some(f) = fwt {
                timed(&mut t, span::FWT_FWD_B32, || {
                    f.forward_block_into(x32, &mut c32, &mut m1, &mut m2)
                });
                timed(&mut t, span::FWT_INV_B32, || {
                    f.inverse_block_into(black_box(&c32), &mut v32, &mut m1, &mut m2)
                });
            }
            timed(&mut t, span::GW_B32, || rep.gw.matmul_dense_into(x32, &mut c32));
            timed(&mut t, span::SERIAL_B32, || rep.apply_block_into(x32, y_ref, ws));
            timed(&mut t, span::POOL_B32, || pool.apply_block_into(&*rep, x32, y));
        }
        black_box((&v1, &g1, &v32));
        trace::reset();
        // median µs of the calls timed under `name` (0 when the layer did
        // not run)
        let p50 = |name| {
            t.get(name)
                .map_or(0.0, |d: &Vec<f64>| crate::report::quantile(&crate::report::sorted(d), 0.5))
        };
        let per_vector = BLOCK as f64;
        ServeLayers {
            fwt_fwd_b1: p50(span::FWT_FWD_B1),
            fwt_inv_b1: p50(span::FWT_INV_B1),
            fwt_fwd_b32: p50(span::FWT_FWD_B32) / per_vector,
            fwt_inv_b32: p50(span::FWT_INV_B32) / per_vector,
            fwt_stored: fwt.map_or(0, |f| f.stored()),
            gw_b1: p50(span::GW_B1),
            gw_b32: p50(span::GW_B32) / per_vector,
            gw_nnz: rep.gw.nnz(),
            serial_b1: p50(span::SERIAL_B1),
            serial_b32: p50(span::SERIAL_B32) / per_vector,
            pool_overhead_b1: p50(span::POOL_B1) - p50(span::SERIAL_B1),
            pool_overhead_b32: p50(span::POOL_B32) - p50(span::SERIAL_B32),
            workers_b1: pool.planned_workers(&*rep, 1),
            workers_b32: pool.planned_workers(&*rep, BLOCK),
        }
    }
}

/// Runs `f` inside the span `name` and files its CPU time (µs) under
/// that name.
fn timed(times: &mut HashMap<&'static str, Vec<f64>>, name: &'static str, f: impl FnOnce()) {
    let _s = trace::span(name);
    let us = clock::cpu_us_of(f);
    times.entry(name).or_default().push(us);
}

/// Serial per-layer CPU costs of one apply on the served model (medians,
/// µs).
#[derive(Clone, Debug, Default)]
pub struct ServeLayers {
    pub fwt_fwd_b1: f64,
    pub fwt_inv_b1: f64,
    /// Per vector of a 32-column block.
    pub fwt_fwd_b32: f64,
    /// Per vector of a 32-column block.
    pub fwt_inv_b32: f64,
    pub fwt_stored: usize,
    pub gw_b1: f64,
    /// Per vector of a 32-column block.
    pub gw_b32: f64,
    pub gw_nnz: usize,
    pub serial_b1: f64,
    /// Per vector of a 32-column block.
    pub serial_b32: f64,
    /// Pool median minus serial median, single vector.
    pub pool_overhead_b1: f64,
    /// Pool median minus serial median, whole 32-column block.
    pub pool_overhead_b32: f64,
    pub workers_b1: usize,
    pub workers_b32: usize,
}

/// The FWT serving path agrees with the explicit-CSR path
/// (`without_fwt`) to 1e-12 of the largest output.
fn fwt_matches_csr(rep: &BasisRep, x: &Mat) -> bool {
    let (mut a, mut b) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
    rep.apply_block_into(x, &mut a, &mut ApplyWorkspace::new());
    rep.without_fwt().apply_block_into(x, &mut b, &mut ApplyWorkspace::new());
    let scale = b.max_abs();
    a.data().iter().zip(b.data()).all(|(p, q)| (p - q).abs() <= 1e-12 * scale)
}

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.n_rows() == b.n_rows()
        && a.n_cols() == b.n_cols()
        && a.data().iter().zip(b.data()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// `calib.dense_matvec_us`: median CPU time of a fixed dense n = 1024
/// `Mat::matvec_into`, a machine-speed reference no change to the
/// library should move.
pub fn calibrate(reps: usize) -> f64 {
    let n = 1024;
    let a = Mat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5);
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
    let mut y = vec![0.0; n];
    a.matvec_into(&x, &mut y);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            clock::cpu_us_of(|| {
                a.matvec_into(black_box(&x), &mut y);
                black_box(&y);
            })
        })
        .collect();
    crate::report::median(&samples)
}
