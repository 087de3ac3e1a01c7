//! The shared evaluation harness: every method, graded the same way.
//!
//! A [`MethodReport`] collects the quantities the thesis tables report —
//! solve count, nonzero ratio, reconstruction error — plus apply time, on
//! top of the error metrics in [`metrics`](crate::metrics). Reports format
//! themselves as aligned table rows so the CLI, the benches, and the
//! examples all print the same comparison.

use std::fmt::Write as _;
use std::time::Instant;

pub use subsparse_linalg::trace::format_ns;
use subsparse_linalg::{ApplyWorkspace, CouplingOp, Mat, ParallelApply};
use subsparse_substrate::{solver::extract_columns, SubstrateSolver};

use crate::metrics::{error_stats, frac_above, rel_fro_error};
use crate::SparsifyOutcome;

/// Evaluation knobs.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Above this contact count, grade on a column sample instead of the
    /// full dense `G` (forming all of `G` costs `n` solves and `n^2`
    /// memory).
    pub max_dense_n: usize,
    /// Number of reference columns sampled in the large-`n` regime.
    pub sample_cols: usize,
    /// Iterations for the apply-time measurement.
    pub apply_iters: usize,
    /// Column count of the blocked apply-time measurement (the serving
    /// workload of a multi-excitation circuit simulation).
    pub apply_block: usize,
    /// Worker threads for the threaded serving measurement and the
    /// reference materialization (0 = one per CPU, the `resolve_threads`
    /// convention). Results are bit-identical for every value; only the
    /// timings move.
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_dense_n: 2048,
            sample_cols: 64,
            apply_iters: 16,
            apply_block: 16,
            threads: 1,
        }
    }
}

/// Quality and cost of one method run, on shared metrics.
#[derive(Clone, Debug)]
pub struct MethodReport {
    /// Registry name of the method.
    pub method: String,
    /// Number of contacts.
    pub n: usize,
    /// Black-box solves spent building the representation.
    pub solves: usize,
    /// `n / solves`.
    pub solve_reduction: f64,
    /// Stored values the serving path traverses per apply (fast
    /// transform or explicit `Q`, plus `Gw`).
    pub nnz: usize,
    /// `nnz / n^2` (lower is sparser).
    pub nnz_ratio: f64,
    /// Relative Frobenius error over the graded columns.
    pub rel_fro_error: f64,
    /// Largest relative 2-norm error of any graded column.
    pub max_col_error: f64,
    /// Fraction of graded entries off by more than 10% (the thesis's
    /// thresholded-accuracy column).
    pub frac_above_10pct: f64,
    /// Mean wall-clock nanoseconds per single-vector apply, measured
    /// through [`CouplingOp::apply_into`] with a warm workspace (zero
    /// steady-state allocation — the serving path, not the convenience
    /// path).
    pub apply_ns: f64,
    /// Mean wall-clock nanoseconds *per vector* of a blocked apply
    /// ([`CouplingOp::apply_block_into`] on
    /// [`EvalOptions::apply_block`]-wide panels); at or below
    /// [`apply_ns`](Self::apply_ns) whenever blocking pays.
    pub apply_block_ns: f64,
    /// Mean wall-clock nanoseconds per vector of the same blocked apply
    /// through the thread-parallel executor ([`ParallelApply`] at
    /// [`EvalOptions::threads`] workers) — bit-identical output, so the
    /// two blocked columns differ only in wall-clock. Speedup over
    /// [`apply_block_ns`](Self::apply_block_ns) requires physical cores;
    /// on a single-CPU machine this column reports the executor's
    /// overhead instead.
    pub apply_block_threaded_ns: f64,
    /// Worker count the threaded measurement ran with (resolved, so 0 =
    /// auto shows the actual CPU count used).
    pub eval_threads: usize,
    /// Wall-clock milliseconds spent building the representation.
    pub build_ms: f64,
    /// How many columns were graded (`n` when graded densely).
    pub graded_cols: usize,
    /// Coupling invented between uncoupled contacts: entries with an
    /// exactly-zero reference but a nonzero approximation, counted over
    /// the graded columns *plus* the spurious-candidate sample
    /// ([`ErrorStats::spurious_count`](crate::metrics::ErrorStats::spurious_count)
    /// folded across both sweeps).
    pub spurious_count: usize,
    /// Largest approximation magnitude over those spurious entries (0
    /// when there are none).
    pub max_abs_spurious: f64,
    /// Columns scanned for spurious candidates beyond the graded sample
    /// (0 when the grading was dense — nothing is off-column then).
    pub spurious_extra_cols: usize,
}

impl MethodReport {
    /// The aligned header matching [`row`](Self::row).
    pub fn header() -> String {
        format!(
            "{:<10} {:>6} {:>7} {:>8} {:>9} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>9}",
            "method",
            "n",
            "solves",
            "red.",
            "nnz/n^2",
            "fro err",
            "col err",
            ">10%",
            "apply",
            "blk/vec",
            "thr/vec",
            "build"
        )
    }

    /// One aligned table row.
    pub fn row(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{:<10} {:>6} {:>7} {:>8.1} {:>9.4} {:>10.3e} {:>10.3e} {:>7.1}% {:>10} {:>10} {:>10} {:>7.0}ms",
            self.method,
            self.n,
            self.solves,
            self.solve_reduction,
            self.nnz_ratio,
            self.rel_fro_error,
            self.max_col_error,
            100.0 * self.frac_above_10pct,
            format_ns(self.apply_ns),
            format_ns(self.apply_block_ns),
            format_ns(self.apply_block_threaded_ns),
            self.build_ms,
        )
        .unwrap();
        s
    }
}

/// Grades an outcome against reference columns `reference = G(:, cols)`.
///
/// This is the shared core: [`evaluate`] and [`evaluate_dense`] only
/// differ in how they obtain the reference.
///
/// # Panics
///
/// Panics if `reference` has a different row count than the outcome or a
/// different column count than `cols`.
pub fn evaluate_columns(
    method: &str,
    outcome: &SparsifyOutcome,
    reference: &Mat,
    cols: &[usize],
    opts: &EvalOptions,
) -> MethodReport {
    assert_eq!(reference.n_rows(), outcome.n(), "reference/outcome row mismatch");
    assert_eq!(reference.n_cols(), cols.len(), "reference/cols mismatch");
    let n = outcome.n();
    let approx = outcome.rep.dense_columns_threaded(cols, opts.threads);

    let mut max_col_error = 0.0_f64;
    for (k, _) in cols.iter().enumerate() {
        let (rc, ac) = (reference.col(k), approx.col(k));
        let mut diff2 = 0.0;
        let mut ref2 = 0.0;
        for (r, a) in rc.iter().zip(ac) {
            diff2 += (a - r) * (a - r);
            ref2 += r * r;
        }
        if ref2 > 0.0 {
            max_col_error = max_col_error.max((diff2 / ref2).sqrt());
        }
    }

    let timings = time_applies(&outcome.rep, opts);
    let stats = error_stats(reference, &approx);

    MethodReport {
        method: method.to_string(),
        n,
        solves: outcome.solves,
        solve_reduction: outcome.solve_reduction_factor(),
        nnz: outcome.nnz(),
        nnz_ratio: outcome.nnz_ratio(),
        rel_fro_error: rel_fro_error(reference, &approx),
        max_col_error,
        frac_above_10pct: frac_above(reference, &approx, 0.10),
        apply_ns: timings.apply_ns,
        apply_block_ns: timings.apply_block_ns,
        apply_block_threaded_ns: timings.apply_block_threaded_ns,
        eval_threads: timings.threads,
        build_ms: outcome.build_time.as_secs_f64() * 1e3,
        graded_cols: cols.len(),
        spurious_count: stats.spurious_count,
        max_abs_spurious: stats.max_abs_spurious,
        spurious_extra_cols: 0,
    }
}

/// What [`time_applies`] measures: nanoseconds per vector on each of the
/// three serving paths, plus the resolved worker count of the threaded
/// one.
#[derive(Clone, Copy, Debug)]
pub struct ApplyTimings {
    /// Single-vector applies ([`CouplingOp::apply_into`], warm workspace).
    pub apply_ns: f64,
    /// Blocked applies, per vector ([`CouplingOp::apply_block_into`]).
    pub apply_block_ns: f64,
    /// Thread-parallel blocked applies, per vector ([`ParallelApply`]).
    pub apply_block_threaded_ns: f64,
    /// Resolved worker count of the threaded measurement.
    pub threads: usize,
}

/// Times the serving paths of any [`CouplingOp`] on deterministic inputs:
/// single-vector applies, [`EvalOptions::apply_block`]-wide blocked
/// applies, and the same blocked applies through the thread-parallel
/// executor at [`EvalOptions::threads`] workers — all with warm scratch
/// (buffers grown once before the clock starts, so the measurement is of
/// serving, not of allocation). Representations carrying a fast wavelet
/// transform are timed through it — the path a simulator would actually
/// serve on — so the wavelet rows of the method tables reflect the
/// `O(n·p)` transform cost, not the explicit-CSR fallback.
pub fn time_applies<O: CouplingOp + Sync + ?Sized>(op: &O, opts: &EvalOptions) -> ApplyTimings {
    let n = op.n();
    let iters = opts.apply_iters.max(1);
    let block = opts.apply_block.max(1);
    let v: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5).collect();
    let xb = Mat::from_fn(n, block, |i, j| ((i * 37 + j * 11) % 101) as f64 / 101.0 - 0.5);
    let mut y = vec![0.0; n];
    let mut yb = Mat::zeros(0, 0);
    let mut ws = ApplyWorkspace::new();
    let mut pool = ParallelApply::new(opts.threads);
    // warm-up: grow every buffer (serial workspace and per-worker slots)
    // before the clock starts
    op.apply_into(&v, &mut y, &mut ws);
    op.apply_block_into(&xb, &mut yb, &mut ws);
    pool.warm(op, block);

    let t0 = Instant::now();
    for _ in 0..iters {
        op.apply_into(std::hint::black_box(&v), &mut y, &mut ws);
        std::hint::black_box(&y);
    }
    let apply_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let block_iters = (iters / block).max(1);
    let t0 = Instant::now();
    for _ in 0..block_iters {
        op.apply_block_into(std::hint::black_box(&xb), &mut yb, &mut ws);
        std::hint::black_box(&yb);
    }
    let apply_block_ns = t0.elapsed().as_nanos() as f64 / (block_iters * block) as f64;

    let t0 = Instant::now();
    for _ in 0..block_iters {
        pool.apply_block_into(op, std::hint::black_box(&xb), &mut yb);
        std::hint::black_box(&yb);
    }
    let apply_block_threaded_ns = t0.elapsed().as_nanos() as f64 / (block_iters * block) as f64;
    ApplyTimings {
        apply_ns,
        apply_block_ns,
        apply_block_threaded_ns,
        threads: pool.resolved_threads(),
    }
}

/// Grades an outcome against a precomputed dense reference `G`.
pub fn evaluate_dense(
    method: &str,
    outcome: &SparsifyOutcome,
    g: &Mat,
    opts: &EvalOptions,
) -> MethodReport {
    let cols: Vec<usize> = (0..outcome.n()).collect();
    evaluate_columns(method, outcome, g, &cols, opts)
}

/// Grades an outcome against the black-box solver itself: all `n` columns
/// when `n <= opts.max_dense_n`, otherwise a deterministic stride sample
/// of `opts.sample_cols` columns (the thesis's Table 4.3 protocol).
///
/// In the sampled regime, error metrics see only the sampled columns —
/// coupling *invented* between the sample points would go unseen. To
/// close that blind spot, a second deterministic sweep scans
/// spurious-candidate columns (the stride sample offset by half a stride,
/// disjoint from the graded set) for off-column nonzeros of the
/// approximation sitting on exactly-zero reference entries, and folds
/// them into [`MethodReport::spurious_count`].
pub fn evaluate(
    method: &str,
    outcome: &SparsifyOutcome,
    solver: &dyn SubstrateSolver,
    opts: &EvalOptions,
) -> MethodReport {
    let n = outcome.n();
    if n <= opts.max_dense_n {
        let cols: Vec<usize> = (0..n).collect();
        let reference = extract_columns(solver, &cols);
        return evaluate_columns(method, outcome, &reference, &cols, opts);
    }
    let stride = (n / opts.sample_cols.max(1)).max(1);
    let cols: Vec<usize> = (0..n).step_by(stride).collect();
    let reference = extract_columns(solver, &cols);
    let mut report = evaluate_columns(method, outcome, &reference, &cols, opts);

    // spurious-candidate sweep: the half-stride-offset sample, disjoint
    // from the graded columns whenever stride > 1
    let extra: Vec<usize> = (stride / 2..n).step_by(stride).filter(|c| c % stride != 0).collect();
    if !extra.is_empty() {
        let approx = outcome.rep.dense_columns_threaded(&extra, opts.threads);
        let reference = extract_columns(solver, &extra);
        let stats = error_stats(&reference, &approx);
        report.spurious_count += stats.spurious_count;
        report.max_abs_spurious = report.max_abs_spurious.max(stats.max_abs_spurious);
        report.spurious_extra_cols = extra.len();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, SparsifyOptions};
    use subsparse_layout::generators;
    use subsparse_substrate::solver;

    #[test]
    fn report_grades_threshold_method() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let out = Method::Threshold.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap();
        let report = evaluate_dense("threshold", &out, s.matrix(), &EvalOptions::default());
        assert_eq!(report.n, 64);
        assert_eq!(report.graded_cols, 64);
        assert!(report.rel_fro_error < 0.1, "{}", report.rel_fro_error);
        assert!(report.max_col_error >= report.rel_fro_error * 0.1);
        assert!(report.nnz_ratio > 0.0 && report.nnz_ratio < 1.1);
        // all three serving paths were timed
        assert!(report.apply_ns > 0.0);
        assert!(report.apply_block_ns > 0.0);
        assert!(report.apply_block_threaded_ns > 0.0);
        assert_eq!(report.eval_threads, 1);
        // header and row align on column count
        assert!(!MethodReport::header().is_empty());
        assert!(!report.row().is_empty());
    }

    #[test]
    fn sampled_evaluation_uses_stride() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let out = Method::Threshold.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap();
        let opts = EvalOptions { max_dense_n: 16, sample_cols: 8, ..Default::default() };
        let report = evaluate("threshold", &out, &s, &opts);
        assert_eq!(report.graded_cols, 8);
    }

    #[test]
    fn sampled_evaluation_scans_spurious_candidates() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let out = Method::Threshold.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap();
        let opts = EvalOptions { max_dense_n: 16, sample_cols: 8, ..Default::default() };
        let a = evaluate("threshold", &out, &s, &opts);
        // the half-stride-offset sweep ran, disjoint from the graded set
        assert_eq!(a.graded_cols, 8);
        assert_eq!(a.spurious_extra_cols, 8);
        // deterministic: a second run folds the identical count
        let b = evaluate("threshold", &out, &s, &opts);
        assert_eq!(a.spurious_count, b.spurious_count);
        assert_eq!(a.max_abs_spurious, b.max_abs_spurious);
        // dense grading has no off-column blind spot to sweep
        let dense = evaluate("threshold", &out, &s, &EvalOptions::default());
        assert_eq!(dense.spurious_extra_cols, 0);
        assert_eq!(dense.graded_cols, 64);
    }

    #[test]
    fn threaded_evaluation_grades_identically() {
        // the graded numbers are pure functions of the model; running the
        // harness on 2 workers must change timings only
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let out = Method::Threshold.sparsify(&s, &layout, &SparsifyOptions::default()).unwrap();
        let serial = evaluate_dense("threshold", &out, s.matrix(), &EvalOptions::default());
        let threaded_opts = EvalOptions { threads: 2, ..Default::default() };
        let threaded = evaluate_dense("threshold", &out, s.matrix(), &threaded_opts);
        assert_eq!(threaded.eval_threads, 2);
        assert_eq!(serial.rel_fro_error, threaded.rel_fro_error);
        assert_eq!(serial.max_col_error, threaded.max_col_error);
        assert_eq!(serial.frac_above_10pct, threaded.frac_above_10pct);
    }
}
