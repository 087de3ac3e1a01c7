//! The scaling trajectory: extraction and serving cost versus contact
//! count, on the memory-lean pipeline.
//!
//! The paper's claim is asymptotic — the hierarchical method is supposed
//! to *win* as `n` grows — so this runner sweeps `n` in powers of four
//! (regular `k x k` grids, `n = k^2`) and records, per size:
//!
//! * extraction wall-clock and black-box solve count (combine-solves,
//!   through the [`KernelSolver`](subsparse::substrate::KernelSolver) — a
//!   matrix-free synthetic model with `O(n)` memory, so the black box
//!   itself never caps the sweep the way the dense synthetic model's
//!   `n x n` matrix would);
//! * a peak-allocation estimate (live heap bytes, tracked by the
//!   `scaling` binary's counting global allocator — the library reports
//!   whatever [`PeakProbe`] the caller injects);
//! * serving nanoseconds per applied vector on the extracted
//!   representation's fast-transform path, and its nnz ratio.
//!
//! The sweep runs behind an *extract gate*: on a small fixture, the
//! `Gw` that the combine-solves [`extract()`] produces — the extraction
//! the sweep actually runs — must match the exact `n`-solve transform
//! ([`transform_dense`]) on its kept pattern within the wavelet method's
//! documented tolerance. The `scaling` binary exits nonzero when it does
//! not, which is what CI's scale-smoke job gates on.
//!
//! Emitted as `BENCH_scaling.json` (same `{meta, rows}` shape as the
//! other bench records) — the committed trajectory baseline.

use std::fmt::Write as _;
use std::time::Instant;

use subsparse::layout::generators;
use subsparse::sparsify::eval::{format_ns, time_applies, EvalOptions};
use subsparse::substrate::{solver, CountingSolver};
use subsparse::wavelet::{build_basis, extract, transform_dense, ExtractOptions};
use subsparse::{CouplingOp, Method};

/// Grid sides of the full sweep: `n = k^2` gives 1024, 4096, 16384 and
/// 65536 contacts. The default run stops at 16384 (the committed
/// trajectory); `--full` adds the 65536 point, which is hours of
/// single-threaded kernel evaluation.
pub const SWEEP_SIDES: [usize; 4] = [32, 64, 128, 256];

/// Grid sides of the default (committed-baseline) sweep.
pub const DEFAULT_SIDES: [usize; 3] = [32, 64, 128];

/// Grid side of the extract-gate fixture (`n = 256` — small enough that
/// the dense reference transform is cheap even in debug builds).
pub const GATE_SIDE: usize = 16;

/// Physical extent of the sweep layouts; contacts are sized `extent /
/// (2k)` so every side stays collision-free.
pub const EXTENT: f64 = 128.0;

/// Hook into the process allocator for the peak-allocation column.
///
/// The library cannot install a global allocator on behalf of its
/// callers (test binaries have their own), so the `scaling` binary
/// injects a probe over its counting allocator and everyone else passes
/// [`NoProbe`].
pub trait PeakProbe {
    /// Starts a fresh high-water measurement from the current live size.
    fn reset(&self);
    /// Largest live heap size observed since the last reset, in bytes.
    fn peak_bytes(&self) -> usize;
}

/// The no-op probe: peak columns report 0, meaning "not measured".
pub struct NoProbe;

impl PeakProbe for NoProbe {
    fn reset(&self) {}
    fn peak_bytes(&self) -> usize {
        0
    }
}

/// One sweep point of the scaling trajectory.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Contact count (`k^2`).
    pub n: usize,
    /// Grid side.
    pub k: usize,
    /// Quadtree depth of the wavelet basis.
    pub levels: usize,
    /// Black-box solves spent by the combine-solves extraction.
    pub solves: usize,
    /// `n / solves`.
    pub solve_reduction: f64,
    /// Extraction wall-clock, milliseconds (basis build + combine-solves).
    pub extract_ms: f64,
    /// Peak live heap during extraction, bytes (0 = not measured).
    pub peak_alloc_bytes: usize,
    /// Stored nonzeros of the extracted representation.
    pub nnz: usize,
    /// `nnz / n^2` — must *fall* with `n` for the sparsity claim to
    /// cash out asymptotically.
    pub nnz_ratio: f64,
    /// Serving nanoseconds per single-vector apply (fast-transform path,
    /// warm workspace).
    pub serve_ns_per_vector: f64,
}

impl ScalingRow {
    /// One machine-readable JSON object (used by `BENCH_scaling.json`).
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"k\":{},\"levels\":{},\"solves\":{},\"solve_reduction\":{:.2},\"extract_ms\":{:.1},\"peak_alloc_bytes\":{},\"nnz\":{},\"nnz_ratio\":{:.6},\"serve_ns_per_vector\":{:.1}}}",
            self.n,
            self.k,
            self.levels,
            self.solves,
            self.solve_reduction,
            self.extract_ms,
            self.peak_alloc_bytes,
            self.nnz,
            self.nnz_ratio,
            self.serve_ns_per_vector
        )
    }
}

/// The sweep layout at grid side `k` (collision-free contact size).
fn sweep_layout(k: usize) -> subsparse::Layout {
    generators::regular_grid(EXTENT, k, EXTENT / k as f64 / 2.0)
}

/// Runs one sweep point: build the basis, extract through the counting
/// kernel black box, time the serving path.
pub fn run_point(k: usize, probe: &dyn PeakProbe) -> ScalingRow {
    let layout = sweep_layout(k);
    let n = layout.n_contacts();
    let levels = subsparse::choose_levels(&layout, 16).max(2);
    let black_box = CountingSolver::new(solver::kernel(&layout));
    probe.reset();
    let t0 = Instant::now();
    let basis = build_basis(&layout, levels, 2).expect("wavelet basis on a regular grid");
    let rep = extract(&black_box, &basis, &ExtractOptions::default());
    let extract_ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak_alloc_bytes = probe.peak_bytes();
    // serving: the fast-transform path with warm scratch, few iterations
    // (the apply is deterministic; this column tracks growth, not noise)
    let eval = EvalOptions { apply_iters: 8, apply_block: 4, threads: 1, ..Default::default() };
    let serve_ns_per_vector = time_applies(&rep, &eval).apply_ns;
    let solves = black_box.count();
    ScalingRow {
        n,
        k,
        levels,
        solves,
        solve_reduction: n as f64 / solves as f64,
        extract_ms,
        peak_alloc_bytes,
        nnz: rep.nnz(),
        nnz_ratio: rep.nnz() as f64 / (n as f64 * n as f64),
        serve_ns_per_vector,
    }
}

/// Runs the sweep over the given grid sides.
pub fn run_scaling(sides: &[usize], probe: &dyn PeakProbe) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &k in sides {
        println!("\n== scaling sweep (n = {})", k * k);
        let row = run_point(k, probe);
        println!(
            "  n={:<6} solves={:<5} extract={:<10} peak={:<10} serve={}/vector",
            row.n,
            row.solves,
            format!("{:.0}ms", row.extract_ms),
            format_bytes(row.peak_alloc_bytes),
            format_ns(row.serve_ns_per_vector),
        );
        rows.push(row);
    }
    rows
}

/// The extract gate: on the `n = 256` fixture, default-option
/// [`extract()`] must produce a `Gw` whose kept entries are all finite and
/// whose relative Frobenius error against the exact transform
/// ([`transform_dense`]) on that kept pattern is at most
/// [`Method::Wavelet`]'s documented tolerance.
///
/// # Errors
///
/// Returns a description of the first non-finite entry, or of an error
/// above the tolerance.
pub fn extract_gate() -> Result<f64, String> {
    let layout = generators::regular_grid(EXTENT, GATE_SIDE, 2.0);
    let s = solver::synthetic(&layout);
    let basis =
        build_basis(&layout, 2, 2).map_err(|e| format!("extract-gate basis build failed: {e}"))?;
    let rep = extract(&s, &basis, &ExtractOptions::default());
    let exact = transform_dense(s.matrix(), &basis);
    let (mut diff2, mut ref2) = (0.0_f64, 0.0_f64);
    for (i, j, v) in rep.gw.iter() {
        if !v.is_finite() {
            return Err(format!("extract gate: Gw entry ({i},{j}) is {v}"));
        }
        let e = exact[(i, j)];
        diff2 += (v - e) * (v - e);
        ref2 += e * e;
    }
    let err = (diff2 / ref2).sqrt();
    let tol = Method::Wavelet.doc_tolerance();
    if err <= tol {
        Ok(err)
    } else {
        Err(format!(
            "extract gate: relative Frobenius error {err:e} of Gw on its kept pattern \
             exceeds the wavelet tolerance {tol}"
        ))
    }
}

/// Formats the sweep as an aligned table with per-doubling growth factors
/// (each row's serving cost over the previous row's; `n` quadruples per
/// row, so sub-quadratic serving growth shows as a factor well under 16).
pub fn format_rows(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n{:<7} {:>7} {:>7} {:>8} {:>11} {:>11} {:>11} {:>10} {:>11} {:>7}",
        "n", "levels", "solves", "red.", "extract", "peak", "nnz", "nnz/n^2", "serve/vec", "growth"
    )
    .unwrap();
    for (idx, row) in rows.iter().enumerate() {
        let growth = if idx == 0 {
            "-".to_string()
        } else {
            format!("{:.1}x", row.serve_ns_per_vector / rows[idx - 1].serve_ns_per_vector)
        };
        writeln!(
            out,
            "{:<7} {:>7} {:>7} {:>7.1} {:>10.0}ms {:>11} {:>11} {:>10.6} {:>11} {:>7}",
            row.n,
            row.levels,
            row.solves,
            row.solve_reduction,
            row.extract_ms,
            format_bytes(row.peak_alloc_bytes),
            row.nnz,
            row.nnz_ratio,
            format_ns(row.serve_ns_per_vector),
            growth,
        )
        .unwrap();
    }
    out
}

/// Formats a byte count with an adaptive unit.
pub fn format_bytes(b: usize) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

/// Serializes the sweep as the `BENCH_scaling.json` record: the run
/// [`metadata`](crate::run_meta_json) header, the extract-gate verdict
/// and the error it measured ([`extract_gate`]), and one object per
/// sweep point.
pub fn rows_json(rows: &[ScalingRow], gate_err: f64) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
    format!(
        "{{\"meta\":{},\n\"extract_gate_ok\":{},\n\"extract_gate_rel_fro_err\":{:e},\n\"rows\":[\n{}\n]}}\n",
        crate::run_meta_json(EvalOptions::default().apply_iters),
        gate_err <= Method::Wavelet.doc_tolerance(),
        gate_err,
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_gate_passes_on_fixture() {
        let err = extract_gate().expect("extract must match the dense reference transform");
        assert!(err.is_finite() && err > 0.0, "combine-solves error {err}");
    }

    #[test]
    fn smallest_sweep_point_records_everything() {
        let row = run_point(SWEEP_SIDES[0], &NoProbe);
        assert_eq!(row.n, 1024);
        assert_eq!(row.k, 32);
        assert!(row.levels >= 3);
        // combine-solves: far fewer solves than n, at the thesis's ~3x
        assert!(row.solves < row.n / 2, "{} solves at n = {}", row.solves, row.n);
        assert!(row.solve_reduction > 2.0);
        assert!(row.extract_ms > 0.0);
        assert_eq!(row.peak_alloc_bytes, 0); // NoProbe: not measured
        assert!(row.nnz > 0 && row.nnz_ratio < 1.0);
        assert!(row.serve_ns_per_vector > 0.0);
        let json = rows_json(&[row], 3.8e-6);
        assert!(json.contains("\"meta\":{\"available_parallelism\":"));
        assert!(json.contains("\"extract_gate_ok\":true"));
        assert!(json.contains("\"extract_gate_rel_fro_err\":3.8e-6"));
        assert!(json.contains("\"n\":1024") && json.contains("\"serve_ns_per_vector\":"));
    }

    #[test]
    fn table_formats_growth_factors() {
        let row = |n: usize, serve: f64| ScalingRow {
            n,
            k: 32,
            levels: 3,
            solves: n / 3,
            solve_reduction: 3.0,
            extract_ms: 10.0,
            peak_alloc_bytes: 1 << 20,
            nnz: n * 40,
            nnz_ratio: 40.0 / n as f64,
            serve_ns_per_vector: serve,
        };
        let table = format_rows(&[row(1024, 1000.0), row(4096, 4000.0)]);
        assert!(table.contains("4.0x"), "{table}");
        assert!(table.contains("1.0MB"), "{table}");
    }
}
