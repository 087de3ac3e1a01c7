//! The scaling trajectory: extraction and serving cost versus contact
//! count, on the memory-lean pipeline.
//!
//! The paper's claim is asymptotic — the hierarchical method is supposed
//! to *win* as `n` grows — so this runner sweeps `n` in powers of four
//! (regular `k x k` grids, `n = k^2`) and records, per size:
//!
//! * extraction wall-clock (median and range of [`RUNS`] runs) and
//!   black-box solve count (combine-solves,
//!   through the [`KernelSolver`](subsparse::substrate::KernelSolver) — a
//!   matrix-free synthetic model with `O(n)` memory, so the black box
//!   itself never caps the sweep the way the dense synthetic model's
//!   `n x n` matrix would);
//! * a peak-allocation estimate (live heap bytes, tracked by the
//!   `scaling` binary's counting global allocator — the library reports
//!   whatever [`PeakProbe`] the caller injects);
//! * serving nanoseconds per applied vector on the extracted
//!   representation's fast-transform path (median and range), and its
//!   nnz ratio.
//!
//! Every point runs [`RUNS`] times, n = 16384 included: one run per point
//! could not resolve what it recorded (two back-to-back runs of one
//! binary read n = 1024 at 66.6 and 105.7 ms). The runs go round-robin
//! across the points (every point once, then every point again), so each
//! point's range spans the host's drift over the whole sweep instead of
//! over its own few seconds.
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

/// Runs per sweep point: each row records the median and the range.
pub const RUNS: usize = 3;

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

/// The median and range of one timed quantity over its runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median (the mean of the middle two at an even count).
    pub median: f64,
    /// Smallest run.
    pub min: f64,
    /// Largest run.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len() / 2;
        let median = if v.len() % 2 == 1 { v[m] } else { (v[m - 1] + v[m]) / 2.0 };
        Spread { median, min: v[0], max: v[v.len() - 1] }
    }

    /// `"<key>":median,"<key>_min":min,"<key>_max":max`, one decimal.
    fn json(&self, key: &str) -> String {
        format!(
            "\"{key}\":{:.1},\"{key}_min\":{:.1},\"{key}_max\":{:.1}",
            self.median, self.min, self.max
        )
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
    /// Extraction wall-clock over the runs, milliseconds (basis build +
    /// combine-solves).
    pub extract_ms: Spread,
    /// Peak live heap during extraction, the largest over the runs, bytes
    /// (0 = not measured).
    pub peak_alloc_bytes: usize,
    /// Stored nonzeros of the extracted representation.
    pub nnz: usize,
    /// `nnz / n^2` — must *fall* with `n` for the sparsity claim to
    /// cash out asymptotically.
    pub nnz_ratio: f64,
    /// Serving nanoseconds per single-vector apply over the runs
    /// (fast-transform path, warm workspace).
    pub serve_ns_per_vector: Spread,
}

impl ScalingRow {
    /// One machine-readable JSON object (used by `BENCH_scaling.json`).
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"k\":{},\"levels\":{},\"solves\":{},\"solve_reduction\":{:.2},{},\"peak_alloc_bytes\":{},\"nnz\":{},\"nnz_ratio\":{:.6},{}}}",
            self.n,
            self.k,
            self.levels,
            self.solves,
            self.solve_reduction,
            self.extract_ms.json("extract_ms"),
            self.peak_alloc_bytes,
            self.nnz,
            self.nnz_ratio,
            self.serve_ns_per_vector.json("serve_ns_per_vector")
        )
    }
}

/// The sweep layout at grid side `k` (collision-free contact size).
fn sweep_layout(k: usize) -> subsparse::Layout {
    generators::regular_grid(EXTENT, k, EXTENT / k as f64 / 2.0)
}

/// One extraction and serving measurement of one sweep point.
struct Run {
    n: usize,
    levels: usize,
    extract_ms: f64,
    serve_ns: f64,
    peak_alloc_bytes: usize,
    solves: usize,
    nnz: usize,
}

/// Builds the grid of side `k` and its basis, extracts through the
/// counting kernel black box and times the serving path, once. Nothing
/// of the run outlives it, so no point's heap rides in another's peak.
fn run_once(k: usize, probe: &dyn PeakProbe) -> Run {
    let layout = sweep_layout(k);
    let n = layout.n_contacts();
    let levels = subsparse::choose_levels(&layout, 16).max(2);
    // serving: the fast-transform path with warm scratch, few iterations
    let eval = EvalOptions { apply_iters: 8, apply_block: 4, threads: 1, ..Default::default() };
    let black_box = CountingSolver::new(solver::kernel(&layout));
    probe.reset();
    let t0 = Instant::now();
    let basis = build_basis(&layout, levels, 2).expect("wavelet basis on a regular grid");
    let rep = extract(&black_box, &basis, &ExtractOptions::default());
    let extract_ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak_alloc_bytes = probe.peak_bytes();
    let serve_ns = time_applies(&rep, &eval).apply_ns;
    let (solves, nnz) = (black_box.count(), rep.nnz());
    Run { n, levels, extract_ms, serve_ns, peak_alloc_bytes, solves, nnz }
}

/// Runs one sweep point [`RUNS`] times.
pub fn run_point(k: usize, probe: &dyn PeakProbe) -> ScalingRow {
    run_scaling(&[k], probe).remove(0)
}

/// Runs the sweep over the given grid sides: [`RUNS`] rounds of one run
/// per point.
pub fn run_scaling(sides: &[usize], probe: &dyn PeakProbe) -> Vec<ScalingRow> {
    let mut runs: Vec<Vec<Run>> = sides.iter().map(|_| Vec::new()).collect();
    for round in 1..=RUNS {
        println!("\n== scaling sweep, round {round} of {RUNS}");
        for (&k, runs) in sides.iter().zip(&mut runs) {
            let run = run_once(k, probe);
            println!(
                "  n={:<6} solves={:<5} extract={:<10} peak={:<10} serve={}/vector",
                run.n,
                run.solves,
                format!("{:.0}ms", run.extract_ms),
                format_bytes(run.peak_alloc_bytes),
                format_ns(run.serve_ns),
            );
            runs.push(run);
        }
    }
    sides
        .iter()
        .zip(&runs)
        .map(|(&k, runs)| {
            let last = runs.last().expect("RUNS > 0");
            let spread = |f: fn(&Run) -> f64| Spread::of(&runs.iter().map(f).collect::<Vec<_>>());
            ScalingRow {
                n: last.n,
                k,
                levels: last.levels,
                solves: last.solves,
                solve_reduction: last.n as f64 / last.solves as f64,
                extract_ms: spread(|r| r.extract_ms),
                peak_alloc_bytes: runs.iter().map(|r| r.peak_alloc_bytes).max().unwrap_or(0),
                nnz: last.nnz,
                nnz_ratio: last.nnz as f64 / (last.n as f64 * last.n as f64),
                serve_ns_per_vector: spread(|r| r.serve_ns),
            }
        })
        .collect()
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

/// Formats the sweep as an aligned table (medians, with the extraction's
/// range) with per-doubling growth factors (each row's median serving
/// cost over the previous row's; `n` quadruples per row, so
/// sub-quadratic serving growth shows as a factor well under 16).
pub fn format_rows(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n{:<7} {:>7} {:>7} {:>8} {:>11} {:>17} {:>11} {:>11} {:>10} {:>11} {:>7}",
        "n",
        "levels",
        "solves",
        "red.",
        "extract",
        "range",
        "peak",
        "nnz",
        "nnz/n^2",
        "serve/vec",
        "growth"
    )
    .unwrap();
    for (idx, row) in rows.iter().enumerate() {
        let growth = if idx == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.1}x",
                row.serve_ns_per_vector.median / rows[idx - 1].serve_ns_per_vector.median
            )
        };
        writeln!(
            out,
            "{:<7} {:>7} {:>7} {:>7.1} {:>10.0}ms {:>17} {:>11} {:>11} {:>10.6} {:>11} {:>7}",
            row.n,
            row.levels,
            row.solves,
            row.solve_reduction,
            row.extract_ms.median,
            format!("{:.0}-{:.0}ms", row.extract_ms.min, row.extract_ms.max),
            format_bytes(row.peak_alloc_bytes),
            row.nnz,
            row.nnz_ratio,
            format_ns(row.serve_ns_per_vector.median),
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
/// and the error it measured ([`extract_gate`]), the runs per point, and
/// one object per sweep point.
pub fn rows_json(rows: &[ScalingRow], gate_err: f64) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
    format!(
        "{{\"meta\":{},\n\"extract_gate_ok\":{},\n\"extract_gate_rel_fro_err\":{:e},\n\"runs\":{RUNS},\n\"rows\":[\n{}\n]}}\n",
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
        let e = row.extract_ms;
        assert!(0.0 < e.min && e.min <= e.median && e.median <= e.max, "{e:?}");
        assert_eq!(row.peak_alloc_bytes, 0); // NoProbe: not measured
        assert!(row.nnz > 0 && row.nnz_ratio < 1.0);
        assert!(row.serve_ns_per_vector.min > 0.0);
        let json = rows_json(&[row], 3.8e-6);
        assert!(json.contains("\"meta\":{\"available_parallelism\":"));
        assert!(json.contains("\"extract_gate_ok\":true"));
        assert!(json.contains("\"extract_gate_rel_fro_err\":3.8e-6"));
        assert!(json.contains("\"n\":1024") && json.contains("\"serve_ns_per_vector\":"));
        assert!(json.contains("\"extract_ms_min\":") && json.contains("\"extract_ms_max\":"));
        assert!(json.contains("\"runs\":3"));
    }

    #[test]
    fn spread_takes_the_median_and_range() {
        assert_eq!(Spread::of(&[3.0, 1.0, 2.0]), Spread { median: 2.0, min: 1.0, max: 3.0 });
        assert_eq!(Spread::of(&[4.0, 1.0, 2.0, 8.0]), Spread { median: 3.0, min: 1.0, max: 8.0 });
    }

    #[test]
    fn table_formats_growth_factors() {
        let row = |n: usize, serve: f64| ScalingRow {
            n,
            k: 32,
            levels: 3,
            solves: n / 3,
            solve_reduction: 3.0,
            extract_ms: Spread { median: 10.0, min: 9.0, max: 12.0 },
            peak_alloc_bytes: 1 << 20,
            nnz: n * 40,
            nnz_ratio: 40.0 / n as f64,
            serve_ns_per_vector: Spread { median: serve, min: serve, max: serve },
        };
        let table = format_rows(&[row(1024, 1000.0), row(4096, 4000.0)]);
        assert!(table.contains("4.0x"), "{table}");
        assert!(table.contains("1.0MB"), "{table}");
        assert!(table.contains("9-12ms"), "{table}");
    }
}
