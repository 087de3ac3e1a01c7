//! Single-vector versus blocked apply throughput, per representation —
//! the serving-side companion of the extraction-side `batch_compare`.
//!
//! The paper's payoff is the *apply*: the sparse representation only
//! matters because a circuit simulator applies it thousands of times.
//! This runner times every [`CouplingOp`] representation at several block
//! widths through the zero-alloc serving path:
//!
//! * `dense` — the extracted `G` itself;
//! * `wavelet` / `wavelet_fwt` — the wavelet *serving* model (the
//!   thresholded `Gwt` of thesis §3.7, sparsity ~6x the raw extraction)
//!   on its two serving paths: the explicit-CSR fallback and the
//!   tree-structured fast wavelet transform;
//! * `wavelet_raw` — the unthresholded `Gws` on the explicit-CSR path
//!   (the historical trajectory row);
//! * `lowrank` / `lowrank_gwt` — the low-rank `Q Gw Q'` form, raw and
//!   thresholded;
//! * `factored` — a factored low-rank `U S V'`.
//!
//! It verifies that every blocked apply is bit-identical to the looped
//! per-vector apply **and** that the two wavelet serving paths agree to
//! ≤ [`FWT_CSR_TOL`] relative error, and reports nanoseconds per vector.
//! The `apply_speed` binary emits the rows as `BENCH_apply_speed.json`,
//! the perf-trajectory file CI tracks.

use std::fmt::Write as _;

use subsparse::layout::generators;
use subsparse::linalg::rng::SmallRng;
use subsparse::linalg::{ApplyWorkspace, CouplingOp, LowRankOp, Mat, ParallelApply};
use subsparse::lowrank::LowRankOptions;
use subsparse::sparsify::eval::format_ns;
use subsparse::substrate::solver;
use subsparse::{extract_lowrank, extract_wavelet};

use crate::timing;

/// Block widths measured per representation (1 = the looped baseline).
pub const BLOCK_WIDTHS: [usize; 3] = [1, 8, 32];

/// Default worker count of the thread-parallel rows (the `--threads`
/// flag of the `apply_speed` binary overrides it; 1 disables them).
pub const DEFAULT_THREADS: usize = 2;

/// Largest relative 2-norm divergence tolerated between the fast-wavelet-
/// transform apply and the explicit-CSR apply of the same representation
/// (they compute the same orthogonal product with different association,
/// so they agree to rounding; anything past this is a real bug).
pub const FWT_CSR_TOL: f64 = 1e-12;

/// One (representation, n, block-width, thread-count) measurement.
#[derive(Clone, Debug)]
pub struct ApplySpeedRow {
    /// Representation name (`dense`, `wavelet`, `wavelet_fwt`,
    /// `wavelet_raw`, `lowrank`, `lowrank_gwt`, `factored` — see the
    /// module docs for what each serves).
    pub method: String,
    /// Contact count.
    pub n: usize,
    /// Vectors per blocked apply (1 = per-vector loop).
    pub block: usize,
    /// Worker threads the apply ran on (1 = the serial serving path,
    /// more = the `ParallelApply` executor).
    pub threads: usize,
    /// Stored nonzeros of the representation.
    pub nnz: usize,
    /// Median wall-clock nanoseconds per applied vector (the number CI
    /// trajectories track — robust to one-off scheduler hiccups).
    pub ns_per_vector: f64,
    /// Fastest-batch nanoseconds per vector (the least noise-contaminated
    /// estimate of the true cost).
    pub ns_min: f64,
    /// Mean nanoseconds per vector over all batches (the historical
    /// central estimate; drifts upward under scheduler noise).
    pub ns_mean: f64,
    /// Whether the result bit-agrees, column for column, with the looped
    /// per-vector apply (always true for `block == 1, threads == 1`;
    /// threaded rows compare the executor's output against the serial
    /// blocked apply, whose columns are already gated against the loop).
    pub bit_equal: bool,
}

impl ApplySpeedRow {
    /// One machine-readable JSON object (used by `BENCH_*.json` emission).
    pub fn json(&self) -> String {
        format!(
            "{{\"method\":\"{}\",\"n\":{},\"block\":{},\"threads\":{},\"nnz\":{},\"ns_per_vector\":{:.1},\"ns_min\":{:.1},\"ns_mean\":{:.1},\"bit_equal\":{}}}",
            self.method, self.n, self.block, self.threads, self.nnz, self.ns_per_vector, self.ns_min, self.ns_mean, self.bit_equal
        )
    }
}

/// Times one op at every block width and thread count, checking
/// blocked-vs-looped and threaded-vs-serial bit-agreement along the way.
fn bench_op(
    method: &str,
    n: usize,
    op: &(dyn CouplingOp + Sync),
    threads: usize,
    min_work: Option<usize>,
    rows: &mut Vec<ApplySpeedRow>,
) {
    let mut ws = ApplyWorkspace::new();
    let mut pool = ParallelApply::new(threads);
    if let Some(mw) = min_work {
        pool = pool.with_min_work(mw);
    }
    let mut y = vec![0.0; n];
    for &block in &BLOCK_WIDTHS {
        let x = Mat::from_fn(n, block, |i, j| ((i * 37 + j * 11) % 101) as f64 / 101.0 - 0.5);
        let mut yb = Mat::zeros(0, 0);
        // correctness gate: every blocked column bit-equals the looped apply
        op.apply_block_into(&x, &mut yb, &mut ws);
        let mut bit_equal = true;
        for j in 0..block {
            op.apply_into(x.col(j), &mut y, &mut ws);
            if yb.col(j) != y.as_slice() {
                bit_equal = false;
            }
        }
        let label = format!("{method:<12} n={n:<5} b={block}");
        let stats = if block == 1 {
            timing::bench_stats(&label, || {
                op.apply_into(std::hint::black_box(x.col(0)), &mut y, &mut ws);
                std::hint::black_box(&y);
            })
        } else {
            timing::bench_stats(&label, || {
                op.apply_block_into(std::hint::black_box(&x), &mut yb, &mut ws);
                std::hint::black_box(&yb);
            })
        };
        let per = if block == 1 { 1.0 } else { block as f64 };
        rows.push(ApplySpeedRow {
            method: method.to_string(),
            n,
            block,
            threads: 1,
            nnz: op.nnz(),
            ns_per_vector: stats.p50 / per,
            ns_min: stats.min / per,
            ns_mean: stats.mean / per,
            bit_equal,
        });
        // the threaded row: same inputs through the parallel executor,
        // gated bit-for-bit against the serial blocked result. Rows
        // record the workers the executor actually engages; when it
        // would degrade to the inline serial path (1 worker) the row is
        // skipped rather than re-measuring serial under a threaded label.
        let engaged = pool.planned_workers(op, block);
        if engaged <= 1 {
            continue;
        }
        let mut yt = Mat::zeros(0, 0);
        pool.apply_block_into(op, &x, &mut yt);
        let mut t_equal = true;
        for j in 0..block {
            if yt.col(j) != yb.col(j) {
                t_equal = false;
            }
        }
        let label = format!("{method:<12} n={n:<5} b={block} t={engaged}");
        let stats = timing::bench_stats(&label, || {
            pool.apply_block_into(op, std::hint::black_box(&x), &mut yt);
            std::hint::black_box(&yt);
        });
        rows.push(ApplySpeedRow {
            method: method.to_string(),
            n,
            block,
            threads: engaged,
            nnz: op.nnz(),
            ns_per_vector: stats.p50 / block as f64,
            ns_min: stats.min / block as f64,
            ns_mean: stats.mean / block as f64,
            bit_equal: t_equal,
        });
    }
}

/// Measures raw dispatch hand-off latency: a trivial sharded closure
/// (`workers` shards of one `black_box` each) dispatched through the
/// persistent executor pool behind every threaded path. This wake-run-park
/// cycle is the cost the serving layer's `DEFAULT_MIN_WORK_PER_WORKER`
/// is sized against. Emitted as a `handoff_pool` row with
/// `ns_per_vector` holding nanoseconds per dispatch (`n = 0`: no
/// operator is involved).
pub fn bench_handoff(threads: usize, rows: &mut Vec<ApplySpeedRow>) {
    let workers = subsparse::linalg::resolve_threads(threads).max(2);
    let ex = subsparse::linalg::Executor::global();
    ex.run(workers, &|_| {}); // spawn + park the pool's workers once
    let pool_stats = timing::bench_stats(&format!("{:<12} t={workers}", "handoff_pool"), || {
        ex.run(workers, &|s| {
            std::hint::black_box(s);
        });
    });
    rows.push(ApplySpeedRow {
        method: "handoff_pool".to_string(),
        n: 0,
        block: 1,
        threads: workers,
        nnz: 0,
        ns_per_vector: pool_stats.p50,
        ns_min: pool_stats.min,
        ns_mean: pool_stats.mean,
        bit_equal: true,
    });
}

/// The full comparison's result: the timing rows plus the worst observed
/// divergence between the two wavelet serving paths (gated against
/// [`FWT_CSR_TOL`] by the binary and CI).
#[derive(Clone, Debug)]
pub struct ApplySpeedReport {
    /// One row per (representation, n, block width).
    pub rows: Vec<ApplySpeedRow>,
    /// Largest relative 2-norm difference between `wavelet_fwt` and
    /// `wavelet` applies of the same vectors, over every n measured.
    pub fwt_vs_csr_rel_err: f64,
}

/// Largest relative 2-norm divergence between the two paths' applies of
/// a few deterministic vectors.
fn fwt_vs_csr_err(fast: &dyn CouplingOp, slow: &dyn CouplingOp, n: usize) -> f64 {
    let mut ws = ApplyWorkspace::new();
    let mut ya = vec![0.0; n];
    let mut yb = vec![0.0; n];
    let mut worst = 0.0_f64;
    for seed in 0..3usize {
        let x: Vec<f64> =
            (0..n).map(|i| ((i * 37 + seed * 13) % 101) as f64 / 101.0 - 0.5).collect();
        fast.apply_into(&x, &mut ya, &mut ws);
        slow.apply_into(&x, &mut yb, &mut ws);
        let mut diff2 = 0.0;
        let mut ref2 = 0.0;
        for (a, b) in ya.iter().zip(&yb) {
            diff2 += (a - b) * (a - b);
            ref2 += b * b;
        }
        if ref2 > 0.0 {
            worst = worst.max((diff2 / ref2).sqrt());
        }
    }
    worst
}

/// Runs the full comparison: every representation at every block width,
/// serial and on `threads` workers (1 skips the threaded rows), on a
/// quick grid (64 contacts) or the full sizes (256 and 1024 — the regime
/// where the fast transform must win for the sparse serving claim to
/// cash out).
///
/// `min_work` overrides the executors' min-work-per-worker dispatch
/// threshold (`Some(0)` forces every threaded row to actually engage the
/// pool; `None` keeps the serving default, under which applies too small
/// to amortize a hand-off run inline and emit no threaded row).
pub fn run_apply_speed(quick: bool, threads: usize, min_work: Option<usize>) -> ApplySpeedReport {
    // resolve the knob up front (0 = one worker per CPU) so the threaded
    // rows run — and record their real worker count — under `--threads 0`
    let threads = subsparse::linalg::resolve_threads(threads);
    let sides: &[usize] = if quick { &[8] } else { &[16, 32] };
    let mut rows = Vec::new();
    let mut fwt_vs_csr_rel_err = 0.0_f64;
    for &k in sides {
        let layout = generators::regular_grid(128.0, k, 2.0);
        let n = layout.n_contacts();
        let dense = solver::synthetic(&layout);
        let levels = if k <= 8 { 2 } else { 3 };
        timing::group(&format!("apply throughput ({n} contacts)"));
        let wavelet = extract_wavelet(&dense, &layout, levels, 2).expect("wavelet extraction");
        // the wavelet *serving* model is the thresholded `Gwt` (thesis
        // §3.7: threshold picked so sparsity is ~6x the raw extraction);
        // `wavelet`/`wavelet_fwt` measure that model on its two serving
        // paths, `wavelet_raw` keeps the unthresholded `Gws` trajectory
        let (wavelet_gwt, _) =
            wavelet.rep.thresholded_to_sparsity(wavelet.rep.sparsity_factor() * 6.0);
        let wavelet_gwt_csr = wavelet_gwt.without_fwt();
        let wavelet_raw_csr = wavelet.rep.without_fwt();
        // agreement gate on both the raw and the thresholded model
        fwt_vs_csr_rel_err =
            fwt_vs_csr_rel_err.max(fwt_vs_csr_err(&wavelet.rep, &wavelet_raw_csr, n));
        fwt_vs_csr_rel_err =
            fwt_vs_csr_rel_err.max(fwt_vs_csr_err(&wavelet_gwt, &wavelet_gwt_csr, n));
        let (lowrank, _) =
            extract_lowrank(&dense, &layout, levels, &LowRankOptions::default()).expect("low-rank");
        let (thresh, _) = lowrank.rep.thresholded_to_sparsity(lowrank.rep.sparsity_factor() * 6.0);
        // a factored op with representative rank; random factors — apply
        // cost depends on shapes, not values
        let r = (n / 16).clamp(4, 64);
        let mut rng = SmallRng::seed_from_u64(7);
        let u = Mat::from_fn(n, r, |_, _| rng.range_f64(-1.0, 1.0));
        let v = Mat::from_fn(n, r, |_, _| rng.range_f64(-1.0, 1.0));
        let s: Vec<f64> = (0..r).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let factored = LowRankOp::new(u, s, v);

        bench_op("dense", n, dense.matrix(), threads, min_work, &mut rows);
        bench_op("wavelet_raw", n, &wavelet_raw_csr, threads, min_work, &mut rows);
        bench_op("wavelet", n, &wavelet_gwt_csr, threads, min_work, &mut rows);
        bench_op("wavelet_fwt", n, &wavelet_gwt, threads, min_work, &mut rows);
        bench_op("lowrank", n, &lowrank.rep, threads, min_work, &mut rows);
        bench_op("lowrank_gwt", n, &thresh, threads, min_work, &mut rows);
        bench_op("factored", n, &factored, threads, min_work, &mut rows);
    }
    ApplySpeedReport { rows, fwt_vs_csr_rel_err }
}

/// Formats rows as an aligned summary table: p50/min/mean ns/vector per
/// block width, plus the blocked speedup over the looped baseline
/// (computed on p50, the number the trajectory tracks).
pub fn format_rows(rows: &[ApplySpeedRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n{:<12} {:>6} {:>6} {:>7} {:>9} {:>12} {:>12} {:>12} {:>9} {:>6}",
        "method",
        "n",
        "block",
        "thr",
        "nnz",
        "p50/vector",
        "min/vector",
        "mean/vector",
        "speedup",
        "bits"
    )
    .unwrap();
    for row in rows {
        let single = rows
            .iter()
            .find(|r| r.method == row.method && r.n == row.n && r.block == 1 && r.threads == 1)
            .map_or(row.ns_per_vector, |r| r.ns_per_vector);
        writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>7} {:>9} {:>12} {:>12} {:>12} {:>8.2}x {:>6}",
            row.method,
            row.n,
            row.block,
            row.threads,
            row.nnz,
            format_ns(row.ns_per_vector),
            format_ns(row.ns_min),
            format_ns(row.ns_mean),
            single / row.ns_per_vector,
            if row.bit_equal { "ok" } else { "DIFF" },
        )
        .unwrap();
    }
    out
}

/// Serializes the report as the `BENCH_apply_speed.json` record: a run
/// [`metadata`](crate::run_meta_json) header plus one object per row.
pub fn rows_json(rows: &[ApplySpeedRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
    format!(
        "{{\"meta\":{},\n\"rows\":[\n{}\n]}}\n",
        crate::run_meta_json(timing::BATCHES),
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_rows_cover_methods_blocks_and_threads() {
        // min_work 0: the quick fixture (64 contacts) sits below the
        // serving threshold, and this test is about the threaded rows
        let report = run_apply_speed(true, 2, Some(0));
        let rows = &report.rows;
        let serial = rows.iter().filter(|r| r.threads == 1).count();
        let threaded: Vec<_> = rows.iter().filter(|r| r.threads > 1).collect();
        assert_eq!(serial, 7 * BLOCK_WIDTHS.len());
        // wide blocks shard columns on every representation; a 1-column
        // block serves inline on every one of them, emitting no row
        let wide = BLOCK_WIDTHS.iter().filter(|&&b| b > 1).count();
        assert_eq!(threaded.len(), 7 * wide);
        assert!(threaded.iter().all(|r| r.threads == 2 && r.block > 1));
        assert!(rows.iter().all(|r| r.bit_equal), "an apply diverged");
        assert!(rows.iter().all(|r| r.ns_per_vector > 0.0));
        // min over batches can never exceed the median batch, and every
        // estimate is a positive time
        assert!(rows.iter().all(|r| r.ns_min > 0.0 && r.ns_min <= r.ns_per_vector));
        assert!(rows.iter().all(|r| r.ns_mean > 0.0));
        assert!(
            report.fwt_vs_csr_rel_err <= FWT_CSR_TOL,
            "wavelet serving paths diverged: {:.3e}",
            report.fwt_vs_csr_rel_err
        );
        let json = rows_json(rows);
        assert!(json.contains("\"method\":\"wavelet_fwt\"") && json.contains("\"block\":32"));
        assert!(json.contains("\"threads\":1") && json.contains("\"threads\":2"));
        // the run-metadata stamp and the noise-robust statistics
        assert!(json.contains("\"meta\":{\"available_parallelism\":"));
        assert!(json.contains("\"build_profile\":") && json.contains("\"repeats\":"));
        // provenance under the names the benchmark package prints
        for field in ["\"git_rev\":\"", "\"rustc\":\"", "\"cpu\":\""] {
            assert!(json.contains(field), "meta lacks {field}");
        }
        assert!(json.contains("\"ns_min\":") && json.contains("\"ns_mean\":"));
        assert!(format_rows(rows).contains("dense"));
        // the factored transform must store less than the flat-Q rows
        let nnz_of = |m: &str| rows.iter().find(|r| r.method == m).unwrap().nnz;
        assert!(nnz_of("wavelet_fwt") < nnz_of("wavelet"));
        // threads = 1 keeps the historical shape: serial rows only
        let serial_only = run_apply_speed(true, 1, None);
        assert_eq!(serial_only.rows.len(), 7 * BLOCK_WIDTHS.len());
        assert!(serial_only.rows.iter().all(|r| r.threads == 1));
    }
}
