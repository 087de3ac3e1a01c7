//! The `subsparse` benchmark: time-to-model and apply cost, end to end,
//! with a traced run that splits both by crate.
//!
//! One run executes one workload (see [`Workload`]) for a given seed and
//! duration and returns an [`Outcome`]: the end-to-end metrics of
//! [`report::END_TO_END`] from an untraced run, or the per-layer metrics of
//! [`report::PER_LAYER`] from a traced one. Timings are read from the
//! process CPU clock ([`clock`]), with wall-clock companions printed.
//! `README.md` beside this crate lists why each workload exists and which
//! end-to-end metric each layer metric should move.

pub mod alloc;
pub mod clock;
pub mod pipeline;
pub mod report;

use std::time::Instant;

use subsparse::{trace, Method};

pub use pipeline::{Scale, Workload};
pub use report::{Metric, Outcome};

use pipeline::{
    extract, make_inputs, model_failures, ColErr, Extracted, Reference, ServeLayers, ServeStats,
    Served,
};
use report::{median, quantile, sorted, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Problem sizes.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration (wall-clock): the extraction loop of the extract
    /// workloads, the serving loop of `serve_mixed`.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Set-ups per run of the extract workloads (layout and black box only).
const EXTRACT_SETUPS: usize = 5;
/// Set-ups per run of `serve_mixed`, each including an extraction.
const SERVE_SETUPS: usize = 3;
/// Bytes one stored `Gw` nonzero moves per applied vector: an 8-byte
/// value and a 4-byte column index.
const BYTES_PER_NNZ: usize = 12;
/// Share of the machine's CPU time stolen by the hypervisor above which a
/// run's wall-clock figures are flagged as not comparable.
const STEAL_LIMIT: f64 = 0.05;

/// Sizes that differ between the benchmark and its self-tests.
struct Sizes {
    sample_cols: usize,
    warm_cycles: usize,
    /// Repetitions of the request pattern per serving window.
    window_patterns: usize,
    /// Single-vector requests the untraced serving pass serves at least.
    min_singles: usize,
    layer_rounds: usize,
    calib_reps: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                sample_cols: 128,
                warm_cycles: 64,
                window_patterns: 25,
                min_singles: 1400,
                layer_rounds: 400,
                calib_reps: 41,
            },
            Scale::Tiny => Sizes {
                sample_cols: 8,
                warm_cycles: 2,
                window_patterns: 2,
                min_singles: 0,
                layer_rounds: 4,
                calib_reps: 3,
            },
        }
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a description when an input cannot be generated or extraction
/// rejects it; correctness misses are counted in [`Outcome::failed`]
/// instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = Sizes::of(cfg.scale);
    let ticks0 = clock::cpu_ticks();
    trace::set_enabled(false);
    trace::reset();
    let calib_us = pipeline::calibrate(sizes.calib_reps);
    let method = cfg.workload.method();
    let reference = Reference::new(
        &make_inputs(cfg.workload, cfg.scale, cfg.seed)?,
        cfg.seed,
        sizes.sample_cols,
    );
    // the traced run alternates untraced and traced repetitions (set-ups,
    // extractions, serving windows), so each traced one has an untraced
    // partner measured just before it: their differences give the tracing
    // overhead
    let traced_at = |i: usize| cfg.trace && i % 2 == 1;
    let mut log = Log::default();

    let mut served = if cfg.workload == Workload::ServeMixed {
        let mut last = None;
        for r in 0..SERVE_SETUPS {
            let (t0, c0) = (Instant::now(), clock::cpu_s());
            let inputs = make_inputs(cfg.workload, cfg.scale, cfg.seed)?;
            let x = extract(&inputs, traced_at(r))?;
            let (served, failures) = Served::new(&x.rep, cfg.seed, sizes.warm_cycles);
            log.setup.push((clock::cpu_s() - c0, t0.elapsed().as_secs_f64()));
            log.check(failures);
            log.record(x, &reference, method, traced_at(r));
            last = Some(served);
        }
        last.expect("SERVE_SETUPS is positive")
    } else {
        let mut inputs = None;
        for _ in 0..EXTRACT_SETUPS {
            let (t0, c0) = (Instant::now(), clock::cpu_s());
            inputs = Some(make_inputs(cfg.workload, cfg.scale, cfg.seed)?);
            log.setup.push((clock::cpu_s() - c0, t0.elapsed().as_secs_f64()));
        }
        let inputs = inputs.expect("EXTRACT_SETUPS is positive");
        let t0 = Instant::now();
        let mut model = None;
        for i in 0.. {
            model =
                Some(log.record(extract(&inputs, traced_at(i))?, &reference, method, traced_at(i)));
            if t0.elapsed().as_secs_f64() >= cfg.seconds && (!cfg.trace || traced_at(i)) {
                break;
            }
        }
        let (served, failures) =
            Served::new(&model.expect("the loop extracts"), cfg.seed, sizes.warm_cycles);
        log.check(failures);
        served
    };

    // the extract workloads serve their model only for `min_singles`
    let serve_seconds = if cfg.workload == Workload::ServeMixed { cfg.seconds } else { 0.0 };
    let t0 = Instant::now();
    for w in 0.. {
        let traced = traced_at(w);
        trace::set_enabled(traced);
        let window = served.serve(sizes.window_patterns);
        trace::set_enabled(false);
        trace::reset();
        log.windows.push(Window::of(&window));
        log.attempted += window.requests;
        log.failed += window.failures;
        log.serves[usize::from(traced)].append(window);
        if t0.elapsed().as_secs_f64() >= serve_seconds
            && log.serves[0].single_cpu_us.len() >= sizes.min_singles
            && (!cfg.trace || traced)
        {
            break;
        }
    }
    let layers = cfg.trace.then(|| {
        trace::set_enabled(true);
        let layers = served.layers(sizes.layer_rounds);
        trace::set_enabled(false);
        layers
    });
    let mut outcome = log.outcome(cfg, calib_us, layers);
    if let (Some((busy0, stolen0)), Some((busy1, stolen1))) = (ticks0, clock::cpu_ticks()) {
        let (busy, stolen) = (busy1 - busy0, stolen1 - stolen0);
        let share = stolen as f64 / (busy + stolen).max(1) as f64;
        let verdict = if share > STEAL_LIMIT {
            "FLAGGED: above the limit; this run's wall-clock figures are not comparable \
             with other runs and no bounded metric is read from them"
        } else {
            "within the limit"
        };
        outcome.notes.push(format!(
            "host_steal_share {share} (CPU time the hypervisor took from this machine during the \
             run; limit {STEAL_LIMIT}: {verdict})"
        ));
    }
    Ok(outcome)
}

/// One extraction's numbers, without its model.
struct Row {
    cpu_s: f64,
    wall_s: f64,
    peak_bytes: usize,
    calls: usize,
    solves: usize,
    cg_iters: usize,
    col_err: ColErr,
    nnz_ratio: f64,
    layers: pipeline::ExtractLayers,
}

/// Medians of one serving window, CPU µs.
struct Window {
    single: f64,
    block: f64,
}

impl Window {
    fn of(stats: &ServeStats) -> Window {
        Window { single: median(&stats.single_cpu_us), block: median(&stats.block_cpu_us) }
    }
}

/// Everything one run measured, untraced (index 0) and traced (index 1).
#[derive(Default)]
struct Log {
    /// CPU and wall seconds of each set-up.
    setup: Vec<(f64, f64)>,
    rows: [Vec<Row>; 2],
    serves: [ServeStats; 2],
    /// Serving windows in order; in a traced run they alternate untraced,
    /// traced.
    windows: Vec<Window>,
    attempted: usize,
    failed: usize,
}

impl Log {
    /// Counts one set-up check and its failures.
    fn check(&mut self, failures: usize) {
        self.attempted += 1;
        self.failed += failures;
    }

    /// Grades one extraction (outside its timing) and keeps its numbers;
    /// returns the model.
    fn record(
        &mut self,
        x: Extracted,
        reference: &Reference,
        method: Method,
        traced: bool,
    ) -> subsparse::BasisRep {
        let col_err = reference.col_err(&x.rep);
        self.check(model_failures(&x.rep, col_err, method));
        let n = x.rep.n() as f64;
        self.rows[usize::from(traced)].push(Row {
            cpu_s: x.cpu_s,
            wall_s: x.wall_s,
            peak_bytes: x.peak_bytes,
            calls: x.calls,
            solves: x.solves,
            cg_iters: x.cg_iters,
            col_err,
            nnz_ratio: x.rep.gw.nnz() as f64 / (n * n),
            layers: x.layers,
        });
        x.rep
    }

    fn outcome(&self, cfg: &Config, calib_us: f64, layers: Option<ServeLayers>) -> Outcome {
        let mut notes = Vec::new();
        let untraced = self.e2e(0);
        self.describe(&mut notes, 0, &untraced);
        let metrics = match layers {
            None => untraced.to_metrics(&END_TO_END),
            Some(layers) => {
                self.describe(&mut notes, 1, &self.e2e(1));
                let (m, pairs) = self.per_layer(&layers, calib_us);
                notes.push(format!(
                    "trace.overhead_*: medians of traced-minus-untraced differences of adjacent \
                     repetitions, {} extraction pairs and {} serving-window pairs",
                    pairs.0, pairs.1
                ));
                m.to_metrics(&PER_LAYER)
            }
        };
        notes.push(format!(
            "failed_frac {} ratio ({} failed of {} attempted: extractions, requests, set-up checks; \
             {} requests checked bit-for-bit against the serial path)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.serves[0].checked + self.serves[1].checked,
        ));
        notes.push(format!(
            "workload {} seed {} seconds {}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds
        ));
        Outcome { metrics, notes, attempted: self.attempted, failed: self.failed, calib_us }
    }

    /// The end-to-end values of one pass (0 untraced, 1 traced).
    fn e2e(&self, pass: usize) -> Values {
        let (rows, serve) = (&self.rows[pass], &self.serves[pass]);
        let of_last = |f: fn(&Row) -> f64| rows.last().map_or(f64::NAN, f);
        let of_rows = |f: fn(&Row) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
        let singles = sorted(&serve.single_cpu_us);
        Values(vec![
            ("setup_s", median(&self.setup.iter().map(|s| s.0).collect::<Vec<_>>())),
            ("extract_cpu_s", of_rows(|r| r.cpu_s)),
            ("solves", of_last(|r| r.solves as f64)),
            ("extract_peak_mb", of_rows(|r| r.peak_bytes as f64 / 1e6)),
            ("model_col_err", of_last(|r| r.col_err.fro)),
            ("model_nnz_ratio", of_last(|r| r.nnz_ratio)),
            ("apply1_cpu_p50_us", quantile(&singles, 0.50)),
            ("apply32_cpu_us_per_vector", quantile(&sorted(&serve.block_cpu_us), 0.50)),
        ])
    }

    /// Human-readable lines for one pass: each metric with the samples
    /// behind it and, for timings, its wall-clock companion.
    fn describe(&self, notes: &mut Vec<String>, pass: usize, v: &Values) {
        let (rows, serve) = (&self.rows[pass], &self.serves[pass]);
        let label = ["untraced", "traced"][pass];
        let wall = |f: fn(&Row) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
        let (singles, singles_wall) = (sorted(&serve.single_cpu_us), sorted(&serve.single_wall_us));
        for (name, unit) in END_TO_END {
            let samples = match name {
                "setup_s" => format!(
                    "CPU, median of {} set-ups; wall-clock median {} s",
                    self.setup.len(),
                    median(&self.setup.iter().map(|s| s.1).collect::<Vec<_>>())
                ),
                "extract_cpu_s" => format!(
                    "median of {} extractions; wall-clock median {} s",
                    rows.len(),
                    wall(|r| r.wall_s)
                ),
                "extract_peak_mb" => format!("median of {} extractions", rows.len()),
                "apply1_cpu_p50_us" => format!(
                    "nearest rank of {} sorted single-vector samples; CPU p90 {} p99 {}; \
                     wall-clock p50 {} p90 {} p99 {} us",
                    singles.len(),
                    quantile(&singles, 0.90),
                    quantile(&singles, 0.99),
                    quantile(&singles_wall, 0.50),
                    quantile(&singles_wall, 0.90),
                    quantile(&singles_wall, 0.99),
                ),
                "apply32_cpu_us_per_vector" => format!(
                    "median of {} block requests; wall-clock median {} us",
                    serve.block_cpu_us.len(),
                    quantile(&sorted(&serve.block_wall_us), 0.50)
                ),
                "model_col_err" => format!(
                    "relative Frobenius error of the sampled columns; largest column error {}",
                    rows.last().map_or(f64::NAN, |r| r.col_err.largest_col)
                ),
                _ => "last extraction".to_string(),
            };
            notes.push(format!("{label} {name} {} {unit} ({samples})", v.get(name)));
        }
    }

    /// The per-layer values of a traced run, and the number of extraction
    /// and serving-window pairs behind the tracing overheads.
    fn per_layer(&self, l: &ServeLayers, calib_us: f64) -> (Values, (usize, usize)) {
        let rows = &self.rows[1];
        let last = rows.last().expect("a traced extraction ran");
        let med = |f: fn(&pipeline::ExtractLayers) -> f64| {
            median(&rows.iter().map(|r| f(&r.layers)).collect::<Vec<_>>())
        };
        let busy_s = med(|s| s.busy_s);
        let columns = last.solves.max(1) as f64;
        let serve = &self.serves[0];
        // traced minus untraced, over adjacent pairs
        let extract_pairs: Vec<f64> =
            self.rows[0].iter().zip(rows).map(|(u, t)| t.cpu_s - u.cpu_s).collect();
        let window_pairs = |f: fn(&Window) -> f64| {
            median(&self.windows.chunks_exact(2).map(|p| f(&p[1]) - f(&p[0])).collect::<Vec<_>>())
        };
        let values = Values(vec![
            ("substrate.calls", last.calls as f64),
            ("substrate.columns", last.solves as f64),
            ("substrate.busy_s", busy_s),
            ("substrate.ms_per_column", busy_s * 1e3 / columns),
            ("substrate.cg_iters_per_solve", last.cg_iters as f64 / columns),
            ("wavelet.basis_s", med(|s| s.basis_s)),
            ("wavelet.self_s", med(|s| s.wavelet_self_s)),
            ("lowrank.self_s", med(|s| s.lowrank_self_s)),
            ("hier.fwt_fwd_us_b1", l.fwt_fwd_b1),
            ("hier.fwt_inv_us_b1", l.fwt_inv_b1),
            ("hier.fwt_fwd_us_per_vector_b32", l.fwt_fwd_b32),
            ("hier.fwt_inv_us_per_vector_b32", l.fwt_inv_b32),
            ("hier.fwt_stored", l.fwt_stored as f64),
            ("linalg.gw_us_b1", l.gw_b1),
            ("linalg.gw_us_per_vector_b32", l.gw_b32),
            ("linalg.gw_nnz", l.gw_nnz as f64),
            ("linalg.gw_bytes_per_vector", (BYTES_PER_NNZ * l.gw_nnz) as f64),
            ("linalg.apply_serial_us_b1", l.serial_b1),
            ("linalg.apply_serial_us_per_vector_b32", l.serial_b32),
            ("linalg.exec_workers_b1", l.workers_b1 as f64),
            ("linalg.exec_workers_b32", l.workers_b32 as f64),
            ("linalg.exec_overhead_us_b1", l.pool_overhead_b1),
            ("linalg.exec_overhead_us_b32", l.pool_overhead_b32),
            ("serve.allocs_per_request", serve.allocs as f64 / serve.requests.max(1) as f64),
            ("calib.dense_matvec_us", calib_us),
            ("trace.overhead_extract_cpu_s", median(&extract_pairs)),
            ("trace.overhead_apply1_cpu_p50_us", window_pairs(|w| w.single)),
            ("trace.overhead_apply32_cpu_us_per_vector", window_pairs(|w| w.block)),
        ]);
        (values, (extract_pairs.len(), self.windows.len() / 2))
    }
}

/// Named values, looked up by metric name.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }

    /// The metrics of `table`, in its order.
    fn to_metrics(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table.iter().map(|&(name, unit)| Metric { name, value: self.get(name), unit }).collect()
    }
}
