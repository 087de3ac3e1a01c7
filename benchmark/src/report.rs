//! Metric names and units, order statistics over raw samples, the result
//! line, and the provenance stamp.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, every one reported by every
/// workload's untraced run, lower is better for all of them. Timings are
/// CPU time (see [`crate::clock`]); their wall-clock companions are
/// printed beside them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("extract_cpu_s", "s"),
    ("solves", "count"),
    ("extract_peak_mb", "MB"),
    ("model_col_err", "ratio"),
    ("model_nnz_ratio", "ratio"),
    ("apply1_cpu_p50_us", "us"),
    ("apply32_cpu_us_per_vector", "us"),
];

/// Per-layer metrics: `(name, unit)`, every one reported by every
/// workload's traced run (0 where the layer does not run).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("substrate.calls", "count"),
    ("substrate.columns", "count"),
    ("substrate.busy_s", "s"),
    ("substrate.ms_per_column", "ms"),
    ("substrate.cg_iters_per_solve", "count"),
    ("wavelet.basis_s", "s"),
    ("wavelet.self_s", "s"),
    ("lowrank.self_s", "s"),
    ("hier.fwt_fwd_us_b1", "us"),
    ("hier.fwt_inv_us_b1", "us"),
    ("hier.fwt_fwd_us_per_vector_b32", "us"),
    ("hier.fwt_inv_us_per_vector_b32", "us"),
    ("hier.fwt_stored", "count"),
    ("linalg.gw_us_b1", "us"),
    ("linalg.gw_us_per_vector_b32", "us"),
    ("linalg.gw_nnz", "count"),
    ("linalg.gw_bytes_per_vector", "computed_B"),
    ("linalg.apply_serial_us_b1", "us"),
    ("linalg.apply_serial_us_per_vector_b32", "us"),
    ("linalg.exec_workers_b1", "count"),
    ("linalg.exec_workers_b32", "count"),
    ("linalg.exec_overhead_us_b1", "us"),
    ("linalg.exec_overhead_us_b32", "us"),
    ("serve.allocs_per_request", "count"),
    ("calib.dense_matvec_us", "us"),
    ("trace.overhead_extract_cpu_s", "s"),
    ("trace.overhead_apply1_cpu_p50_us", "us"),
    ("trace.overhead_apply32_cpu_us_per_vector", "us"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed next to the name.
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The metrics of the result line, in table order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Operations attempted: extractions, requests and set-up checks.
    pub attempted: usize,
    /// Correctness checks missed.
    pub failed: usize,
    /// `calib.dense_matvec_us`, measured in every run for the stamp.
    pub calib_us: f64,
}

impl Outcome {
    /// The value of the metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints an f64 with every digit it was measured with
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Ascending copy of `v` (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of ascending samples: the smallest sample with at
/// least a `q` share of the samples at or below it. Never above the max.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a few repetitions (mean of the middle two for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The provenance stamp printed with every result: git revision, compiler,
/// CPU model, core count, build profile, seed and the calibration row.
pub fn provenance_json(seed: u64, calib_us: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"git_rev\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"seed\": {seed}, \"calib.dense_matvec_us\": {calib_us}}}",
        json_text(&git_rev()),
        json_text(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        json_text(&cpu_model()),
    )
}

/// The checkout's commit, when the working directory is a git checkout.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output; waits for it to exit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_text(s: &str) -> String {
    s.chars().filter(|c| *c != '"' && *c != '\\' && !c.is_control()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_never_above_max() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            metrics: vec![Metric { name: "solves", value: 510.0, unit: "count" }],
            notes: vec![],
            attempted: 3,
            failed: 0,
            calib_us: 1.0,
        };
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"solves\": {\"value\": 510, \"unit\": \"count\"}}}"
        );
    }
}
