//! Benchmark harness regenerating every table and figure of the thesis
//! evaluation, plus the method matrix of the unified `sparsify` subsystem.
//!
//! Each table/figure has a library function here, listed in [`TARGETS`],
//! which both the `thesis` binary (dispatch by name) and the `tables`
//! bench shim (every target, quick) iterate; `method_matrix` drives all
//! registered sparsification methods over the evaluation layouts.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p subsparse-bench --bin thesis -- all
//! cargo run --release -p subsparse-bench --bin method_matrix
//! cargo bench --workspace                        # quick variants
//! ```
//!
//! Pass `--quick` to any binary for a smaller, faster configuration (same
//! code paths, reduced sizes).
//!
//! This crate times no serving path of its own: `cli apply --repeat N
//! --block B --threads T` times applies of a saved model, and the
//! `benchmark/` package is the end-to-end gate. Its one kernel-level
//! stopwatch is the `linalg_kernels` bench.

pub mod examples;
pub mod figures;
pub mod method_matrix;
pub mod scaling;
pub mod tables;

pub use examples::{ch3_examples, ch4_examples, ExampleSpec, SolverKind};
pub use method_matrix::run_method_matrix;

/// A table/figure runner: `quick` in, formatted output out.
pub type Runner = fn(bool) -> String;

/// Every table and figure the `thesis` binary dispatches by name:
/// name, description, runner.
pub const TARGETS: &[(&str, &str, Runner)] = &[
    ("table_2_1", "preconditioner effectiveness", tables::run_table_2_1),
    ("table_2_2", "solve speed, FD vs eigenfunction", tables::run_table_2_2),
    ("table_3_1", "wavelet sparsity and accuracy", tables::run_table_3_1),
    ("table_4_1", "low-rank vs wavelet, unthresholded", tables::run_table_4_1),
    ("table_4_2", "low-rank vs wavelet, thresholded", tables::run_table_4_2),
    ("table_4_3", "low-rank on the large examples", tables::run_table_4_3),
    ("table_naive_baseline", "thresholding Gw vs thresholding G", tables::run_table_naive_baseline),
    ("fig_layouts", "evaluation contact layouts", figures::run_fig_layouts),
    ("fig_3_5_grouping", "combine-solves grouping", figures::run_fig_3_5_grouping),
    ("fig_4_3_svd_decay", "singular-value decay", figures::run_fig_4_3_svd_decay),
    ("fig_spy_wavelet", "wavelet Gw spy plots", figures::run_fig_spy_wavelet),
    ("fig_spy_lowrank", "low-rank Gw spy plots", figures::run_fig_spy_lowrank),
    ("fig_solve_scaling", "black-box solves vs n", figures::run_fig_solve_scaling),
    ("method_matrix", "all sparsify methods x all layouts", method_matrix::run_method_matrix),
];

/// One JSON object of run metadata stamped into every emitted
/// `BENCH_*.json` record, so trajectory comparisons across machines are
/// interpretable: a 1-CPU container's threaded rows regressing is a
/// machine difference, not a code regression, and the metadata says so.
///
/// `repeats` is the apply-iteration count of the eval harness that
/// produced the record. The provenance fields `git_rev`, `rustc` and
/// `cpu` are the ones the `benchmark/` package prints; `git_rev` carries
/// a `+dirty` suffix when tracked files differ from that commit.
pub fn run_meta_json(repeats: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"available_parallelism\":{parallelism},\"build_profile\":\"{profile}\",\"repeats\":{repeats},\
         \"git_rev\":\"{}\",\"rustc\":\"{}\",\"cpu\":\"{}\"}}",
        json_text(&git_rev()),
        json_text(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        json_text(&cpu_model()),
    )
}

/// The checked-out commit, `+dirty` when tracked files were modified.
fn git_rev() -> String {
    let Some(rev) = command_line("git", &["rev-parse", "HEAD"]) else {
        return "none (not a git checkout)".into();
    };
    let clean = std::process::Command::new("git")
        .args(["diff", "--quiet", "HEAD"])
        .status()
        .is_ok_and(|s| s.success());
    if clean {
        rev
    } else {
        format!("{rev}+dirty")
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// The CPU model name from `/proc/cpuinfo`.
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

/// `s` with the characters that would need JSON escaping dropped.
fn json_text(s: &str) -> String {
    s.chars().filter(|c| *c != '"' && *c != '\\' && !c.is_control()).collect()
}

/// Returns true if `--quick` is among the process arguments.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Formats a floating value for table output.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}
