//! The method matrix: every registered sparsification method crossed with
//! every evaluation layout, graded by the shared harness.
//!
//! This is the workhorse comparison the thesis tables approximate one
//! slice at a time — one table row per (layout, method) pair, all through
//! [`Method::sparsify`], so a newly registered method shows up here with
//! no further wiring.

use std::fmt::Write as _;

use subsparse::layout::{generators, Layout};
use subsparse::sparsify::eval::{evaluate, EvalOptions, MethodReport};
use subsparse::sparsify::{all_methods, Method};
use subsparse::substrate::solver;
use subsparse::SparsifyOptions;

/// The layouts the matrix runs over: the thesis's evaluation structures
/// (regular, irregular with holes, alternating sizes, mixed shapes) at a
/// size where dense grading is exact.
pub fn matrix_layouts(quick: bool) -> Vec<(&'static str, Layout)> {
    let k = if quick { 8 } else { 16 };
    let mut v = vec![
        ("regular", generators::regular_grid(128.0, k, 2.0)),
        ("irregular", generators::irregular_same_size(128.0, k, 2.0, 3)),
        ("alternating", generators::alternating_grid(128.0, k, 3.0, 1.5)),
    ];
    if !quick {
        let (split, _) = generators::mixed_shapes(128.0).split_to_squares(5);
        v.push(("mixed", split));
    }
    v
}

/// Apply-timing repeats of the eval harness driving the matrix (stamped
/// into the emitted JSON's run metadata).
pub const MATRIX_APPLY_ITERS: usize = 4;

/// One graded cell of the matrix: the layout name, its contact count,
/// and the method's report (or the failure message).
pub struct MatrixCell {
    /// Evaluation-layout name.
    pub layout: &'static str,
    /// Contact count of the layout.
    pub n: usize,
    /// The graded report, or why the method failed on this layout.
    pub report: Result<MethodReport, String>,
}

/// Runs every registered method over every matrix layout against the
/// synthetic zero-cost kernel (isolating method behavior from solver
/// noise), once. The table and JSON renderers below share this output so
/// their numbers always agree.
pub fn run_matrix_cells(quick: bool) -> Vec<MatrixCell> {
    let opts = SparsifyOptions::default();
    let eval_opts = EvalOptions { apply_iters: MATRIX_APPLY_ITERS, ..Default::default() };
    let mut cells = Vec::new();
    for (name, layout) in matrix_layouts(quick) {
        for method in all_methods() {
            cells.push(MatrixCell {
                layout: name,
                n: layout.n_contacts(),
                report: run_cell(*method, &layout, &opts, &eval_opts)
                    .map_err(|e| format!("{:<10} failed: {e}", method.name())),
            });
        }
    }
    cells
}

/// Formats graded cells as the human-readable table.
pub fn format_matrix(cells: &[MatrixCell]) -> String {
    let mut out = String::new();
    writeln!(out, "method matrix: every registered method x every evaluation layout").unwrap();
    let mut current = "";
    for cell in cells {
        if cell.layout != current {
            current = cell.layout;
            writeln!(out, "\n--- layout {current}: {} contacts", cell.n).unwrap();
            writeln!(out, "{}", MethodReport::header()).unwrap();
        }
        match &cell.report {
            Ok(report) => writeln!(out, "{}", report.row()).unwrap(),
            Err(msg) => writeln!(out, "{msg}").unwrap(),
        }
    }
    out
}

/// Serializes graded cells as a machine-readable JSON array — one object
/// per successful (layout, method) cell with the cost/quality numbers CI
/// and dashboards track: method, n, solves, build wall-ns, apply
/// wall-ns (single-vector, per-vector-blocked, and per-vector through
/// the thread-parallel executor with its worker count), nonzero ratio,
/// and the relative Frobenius error.
pub fn matrix_json(cells: &[MatrixCell]) -> String {
    let body: Vec<String> = cells
        .iter()
        .filter_map(|cell| cell.report.as_ref().ok().map(|r| (cell.layout, r)))
        .map(|(layout, r)| {
            format!(
                "  {{\"layout\":\"{layout}\",\"method\":\"{}\",\"n\":{},\"solves\":{},\"wall_ns\":{:.0},\"apply_ns\":{:.0},\"apply_block_ns\":{:.0},\"apply_block_threaded_ns\":{:.0},\"threads\":{},\"nnz_ratio\":{:.6},\"rel_fro_error\":{:.6e}}}",
                r.method, r.n, r.solves, r.build_ms * 1e6, r.apply_ns, r.apply_block_ns, r.apply_block_threaded_ns, r.eval_threads, r.nnz_ratio, r.rel_fro_error,
            )
        })
        .collect();
    format!(
        "{{\"meta\":{},\n\"cells\":[\n{}\n]}}\n",
        crate::run_meta_json(MATRIX_APPLY_ITERS),
        body.join(",\n")
    )
}

/// Runs the matrix and returns the formatted table (one pass; see
/// [`run_matrix_cells`] to also get the machine-readable form without
/// rerunning).
pub fn run_method_matrix(quick: bool) -> String {
    format_matrix(&run_matrix_cells(quick))
}

/// One cell of the matrix: run `method` on `layout` and grade it.
pub fn run_cell(
    method: Method,
    layout: &Layout,
    opts: &SparsifyOptions,
    eval_opts: &EvalOptions,
) -> Result<MethodReport, subsparse::SparsifyError> {
    let black_box = solver::synthetic(layout);
    let outcome = method.sparsify(&black_box, layout, opts)?;
    Ok(evaluate(method.name(), &outcome, &black_box, eval_opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_all_methods_and_layouts() {
        let table = run_method_matrix(true);
        for (name, _) in matrix_layouts(true) {
            assert!(table.contains(name), "missing layout {name} in:\n{table}");
        }
        for method in all_methods() {
            assert!(table.contains(method.name()), "missing {method} in:\n{table}");
        }
        assert!(!table.contains("failed:"), "a matrix cell failed:\n{table}");
    }

    #[test]
    fn matrix_json_stamps_run_metadata() {
        let json = matrix_json(&[]);
        assert!(json.starts_with("{\"meta\":{\"available_parallelism\":"));
        assert!(json.contains("\"build_profile\":") && json.contains("\"repeats\":4"));
        assert!(json.contains("\"cells\":["));
    }
}
