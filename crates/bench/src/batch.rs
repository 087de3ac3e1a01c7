//! Serial versus batched multi-RHS extraction on the real solver
//! backends.
//!
//! The thesis's cost model counts black-box solves, but wall-clock is
//! `solves x per-solve cost`. This comparison measures what
//! `SubstrateSolver::solve_batch` buys on the two physical backends: the
//! FD solver (per-column PCG spread over worker threads, shared
//! preconditioner setup) and the eigenfunction solver (per-column CG with
//! batched 2-D DCT applies, threaded per column). Batched and serial
//! extraction must agree bit for bit — the runner checks that too and
//! fails loudly if it ever breaks, which is what makes it a usable CI
//! smoke test.

use std::fmt::Write as _;
use std::time::Instant;

use subsparse::layout::generators;
use subsparse::linalg::Mat;
use subsparse::sparsify::eval::format_ns;
use subsparse::substrate::{
    EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, Substrate, SubstrateSolver,
};

/// One serial-vs-batched measurement.
#[derive(Clone, Debug)]
pub struct BatchCompareRow {
    /// Backend name (`fd` / `eigen`).
    pub solver: &'static str,
    /// Contact count (= extracted columns).
    pub n: usize,
    /// Worker threads of the batched run.
    pub threads: usize,
    /// Serial wall time, nanoseconds.
    pub serial_ns: f64,
    /// Batched wall time, nanoseconds.
    pub batched_ns: f64,
    /// Whether the two extractions agree bit for bit.
    pub bit_equal: bool,
}

impl BatchCompareRow {
    /// `serial / batched` wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.batched_ns
    }

    /// One machine-readable JSON object (used by `BENCH_*.json` emission).
    pub fn json(&self) -> String {
        format!(
            "{{\"solver\":\"{}\",\"n\":{},\"threads\":{},\"serial_ns\":{:.0},\"batched_ns\":{:.0},\"speedup\":{:.3},\"bit_equal\":{}}}",
            self.solver, self.n, self.threads, self.serial_ns, self.batched_ns, self.speedup(), self.bit_equal,
        )
    }
}

/// Extracts the dense `G` one `solve` at a time (the pre-batching code
/// path, kept as the measurement baseline).
fn extract_serial<S: SubstrateSolver + ?Sized>(solver: &S) -> Mat {
    let n = solver.n_contacts();
    let mut g = Mat::zeros(n, n);
    let mut e = vec![0.0; n];
    for i in 0..n {
        e[i] = 1.0;
        g.col_mut(i).copy_from_slice(&solver.solve(&e));
        e[i] = 0.0;
    }
    g
}

/// Times serial and batched dense extraction on one already-built pair of
/// solvers (`serial` with `threads = 1`, `batched` with the given count).
fn compare<S: SubstrateSolver + ?Sized>(
    name: &'static str,
    serial: &S,
    batched: &S,
    threads: usize,
) -> BatchCompareRow {
    let n = serial.n_contacts();
    let t0 = Instant::now();
    let g_serial = extract_serial(serial);
    let serial_ns = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let g_batched = subsparse::substrate::extract_dense(batched);
    let batched_ns = t1.elapsed().as_nanos() as f64;
    BatchCompareRow {
        solver: name,
        n,
        threads,
        serial_ns,
        batched_ns,
        bit_equal: g_serial.data() == g_batched.data(),
    }
}

/// Runs the comparison on both backends and returns the rows.
///
/// The FD solver runs on a 16x16(x nz) grid — the configuration of the
/// acceptance target "batched FD extraction at >= 4 threads is >= 2x
/// faster than serial".
pub fn run_batch_compare(quick: bool, threads: usize) -> Vec<BatchCompareRow> {
    let substrate = Substrate::thesis_standard();
    // 16 contacts: enough columns to keep every worker busy
    let layout = generators::regular_grid(128.0, 4, 16.0);

    let fd_cfg = |threads| FdSolverConfig {
        nx: 16,
        ny: 16,
        nz: if quick { 8 } else { 16 },
        threads,
        ..Default::default()
    };
    let fd_serial = FdSolver::new(&substrate, &layout, fd_cfg(1)).expect("fd solver");
    let fd_batched = FdSolver::new(&substrate, &layout, fd_cfg(threads)).expect("fd solver");
    let fd = compare("fd", &fd_serial, &fd_batched, threads);

    let eig_cfg = |threads| EigenSolverConfig {
        panels: if quick { 32 } else { 64 },
        threads,
        ..Default::default()
    };
    let eig_serial = EigenSolver::new(&substrate, &layout, eig_cfg(1)).expect("eigen solver");
    let eig_batched =
        EigenSolver::new(&substrate, &layout, eig_cfg(threads)).expect("eigen solver");
    let eig = compare("eigen", &eig_serial, &eig_batched, threads);

    vec![fd, eig]
}

/// Formats the rows as an aligned table.
pub fn format_rows(rows: &[BatchCompareRow]) -> String {
    let mut out = String::new();
    writeln!(out, "serial vs batched dense extraction (n columns through solve_batch)").unwrap();
    writeln!(
        out,
        "{:<8} {:>5} {:>8} {:>12} {:>12} {:>9} {:>10}",
        "solver", "n", "threads", "serial", "batched", "speedup", "bit-equal"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<8} {:>5} {:>8} {:>12} {:>12} {:>8.2}x {:>10}",
            r.solver,
            r.n,
            r.threads,
            format_ns(r.serial_ns),
            format_ns(r.batched_ns),
            r.speedup(),
            r.bit_equal,
        )
        .unwrap();
    }
    out
}

/// Serializes the rows as a JSON array.
pub fn rows_json(rows: &[BatchCompareRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_compare_is_bit_exact_on_two_threads() {
        let rows = run_batch_compare(true, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.bit_equal, "{} batched extraction diverged from serial", r.solver);
            assert_eq!(r.n, 16);
        }
        let json = rows_json(&rows);
        assert!(json.contains("\"solver\":\"fd\"") && json.contains("\"speedup\""));
    }
}
