//! `apply_speed` — single-vector vs blocked serving throughput for every
//! `CouplingOp` representation, including both wavelet serving paths
//! (`wavelet_fwt`: tree-structured fast transform; `wavelet`: the
//! explicit-CSR fallback).
//!
//! ```text
//! cargo run --release -p subsparse-bench --bin apply_speed -- \
//!     [--quick] [--json] [--threads T] [--min-work W] [--handoff] \
//!     [--trace FILE]
//! ```
//!
//! `--handoff` appends the dispatch-latency micro-row (`handoff_pool`):
//! nanoseconds to hand a trivial closure to the persistent worker pool —
//! the cost the serving layer's min-work threshold is sized against.
//!
//! `--json` additionally writes `BENCH_apply_speed.json`
//! (method × n × block-width × thread-count → ns/vector), the
//! perf-trajectory file CI tracks. `--threads T` sets the worker count of
//! the thread-parallel rows (default 2; `--threads 1` drops them,
//! `--threads 0` uses one worker per CPU). `--min-work W` overrides the
//! executors' min-work-per-worker dispatch threshold (`--min-work 0`
//! forces threaded rows to engage the pool even on small fixtures; the
//! default keeps the serving threshold, under which too-small applies run
//! inline and emit no threaded row). `--trace FILE` enables
//! the `subsparse::trace` recorder for the run, writes the Chrome-trace
//! JSON to FILE, and prints the counter/histogram summary — note the
//! recorded spans then measure *instrumented* applies, so don't compare
//! traced ns/vector against untraced trajectories. Exits nonzero if any
//! blocked or thread-parallel apply fails to bit-agree with its serial
//! counterpart, **or** if the fast-wavelet-transform path diverges from
//! the explicit-CSR path beyond the `FWT_CSR_TOL` tolerance, so CI can
//! use it as a smoke test for all three contracts.

use std::process::ExitCode;

use subsparse_bench::apply_speed::{
    bench_handoff, format_rows, rows_json, run_apply_speed, DEFAULT_THREADS, FWT_CSR_TOL,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let handoff = args.iter().any(|a| a == "--handoff");
    let threads = match args.iter().position(|a| a == "--threads") {
        None => DEFAULT_THREADS,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(t) => t,
            None => {
                eprintln!("error: --threads needs a count (0 = one per CPU)");
                return ExitCode::FAILURE;
            }
        },
    };
    let min_work = match args.iter().position(|a| a == "--min-work") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(w) => Some(w),
            None => {
                eprintln!("error: --min-work needs a threshold (0 = always engage workers)");
                return ExitCode::FAILURE;
            }
        },
    };
    let trace_path = match args.iter().position(|a| a == "--trace") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(p) => Some(p.clone()),
            None => {
                eprintln!("error: --trace needs an output file");
                return ExitCode::FAILURE;
            }
        },
    };
    if trace_path.is_some() {
        subsparse::trace::set_enabled(true);
        subsparse::trace::reset();
    }

    let mut report = run_apply_speed(quick, threads, min_work);
    if handoff {
        bench_handoff(threads, &mut report.rows);
    }
    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, subsparse::trace::chrome_json()) {
            eprintln!("error: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", subsparse::trace::summary());
        println!("chrome trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
        subsparse::trace::set_enabled(false);
    }
    print!("{}", format_rows(&report.rows));
    println!(
        "\nfwt vs explicit-csr wavelet apply: max rel err {:.3e} (tolerance {FWT_CSR_TOL:.0e})",
        report.fwt_vs_csr_rel_err
    );
    if json {
        let path = "BENCH_apply_speed.json";
        if let Err(e) = std::fs::write(path, rows_json(&report.rows)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if report.rows.iter().any(|r| !r.bit_equal) {
        eprintln!("error: a blocked or thread-parallel apply diverged from the serial apply");
        return ExitCode::FAILURE;
    }
    if report.fwt_vs_csr_rel_err > FWT_CSR_TOL {
        eprintln!(
            "error: fast-wavelet-transform apply diverged from the explicit-CSR apply \
             ({:.3e} > {FWT_CSR_TOL:.0e})",
            report.fwt_vs_csr_rel_err
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
