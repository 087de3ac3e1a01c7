//! `apply_speed` — single-vector vs blocked serving throughput for every
//! `CouplingOp` representation, including both wavelet serving paths
//! (`wavelet_fwt`: tree-structured fast transform; `wavelet`: the
//! explicit-CSR fallback).
//!
//! ```text
//! cargo run --release -p subsparse-bench --bin apply_speed -- \
//!     [--quick] [--json] [--threads T] [--min-work W] [--handoff] \
//!     [--baseline FILE] [--trace FILE]
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
//! inline and emit no threaded row). `--baseline FILE` diffs this run's
//! `ns_per_vector` against a committed `BENCH_apply_speed.json` and exits
//! nonzero if any matched row regressed more than `BASELINE_TOL_FRAC` —
//! the diff is meta-aware: a baseline recorded under a different
//! `available_parallelism` or `build_profile` skips the gate instead of
//! reporting machine differences as regressions. `--trace FILE` enables
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
    bench_handoff, diff_baseline, format_baseline, format_rows, rows_json, run_apply_speed,
    BaselineOutcome, BASELINE_TOL_FRAC, DEFAULT_THREADS, FWT_CSR_TOL,
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
    let baseline_path = match args.iter().position(|a| a == "--baseline") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(p) => Some(p.clone()),
            None => {
                eprintln!("error: --baseline needs a committed BENCH_apply_speed.json");
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
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match diff_baseline(&report.rows, &text) {
            Err(e) => {
                eprintln!("error: baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(BaselineOutcome::MetaMismatch { reason }) => {
                println!("baseline not comparable ({reason}); regression gate skipped");
            }
            Ok(BaselineOutcome::Compared { deltas }) => {
                print!("{}", format_baseline(&deltas));
                let worst = deltas.iter().map(|d| d.frac()).fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "\nworst change vs baseline: {:+.1}% (gate {:+.0}%, {} rows compared)",
                    worst * 100.0,
                    BASELINE_TOL_FRAC * 100.0,
                    deltas.len()
                );
                if worst > BASELINE_TOL_FRAC {
                    eprintln!(
                        "error: ns_per_vector regressed more than {:.0}% vs {path}",
                        BASELINE_TOL_FRAC * 100.0
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
