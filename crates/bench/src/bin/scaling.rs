//! `scaling` — the extraction/serving scaling trajectory over `n = k^2`
//! regular grids, on the memory-lean pipeline (matrix-free kernel black
//! box, pattern-first `Gw` assembly, fast-transform serving).
//!
//! ```text
//! cargo run --release -p subsparse-bench --bin scaling -- \
//!     [--quick | --full | --only N] [--json] [--out FILE]
//! ```
//!
//! Default sweep: n ∈ {1024, 4096, 16384} (the committed baseline), each
//! point run three times (`scaling::RUNS`), round-robin across the points,
//! and recorded as the median and range.
//! `--quick` runs the 1024 point only, `--full` adds 65536 (hours of
//! single-threaded kernel evaluation), `--only N` runs one sweep point —
//! CI's scale-smoke job uses `--only 4096`. `--json` writes the rows as
//! `BENCH_scaling.json` (override the path with `--out FILE`).
//!
//! Every run first executes the *extract gate*: on the small fixture,
//! the combine-solves extraction's `Gw` must match the dense reference
//! transform on its kept pattern within the wavelet method's documented
//! tolerance. A failure exits nonzero before any sweep point runs.
//!
//! The process installs a counting global allocator tracking live heap
//! size, so each row's `peak_alloc_bytes` is the high-water mark of
//! extraction — the number that stays flat-per-contact as `n` grows now
//! that no `n x n` dense intermediate exists on the pipeline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use subsparse_bench::scaling::{
    extract_gate, format_rows, rows_json, run_scaling, PeakProbe, DEFAULT_SIDES, SWEEP_SIDES,
};

/// Forwards to the system allocator, tracking live size and its peak.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn record_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            record_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The probe the sweep resets around each extraction: peak is restarted
/// from the current live size, so each row reports its own high water.
struct ProcessPeak;

impl PeakProbe for ProcessPeak {
    fn reset(&self) {
        PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    fn peak_bytes(&self) -> usize {
        PEAK.load(Ordering::SeqCst)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");
    let only: Option<usize> = match args.iter().position(|a| a == "--only") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => Some(n),
            None => {
                eprintln!("error: --only needs a contact count (e.g. --only 4096)");
                return ExitCode::FAILURE;
            }
        },
    };
    let out_path = match args.iter().position(|a| a == "--out") {
        None => "BENCH_scaling.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("error: --out needs a file path");
                return ExitCode::FAILURE;
            }
        },
    };

    let sides: Vec<usize> = if let Some(n) = only {
        match SWEEP_SIDES.iter().find(|&&k| k * k == n) {
            Some(&k) => vec![k],
            None => {
                let known: Vec<String> = SWEEP_SIDES.iter().map(|k| (k * k).to_string()).collect();
                eprintln!("error: --only {n} is not a sweep point (known: {})", known.join(", "));
                return ExitCode::FAILURE;
            }
        }
    } else if quick {
        vec![DEFAULT_SIDES[0]]
    } else if full {
        SWEEP_SIDES.to_vec()
    } else {
        DEFAULT_SIDES.to_vec()
    };

    // the extract gate runs first, always: an inaccurate extraction
    // invalidates every trajectory number after it
    let gate_err = match extract_gate() {
        Ok(err) => {
            println!("extract gate: Gw relative Frobenius error {err:.2e} on its kept pattern");
            err
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rows = run_scaling(&sides, &ProcessPeak);
    print!("{}", format_rows(&rows));
    if json {
        if let Err(e) = std::fs::write(&out_path, rows_json(&rows, gate_err)) {
            eprintln!("error: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path}");
    }
    ExitCode::SUCCESS
}
