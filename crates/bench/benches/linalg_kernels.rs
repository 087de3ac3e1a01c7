//! Micro-benchmarks of the linear-algebra kernels the extraction and the
//! solvers lean on.
//!
//! Every row runs on the calling thread and is timed on that thread's CPU
//! clock (`CLOCK_THREAD_CPUTIME_ID`), not wall-clock: on a shared virtual
//! machine the hypervisor can take the CPU away for milliseconds
//! ("steal"), and the kernel keeps that time out of a thread's CPU clock,
//! so it cannot move a row between two builds.

use std::ffi::c_long;
use std::hint::black_box;

use subsparse::layout::generators;
use subsparse::linalg::dct::{dct2d_with, Dct, Dct2dScratch};
use subsparse::linalg::kernels::LaneMajor;
use subsparse::linalg::rng::SmallRng;
use subsparse::linalg::svd::svd;
use subsparse::linalg::{LinOp, Mat, Triplets};
use subsparse::sparsify::eval::format_ns;
use subsparse::substrate::{solver, EigenSolver, EigenSolverConfig, SubstrateSolver};
use subsparse::wavelet::build_basis;
use subsparse::Substrate;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU nanoseconds the calling thread has run so far.
fn thread_cpu_ns() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// Measured batches per row; each batch runs as many iterations as fill
/// about 20 ms of CPU time, calibrated by one warm-up call.
const BATCHES: usize = 11;

/// Times `f` and prints one row: the median, fastest and mean batch's
/// thread CPU time per iteration.
fn bench(name: &str, mut f: impl FnMut()) {
    let t0 = thread_cpu_ns();
    f();
    let once = (thread_cpu_ns() - t0).max(1.0);
    let iters = ((20e6 / once) as u64).clamp(1, 1_000_000);
    let mut per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = thread_cpu_ns();
            for _ in 0..iters {
                f();
            }
            (thread_cpu_ns() - t) / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let mean = per_iter.iter().sum::<f64>() / BATCHES as f64;
    println!(
        "{name:<28} {:>12}/iter  (min {}, mean {}, {iters} iters x {BATCHES})",
        format_ns(per_iter[BATCHES / 2]),
        format_ns(per_iter[0]),
        format_ns(mean),
    );
}

fn main() {
    println!("\n== linalg");

    // SVD of the size used by the low-rank sampling (tall, few columns)
    let a = Mat::from_fn(64, 12, |i, j| ((i * 7 + j * 13) % 23) as f64 - 11.0);
    bench("svd_64x12", || {
        black_box(svd(black_box(&a)));
    });

    // 2-D DCT of the eigen solver's default grid, both directions, on a
    // warm scratch (as the solver's CG loop runs it)
    let plan = Dct::new(128);
    let mut sc = Dct2dScratch::default();
    let mut grid = vec![0.0; 128 * 128];
    for (i, g) in grid.iter_mut().enumerate() {
        *g = (i % 17) as f64;
    }
    bench("dct2d_128", || {
        dct2d_with(&plan, &plan, black_box(&mut grid), 128, 128, true, &mut sc);
    });
    bench("dct2d_128_t", || {
        dct2d_with(&plan, &plan, black_box(&mut grid), 128, 128, false, &mut sc);
    });

    // the full-grid current-to-potential pipeline (forward 2-D transform,
    // mode scaling, transpose 2-D transform): the kernel-level row; the
    // solver's CG runs a staged version restricted to the grid rows that
    // hold contacts, timed inside a whole solve by `eigen_solve_128`;
    // multipliers `1 / (d_m d_n)` with `d = (n, n/2, ..., n/2)` make it
    // the identity up to rounding, so the grid stays bounded however many
    // iterations the harness runs
    let d = |k: usize| if k == 0 { 128.0 } else { 64.0 };
    let mu: Vec<f64> = (0..128 * 128).map(|i| 1.0 / (d(i / 128) * d(i % 128))).collect();
    bench("eigen_op_128", || {
        let g = black_box(&mut grid);
        dct2d_with(&plan, &plan, g, 128, 128, true, &mut sc);
        for (v, m) in g.iter_mut().zip(&mu) {
            *v *= m;
        }
        dct2d_with(&plan, &plan, g, 128, 128, false, &mut sc);
    });

    // the eigen solver's set-up on the benchmark's alternating layout
    // (mode multipliers, cosine table, block factors), and one apply of
    // its block-Jacobi preconditioner over the 6656 contact panels
    let layout = generators::alternating_grid(128.0, 32, 3.0, 1.5);
    let (substrate, cfg) = (Substrate::thesis_standard(), EigenSolverConfig::default());
    let build = || EigenSolver::new(&substrate, &layout, cfg).expect("valid eigen layout");
    bench("eigen_setup_128", || {
        black_box(build());
    });
    let solver = build();
    let pre = solver.preconditioner();
    let r: Vec<f64> = (0..pre.dim()).map(|k| (k % 13) as f64 - 6.0).collect();
    let mut z = vec![0.0; pre.dim()];
    bench("eigen_precond_128", || {
        pre.apply(black_box(&r), black_box(&mut z));
    });

    // one black-box solve of a unit vector on the same layout: the PCG
    // iterations of one extraction column, each one apply of the staged
    // operator and one of the preconditioner
    let mut e = vec![0.0; solver.n_contacts()];
    e[0] = 1.0;
    bench("eigen_solve_128", || {
        black_box(solver.solve(black_box(&e)));
    });

    // one `solve_batch` of the matrix-free kernel black box on an
    // irregular layout of the benchmark's ~3300-contact family: 32
    // columns (a full extraction block) and 6 (a ragged width the
    // wavelet extraction issues), both nonzero on every row, then 32
    // columns nonzero on every third row only, the share of the rows a
    // combine-solves block of the wavelet extraction excites on average
    let fixture_layout = generators::irregular_same_size(128.0, 64, 1.0, 11);
    let fixture = solver::kernel(&fixture_layout);
    for (name, k, every) in [
        ("kernel_solve_b32", 32, 1),
        ("kernel_solve_b6", 6, 1),
        ("kernel_solve_b32_support", 32, 3),
    ] {
        let v = Mat::from_fn(fixture.n_contacts(), k, |i, j| match i % every {
            0 => ((i * 7 + j * 13) % 29) as f64 - 14.0,
            _ => 0.0,
        });
        bench(name, || {
            black_box(fixture.solve_batch(black_box(&v)));
        });
    }

    println!("\n== serving");

    // the `Gw` multiply of a 32-vector serving block: a fixed synthetic
    // CSR shaped like the wavelet model of a ~3300-contact layout (3300
    // rows, ~100 entries per row at random columns), lane-major panels in
    // and out as the serving pipeline keeps them
    let n = 3300;
    let mut rng = SmallRng::seed_from_u64(0x6E7);
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        for _ in 0..100 {
            t.push(i, (rng.next_u64() % n as u64) as usize, rng.range_f64(-1.0, 1.0));
        }
    }
    let gw = t.to_csr();
    let x = Mat::from_fn(n, 32, |i, j| ((i * 7 + j * 13) % 29) as f64 - 14.0);
    let mut y = Mat::zeros(0, 0);
    bench("csr_panel_b32", || {
        gw.matmul_panel_into::<LaneMajor, LaneMajor>(black_box(&x), &mut y);
    });
    // the same multiply on one vector, as a single-vector request runs it
    let mut y1 = vec![0.0; n];
    bench("csr_matvec_b1", || {
        gw.matvec_into(black_box(x.col(0)), &mut y1);
    });

    // forward plus inverse wavelet transform of one vector, on the basis
    // of the `kernel_solve` layout at the benchmark's levels and p = 2
    let levels = subsparse::choose_levels(&fixture_layout, 16);
    let basis = build_basis(&fixture_layout, levels, 2).expect("valid wavelet layout");
    let fwt = basis.fwt();
    let v: Vec<f64> = (0..fwt.n()).map(|i| ((i * 7) % 29) as f64 - 14.0).collect();
    let (mut c, mut back) = (vec![0.0; fwt.n()], vec![0.0; fwt.n()]);
    let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
    bench("fwt_b1", || {
        fwt.forward_into(black_box(&v), &mut c, &mut s1, &mut s2);
        fwt.inverse_into(black_box(&c), &mut back, &mut s1, &mut s2);
    });
}
