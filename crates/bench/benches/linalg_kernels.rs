//! Micro-benchmarks of the linear-algebra kernels the extraction and the
//! solvers lean on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use subsparse::layout::generators;
use subsparse::linalg::dct::{dct2d_with, Dct, Dct2dScratch};
use subsparse::linalg::svd::svd;
use subsparse::linalg::{LinOp, Mat};
use subsparse::sparsify::eval::format_ns;
use subsparse::substrate::{EigenSolver, EigenSolverConfig, SubstrateSolver};
use subsparse::Substrate;

/// Measured batches per row; each batch runs as many iterations as fill
/// about 20 ms, calibrated by one warm-up call.
const BATCHES: usize = 11;

/// Times `f` and prints one row: the median, fastest and mean batch's
/// wall-clock per iteration.
fn bench(name: &str, mut f: impl FnMut()) {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (Duration::from_millis(20).as_nanos() / once.as_nanos()).clamp(1, 1_000_000);
    let mut per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
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
}
