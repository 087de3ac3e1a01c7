//! Table runners: one function per thesis table.
//!
//! Every function returns the formatted table as a `String` (binaries
//! print it; the criterion shim runs the quick variants to keep
//! `cargo bench` bounded). Paper-versus-measured values are recorded in
//! `EXPERIMENTS.md`.

use std::fmt::Write as _;
use std::time::Instant;

use subsparse::hier::BasisRep;
use subsparse::layout::generators;
use subsparse::linalg::Mat;
use subsparse::lowrank::LowRankOptions;
use subsparse::metrics::{error_stats, frac_above, frac_above_with_floor, threshold_dense};
use subsparse::substrate::solver::extract_columns;
use subsparse::substrate::{
    extract_dense, CountingSolver, EigenSolver, EigenSolverConfig, FdPrecond, FdSolver,
    FdSolverConfig, HasSolveStats, Substrate, SubstrateSolver, TopBc,
};
use subsparse::wavelet::{build_basis, extract as wavelet_extract, ExtractOptions};
use subsparse::{extract_lowrank, extract_wavelet};

use crate::examples::{ch3_examples, ch4_examples, large_examples, SolverKind};
use crate::{fmt, pct};

/// Factor by which thresholding should increase sparsity (thesis §3.7,
/// §4.6: "approximately 6 times greater").
const THRESHOLD_FACTOR: f64 = 6.0;

/// Table 2.1 — fast-Poisson preconditioner effectiveness (average PCG
/// iterations per solve over a wavelet-extraction solve set).
///
/// Thesis values: Dirichlet 22.2, Neumann 7.9, area-weighted 6.8.
pub fn run_table_2_1(quick: bool) -> String {
    // contact size 4 at pitch 8 = 25% area fraction, matching the dense
    // regular layout of thesis Fig 3-6 (the weighting `p` of the
    // area-weighted preconditioner only differs visibly from pure-Neumann
    // when contacts cover a nontrivial surface fraction)
    let k = if quick { 8 } else { 16 };
    let layout = generators::regular_grid(128.0, k, 4.0);
    let levels = if quick { 1 } else { 2 };
    let substrate = Substrate::thesis_standard();
    let mut out = String::new();
    writeln!(out, "Table 2.1: preconditioner effectiveness (regular {k}x{k} grid)").unwrap();
    writeln!(out, "{:<16} {:>22}", "Preconditioner", "Average # iterations").unwrap();
    let precs = [
        ("Dirichlet", FdPrecond::FastPoisson(TopBc::Dirichlet)),
        ("Neumann", FdPrecond::FastPoisson(TopBc::Neumann)),
        ("area-weighted", FdPrecond::FastPoisson(TopBc::AreaWeighted)),
        ("inc. Cholesky", FdPrecond::IncompleteCholesky),
    ];
    for (name, precond) in precs {
        let cfg = FdSolverConfig { nx: 64, ny: 64, precond, ..Default::default() };
        let solver =
            CountingSolver::new(FdSolver::new(&substrate, &layout, cfg).expect("FD solver"));
        // the wavelet extraction is "one of the sparsification algorithms"
        // whose several hundred solves the thesis averages over
        let _ = extract_wavelet(&solver, &layout, levels, 2).expect("extraction");
        // the wrapper forwards the FD solver's inner iterations, so the
        // table never reaches around it to the concrete solver
        let stats = solver.stats();
        writeln!(out, "{:<16} {:>22}", name, fmt(stats.iterations_per_solve())).unwrap();
    }
    out
}

/// Table 2.2 — solve speed, finite-difference versus eigenfunction
/// methods (iterations/solve and time/solve over 10 solves).
///
/// Thesis values: FD 7.0 iters / 3.8 s; eigen 6.0 iters / 0.4 s (about a
/// 10x wall-clock ratio; absolute times are 2002 hardware).
pub fn run_table_2_2(quick: bool) -> String {
    let k = if quick { 8 } else { 16 };
    let layout = generators::regular_grid(128.0, k, 2.0);
    let substrate = Substrate::thesis_standard();
    let n = layout.n_contacts();
    let n_solves = 10;
    let mut out = String::new();
    writeln!(out, "Table 2.2: solve speed, FD vs eigenfunction ({n} contacts)").unwrap();
    writeln!(out, "{:<18} {:>16} {:>18}", "", "Iterations/solve", "Time per solve (s)").unwrap();

    let fd = CountingSolver::new(
        FdSolver::new(
            &substrate,
            &layout,
            FdSolverConfig { nx: 64, ny: 64, nz: 24, ..Default::default() },
        )
        .expect("FD solver"),
    );
    let (fd_iters, fd_time) = time_solves(&fd, n, n_solves);
    writeln!(
        out,
        "{:<18} {:>16} {:>18}",
        "finite difference",
        fmt(fd_iters),
        format!("{fd_time:.4}")
    )
    .unwrap();

    let eig = CountingSolver::new(
        EigenSolver::new(
            &substrate,
            &layout,
            EigenSolverConfig { panels: if quick { 64 } else { 128 }, ..Default::default() },
        )
        .expect("eigen solver"),
    );
    let (e_iters, e_time) = time_solves(&eig, n, n_solves);
    writeln!(out, "{:<18} {:>16} {:>18}", "eigenfunction", fmt(e_iters), format!("{e_time:.4}"))
        .unwrap();
    writeln!(out, "speedup (FD time / eigen time): {:.1}x", fd_time / e_time).unwrap();
    out
}

/// Times `n_solves` single-contact solves, reading iteration counts
/// through [`HasSolveStats`] (no reaching around wrappers to the concrete
/// solver).
fn time_solves<S: SubstrateSolver + HasSolveStats>(
    solver: &S,
    n: usize,
    n_solves: usize,
) -> (f64, f64) {
    let before = solver.solve_stats().inner_iterations;
    let mut v = vec![0.0; n];
    let t0 = Instant::now();
    for i in 0..n_solves {
        v[i % n] = 1.0;
        let _ = solver.solve(&v);
        v[i % n] = 0.0;
    }
    let dt = t0.elapsed().as_secs_f64() / n_solves as f64;
    let it = (solver.solve_stats().inner_iterations - before) as f64 / n_solves as f64;
    (it, dt)
}

/// Result row shared by Tables 3.1 / 4.1 / 4.2.
struct MethodRun {
    rep: BasisRep,
    solves: usize,
    exact: Mat,
}

fn run_wavelet(ex: &crate::ExampleSpec) -> MethodRun {
    let solver = ex.build_solver().expect("solver");
    let counting = CountingSolver::new(&*solver);
    let basis = build_basis(&ex.layout, ex.levels, 2).expect("basis");
    let rep = wavelet_extract(&counting, &basis, &ExtractOptions::default());
    let solves = counting.count();
    let exact = extract_dense(&*solver);
    MethodRun { rep, solves, exact }
}

fn run_lowrank(ex: &crate::ExampleSpec) -> MethodRun {
    let solver = ex.build_solver().expect("solver");
    let counting = CountingSolver::new(&*solver);
    let result =
        subsparse::lowrank::extract(&counting, &ex.layout, ex.levels, &LowRankOptions::default())
            .expect("low-rank extraction");
    let solves = counting.count();
    let exact = extract_dense(&*solver);
    MethodRun { rep: result.rep, solves, exact }
}

/// Table 3.1 — sparsity and accuracy of the wavelet sparsification on the
/// Chapter 3 examples.
///
/// Thesis values (sparsity of Gws / max rel err / sparsity of Gwt /
/// fraction > 10%): 1a: 2.5 / 0.2% / 15.3 / 0.1%; 1b: 2.5 / 0.2% / 15.4 /
/// 5.2%; 2: 3.5 / 0.2% / 20.6 / 1.1%; 3: 2.5 / 47% / 15.3 / 80%.
pub fn run_table_3_1(quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Table 3.1: sparsity and accuracy for wavelet sparsification").unwrap();
    writeln!(
        out,
        "{:<8} {:>6} {:>10} {:>10} {:>12} {:>14}",
        "Example", "n", "Gws spars", "max relerr", "Gwt spars", ">10% relerr"
    )
    .unwrap();
    for ex in ch3_examples(quick) {
        if quick && ex.solver == SolverKind::FiniteDifference {
            continue; // the FD variant is slow; full runs only
        }
        let run = run_wavelet(&ex);
        let approx = run.rep.to_dense();
        let stats = error_stats(&run.exact, &approx);
        let (thresh, _) =
            run.rep.thresholded_to_sparsity(run.rep.sparsity_factor() * THRESHOLD_FACTOR);
        let tstats = error_stats(&run.exact, &thresh.to_dense());
        writeln!(
            out,
            "{:<8} {:>6} {:>10} {:>10} {:>12} {:>14}",
            ex.name,
            run.rep.n(),
            fmt(run.rep.sparsity_factor()),
            pct(stats.max_rel_error),
            fmt(thresh.sparsity_factor()),
            pct(tstats.frac_above_10pct),
        )
        .unwrap();
    }
    out
}

/// Table 4.1 — unthresholded low-rank versus wavelet sparsity/accuracy
/// trade-off on the Chapter 4 examples.
///
/// Thesis values (low-rank sparsity / wavelet sparsity / low-rank max err
/// / wavelet max err / solve reductions): Ex1: 3.9 / 2.5 / 5.1% / 0.2% /
/// 3.2 / 2.9; Ex2: 4.1 / 2.5 / 5.7% / 47% / 3.3 / 2.9; Ex3: 3.5 / 2.3 /
/// 12% / 31% / 2.8 / 2.5.
pub fn run_table_4_1(quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4.1: low-rank vs wavelet, no thresholding").unwrap();
    writeln!(
        out,
        "{:<8} {:>6} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "Example", "n", "spars.lr", "spars.wv", "err.lr", "err.wv", "red.lr", "red.wv"
    )
    .unwrap();
    for ex in ch4_examples(quick) {
        let lr = run_lowrank(&ex);
        let wv = run_wavelet(&ex);
        let lr_stats = error_stats(&lr.exact, &lr.rep.to_dense());
        let wv_stats = error_stats(&wv.exact, &wv.rep.to_dense());
        let n = ex.layout.n_contacts() as f64;
        writeln!(
            out,
            "{:<8} {:>6} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
            ex.name,
            ex.layout.n_contacts(),
            fmt(lr.rep.sparsity_factor()),
            fmt(wv.rep.sparsity_factor()),
            pct(lr_stats.max_rel_error),
            pct(wv_stats.max_rel_error),
            fmt(n / lr.solves as f64),
            fmt(n / wv.solves as f64),
        )
        .unwrap();
    }
    out
}

/// Table 4.2 — thresholded comparison: low-rank `Gwt` at ~6x extra
/// sparsity versus the wavelet method at (a) equal sparsity and (b) equal
/// accuracy.
///
/// Thesis values (low-rank Gwt sparsity / low-rank >10% / wavelet
/// equal-accuracy sparsity / wavelet equal-sparsity >10%): Ex1: 23 / 0.4%
/// / 20 / 0.8%; Ex2: 24 / 1.0% / 2.5 (*) / 89%; Ex3: 21 / 1.4% / 6.6 /
/// 94%. (*) = even unthresholded, the wavelet method is less accurate.
pub fn run_table_4_2(quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4.2: low-rank vs wavelet with thresholding").unwrap();
    writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>16} {:>16}",
        "Example", "Gwt sp.lr", ">10% lr", "wv sp(eq.acc)", "wv >10%(eq.sp)"
    )
    .unwrap();
    for ex in ch4_examples(quick) {
        let lr = run_lowrank(&ex);
        let wv = run_wavelet(&ex);
        let (lr_t, _) = lr.rep.thresholded_to_sparsity(lr.rep.sparsity_factor() * THRESHOLD_FACTOR);
        let lr_frac = frac_above(&lr.exact, &lr_t.to_dense(), 0.10);
        // wavelet at equal sparsity
        let (wv_eq_sp, _) = wv.rep.thresholded_to_sparsity(lr_t.sparsity_factor());
        let wv_frac_eq_sp = frac_above(&wv.exact, &wv_eq_sp.to_dense(), 0.10);
        // wavelet at equal accuracy: find the sparsest threshold matching
        // the low-rank >10% fraction (if even unthresholded can't, mark *)
        let base_frac = frac_above(&wv.exact, &wv.rep.to_dense(), 0.10);
        let eq_acc = if base_frac > lr_frac {
            format!("{} (*)", fmt(wv.rep.sparsity_factor()))
        } else {
            let mut abs = wv.rep.gw.abs_values();
            abs.sort_by(|a, b| b.partial_cmp(a).unwrap());
            // bisect on kept-entry count
            let (mut lo, mut hi) = (1usize, abs.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                let cut = abs[mid - 1] * (1.0 - 1e-12);
                let cand = wv.rep.thresholded(cut);
                let f = frac_above(&wv.exact, &cand.to_dense(), 0.10);
                if f <= lr_frac {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let cut = abs[lo - 1] * (1.0 - 1e-12);
            fmt(wv.rep.thresholded(cut).sparsity_factor())
        };
        writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>16} {:>16}",
            ex.name,
            fmt(lr_t.sparsity_factor()),
            pct(lr_frac),
            eq_acc,
            pct(wv_frac_eq_sp),
        )
        .unwrap();
    }
    out
}

/// Table 4.3 — the low-rank method on the large examples, with errors
/// estimated on a 10% column sample (forming the whole `G` is
/// prohibitive, as in the thesis).
///
/// Thesis values (sparsity / max rel err / thresholded sparsity / >10% /
/// solve reduction): Ex4 (4096): 10 / 6.3% / 62 / 1.7% / 8.7; Ex5
/// (10240): 21 / 5.3% / 129 / 3.2% / 18.
pub fn run_table_4_3(quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4.3: low-rank method on larger examples (10% column sample)").unwrap();
    writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "Example", "n", "Sparsity", "max relerr", "thresh sp", ">10%", ">10%@1/500", "solve red"
    )
    .unwrap();
    for ex in large_examples(quick) {
        let solver = ex.build_solver().expect("solver");
        let counting = CountingSolver::new(&*solver);
        let result = subsparse::lowrank::extract(
            &counting,
            &ex.layout,
            ex.levels,
            &LowRankOptions::default(),
        )
        .expect("low-rank extraction");
        let solves = counting.count();
        let n = ex.layout.n_contacts();
        // 10% column sample, deterministic stride
        let cols: Vec<usize> = (0..n).step_by(10).collect();
        let exact_cols = extract_columns(&*solver, &cols);
        let approx_cols = result.rep.dense_columns(&cols);
        let stats = error_stats(&exact_cols, &approx_cols);
        let (thresh, _) =
            result.rep.thresholded_to_sparsity(result.rep.sparsity_factor() * THRESHOLD_FACTOR);
        let thresh_cols = thresh.dense_columns(&cols);
        let t_frac = frac_above(&exact_cols, &thresh_cols, 0.10);
        // the thesis's entries span only ~500x (§5.1); grade the same
        // dynamic range by flooring at 1/500 of the largest sampled
        // off-diagonal coupling
        let mut max_off = 0.0_f64;
        for (k, &c) in cols.iter().enumerate() {
            for (i, &v) in exact_cols.col(k).iter().enumerate() {
                if i != c {
                    max_off = max_off.max(v.abs());
                }
            }
        }
        let t_frac_floored =
            frac_above_with_floor(&exact_cols, &thresh_cols, 0.10, max_off / 500.0);
        writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>10} {:>10} {:>8} {:>12} {:>10}",
            ex.name,
            n,
            fmt(result.rep.sparsity_factor()),
            pct(stats.max_rel_error),
            fmt(thresh.sparsity_factor()),
            pct(t_frac),
            pct(t_frac_floored),
            fmt(n as f64 / solves as f64),
        )
        .unwrap();
    }
    out
}

/// The baseline claim of §3: thresholding `Gw = Q' G Q` is far more
/// accurate than thresholding `G` itself at equal nonzero count ("much
/// more accurate results than simply dropping small entries in the
/// original G").
pub fn run_table_naive_baseline(quick: bool) -> String {
    let (k, levels) = if quick { (16, 2) } else { (32, 3) };
    let layout = generators::regular_grid(128.0, k, 2.0);
    let solver = EigenSolver::new(
        &Substrate::thesis_standard(),
        &layout,
        EigenSolverConfig { panels: 128, ..Default::default() },
    )
    .expect("solver");
    let g = extract_dense(&solver);
    let n = layout.n_contacts();

    let wv = extract_wavelet(&solver, &layout, levels, 2).expect("wavelet");
    let (lr, _) =
        extract_lowrank(&solver, &layout, levels.max(2), &LowRankOptions::default()).expect("lr");

    let mut out = String::new();
    writeln!(out, "naive-thresholding baseline ({n} contacts): fraction of entries").unwrap();
    writeln!(out, "off by >10% at equal nonzero count").unwrap();
    writeln!(
        out,
        "{:>12} {:>14} {:>14} {:>14}",
        "nnz", "threshold G", "wavelet Gwt", "low-rank Gwt"
    )
    .unwrap();
    for factor in [2.0, 6.0, 12.0] {
        let (wv_t, _) = wv.rep.thresholded_to_sparsity(wv.sparsity_factor() * factor);
        let nnz = wv_t.gw.nnz();
        let naive = threshold_dense(&g, nnz);
        let (lr_t, _) = lr.rep.thresholded_to_sparsity((n * n) as f64 / nnz as f64);
        writeln!(
            out,
            "{:>12} {:>13.1}% {:>13.1}% {:>13.1}%",
            nnz,
            100.0 * frac_above(&g, &naive, 0.10),
            100.0 * frac_above(&g, &wv_t.to_dense(), 0.10),
            100.0 * frac_above(&g, &lr_t.to_dense(), 0.10),
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    // table runners are exercised end-to-end by the `tables` bench shim
    // and the `thesis` binary; here we only check the cheap formatting
    // helpers
    use crate::{fmt, pct};

    #[test]
    fn formatting() {
        assert_eq!(fmt(130.4), "130");
        assert_eq!(fmt(3.95), "4.0");
        assert_eq!(fmt(0.034), "0.034");
        assert_eq!(pct(0.051), "5.1%");
    }
}
