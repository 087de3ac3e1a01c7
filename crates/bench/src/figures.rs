//! Figure runners: regenerate the data behind the thesis's figures
//! (layout pictures, spy plots, singular-value decay, combine-solves
//! grouping). Bitmap outputs go to `figures/` in the working directory.

use std::fmt::Write as _;
use std::path::PathBuf;

use subsparse::hier::{Quadtree, Square};
use subsparse::layout::generators;
use subsparse::linalg::svd::svd;
use subsparse::lowrank::LowRankOptions;
use subsparse::spy::{spy_ascii, spy_pbm};
use subsparse::substrate::{extract_dense, solver, EigenSolver, EigenSolverConfig, Substrate};
use subsparse::wavelet::{build_basis, extract as wavelet_extract, ExtractOptions};
use subsparse::{extract_lowrank, extract_wavelet};

use crate::examples::{ch3_examples, ch4_examples, large_examples};

/// Directory figure bitmaps are written to.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("figures");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Figures 3-6/3-7/3-8/4-8/4-10 — the evaluation contact layouts, as
/// ASCII art (returned) and PBM bitmaps (written to `figures/`).
pub fn run_fig_layouts(quick: bool) -> String {
    let mut out = String::new();
    let dir = figures_dir();
    let mut emit = |name: &str, layout: &subsparse::Layout| {
        writeln!(out, "--- layout {name}: {} contacts", layout.n_contacts()).unwrap();
        out.push_str(&layout.to_ascii(64, 32));
        let pbm = ascii_to_pbm(&layout.to_ascii(128, 128));
        std::fs::write(dir.join(format!("layout_{name}.pbm")), pbm).ok();
    };
    for ex in ch3_examples(quick) {
        if ex.name == "1b" {
            continue; // same layout as 1a
        }
        emit(&format!("ch3_{}", ex.name), &ex.layout);
    }
    for ex in ch4_examples(quick).iter().skip(2) {
        emit(&format!("ch4_{}", ex.name), &ex.layout);
    }
    if !quick {
        for ex in large_examples(false) {
            emit(&format!("large_{}", ex.name), &ex.layout);
        }
    }
    out
}

fn ascii_to_pbm(art: &str) -> String {
    let lines: Vec<&str> = art.lines().collect();
    let h = lines.len();
    let w = lines.first().map_or(0, |l| l.chars().count());
    let mut s = format!("P1\n{w} {h}\n");
    for line in lines {
        for ch in line.chars() {
            s.push(if ch == '#' { '1' } else { '0' });
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// Figures 3-9/3-10 — spy plots of the wavelet `Gws` and thresholded
/// `Gwt` for Example 2 (irregular layout).
pub fn run_fig_spy_wavelet(quick: bool) -> String {
    let ex = ch3_examples(quick).into_iter().find(|e| e.name == "2").expect("example 2");
    let solver = ex.build_solver().expect("solver");
    let basis = build_basis(&ex.layout, ex.levels, 2).expect("basis");
    let rep = wavelet_extract(&*solver, &basis, &ExtractOptions::default());
    let (thresh, _) = rep.thresholded_to_sparsity(rep.sparsity_factor() * 6.0);
    let dir = figures_dir();
    spy_pbm(&rep.gw, &dir.join("fig_3_9_spy_gws.pbm")).ok();
    spy_pbm(&thresh.gw, &dir.join("fig_3_10_spy_gwt.pbm")).ok();
    let mut out = String::new();
    writeln!(out, "Fig 3-9: wavelet Gws spy, n = {}, nz = {}", rep.n(), rep.gw.nnz()).unwrap();
    out.push_str(&spy_ascii(&rep.gw, 48));
    writeln!(out, "Fig 3-10: thresholded Gwt spy, nz = {}", thresh.gw.nnz()).unwrap();
    out.push_str(&spy_ascii(&thresh.gw, 48));
    out
}

/// Figures 4-9/4-11 — spy plots of the low-rank `Gwt` for the mixed-shape
/// example (and Example 5 in full mode).
pub fn run_fig_spy_lowrank(quick: bool) -> String {
    let mut out = String::new();
    let dir = figures_dir();
    let exs = if quick {
        ch4_examples(true).into_iter().take(1).collect::<Vec<_>>()
    } else {
        let mut v: Vec<_> = ch4_examples(false).into_iter().filter(|e| e.name == "3").collect();
        v.extend(large_examples(false).into_iter().filter(|e| e.name == "5"));
        v
    };
    for ex in exs {
        let solver = ex.build_solver().expect("solver");
        let result = subsparse::lowrank::extract(
            &*solver,
            &ex.layout,
            ex.levels,
            &LowRankOptions::default(),
        )
        .expect("low-rank extraction");
        let (thresh, _) = result.rep.thresholded_to_sparsity(result.rep.sparsity_factor() * 6.0);
        let file = dir.join(format!("fig_spy_lowrank_ex{}.pbm", ex.name));
        spy_pbm(&thresh.gw, &file).ok();
        writeln!(
            out,
            "low-rank Gwt spy, example {}: n = {}, nz = {}",
            ex.name,
            thresh.n(),
            thresh.gw.nnz()
        )
        .unwrap();
        out.push_str(&spy_ascii(&thresh.gw, 48));
    }
    out
}

/// Figure 4-3 — singular-value decay of a square's self-interaction
/// versus its interaction with a well-separated square.
pub fn run_fig_4_3_svd_decay(quick: bool) -> String {
    let k = if quick { 16 } else { 32 };
    let layout = generators::regular_grid(128.0, k, 2.0);
    let solver = EigenSolver::new(
        &Substrate::thesis_standard(),
        &layout,
        EigenSolverConfig { panels: 128, ..Default::default() },
    )
    .expect("solver");
    let g = extract_dense(&solver);
    // two well-separated level-2 squares (thesis Fig 4-2: source at the
    // left edge, destination below-right of center)
    let tree = Quadtree::new(&layout, 2).expect("tree");
    let s = Square::new(2, 0, 2);
    let d = Square::new(2, 2, 1);
    let sc: Vec<usize> = tree.contacts_in_square(s).iter().map(|&c| c as usize).collect();
    let dc: Vec<usize> = tree.contacts_in_square(d).iter().map(|&c| c as usize).collect();
    let g_ss = g.select_rows(&sc).select_cols(&sc);
    let g_ds = g.select_rows(&dc).select_cols(&sc);
    let f_ss = svd(&g_ss);
    let f_ds = svd(&g_ds);
    let mut out = String::new();
    writeln!(out, "Fig 4-3: singular values (self-interaction vs well-separated)").unwrap();
    writeln!(out, "{:>4} {:>14} {:>14} {:>12}", "k", "sigma(G_ss)", "sigma(G_ds)", "ratio_ds")
        .unwrap();
    for i in 0..f_ss.s.len().min(f_ds.s.len()).min(16) {
        writeln!(
            out,
            "{:>4} {:>14.6e} {:>14.6e} {:>12.3e}",
            i,
            f_ss.s[i],
            f_ds.s[i],
            f_ds.s[i] / f_ds.s[0],
        )
        .unwrap();
    }
    let rank_ds = f_ds.s.iter().filter(|&&x| x > 1e-2 * f_ds.s[0]).count();
    let rank_ss = f_ss.s.iter().filter(|&&x| x > 1e-2 * f_ss.s[0]).count();
    writeln!(out, "numerical rank at sigma_1/100: self = {rank_ss}, separated = {rank_ds}")
        .unwrap();
    out
}

/// Figure 3-5 — the combine-solves grouping: squares with equal
/// `(ix mod 3, iy mod 3)` phase share one black-box solve.
pub fn run_fig_3_5_grouping(_quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Fig 3-5: combine-solves phases on an 8x8 level (one digit = one group)")
        .unwrap();
    for iy in (0..8).rev() {
        for ix in 0..8 {
            let phase = (ix % 3) + 3 * (iy % 3);
            write!(out, "{phase} ").unwrap();
        }
        out.push('\n');
    }
    writeln!(out, "squares labeled with the same digit are >= 3 apart and share a solve").unwrap();
    out
}

/// Black-box solves of both methods at one size of the §1.2 sweep.
struct SolveCounts {
    /// Contacts.
    n: usize,
    /// Wavelet tree levels (the low-rank method uses at least 2).
    levels: usize,
    /// Solves of the wavelet extraction.
    wavelet: usize,
    /// Solves of the low-rank extraction.
    lowrank: usize,
}

/// Solve counts on regular grids of 16 contacts per finest square, with
/// the synthetic zero-cost solver so even the largest grid runs in
/// seconds: n = 64 to 4096, or to 1024 when `quick`.
fn solve_scaling_rows(quick: bool) -> Vec<SolveCounts> {
    let sizes = [(8usize, 1usize), (16, 2), (32, 3), (64, 4)];
    let sizes = if quick { &sizes[..3] } else { &sizes[..] };
    sizes
        .iter()
        .map(|&(k, levels)| {
            let layout = generators::regular_grid(128.0, k, 1.0);
            let s = solver::synthetic(&layout);
            let wv = extract_wavelet(&s, &layout, levels, 2).expect("wavelet");
            // the low-rank method needs levels >= 2
            let (lr, _) = extract_lowrank(&s, &layout, levels.max(2), &LowRankOptions::default())
                .expect("lr");
            SolveCounts { n: layout.n_contacts(), levels, wavelet: wv.solves, lowrank: lr.solves }
        })
        .collect()
}

/// Solve-count scaling: the `O(log n)` claim of §1.2 made visible, as
/// black-box solves versus contact count for both methods.
pub fn run_fig_solve_scaling(quick: bool) -> String {
    let mut out = String::new();
    writeln!(out, "black-box solves vs n (regular grids, 16 contacts per finest square)").unwrap();
    writeln!(
        out,
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "n", "levels", "wv solves", "wv red.", "lr solves", "lr red."
    )
    .unwrap();
    for r in solve_scaling_rows(quick) {
        writeln!(
            out,
            "{:>8} {:>8} {:>10} {:>10.1} {:>10} {:>10.1}",
            r.n,
            r.levels,
            r.wavelet,
            r.n as f64 / r.wavelet as f64,
            r.lowrank,
            r.n as f64 / r.lowrank as f64,
        )
        .unwrap();
    }
    writeln!(out, "\nthe solve counts grow ~logarithmically while n grows 4x per row;").unwrap();
    writeln!(out, "the naive method uses exactly n solves.").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_figure_renders() {
        let s = run_fig_3_5_grouping(true);
        assert!(s.contains("0 1 2 0 1 2 0 1"));
    }

    #[test]
    fn solves_grow_logarithmically() {
        // §1.2: O(log n) solves, so quadrupling n must less than triple
        // them, and n = 1024 must need fewer than half the naive n solves
        let rows = solve_scaling_rows(true);
        let at = |n: usize| rows.iter().find(|r| r.n == n).expect("sweep size");
        let (small, large) = (at(256), at(1024));
        for (name, s256, s1024) in
            [("wavelet", small.wavelet, large.wavelet), ("low-rank", small.lowrank, large.lowrank)]
        {
            assert!(s1024 < 3 * s256, "{name}: solves grew {s256} -> {s1024}");
            assert!(s1024 < 512, "{name}: {s1024} solves at n = 1024");
        }
    }

    #[test]
    fn ascii_to_pbm_shape() {
        let pbm = ascii_to_pbm("#.\n.#\n");
        assert!(pbm.starts_with("P1\n2 2\n"));
    }
}
