//! Plugging in your own substrate solver: the extraction algorithms only
//! require the [`SubstrateSolver`] trait — contact voltages in, contact
//! currents out. This example wraps a user-supplied conductance model
//! (here: a table-driven model such as one measured from silicon or
//! exported by another field solver) and sparsifies it.
//!
//! ```text
//! cargo run --release --example custom_solver
//! ```

use subsparse::layout::generators;
use subsparse::linalg::Mat;
use subsparse::lowrank::LowRankOptions;
use subsparse::metrics::error_stats;
use subsparse::substrate::{extract_dense, CountingSolver};
use subsparse::{extract_lowrank, SubstrateSolver};

/// A stand-in for "somebody else's extractor": a dense conductance model
/// with an exponential-over-distance kernel, as a measurement table might
/// look.
struct MeasuredModel {
    g: Mat,
}

impl MeasuredModel {
    fn from_table(centroids: &[(f64, f64)], areas: &[f64]) -> Self {
        let n = centroids.len();
        let mut g = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = (centroids[i].0 - centroids[j].0).hypot(centroids[i].1 - centroids[j].1);
                g[(i, j)] = -areas[i] * areas[j] * (-d / 24.0).exp() / (1.0 + d * d);
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| g[(i, j)].abs()).sum();
            g[(i, i)] = 1.3 * off + 0.1;
        }
        MeasuredModel { g }
    }
}

impl SubstrateSolver for MeasuredModel {
    fn n_contacts(&self) -> usize {
        self.g.n_rows()
    }
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        self.g.matvec(contact_voltages)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = generators::regular_grid(128.0, 16, 2.0);
    let centroids: Vec<(f64, f64)> = layout.contacts().iter().map(|c| c.centroid()).collect();
    let areas: Vec<f64> = layout.contacts().iter().map(|c| c.area()).collect();
    let model = MeasuredModel::from_table(&centroids, &areas);
    let counting = CountingSolver::new(&model);

    let (x, _) = extract_lowrank(&counting, &layout, 3, &LowRankOptions::default())?;
    println!(
        "custom solver sparsified: n = {}, solves = {}, Gw sparsity {:.1}x",
        x.n(),
        x.solves,
        x.rep.sparsity_factor()
    );

    // verify against the exact model
    let exact = extract_dense(&model);
    let stats = error_stats(&exact, &x.rep.to_dense());
    println!(
        "entrywise relative error: max {:.2}%, mean {:.3}%, >10% on {:.2}% of entries",
        100.0 * stats.max_rel_error,
        100.0 * stats.mean_rel_error,
        100.0 * stats.frac_above_10pct,
    );
    Ok(())
}
