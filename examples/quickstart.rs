//! Quickstart: extract a sparse substrate-coupling model with `O(log n)`
//! solves and apply it in `O(n log n)`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use subsparse::layout::generators;
use subsparse::lowrank::LowRankOptions;
use subsparse::substrate::{CountingSolver, EigenSolver, EigenSolverConfig, Substrate};
use subsparse::{extract_lowrank, SubstrateSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 32x32 grid of contacts on a 128x128 surface over the thesis's
    // standard substrate: a thin lightly doped top layer, a heavily doped
    // bulk, and a resistive bottom layer emulating a floating backplane.
    let layout = generators::regular_grid(128.0, 32, 2.0);
    let substrate = Substrate::thesis_standard();
    println!("layout: {} contacts", layout.n_contacts());

    // The black-box substrate solver (contact voltages -> contact
    // currents). Any SubstrateSolver works; the eigenfunction solver is
    // the fast choice for layered substrates.
    let solver = EigenSolver::new(
        &substrate,
        &layout,
        EigenSolverConfig { panels: 128, ..Default::default() },
    )?;
    let counting = CountingSolver::new(&solver);

    // Extract the sparse representation G ~ Q Gw Q'.
    let (x, _row_basis) = extract_lowrank(&counting, &layout, 3, &LowRankOptions::default())?;
    println!(
        "extracted with {} solves ({:.1}x fewer than the {} of naive extraction)",
        x.solves,
        x.solve_reduction_factor(),
        x.n(),
    );
    println!(
        "Gw: {} nonzeros ({:.1}x sparser than dense); Q: {:.1}x sparse",
        x.rep.gw.nnz(),
        x.rep.sparsity_factor(),
        x.rep.q_sparsity_factor(),
    );

    // Use it: put 1 V on the first contact and read coupled currents.
    let mut v = vec![0.0; x.n()];
    v[0] = 1.0;
    let i_sparse = x.rep.apply(&v);
    let i_exact = solver.solve(&v);
    println!("current into contact 0:      {:+.6} (exact {:+.6})", i_sparse[0], i_exact[0]);
    println!("coupled current, neighbor:   {:+.6} (exact {:+.6})", i_sparse[1], i_exact[1]);
    let far = x.n() - 1;
    println!("coupled current, far corner: {:+.6} (exact {:+.6})", i_sparse[far], i_exact[far]);

    // Trade accuracy for more sparsity by thresholding Gw.
    let (thresholded, cut) = x.rep.thresholded_to_sparsity(x.rep.sparsity_factor() * 6.0);
    println!(
        "thresholded at {:.2e}: {} nonzeros ({:.1}x sparser than dense)",
        cut,
        thresholded.gw.nnz(),
        thresholded.sparsity_factor(),
    );
    Ok(())
}
