//! Mixed-signal substrate noise: the motivating scenario of the thesis's
//! introduction. A switching digital block injects current into the
//! substrate; a sensitive analog block picks it up. The example shows
//! (a) that coupling depends strongly on distance — so single-node
//! substrate models are wrong — and (b) that the sparse extracted model
//! reproduces the coupled noise at a fraction of the cost.
//!
//! ```text
//! cargo run --release --example mixed_signal_noise
//! ```

use subsparse::layout::{Contact, Layout, Rect, SplitLayout};
use subsparse::lowrank::LowRankOptions;
use subsparse::substrate::{EigenSolver, EigenSolverConfig, Substrate};
use subsparse::{extract_lowrank, SubstrateSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Floorplan on a 128x128 die: a digital block (left), an analog block
    // (right), and a grounded guard ring between them.
    let mut layout = Layout::new(128.0, 128.0);
    let mut digital = Vec::new();
    let mut analog = Vec::new();

    // digital block: 8x8 grid of drivers in [8, 56]^2
    for iy in 0..8 {
        for ix in 0..8 {
            let x0 = 9.0 + ix as f64 * 6.0;
            let y0 = 41.0 + iy as f64 * 6.0;
            digital.push(layout.push(Contact::rect(Rect::new(x0, y0, x0 + 2.0, y0 + 2.0))));
        }
    }
    // analog block: 4x4 grid of sense nodes in [96, 120]^2
    for iy in 0..4 {
        for ix in 0..4 {
            let x0 = 97.0 + ix as f64 * 6.0;
            let y0 = 49.0 + iy as f64 * 6.0;
            analog.push(layout.push(Contact::rect(Rect::new(x0, y0, x0 + 2.0, y0 + 2.0))));
        }
    }
    // guard ring: a vertical strip of grounded contacts at x ~ 76
    let mut guard = Vec::new();
    for iy in 0..16 {
        let y0 = 33.0 + iy as f64 * 4.0;
        guard.push(layout.push(Contact::rect(Rect::new(76.5, y0, 78.5, y0 + 2.0))));
    }
    layout.validate()?;
    let n = layout.n_contacts();
    println!(
        "{n} contacts: {} digital, {} analog, {} guard",
        digital.len(),
        analog.len(),
        guard.len()
    );

    let solver = EigenSolver::new(
        &Substrate::thesis_standard(),
        &layout,
        EigenSolverConfig { panels: 128, ..Default::default() },
    )?;

    // Split contacts to the quadtree grid and extract the sparse model.
    // SplitLayout keeps the mapping between original contacts and pieces.
    let split = SplitLayout::new(&layout, 4);
    let solver_split = EigenSolver::new(
        &Substrate::thesis_standard(),
        split.layout(),
        EigenSolverConfig { panels: 128, ..Default::default() },
    )?;
    let (x, _) = extract_lowrank(&solver_split, split.layout(), 4, &LowRankOptions::default())?;
    println!("sparse model: {} solves, Gw sparsity {:.1}x", x.solves, x.rep.sparsity_factor());

    // Switching noise: the digital block bounces by 1 V, everything else
    // is quiet (0 V). Currents at the analog contacts are the coupled noise.
    let mut v = vec![0.0; n];
    for &d in &digital {
        v[d] = 1.0;
    }
    let i_exact = solver.solve(&v);

    // the same drive through the split layout / sparse model
    let i_sparse = split.reduce_currents(&x.rep.apply(&split.expand_voltages(&v)));

    println!("\ncoupled noise current at analog sense nodes (A per V of bounce):");
    println!("{:>8} {:>14} {:>14} {:>10}", "contact", "exact", "sparse model", "distance");
    for &a in &analog {
        let (cx, cy) = layout.contacts()[a].centroid();
        // distance to the digital block centroid (32.5, 65)
        let dist = (cx - 32.5_f64).hypot(cy - 65.0);
        println!("{a:>8} {:>14.6e} {:>14.6e} {dist:>10.1}", i_exact[a], i_sparse[a]);
    }

    // Distance dependence: drive a *single* digital contact and compare
    // the coupling at the nearest and farthest analog nodes — once on the
    // thesis profile (heavily doped bulk spreads the noise globally; this
    // is why guard rings disappoint on low-resistivity substrates) and
    // once on a high-resistivity substrate (strong distance decay, where
    // a one-node substrate model is badly wrong).
    let single_ratio = |substrate: &Substrate| -> f64 {
        let s = EigenSolver::new(
            substrate,
            &layout,
            EigenSolverConfig { panels: 128, ..Default::default() },
        )
        .expect("solver");
        let mut v = vec![0.0; n];
        v[digital[63]] = 1.0; // the digital driver closest to the analog block
        let i = s.solve(&v);
        let d = |c: usize| {
            let (cx, cy) = layout.contacts()[c].centroid();
            let (dx, dy) = layout.contacts()[digital[63]].centroid();
            (cx - dx).hypot(cy - dy)
        };
        let nearest = *analog
            .iter()
            .min_by(|&&p, &&q| d(p).partial_cmp(&d(q)).unwrap())
            .expect("analog nonempty");
        let farthest = *analog
            .iter()
            .max_by(|&&p, &&q| d(p).partial_cmp(&d(q)).unwrap())
            .expect("analog nonempty");
        i[nearest] / i[farthest]
    };
    let doped = single_ratio(&Substrate::thesis_standard());
    let resistive = single_ratio(&Substrate::new(
        vec![
            subsparse::substrate::Layer::new(39.0, 1.0),
            subsparse::substrate::Layer::new(1.0, 0.1),
        ],
        subsparse::substrate::Backplane::Grounded,
    ));
    println!("\nsingle-driver nearest/farthest analog coupling ratio:");
    println!("  heavily doped bulk (thesis profile): {doped:.2}");
    println!("  high-resistivity substrate:          {resistive:.2}");
    println!("(a one-node substrate model predicts 1.00 in both cases)");
    Ok(())
}
