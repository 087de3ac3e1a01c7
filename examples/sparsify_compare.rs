//! Compare every registered sparsification method on one layout through
//! the one front door, `Method::sparsify`.
//!
//! ```text
//! cargo run --release --example sparsify_compare
//! ```
//!
//! All methods run against the same black box and are graded by the same
//! harness, so the table is an apples-to-apples answer to "which method
//! should I use here?": the hierarchical methods (wavelet, lowrank) spend
//! far fewer solves, while the dense baselines (threshold, topk) pay `n`
//! solves for their simplicity.

use subsparse::layout::generators;
use subsparse::sparsify::all_methods;
use subsparse::sparsify::eval::{evaluate, EvalOptions, MethodReport};
use subsparse::substrate::solver;
use subsparse::SparsifyOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // an alternating-size grid — the layout class where method choice
    // matters most (thesis Ch. 3 Example 3 vs Ch. 4 Example 2)
    let layout = generators::alternating_grid(128.0, 16, 3.0, 1.5);
    let black_box = solver::synthetic(&layout);
    println!("layout: alternating 16x16 grid, {} contacts\n", layout.n_contacts());

    let opts = SparsifyOptions::default();
    let eval_opts = EvalOptions::default();
    println!("{}", MethodReport::header());
    for method in all_methods() {
        let outcome = method.sparsify(&black_box, &layout, &opts)?;
        let report = evaluate(method.name(), &outcome, &black_box, &eval_opts);
        println!("{}", report.row());
    }

    println!("\nwhen to pick which:");
    for method in all_methods() {
        println!("  {:<10} {}", method.name(), method.summary());
    }
    Ok(())
}
