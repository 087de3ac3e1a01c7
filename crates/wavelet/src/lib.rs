//! Wavelet-based sparsification of substrate coupling (thesis Chapter 3 —
//! the DAC 2000 algorithm).
//!
//! The method builds a sparse orthogonal change of basis `Q` whose columns
//! are voltage functions with vanishing polynomial moments up to order `p`
//! inside quadtree squares (a Tausch–White-style construction, §3.4).
//! Current responses to such "balanced" voltage patterns decay fast with
//! distance, so `Gw = Q' G Q` is numerically sparse; the *combine-solves*
//! technique (§3.5) extracts the retained entries of `Gw` with `O(log n)`
//! black-box solver calls instead of `n`.
//!
//! # Example
//!
//! ```
//! use subsparse_layout::generators;
//! use subsparse_substrate::{solver, CountingSolver, SubstrateSolver};
//! use subsparse_wavelet::{build_basis, extract, ExtractOptions};
//!
//! // finest squares hold 16 contacts (> 6 moment constraints), the
//! // regime where combine-solves pays off (thesis §3.4.3)
//! let layout = generators::regular_grid(128.0, 16, 2.0);
//! let black_box = CountingSolver::new(solver::synthetic(&layout));
//! let basis = build_basis(&layout, 2, 2)?;
//! let rep = extract(&black_box, &basis, &ExtractOptions::default());
//! assert!(black_box.count() < layout.n_contacts()); // fewer than n solves
//! assert!(rep.sparsity_factor() > 1.0);
//! # Ok::<(), subsparse_hier::HierError>(())
//! ```

pub mod basis;
pub mod extract;

pub use basis::{build_basis, WaveletBasis, MOMENT_ORDER};
pub use extract::{extract, extract_into, transform_dense, ExtractOptions};
// the tree-structured serving path of the basis (built by `build_basis`,
// attached to every extracted representation)
pub use subsparse_hier::FastWaveletTransform;
