//! Multilevel surface hierarchy shared by both sparsification algorithms.
//!
//! * [`Quadtree`] — the subdivision of the substrate surface into `4^l`
//!   squares per level (thesis §3.3), contact assignment, and the
//!   *local* / *interactive* square relations of the multipole-like
//!   traversals (§4.3, Fig 4-4).
//! * [`moments`] — polynomial moments of contact voltage functions and
//!   moment translation between square centers (§3.2.1, §3.4.2).
//! * [`basis`] — one quadtree orthogonal basis for both methods: their
//!   per-square blocks in, the column numbering, the explicit `Q` and its
//!   fast transform out.
//! * [`assembly`] — pattern-first assembly of `Gw`: the symmetric
//!   pattern built from the quadtree before any solve, filled in place by
//!   the extractions one direction at a time, symmetrized by
//!   [`GwAssembler::finish`].
//! * [`rep`] — the `G ~ Q Gw Q'` representation both methods produce, with
//!   thresholding helpers (§3.7, §4.6), served through the
//!   [`CouplingOp`](subsparse_linalg::CouplingOp) trait.
//! * [`fwt`] — the fast wavelet transform: the tree-structured `O(n·p)`
//!   form of the change of basis, the serving path that makes the sparse
//!   representation actually faster to apply than the dense matrix.

pub mod assembly;
pub mod basis;
pub mod fwt;
pub mod moments;
pub mod rep;
pub mod tree;

pub use assembly::{GwAssembler, GwSink};
pub use basis::{BasisCols, TreeBasisBuilder};
pub use fwt::{FastWaveletTransform, FwtLevel, FwtNode};
pub use rep::{BasisRep, ModelLoadError, FORMAT_VERSION};
pub use tree::{HierError, Quadtree, Square};
