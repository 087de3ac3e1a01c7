//! Unified sparsification subsystem: one [`Sparsifier`] trait over every
//! way of turning a black-box conductance operator into a sparse
//! `G ~ Q Gw Q'` representation.
//!
//! The thesis develops two rival constructions — the geometric **wavelet**
//! method (Ch. 3) and the operator-adaptive **low-rank** method (Ch. 4) —
//! and compares both against naive entry dropping. Historically each
//! consumer in this workspace (CLI, benches, examples) hard-coded one
//! pipeline or the other; this crate gives them a single shape:
//!
//! * [`Sparsifier`] — black-box solver + layout in, [`SparsifyOutcome`]
//!   (a [`BasisRep`] plus cost accounting) out;
//! * adapter impls wrapping the existing wavelet and low-rank pipelines
//!   ([`methods::WaveletSparsifier`], [`methods::LowRankSparsifier`]);
//! * baseline methods that operate on an extracted dense `G`
//!   ([`methods::ThresholdSparsifier`], [`methods::TopKSparsifier`]);
//! * a string-keyed registry ([`Method`], [`all_methods`]) so CLIs and
//!   benches can drive every method by name;
//! * a shared evaluation harness ([`eval`]) reporting relative
//!   Frobenius/column error, nonzero ratio, and apply time, built on
//!   [`metrics`].
//!
//! Any future method — spectral, trace-reduction, randomized — becomes a
//! drop-in by implementing [`Sparsifier`] and registering a [`Method`]
//! variant.
//!
//! # Example
//!
//! ```
//! use subsparse_layout::generators;
//! use subsparse_sparsify::{Method, SparsifyOptions, Sparsifier};
//! use subsparse_substrate::solver;
//!
//! let layout = generators::regular_grid(128.0, 16, 2.0);
//! let black_box = solver::synthetic(&layout);
//! let method: Method = "lowrank".parse()?;
//! let outcome =
//!     method.build().sparsify(&black_box, &layout, &SparsifyOptions::default())?;
//! assert_eq!(outcome.rep.n(), 256);
//! assert!(outcome.nnz_ratio() < 1.0); // sparser than the dense G
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod eval;
pub mod methods;
pub mod metrics;
pub mod registry;

pub use eval::{evaluate, evaluate_dense, EvalOptions, MethodReport};
pub use registry::{all_methods, Method, ParseMethodError};

use std::fmt;
use std::time::Duration;

use subsparse_hier::{BasisRep, HierError, Quadtree};
use subsparse_layout::Layout;
use subsparse_lowrank::LowRankOptions;
use subsparse_substrate::SubstrateSolver;

/// Shared tuning knobs for every sparsification method.
///
/// One options struct (rather than one per method) keeps side-by-side
/// comparisons honest: the budget-style knobs
/// ([`target_sparsity`](Self::target_sparsity)) mean the same thing to
/// every baseline, and the
/// pipeline knobs are simply ignored by methods that do not use them.
#[derive(Clone, Debug)]
pub struct SparsifyOptions {
    /// Quadtree depth for the hierarchical methods; `None` picks the
    /// deepest level at which no finest square holds more than
    /// [`contacts_per_square`](Self::contacts_per_square) contacts.
    pub levels: Option<usize>,
    /// Vanishing-moment order `p` of the wavelet method (thesis §3.2.1;
    /// 2 is the thesis's choice).
    pub moment_order: usize,
    /// Tuning of the low-rank method (rank tolerance, spacing, ...).
    pub lowrank: LowRankOptions,
    /// Nonzero budget of the dense-`G` baselines, as a sparsity factor:
    /// keep about `n^2 / target_sparsity` nonzeros total. The hierarchical
    /// methods ignore this (their sparsity falls out of the construction).
    pub target_sparsity: f64,
    /// Contact cap per finest square for automatic level selection.
    pub contacts_per_square: usize,
    /// Most RHS columns per [`SubstrateSolver::solve_batch`] call, applied
    /// to every method (at least 1). Batching never changes solve counts
    /// or results; the solver's worker threads are set when it is built.
    pub max_batch: usize,
}

impl Default for SparsifyOptions {
    fn default() -> Self {
        SparsifyOptions {
            levels: None,
            moment_order: 2,
            lowrank: LowRankOptions::default(),
            target_sparsity: 4.0,
            contacts_per_square: 16,
            max_batch: 32,
        }
    }
}

impl SparsifyOptions {
    /// The quadtree depth to use for `layout`: the explicit
    /// [`levels`](Self::levels) if set, otherwise automatic selection
    /// (floored at 2, the minimum the low-rank method supports).
    pub fn resolve_levels(&self, layout: &Layout) -> usize {
        self.levels
            .unwrap_or_else(|| Quadtree::choose_levels(layout, self.contacts_per_square).max(2))
    }

    /// The baseline nonzero budget for an `n`-contact layout:
    /// `n^2 / target_sparsity`, at least `n` (a representation below one
    /// entry per contact is never useful).
    pub fn nnz_budget(&self, n: usize) -> usize {
        (((n * n) as f64 / self.target_sparsity).round() as usize).max(n)
    }
}

/// Errors from running a sparsification method.
#[derive(Clone, Debug, PartialEq)]
pub enum SparsifyError {
    /// The hierarchical construction rejected the layout (empty, or a
    /// contact crosses a finest-square boundary).
    Hier(HierError),
    /// The options are invalid for the chosen method.
    InvalidOptions(String),
}

impl fmt::Display for SparsifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparsifyError::Hier(e) => write!(f, "{e}"),
            SparsifyError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
        }
    }
}

impl std::error::Error for SparsifyError {}

impl From<HierError> for SparsifyError {
    fn from(e: HierError) -> Self {
        SparsifyError::Hier(e)
    }
}

/// The result of running a [`Sparsifier`]: the representation plus the
/// cost accounting every consumer reports.
#[derive(Clone, Debug)]
pub struct SparsifyOutcome {
    /// The sparse `G ~ Q Gw Q'` representation.
    pub rep: BasisRep,
    /// Black-box solves spent building it (the thesis's primary cost).
    pub solves: usize,
    /// Wall-clock construction time (excluding solver construction).
    pub build_time: Duration,
}

impl SparsifyOutcome {
    /// Number of contacts.
    pub fn n(&self) -> usize {
        self.rep.n()
    }

    /// `n / solves` — the thesis's solve-reduction factor.
    pub fn solve_reduction_factor(&self) -> f64 {
        self.n() as f64 / self.solves as f64
    }

    /// Stored nonzeros of the representation's logical factors — the
    /// factored fast transform plus `Gw` when the representation carries
    /// one, the explicit `Q` plus `Gw` otherwise; derived caches (e.g.
    /// the fallback path's transposed `Q`) are not double-counted (see
    /// [`CouplingOp::nnz`](subsparse_linalg::CouplingOp::nnz)).
    pub fn nnz(&self) -> usize {
        use subsparse_linalg::CouplingOp as _;
        self.rep.nnz()
    }

    /// Total nonzeros relative to the dense `n^2` (lower is sparser).
    pub fn nnz_ratio(&self) -> f64 {
        self.nnz() as f64 / (self.n() * self.n()) as f64
    }
}

/// A sparsification method: black-box conductance operator in, sparse
/// `G ~ Q Gw Q'` representation (with cost accounting) out.
///
/// Implementations must not assume anything about the solver beyond
/// [`SubstrateSolver::solve`]; solve counting is the implementation's
/// responsibility (wrap the solver in
/// [`CountingSolver`](subsparse_substrate::CountingSolver)).
pub trait Sparsifier {
    /// The registry name of the method (stable, CLI-facing).
    fn name(&self) -> &'static str;

    /// Runs the method.
    ///
    /// # Errors
    ///
    /// Returns [`SparsifyError::Hier`] if the layout is empty or violates
    /// the quadtree constraints of a hierarchical method, and
    /// [`SparsifyError::InvalidOptions`] for option combinations the
    /// method cannot honor.
    fn sparsify(
        &self,
        solver: &dyn SubstrateSolver,
        layout: &Layout,
        opts: &SparsifyOptions,
    ) -> Result<SparsifyOutcome, SparsifyError>;
}
