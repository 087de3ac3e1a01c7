//! Unified sparsification subsystem: one front door,
//! [`Method::sparsify`], over every way of turning a black-box
//! conductance operator into a sparse `G ~ Q Gw Q'` representation.
//!
//! The thesis develops two rival constructions — the geometric **wavelet**
//! method (Ch. 3) and the operator-adaptive **low-rank** method (Ch. 4) —
//! and compares both against naive entry dropping. This crate gives every
//! consumer (CLI, benches, examples) a single shape:
//!
//! * [`Method`] — a closed, string-keyed registry of the four methods
//!   ([`all_methods`]), so CLIs and benches drive every method by name;
//! * [`Method::sparsify`] — black-box solver + layout in,
//!   [`SparsifyOutcome`] (a [`BasisRep`] plus solve count and build time)
//!   out: the wavelet and low-rank pipelines, and the baselines that drop
//!   entries of an extracted dense `G` ([`methods`]);
//! * a shared evaluation harness ([`eval`]) reporting relative
//!   Frobenius/column error, nonzero ratio, and apply time, built on
//!   [`metrics`].
//!
//! A new method is a new [`Method`] variant: its name, its summary and
//! one arm of [`Method::sparsify`].
//!
//! # Example
//!
//! ```
//! use subsparse_layout::generators;
//! use subsparse_sparsify::{Method, SparsifyOptions};
//! use subsparse_substrate::solver;
//!
//! let layout = generators::regular_grid(128.0, 16, 2.0);
//! let black_box = solver::synthetic(&layout);
//! let method: Method = "lowrank".parse()?;
//! let outcome = method.sparsify(&black_box, &layout, &SparsifyOptions::default())?;
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

/// Contact cap per finest square for automatic level selection
/// ([`SparsifyOptions::resolve_levels`]).
pub const CONTACTS_PER_SQUARE: usize = 16;

/// Shared tuning knobs for every sparsification method.
///
/// One options struct (rather than one per method) keeps side-by-side
/// comparisons honest: the budget knob
/// ([`target_sparsity`](Self::target_sparsity)) means the same thing to
/// every baseline, and the pipeline knobs are simply ignored by methods
/// that do not use them. The thesis's fixed parameters are constants:
/// moment order [`MOMENT_ORDER`](subsparse_wavelet::MOMENT_ORDER), the
/// low-rank truncation rule
/// ([`RANK_TOL`](subsparse_lowrank::RANK_TOL),
/// [`MAX_RANK`](subsparse_lowrank::MAX_RANK)), [`CONTACTS_PER_SQUARE`]
/// and the solve block width
/// [`BATCH`](subsparse_substrate::solver::BATCH).
#[derive(Clone, Debug)]
pub struct SparsifyOptions {
    /// Quadtree depth for the hierarchical methods; `None` picks the
    /// deepest level at which no finest square holds more than
    /// [`CONTACTS_PER_SQUARE`] contacts.
    pub levels: Option<usize>,
    /// Tuning of the low-rank method (spacing, seed).
    pub lowrank: LowRankOptions,
    /// Nonzero budget of the dense-`G` baselines, as a sparsity factor:
    /// keep about `n^2 / target_sparsity` nonzeros total. The hierarchical
    /// methods ignore this (their sparsity falls out of the construction).
    pub target_sparsity: f64,
}

impl Default for SparsifyOptions {
    fn default() -> Self {
        SparsifyOptions { levels: None, lowrank: LowRankOptions::default(), target_sparsity: 4.0 }
    }
}

impl SparsifyOptions {
    /// The quadtree depth to use for `layout`: the explicit
    /// [`levels`](Self::levels) if set, otherwise automatic selection
    /// (floored at 2, the minimum the low-rank method supports).
    pub fn resolve_levels(&self, layout: &Layout) -> usize {
        self.levels.unwrap_or_else(|| Quadtree::choose_levels(layout, CONTACTS_PER_SQUARE).max(2))
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

/// The result of [`Method::sparsify`]: the representation plus the cost
/// accounting every consumer reports.
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
