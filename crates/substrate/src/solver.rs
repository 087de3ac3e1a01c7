//! The black-box substrate solver abstraction (thesis §1.2, §2.1).
//!
//! The extraction algorithms only ever call [`SubstrateSolver::solve`] or
//! its multi-RHS sibling [`SubstrateSolver::solve_batch`]: contact
//! voltages in, contact currents out. [`CountingSolver`] wraps any solver
//! to count solves (the thesis's primary cost metric — the
//! "solve-reduction factor"; a batch of `k` columns counts as `k` solves,
//! so the metric is identical whether a pipeline batches or not), and
//! [`DenseSolver`] adapts a precomputed conductance matrix, which both
//! tests and downstream users with their own extraction tools can plug in.
//!
//! # Batching: which backend override wins, and when
//!
//! The thesis counts black-box solves, but wall-clock is
//! `solves x per-solve cost` — and pushing RHS vectors through one at a
//! time leaves setup amortization and hardware parallelism on the table.
//! Every solver therefore accepts a *block* of right-hand sides via
//! [`solve_batch`](SubstrateSolver::solve_batch) (columns = RHS vectors):
//!
//! * the default implementation loops [`solve`](SubstrateSolver::solve)
//!   column by column, so external solver implementations keep working
//!   unchanged;
//! * [`DenseSolver`] replaces the column loop with one cache-blocked
//!   gemm (`G * V`), amortizing each pass over `G` across every column —
//!   the win grows with `n` and batch width;
//! * [`FdSolver`](crate::FdSolver) and [`EigenSolver`](crate::EigenSolver)
//!   share their (already-built) preconditioner and operator setup across
//!   the batch and run the per-column PCG solves on
//!   [`FdSolverConfig::threads`](crate::FdSolverConfig::threads) /
//!   [`EigenSolverConfig::threads`](crate::EigenSolverConfig::threads)
//!   shared-pool worker lanes — the win is roughly the thread count.
//!
//! Every override produces bit-identical columns to the serial loop: the
//! blocked gemm keeps the per-entry accumulation order, and the threaded
//! backends run the exact serial PCG per column, so `threads = 1` and
//! `threads = N` agree to the last bit and cost metrics stay exact.
//! Every pipeline sends RHS blocks of at most [`BATCH`] columns (memory
//! is `n x BATCH`); the thread count is fixed when a solver is built.
//!
//! # The iterative solve core: retry, failure typing and accounting
//!
//! The FD and eigenfunction solvers share one crate-private core,
//! `PcgCore`. A backend supplies only what differs between them (the
//! `PcgBackend` trait): its per-worker scratch, one PCG attempt at a
//! given iteration budget (warm-started from the scratch's iterate), and
//! the map from its solution to contact currents. The core owns the
//! rest, once for both:
//!
//! * the bounded retry — an attempt that misses tolerance within
//!   `max_iter` is re-run exactly once, warm-started, at 4x the budget
//!   (counted as `solve_retries`);
//! * failure typing — still unconverged is
//!   [`SolverError::NotConverged`], NaN/Inf currents are
//!   [`SolverError::NonFinite`];
//! * the degradation policy — `try_solve`/`try_solve_batch` return the
//!   error (a batch reports its lowest failing column), `solve`/
//!   `solve_batch` warn on stderr and return best-effort currents; both
//!   count one `solves_failed` per failing call;
//! * the `solves`/`inner_iterations` counters behind each backend's
//!   `stats()`, the `solve.*`/`solve_batch.*` spans, and the threaded
//!   batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use subsparse_linalg::cg::CgResult;
use subsparse_linalg::kernels::LANES;
use subsparse_linalg::{exec, trace, Mat};

/// Per-call solve instrumentation: counts the solves, opens the backend's
/// span, and attributes the wall time as `k` equal
/// [`trace::Hist::SolveNs`] shares when dropped.
struct SolveTrace {
    span: trace::Span,
    start: Option<std::time::Instant>,
    k: u64,
}

impl SolveTrace {
    fn begin(name: &'static str, k: usize) -> SolveTrace {
        let k = k as u64;
        trace::add(trace::Counter::Solves, k);
        SolveTrace {
            span: trace::span_arg(name, k),
            start: trace::enabled().then(std::time::Instant::now),
            k,
        }
    }
}

impl Drop for SolveTrace {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            trace::record_ns_many(trace::Hist::SolveNs, ns / self.k.max(1), self.k);
        }
        // span closes after the histogram sample, same scope either way
        let _ = &self.span;
    }
}

/// Most RHS columns in one [`SubstrateSolver::solve_batch`] call made by
/// the extraction pipelines and [`extract_dense`]/[`extract_columns`].
/// Batching changes neither solve counts nor results; it lets a solver
/// amortize setup and use its worker threads across a block.
pub const BATCH: usize = 32;

// The canonical resolver lives next to the serving executor in
// `linalg::op`; re-exported here because the extraction pipelines
// historically imported it from this module.
pub use subsparse_linalg::resolve_threads;

use crate::SolverError;

/// Iteration-budget multiplier for the bounded retry: an iterative solve
/// that misses tolerance within its `max_iter` budget is re-run exactly
/// once, warm-started from the partial solution, with this multiple of
/// the budget before the failure surfaces as
/// [`SolverError::NotConverged`].
const RETRY_BUDGET_FACTOR: usize = 4;

/// A column failure recorded while a batch kept solving its remaining
/// columns: the lowest failing column index and its error.
#[derive(Clone, Debug)]
struct ColumnFailure {
    column: usize,
    error: SolverError,
}

/// A black-box substrate solver: given the `n` contact voltages, returns
/// the `n` contact currents (current *into* each contact from the circuit).
pub trait SubstrateSolver {
    /// Number of contacts.
    fn n_contacts(&self) -> usize;

    /// Applies the conductance operator `i = G v`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `contact_voltages.len()` differs from
    /// [`n_contacts`](Self::n_contacts).
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64>;

    /// Applies the conductance operator to a block of voltage vectors:
    /// column `j` of the result is `G * voltages[:, j]`.
    ///
    /// The default implementation loops [`solve`](Self::solve) column by
    /// column; backends override it to amortize setup (blocked gemm,
    /// shared preconditioners, worker threads). Overrides must return the
    /// same columns the serial loop would, so cost accounting and results
    /// are independent of batching.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `voltages.n_rows()` differs from
    /// [`n_contacts`](Self::n_contacts).
    fn solve_batch(&self, voltages: &Mat) -> Mat {
        assert_eq!(voltages.n_rows(), self.n_contacts(), "voltage block row mismatch");
        let mut out = Mat::zeros(self.n_contacts(), voltages.n_cols());
        for (j, col) in out.cols_mut().enumerate() {
            col.copy_from_slice(&self.solve(voltages.col(j)));
        }
        out
    }

    /// [`solve`](Self::solve) with typed failure reporting instead of a
    /// best-effort result: iterative backends return
    /// [`SolverError::NotConverged`] when the inner solve (plus its
    /// bounded retry) misses tolerance, and [`SolverError::NonFinite`]
    /// when the currents contain NaN/Inf. Direct backends never fail; the
    /// default forwards to `solve`.
    fn try_solve(&self, contact_voltages: &[f64]) -> Result<Vec<f64>, SolverError> {
        Ok(self.solve(contact_voltages))
    }

    /// [`solve_batch`](Self::solve_batch) with typed failure reporting:
    /// returns the error of the lowest-indexed failing column. All
    /// columns are still solved (the batch does not bail early), so cost
    /// accounting matches the infallible path exactly.
    fn try_solve_batch(&self, voltages: &Mat) -> Result<Mat, SolverError> {
        Ok(self.solve_batch(voltages))
    }
}

impl<T: SubstrateSolver + ?Sized> SubstrateSolver for &T {
    fn n_contacts(&self) -> usize {
        (**self).n_contacts()
    }
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        (**self).solve(contact_voltages)
    }
    fn solve_batch(&self, voltages: &Mat) -> Mat {
        // forward explicitly so wrapper chains keep the backend override
        (**self).solve_batch(voltages)
    }
    fn try_solve(&self, contact_voltages: &[f64]) -> Result<Vec<f64>, SolverError> {
        (**self).try_solve(contact_voltages)
    }
    fn try_solve_batch(&self, voltages: &Mat) -> Result<Mat, SolverError> {
        (**self).try_solve_batch(voltages)
    }
}

/// Runs `solve_one(column, output, state)` over every column of
/// `voltages` on up to `threads` shared-pool workers (columns dealt
/// round-robin), writing into a fresh `n_out x n_cols` matrix.
/// `make_state` runs once per worker (once total when serial), and
/// `solve_one` receives that worker's state mutably alongside each
/// column.
///
/// Each column is solved by the exact same serial routine regardless of
/// the thread count, so the result is deterministic and bit-identical to
/// a serial loop. The batch half of [`PcgCore`].
///
/// A failing column does **not** stop the batch: every column is solved
/// (each writes its best-effort output), and the failure of the
/// lowest-indexed failing column is returned alongside the matrix — so
/// the error surfaced is deterministic regardless of worker scheduling,
/// and cost accounting matches the all-success path exactly.
///
/// This is how the iterative backends amortize their per-solve setup
/// (PCG work vectors, RHS/solution buffers, preconditioner scratch) across
/// a batch without sharing anything between workers: allocation cost is
/// `O(threads)`, not `O(columns)`, and since each column's solve only ever
/// *overwrites* the state, results stay bit-identical to the
/// fresh-state-per-column loop.
fn solve_columns_threaded_with<St, M, F>(
    voltages: &Mat,
    n_out: usize,
    threads: usize,
    make_state: M,
    solve_one: F,
) -> (Mat, Option<ColumnFailure>)
where
    M: Fn() -> St + Sync,
    F: Fn(&[f64], &mut [f64], &mut St) -> Result<(), SolverError> + Sync,
{
    let n_cols = voltages.n_cols();
    let mut out = Mat::zeros(n_out, n_cols);
    let threads = if n_out == 0 { 1 } else { resolve_threads(threads).min(n_cols).max(1) };
    let failure = std::sync::Mutex::new(None::<ColumnFailure>);
    let record = |column: usize, error: SolverError| {
        let mut slot = failure.lock().unwrap_or_else(|e| e.into_inner());
        if slot.as_ref().is_none_or(|f| column < f.column) {
            *slot = Some(ColumnFailure { column, error });
        }
    };
    let serial = |out: &mut Mat, record: &dyn Fn(usize, SolverError)| {
        let mut state = make_state();
        for (j, col) in out.cols_mut().enumerate() {
            if let Err(e) = solve_one(voltages.col(j), col, &mut state) {
                record(j, e);
            }
        }
    };
    if threads == 1 {
        serial(&mut out, &record);
        return (out, failure.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    // worker k solves columns j = k, k + threads, … — the same deal
    // pattern as a round-robin hand-out, so which per-worker state
    // solves which column (and therefore every output bit) is fixed by
    // the thread count alone, never by scheduling
    let cols = exec::ShardSlices::new(out.data_mut(), n_out);
    let poisoned = exec::Executor::global().run(threads, &|k| {
        let mut state = make_state();
        let mut j = k;
        while j < n_cols {
            // Safety: column j belongs to exactly one worker
            let col = unsafe { cols.chunk(j) };
            if let Err(e) = solve_one(voltages.col(j), col, &mut state) {
                record(j, e);
            }
            j += threads;
        }
    });
    if poisoned {
        // a worker panicked mid-column, so its output range is suspect:
        // recompute the whole batch serially (bit-identical — every
        // column is the same serial routine). A deterministic panic
        // reproduces here on the caller's thread, where it belongs.
        *failure.lock().unwrap_or_else(|e| e.into_inner()) = None;
        serial(&mut out, &record);
    }
    (out, failure.into_inner().unwrap_or_else(|e| e.into_inner()))
}

/// What an iterative black box supplies to the shared [`PcgCore`]: the
/// parts in which the FD and eigenfunction solvers differ.
///
/// The backend's setup (operator, preconditioner) is built once and only
/// read here, so any number of batch workers call these concurrently,
/// each with its own [`Scratch`](Self::Scratch).
pub(crate) trait PcgBackend: Sync {
    /// Backend name in warnings (`fd`, `eigen`).
    const NAME: &'static str;
    /// Span names of one [`SubstrateSolver::solve`] and of one
    /// [`SubstrateSolver::solve_batch`].
    const SPANS: [&'static str; 2];
    /// Per-worker reusable state: right-hand side, iterate, PCG and
    /// operator work space. Every buffer is fully overwritten per solve,
    /// so a warm scratch gives the bits of a fresh one.
    type Scratch: Default;
    /// Loads the right-hand side for contact voltages `v` into `sc` and
    /// zeroes its iterate.
    fn load(&self, v: &[f64], sc: &mut Self::Scratch);
    /// One PCG attempt of at most `budget` iterations, warm-started from
    /// `sc`'s iterate.
    fn attempt(&self, budget: usize, sc: &mut Self::Scratch) -> CgResult;
    /// Writes the contact currents of `sc`'s iterate (for voltages `v`)
    /// into `out`.
    fn currents(&self, v: &[f64], sc: &Self::Scratch, out: &mut [f64]);
}

/// The solve policy the iterative backends share (see the
/// [module docs](self)): bounded retry, failure typing, warnings, solve
/// accounting, spans and batch threading. Each backend's
/// `impl SubstrateSolver` delegates to it.
#[derive(Debug)]
pub(crate) struct PcgCore {
    n_contacts: usize,
    max_iter: usize,
    threads: usize,
    solves: AtomicUsize,
    iterations: AtomicUsize,
}

impl PcgCore {
    pub(crate) fn new(n_contacts: usize, max_iter: usize, threads: usize) -> Self {
        PcgCore {
            n_contacts,
            max_iter,
            threads,
            solves: AtomicUsize::new(0),
            iterations: AtomicUsize::new(0),
        }
    }

    pub(crate) fn n_contacts(&self) -> usize {
        self.n_contacts
    }

    /// Cumulative solves and inner iterations (retries included).
    pub(crate) fn stats(&self) -> SolveStats {
        SolveStats {
            solves: self.solves.load(Ordering::Relaxed),
            inner_iterations: self.iterations.load(Ordering::Relaxed),
        }
    }

    /// One column: attempt, the bounded retry, currents (written either
    /// way, best effort), then the typed verdict.
    fn solve_one<B: PcgBackend>(
        &self,
        backend: &B,
        v: &[f64],
        currents: &mut [f64],
        sc: &mut B::Scratch,
    ) -> Result<(), SolverError> {
        assert_eq!(v.len(), self.n_contacts, "voltage vector length mismatch");
        backend.load(v, sc);
        let mut result = backend.attempt(self.max_iter, sc);
        let mut iters = result.iterations;
        self.solves.fetch_add(1, Ordering::Relaxed);
        if !result.converged {
            trace::add(trace::Counter::SolveRetries, 1);
            result = backend.attempt(self.max_iter * RETRY_BUDGET_FACTOR, sc);
            iters += result.iterations;
        }
        self.iterations.fetch_add(iters, Ordering::Relaxed);
        backend.currents(v, sc, currents);
        if !result.converged {
            return Err(SolverError::NotConverged { relres: result.relative_residual, iters });
        }
        if let Some(entry) = currents.iter().position(|c| !c.is_finite()) {
            return Err(SolverError::NonFinite { entry });
        }
        Ok(())
    }

    /// One column on fresh scratch. A failure counts one `solves_failed`.
    fn single<B: PcgBackend>(&self, backend: &B, v: &[f64]) -> (Vec<f64>, Result<(), SolverError>) {
        let _t = SolveTrace::begin(B::SPANS[0], 1);
        let mut currents = vec![0.0; self.n_contacts];
        let verdict = self.solve_one(backend, v, &mut currents, &mut B::Scratch::default());
        if verdict.is_err() {
            trace::add(trace::Counter::SolvesFailed, 1);
        }
        (currents, verdict)
    }

    /// Every column is solved (best effort); the lowest failing column,
    /// if any, is reported alongside the matrix and counts one
    /// `solves_failed` for the whole batch.
    fn batch<B: PcgBackend>(&self, backend: &B, voltages: &Mat) -> (Mat, Option<ColumnFailure>) {
        assert_eq!(voltages.n_rows(), self.n_contacts, "voltage block row mismatch");
        let (out, fail) = {
            let _t = SolveTrace::begin(B::SPANS[1], voltages.n_cols());
            solve_columns_threaded_with(
                voltages,
                self.n_contacts,
                self.threads,
                B::Scratch::default,
                |v, out, sc| self.solve_one(backend, v, out, sc),
            )
        };
        if fail.is_some() {
            trace::add(trace::Counter::SolvesFailed, 1);
        }
        (out, fail)
    }

    pub(crate) fn solve<B: PcgBackend>(&self, backend: &B, v: &[f64]) -> Vec<f64> {
        let (currents, verdict) = self.single(backend, v);
        if let Err(e) = verdict {
            eprintln!(
                "warning: {} solve: {e}; returning best-effort currents \
                 (use try_solve for a typed error)",
                B::NAME
            );
        }
        currents
    }

    pub(crate) fn solve_batch<B: PcgBackend>(&self, backend: &B, voltages: &Mat) -> Mat {
        let (out, fail) = self.batch(backend, voltages);
        if let Some(f) = fail {
            eprintln!(
                "warning: {} solve_batch column {}: {}; returning best-effort currents \
                 (use try_solve_batch for a typed error)",
                B::NAME,
                f.column,
                f.error
            );
        }
        out
    }

    pub(crate) fn try_solve<B: PcgBackend>(
        &self,
        backend: &B,
        v: &[f64],
    ) -> Result<Vec<f64>, SolverError> {
        let (currents, verdict) = self.single(backend, v);
        verdict.map(|()| currents)
    }

    pub(crate) fn try_solve_batch<B: PcgBackend>(
        &self,
        backend: &B,
        voltages: &Mat,
    ) -> Result<Mat, SolverError> {
        match self.batch(backend, voltages) {
            (out, None) => Ok(out),
            (_, Some(f)) => Err(f.error),
        }
    }
}

/// Cumulative cost statistics of a solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Number of black-box solves performed.
    pub solves: usize,
    /// Total inner (CG/PCG) iterations across all solves, if the solver is
    /// iterative; zero otherwise.
    pub inner_iterations: usize,
}

impl SolveStats {
    /// Average inner iterations per solve (0 if no solves).
    pub fn iterations_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.inner_iterations as f64 / self.solves as f64
        }
    }
}

/// Read access to a solver's cumulative [`SolveStats`].
///
/// The iterative backends ([`FdSolver`](crate::FdSolver),
/// [`EigenSolver`](crate::EigenSolver)) track their inner PCG iterations;
/// this trait lets wrappers like [`CountingSolver`] forward those numbers
/// without consumers reaching around the wrapper to the concrete solver.
pub trait HasSolveStats {
    /// Cumulative solve statistics.
    fn solve_stats(&self) -> SolveStats;
}

impl<T: HasSolveStats + ?Sized> HasSolveStats for &T {
    fn solve_stats(&self) -> SolveStats {
        (**self).solve_stats()
    }
}

impl HasSolveStats for DenseSolver {
    /// A dense apply has no inner iterations; solves are not tracked here
    /// (wrap in [`CountingSolver`] to count them).
    fn solve_stats(&self) -> SolveStats {
        SolveStats::default()
    }
}

/// Wraps a solver and counts solves: one per [`SubstrateSolver::solve`]
/// call, one per *column* of a [`SubstrateSolver::solve_batch`] call — so
/// the thesis's solve-reduction metric is identical whether a pipeline
/// batches its right-hand sides or not.
///
/// # Example
///
/// ```
/// use subsparse_linalg::Mat;
/// use subsparse_substrate::{CountingSolver, DenseSolver, SubstrateSolver};
///
/// let g = Mat::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
/// let counting = CountingSolver::new(DenseSolver::new(g));
/// let _ = counting.solve(&[1.0, 0.0]);
/// let _ = counting.solve_batch(&Mat::identity(2));
/// assert_eq!(counting.count(), 3);
/// ```
#[derive(Debug)]
pub struct CountingSolver<S> {
    inner: S,
    count: AtomicUsize,
}

impl<S: SubstrateSolver> CountingSolver<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        CountingSolver { inner, count: AtomicUsize::new(0) }
    }

    /// Number of solves so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner solver.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SubstrateSolver + HasSolveStats> CountingSolver<S> {
    /// Unified cost accounting: this wrapper's solve count combined with
    /// the wrapped solver's inner-iteration count, so bench tables read
    /// everything from one place.
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            solves: self.count(),
            inner_iterations: self.inner.solve_stats().inner_iterations,
        }
    }
}

impl<S: SubstrateSolver + HasSolveStats> HasSolveStats for CountingSolver<S> {
    fn solve_stats(&self) -> SolveStats {
        self.stats()
    }
}

impl<S: SubstrateSolver> SubstrateSolver for CountingSolver<S> {
    fn n_contacts(&self) -> usize {
        self.inner.n_contacts()
    }
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.solve(contact_voltages)
    }
    fn solve_batch(&self, voltages: &Mat) -> Mat {
        // a batch of k columns costs k black-box solves
        self.count.fetch_add(voltages.n_cols(), Ordering::Relaxed);
        self.inner.solve_batch(voltages)
    }
    fn try_solve(&self, contact_voltages: &[f64]) -> Result<Vec<f64>, SolverError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.try_solve(contact_voltages)
    }
    fn try_solve_batch(&self, voltages: &Mat) -> Result<Mat, SolverError> {
        // failed solves still cost solves
        self.count.fetch_add(voltages.n_cols(), Ordering::Relaxed);
        self.inner.try_solve_batch(voltages)
    }
}

/// A solver backed by an explicit dense conductance matrix.
///
/// Useful for testing the extraction algorithms against exact arithmetic
/// and for plugging in matrices from external tools.
#[derive(Clone, Debug)]
pub struct DenseSolver {
    g: Mat,
}

impl DenseSolver {
    /// Wraps a square conductance matrix.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not square.
    pub fn new(g: Mat) -> Self {
        assert_eq!(g.n_rows(), g.n_cols(), "conductance matrix must be square");
        DenseSolver { g }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Mat {
        &self.g
    }
}

impl SubstrateSolver for DenseSolver {
    fn n_contacts(&self) -> usize {
        self.g.n_rows()
    }
    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        let _t = SolveTrace::begin("solve.dense", 1);
        self.g.matvec(contact_voltages)
    }
    fn solve_batch(&self, voltages: &Mat) -> Mat {
        // one cache-blocked gemm instead of n_cols matvec passes over G;
        // bit-identical columns (the gemm keeps the accumulation order)
        let _t = SolveTrace::begin("solve_batch.dense", voltages.n_cols());
        self.g.matmul(voltages)
    }
}

/// Extracts the dense conductance matrix the naive way: one black-box
/// solve per contact, `G(:, i) = solve(e_i)` (thesis §1.2). Solves are
/// sent in blocks of [`BATCH`] columns through
/// [`SubstrateSolver::solve_batch`].
pub fn extract_dense<S: SubstrateSolver + ?Sized>(solver: &S) -> Mat {
    let cols: Vec<usize> = (0..solver.n_contacts()).collect();
    extract_columns(solver, &cols)
}

/// Builds a synthetic dense conductance matrix for a layout with a smooth
/// dipole-like decay kernel:
/// `G_ij = -area_i area_j / (c + d_ij^3)` for `i != j`, with `d_ij` the
/// centroid distance `sqrt(dx² + dy²)`, and a diagonally dominant positive
/// diagonal — the entries of [`kernel`], stored, bit for bit.
///
/// This mimics the qualitative structure of a real substrate `G`
/// (symmetric, negative off-diagonals, smooth decay with distance) at zero
/// solver cost; the extraction crates use it for fast exact-arithmetic
/// tests. It is *not* a physical model — use the FD or eigenfunction
/// solvers for real extractions.
pub fn synthetic(layout: &subsparse_layout::Layout) -> DenseSolver {
    let k = kernel(layout);
    let n = k.n_contacts();
    let mut g = Mat::zeros(n, n);
    for i in 0..n {
        g[(i, i)] = k.diag[i];
        for j in (i + 1)..n {
            let v = k.off(i, j);
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
    }
    DenseSolver::new(g)
}

/// A matrix-free synthetic solver: the same dipole-decay kernel as
/// [`synthetic`], evaluated on demand instead of stored as an `n x n`
/// matrix — `O(n)` memory at any contact count.
///
/// [`synthetic`]'s dense backing is 34 GB of f64 at `n = 65536`, which
/// makes it the first out-of-memory step of any large-`n` extraction run
/// long before the extraction pipeline itself matters. This solver keeps
/// only the centroid coordinates (as two arrays, `xs` and `ys`), the
/// areas, and the (precomputed) diagonal; each
/// [`solve_batch`](SubstrateSolver::solve_batch) recomputes the kernel
/// value of every pair its voltages touch once and applies it to all RHS
/// columns of the batch, so the kernel-evaluation cost is amortized across
/// the batch width exactly like a dense gemm amortizes memory passes.
///
/// # The pair loop
///
/// [`solve`](SubstrateSolver::solve) (`k = 1`) and
/// [`solve_batch`](SubstrateSolver::solve_batch) run one pair loop,
/// compiled per SIMD [`Tier`](subsparse_linalg::simd::Tier)
/// (`simd::tiered!`), over the batch's **support** `S`: the rows where
/// some voltage column is not `+0.0` by bits. A call costs
/// `O(n·|S|)` pair evaluations, `|S|²/2 + (n − |S|)·|S|` of them, not
/// `n²/2`. The combine-solves extractions excite sums of basis vectors
/// from squares at least three apart. The wavelet extraction puts one
/// combine phase in each call, so a call's support is that phase's
/// squares: a ninth of the contacts on average on every level with at
/// least three squares a side. A call mixing phases would pay for their
/// union in every panel.
///
/// * **support panels** — the `k` voltage columns are packed
///   panel-major: panel `c` holds the `|S|` support rows of columns
///   `8c .. 8c + 8`, one `[f64; LANES]` per row ([`LANES`] = 8), in index
///   order. A ragged last panel, and `k = 1`, is zero-padded; padded lanes
///   are never read back. The support rows' coordinates, areas and
///   diagonal are gathered into a solver of their own; when `S` is every
///   row nothing is copied;
/// * **row blocks** — `S`'s rows are taken four at a time (`ROW_BLOCK`).
///   The triangle of pairs inside a block runs first, then the block
///   meets every later support row `j` once;
/// * **tile evaluation** — for a tile of up to 256 later rows (`TILE`), the
///   block rows' kernel values are evaluated into an on-stack tile, one
///   lane per `j` (`kernel_row`), with the pair distance
///   `sqrt(dx² + dy²)`;
/// * **register-blocked update** — per panel, the block rows' `y` and
///   `v` stay in `[f64; LANES]` arrays while the tile streams past, so a
///   later row's `y` and `v` are loaded and stored once per block, not
///   once per pair;
/// * **rows outside `S`** — the same four-row blocks meet every support
///   row in the same tiles, in one direction only: a row outside `S`
///   gains `G_mj·v[j]` from each support row `j` and gives nothing back.
///   When `S` is every row this loop is empty and the one above is the
///   whole pair loop, so there is one path, with no threshold.
///
/// The responses of both loops are packed into one buffer of `n` rows and
/// unpacked into the output, so beyond one index per row (the rows of `S`
/// and the rows outside it, each list in index order) a call's heap is
/// never larger than the unrestricted loop's: the voltage panels shrink to
/// `|S|` rows, and the gathered arrays are only made when they do. The
/// support scan, the packing and the unpacking each walk one voltage or
/// response column at a time.
///
/// # Why every tier, batch width and support give the same bits
///
/// Each response element `y[m]` is `diag[m]·v[m]` plus one product
/// `G_mj·v[j]` per partner `j`, added in ascending `j`: the order of the
/// plain index loop (`i` ascending, then `j > i` ascending, `y[i]` before
/// `y[j]`). The blocked loop keeps that order. When a block starts, its
/// rows hold every partner below the block. The triangle adds the
/// partners inside the block in ascending order. The tail then adds each
/// later row to the block rows `j` ascending, and the block rows to each
/// later row `i` ascending. Every update is a multiply, then an add:
/// rustc never contracts the two into an FMA, and the tiers do not enable
/// `fma`. IEEE `sqrt`, `/`, `*` and `+` round the same in every lane, and
/// lanes never mix, so a column's bits depend neither on the tier nor on
/// the batch it rides in.
///
/// Leaving the rows outside `S` out changes no bit either. Such a row `j`
/// has `v[j] = +0.0` in every lane, and `G_mj` is finite with its sign bit
/// set (`−a_m·a_j` over a positive denominator, `−0.0` if an area is
/// zero). So each dropped term is `G_mj·(+0.0) = −0.0`, and
/// `y + (−0.0) = y` for every `y`. A row outside `S` starts at
/// `diag[m]·(+0.0) = +0.0`, since the diagonal is finite and not negative,
/// and gains its support partners in ascending `j`. Gathering keeps index
/// order, so the rows of `S` gain theirs in ascending `j` too. A `−0.0`
/// voltage is not `+0.0` by bits and stays in `S`: `G·(−0.0) = +0.0`, which
/// would turn a `−0.0` sum into `+0.0`. A column's own zero rows that lie
/// inside the batch's support add the same `−0.0` terms, so its bits do
/// not depend on the support of the batch it rides in.
///
/// [`synthetic`]'s matrix is built from these entries, so the two agree
/// bit-for-bit; *responses* agree only to rounding (~1e-15 relative),
/// because the summation order differs from the dense matvec.
/// Construction is one streaming `O(n^2)`-time, `O(n)`-memory pass to
/// accumulate the diagonally dominant diagonal.
#[derive(Clone, Debug)]
pub struct KernelSolver {
    xs: Vec<f64>,
    ys: Vec<f64>,
    areas: Vec<f64>,
    diag: Vec<f64>,
    c0: f64,
}

/// Rows per block of [`KernelSolver`]'s pair loop: each later row's `v`
/// is loaded, and its `y` loaded and stored, once per this many pairs.
const ROW_BLOCK: usize = 4;

/// Most later rows per kernel tile of the pair loop; the tile of
/// `ROW_BLOCK x TILE` values (8 KB) lives on the stack.
const TILE: usize = 256;

/// Rows per block of [`kernel`]'s diagonal pass: each block's row sums
/// are this many independent add chains.
const DIAG_BLOCK: usize = 8;

impl KernelSolver {
    /// Contact `i`'s centroid and area, as the kernel takes them.
    #[inline(always)]
    fn point(&self, i: usize) -> (f64, f64, f64) {
        (self.xs[i], self.ys[i], self.areas[i])
    }

    /// Off-diagonal kernel value `G_ij` (`i != j`), evaluated on demand.
    #[inline(always)]
    fn off(&self, i: usize, j: usize) -> f64 {
        let ((xi, yi, ai), (xj, yj, aj)) = (self.point(i), self.point(j));
        pair_kernel(xi, yi, ai, xj, yj, aj, self.c0)
    }

    /// The contacts `rows` (ascending), in index order, as a solver of
    /// their own: their coordinates, areas and diagonal entries.
    fn gather(&self, rows: &[usize]) -> KernelSolver {
        let pick = |a: &[f64]| rows.iter().map(|&i| a[i]).collect();
        KernelSolver {
            xs: pick(&self.xs),
            ys: pick(&self.ys),
            areas: pick(&self.areas),
            diag: pick(&self.diag),
            c0: self.c0,
        }
    }

    /// Runs the pair loop on the `k` voltage columns `col(0)`, …,
    /// `col(k - 1)`, restricted to their support (see the type's docs),
    /// and returns the `n x k` responses.
    fn apply<'a>(&self, k: usize, col: impl Fn(usize) -> &'a [f64]) -> Mat {
        let n = self.n_contacts();
        // the support S, and the rows outside it: +0.0 by bits in every
        // column (empty when S is every row)
        let (support, rest) = {
            let mut in_s = vec![false; n];
            for c in 0..k {
                for (s, v) in in_s.iter_mut().zip(col(c)) {
                    *s |= v.to_bits() != 0;
                }
            }
            let m = in_s.iter().filter(|&&s| s).count();
            let (mut support, mut rest) = (Vec::with_capacity(m), Vec::with_capacity(n - m));
            for (i, &s) in in_s.iter().enumerate() {
                if s { &mut support } else { &mut rest }.push(i);
            }
            (support, rest)
        };
        let m = support.len();
        let packed = k.div_ceil(LANES) * m * LANES;
        // S's responses fill the first `packed` values, panels of m rows;
        // the rows outside S follow, panels of n - m rows
        let mut yp = vec![0.0; k.div_ceil(LANES) * n * LANES];
        // the voltage panels and gathered rows are dropped before `out` is
        // made, so a dense call holds no more than the unrestricted loop did
        {
            let sub;
            let s = if rest.is_empty() {
                self
            } else {
                sub = self.gather(&support);
                &sub
            };
            let mut vp = vec![0.0; packed];
            for c in 0..k {
                let (v, panel) = (col(c), &mut vp[c / LANES * m * LANES..][..m * LANES]);
                for (row, &i) in panel.chunks_exact_mut(LANES).zip(&support) {
                    row[c % LANES] = v[i];
                }
            }
            let (ys, yr) = yp.split_at_mut(packed);
            apply_panels(s, &vp, ys);
            apply_rest(self, &rest, s, &vp, yr);
        }
        let (ys, yr) = yp.split_at(packed);
        let mut out = Mat::zeros(n, k);
        for (c, out) in out.cols_mut().enumerate() {
            for (&i, y) in support.iter().zip(panel_col(ys, m, c)) {
                out[i] = y;
            }
            for (&i, y) in rest.iter().zip(panel_col(yr, n - m, c)) {
                out[i] = y;
            }
        }
        out
    }
}

/// Column `c` of `n`-row vectors packed in zero-padded panels: panel
/// `c / LANES` holds rows `0..n`, one `[f64; LANES]` each, and the column
/// is lane `c % LANES`.
fn panel_col(packed: &[f64], n: usize, c: usize) -> impl Iterator<Item = f64> + '_ {
    packed[c / LANES * n * LANES..].chunks_exact(LANES).take(n).map(move |row| row[c % LANES])
}

/// The kernel's off-diagonal entry for contacts at `(xi, yi)` and
/// `(xj, yj)` with areas `ai`, `aj`: `-ai aj / (c0 + d^3)`, `d` the
/// centroid distance. Every evaluation of the kernel goes through it, so
/// [`synthetic`]'s stored entries and [`KernelSolver`]'s on-demand ones
/// share their bits.
///
/// `d` is `sqrt(dx² + dy²)`, not `hypot`: centroids lie inside the
/// layout's extent, so the squares cannot overflow and `hypot`'s scaling
/// buys nothing, while `sqrt` is one instruction the SIMD tiers inline.
#[inline(always)]
fn pair_kernel(xi: f64, yi: f64, ai: f64, xj: f64, yj: f64, aj: f64, c0: f64) -> f64 {
    let (dx, dy) = (xi - xj, yi - yj);
    let d = (dx * dx + dy * dy).sqrt();
    -ai * aj / (c0 + d * d * d)
}

/// `out[t]` is the kernel value between the contact at `(xi, yi)` with
/// area `ai` and row `j0 + t` of `s`, for every `t`: one lane per `j` at
/// the caller's tier. The pair loop's tiles and [`kernel`]'s diagonal pass
/// both evaluate the kernel here.
#[inline(always)]
fn kernel_row(s: &KernelSolver, (xi, yi, ai): (f64, f64, f64), j0: usize, out: &mut [f64]) {
    let j1 = j0 + out.len();
    let js = s.xs[j0..j1].iter().zip(&s.ys[j0..j1]).zip(&s.areas[j0..j1]);
    for (g, ((&xj, &yj), &aj)) in out.iter_mut().zip(js) {
        *g = pair_kernel(xi, yi, ai, xj, yj, aj, s.c0);
    }
}

subsparse_linalg::simd::tiered! {
    /// [`KernelSolver`]'s symmetric pair loop (its docs give the blocking
    /// and why the bits hold) among all rows of `s`, on voltages `vp`
    /// packed in zero-padded panels of `s`'s `n` rows by `LANES` columns,
    /// writing the responses, packed the same way, into `yp`. The caller
    /// passes the support's rows as `s`.
    fn apply_panels(s: &KernelSolver, vp: &[f64], yp: &mut [f64]) {
        let n = s.diag.len();
        let len = n * LANES;
        if len == 0 {
            return;
        }
        for (yq, vq) in yp.chunks_exact_mut(len).zip(vp.chunks_exact(len)) {
            for ((y, v), d) in yq.chunks_exact_mut(LANES).zip(vq.chunks_exact(LANES)).zip(&s.diag) {
                for (y, v) in y.iter_mut().zip(v) {
                    *y = d * v;
                }
            }
        }
        let mut g = [[0.0; TILE]; ROW_BLOCK];
        for i0 in (0..n).step_by(ROW_BLOCK) {
            let i1 = (i0 + ROW_BLOCK).min(n);
            // the triangle inside the block, in the index loop's order
            for (yq, vq) in yp.chunks_exact_mut(len).zip(vp.chunks_exact(len)) {
                for i in i0..i1 {
                    for j in i + 1..i1 {
                        let gij = s.off(i, j);
                        let (head, tail) = yq.split_at_mut(j * LANES);
                        let (yi, yj) = (&mut head[i * LANES..][..LANES], &mut tail[..LANES]);
                        let (vi, vj) = (&vq[i * LANES..][..LANES], &vq[j * LANES..][..LANES]);
                        for l in 0..LANES {
                            yi[l] += gij * vj[l];
                            yj[l] += gij * vi[l];
                        }
                    }
                }
            }
            // the block against every later row, one tile at a time (only
            // the last block can be short, and it has no later rows)
            for j0 in (i1..n).step_by(TILE) {
                let m = (n - j0).min(TILE);
                for (r, gr) in g.iter_mut().enumerate() {
                    kernel_row(s, s.point(i0 + r), j0, &mut gr[..m]);
                }
                for (yq, vq) in yp.chunks_exact_mut(len).zip(vp.chunks_exact(len)) {
                    let (yb, yt) = yq.split_at_mut(i1 * LANES);
                    let mut yi = [[0.0; LANES]; ROW_BLOCK];
                    let mut vi = [[0.0; LANES]; ROW_BLOCK];
                    for (r, (y, v)) in yi.iter_mut().zip(&mut vi).enumerate() {
                        y.copy_from_slice(&yb[(i0 + r) * LANES..][..LANES]);
                        v.copy_from_slice(&vq[(i0 + r) * LANES..][..LANES]);
                    }
                    let yt = yt[(j0 - i1) * LANES..][..m * LANES].chunks_exact_mut(LANES);
                    let vt = vq[j0 * LANES..][..m * LANES].chunks_exact(LANES);
                    for (t, (yj, vj)) in yt.zip(vt).enumerate() {
                        let mut acc = [0.0; LANES];
                        acc.copy_from_slice(yj);
                        for (r, gr) in g.iter().enumerate() {
                            let gt = gr[t];
                            for l in 0..LANES {
                                yi[r][l] += gt * vj[l];
                                acc[l] += gt * vi[r][l];
                            }
                        }
                        yj.copy_from_slice(&acc);
                    }
                    for (r, y) in yi.iter().enumerate() {
                        yb[(i0 + r) * LANES..][..LANES].copy_from_slice(y);
                    }
                }
            }
        }
    }
}

subsparse_linalg::simd::tiered! {
    /// The one-directional half of [`KernelSolver`]'s pair loop: the rows
    /// `rest` of `full`, which carry `+0.0` in every column, against every
    /// support row of `s`, whose voltages `vp` are packed like
    /// [`apply_panels`]'s. Row `rest[r]`'s responses go to row `r` of `yp`
    /// (panels of `rest.len()` rows), which starts at `+0.0`.
    fn apply_rest(full: &KernelSolver, rest: &[usize], s: &KernelSolver, vp: &[f64], yp: &mut [f64]) {
        let (m, len) = (s.diag.len(), rest.len() * LANES);
        if m == 0 || len == 0 {
            return;
        }
        let mut g = [[0.0; TILE]; ROW_BLOCK];
        for (b, rows) in rest.chunks(ROW_BLOCK).enumerate() {
            for j0 in (0..m).step_by(TILE) {
                let w = (m - j0).min(TILE);
                // a short last block leaves stale rows in `g`; their sums
                // are never stored
                for (gr, &i) in g.iter_mut().zip(rows) {
                    kernel_row(s, full.point(i), j0, &mut gr[..w]);
                }
                for (yq, vq) in yp.chunks_exact_mut(len).zip(vp.chunks_exact(m * LANES)) {
                    let yb = &mut yq[b * ROW_BLOCK * LANES..][..rows.len() * LANES];
                    let mut yi = [[0.0; LANES]; ROW_BLOCK];
                    for (y, src) in yi.iter_mut().zip(yb.chunks_exact(LANES)) {
                        y.copy_from_slice(src);
                    }
                    for (t, vj) in vq[j0 * LANES..][..w * LANES].chunks_exact(LANES).enumerate() {
                        for (y, gr) in yi.iter_mut().zip(&g) {
                            let gt = gr[t];
                            for l in 0..LANES {
                                y[l] += gt * vj[l];
                            }
                        }
                    }
                    for (dst, y) in yb.chunks_exact_mut(LANES).zip(&yi) {
                        dst.copy_from_slice(y);
                    }
                }
            }
        }
    }
}

subsparse_linalg::simd::tiered! {
    /// `off[i] = Σ_{j≠i} |G_ij|`, the row sums behind [`kernel`]'s
    /// diagonal, in the order of the plain pair loop: `off[j]` gains
    /// `|G_ij|` for every `i < j`, ascending, then its own row's `|G_jk|`
    /// for every `k > j`, ascending, one add each.
    ///
    /// Rows go [`DIAG_BLOCK`] at a time, so a block's row sums are
    /// independent add chains: the triangle inside the block in the plain
    /// loop's order, then the block against every later row one tile at a
    /// time (`kernel_row`), each later row's adds in ascending `i`.
    fn off_sums(s: &KernelSolver, off: &mut [f64]) {
        let n = off.len();
        let mut g = [[0.0; TILE]; DIAG_BLOCK];
        for i0 in (0..n).step_by(DIAG_BLOCK) {
            let i1 = (i0 + DIAG_BLOCK).min(n);
            let mut acc = [0.0; DIAG_BLOCK];
            for i in i0..i1 {
                // `off[i]` holds the adds of every earlier row by now
                acc[i - i0] = off[i];
                for j in i + 1..i1 {
                    let gij = s.off(i, j).abs();
                    off[j] += gij;
                    acc[i - i0] += gij;
                }
            }
            // only the last block can be short, and it has no later rows
            for j0 in (i1..n).step_by(TILE) {
                let m = (n - j0).min(TILE);
                for (r, gr) in g.iter_mut().enumerate() {
                    kernel_row(s, s.point(i0 + r), j0, &mut gr[..m]);
                }
                for (t, o) in off[j0..j0 + m].iter_mut().enumerate() {
                    for (a, gr) in acc.iter_mut().zip(&g) {
                        let gt = gr[t].abs();
                        *o += gt;
                        *a += gt;
                    }
                }
            }
            off[i0..i1].copy_from_slice(&acc[..i1 - i0]);
        }
    }
}

impl SubstrateSolver for KernelSolver {
    fn n_contacts(&self) -> usize {
        self.diag.len()
    }

    fn solve(&self, contact_voltages: &[f64]) -> Vec<f64> {
        let n = self.n_contacts();
        assert_eq!(contact_voltages.len(), n, "voltage vector length mismatch");
        let _t = SolveTrace::begin("solve.kernel", 1);
        self.apply(1, |_| contact_voltages).col(0).to_vec()
    }

    fn solve_batch(&self, voltages: &Mat) -> Mat {
        assert_eq!(voltages.n_rows(), self.n_contacts(), "voltage block row mismatch");
        let k = voltages.n_cols();
        let _t = SolveTrace::begin("solve_batch.kernel", k);
        self.apply(k, |c| voltages.col(c))
    }
}

impl HasSolveStats for KernelSolver {
    /// Direct kernel application: no inner iterations.
    fn solve_stats(&self) -> SolveStats {
        SolveStats::default()
    }
}

/// Builds the matrix-free [`KernelSolver`] for a layout: [`synthetic`]'s
/// kernel without [`synthetic`]'s `n x n` matrix.
///
/// Use this for extractions at contact counts where the dense backing
/// would not fit (or would dominate the run's memory) — the entries are
/// identical; only response rounding (summation order) differs.
pub fn kernel(layout: &subsparse_layout::Layout) -> KernelSolver {
    let (xs, ys): (Vec<f64>, Vec<f64>) = layout.contacts().iter().map(|c| c.centroid()).unzip();
    let areas: Vec<f64> = layout.contacts().iter().map(|c| c.area()).collect();
    let (a, _) = layout.extent();
    let c0 = (a / 64.0).powi(3).max(1e-9);
    let mut solver = KernelSolver { xs, ys, areas, diag: Vec::new(), c0 };
    // one streaming pass for the diagonally dominant diagonal: each
    // symmetric pair contributes |G_ij| to both row sums
    let mut off = vec![0.0; solver.areas.len()];
    off_sums(&solver, &mut off);
    solver.diag = off.iter().zip(&solver.areas).map(|(o, a)| 1.25 * o + 0.05 * a).collect();
    solver
}

/// Streams `(tag, rhs)` items through [`SubstrateSolver::solve_batch`] in
/// blocks of at most [`BATCH`] columns, invoking `on_batch(tags,
/// responses)` once per block, in input order: column `j` of `responses`
/// is the response to the right-hand side tagged `tags[j]`. A block of
/// one column goes through [`SubstrateSolver::solve`].
///
/// This is the assembly helper the extraction pipelines use to turn their
/// sequential solve loops into batched ones without changing results:
/// responses are identical to calling [`SubstrateSolver::solve`] on each
/// vector in turn. The right-hand sides are consumed lazily from the
/// iterator, so at most [`BATCH`] of them (plus the solver's output
/// block) are alive at once — peak memory is `O(n x BATCH)` no matter how
/// many solves a pipeline stage makes. A caller that wants blocks of
/// fewer columns (one combine phase per call, say) streams each run of
/// items through its own call.
pub fn for_each_batched<S: SubstrateSolver + ?Sized, T>(
    solver: &S,
    items: impl IntoIterator<Item = (T, Vec<f64>)>,
    mut on_batch: impl FnMut(Vec<T>, &Mat),
) {
    let mut tags: Vec<T> = Vec::with_capacity(BATCH);
    let mut rhs: Vec<Vec<f64>> = Vec::with_capacity(BATCH);
    let mut flush = |tags: &mut Vec<T>, rhs: &mut Vec<Vec<f64>>| {
        let responses = match rhs.len() {
            0 => return,
            1 => Mat::from_cols(&[solver.solve(&rhs[0])]),
            _ => solver.solve_batch(&Mat::from_cols(rhs)),
        };
        rhs.clear();
        on_batch(std::mem::take(tags), &responses);
    };
    for (tag, v) in items {
        tags.push(tag);
        rhs.push(v);
        if rhs.len() == BATCH {
            flush(&mut tags, &mut rhs);
        }
    }
    flush(&mut tags, &mut rhs);
}

/// Extracts the columns `cols` of `G`, in that order (used for sampled
/// error estimates on large examples, thesis Table 4.3): the unit-vector
/// right-hand sides go through [`SubstrateSolver::solve_batch`] in blocks
/// of at most [`BATCH`] columns.
pub fn extract_columns<S: SubstrateSolver + ?Sized>(solver: &S, cols: &[usize]) -> Mat {
    let n = solver.n_contacts();
    let mut g = Mat::zeros(n, cols.len());
    for (k0, chunk) in cols.chunks(BATCH).enumerate().map(|(c, ch)| (c * BATCH, ch)) {
        let mut e = Mat::zeros(n, chunk.len());
        for (j, &i) in chunk.iter().enumerate() {
            e.col_mut(j)[i] = 1.0;
        }
        let block = solver.solve_batch(&e);
        for j in 0..chunk.len() {
            g.col_mut(k0 + j).copy_from_slice(block.col(j));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solver_roundtrip() {
        let g = Mat::from_rows(&[&[3.0, -1.0], &[-1.0, 2.0]]);
        let s = DenseSolver::new(g.clone());
        let extracted = extract_dense(&s);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(extracted[(i, j)], g[(i, j)]);
            }
        }
    }

    #[test]
    fn counting_solver_counts() {
        let s = CountingSolver::new(DenseSolver::new(Mat::identity(3)));
        let _ = extract_dense(&s);
        assert_eq!(s.count(), 3);
        s.reset();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn kernel_solver_matches_synthetic_dense() {
        let layout = subsparse_layout::generators::regular_grid(8.0, 6, 0.4);
        let dense = synthetic(&layout);
        let mf = kernel(&layout);
        assert_eq!(mf.n_contacts(), dense.n_contacts());
        let g = dense.matrix();
        let n = mf.n_contacts();
        // extracted entries: unit-vector responses reproduce G's columns
        // to summation-order rounding only
        let cols: Vec<usize> = (0..n).collect();
        let gk = extract_columns(&mf, &cols);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (gk[(i, j)], g[(i, j)]);
                assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    "entry ({i},{j}): kernel {a} vs dense {b}"
                );
            }
        }
        // a generic response also agrees through the dense matvec
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (yk, yd) = (mf.solve(&v), dense.solve(&v));
        for i in 0..n {
            assert!((yk[i] - yd[i]).abs() <= 1e-12 * yd[i].abs().max(1.0));
        }
    }

    /// The dense formula `synthetic` evaluated on its own before it was
    /// built from the kernel entries, kept as the bit-level reference. Its
    /// distance is `sqrt(dx² + dy²)`, as in `pair_kernel`.
    fn dense_reference(layout: &subsparse_layout::Layout) -> Mat {
        let n = layout.n_contacts();
        let centroids: Vec<(f64, f64)> = layout.contacts().iter().map(|c| c.centroid()).collect();
        let areas: Vec<f64> = layout.contacts().iter().map(|c| c.area()).collect();
        let (a, _) = layout.extent();
        let c0 = (a / 64.0).powi(3).max(1e-9);
        let mut g = Mat::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (centroids[i].0 - centroids[j].0, centroids[i].1 - centroids[j].1);
                let d = (dx * dx + dy * dy).sqrt();
                let v = -areas[i] * areas[j] / (c0 + d * d * d);
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| g[(i, j)].abs()).sum();
            g[(i, i)] = 1.25 * off + 0.05 * areas[i];
        }
        g
    }

    #[test]
    fn synthetic_keeps_the_dense_formula_bits() {
        use subsparse_layout::generators;
        let mut layouts: Vec<_> =
            [6, 13, 20].iter().map(|&k| generators::regular_grid(128.0, k, 2.0)).collect();
        layouts.push(generators::alternating_grid(128.0, 12, 3.0, 1.5));
        layouts.push(generators::irregular_same_size(128.0, 16, 2.0, 7));
        layouts.push(generators::mixed_shapes(128.0));
        for layout in &layouts {
            let (want, got) = (dense_reference(layout), synthetic(layout));
            let n = layout.n_contacts();
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (got.matrix()[(i, j)], want[(i, j)]);
                    assert_eq!(a.to_bits(), b.to_bits(), "n = {n}, entry ({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn kernel_solver_batch_bit_identical_to_serial() {
        let layout = subsparse_layout::generators::regular_grid(8.0, 5, 0.4);
        let mf = kernel(&layout);
        let n = mf.n_contacts();
        let block = Mat::from_fn(n, 7, |i, j| ((i * 7 + j) as f64 * 0.11).cos());
        subsparse_linalg::simd::each_tier(|tier| {
            let batched = mf.solve_batch(&block);
            for j in 0..block.n_cols() {
                let serial = mf.solve(block.col(j));
                assert_eq!(
                    batched.col(j),
                    &serial[..],
                    "{tier:?}: column {j} diverged from serial solve"
                );
            }
        });
    }

    /// The pair loop as the plain index loop it replaced, the order it
    /// keeps: pairs `i` then `j > i`, and per column `yi` before `yj`.
    /// `vr`/`yr` hold row `i`'s `k` values at `[i*k .. (i+1)*k]`.
    fn apply_rows_scalar(s: &KernelSolver, vr: &[f64], yr: &mut [f64], k: usize) {
        let n = s.diag.len();
        for i in 0..n {
            for c in 0..k {
                yr[i * k + c] = s.diag[i] * vr[i * k + c];
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let g = s.off(i, j);
                for c in 0..k {
                    yr[i * k + c] += g * vr[j * k + c];
                    yr[j * k + c] += g * vr[i * k + c];
                }
            }
        }
    }

    /// The first `n` contacts of `s`, diagonal entries included: a solver
    /// of any size for the pair loop's edge cases.
    fn prefix(s: &KernelSolver, n: usize) -> KernelSolver {
        KernelSolver {
            xs: s.xs[..n].to_vec(),
            ys: s.ys[..n].to_vec(),
            areas: s.areas[..n].to_vec(),
            diag: s.diag[..n].to_vec(),
            c0: s.c0,
        }
    }

    /// Voltage blocks of `k` columns with the supports the extraction
    /// sends: rows outside the support are `+0.0` in every column. The
    /// combine-solve group places each contact in an 8 x 8 grid of squares
    /// over the 128-wide layouts the tests use.
    fn support_blocks(s: &KernelSolver, k: usize) -> Vec<(&'static str, Mat)> {
        let n = s.n_contacts();
        let value = |i: usize, c: usize| (((i * k + c) * 13 + 5) as f64 * 0.173).sin();
        let on = |keep: &dyn Fn(usize, usize) -> bool| {
            Mat::from_fn(n, k, |i, c| if keep(i, c) { value(i, c) } else { 0.0 })
        };
        // squares at least three apart, each column a different subset of
        // their contacts
        let grouped = |i: usize, c: usize| {
            let (sx, sy) = ((s.xs[i] / 16.0) as usize, (s.ys[i] / 16.0) as usize);
            sx.is_multiple_of(3) && sy.is_multiple_of(3) && !(i + c).is_multiple_of(4)
        };
        let signed = Mat::from_fn(n, k, |i, c| match (i % 4, (i + c) % 3) {
            (0, 0) => -0.0,
            (0, 1) => 0.0,
            (0, _) => value(i, c),
            // a row of -0.0 alone is in the support
            (2, _) => -0.0,
            _ => 0.0,
        });
        vec![
            ("full", on(&|_, _| true)),
            ("empty", on(&|_, _| false)),
            ("single row", on(&|i, _| i == n / 2)),
            ("every third row", on(&|i, _| i.is_multiple_of(3))),
            ("combine-solve group", on(&grouped)),
            ("signed zeros", signed),
        ]
    }

    #[test]
    fn apply_rows_matches_the_scalar_loop_on_every_tier() {
        use subsparse_layout::generators;
        // 23 x 23 contacts: more than two tiles of later rows, and a
        // short last row block
        let big = kernel(&generators::regular_grid(128.0, 23, 2.0));
        let n = big.n_contacts();
        assert!(n > 2 * TILE && !n.is_multiple_of(ROW_BLOCK), "n = {n}");
        let irregular = kernel(&generators::irregular_same_size(128.0, 16, 2.0, 5));
        // n <= 5: no full row block, or one and a short one
        let mut solvers: Vec<KernelSolver> = (1..=5).map(|n| prefix(&irregular, n)).collect();
        solvers.extend([big, irregular]);
        // the scalar references first: they do not depend on the tier
        let mut cases = Vec::new();
        for s in &solvers {
            let n = s.n_contacts();
            for k in [1, 3, 7, 8, 9, 32, 33] {
                for (name, block) in support_blocks(s, k) {
                    let vr: Vec<f64> = (0..n * k).map(|t| block[(t / k, t % k)]).collect();
                    let mut want = vec![0.0; n * k];
                    apply_rows_scalar(s, &vr, &mut want, k);
                    if name == "empty" {
                        assert!(want.iter().all(|y| y.to_bits() == 0), "n = {n}: not +0.0");
                    }
                    cases.push((s, name, block, want));
                }
            }
        }
        let tiers = subsparse_linalg::simd::each_tier(|tier| {
            for (s, name, block, want) in &cases {
                let (n, k) = (block.n_rows(), block.n_cols());
                let got = s.solve_batch(block);
                for (t, b) in want.iter().enumerate() {
                    let (i, c) = (t / k, t % k);
                    let a = got[(i, c)];
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{tier:?}, {name}, n = {n}, k = {k}, ({i},{c}): {a} vs {b}"
                    );
                }
                // a single column has a support of its own
                for c in [0, k - 1] {
                    let single = s.solve(block.col(c));
                    for (i, a) in single.iter().enumerate() {
                        let b = want[i * k + c];
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tier:?}, {name}, n = {n}, k = {k}, solve column {c}, row {i}"
                        );
                    }
                }
            }
        });
        println!("kernel pair loop tiers exercised: {tiers:?}");
    }

    /// `kernel`'s diagonal pass as the index loop it replaced: each pair's
    /// `|G_ij|` added to `off[i]`, then to `off[j]`, pairs `i` then
    /// `j > i`.
    fn diag_scalar(s: &KernelSolver) -> Vec<f64> {
        let n = s.areas.len();
        let mut off = vec![0.0; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let g = s.off(i, j).abs();
                off[i] += g;
                off[j] += g;
            }
        }
        (0..n).map(|i| 1.25 * off[i] + 0.05 * s.areas[i]).collect()
    }

    #[test]
    fn kernel_diag_matches_the_scalar_pass_on_every_tier() {
        use subsparse_layout::{generators, Layout};
        let mut layouts: Vec<Layout> = ["a", "a.b", "a.b.c", "a.b.c.d", "a.b.c.d.e"]
            .iter()
            .map(|art| Layout::from_ascii(8.0, 8.0, art))
            .collect();
        layouts.push(generators::regular_grid(128.0, 23, 2.0));
        layouts.push(generators::irregular_same_size(128.0, 16, 2.0, 5));
        layouts.push(generators::mixed_shapes(128.0));
        subsparse_linalg::simd::each_tier(|tier| {
            for layout in &layouts {
                let s = kernel(layout);
                let n = s.n_contacts();
                assert_eq!(n, layout.n_contacts());
                for (i, (a, b)) in s.diag.iter().zip(diag_scalar(&s)).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{tier:?}, n = {n}, diag[{i}]: {a} vs {b}"
                    );
                }
            }
        });
    }

    #[test]
    fn extract_columns_subset() {
        let g = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = DenseSolver::new(g.clone());
        let cols = extract_columns(&s, &[2, 0]);
        for i in 0..4 {
            assert_eq!(cols[(i, 0)], g[(i, 2)]);
            assert_eq!(cols[(i, 1)], g[(i, 0)]);
        }
    }
}
