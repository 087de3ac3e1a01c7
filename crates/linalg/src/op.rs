//! The serving layer: one zero-allocation, blocked apply path over every
//! representation of a coupling operator.
//!
//! Extraction produces operators in several shapes — a dense [`Mat`], a
//! plain sparse [`Csr`], the transformed-basis `Q Gw Q'` form, a factored
//! low-rank `U S V'` ([`LowRankOp`]) — but a circuit simulator consumes
//! them all the same way: apply `y = G x` thousands of times, often for a
//! whole block of excitation vectors at once. [`CouplingOp`] is that
//! consumer's contract:
//!
//! * [`apply_into`](CouplingOp::apply_into) — one vector, into a caller
//!   buffer, with every intermediate living in a reusable
//!   [`ApplyWorkspace`], so steady-state serving performs **zero heap
//!   allocation**;
//! * [`apply_block_into`](CouplingOp::apply_block_into) — a dense block of
//!   vectors at once. Implementations use blocked kernels that stream
//!   each operator entry once per panel or lane tile instead of once per
//!   vector; the per-column accumulation order is identical to the
//!   per-vector path, so **blocked results are bit-identical** to looped
//!   [`apply_into`](CouplingOp::apply_into) calls.
//!
//! ## When blocked apply wins
//!
//! A single sparse apply is memory-bound: every stored entry of the
//! operator is read from DRAM once per vector and used for exactly one
//! multiply-add. Applying a block of `b` vectors amortizes that traffic —
//! each entry read serves `b` multiply-adds — so throughput grows with the
//! block width until the panel of right-hand sides stops fitting in cache.
//! In practice the win is largest exactly where serving hurts: big
//! operators (`n >= 1024`) applied to many vectors (`b >= 8`), the
//! repeated-apply workload inside transient circuit simulation. For a
//! handful of applies on a small operator, plain
//! [`apply_into`](CouplingOp::apply_into) is already optimal and blocking
//! buys nothing — which is why both entry points exist.
//!
//! ## Thread-parallel serving
//!
//! [`ParallelApply`] is the layer above: it shards one
//! [`apply_block_into`](CouplingOp::apply_block_into) call across the
//! persistent worker pool by one rule. A wide block is cut into
//! contiguous column panels, each pushed through the operator's serial
//! blocked kernel; a narrow block (or one too small to pay for the pool
//! handoff) runs inline on that same kernel. Column panels are the only
//! parallel axis, for every operator. Every shard runs the unmodified
//! serial kernel, so the assembled result is **bit-identical to the
//! serial apply for every thread count** — the same determinism
//! contract the batched extraction side (`solve_batch`) honors. Each
//! worker owns a persistent [`ApplyWorkspace`] plus staging buffers,
//! reused across calls, so the steady-state serving work allocates
//! nothing per worker.
//!
//! # Example
//!
//! ```
//! use subsparse_linalg::{ApplyWorkspace, CouplingOp, Mat};
//!
//! let g = Mat::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
//! let mut ws = ApplyWorkspace::new();
//! let mut y = vec![0.0; 2];
//! g.apply_into(&[1.0, 0.0], &mut y, &mut ws); // no allocation after warm-up
//! assert_eq!(y, vec![2.0, -1.0]);
//! assert_eq!(g.nnz(), 4);
//! ```

use crate::exec;
use crate::faults;
use crate::mat::Mat;
use crate::sparse::Csr;
use crate::trace;

/// Resolves a worker-thread knob: `0` means "auto" — the
/// `SUBSPARSE_THREADS` environment variable if set to a positive
/// integer, otherwise one worker per available CPU. This is the one
/// canonical thread knob: the solver configs, the eval options, and
/// every CLI/bench `--threads` flag all funnel through it,
/// so `SUBSPARSE_THREADS=4` caps every auto-resolved pool in the process
/// without touching a flag. An explicit nonzero knob always wins over
/// the environment.
///
/// The auto resolution (environment + CPU probe) is computed once per
/// process and cached.
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    use std::sync::OnceLock;
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        resolve_auto_threads(
            std::env::var("SUBSPARSE_THREADS").ok().as_deref(),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        )
    })
}

/// The pure resolution rule behind [`resolve_threads`]'s auto path,
/// split out so the environment-override semantics are unit-testable
/// without mutating process state.
fn resolve_auto_threads(env: Option<&str>, cpus: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0).unwrap_or(cpus)
}

/// Reusable scratch space for [`CouplingOp`] applies.
///
/// Holds three scratch matrices that the apply pipelines resize in place
/// (single-vector applies use them as one-column matrices). Two suffice
/// for the straight `Q' → Gw → Q` sandwich; tree-structured transforms
/// (the fast wavelet transform path) additionally ping-pong level
/// coefficients through the third. Buffers only grow, so once a
/// workspace has served an operator/block-width combination, every
/// further apply through it is allocation-free — the contract the
/// serving layer is named for, and what the counting-allocator test in
/// `crates/hier/tests/apply_alloc.rs` pins down.
#[derive(Clone, Debug, Default)]
pub struct ApplyWorkspace {
    a: Mat,
    b: Mat,
    c: Mat,
}

impl ApplyWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the scratch buffers for applying an operator with
    /// `inner` intermediate values per vector to blocks of up to `block`
    /// vectors, so even the first apply allocates nothing. `inner` is the
    /// longest intermediate: `n` for the CSR factors, and
    /// `max(n, scratch_len)` for a fast wavelet transform. The lane-tiled
    /// kernels stage nothing beyond these three buffers.
    pub fn warm(&mut self, inner: usize, block: usize) {
        self.a.resize(inner, block);
        self.b.resize(inner, block);
        self.c.resize(inner, block);
    }

    /// The first two scratch matrices, mutably (they are always
    /// disjoint) — enough for two-stage pipelines.
    pub fn mats(&mut self) -> (&mut Mat, &mut Mat) {
        (&mut self.a, &mut self.b)
    }

    /// All three scratch matrices, mutably (pairwise disjoint), for
    /// pipelines that also need a transform-internal scratch buffer.
    pub fn mats3(&mut self) -> (&mut Mat, &mut Mat, &mut Mat) {
        (&mut self.a, &mut self.b, &mut self.c)
    }
}

/// A served coupling operator: anything that can play `x ↦ G x` for a
/// circuit simulator, one vector or one block at a time, without
/// allocating in steady state.
///
/// Implementations must keep [`apply_block_into`](Self::apply_block_into)
/// bit-identical, column for column, to repeated
/// [`apply_into`](Self::apply_into) calls — blocking is a performance
/// lever, never a semantic one. The contract suite in
/// `crates/hier/tests/coupling_contract.rs` enforces this for every
/// implementation in the workspace.
pub trait CouplingOp {
    /// Number of contacts (the operator is `n x n`).
    fn n(&self) -> usize;

    /// Stored nonzeros across the representation's *logical* factors —
    /// the per-apply work estimate and the exchange-format size. Each
    /// factor counts once even if an implementation also keeps a derived
    /// copy (a cached transpose, a factored fast-transform *replacing*
    /// its factor's traversal counts instead of it).
    fn nnz(&self) -> usize;

    /// Short stable name of the representation (`"dense"`, `"csr"`,
    /// `"basis-rep"`, `"lowrank-factored"`), for CLIs and reports.
    fn kind(&self) -> &'static str;

    /// Applies `y = G x` into `y` (overwritten), using `ws` for every
    /// intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from [`n`](Self::n).
    fn apply_into(&self, x: &[f64], y: &mut [f64], ws: &mut ApplyWorkspace);

    /// Applies `Y = G X` for a dense block of vectors (columns), resizing
    /// `y` to `n x x.n_cols()` in place and overwriting it.
    ///
    /// The default forwards column by column through
    /// [`apply_into`](Self::apply_into); representations with a blocked
    /// kernel override it. Either way column `j` of the result is
    /// bit-identical to `apply_into(x.col(j), ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.n_rows()` differs from [`n`](Self::n).
    fn apply_block_into(&self, x: &Mat, y: &mut Mat, ws: &mut ApplyWorkspace) {
        assert_eq!(x.n_rows(), self.n(), "apply_block dimension mismatch");
        y.resize(self.n(), x.n_cols());
        for j in 0..x.n_cols() {
            self.apply_into(x.col(j), y.col_mut(j), ws);
        }
    }

    /// Allocating convenience over [`apply_into`](Self::apply_into), for
    /// one-off applies outside the serving loop.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.apply_into(x, &mut y, &mut ApplyWorkspace::new());
        y
    }

    /// Allocating convenience over
    /// [`apply_block_into`](Self::apply_block_into).
    fn apply_block(&self, x: &Mat) -> Mat {
        let mut y = Mat::zeros(0, 0);
        self.apply_block_into(x, &mut y, &mut ApplyWorkspace::new());
        y
    }
}

impl CouplingOp for Mat {
    fn n(&self) -> usize {
        self.n_rows()
    }

    fn nnz(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    fn kind(&self) -> &'static str {
        "dense"
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64], _ws: &mut ApplyWorkspace) {
        let _t = trace::time_hist(trace::Hist::ApplyVectorNs);
        self.matvec_into(x, y);
    }

    fn apply_block_into(&self, x: &Mat, y: &mut Mat, _ws: &mut ApplyWorkspace) {
        let _s = trace::span("apply_block.dense");
        let _t = trace::time_hist(trace::Hist::ApplyBlockNs);
        self.matmul_into(x, y);
    }
}

impl CouplingOp for Csr {
    fn n(&self) -> usize {
        self.n_rows()
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    fn kind(&self) -> &'static str {
        "csr"
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64], _ws: &mut ApplyWorkspace) {
        let _t = trace::time_hist(trace::Hist::ApplyVectorNs);
        self.matvec_into(x, y);
    }

    fn apply_block_into(&self, x: &Mat, y: &mut Mat, _ws: &mut ApplyWorkspace) {
        let _s = trace::span("apply_block.csr");
        let _t = trace::time_hist(trace::Hist::ApplyBlockNs);
        self.matmul_dense_into(x, y);
    }
}

/// One worker's persistent serving state: its scratch workspace plus the
/// staging panels a shard computes through. Buffers only grow, so after
/// warm-up a worker's whole shard — stage the inputs, apply, publish the
/// outputs — touches the allocator zero times.
#[derive(Clone, Debug, Default)]
struct WorkerSlot {
    ws: ApplyWorkspace,
    x: Mat,
    y: Mat,
}

impl WorkerSlot {
    /// One column shard: columns `[j0, j0 + w)` of `Y = G X`, where `w`
    /// is implied by `y_panel` (a contiguous column-major panel of the
    /// output). Stages the input columns into the slot, runs the serial
    /// blocked kernel, and copies the result out — every column is the
    /// serial kernel's own bits.
    fn run_col_shard<O: CouplingOp + ?Sized>(
        &mut self,
        op: &O,
        x: &Mat,
        j0: usize,
        y_panel: &mut [f64],
    ) {
        let n = op.n();
        let w = y_panel.len() / n.max(1);
        self.x.resize(n, w);
        for (c, dst) in self.x.cols_mut().enumerate() {
            dst.copy_from_slice(x.col(j0 + c));
        }
        op.apply_block_into(&self.x, &mut self.y, &mut self.ws);
        y_panel.copy_from_slice(self.y.data());
    }
}

/// A thread-parallel serving executor: one
/// [`apply_block_into`](CouplingOp::apply_block_into) call, sharded
/// across the persistent shared worker pool
/// ([`Executor`](crate::exec::Executor)).
///
/// The contract is the serving layer's, extended by one clause: for every
/// thread count — including `0` (auto) and counts exceeding the block
/// width or the contact count — the result is **bit-identical** to the
/// serial apply. The executor guarantees this by construction: it never
/// re-associates anything. A wide block is cut into contiguous column
/// panels, each pushed through the unmodified serial blocked kernel
/// (whose columns already bit-match the per-vector apply); a narrow block
/// runs inline on that kernel. Column panels are the only parallel axis.
/// Determinism is enforced by the contract suites
/// `crates/hier/tests/coupling_contract.rs` (every operator at 1, 2,
/// auto and more workers than contacts) and
/// `crates/core/tests/executor_contract.rs` (every pool site, including
/// a thresholded wavelet model).
///
/// Worker state — one [`ApplyWorkspace`] plus input/output staging panels
/// per worker — lives in the executor and is reused across calls, so
/// steady-state serving work performs no allocation per worker (pinned by
/// `crates/hier/tests/apply_alloc.rs`; the pool handoff itself is the one
/// per-call cost outside the serving path). Construct once per serving
/// loop, next to the operator, and feed it every block.
///
/// # Example
///
/// ```
/// use subsparse_linalg::{CouplingOp, Mat, ParallelApply};
///
/// let g = Mat::from_fn(64, 64, |i, j| 1.0 / (1.0 + (i + j) as f64));
/// let x = Mat::from_fn(64, 8, |i, j| (i * 8 + j) as f64);
/// let mut pool = ParallelApply::new(2);
/// let mut y = Mat::zeros(0, 0);
/// pool.apply_block_into(&g, &x, &mut y); // bit-identical to g.apply_block(&x)
/// assert_eq!(y.n_cols(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelApply {
    /// The worker-count knob, resolved once at construction:
    /// `available_parallelism` consults cgroup files on Linux and std
    /// advises caching it, so the auto mode must not re-query it on the
    /// per-apply hot path.
    resolved: usize,
    /// Fewest stored-value traversals (`nnz x block / workers`) worth a
    /// worker of its own; see [`with_min_work`](Self::with_min_work).
    min_work: usize,
    slots: Vec<WorkerSlot>,
}

/// Default of [`ParallelApply::with_min_work`]: stored-value traversals
/// (`nnz x block`) each worker must be fed before the dispatch engages
/// it. The threshold is sized against the cost of handing a shard to the
/// persistent pool: about 2.6 µs at p50 on one CPU when the value was
/// set, against ~17 µs for a fresh thread scope. Column panels below it
/// — e.g. a dense n=64 block of 3 vectors — serve on the inline serial
/// path instead of a degraded dispatch.
pub const DEFAULT_MIN_WORK_PER_WORKER: usize = 16 * 1024;

impl ParallelApply {
    /// Creates an executor with the given worker count (`0` = one per
    /// available CPU — the [`resolve_threads`] convention, resolved once
    /// here) and the default min-work-per-worker threshold
    /// ([`DEFAULT_MIN_WORK_PER_WORKER`]). Worker scratch is grown lazily
    /// on first use; see [`warm`](Self::warm).
    pub fn new(threads: usize) -> Self {
        ParallelApply {
            resolved: resolve_threads(threads),
            min_work: DEFAULT_MIN_WORK_PER_WORKER,
            slots: Vec::new(),
        }
    }

    /// Sets the min-work-per-worker threshold: an apply engages at most
    /// `nnz(op) x block / min_work` workers, so no worker is spawned for
    /// less than `min_work` stored-value traversals, and sub-threshold
    /// applies serve inline (serial kernel, no spawn at all). `0` disables
    /// the threshold — every apply uses as many workers as its column
    /// count allows, which the bit-identity contract tests rely on to force
    /// the threaded paths on arbitrarily small fixtures.
    pub fn with_min_work(mut self, min_work: usize) -> Self {
        self.min_work = min_work;
        self
    }

    /// The resolved worker count (`0` resolved to the CPU count at
    /// construction time).
    pub fn resolved_threads(&self) -> usize {
        self.resolved
    }

    /// Workers the threshold allows for an apply of `block` columns over
    /// `nnz` stored values: each spawned worker must be fed at least
    /// the [`with_min_work`](Self::with_min_work) threshold's traversals.
    fn work_capped(&self, nnz: usize, block: usize) -> usize {
        match nnz.saturating_mul(block).checked_div(self.min_work) {
            // min_work == 0 disables the threshold entirely
            None => self.resolved,
            Some(fed) => self.resolved.min(fed.max(1)),
        }
    }

    /// How many workers an apply of `block` columns through `op` would
    /// actually engage — the dispatch rule of
    /// [`apply_block_into`](Self::apply_block_into) without running it.
    /// `1` means the executor would serve inline (serial kernel, no
    /// spawn), which callers benchmarking or scheduling threaded serving
    /// can use to avoid mislabeling a degraded apply as parallel.
    pub fn planned_workers<O: CouplingOp + ?Sized>(&self, op: &O, block: usize) -> usize {
        if op.n() == 0 || block == 0 {
            return 1;
        }
        let workers = self.work_capped(op.nnz(), block).min(block);
        // nonempty panels after ceil rounding, exactly as dispatched
        block.div_ceil(block.div_ceil(workers))
    }

    /// Pre-grows every worker's scratch for serving `op` at blocks up to
    /// `block` columns wide, so even the first threaded apply allocates
    /// nothing inside the workers. A one-column block serves inline
    /// through slot 0's workspace, which this warm-up grows as well.
    pub fn warm<O: CouplingOp + Sync + ?Sized>(&mut self, op: &O, block: usize) {
        let x = Mat::zeros(op.n(), block.max(1));
        let mut y = Mat::zeros(0, 0);
        self.apply_block_into(op, &x, &mut y);
    }

    /// Applies `Y = G X` into `y` (resized and overwritten), sharded
    /// across the executor's workers — bit-identical to
    /// `op.apply_block_into(x, y, ws)` for every thread count.
    ///
    /// The block is cut into contiguous column panels, one per worker, as
    /// many as [`planned_workers`](Self::planned_workers) allows: the
    /// resolved thread count, capped by the block width and by the
    /// min-work threshold. One planned worker means a plain inline serial
    /// apply — also the `threads == 1` fast path: no spawn, no copy.
    ///
    /// # Panics
    ///
    /// Panics if `x.n_rows()` differs from `op.n()`.
    pub fn apply_block_into<O: CouplingOp + Sync + ?Sized>(
        &mut self,
        op: &O,
        x: &Mat,
        y: &mut Mat,
    ) {
        assert_eq!(x.n_rows(), op.n(), "parallel apply dimension mismatch");
        let _pool_span = trace::span("pool.apply_block");
        let n = op.n();
        let b = x.n_cols();
        y.resize(n, b);
        if n == 0 || b == 0 {
            return;
        }
        let shards = self.planned_workers(op, b);
        if shards <= 1 {
            self.ensure_slots(1);
            op.apply_block_into(x, y, &mut self.slots[0].ws);
            return;
        }
        let w = b.div_ceil(shards);
        self.ensure_slots(shards);
        trace::add(trace::Counter::ColPanels, shards as u64);
        // each shard owns one slot and one contiguous panel of the
        // column-major output: w columns of n rows
        let panels = exec::ShardSlices::new(y.data_mut(), n * w);
        let slots = exec::ShardItems::new(&mut self.slots[..shards]);
        let poisoned = exec::Executor::global().run(shards, &|k| {
            let _w = trace::span_track("worker.col_shard", trace::worker_track(k), k as u64);
            if faults::enabled() && faults::fire(faults::Failpoint::PoolWorkerPanic) {
                panic!("injected fault: pool.worker_panic");
            }
            // Safety: shard k alone touches slot k and panel k
            let slot = unsafe { slots.item(k) };
            let y_panel = unsafe { panels.chunk(k) };
            slot.run_col_shard(op, x, k * w, y_panel);
        });
        if poisoned {
            // the poisoned worker's output panel is suspect; the serial
            // path rewrites every column, so rerunning it restores the
            // bit-identical result
            self.degraded_serial_apply(op, x, y);
        }
    }

    /// The degraded fallback after a worker panic: one serial apply over
    /// the whole block, bit-identical to what the pool would have
    /// produced (the executor never re-associates, so the serial kernel
    /// is the reference). Counted in `degraded_applies` and visible as a
    /// span so serving traces show every fallback.
    #[cold]
    fn degraded_serial_apply<O: CouplingOp + Sync + ?Sized>(
        &mut self,
        op: &O,
        x: &Mat,
        y: &mut Mat,
    ) {
        trace::add(trace::Counter::DegradedApplies, 1);
        let _s = trace::span("pool.degraded_serial_apply");
        eprintln!(
            "warning: a pool worker panicked; re-running this apply on the serial path \
             (result is bit-identical, see the degraded_applies counter)"
        );
        self.ensure_slots(1);
        op.apply_block_into(x, y, &mut self.slots[0].ws);
    }

    /// Allocating convenience over
    /// [`apply_block_into`](Self::apply_block_into).
    pub fn apply_block<O: CouplingOp + Sync + ?Sized>(&mut self, op: &O, x: &Mat) -> Mat {
        let mut y = Mat::zeros(0, 0);
        self.apply_block_into(op, x, &mut y);
        y
    }

    fn ensure_slots(&mut self, workers: usize) {
        if self.slots.len() < workers {
            self.slots.resize_with(workers, WorkerSlot::default);
        }
    }
}

/// A factored low-rank coupling operator `G ~ U diag(s) V'`, applied as
/// `U (s ∘ (V' x))` without ever materializing the `n x n` product.
///
/// This is the serve-ready form of an SVD-style compression: `2 n r + r`
/// stored values and `O(n r)` per apply instead of `n^2`. Symmetric
/// operators use `V = U`; the factors are kept separate so one-sided
/// truncations serve just as well.
#[derive(Clone, Debug)]
pub struct LowRankOp {
    u: Mat,
    s: Vec<f64>,
    v: Mat,
}

impl LowRankOp {
    /// Builds the operator from its factors.
    ///
    /// # Panics
    ///
    /// Panics unless `u` and `v` are `n x r` with `r == s.len()`.
    pub fn new(u: Mat, s: Vec<f64>, v: Mat) -> Self {
        assert_eq!(u.n_cols(), s.len(), "U column count must match singular values");
        assert_eq!(v.n_cols(), s.len(), "V column count must match singular values");
        assert_eq!(u.n_rows(), v.n_rows(), "U and V must act on the same space");
        LowRankOp { u, s, v }
    }

    /// The rank `r` of the factorization.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Truncates an SVD to its `r` leading triplets and serves it.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the number of computed singular values.
    pub fn from_svd(f: &crate::svd::Svd, r: usize) -> Self {
        LowRankOp::new(f.u.col_block(0, r), f.s[..r].to_vec(), f.v.col_block(0, r))
    }
}

impl CouplingOp for LowRankOp {
    fn n(&self) -> usize {
        self.u.n_rows()
    }

    fn nnz(&self) -> usize {
        self.u.n_rows() * self.u.n_cols() + self.s.len() + self.v.n_rows() * self.v.n_cols()
    }

    fn kind(&self) -> &'static str {
        "lowrank-factored"
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64], ws: &mut ApplyWorkspace) {
        let _h = trace::time_hist(trace::Hist::ApplyVectorNs);
        let (t, _) = ws.mats();
        t.resize(self.rank(), 1);
        self.v.matvec_t_into(x, t.col_mut(0));
        for (ti, si) in t.col_mut(0).iter_mut().zip(&self.s) {
            *ti *= si;
        }
        self.u.matvec_into(t.col(0), y);
    }

    fn apply_block_into(&self, x: &Mat, y: &mut Mat, ws: &mut ApplyWorkspace) {
        let _s = trace::span("apply_block.lowrank");
        let _h = trace::time_hist(trace::Hist::ApplyBlockNs);
        let (t, _) = ws.mats();
        self.v.matmul_tn_into(x, t);
        for tj in t.cols_mut() {
            for (ti, si) in tj.iter_mut().zip(&self.s) {
                *ti *= si;
            }
        }
        self.u.matmul_into(t, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::svd::svd;

    fn test_csr() -> Csr {
        let mut t = Triplets::new(4, 4);
        for (i, j, v) in [(0, 0, 2.0), (0, 2, -1.0), (1, 1, 3.0), (2, 3, 0.5), (3, 0, -2.5)] {
            t.push(i, j, v);
        }
        t.to_csr()
    }

    #[test]
    fn auto_thread_resolution_honors_env_then_cpus() {
        // explicit knob always wins (resolve_threads returns it untouched)
        assert_eq!(resolve_threads(3), 3);
        // auto: a valid SUBSPARSE_THREADS overrides the CPU count…
        assert_eq!(resolve_auto_threads(Some("4"), 8), 4);
        assert_eq!(resolve_auto_threads(Some(" 2 "), 8), 2);
        // …and anything unusable falls back to it
        assert_eq!(resolve_auto_threads(Some("0"), 8), 8);
        assert_eq!(resolve_auto_threads(Some("lots"), 8), 8);
        assert_eq!(resolve_auto_threads(None, 8), 8);
    }

    #[test]
    fn trait_objects_serve_every_kind() {
        let dense = Mat::from_fn(4, 4, |i, j| 1.0 / (1.0 + (i + 2 * j) as f64));
        let sparse = test_csr();
        let f = svd(&dense);
        let lr = LowRankOp::from_svd(&f, 2);
        let ops: Vec<&dyn CouplingOp> = vec![&dense, &sparse, &lr];
        let mut ws = ApplyWorkspace::new();
        let x = vec![1.0, -1.0, 0.5, 0.0];
        let mut y = vec![0.0; 4];
        for op in ops {
            assert_eq!(op.n(), 4);
            assert!(op.nnz() > 0);
            assert!(!op.kind().is_empty());
            op.apply_into(&x, &mut y, &mut ws);
            assert_eq!(y, op.apply_vec(&x));
        }
    }

    #[test]
    fn lowrank_matches_materialized_product() {
        let g = Mat::from_fn(5, 5, |i, j| ((i + 1) * (j + 1)) as f64 / 7.0);
        let f = svd(&g);
        let lr = LowRankOp::from_svd(&f, 5); // full rank: exact up to roundoff
        assert_eq!(lr.rank(), 5);
        let x = vec![0.3, -1.2, 0.0, 2.0, 0.7];
        let exact = g.matvec(&x);
        let approx = lr.apply_vec(&x);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 1e-10, "{a} vs {e}");
        }
    }

    #[test]
    fn parallel_apply_is_bit_identical_across_column_panels() {
        let n = 67;
        let g = Mat::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 23) as f64 / 23.0 - 0.4);
        let sparse = Csr::from_dense(&g, 0.6);
        let f = svd(&g);
        let lr = LowRankOp::from_svd(&f, 2);
        // min_work 0: force the threaded paths on fixtures far below the
        // default inline-serve threshold
        let mut pool = ParallelApply::new(3).with_min_work(0);
        assert!(pool.resolved_threads() >= 1);
        let ops: [&(dyn CouplingOp + Sync); 3] = [&g, &sparse, &lr];
        for op in ops {
            // 1-column block -> inline; wider blocks -> column panels,
            // with widths that straddle shard boundaries
            for b in [1usize, 2, 3, 7, 12] {
                let x = Mat::from_fn(n, b, |i, j| ((i * 13 + j * 5) % 19) as f64 - 9.0);
                let serial = op.apply_block(&x);
                let threaded = pool.apply_block(op, &x);
                for j in 0..b {
                    assert_eq!(threaded.col(j), serial.col(j), "b={b} column {j} diverged");
                }
            }
            // planned_workers mirrors the dispatch rule: one worker per
            // column, capped at the thread count
            assert_eq!(pool.planned_workers(op, 1), 1);
            assert_eq!(pool.planned_workers(op, 2), 2);
            assert_eq!(pool.planned_workers(op, 7), 3);
        }
        // ceil rounding can leave fewer nonempty panels than workers: 8
        // columns over 5 workers is 2-column panels, so 4 shards
        let mut five = ParallelApply::new(5).with_min_work(0);
        assert_eq!(five.planned_workers(&g, 8), 4);
        let x = Mat::from_fn(n, 8, |i, j| (i * 8 + j) as f64);
        assert_eq!(five.apply_block(&g, &x).data(), g.apply_block(&x).data());
        // more workers than rows and columns still agrees
        let tiny = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let x = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let mut wide_pool = ParallelApply::new(16).with_min_work(0);
        assert_eq!(wide_pool.apply_block(&tiny, &x).col(0), tiny.apply_block(&x).col(0));
        // auto thread count (0) resolves and serves
        let mut auto_pool = ParallelApply::new(0).with_min_work(0);
        assert!(auto_pool.resolved_threads() >= 1);
        auto_pool.warm(&g, 4);
        let x = Mat::from_fn(n, 4, |i, j| (i + j) as f64);
        assert_eq!(auto_pool.apply_block(&g, &x).data(), g.apply_block(&x).data());
    }

    #[test]
    fn min_work_threshold_serves_small_applies_inline() {
        // n=64 dense, block 1: 4096 traversals, far below the 16k
        // default — the executor must plan a single (inline) worker and
        // still produce the serial bits
        let n = 64;
        let g = Mat::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let mut pool = ParallelApply::new(4);
        assert_eq!(pool.planned_workers(&g, 1), 1);
        // a single column has no axis to shard, threshold or not
        assert_eq!(ParallelApply::new(4).with_min_work(0).planned_workers(&g, 1), 1);
        // below the threshold, columns alone do not engage workers:
        // 4096 * 3 = 12k traversals feed no second worker at the default
        assert_eq!(pool.planned_workers(&g, 3), 1);
        assert_eq!(ParallelApply::new(4).with_min_work(0).planned_workers(&g, 3), 3);
        // enough columns to clear the threshold re-engages workers:
        // 4096 * 64 = 256k traversals feeds all four at the 16k default
        assert_eq!(pool.planned_workers(&g, 64), 4);
        let x = Mat::from_fn(n, 1, |i, _| (i as f64).sin());
        assert_eq!(pool.apply_block(&g, &x).data(), g.apply_block(&x).data());
    }

    #[test]
    fn default_block_forwards_per_column() {
        // an op relying on the default apply_block_into
        struct Scaler(usize);
        impl CouplingOp for Scaler {
            fn n(&self) -> usize {
                self.0
            }
            fn nnz(&self) -> usize {
                self.0
            }
            fn kind(&self) -> &'static str {
                "scaler"
            }
            fn apply_into(&self, x: &[f64], y: &mut [f64], _ws: &mut ApplyWorkspace) {
                for (yi, xi) in y.iter_mut().zip(x) {
                    *yi = 2.0 * xi;
                }
            }
        }
        let op = Scaler(3);
        let x = Mat::from_fn(3, 2, |i, j| (i + 3 * j) as f64);
        let y = op.apply_block(&x);
        for j in 0..2 {
            for i in 0..3 {
                assert_eq!(y[(i, j)], 2.0 * x[(i, j)]);
            }
        }
    }
}
