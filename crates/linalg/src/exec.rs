//! The persistent worker pool every thread-parallel path in the
//! workspace dispatches through.
//!
//! Before this module existed, each parallel consumer — the serving
//! executor ([`ParallelApply`](crate::ParallelApply)), the threaded
//! dense materialization, the FD/eigen batch solvers — spawned fresh
//! scoped threads per call. An OS thread launch costs tens of
//! microseconds, which is why the serving layer needed a 128Ki min-work
//! threshold before threading paid off.
//! [`Executor`] replaces every one of those spawn sites with one
//! long-lived pool of parked workers:
//!
//! * **Parked, not polling** — workers sleep on a [`Condvar`] and wake
//!   only when a job is published; an idle pool costs nothing.
//! * **Zero-allocation hand-off** — a dispatch publishes one wide
//!   pointer to a caller-stack closure under a mutex and wakes the
//!   workers; no boxing, no channels, no per-dispatch heap traffic
//!   (pinned by `crates/hier/tests/apply_alloc.rs`: a thousand pool
//!   applies allocate exactly as much as one).
//! * **The caller participates** — the dispatching thread runs shard 0's
//!   stripe itself, so `shards` shards engage `shards - 1` workers and a
//!   single-shard dispatch never leaves the caller's thread.
//! * **Deterministic shard assignment** — participant `p` runs shards
//!   `p, p + lanes, p + 2·lanes, …` (static stripes, no work stealing),
//!   so which thread computes which shard never depends on timing. The
//!   call sites build bit-identical results on top of this: every shard
//!   runs an unmodified serial kernel into its own staging.
//! * **Panic isolation** — each shard runs under
//!   [`catch_unwind`]; a panicking shard poisons the dispatch (the
//!   [`run`](Executor::run) return value) instead of killing the worker,
//!   so the pool survives repeated injected panics without respawning
//!   anything. Callers keep their existing degraded-serial-fallback
//!   semantics on a poisoned dispatch.
//! * **Nested dispatch runs inline** — a dispatch issued from inside a
//!   shard executes its shards serially on the calling thread:
//!   deadlock-free by construction and bit-identical because every
//!   path's serial kernel is the reference.
//!
//! The dispatch/completion barrier: [`run`](Executor::run) returns only
//! after every shard has finished, with the workers' writes ordered before the
//! caller's reads (the control mutex pairs the hand-off), so a sequence
//! of `run` calls is a sequence of barriered parallel sections.
//!
//! One process-wide pool ([`Executor::global`]) is shared by every call site;
//! concurrent dispatches from different threads serialize on the
//! dispatch lock. Workers are spawned on demand up to the largest shard
//! count ever requested (capped at [`MAX_WORKERS`]) and live until
//! process exit. Standalone executors (tests, benchmarks measuring the
//! pool itself) shut their workers down on drop.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Most workers the pool will ever spawn: one short of this many lanes
/// plus the caller. Requests for more shards than this stripe the excess
/// over the existing lanes. High enough that every realistic `--threads`
/// knob gets a dedicated worker per shard; low enough that a pathological
/// request cannot fork-bomb the process.
pub const MAX_WORKERS: usize = 192;

/// One published dispatch: the closure (a wide pointer onto the
/// dispatching caller's stack — valid until `run` returns, which the
/// completion barrier guarantees every worker respects), the shard
/// count, and how many participants (caller + engaged workers) stripe
/// over those shards.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    shards: usize,
    lanes: usize,
}

// Safety: the pointer is only dereferenced by engaged workers between
// publication and the completion barrier, while the caller keeps the
// closure alive and `Sync` makes shared calls sound.
unsafe impl Send for Job {}

/// Mutex-guarded pool control state.
struct Ctrl {
    /// Bumped once per dispatch; a worker "takes" an epoch exactly once,
    /// so a job can never be run twice by the same worker no matter how
    /// the wake-ups race.
    epoch: u64,
    /// The published job, cleared after its completion barrier (so a
    /// dangling closure pointer never outlives the call that owns it).
    job: Option<Job>,
    /// Engaged workers that have not yet finished their stripes.
    remaining: usize,
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Workers park here; notified on publish and on shutdown.
    work_cv: Condvar,
    /// The caller parks here until `remaining` reaches zero.
    done_cv: Condvar,
    /// Set by any shard that panicked during the current dispatch.
    poisoned: AtomicBool,
}

/// A mutex lock that survives a poisoned mutex: a panicking shard is an
/// expected event (fault injection), and the pool must keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Whether this thread is currently executing inside a dispatch —
    /// either a worker running its stripes or a caller running shard 0's.
    /// Nested dispatches run inline (see the module docs).
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// The long-lived parked-worker pool. See the module docs for the full
/// contract; in short: [`run`](Self::run) executes a closure over `n`
/// shards across the caller plus parked workers, with zero steady-state
/// allocation per dispatch, panic isolation per shard, and a completion
/// barrier on return.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes dispatches: one job in flight at a time, so the
    /// control state and the poison flag are single-writer.
    dispatch: Mutex<()>,
}

impl Executor {
    /// Creates an empty pool. Workers are spawned lazily by the first
    /// dispatch that needs them, so construction is free.
    pub fn new() -> Self {
        Executor {
            shared: Arc::new(Shared {
                ctrl: Mutex::new(Ctrl { epoch: 0, job: None, remaining: 0, shutdown: false }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                poisoned: AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
            dispatch: Mutex::new(()),
        }
    }

    /// The process-wide shared pool every library call site dispatches
    /// through. Spawned workers persist until process exit.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(Executor::new)
    }

    /// Workers currently spawned (parked or running). Grows on demand,
    /// never shrinks — the respawn-leak contract tests pin exactly this.
    pub fn workers(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Runs `f(shard)` for every shard in `0..shards`, striped across
    /// this thread (shard 0's stripe) plus `min(shards, MAX_WORKERS + 1)
    /// minus one` pool workers, returning only after every shard finished
    /// (the barrier every caller publishes its staging behind).
    ///
    /// Returns `true` if any shard panicked (the dispatch is
    /// **poisoned**: shard output staging is suspect and the caller must
    /// fall back to its bit-identical serial path). The panic itself is
    /// contained — workers survive and the pool stays serviceable.
    ///
    /// Single-shard dispatches and dispatches issued from inside another
    /// dispatch run inline on the calling thread with identical
    /// semantics. After the pool has grown to this shard count once,
    /// a dispatch performs **zero heap allocation**.
    pub fn run(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        if shards == 0 {
            return false;
        }
        if shards == 1 || IN_DISPATCH.with(|g| g.get()) {
            let mut poisoned = false;
            for s in 0..shards {
                if catch_unwind(AssertUnwindSafe(|| f(s))).is_err() {
                    poisoned = true;
                }
            }
            return poisoned;
        }
        let _one_job_at_a_time = lock(&self.dispatch);
        let lanes = shards.min(MAX_WORKERS + 1);
        self.ensure_workers(lanes - 1);
        self.shared.poisoned.store(false, Ordering::Relaxed);
        // Safety: the pointer (lifetime-erased for storage) is consumed
        // only by workers engaged in this epoch, all of which finish
        // before the completion barrier below lets `run` return.
        let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
                f,
            )
        };
        {
            let mut c = lock(&self.shared.ctrl);
            c.epoch = c.epoch.wrapping_add(1);
            c.job = Some(Job { f: f_ptr, shards, lanes });
            c.remaining = lanes - 1;
        }
        self.shared.work_cv.notify_all();
        // the caller is participant 0: its stripe runs here, inline
        IN_DISPATCH.with(|g| g.set(true));
        let mut s = 0;
        while s < shards {
            if catch_unwind(AssertUnwindSafe(|| f(s))).is_err() {
                self.shared.poisoned.store(true, Ordering::Relaxed);
            }
            s += lanes;
        }
        IN_DISPATCH.with(|g| g.set(false));
        // completion barrier: worker writes (under the ctrl mutex when
        // they decrement `remaining`) happen-before our reads here
        {
            let mut c = lock(&self.shared.ctrl);
            while c.remaining > 0 {
                c = self.shared.done_cv.wait(c).unwrap_or_else(|e| e.into_inner());
            }
            c.job = None;
        }
        self.shared.poisoned.load(Ordering::Relaxed)
    }

    /// Spawns workers until `want` exist (capped at [`MAX_WORKERS`]).
    /// Only the first dispatch at a new width pays this; afterwards the
    /// pool is steady-state.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut handles = lock(&self.handles);
        while handles.len() < want {
            // worker i parks as participant lane i + 1 (lane 0 is the
            // caller)
            let lane = handles.len() + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("subsparse-exec-{lane}"))
                .spawn(move || worker_loop(&shared, lane))
                .expect("failed to spawn executor worker");
            handles.push(handle);
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers()).finish()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut c = lock(&self.shared.ctrl);
            c.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// A parked worker: wait for a fresh epoch that engages this lane, run
/// the lane's stripes under panic isolation, report completion, park
/// again. The worker thread never exits on a shard panic — only on pool
/// shutdown.
fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = lock(&shared.ctrl);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen {
                    // take this epoch exactly once, engaged or not
                    seen = c.epoch;
                    match c.job {
                        Some(job) if lane < job.lanes => break job,
                        _ => {}
                    }
                }
                c = shared.work_cv.wait(c).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Safety: the caller keeps the closure alive until the
        // completion barrier, and we decrement `remaining` only after
        // the last dereference below.
        let f = unsafe { &*job.f };
        IN_DISPATCH.with(|g| g.set(true));
        let mut s = lane;
        while s < job.shards {
            if catch_unwind(AssertUnwindSafe(|| f(s))).is_err() {
                shared.poisoned.store(true, Ordering::Relaxed);
            }
            s += job.lanes;
        }
        IN_DISPATCH.with(|g| g.set(false));
        let mut c = lock(&shared.ctrl);
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Shard-indexed disjoint chunks of one mutable slice, for handing each
/// shard of a dispatch its own contiguous window of a shared output
/// buffer (column panels of a column-major matrix, per-column slices of
/// a solve batch) through a `Fn(usize)` closure that cannot capture
/// `&mut` state.
///
/// Chunk `k` covers `[k * chunk_len, min((k + 1) * chunk_len, len))`.
pub struct ShardSlices<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk_len: usize,
    _life: PhantomData<&'a mut [T]>,
}

// Safety: distinct chunk indices alias nothing; the unsafe accessor's
// contract below makes concurrent use sound.
unsafe impl<T: Send> Send for ShardSlices<'_, T> {}
unsafe impl<T: Send> Sync for ShardSlices<'_, T> {}

impl<'a, T> ShardSlices<'a, T> {
    /// Wraps `data` for disjoint chunked access, `chunk_len` elements
    /// per chunk (the final chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn new(data: &'a mut [T], chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        ShardSlices { ptr: data.as_mut_ptr(), len: data.len(), chunk_len, _life: PhantomData }
    }

    /// Mutable access to chunk `k`.
    ///
    /// # Safety
    ///
    /// No two live borrows of the same `k` may exist at once (distinct
    /// chunks are disjoint and may be borrowed concurrently). Within an
    /// [`Executor::run`] dispatch this holds whenever each shard
    /// touches only its own index.
    ///
    /// # Panics
    ///
    /// Panics if chunk `k` is out of range.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn chunk(&self, k: usize) -> &mut [T] {
        let start = k * self.chunk_len;
        assert!(start < self.len, "chunk index out of range");
        let end = (start + self.chunk_len).min(self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Shard-indexed disjoint access to the *elements* of a mutable slice —
/// how a dispatch hands each shard its own persistent worker slot
/// (workspace + staging buffers) through a shared-reference closure.
pub struct ShardItems<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a mut [T]>,
}

// Safety: same disjointness argument as ShardSlices, per element.
unsafe impl<T: Send> Send for ShardItems<'_, T> {}
unsafe impl<T: Send> Sync for ShardItems<'_, T> {}

impl<'a, T> ShardItems<'a, T> {
    /// Wraps `items` for disjoint per-element access.
    pub fn new(items: &'a mut [T]) -> Self {
        ShardItems { ptr: items.as_mut_ptr(), len: items.len(), _life: PhantomData }
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    ///
    /// No two live borrows of the same `i` may exist at once; distinct
    /// elements may be borrowed concurrently (one shard, one index).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn item(&self, i: usize) -> &mut T {
        assert!(i < self.len, "item index out of range");
        unsafe { &mut *self.ptr.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_shard_runs_exactly_once() {
        let ex = Executor::new();
        for shards in [1usize, 2, 3, 7, 19] {
            let hits: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            let poisoned = ex.run(shards, &|s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
            assert!(!poisoned);
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "shard {s} of {shards}");
            }
        }
        // workers grew to the largest request minus the caller lane
        assert_eq!(ex.workers(), 18);
        // …and a smaller follow-up dispatch does not shrink or respawn
        ex.run(2, &|_| {});
        assert_eq!(ex.workers(), 18);
    }

    #[test]
    fn completion_is_a_barrier_between_dispatches() {
        // classic level cadence: dispatch k+1 reads what dispatch k
        // wrote, across many rounds — any missing barrier or stale-epoch
        // double-run corrupts the running sum
        let ex = Executor::new();
        let shards = 4;
        let mut level: Vec<u64> = vec![1; shards];
        let mut next: Vec<u64> = vec![0; shards];
        for _round in 0..25 {
            // values grow ~4x per round; 25 rounds stays far below u64
            let total: u64 = level.iter().sum(); // caller-side read
            let src = &level;
            let out = ShardSlices::new(&mut next, 1);
            let poisoned = ex.run(shards, &|s| {
                // each shard reads the WHOLE previous level: only a full
                // barrier between dispatches makes this well-defined
                let sum: u64 = src.iter().sum();
                unsafe { out.chunk(s)[0] = sum + s as u64 };
            });
            assert!(!poisoned);
            for (s, v) in next.iter().enumerate() {
                assert_eq!(*v, total + s as u64);
            }
            std::mem::swap(&mut level, &mut next);
        }
    }

    #[test]
    fn panicking_shard_poisons_without_killing_workers() {
        let ex = Executor::new();
        ex.run(4, &|_| {}); // spawn 3 workers
        let before = ex.workers();
        for round in 0..6 {
            let poisoned = ex.run(4, &|s| {
                if s == round % 4 {
                    panic!("injected shard panic");
                }
            });
            assert!(poisoned, "round {round}");
            // pool still serviceable, with the same workers (no respawn)
            assert!(!ex.run(4, &|_| {}));
            assert_eq!(ex.workers(), before, "round {round} leaked/killed a worker");
        }
    }

    #[test]
    fn nested_dispatch_runs_inline_and_completes() {
        let ex = Executor::global();
        let outer_hits = AtomicUsize::new(0);
        let inner_hits = AtomicUsize::new(0);
        let poisoned = ex.run(3, &|_s| {
            outer_hits.fetch_add(1, Ordering::Relaxed);
            // nested: must run inline on this thread, not deadlock on
            // the dispatch lock
            let nested_poisoned = ex.run(5, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
            assert!(!nested_poisoned);
        });
        assert!(!poisoned);
        assert_eq!(outer_hits.load(Ordering::Relaxed), 3);
        assert_eq!(inner_hits.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn shard_slices_cover_the_buffer_disjointly() {
        let mut buf = vec![0u32; 10];
        let s = ShardSlices::new(&mut buf, 4);
        assert_eq!(s.len.div_ceil(s.chunk_len), 3);
        unsafe {
            assert_eq!(s.chunk(0).len(), 4);
            assert_eq!(s.chunk(1).len(), 4);
            assert_eq!(s.chunk(2).len(), 2); // ragged tail
            s.chunk(2)[1] = 9;
        }
        assert_eq!(buf[9], 9);

        let mut items = vec![1i32, 2, 3];
        let it = ShardItems::new(&mut items);
        unsafe { *it.item(1) = 7 };
        assert_eq!(items, vec![1, 7, 3]);
    }

    #[test]
    fn more_shards_than_worker_cap_stripe_correctly() {
        let ex = Executor::new();
        let shards = MAX_WORKERS + 40; // forces striping over lanes
        let hits: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
        assert!(!ex.run(shards, &|s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        }));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(ex.workers(), MAX_WORKERS);
    }
}
