//! The zero-allocation contract: after workspace warm-up, serving through
//! `CouplingOp::apply_into` (and the blocked variant, at full lane tiles
//! and ragged widths alike) performs no heap allocation at all.
//!
//! This file holds a single test on purpose: it installs a counting
//! global allocator, and any sibling test running in the same binary
//! would pollute the counts. Only the threads a serving call runs on are
//! counted: the test's own thread and the executor's `subsparse-exec-N`
//! workers. The test harness's thread may allocate at any moment, and
//! counting it failed about one release run in a hundred on a shared
//! 2-vCPU virtual machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::{BasisRep, FastWaveletTransform};
use subsparse_linalg::{
    faults, trace, ApplyWorkspace, CouplingOp, Csr, Executor, Mat, ParallelApply, Triplets,
};

/// Forwards to the system allocator, counting the allocations of the
/// counted threads.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count: `None` until its first
    /// allocation (or `count_this_thread`) settles it, cached from then on.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_GET_NAME: i32 = 16;

/// True on the executor's workers, named `subsparse-exec-N` (the kernel
/// keeps 15 bytes of a thread name). Reads the name with `prctl`, which
/// does not allocate; `std::thread::current()` may, and would re-enter
/// the allocator.
fn is_pool_worker() -> bool {
    let mut name = [0u8; 16];
    // SAFETY: PR_GET_NAME writes at most 16 bytes, the NUL included, to
    // the buffer it is given, and `name` is 16 bytes long.
    let rc = unsafe { prctl(PR_GET_NAME, name.as_mut_ptr()) };
    rc == 0 && name.starts_with(b"subsparse-exec")
}

fn count() {
    let counted = COUNTED
        .try_with(|c| {
            let counted = c.get().unwrap_or_else(is_pool_worker);
            c.set(Some(counted));
            counted
        })
        .unwrap_or(false);
    if counted {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

/// Counts the calling thread's allocations from now on.
fn count_this_thread() {
    COUNTED.with(|c| c.set(Some(true)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn apply_into_is_allocation_free_after_warmup() {
    count_this_thread();
    // The count sees the pool's workers: once the pool has grown, a
    // two-shard job that allocates once per shard counts both, the
    // worker's included.
    Executor::global().run(2, &|_| {});
    let per_shard = allocations_during(|| {
        Executor::global().run(2, &|_| drop(std::hint::black_box(Box::new(0u64))));
    });
    assert_eq!(per_shard, 2, "the count must cover the caller and the pool's workers");
    // The serving paths below are instrumented with trace spans and
    // histogram timers, so every zero-alloc measurement in this test
    // doubles as proof that the *disabled* recorder's fast path adds no
    // allocations. Pin down both halves of that claim: the recorder
    // ships disabled, and its probes are alloc-free while disabled.
    assert!(!trace::enabled(), "trace recorder must ship disabled");
    let probe_allocs = allocations_during(|| {
        for _ in 0..16 {
            let _s = trace::span("alloc-probe");
            let _a = trace::span_arg("alloc-probe-arg", 3);
            let _t = trace::time_hist(trace::Hist::ApplyVectorNs);
            trace::add(trace::Counter::Solves, 1);
            trace::record_ns_many(trace::Hist::ApplyBlockNs, 7, 1);
        }
    });
    assert_eq!(probe_allocs, 0, "disabled trace probes allocated");

    // Same claim for the fault-injection layer: the failpoints ship
    // disarmed, and the disabled probes sitting inside the worker
    // closures and solver seams (one relaxed load each) are alloc-free.
    assert!(!faults::enabled(), "failpoints must ship disarmed");
    let fault_probe_allocs = allocations_during(|| {
        for _ in 0..16 {
            std::hint::black_box(faults::enabled());
            std::hint::black_box(faults::fire(faults::Failpoint::PoolWorkerPanic));
            std::hint::black_box(faults::fire_arg(faults::Failpoint::SolveStall));
            faults::sleep_if(faults::Failpoint::SolveStall);
        }
    });
    assert_eq!(fault_probe_allocs, 0, "disabled failpoint probes allocated");

    let n = 48;
    let dense = Mat::from_fn(n, n, |i, j| 1.0 / (1.0 + (i + j) as f64));
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0);
        t.push(i, (i + 1) % n, -0.5);
    }
    let sparse = t.to_csr();
    let rep = BasisRep::new(Csr::identity(n), sparse.clone());

    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let xb = Mat::from_fn(n, 8, |i, j| ((i * 7 + j) as f64).cos());
    let mut y = vec![0.0; n];
    let mut yb = Mat::zeros(n, 8);
    let mut ws = ApplyWorkspace::new();

    for op in [&dense as &dyn CouplingOp, &sparse, &rep] {
        // warm-up pass: buffers grow here and only here
        op.apply_into(&x, &mut y, &mut ws);
        op.apply_block_into(&xb, &mut yb, &mut ws);

        let single = allocations_during(|| {
            for _ in 0..16 {
                op.apply_into(&x, &mut y, &mut ws);
            }
        });
        assert_eq!(single, 0, "{}: apply_into allocated after warm-up", op.kind());

        let blocked = allocations_during(|| {
            for _ in 0..16 {
                op.apply_block_into(&xb, &mut yb, &mut ws);
            }
        });
        assert_eq!(blocked, 0, "{}: apply_block_into allocated after warm-up", op.kind());
    }

    // the fast-wavelet-transform serving path: a hand-built 3-level
    // binary-split transform on 8 contacts, pushed through the same
    // (already warm, larger-shaped) workspace
    let fwt = haar_fwt8();
    let mut tg = Triplets::new(8, 8);
    for i in 0..8 {
        tg.push(i, i, 1.5 + i as f64 * 0.1);
        tg.push(i, (i + 3) % 8, -0.25);
    }
    let fwt_rep = BasisRep::with_fwt(Csr::identity(8), tg.to_csr(), fwt);
    assert_eq!(fwt_rep.kind(), "basis-rep-fwt");
    let x8: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
    let xb8 = Mat::from_fn(8, 8, |i, j| ((i * 5 + j) as f64).cos());
    let mut y8 = vec![0.0; 8];
    let mut yb8 = Mat::zeros(8, 8);
    fwt_rep.apply_into(&x8, &mut y8, &mut ws);
    fwt_rep.apply_block_into(&xb8, &mut yb8, &mut ws);
    let fwt_allocs = allocations_during(|| {
        for _ in 0..16 {
            fwt_rep.apply_into(&x8, &mut y8, &mut ws);
            fwt_rep.apply_block_into(&xb8, &mut yb8, &mut ws);
        }
    });
    assert_eq!(fwt_allocs, 0, "fwt path allocated after warm-up");

    // Lane tiles: widths with two full tiles (16) and with three plus a
    // ragged five-column tail (29) stage nothing beyond the workspace's
    // three panels, so a fresh workspace pre-sized by `warm` serves them
    // without a single allocation — even on the first apply.
    for (op, inner) in [
        (&fwt_rep as &dyn CouplingOp, fwt_rep.fwt().unwrap().scratch_len().max(8)),
        (&rep, n),
        (&sparse, n),
    ] {
        let dim = op.n();
        let mut fresh = ApplyWorkspace::new();
        fresh.warm(inner, 29);
        let mut yw = Mat::zeros(dim, 29);
        for width in [16usize, 29] {
            let xw = Mat::from_fn(dim, width, |i, j| ((i * 3 + j * 11) as f64).sin());
            let allocs = allocations_during(|| op.apply_block_into(&xw, &mut yw, &mut fresh));
            assert_eq!(allocs, 0, "{}: width {width} allocated after warm", op.kind());
        }
    }

    // --- the thread-parallel executor ---
    //
    // With one worker the executor serves inline (no spawn at all), so
    // the full zero-allocation contract applies to it directly.
    let mut pool1 = ParallelApply::new(1);
    let mut yp = Mat::zeros(0, 0);
    for op in [&dense as &(dyn CouplingOp + Sync), &sparse, &rep] {
        pool1.warm(op, 8);
        pool1.apply_block_into(op, &xb, &mut yp);
        let allocs = allocations_during(|| {
            for _ in 0..16 {
                pool1.apply_block_into(op, &xb, &mut yp);
            }
        });
        assert_eq!(allocs, 0, "{}: 1-worker executor allocated after warm-up", op.kind());
    }

    // With several workers, dispatch goes through the persistent parked
    // pool: the hand-off publishes a pointer to a stack closure and
    // wakes parked threads, so a steady-state threaded apply performs
    // **zero** heap allocation — not "zero beyond a spawn harness", zero
    // full stop. The first dispatch spawns the pool's workers (that is
    // the warm-up, covered by the settle loop); everything after is
    // allocation-free, and a thousand applies allocate exactly as much
    // as one.
    // (min_work 0: these fixtures sit below the default inline-serve
    // threshold, and this section is about the threaded dispatch path)
    let workers = 2;
    let mut pool = ParallelApply::new(workers).with_min_work(0);
    for op in [&dense as &(dyn CouplingOp + Sync), &sparse, &rep] {
        pool.warm(op, 8);
        for _ in 0..4 {
            pool.apply_block_into(op, &xb, &mut yp); // spawn + settle the pool
        }
        let one = allocations_during(|| pool.apply_block_into(op, &xb, &mut yp));
        assert_eq!(one, 0, "{}: threaded dispatch allocated after warm-up", op.kind());
        let thousand = allocations_during(|| {
            for _ in 0..1000 {
                pool.apply_block_into(op, &xb, &mut yp);
            }
        });
        assert_eq!(
            thousand,
            one,
            "{}: 1000 pool applies must allocate exactly as much as one",
            op.kind()
        );
    }

    // `ParallelApply::warm` at the widest block pre-sizes every worker's
    // lane path: the FWT and CSR representations then serve narrower and
    // ragged blocks (panels of 8 and 15 + 14 columns) allocation-free.
    for op in [&fwt_rep as &(dyn CouplingOp + Sync), &rep] {
        let dim = op.n();
        pool.warm(op, 29);
        let mut yw = Mat::zeros(dim, 29); // the caller's output, sized once
        for width in [16usize, 29] {
            let xw = Mat::from_fn(dim, width, |i, j| ((i * 5 + j * 7) as f64).cos());
            let allocs = allocations_during(|| pool.apply_block_into(op, &xw, &mut yw));
            assert_eq!(allocs, 0, "{}: pool width {width} allocated after warm", op.kind());
        }
    }

    // A one-column block serves inline through slot 0's workspace, which
    // the wide warm-up already grew, so it allocates nothing either.
    let x1 = Mat::from_fn(n, 1, |i, _| ((i * 3) as f64).sin());
    for op in [&dense as &(dyn CouplingOp + Sync), &sparse, &rep] {
        pool.warm(op, 8);
        let narrow = allocations_during(|| pool.apply_block_into(op, &x1, &mut yp));
        assert_eq!(narrow, 0, "{}: inline narrow apply allocated after warm-up", op.kind());
    }
}

/// A 2-level quadtree-style transform on 8 contacts: four finest pairs,
/// one root combining the four scaling coefficients (v = 1, w = 3).
fn haar_fwt8() -> FastWaveletTransform {
    let r = 0.5f64.sqrt();
    let mut blocks = Vec::new();
    for _ in 0..4 {
        blocks.extend_from_slice(&[r, r, r, -r]); // finest [v | w]
    }
    // root: 4 inputs -> 1 scaling + 3 wavelet outputs (orthogonal 4x4,
    // column-major [v | w1 w2 w3])
    blocks.extend_from_slice(&[
        0.5, 0.5, 0.5, 0.5, // v: normalized sum
        0.5, -0.5, 0.5, -0.5, // w1
        0.5, 0.5, -0.5, -0.5, // w2
        0.5, -0.5, -0.5, 0.5, // w3
    ]);
    let finest = FwtLevel {
        nodes: (0..4)
            .map(|s| FwtNode {
                in_offset: 2 * s,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: s,
                col_start: 4 + s,
                block_offset: 4 * s,
            })
            .collect(),
        coeff_len: 4,
    };
    let root = FwtLevel {
        nodes: vec![FwtNode {
            in_offset: 0,
            in_len: 4,
            v_cols: 1,
            w_cols: 3,
            out_offset: 0,
            col_start: 1,
            block_offset: 16,
        }],
        coeff_len: 1,
    };
    FastWaveletTransform::from_parts(8, 1, vec![finest, root], (0..8).collect(), blocks).unwrap()
}
