//! The shared-executor contract, end to end: every threaded site —
//! blocked/column-panel serving, threaded dense-column materialisation,
//! and the batch solver backends — dispatches onto one persistent worker
//! pool, and every one of them must stay **bit-identical** to its serial
//! path at every thread count, including more lanes than work.
//!
//! The fault half of the contract is exercised too: a worker panic
//! poisons only that dispatch, the public call falls back to the
//! bit-identical serial path, and the pool never respawns threads —
//! `Executor::global().workers()` is a stable observable across
//! repeated poisonings, also while several callers dispatch at once.

use std::sync::{mpsc, Arc, Barrier, Mutex, OnceLock};
use std::time::Duration;

use subsparse::faults::{self, Failpoint, FireMode};
use subsparse::layout::generators;
use subsparse::linalg::{ApplyWorkspace, CouplingOp, Executor, Mat, ParallelApply};
use subsparse::substrate::{
    solver, EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, Substrate, SubstrateSolver,
};
use subsparse::{BasisRep, Method, SparsifyOptions};

/// The failpoint registry is process-global; fault tests serialize on
/// one mutex and leave the registry disarmed. (The bit-identity tests
/// stay correct even if they overlap an armed window — a poisoned
/// dispatch degrades to the bit-identical serial path by design.)
static FAULTS_LOCK: Mutex<()> = Mutex::new(());

fn faults_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Thread counts the contract is pinned at: serial, two workers, auto
/// (0 = env/CPU resolution), and deliberately more lanes than shards.
fn thread_counts(n: usize) -> [usize; 4] {
    [1, 2, 0, n + 7]
}

/// Shared wavelet fixture (64 contacts, 2 levels, thresholded serving
/// model) — extraction is the expensive part, so build it once.
fn wavelet_rep() -> &'static BasisRep {
    static REP: OnceLock<BasisRep> = OnceLock::new();
    REP.get_or_init(|| {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let dense = solver::synthetic(&layout);
        let opts = SparsifyOptions { levels: Some(2), ..Default::default() };
        let w = Method::Wavelet.sparsify(&dense, &layout, &opts).expect("wavelet extraction");
        let (gwt, _) = w.rep.thresholded_to_sparsity(w.rep.sparsity_factor() * 6.0);
        gwt
    })
}

/// A deterministic dense block (no zeros, mixed signs).
fn x_block(n: usize, b: usize) -> Mat {
    Mat::from_fn(n, b, |i, j| ((i * 31 + j * 17 + 3) % 101) as f64 / 50.5 - 1.0)
}

/// The serial reference every pool dispatch is measured against.
fn serial_apply<O: CouplingOp + ?Sized>(op: &O, x: &Mat) -> Mat {
    let mut y = Mat::zeros(op.n(), x.n_cols());
    let mut ws = ApplyWorkspace::new();
    op.apply_block_into(x, &mut y, &mut ws);
    y
}

fn assert_bits_equal(got: &Mat, want: &Mat, what: &str) {
    assert_eq!(got.n_rows(), want.n_rows(), "{what}: row count");
    assert_eq!(got.n_cols(), want.n_cols(), "{what}: col count");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: flat index {i}: {a} != {b}");
    }
}

/// Site 1+2 — `ParallelApply`, both dispatch shapes: block 1 serves
/// inline on every op, blocks 3+ take the column-panel path (capped at
/// one column per worker). Every representation family, every thread
/// count, `min_work = 0` so the pool genuinely engages even on this small
/// fixture.
#[test]
fn pool_apply_bit_identical_for_every_op_and_thread_count() {
    let rep = wavelet_rep();
    let n = rep.n();
    let csr = rep.without_fwt();
    let layout = generators::regular_grid(128.0, 8, 2.0);
    let dense = solver::synthetic(&layout).matrix().clone();

    let ops: [&(dyn CouplingOp + Sync); 3] = [&dense, &csr, rep];
    for op in ops {
        for b in [1usize, 3, 8, 16] {
            let x = x_block(n, b);
            let want = serial_apply(op, &x);
            for t in thread_counts(n) {
                let mut pool = ParallelApply::new(t).with_min_work(0);
                let mut y = Mat::zeros(n, b);
                pool.apply_block_into(op, &x, &mut y);
                assert_bits_equal(&y, &want, &format!("{} block {b} threads {t}", op.kind()));
            }
        }
    }
}

/// Site 3 — threaded dense-column materialisation (the sparsification
/// verifier's probe path).
#[test]
fn dense_columns_threaded_matches_serial() {
    let rep = wavelet_rep();
    let n = rep.n();
    let cols: Vec<usize> = (0..n).step_by(3).collect();
    let want = rep.dense_columns(&cols);
    for t in thread_counts(n) {
        let got = rep.dense_columns_threaded(&cols, t);
        assert_bits_equal(&got, &want, &format!("dense_columns threads {t}"));
    }
}

/// Site 4 — the batch solver backends (FD and eigenfunction). Each
/// column runs the identical serial PCG on a pool stripe, so every
/// thread count agrees with `threads = 1` to the last bit.
#[test]
fn solver_batches_bit_identical_across_thread_counts() {
    let layout = generators::regular_grid(128.0, 2, 32.0); // 4 contacts
    let sub = Substrate::thesis_standard();
    let v = x_block(4, 4);

    let fd_base = FdSolverConfig { nx: 16, ny: 16, nz: 8, tol: 1e-9, ..Default::default() };
    let fd_want = FdSolver::new(&sub, &layout, FdSolverConfig { threads: 1, ..fd_base })
        .unwrap()
        .solve_batch(&v);
    let eig_base = EigenSolverConfig { panels: 16, tol: 1e-10, ..Default::default() };
    let eig_want = EigenSolver::new(&sub, &layout, EigenSolverConfig { threads: 1, ..eig_base })
        .unwrap()
        .solve_batch(&v);

    for t in thread_counts(4) {
        let fd = FdSolver::new(&sub, &layout, FdSolverConfig { threads: t, ..fd_base }).unwrap();
        assert_bits_equal(&fd.solve_batch(&v), &fd_want, &format!("fd batch threads {t}"));
        let eig =
            EigenSolver::new(&sub, &layout, EigenSolverConfig { threads: t, ..eig_base }).unwrap();
        assert_bits_equal(&eig.solve_batch(&v), &eig_want, &format!("eigen batch threads {t}"));
    }
}

/// Fault contract — a worker panic poisons only its dispatch: the apply
/// degrades to the bit-identical serial path, and the pool's thread
/// count never moves (panics are caught inside the worker loop; nothing
/// dies, nothing respawns).
#[test]
fn worker_panic_degrades_serially_without_respawning_workers() {
    let _g = faults_lock();
    let rep = wavelet_rep();
    let n = rep.n();
    let x = x_block(n, 4);
    let want = serial_apply(rep, &x);

    // pre-grow the pool past any lane count this binary requests, so
    // concurrent tests cannot legitimately change `workers()` under us
    Executor::global().run(96, &|_| {});
    let before = Executor::global().workers();

    let mut pool = ParallelApply::new(4).with_min_work(0);
    pool.warm(rep, 4);
    faults::configure(Failpoint::PoolWorkerPanic, FireMode::EveryN(2));
    let mut y = Mat::zeros(n, 4);
    for round in 0..10 {
        pool.apply_block_into(rep, &x, &mut y);
        assert_bits_equal(&y, &want, &format!("poisoned pool apply, round {round}"));
    }
    faults::reset();
    assert_eq!(
        Executor::global().workers(),
        before,
        "pool respawned (or leaked) workers across repeated panics"
    );
}

/// Multi-caller stress — four caller threads dispatch onto the one shared
/// pool at once, with mixed op kinds and block widths and worker panics
/// armed. Each caller serves through its own clone of one configured
/// `ParallelApply` (an apply borrows its worker scratch mutably), so the
/// callers meet only at the executor's dispatch lock. Every output must
/// carry the serial path's bits, every caller must finish within the
/// timeout (no deadlock on the dispatch lock), and `workers()` must not
/// move.
#[test]
fn concurrent_callers_stay_bit_identical_under_worker_panics() {
    const CALLERS: usize = 4;
    const ROUNDS: usize = 8;
    let _g = faults_lock();
    let rep = wavelet_rep();
    let n = rep.n();
    let layout = generators::regular_grid(128.0, 8, 2.0);
    let ops: Vec<Box<dyn CouplingOp + Send + Sync>> = vec![
        Box::new(solver::synthetic(&layout).matrix().clone()),
        Box::new(rep.without_fwt()),
        Box::new(rep.clone()),
    ];
    // (op, input block, serial output) for every op and block width
    let cases: Arc<Vec<(usize, Mat, Mat)>> = Arc::new(
        (0..ops.len())
            .flat_map(|o| [1usize, 3, 8, 16].map(|b| (o, b)))
            .map(|(o, b)| {
                let x = x_block(n, b);
                let want = serial_apply(&*ops[o], &x);
                (o, x, want)
            })
            .collect(),
    );
    let ops = Arc::new(ops);

    // pre-grow the pool as in the single-caller fault test
    Executor::global().run(96, &|_| {});
    let before = Executor::global().workers();

    let proto = ParallelApply::new(4).with_min_work(0);
    let start = Arc::new(Barrier::new(CALLERS));
    let (done, finished) = mpsc::channel();
    faults::configure(Failpoint::PoolWorkerPanic, FireMode::EveryN(3));
    // plain (not scoped) threads, so a deadlocked caller cannot block
    // the timeout below
    let callers: Vec<_> = (0..CALLERS)
        .map(|c| {
            let (ops, cases, start, done) =
                (ops.clone(), cases.clone(), start.clone(), done.clone());
            let mut pool = proto.clone();
            std::thread::spawn(move || {
                start.wait();
                let mut mismatches = Vec::new();
                let mut y = Mat::zeros(0, 0);
                for round in 0..ROUNDS {
                    // callers walk the cases from different offsets, so
                    // different op kinds and widths overlap in time
                    for k in 0..cases.len() {
                        let (o, x, want) = &cases[(k + c * 5) % cases.len()];
                        let op = &*ops[*o];
                        pool.apply_block_into(op, x, &mut y);
                        let equal = y.n_cols() == want.n_cols()
                            && y.data()
                                .iter()
                                .zip(want.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !equal {
                            mismatches.push(format!(
                                "caller {c} round {round}: {} block {}",
                                op.kind(),
                                x.n_cols()
                            ));
                        }
                    }
                }
                done.send((c, mismatches)).expect("the test thread waits for every caller");
            })
        })
        .collect();
    drop(done);
    let mut outcomes: Vec<(usize, Vec<String>)> = (0..CALLERS)
        .map(|_| {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("a caller did not finish within 120 s (deadlock or panic)")
        })
        .collect();
    let panics = faults::stats()
        .into_iter()
        .find(|(name, _, _)| *name == Failpoint::PoolWorkerPanic.name())
        .map_or(0, |(_, _, fires)| fires);
    faults::reset();
    assert!(panics > 0, "no worker panic was injected");
    for handle in callers {
        handle.join().expect("caller thread");
    }
    outcomes.sort_by_key(|(c, _)| *c);
    for (c, mismatches) in outcomes {
        assert!(mismatches.is_empty(), "caller {c} lost bit-identity: {mismatches:?}");
    }
    assert_eq!(
        Executor::global().workers(),
        before,
        "pool respawned (or leaked) workers under concurrent callers"
    );
}
