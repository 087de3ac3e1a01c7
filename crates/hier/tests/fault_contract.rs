//! The fault-injection contract on the serving and loading seams: with a
//! failpoint armed and firing, no panic escapes a public API — the caller
//! sees either a typed error (loads) or a bit-identical degraded result
//! (panic-isolated pool workers falling back to the serial path).
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and leaves the registry disarmed.

mod common;

use std::sync::Mutex;

use common::example_rep;
use subsparse_hier::rep::ModelLoadError;
use subsparse_hier::BasisRep;
use subsparse_linalg::faults::{self, Failpoint, FireMode};
use subsparse_linalg::{trace, Mat, ParallelApply};

static FAULTS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a panicking test must not wedge the rest of the suite
    FAULTS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn excitation(n: usize, b: usize) -> Mat {
    Mat::from_fn(n, b, |i, j| ((i * 31 + j * 7) as f64 * 0.13).sin())
}

#[test]
fn pool_worker_panic_degrades_to_bit_identical_serial_apply() {
    let _g = lock();
    faults::reset();
    let n = 256;
    let rep = example_rep(n);

    // references computed with no fault armed, on the serial path
    let mut serial = ParallelApply::new(1);
    let wide = excitation(n, 8);
    let narrow = excitation(n, 1);
    let want_wide = serial.apply_block(&rep, &wide);
    let want_narrow = serial.apply_block(&rep, &narrow);

    trace::reset();
    trace::set_enabled(true);
    let mut pool = ParallelApply::new(4).with_min_work(0);

    // wide block → column shards; one worker panics, the apply degrades
    faults::configure(Failpoint::PoolWorkerPanic, FireMode::Once);
    let got = pool.apply_block(&rep, &wide);
    for j in 0..wide.n_cols() {
        assert_eq!(got.col(j), want_wide.col(j), "degraded col-shard apply must be bit-identical");
    }
    assert_eq!(trace::counter(trace::Counter::DegradedApplies), 1);

    // narrow block → served inline: no worker runs, so the armed
    // failpoint cannot fire and nothing degrades
    faults::configure(Failpoint::PoolWorkerPanic, FireMode::Once);
    let got = pool.apply_block(&rep, &narrow);
    assert_eq!(got.col(0), want_narrow.col(0), "inline narrow apply must be bit-identical");
    assert_eq!(trace::counter(trace::Counter::DegradedApplies), 1);

    // disarmed again: no degradation, still identical
    faults::reset();
    let got = pool.apply_block(&rep, &wide);
    for j in 0..wide.n_cols() {
        assert_eq!(got.col(j), want_wide.col(j));
    }
    assert_eq!(trace::counter(trace::Counter::DegradedApplies), 1);
    trace::set_enabled(false);
    trace::reset();
}

#[test]
fn load_faults_surface_as_typed_errors_never_panics() {
    let _g = lock();
    faults::reset();
    let dir = std::env::temp_dir().join("subsparse_fault_contract_load");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("model");
    let rep = example_rep(16);
    rep.save(&stem).unwrap();

    // truncating the first factor file read → typed corruption/truncation
    faults::configure(Failpoint::LoadTruncate, FireMode::Once);
    match BasisRep::load(&stem) {
        Err(ModelLoadError::Corrupt { .. } | ModelLoadError::Truncated { .. }) => {}
        other => panic!("truncated read must be a typed load error, got {other:?}"),
    }

    // flipping one payload bit → the digest catches it
    faults::configure(Failpoint::LoadBitflip, FireMode::Once);
    match BasisRep::load(&stem) {
        Err(ModelLoadError::Corrupt { .. }) => {}
        other => panic!("bit-flipped read must fail its digest, got {other:?}"),
    }

    // the third read of a load is the .fwt side file: damage there must
    // degrade to the CSR fallback, not refuse the model
    faults::configure(Failpoint::LoadTruncate, FireMode::EveryN(3));
    let back = BasisRep::load(&stem).expect("side-file damage must degrade, not fail");
    assert!(back.fwt().is_none(), "damaged side file must drop the fast path");
    let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).cos()).collect();
    // the degraded model must serve exactly what the same artifact's
    // explicit-CSR fallback serves
    let want = rep.without_fwt().apply(&x);
    for (a, b) in back.apply(&x).iter().zip(&want) {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
    }

    // disarmed: the model loads intact on the fast path
    faults::reset();
    assert!(BasisRep::load(&stem).unwrap().fwt().is_some());
    for suffix in [".q.mtx", ".gw.mtx", ".fwt"] {
        std::fs::remove_file(dir.join(format!("model{suffix}"))).ok();
    }
}
