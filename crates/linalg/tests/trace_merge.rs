//! Lossless, deterministic merge of recorder state written from
//! `ParallelApply` worker threads.
//!
//! Worker threads write counters and histogram samples into the global
//! atomics and buffer their span events in thread-local storage, flushed
//! into the global sink when each scoped worker exits. This test pins the
//! merge contract at every interesting thread count — 1 (inline serial),
//! 2, 0 (auto = one worker per CPU), and block + 7 (more workers than the
//! block can feed) — on wide blocks (column panels) and on a one-column
//! block (inline). Totals must match the dispatch arithmetic exactly
//! (lossless) and repeat-run identical (deterministic).
//!
//! This file is its own test binary on purpose: the recorder is
//! process-global, and a sibling test in the same process would pollute
//! the counts.

use subsparse_linalg::{trace, Mat, ParallelApply};

/// Column panels one `pool.apply_block_into` of a `b`-column block
/// dispatches to workers (0 = served inline), re-derived from the
/// executor's documented dispatch: one worker per column, capped at the
/// resolved thread count, counting only the panels left nonempty by ceil
/// rounding.
fn expected_panels(pool: &ParallelApply, b: usize) -> usize {
    let workers = pool.resolved_threads().min(b);
    if workers <= 1 {
        0
    } else {
        b.div_ceil(b.div_ceil(workers))
    }
}

fn spans_named(json: &str, name: &str) -> usize {
    json.matches(&format!("\"name\":\"{name}\"")).count()
}

#[test]
fn worker_written_state_merges_losslessly_and_deterministically() {
    let n = 64;
    let g = Mat::from_fn(n, n, |i, j| 1.0 / (1.0 + (i + j) as f64));
    let reps = 3;
    // block 8: wide enough for column panels at every count above 1;
    // block 2: fewer columns than some counts, capping the workers;
    // block 1: nothing to shard, served inline
    for &threads in &[1usize, 2, 0, 8 + 7] {
        for &b in &[8usize, 2, 1] {
            let x = Mat::from_fn(n, b, |i, j| ((i * 3 + j) as f64).sin());
            // min_work 0: the fixture is far below the default inline
            // threshold, and this test is about the threaded recorders
            let mut pool = ParallelApply::new(threads).with_min_work(0);
            pool.warm(&g, b);
            let panels = expected_panels(&pool, b);
            assert_eq!(pool.planned_workers(&g, b), panels.max(1), "threads={threads} b={b}");
            // inside workers, one dense block apply per panel; inline, one
            let dense_applies = panels.max(1);
            let mut observed = Vec::new();
            for _ in 0..2 {
                trace::set_enabled(true);
                trace::reset();
                let mut y = Mat::zeros(0, 0);
                for _ in 0..reps {
                    pool.apply_block_into(&g, &x, &mut y);
                }
                let json = trace::chrome_json();
                let summary = trace::summary();
                trace::set_enabled(false);
                let run = (
                    trace::counter(trace::Counter::ColPanels),
                    trace::hist_count(trace::Hist::ApplyBlockNs),
                    spans_named(&json, "pool.apply_block"),
                    spans_named(&json, "worker.col_shard"),
                    spans_named(&json, "apply_block.dense"),
                );
                let label = format!("threads={threads} b={b}");
                // lossless: every worker's writes land in the totals
                assert_eq!(run.0, (reps * panels) as u64, "{label}: col panels");
                assert_eq!(run.1, (reps * dense_applies) as u64, "{label}: block samples");
                assert_eq!(run.2, reps, "{label}: pool spans");
                assert_eq!(run.3, reps * panels, "{label}: col worker spans");
                assert_eq!(run.4, reps * dense_applies, "{label}: dense spans");
                assert!(summary.contains("pool.apply_block"), "{label}: summary misses pool");
                if panels > 0 {
                    assert!(
                        summary.contains("worker.col_shard"),
                        "{label}: summary misses worker.col_shard"
                    );
                    // every worker span carries a stable per-worker track
                    assert!(
                        json.contains(&format!("\"tid\":{}", trace::worker_track(0))),
                        "{label}: missing worker track in:\n{json}"
                    );
                }
                observed.push(run);
            }
            // deterministic: the identical workload records identical totals
            assert_eq!(observed[0], observed[1], "threads={threads} b={b}: runs diverged");
        }
    }
}
