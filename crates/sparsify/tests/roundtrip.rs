//! Round-trip tests over the whole registry: every method's `Q Gw Q'`
//! reconstruction must stay within its documented tolerance on the
//! reference benchmark (a 16x16 `regular_grid` over the synthetic
//! kernel), and the registry must be self-consistent.

use subsparse_layout::generators;
use subsparse_sparsify::metrics::rel_fro_error;
use subsparse_sparsify::{all_methods, evaluate_dense, EvalOptions, Method, SparsifyOptions};
use subsparse_substrate::solver;

#[test]
fn every_registered_method_round_trips_within_documented_tolerance() {
    let layout = generators::regular_grid(128.0, 16, 2.0);
    let black_box = solver::synthetic(&layout);
    let opts = SparsifyOptions::default();
    let n = layout.n_contacts();
    for method in all_methods() {
        let outcome = method
            .sparsify(&black_box, &layout, &opts)
            .unwrap_or_else(|e| panic!("{method} failed: {e}"));
        assert_eq!(outcome.rep.n(), n, "{method}: wrong size");
        assert!(outcome.solves > 0, "{method}: no solves recorded");
        assert!(outcome.nnz() > 0, "{method}: empty representation");
        let err = rel_fro_error(black_box.matrix(), &outcome.rep.to_dense());
        assert!(
            err <= method.doc_tolerance(),
            "{method}: reconstruction error {err:.3e} above documented \
             tolerance {:.3e}",
            method.doc_tolerance()
        );
    }
}

#[test]
fn hierarchical_methods_beat_naive_solve_count() {
    // the point of the paper: wavelet and low-rank use far fewer than n
    // solves; the dense baselines use exactly n
    let layout = generators::regular_grid(128.0, 16, 2.0);
    let black_box = solver::synthetic(&layout);
    let opts = SparsifyOptions::default();
    let n = layout.n_contacts();
    for method in [Method::Wavelet, Method::LowRank] {
        let outcome = method.sparsify(&black_box, &layout, &opts).unwrap();
        assert!(outcome.solves < n, "{method}: {} solves >= n = {n}", outcome.solves);
    }
    for method in [Method::Threshold, Method::TopK] {
        let outcome = method.sparsify(&black_box, &layout, &opts).unwrap();
        assert_eq!(outcome.solves, n, "{method}: dense baselines solve once per contact");
    }
}

#[test]
fn registry_and_from_str_agree() {
    for method in all_methods() {
        let parsed: Method = method.name().parse().unwrap();
        assert_eq!(parsed, *method);
        assert!(!method.summary().is_empty());
        assert!(method.doc_tolerance() > 0.0);
    }
    assert!("no-such-method".parse::<Method>().is_err());
}

#[test]
fn shared_harness_grades_all_methods_consistently() {
    let layout = generators::regular_grid(128.0, 16, 2.0);
    let black_box = solver::synthetic(&layout);
    let opts = SparsifyOptions::default();
    let eval_opts = EvalOptions { apply_iters: 2, ..Default::default() };
    for method in all_methods() {
        let outcome = method.sparsify(&black_box, &layout, &opts).unwrap();
        let report = evaluate_dense(method.name(), &outcome, black_box.matrix(), &eval_opts);
        assert_eq!(report.method, method.name());
        assert_eq!(report.n, 256);
        assert_eq!(report.graded_cols, 256);
        assert!(report.rel_fro_error <= method.doc_tolerance());
        assert!(report.nnz_ratio > 0.0);
        assert!(report.apply_ns > 0.0);
    }
}
