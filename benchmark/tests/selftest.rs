//! Self-tests of the benchmark at tiny sizes: the metric tables, the
//! correctness gates, and seed reproducibility.

use std::sync::{Mutex, MutexGuard};

use subsparse::linalg::Triplets;
use subsparse::BasisRep;
use subsparse_benchmark::pipeline::{extract, make_inputs, model_failures, Reference};
use subsparse_benchmark::report::{END_TO_END, PER_LAYER};
use subsparse_benchmark::{run, Config, Outcome, Scale, Workload};

/// Runs share the process-global trace recorder and allocator counters,
/// so the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Config { workload, scale: Scale::Tiny, seed, seconds: 0.05, trace })
        .unwrap_or_else(|e| panic!("tiny {} run failed: {e}", workload.name()))
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = &json[json.find(&format!("\"{key}\"")).expect("metric list")..];
    let section = &section[..section.find(']').expect("closed list")];
    let quoted = |s: &str| {
        let s = &s[s.find('"').expect("opening quote") + 1..];
        s[..s.find('"').expect("closing quote")].to_string()
    };
    section
        .split("\"name\":")
        .skip(1)
        .map(|entry| (quoted(entry), quoted(&entry[entry.find("\"unit\":").expect("unit") + 7..])))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let _turn = serial();
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, 3, trace);
            let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table, "{} trace={trace}", workload.name());
            let line = out.result_json();
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                // end-to-end metrics are compared as shares of a median
                assert!(trace || m.value > 0.0, "{} is {} on {}", m.name, m.value, workload.name());
                let entry =
                    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
                assert!(line.contains(&entry), "{entry} missing from {line}");
            }
            assert_eq!(out.failed, 0, "{}", out.notes.join("\n"));
            assert!(out.attempted > 0);
        }
    }
}

#[test]
fn a_perturbed_gw_entry_fails_a_gate() {
    let _turn = serial();
    let workload = Workload::ExtractWaveletKernel;
    let inputs = make_inputs(workload, Scale::Tiny, 5).expect("tiny inputs");
    let reference = Reference::new(&inputs, 5, 8);
    let rep = extract(&inputs, false).expect("tiny extraction").rep;
    assert_eq!(model_failures(&rep, reference.col_err(&rep), workload.method()), 0);

    // change one off-diagonal entry on one side of the diagonal only
    let (i0, j0, _) = rep.gw.iter().find(|(i, j, _)| i != j).expect("an off-diagonal entry");
    let n = rep.n();
    let mut t = Triplets::new(n, n);
    for (i, j, v) in rep.gw.iter() {
        t.push(i, j, if (i, j) == (i0, j0) { 2.0 * v + 1.0 } else { v });
    }
    let perturbed = BasisRep::new(rep.q.clone(), t.to_csr());
    assert!(model_failures(&perturbed, reference.col_err(&perturbed), workload.method()) >= 1);
}

#[test]
fn one_seed_reproduces_counts_and_model_metrics_bit_for_bit() {
    let _turn = serial();
    for workload in Workload::ALL {
        let (a, b) = (tiny(workload, 7, false), tiny(workload, 7, false));
        for name in ["solves", "model_nnz_ratio", "model_col_err"] {
            let (x, y) = (a.metric(name).expect("reported"), b.metric(name).expect("reported"));
            assert_eq!(x.to_bits(), y.to_bits(), "{name} on {}: {x} vs {y}", workload.name());
        }
    }
}
