//! Pattern-first `Gw` assembly is bit-identical to the hash-map
//! accumulator it replaced.
//!
//! [`HashAccumulator`] below is that accumulator, kept as the reference:
//! it records every estimate in a map keyed by `(row, col)`, averages the
//! duplicates of each directed entry, then averages the two directions of
//! each pair through a second map. Both extraction methods feed the same
//! estimate stream (`wavelet::extract_into`, `lowrank::Sweep::fill`) into
//! it, and the `Gw` that `extract` / `extract_lowrank` assemble with
//! [`GwAssembler`] must match it in indices, nnz and every `f64` bit, on
//! seeded layouts of each family at two quadtree depths.
//!
//! The assembler holds one estimate per directed entry, so the same
//! streams (the wavelet fill at spacing 3 and 0, the low-rank fill) must
//! never hit a directed entry twice.
//!
//! `GwAssembler::finish` is also checked on its own, against a dense
//! `(a + b) / 2` reference, on random patterns and random estimates.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use subsparse::hier::{GwAssembler, GwSink, Quadtree, Square};
use subsparse::layout::{generators, Layout};
use subsparse::linalg::rng::SmallRng;
use subsparse::linalg::{Csr, Triplets};
use subsparse::lowrank::{LowRankOptions, Sweep};
use subsparse::substrate::solver;
use subsparse::wavelet::{build_basis, extract, extract_into, ExtractOptions};

/// The reference: `Gw` assembled through hash maps.
#[derive(Default)]
struct HashAccumulator {
    map: HashMap<(u32, u32), (f64, u32)>,
}

impl GwSink for HashAccumulator {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let e = self.map.entry((row as u32, col as u32)).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }
}

impl HashAccumulator {
    fn to_symmetric_csr(&self, n: usize) -> Csr {
        let mut sym: HashMap<(u32, u32), (f64, u32)> = HashMap::new();
        for (&(r, c), &(sum, cnt)) in &self.map {
            let v = sum / cnt as f64;
            let key = if r <= c { (r, c) } else { (c, r) };
            let e = sym.entry(key).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        let mut t = Triplets::new(n, n);
        for (&(r, c), &(sum, cnt)) in &sym {
            let v = sum / cnt as f64;
            if v == 0.0 {
                continue;
            }
            t.push(r as usize, c as usize, v);
            if r != c {
                t.push(c as usize, r as usize, v);
            }
        }
        t.to_csr()
    }
}

fn assert_bit_identical(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(got.n_rows(), want.n_rows(), "{what}: shape");
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
    for ((i, j, a), (k, l, b)) in got.iter().zip(want.iter()) {
        assert_eq!((i, j), (k, l), "{what}: pattern differs");
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entry ({i},{j}) is {a}, reference {b}");
    }
}

/// Contacts of a gapped irregular layout inside two discs: two dense
/// clusters on an otherwise empty surface.
fn clustered(seed: u64) -> Layout {
    let source = generators::irregular_same_size(128.0, 32, 1.0, seed);
    let mut out = Layout::new(128.0, 128.0);
    for c in source.contacts() {
        let b = c.bbox();
        let (x, y) = ((b.x0 + b.x1) / 2.0, (b.y0 + b.y1) / 2.0);
        if (x - 36.0).hypot(y - 40.0) < 26.0 || (x - 96.0).hypot(y - 92.0) < 20.0 {
            out.push(c.clone());
        }
    }
    out
}

/// Seeded layouts of each family, n <= 1024, with two depths each.
fn cases() -> Vec<(&'static str, Layout, [usize; 2])> {
    vec![
        ("regular", generators::regular_grid(128.0, 16, 2.0), [3, 4]),
        ("irregular", generators::irregular_same_size(128.0, 32, 1.0, 11), [3, 4]),
        ("clustered", clustered(5), [3, 4]),
        ("mixed-size", generators::alternating_grid(128.0, 32, 3.0, 1.5), [3, 4]),
    ]
}

#[test]
fn wavelet_extract_matches_hash_accumulator() {
    for (name, layout, depths) in cases() {
        let n = layout.n_contacts();
        assert!(n <= 1024, "{name}: n = {n}");
        let black_box = solver::synthetic(&layout);
        for levels in depths {
            let basis = build_basis(&layout, levels, 2).expect("layout fits the quadtree");
            let options = ExtractOptions::default();
            let mut reference = HashAccumulator::default();
            extract_into(&black_box, &basis, &options, &mut reference);
            let rep = extract(&black_box, &basis, &options);
            assert_bit_identical(
                &rep.gw,
                &reference.to_symmetric_csr(n),
                &format!("wavelet {name} levels {levels}"),
            );
        }
    }
}

#[test]
fn lowrank_extract_matches_hash_accumulator() {
    let options = LowRankOptions::default();
    for (name, layout, depths) in cases() {
        let black_box = solver::synthetic(&layout);
        for levels in depths {
            let (x, rb) = subsparse::extract_lowrank(&black_box, &layout, levels, &options)
                .expect("layout fits the quadtree");
            let mut reference = HashAccumulator::default();
            Sweep::new(&rb).fill(&rb, &mut reference);
            assert_bit_identical(
                &x.rep.gw,
                &reference.to_symmetric_csr(layout.n_contacts()),
                &format!("lowrank {name} levels {levels}"),
            );
        }
    }
}

/// Records every directed entry it receives and fails on the second
/// estimate of one.
#[derive(Default)]
struct OnceSink {
    seen: HashSet<(u32, u32)>,
    what: String,
}

impl GwSink for OnceSink {
    fn add(&mut self, row: usize, col: usize, _value: f64) {
        let what = &self.what;
        assert!(self.seen.insert((row as u32, col as u32)), "{what}: ({row}, {col}) hit twice");
    }
}

#[test]
fn each_fill_hits_a_directed_entry_at_most_once() {
    for (name, layout, depths) in cases() {
        let black_box = solver::synthetic(&layout);
        for levels in depths {
            let basis = build_basis(&layout, levels, 2).expect("layout fits the quadtree");
            for spacing in [3, 0] {
                let what = format!("wavelet {name} levels {levels} spacing {spacing}");
                let mut sink = OnceSink { what, ..Default::default() };
                extract_into(&black_box, &basis, &ExtractOptions { spacing }, &mut sink);
                assert!(!sink.seen.is_empty());
            }
            let (_, rb) =
                subsparse::extract_lowrank(&black_box, &layout, levels, &LowRankOptions::default())
                    .expect("layout fits the quadtree");
            let what = format!("lowrank {name} levels {levels}");
            let mut sink = OnceSink { what, ..Default::default() };
            Sweep::new(&rb).fill(&rb, &mut sink);
            assert!(!sink.seen.is_empty());
        }
    }
}

#[test]
fn an_estimate_outside_the_pattern_panics_with_its_entry() {
    // 16 contacts per finest square: every square has W columns, and the
    // opposite corners of the 4x4 finest level are not local
    let layout = generators::regular_grid(128.0, 16, 2.0);
    let basis = build_basis(&layout, 2, 2).expect("basis");
    let (a, b) = (Square::new(2, 0, 0), Square::new(2, 3, 3));
    let (row, col) = (basis.w_cols(a).start, basis.w_cols(b).start);
    let mut gw = GwAssembler::new(basis.tree(), basis.root_v(), |s| basis.w_cols(s));
    let payload = catch_unwind(AssertUnwindSafe(|| gw.add(row, col, 1.0)))
        .expect_err("an out-of-pattern estimate must panic");
    let message = payload.downcast_ref::<String>().expect("formatted panic message");
    assert!(message.contains(&format!("({row}, {col})")), "panic message: {message}");
}

/// A uniform integer in `0..n`.
fn below(rng: &mut SmallRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One estimate: exact zeros, `-0.0` and values of either sign.
fn estimate(rng: &mut SmallRng) -> f64 {
    match below(rng, 8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.range_f64(-1.0, 1.0),
    }
}

/// A random `Gw` pattern: `dense` columns, then every square of every
/// level (in random order) owning a random run of the remaining columns.
/// With no dense columns, the last columns may stay unowned, so their rows
/// hold nothing.
fn random_columns(rng: &mut SmallRng, tree: &Quadtree) -> (usize, Vec<Vec<Range<usize>>>) {
    let n = tree.n_contacts();
    let dense = below(rng, 4).min(n);
    let mut cols: Vec<Vec<Range<usize>>> =
        (0..=tree.finest()).map(|l| vec![0..0; tree.side(l) * tree.side(l)]).collect();
    let mut squares: Vec<Square> = (0..=tree.finest()).flat_map(|l| tree.squares(l)).collect();
    for i in (1..squares.len()).rev() {
        squares.swap(i, below(rng, i + 1));
    }
    let mut next = dense;
    for s in &squares {
        let w = below(rng, 6).min(n - next);
        cols[s.level as usize][s.flat()] = next..next + w;
        next += w;
    }
    // the leftover columns join the last square that owns some
    if next < n && (dense > 0 || rng.gen_bool(0.5)) {
        let at = |s: &Square| (s.level as usize, s.flat());
        match squares.iter().rev().map(at).find(|&(l, f)| !cols[l][f].is_empty()) {
            Some((l, f)) => cols[l][f].end = n,
            None => cols[0][0] = dense..n,
        }
    }
    (dense, cols)
}

#[test]
fn finish_matches_a_dense_pair_mean_on_random_patterns() {
    let mut rng = SmallRng::seed_from_u64(0x6a55e);
    for case in 0..48 {
        let layout = match case % 3 {
            0 => generators::regular_grid(128.0, 8 << (case % 2), 2.0),
            1 => generators::irregular_same_size(128.0, 16, 1.0, case as u64),
            _ => clustered(case as u64),
        };
        let tree = Quadtree::new(&layout, 1 + case / 3 % 3).expect("layout fits the quadtree");
        let n = tree.n_contacts();
        let (dense, cols) = random_columns(&mut rng, &tree);
        let cols_of = |s: Square| cols[s.level as usize][s.flat()].clone();
        let mut owner: Vec<Option<Square>> = vec![None; n];
        for s in (0..=tree.finest()).flat_map(|l| tree.squares(l)) {
            for c in cols_of(s) {
                owner[c] = Some(s);
            }
        }
        let mut related = HashSet::new();
        for x in (0..=tree.finest()).flat_map(|l| tree.squares(l)) {
            for y in tree.local_descendants(x) {
                related.extend([(x, y), (y, x)]);
            }
        }
        let in_pattern = |i: usize, j: usize| {
            i < dense
                || j < dense
                || matches!((owner[i], owner[j]), (Some(x), Some(y)) if related.contains(&(x, y)))
        };
        // every pair gets two, one or no estimates; half the cases give
        // every pair two nonzero ones, so every row keeps every slot
        let full = case / 9 % 2 == 1;
        let mut est: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
        for i in 0..n {
            for j in (i..n).filter(|&j| in_pattern(i, j)) {
                let (a, b) = (estimate(&mut rng), estimate(&mut rng));
                let (a, b) = if full { (a + 2.0, b + 2.0) } else { (a, b) };
                let (a, b) = match (full, below(&mut rng, 5)) {
                    (false, 0) => (None, None),
                    (false, 1) => (Some(a), None),
                    (false, 2) => (None, Some(b)),
                    // opposite estimates average to exactly zero
                    (false, 3) => (Some(a), Some(-a)),
                    _ => (Some(a), Some(b)),
                };
                est[i][j] = a;
                if i != j {
                    est[j][i] = b;
                }
            }
        }
        // the dense reference: the pair mean (or the lone estimate) into
        // both entries, without zeros
        let mut want = Triplets::new(n, n);
        for i in 0..n {
            for j in i..n {
                let v = match (est[i][j], est[j][i]) {
                    _ if i == j => est[i][i],
                    (Some(a), Some(b)) => Some((a + b) / 2.0),
                    (v, None) | (None, v) => v,
                };
                if let Some(v) = v.filter(|&v| v != 0.0) {
                    want.push(i, j, v);
                    if i != j {
                        want.push(j, i, v);
                    }
                }
            }
        }
        // fill: a square's whole run of a row through `add_tile` when it
        // is fully estimated, every other estimate through `add`
        let mut gw = GwAssembler::new(&tree, dense, cols_of);
        for (i, row) in est.iter().enumerate() {
            let mut j = 0;
            while j < n {
                if let Some(run) = owner[j].map(cols_of).filter(|r| r.start == j) {
                    let values: Option<Vec<f64>> = row[run.clone()].iter().copied().collect();
                    if let Some(values) = values {
                        gw.add_tile(i, run.clone(), &values);
                        j = run.end;
                        continue;
                    }
                }
                if let Some(v) = row[j] {
                    gw.add(i, j, v);
                }
                j += 1;
            }
        }
        let what = format!("case {case}: n {n}, dense {dense}, full {full}");
        assert_bit_identical(&gw.finish(), &want.to_csr(), &what);
    }
}
