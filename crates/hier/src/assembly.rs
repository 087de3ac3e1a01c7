//! Pattern-first assembly of the symmetric transformed matrix `Gw`.
//!
//! Both extraction methods keep exactly the "not-assumed-small" entries of
//! `Gw` (thesis §3.5, §4.4): the tiles of interactions between the basis
//! vectors of square pairs related by [`Quadtree::local_descendants`],
//! plus the dense rows and columns of the coarsest-level vectors. That
//! pattern is a function of the quadtree and of the basis column layout,
//! so [`GwAssembler`] builds it before any solve (pattern), the extraction
//! writes each estimate into its slot (fill), and
//! [`GwAssembler::finish`] symmetrizes and compacts the slots in place
//! (finish).
//!
//! Every row a square owns holds the same column list, so the pattern
//! stores one list per owning square (and one, `0..n`, for the dense
//! rows), not one per row. A tile `(x, y)` then sits at the same offset in
//! each row of `x`. The fill goes by tile: one source column against the
//! columns of one destination square ([`GwSink::add_tile`]) costs one
//! search for the run in the source row, and every estimate then lands by
//! index. A dense row holds every column and every list opens with the
//! dense columns, so entries in the dense rows and columns land by index
//! without a search. `finish` finds each pair's mirror slot the same way:
//! one search per tile, whose offset serves every row of the tile.
//!
//! The fill is one-directional: each directed slot `(row, col)` receives
//! at most one estimate, and a presence bit per slot records whether it
//! did. A second estimate into one slot panics with the entry, like an
//! estimate outside the pattern. `finish` supplies every mirror: an
//! unordered pair holds `(a + b) / 2` of its two directed estimates, or
//! the one that was recorded; pairs equal to `0.0` and pairs without
//! estimates are dropped. The extractions write each tile from its source
//! column's side only and each dense column once, so a pair related both
//! ways gets its two estimates, one per direction, and a pair related one
//! way gets one.

use std::ops::Range;

use subsparse_linalg::{trace, Csr};

use crate::tree::{Quadtree, Square};

/// Receives entry estimates of `Gw` in the order an extraction produces
/// them. [`GwAssembler`] is the sink every extraction assembles into.
///
/// The extractions record the local tiles through [`add_tile`](Self::add_tile),
/// one source column against one destination square at a time, and the
/// dense columns through [`add`](Self::add). Each directed entry receives
/// at most one estimate; the sink supplies the mirror of each entry (see
/// the module docs).
pub trait GwSink {
    /// Records one estimate of entry `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: f64);

    /// Records `values[i]` into `(src, dst.start + i)`, for each `i` in
    /// order: the row of the source column only. `dst` must lie in the
    /// columns of one square.
    fn add_tile(&mut self, src: usize, dst: Range<usize>, values: &[f64]) {
        assert_eq!(dst.len(), values.len(), "Gw tile run and values differ in length");
        for (c, &v) in dst.zip(values) {
            self.add(src, c, v);
        }
    }
}

/// The symmetric `Gw` pattern, one column list per owning square, with a
/// flat per-slot estimate and presence bit aligned with it.
#[derive(Debug)]
pub struct GwAssembler {
    n: usize,
    dense: usize,
    /// The column list each row holds (`0`, the list `0..n`, for the dense
    /// rows; `u32::MAX` for rows no square owns, which hold none): rows
    /// with one owner share one list.
    owner: Vec<u32>,
    /// List `o` is `lists[list_start[o]..list_start[o + 1]]`.
    list_start: Vec<usize>,
    lists: Vec<u32>,
    /// Row `r`'s slots are `indptr[r]..indptr[r + 1]`, one per column of
    /// its list.
    indptr: Vec<usize>,
    values: Vec<f64>,
    /// Bit `k % 64` of word `k / 64`: slot `k` holds an estimate.
    present: Vec<u64>,
    /// The last tile run [`GwSink::add_tile`] found: the source row's
    /// list, the run's columns, and its offset in the list. Every row of a
    /// square holds the same list, so the run serves the square's other
    /// rows without a search.
    last_tile: Option<(u32, Range<usize>, usize)>,
}

/// Whether slot `k`'s bit is set.
#[inline]
fn is_set(bits: &[u64], k: usize) -> bool {
    bits[k / 64] >> (k % 64) & 1 != 0
}

/// Sets slot `k`'s bit to `on`.
#[inline]
fn set(bits: &mut [u64], k: usize, on: bool) {
    let word = &mut bits[k / 64];
    *word = *word & !(1 << (k % 64)) | u64::from(on) << (k % 64);
}

/// The low `w` bits, `1 <= w <= 64`.
#[inline]
fn low_bits(w: usize) -> u64 {
    u64::MAX >> (64 - w)
}

/// The bits of slots `k..k + w` (`1 <= w <= 64`), slot `k` lowest.
#[inline]
fn get_bits(bits: &[u64], k: usize, w: usize) -> u64 {
    let (word, b) = (k / 64, k % 64);
    let hi = if b + w > 64 { bits[word + 1] << (64 - b) } else { 0 };
    (bits[word] >> b | hi) & low_bits(w)
}

/// Sets the bits of slots `k..k + w` (`1 <= w <= 64`) to the low `w` bits
/// of `v`, slot `k` lowest, leaving every other bit as it is.
#[inline]
fn put_bits(bits: &mut [u64], k: usize, w: usize, v: u64) {
    let (word, b, m) = (k / 64, k % 64, low_bits(w));
    bits[word] = bits[word] & !(m << b) | (v & m) << b;
    if b + w > 64 {
        let s = 64 - b;
        bits[word + 1] = bits[word + 1] & !(m >> s) | (v & m) >> s;
    }
}

/// Whether every slot of `slots` has its bit set.
fn all_set(bits: &[u64], slots: Range<usize>) -> bool {
    slots.clone().step_by(64).all(|k| {
        let w = (slots.end - k).min(64);
        get_bits(bits, k, w) == low_bits(w)
    })
}

/// Keeps diagonal slot `k`, its own mirror, if its estimate is not `0.0`.
/// A slot without an estimate holds `+0.0`.
#[inline]
fn diagonal(values: &[f64], present: &mut [u64], k: usize) {
    set(present, k, values[k] != 0.0);
}

/// Symmetrizes the pairs of one run of a row: slot `k + t` of the upper
/// triangle and its mirror slot `mirror(t)`, for `t` in `0..len`. Both
/// slots get the pair's value, and their presence bits become the keep
/// flag. A slot without an estimate holds `+0.0`, so a lone estimate `a`
/// reads as `a + 0.0`: `a` itself, unless `a` is `-0.0`, which is dropped
/// either way. The run's own bits are read and written 64 at a time.
#[inline]
fn resolve_run(
    values: &mut [f64],
    present: &mut [u64],
    k: usize,
    len: usize,
    mirror: impl Fn(usize) -> usize,
) {
    for t0 in (0..len).step_by(64) {
        let w = (len - t0).min(64);
        let have = get_bits(present, k + t0, w);
        let mut keep = 0;
        for t in 0..w {
            let (kt, m) = (k + t0 + t, mirror(t0 + t));
            let both = (have >> t & 1 != 0) & is_set(present, m);
            let v = (values[kt] + values[m]) / if both { 2.0 } else { 1.0 };
            (values[kt], values[m]) = (v, v);
            set(present, m, v != 0.0);
            keep |= u64::from(v != 0.0) << t;
        }
        put_bits(present, k + t0, w, keep);
    }
}

/// The columns row `r` holds: its owner's list.
#[inline]
fn row_cols<'a>(owner: &[u32], list_start: &[usize], lists: &'a [u32], r: usize) -> &'a [u32] {
    match owner[r] {
        u32::MAX => &[],
        o => &lists[list_start[o as usize]..list_start[o as usize + 1]],
    }
}

impl GwAssembler {
    /// Builds the pattern of an `n x n` `Gw` (`n` = the tree's contact
    /// count) whose columns `0..dense` are the coarsest-level vectors and
    /// whose square `s` owns the contiguous columns `cols(s)` (empty when
    /// it owns none).
    ///
    /// A dense row holds every column. A row owned by square `x` holds the
    /// dense columns, then the columns of every square `y` with `y` in
    /// `tree.local_descendants(x)` or `x` in `tree.local_descendants(y)`,
    /// sorted.
    ///
    /// # Panics
    ///
    /// Panics if a square's columns overlap the dense columns, another
    /// square's columns, or run past `n`.
    pub fn new(tree: &Quadtree, dense: usize, cols: impl Fn(Square) -> Range<usize>) -> Self {
        let _s = trace::span("extract.gw.pattern");
        let n = tree.n_contacts();
        let finest = tree.finest();
        // flat id of a square across all levels
        let level_start: Vec<usize> =
            (0..=finest + 1).map(|l| ((1usize << (2 * l)) - 1) / 3).collect();
        let id = |s: Square| level_start[s.level as usize] + s.flat();
        let n_squares = level_start[finest + 1];

        // every tile seen from both sides, bucketed by the row square:
        // count, then fill
        let for_each_tile = |f: &mut dyn FnMut(Square, Square)| {
            for l in 0..=finest {
                for s in tree.squares(l).filter(|&s| !cols(s).is_empty()) {
                    for d in tree.local_descendants(s).filter(|&d| !cols(d).is_empty()) {
                        f(s, d);
                        if d != s {
                            f(d, s);
                        }
                    }
                }
            }
        };
        let mut start = vec![0usize; n_squares + 1];
        for_each_tile(&mut |x, _| start[id(x) + 1] += 1);
        for i in 0..n_squares {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut tiles = vec![Square::new(0, 0, 0); start[n_squares]];
        for_each_tile(&mut |x, y| {
            tiles[next[id(x)]] = y;
            next[id(x)] += 1;
        });
        drop(next);

        // list 0 serves the dense rows; each owning square adds its own
        let mut owner = vec![u32::MAX; n];
        owner[..dense].fill(0);
        let mut lists: Vec<u32> = (0..n as u32).collect();
        let mut list_start = vec![0, n];
        for l in 0..=finest {
            for x in tree.squares(l) {
                let own = cols(x);
                if own.is_empty() {
                    continue;
                }
                assert!(dense <= own.start && own.end <= n, "square {x:?} owns columns {own:?}");
                let list = (list_start.len() - 1) as u32;
                for r in own {
                    assert_eq!(owner[r], u32::MAX, "row {r} is owned twice");
                    owner[r] = list;
                }
                let bucket = &mut tiles[start[id(x)]..start[id(x) + 1]];
                bucket.sort_unstable_by_key(|&y| cols(y).start);
                lists.extend(0..dense as u32);
                // a pair related both ways (same level, local) arrives twice
                let mut prev = None;
                for &y in &*bucket {
                    if prev != Some(y) {
                        lists.extend(cols(y).map(|c| c as u32));
                        prev = Some(y);
                    }
                }
                list_start.push(lists.len());
            }
        }

        let mut indptr = vec![0usize; n + 1];
        for r in 0..n {
            indptr[r + 1] = indptr[r] + row_cols(&owner, &list_start, &lists, r).len();
        }
        let slots = indptr[n];
        GwAssembler {
            n,
            dense,
            owner,
            list_start,
            lists,
            indptr,
            values: vec![0.0; slots],
            present: vec![0; slots.div_ceil(64)],
            last_tile: None,
        }
    }

    /// The columns row `r` holds.
    fn cols(&self, r: usize) -> &[u32] {
        row_cols(&self.owner, &self.list_start, &self.lists, r)
    }

    /// Slot of entry `(row, col)`, if the pattern holds it.
    fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let (a, b) = (*self.indptr.get(row)?, *self.indptr.get(row + 1)?);
        // a dense row holds every column; other rows open with the dense
        // columns (or are empty)
        if row < self.dense || col < self.dense {
            return (a + col < b).then_some(a + col);
        }
        let col = u32::try_from(col).ok()?;
        self.cols(row).binary_search(&col).ok().map(|k| a + k)
    }

    /// The slots of the tile run `src` x `dst`: `k` such that slots
    /// `k..k + dst.len()` of row `src` hold the columns `dst`.
    ///
    /// # Panics
    ///
    /// Panics with an entry of the run if `dst` straddles the rows of two
    /// squares or the pattern misses the entry.
    fn tile(&self, src: usize, dst: &Range<usize>) -> usize {
        let outside = |row: usize, col: usize| -> ! {
            panic!("Gw estimate ({row}, {col}) lies outside the assembly pattern")
        };
        let last = dst.end - 1;
        if dst.end > self.n {
            outside(src, dst.start.max(self.n))
        }
        // a square's rows are contiguous, so its first and last decide
        let owner = &self.owner;
        if owner[last] != owner[dst.start] {
            let r = dst.clone().find(|&r| owner[r] != owner[dst.start]).unwrap_or(last);
            panic!("Gw estimate ({r}, {src}) lies in another square than row {}", dst.start);
        }
        let run = self
            .slot(src, dst.start)
            .filter(|&k| k + last - dst.start < self.indptr[src + 1])
            .filter(|&k| self.cols(src)[k + last - dst.start - self.indptr[src]] as usize == last);
        let Some(run) = run else {
            let c = dst.clone().find(|&c| self.slot(src, c).is_none()).unwrap_or(last);
            outside(src, c)
        };
        run
    }

    /// Stores `value` in slot `k`, the slot of `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics with the entry if the slot already holds an estimate.
    #[inline]
    fn record(&mut self, k: usize, row: usize, col: usize, value: f64) {
        if is_set(&self.present, k) {
            panic!("Gw entry ({row}, {col}) received a second estimate");
        }
        set(&mut self.present, k, true);
        self.values[k] = value;
    }

    /// Symmetrizes and compacts the slots in place (see the module docs
    /// for the arithmetic) and returns the `n x n` `Gw`.
    pub fn finish(self) -> Csr {
        let _s = trace::span("extract.gw.finish");
        let GwAssembler {
            n,
            dense,
            owner,
            list_start,
            lists,
            mut indptr,
            mut values,
            mut present,
            ..
        } = self;
        let list = |o: usize| &lists[list_start[o]..list_start[o + 1]];
        // the rows each list serves: list 0 the dense rows, every other
        // list its square's contiguous rows
        let mut rows = vec![0..0; list_start.len() - 1];
        rows[0] = 0..dense;
        for (r, &o) in owner.iter().enumerate().skip(dense).filter(|&(_, &o)| o != u32::MAX) {
            let span = &mut rows[o as usize];
            if span.end == 0 {
                span.start = r;
            }
            span.end = r + 1;
        }
        // a dense row holds every column, and every row opens with the
        // dense columns, so a dense row's mirrors lie at its own index
        for r in 0..dense {
            let k = indptr[r];
            diagonal(&values, &mut present, k + r);
            let mirror = |t: usize| {
                let c = r + 1 + t;
                assert_ne!(owner[c], u32::MAX, "the Gw pattern is symmetric");
                indptr[c] + r
            };
            resolve_run(&mut values, &mut present, k + r + 1, n - r - 1, mirror);
        }
        // the rest goes tile by tile: square `x`'s rows against the run of
        // square `y`'s columns in `x`'s list, for `y` not before `x`. `x`'s
        // rows sit at one offset in every row of `y`, so one search per
        // tile
        for x in 1..rows.len() {
            let (xs, xl) = (rows[x].clone(), list(x));
            let mut p = dense;
            while p < xl.len() {
                let y = owner[xl[p] as usize] as usize;
                let ys = rows[y].clone();
                debug_assert_eq!(
                    xl[p] as usize, ys.start,
                    "a tile opens at its square's first row"
                );
                if ys.start >= xs.start {
                    let off = list(y)
                        .binary_search(&(xs.start as u32))
                        .expect("the Gw pattern is symmetric");
                    for (i, r) in xs.clone().enumerate() {
                        let k = indptr[r] + p;
                        // a diagonal tile holds its upper triangle only
                        let t0 = if y == x {
                            diagonal(&values, &mut present, k + i);
                            i + 1
                        } else {
                            0
                        };
                        let mirror = |t: usize| indptr[ys.start + t0 + t] + off + i;
                        resolve_run(&mut values, &mut present, k + t0, ys.len() - t0, mirror);
                    }
                }
                p += ys.len();
            }
        }
        drop(rows);
        // the output indices are written once, for the kept slots only; a
        // row that keeps every slot copies its column list
        let kept = present.iter().map(|w| w.count_ones() as usize).sum();
        let mut indices = Vec::with_capacity(kept);
        let mut start = 0;
        for r in 0..n {
            let (end, cols) = (indptr[r + 1], row_cols(&owner, &list_start, &lists, r));
            if all_set(&present, start..end) {
                // rows before this one kept every slot too: nothing moves
                if indices.len() != start {
                    values.copy_within(start..end, indices.len());
                }
                indices.extend_from_slice(cols);
            } else {
                for (k, &c) in (start..).zip(cols) {
                    if is_set(&present, k) {
                        values[indices.len()] = values[k];
                        indices.push(c);
                    }
                }
            }
            start = end;
            indptr[r + 1] = indices.len();
        }
        drop(present);
        values.truncate(kept);
        values.shrink_to_fit();
        Csr::from_parts(n, n, indptr, indices, values)
    }
}

impl GwSink for GwAssembler {
    /// Stores `value` in the slot of `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics with the missed `(row, col)` if the pattern has no such
    /// slot, or with the entry if it already holds an estimate.
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let Some(k) = self.slot(row, col) else {
            panic!("Gw estimate ({row}, {col}) lies outside the assembly pattern");
        };
        self.record(k, row, col, value);
    }

    /// Finds the tile run with one search (none when the previous call
    /// found the same run for another row of the same square), checks and
    /// sets its presence bits a word at a time, then copies the estimates
    /// in.
    ///
    /// # Panics
    ///
    /// Panics with an entry of the run if `dst` straddles two squares' rows
    /// or leaves the pattern, or with the first entry of the run that
    /// already holds an estimate.
    fn add_tile(&mut self, src: usize, dst: Range<usize>, values: &[f64]) {
        assert_eq!(dst.len(), values.len(), "Gw tile run and values differ in length");
        if dst.is_empty() {
            return;
        }
        let run = match &self.last_tile {
            Some((list, cols, offset)) if self.owner.get(src) == Some(list) && *cols == dst => {
                self.indptr[src] + offset
            }
            _ => {
                let run = self.tile(src, &dst);
                self.last_tile = Some((self.owner[src], dst.clone(), run - self.indptr[src]));
                run
            }
        };
        // the run's presence bits, 64 at a time: all clear, then all set
        for t0 in (0..dst.len()).step_by(64) {
            let w = (dst.len() - t0).min(64);
            let have = get_bits(&self.present, run + t0, w);
            if have != 0 {
                let c = dst.start + t0 + have.trailing_zeros() as usize;
                panic!("Gw entry ({src}, {c}) received a second estimate");
            }
            put_bits(&mut self.present, run + t0, w, u64::MAX);
        }
        self.values[run..run + dst.len()].copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_layout::generators;

    /// 16 contacts on a 4x4 finest level: column 0 is dense, finest square
    /// `f` (flat index) owns column `f` for `f >= 1`.
    fn assembler() -> GwAssembler {
        let tree = Quadtree::new(&generators::regular_grid(128.0, 4, 2.0), 2).unwrap();
        GwAssembler::new(&tree, 1, |s| match (s.level, s.flat()) {
            (2, f) if f >= 1 => f..f + 1,
            _ => 0..0,
        })
    }

    /// The same 16 contacts with column 0 dense and five finest squares
    /// owning three columns each: (0,0) 1..4, (1,1) 4..7, (2,1) 7..10,
    /// (2,2) 10..13, (3,3) 13..16.
    fn tiled() -> GwAssembler {
        let tree = Quadtree::new(&generators::regular_grid(128.0, 4, 2.0), 2).unwrap();
        GwAssembler::new(&tree, 1, |s| match (s.level, s.flat()) {
            (2, 0) => 1..4,
            (2, 5) => 4..7,
            (2, 6) => 7..10,
            (2, 10) => 10..13,
            (2, 15) => 13..16,
            _ => 0..0,
        })
    }

    /// Forwards `add` and keeps the trait's per-entry `add_tile`.
    struct PerEntry(GwAssembler);

    impl GwSink for PerEntry {
        fn add(&mut self, row: usize, col: usize, value: f64) {
            self.0.add(row, col, value);
        }
    }

    fn bits(m: &Csr) -> Vec<(usize, usize, u64)> {
        m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    }

    #[test]
    fn add_tile_matches_the_per_entry_default_bit_for_bit() {
        let squares = [1..4, 4..7, 7..10, 10..13, 13..16];
        let tiles = tiled();
        let mut local: Vec<(usize, &Range<usize>)> = squares
            .iter()
            .flat_map(|a| a.clone())
            .flat_map(|src| squares.iter().map(move |b| (src, b)))
            .filter(|&(src, b)| tiles.slot(src, b.start).is_some())
            .collect();
        // row by row, then each destination square's run for every row of
        // the source square in turn, so each run found serves two more rows
        for by_square in [false, true] {
            if by_square {
                local.sort_by_key(|&(src, b)| (tiles.owner[src], b.start, src));
            }
            let (mut tiles, mut entries) = (tiled(), PerEntry(tiled()));
            let mut x = 0.1f64;
            // every tile of the pattern from its source's side (the
            // diagonal `s == d` tiles included), then the dense column
            for &(src, b) in &local {
                let values: Vec<f64> = b
                    .clone()
                    .map(|_| {
                        x = (x * 3.7 + 0.3).fract();
                        x - 0.5
                    })
                    .collect();
                tiles.add_tile(src, b.clone(), &values);
                entries.add_tile(src, b.clone(), &values);
            }
            for r in 0..16 {
                let v = f64::from(r as u32 + 1) / 7.0;
                tiles.add(r, 0, v);
                entries.add(r, 0, v);
            }
            let (got, want) = (tiles.finish(), entries.0.finish());
            // row 0 and column 0, then 5 diagonal and 5 local square pairs
            // both ways, 3 x 3 each
            assert_eq!(got.nnz(), 16 + 15 + 9 * (5 + 2 * 5));
            assert_eq!(bits(&got), bits(&want), "by square: {by_square}");
        }
    }

    #[test]
    #[should_panic(expected = "Gw estimate (1, 10) lies outside the assembly pattern")]
    fn a_tile_run_outside_the_pattern_panics_with_its_entry() {
        // squares (0,0) and (2,2) are not local
        tiled().add_tile(1, 10..13, &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "Gw estimate (7, 4) lies in another square than row 6")]
    fn a_tile_run_straddling_two_squares_panics_with_its_entry() {
        // row 4 holds columns 4..10 in one run, but rows 6 and 7 belong to
        // squares (1,1) and (2,1)
        tiled().add_tile(4, 6..8, &[1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "Gw entry (4, 8) received a second estimate")]
    fn a_second_estimate_through_add_tile_panics_with_the_entry() {
        let mut gw = tiled();
        gw.add_tile(4, 7..10, &[1.0; 3]);
        gw.add(8, 4, 1.0); // the mirror is a slot of its own
        gw.add_tile(4, 8..10, &[1.0; 2]);
    }

    #[test]
    fn dense_rows_and_columns_land_by_index() {
        let mut gw = tiled();
        for (row, col) in [(0, 0), (0, 9), (0, 15), (9, 0), (15, 0)] {
            let k = gw.slot(row, col).expect("dense entries are in the pattern");
            assert!((gw.indptr[row]..gw.indptr[row + 1]).contains(&k));
            assert_eq!(gw.cols(row)[k - gw.indptr[row]] as usize, col, "slot of ({row}, {col})");
            gw.add(row, col, 1.0);
            assert_eq!((gw.values[k], is_set(&gw.present, k)), (1.0, true), "({row}, {col})");
        }
        assert_eq!(gw.slot(0, 16), None);
        let d = gw.finish().to_dense();
        assert_eq!((d[(0, 9)], d[(9, 0)], d[(0, 0)]), (1.0, 1.0, 1.0));
    }

    #[test]
    fn pattern_is_dense_rows_plus_local_tiles() {
        let gw = assembler();
        // column 0 of 16 rows and row 0 of 16 columns, minus the shared
        // diagonal, plus each of squares 1..16's local squares except
        // square 0 (counted in the dense column)
        let local_pairs: usize = (1..16)
            .map(|f| Square::new(2, f % 4, f / 4))
            .map(|s| (1..16).filter(|&g| s.is_local(&Square::new(2, g % 4, g / 4))).count())
            .sum();
        assert_eq!(gw.values.len(), 16 + 15 + local_pairs);
        // one list for the dense row and one per owning square
        assert_eq!(gw.list_start.len() - 1, 16);
        assert!(gw.slot(3, 12).is_none(), "squares (3,0) and (0,3) are not local");
        assert!(gw.slot(5, 10).is_some() && gw.slot(10, 5).is_some());
    }

    #[test]
    fn finish_averages_and_symmetrizes() {
        let mut gw = assembler();
        gw.add(1, 2, 2.0);
        gw.add(2, 1, 6.0); // opposite direction: pair mean (2+6)/2 = 4
        gw.add(7, 7, 7.0);
        gw.add(0, 5, 1.5); // one direction only: kept as is
        gw.add(5, 6, 1.0);
        gw.add(6, 5, -1.0); // pair mean exactly 0: dropped
        gw.add(9, 9, 0.0); // zero estimate: dropped
        let m = gw.finish();
        assert_eq!(m.nnz(), 5);
        let d = m.to_dense();
        assert_eq!((d[(1, 2)], d[(2, 1)]), (4.0, 4.0));
        assert_eq!(d[(7, 7)], 7.0);
        assert_eq!((d[(0, 5)], d[(5, 0)]), (1.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "Gw entry (5, 10) received a second estimate")]
    fn a_second_estimate_into_one_slot_panics_with_the_entry() {
        let mut gw = assembler();
        gw.add(5, 10, 1.0);
        gw.add(10, 5, 1.0);
        gw.add(5, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "Gw estimate (3, 12) lies outside the assembly pattern")]
    fn add_outside_the_pattern_panics_with_the_entry() {
        assembler().add(3, 12, 1.0);
    }
}
