//! Accuracy and cost metrics of the thesis evaluation (§3.7, §4.6).
//!
//! The thesis measures sparsification quality by the *entrywise relative
//! error* of the reconstructed `Q Gw Q'` against the exact `G` — a
//! deliberately hard standard, since small entries (small contacts feeding
//! sensitive circuitry) must also be right. Cost is measured by the
//! *sparsity factor* `n^2 / nnz` and the *solve-reduction factor*
//! `n / solves`.

use subsparse_linalg::Mat;

/// Spurious-coupling floor, as a fraction of the largest reference
/// magnitude: an approximation entry sitting on an exactly-zero reference
/// entry is *graded* (folded into the `frac_above` denominators and
/// numerators) when its magnitude exceeds
/// `SPURIOUS_FLOOR_FRACTION * max|reference|`. Below the floor it is
/// still *counted* ([`ErrorStats::spurious_count`]) but treated as
/// rounding debris rather than invented coupling — an exact zero hit by
/// a `1e-300` crumb should not dominate an accuracy table.
pub const SPURIOUS_FLOOR_FRACTION: f64 = 1e-12;

/// Entrywise relative-error statistics of an approximation against a
/// reference matrix.
///
/// Two classes of defect that a naive relative-error scan silently
/// forgives are surfaced explicitly:
///
/// * **spurious coupling** — entries where the reference is exactly zero
///   (truly uncoupled contacts) but the approximation is not. Relative
///   error is undefined there, so they are tallied separately
///   ([`spurious_count`](Self::spurious_count) /
///   [`max_abs_spurious`](Self::max_abs_spurious)) and, above the
///   [`SPURIOUS_FLOOR_FRACTION`] floor, folded into the
///   `frac_above` fractions as wrong entries;
/// * **non-finite approximations** — a NaN or infinity in the
///   approximation. `f64::max` ignores NaN, so a plain max-tracking loop
///   reports `max_rel_error == 0` for a NaN-carrying matrix; here any
///   non-finite entry is counted in [`non_finite`](Self::non_finite) and
///   *poisons* [`max_rel_error`](Self::max_rel_error) and
///   [`mean_rel_error`](Self::mean_rel_error) to NaN.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErrorStats {
    /// Largest relative error over entries with a nonzero reference
    /// value; NaN when the approximation holds any non-finite entry.
    pub max_rel_error: f64,
    /// Fraction of graded entries that are wrong by more than 10%: the
    /// thesis's thresholded-accuracy column, extended so spurious
    /// above-floor entries and non-finite entries count as wrong.
    pub frac_above_10pct: f64,
    /// Mean relative error over the `compared` entries; NaN when the
    /// approximation holds any non-finite entry.
    pub mean_rel_error: f64,
    /// Number of entries graded for relative error (nonzero reference).
    pub compared: usize,
    /// Entries with an exactly-zero reference but a nonzero
    /// approximation — coupling invented between uncoupled contacts.
    pub spurious_count: usize,
    /// Largest approximation magnitude over the spurious entries (0 when
    /// there are none).
    pub max_abs_spurious: f64,
    /// Non-finite (NaN or infinite) approximation entries.
    pub non_finite: usize,
}

impl ErrorStats {
    /// Fraction of entries with relative error above an arbitrary bound
    /// cannot be recovered from the summary; this helper recomputes the
    /// stats with a different threshold — in the same single pass as the
    /// stats themselves (one traversal of both matrices, not one per
    /// quantity).
    pub fn with_threshold(reference: &Mat, approx: &Mat, threshold: f64) -> (Self, f64) {
        scan(reference, approx, threshold)
    }
}

/// The one shared traversal behind [`error_stats`], [`frac_above`], and
/// [`ErrorStats::with_threshold`]: a single pass over both matrices
/// accumulating the 10% stats and the fraction above `extra_threshold`
/// together.
fn scan(reference: &Mat, approx: &Mat, extra_threshold: f64) -> (ErrorStats, f64) {
    assert_eq!(reference.n_rows(), approx.n_rows(), "shape mismatch");
    assert_eq!(reference.n_cols(), approx.n_cols(), "shape mismatch");
    let floor = SPURIOUS_FLOOR_FRACTION * reference.max_abs();
    let mut max_rel = 0.0_f64;
    let mut sum_rel = 0.0_f64;
    let mut above10 = 0usize;
    let mut above_extra = 0usize;
    let mut compared = 0usize;
    let mut spurious = 0usize;
    let mut spurious_graded = 0usize;
    let mut max_abs_spurious = 0.0_f64;
    let mut non_finite = 0usize;
    for j in 0..reference.n_cols() {
        let rc = reference.col(j);
        let ac = approx.col(j);
        for (r, a) in rc.iter().zip(ac) {
            if !a.is_finite() {
                non_finite += 1;
            }
            if *r == 0.0 {
                if *a == 0.0 {
                    continue; // truly uncoupled, correctly served
                }
                spurious += 1;
                max_abs_spurious = max_abs_spurious.max(a.abs());
                // invented coupling above the noise floor is graded as a
                // wrong entry at every threshold (non-finite `a` compares
                // false against the floor but is wrong by definition)
                if a.abs() > floor || !a.is_finite() {
                    spurious_graded += 1;
                }
                continue;
            }
            let rel = (a - r).abs() / r.abs();
            // `rel > t` is false for NaN, so a non-finite entry must be
            // counted as wrong explicitly instead of falling through
            let wrong = !rel.is_finite();
            if rel > 0.10 || wrong {
                above10 += 1;
            }
            if rel > extra_threshold || wrong {
                above_extra += 1;
            }
            max_rel = max_rel.max(rel);
            sum_rel += rel;
            compared += 1;
        }
    }
    let graded = compared + spurious_graded;
    let frac = |above: usize| {
        if graded == 0 {
            0.0
        } else {
            (above + spurious_graded) as f64 / graded as f64
        }
    };
    let poison = |v: f64| if non_finite > 0 { f64::NAN } else { v };
    let stats = ErrorStats {
        max_rel_error: poison(max_rel),
        frac_above_10pct: frac(above10),
        mean_rel_error: poison(if compared == 0 { 0.0 } else { sum_rel / compared as f64 }),
        compared,
        spurious_count: spurious,
        max_abs_spurious,
        non_finite,
    };
    let frac_extra = frac(above_extra);
    (stats, frac_extra)
}

/// Computes [`ErrorStats`] over all entries of `reference` with nonzero
/// value — plus the zero-reference accounting the struct documents
/// (spurious nonzeros counted and graded, non-finite entries poisoning
/// the summary instead of vanishing).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn error_stats(reference: &Mat, approx: &Mat) -> ErrorStats {
    scan(reference, approx, 0.10).0
}

/// Fraction of graded entries wrong by more than `threshold`: relative
/// error above it on nonzero-reference entries, plus spurious
/// above-floor entries (invented coupling on an exactly-zero reference)
/// and non-finite entries, which are wrong at every threshold.
pub fn frac_above(reference: &Mat, approx: &Mat, threshold: f64) -> f64 {
    scan(reference, approx, threshold).1
}

/// Like [`frac_above`], but entries with `|reference| < floor_abs` are
/// excluded from the count. Useful when the reference columns are a
/// sample (where the diagonal position is not `(i, i)`) and the caller
/// computes the floor itself.
pub fn frac_above_with_floor(reference: &Mat, approx: &Mat, threshold: f64, floor_abs: f64) -> f64 {
    assert_eq!(reference.n_rows(), approx.n_rows(), "shape mismatch");
    assert_eq!(reference.n_cols(), approx.n_cols(), "shape mismatch");
    let mut above = 0usize;
    let mut compared = 0usize;
    for j in 0..reference.n_cols() {
        let rc = reference.col(j);
        let ac = approx.col(j);
        for (r, a) in rc.iter().zip(ac) {
            if r.abs() < floor_abs || *r == 0.0 {
                continue;
            }
            let rel = (a - r).abs() / r.abs();
            // non-finite entries are wrong at every threshold; `rel > t`
            // alone would silently drop a NaN
            if rel > threshold || !rel.is_finite() {
                above += 1;
            }
            compared += 1;
        }
    }
    if compared == 0 {
        0.0
    } else {
        above as f64 / compared as f64
    }
}

/// Relative Frobenius-norm error `||A - R||_F / ||R||_F`.
pub fn rel_fro_error(reference: &Mat, approx: &Mat) -> f64 {
    let mut d = approx.clone();
    d.add_scaled(-1.0, reference);
    d.fro_norm() / reference.fro_norm()
}

/// The naive sparsification baseline of §3.7: keep the `target_nnz`
/// largest-magnitude entries of the *original* `G` and zero the rest.
///
/// Both thesis methods beat this by a wide margin at equal sparsity, which
/// is the point of changing basis first.
pub fn threshold_dense(g: &Mat, target_nnz: usize) -> Mat {
    if target_nnz == 0 {
        return Mat::zeros(g.n_rows(), g.n_cols());
    }
    if target_nnz >= g.data().len() {
        return g.clone();
    }
    let mut abs: Vec<f64> = g.data().iter().map(|v| v.abs()).collect();
    abs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    // keep every entry with |v| >= cut: a tie group straddling the budget
    // boundary is kept whole (slightly exceeding target_nnz) rather than
    // split by storage order — splitting ties breaks the symmetry of a
    // symmetric G, i.e. produces a non-reciprocal conductance model
    let cut = abs[target_nnz - 1];
    let mut out = g.clone();
    for j in 0..out.n_cols() {
        for v in out.col_mut(j) {
            if v.abs() < cut {
                *v = 0.0;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_stats_basics() {
        let r = Mat::from_rows(&[&[1.0, 2.0], &[0.0, -4.0]]);
        let a = Mat::from_rows(&[&[1.25, 2.0], &[5.0, -4.0]]);
        let s = error_stats(&r, &a);
        // the zero-reference entry is not relative-error graded, but it
        // is no longer invisible: it shows up as invented coupling
        assert_eq!(s.compared, 3);
        assert_eq!(s.spurious_count, 1);
        assert_eq!(s.max_abs_spurious, 5.0);
        assert_eq!(s.non_finite, 0);
        assert!((s.max_rel_error - 0.25).abs() < 1e-12);
        // wrong entries: the 25% one plus the spurious 5.0, out of 4 graded
        assert!((s.frac_above_10pct - 2.0 / 4.0).abs() < 1e-12);
        assert!((s.mean_rel_error - 0.25 / 3.0).abs() < 1e-12);
        // at a 30% threshold only the spurious entry is still wrong
        let f = frac_above(&r, &a, 0.30);
        assert!((f - 1.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn invented_coupling_on_exact_zeros_is_counted() {
        // reference: contacts 0 and 2 truly uncoupled (exact zeros);
        // approximation: perfect everywhere it is graded, but invents
        // coupling on the zeros — the pre-fix metrics scored this run
        // flawless (compared skipped every zero entry)
        let r = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let mut a = r.clone();
        a[(0, 2)] = 0.5;
        a[(2, 0)] = 0.5;
        let s = error_stats(&r, &a);
        assert_eq!(s.spurious_count, 2);
        assert_eq!(s.max_abs_spurious, 0.5);
        assert_eq!(s.max_rel_error, 0.0); // graded entries really are exact
                                          // ...but the run is not flawless: 2 of 9 graded entries are wrong
        assert!((s.frac_above_10pct - 2.0 / 9.0).abs() < 1e-12, "{}", s.frac_above_10pct);
        assert!((frac_above(&r, &a, 0.99) - 2.0 / 9.0).abs() < 1e-12);
        // sub-floor debris on a zero entry is counted but not graded
        let mut tiny = r.clone();
        tiny[(0, 2)] = 1e-290;
        let s = error_stats(&r, &tiny);
        assert_eq!(s.spurious_count, 1);
        assert_eq!(s.frac_above_10pct, 0.0);
    }

    #[test]
    fn non_finite_approximations_poison_the_stats() {
        let r = Mat::from_rows(&[&[1.0, 2.0], &[3.0, -4.0]]);
        let mut a = r.clone();
        a[(1, 0)] = f64::NAN;
        let s = error_stats(&r, &a);
        // pre-fix: f64::max dropped the NaN and reported max_rel_error == 0
        assert!(s.max_rel_error.is_nan(), "NaN must poison the max, got {}", s.max_rel_error);
        assert!(s.mean_rel_error.is_nan());
        assert_eq!(s.non_finite, 1);
        assert!((s.frac_above_10pct - 1.0 / 4.0).abs() < 1e-12);
        assert!((frac_above(&r, &a, 1e9) - 1.0 / 4.0).abs() < 1e-12, "NaN is wrong at any bound");
        // an infinity poisons the same way, including on a zero reference
        let rz = Mat::from_rows(&[&[1.0, 0.0], &[3.0, -4.0]]);
        let mut az = rz.clone();
        az[(0, 1)] = f64::INFINITY;
        let s = error_stats(&rz, &az);
        assert_eq!(s.non_finite, 1);
        assert_eq!(s.spurious_count, 1);
        assert!(s.max_rel_error.is_nan());
        assert!((s.frac_above_10pct - 1.0 / 4.0).abs() < 1e-12);
        // the floored grader must not swallow NaN either
        assert!(frac_above_with_floor(&r, &a, 0.10, 0.5) > 0.0);
    }

    #[test]
    fn fused_threshold_pass_matches_the_separate_calls() {
        let r = Mat::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, -4.0, 8.0]]);
        let a = Mat::from_rows(&[&[1.25, 2.0, 0.3], &[5.0, -4.4, 8.0]]);
        let (stats, frac) = ErrorStats::with_threshold(&r, &a, 0.07);
        let separate = error_stats(&r, &a);
        assert_eq!(stats.compared, separate.compared);
        assert_eq!(stats.spurious_count, separate.spurious_count);
        assert_eq!(stats.max_rel_error, separate.max_rel_error);
        assert_eq!(stats.frac_above_10pct, separate.frac_above_10pct);
        assert_eq!(frac, frac_above(&r, &a, 0.07));
    }

    #[test]
    fn floored_fraction_skips_small_entries() {
        let r = Mat::from_rows(&[&[100.0, -1.0], &[-1e-6, 100.0]]);
        let a = Mat::from_rows(&[&[100.0, -1.0], &[-2e-6, 100.0]]);
        // the 1e-6 entry is 100% wrong but below the floor (1/500 of the
        // largest off-diagonal = 2e-3)
        assert!(frac_above(&r, &a, 0.10) > 0.0);
        assert_eq!(frac_above_with_floor(&r, &a, 0.10, 2e-3), 0.0);
    }

    #[test]
    fn threshold_dense_keeps_largest() {
        let g = Mat::from_rows(&[&[5.0, -1.0], &[2.0, 0.5]]);
        let t = threshold_dense(&g, 2);
        assert_eq!(t[(0, 0)], 5.0);
        assert_eq!(t[(1, 0)], 2.0);
        assert_eq!(t[(0, 1)], 0.0);
        assert_eq!(t[(1, 1)], 0.0);
    }

    #[test]
    fn rel_fro_zero_for_exact() {
        let g = Mat::identity(4);
        assert_eq!(rel_fro_error(&g, &g), 0.0);
    }
}
