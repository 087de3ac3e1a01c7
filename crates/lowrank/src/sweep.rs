//! Phase 2 — fine-to-coarse sweep producing the wavelet-like `Q Gw Q'`
//! representation (thesis §4.4).
//!
//! Starting from the finest level (`U_s = V_s`, `T_s = W_s`), each coarser
//! square recombines its children's slow-decaying `U` vectors: the SVD of
//! the interactive-region response `G_{I_p,p} X_p` (eq. 4.27) splits the
//! recombined space into a few new slow-decaying vectors `U_p` and many
//! fast-decaying vectors `T_p` whose faraway current response is
//! negligible. The zero-padded `T` columns of every square plus the
//! coarsest-level `U` columns form the orthogonal `Q`; `Gw` keeps only
//! local `T`–`T` interactions (with the same conservative cross-level
//! "local" rule as the wavelet method) and the dense coarsest-`U` rows and
//! columns. No black-box solves are needed — everything is computed from
//! the phase-1 row-basis representation.

use std::ops::Range;

use subsparse_hier::{BasisRep, GwAssembler, GwSink, Quadtree, Square};
use subsparse_linalg::qr::orthonormal_completion;
use subsparse_linalg::svd::svd;
use subsparse_linalg::{trace, Csr, Mat, Triplets};

use crate::rowbasis::RowBasisRep;
use crate::{MAX_RANK, RANK_TOL};

/// Per-square data of the sweep.
#[derive(Clone, Debug)]
struct SweepSquare {
    /// Slow-decaying basis `U_s` (`n_s x u_s`, square coordinates).
    u: Mat,
    /// Fast-decaying basis `T_s` (`n_s x t_s`).
    t: Mat,
    /// Local responses to `[T_s | U_s]` columns over the `L_s` region
    /// (`|L_s| x (t_s + u_s)`).
    resp: Mat,
    /// Sorted contact indices of the `L_s` region.
    l_contacts: Vec<u32>,
    /// Global `Q` column of the first `T` column (usize::MAX if none).
    t_col_start: usize,
    /// Global `Q` column of the first `U` column (coarsest level only).
    u_col_start: usize,
}

impl SweepSquare {
    fn empty() -> Self {
        SweepSquare {
            u: Mat::zeros(0, 0),
            t: Mat::zeros(0, 0),
            resp: Mat::zeros(0, 0),
            l_contacts: Vec::new(),
            t_col_start: usize::MAX,
            u_col_start: usize::MAX,
        }
    }
}

/// The coarsest level of the sweep (level 2 — the first level with a
/// nonempty interactive region).
const ROOT_LEVEL: usize = 2;

/// Converts a phase-1 row-basis representation into the sparse
/// `G ~ Q Gw Q'` form by the fine-to-coarse sweep.
///
/// Pattern, fill, finish: once the sweep has fixed every square's `Q`
/// columns, the kept pattern of `Gw` is built from the quadtree,
/// [`Sweep::fill`] writes each entry estimate into its slot, and
/// [`GwAssembler::finish`] symmetrizes it in place.
pub fn to_basis_rep(rb: &RowBasisRep) -> BasisRep {
    let _s = trace::span("extract.lowrank.sweep");
    let sweep = Sweep::new(rb);
    let mut gw = GwAssembler::new(rb.tree(), sweep.root_u, |s| sweep.t_cols(s));
    sweep.fill(rb, &mut gw);
    // the per-square blocks go before `finish` and the transpose of `Q`
    let Sweep { q, squares, .. } = sweep;
    drop(squares);
    BasisRep::new(q, gw.finish())
}

/// The sweep's per-square `U`/`T` bases and the orthogonal `Q` they form:
/// everything [`to_basis_rep`] needs before it fills `Gw`.
#[derive(Debug)]
pub struct Sweep {
    /// `[level][flat square]`
    squares: Vec<Vec<SweepSquare>>,
    /// Number of coarsest-level `U` columns (they occupy `0..root_u`).
    root_u: usize,
    q: Csr,
}

impl Sweep {
    /// Runs the fine-to-coarse sweep over a phase-1 row basis and
    /// assembles `Q`, truncating each `U` block by the phase-1 rule
    /// ([`RANK_TOL`], at most [`MAX_RANK`]).
    pub fn new(rb: &RowBasisRep) -> Self {
        let tree = rb.tree();
        let n = rb.n();
        let finest = tree.finest();
        let mut sweep: Vec<Vec<SweepSquare>> =
            (0..=finest).map(|l| vec![SweepSquare::empty(); tree.side(l) * tree.side(l)]).collect();

        // ---- finest level: U = V, T = W, responses from the explicit blocks
        for s in tree.squares(finest) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let sd = &rb.squares[finest][s.flat()];
            let fl = &rb.finest_local[s.flat()];
            let u = sd.v.clone();
            let t = fl.w.clone();
            let tu = t.hcat(&u);
            let resp = fl.g_local.matmul(&tu);
            sweep[finest][s.flat()] = SweepSquare {
                u,
                t,
                resp,
                l_contacts: fl.l_contacts.clone(),
                t_col_start: usize::MAX,
                u_col_start: usize::MAX,
            };
        }

        // ---- coarser levels
        for lev in (ROOT_LEVEL..finest).rev() {
            for p in tree.squares(lev) {
                let pcs = tree.contacts_in_square(p);
                if pcs.is_empty() {
                    continue;
                }
                let x = child_u_block(tree, &sweep[lev + 1], p);
                if x.n_cols() == 0 {
                    continue;
                }
                // A = G_{I_p,p} X  via the level-`lev` row-basis interaction
                let i_contacts = tree.region_contacts(&tree.interactive(p));
                let (u_coef, t_coef) = if i_contacts.is_empty() {
                    // nothing to judge against: conservatively pass everything up
                    (Mat::identity(x.n_cols()), Mat::zeros(x.n_cols(), 0))
                } else {
                    let mut a = Mat::zeros(i_contacts.len(), x.n_cols());
                    for j in 0..x.n_cols() {
                        let col = interactive_response(rb, p, x.col(j), &i_contacts);
                        a.col_mut(j).copy_from_slice(&col);
                    }
                    let f = svd(&a);
                    let r = f.rank(RANK_TOL, Some(MAX_RANK));
                    let u_coef = f.v.col_block(0, r);
                    let t_coef = orthonormal_completion(&u_coef);
                    (u_coef, t_coef)
                };
                let u = x.matmul(&u_coef);
                let t = x.matmul(&t_coef);
                // local responses to [T | U] from the children's data
                let l_contacts = tree.region_contacts(&tree.local(p));
                let tu = t.hcat(&u);
                let mut resp = Mat::zeros(l_contacts.len(), tu.n_cols());
                for j in 0..tu.n_cols() {
                    let col = parent_local_response(rb, &sweep[lev + 1], p, tu.col(j), &l_contacts);
                    resp.col_mut(j).copy_from_slice(&col);
                }
                sweep[lev][p.flat()] = SweepSquare {
                    u,
                    t,
                    resp,
                    l_contacts,
                    t_col_start: usize::MAX,
                    u_col_start: usize::MAX,
                };
            }
        }

        // ---- assign global Q columns: root U first, then T level by level in
        // quadrant-hierarchical order (matches the wavelet spy-plot ordering)
        let mut next_col = 0;
        for s in tree.squares_morton(ROOT_LEVEL) {
            let sq = &mut sweep[ROOT_LEVEL][s.flat()];
            if sq.u.n_cols() > 0 {
                sq.u_col_start = next_col;
                next_col += sq.u.n_cols();
            }
        }
        let root_u = next_col;
        for l in ROOT_LEVEL..=finest {
            for s in tree.squares_morton(l) {
                let sq = &mut sweep[l][s.flat()];
                if sq.t.n_cols() > 0 {
                    sq.t_col_start = next_col;
                    next_col += sq.t.n_cols();
                }
            }
        }
        assert_eq!(next_col, n, "sweep basis must have exactly n columns");

        // ---- assemble Q
        let mut trip = Triplets::new(n, n);
        for l in ROOT_LEVEL..=finest {
            for s in tree.squares(l) {
                let sq = &sweep[l][s.flat()];
                let cs = tree.contacts_in_square(s);
                if l == ROOT_LEVEL && sq.u.n_cols() > 0 {
                    for j in 0..sq.u.n_cols() {
                        for (r, &ci) in cs.iter().enumerate() {
                            trip.push(ci as usize, sq.u_col_start + j, sq.u[(r, j)]);
                        }
                    }
                }
                for j in 0..sq.t.n_cols() {
                    for (r, &ci) in cs.iter().enumerate() {
                        trip.push(ci as usize, sq.t_col_start + j, sq.t[(r, j)]);
                    }
                }
            }
        }
        let q = trip.to_csr();
        Sweep { squares: sweep, root_u, q }
    }

    /// The contiguous `Q` columns of a square's `T` vectors (empty when it
    /// has none).
    fn t_cols(&self, s: Square) -> Range<usize> {
        let sq = &self.squares[s.level as usize][s.flat()];
        match sq.t.n_cols() {
            0 => 0..0,
            t => sq.t_col_start..sq.t_col_start + t,
        }
    }

    /// Records every estimate of a `Gw` entry in `sink`, in sweep order:
    /// the local `T`–`T` tiles between each square and its
    /// [`local_descendants`](Quadtree::local_descendants), in the source
    /// column's row (one [`GwSink::add_tile`] per source `T` column and
    /// destination square), then the dense columns of the coarsest `U`
    /// vectors ([`GwSink::add`]). Each directed entry gets at most one
    /// estimate; the sink supplies the mirrors. `rb` must be the row
    /// basis the sweep was built from.
    pub fn fill<K: GwSink + ?Sized>(&self, rb: &RowBasisRep, sink: &mut K) {
        let tree = rb.tree();
        let n = rb.n();
        let finest = tree.finest();
        let sweep = &self.squares;
        let q = &self.q;
        // local T-T interactions, same and finer destination levels: one
        // tile per source column and destination square
        let mut tile = Vec::new();
        for l in ROOT_LEVEL..=finest {
            for s in tree.squares(l) {
                let sq = &sweep[l][s.flat()];
                let ts = sq.t.n_cols();
                if ts == 0 {
                    continue;
                }
                for d in tree.local_descendants(s) {
                    let dsq = &sweep[d.level as usize][d.flat()];
                    let td = dsq.t.n_cols();
                    if td == 0 {
                        continue;
                    }
                    let dcs = tree.contacts_in_square(d);
                    // rows of s's resp at d's contacts
                    let rows: Vec<usize> = dcs
                        .iter()
                        .map(|&ci| {
                            sq.l_contacts
                                .binary_search(&ci)
                                .expect("descendant contacts lie in L_s region")
                        })
                        .collect();
                    for mj in 0..ts {
                        tile.clear();
                        tile.extend((0..td).map(|mi| {
                            let mut v = 0.0;
                            for (r, &row) in rows.iter().enumerate() {
                                v += dsq.t[(r, mi)] * sq.resp[(row, mj)];
                            }
                            v
                        }));
                        sink.add_tile(sq.t_col_start + mj, self.t_cols(d), &tile);
                    }
                }
            }
        }
        // coarsest-level U columns interact with everything
        for s in tree.squares(ROOT_LEVEL) {
            let sq = &sweep[ROOT_LEVEL][s.flat()];
            if sq.u.n_cols() == 0 {
                continue;
            }
            for j in 0..sq.u.n_cols() {
                // full response: local part from resp, interactive part from
                // the row-basis interaction (the regions are disjoint)
                let mut y = vec![0.0; n];
                let resp_col = sq.resp.col(sq.t.n_cols() + j);
                for (k, &ci) in sq.l_contacts.iter().enumerate() {
                    y[ci as usize] += resp_col[k];
                }
                rb.interactive_response(s, sq.u.col(j), |ci, v| y[ci as usize] += v);
                let gw_col = q.matvec_t(&y);
                let src_col = sq.u_col_start + j;
                for (i, &v) in gw_col.iter().enumerate() {
                    if v != 0.0 {
                        sink.add(i, src_col, v);
                    }
                }
            }
        }
    }
}

/// Stacks the children's `U` vectors into the parent's contact coordinates.
fn child_u_block(tree: &Quadtree, child_sweep: &[SweepSquare], p: Square) -> Mat {
    let pcs = tree.contacts_in_square(p);
    let total: usize = p.children().iter().map(|c| child_sweep[c.flat()].u.n_cols()).sum();
    let mut x = Mat::zeros(pcs.len(), total);
    let mut col = 0;
    for c in p.children() {
        let cu = &child_sweep[c.flat()].u;
        if cu.n_cols() == 0 {
            continue;
        }
        let ccs = tree.contacts_in_square(c);
        let rows: Vec<usize> = ccs
            .iter()
            .map(|&ci| pcs.binary_search(&ci).expect("child contact in parent"))
            .collect();
        for j in 0..cu.n_cols() {
            let src = cu.col(j);
            let dst = x.col_mut(col + j);
            for (r, &pr) in rows.iter().enumerate() {
                dst[pr] = src[r];
            }
        }
        col += cu.n_cols();
    }
    x
}

/// Response of a voltage vector in square `s` (in `s`'s contact
/// coordinates) at the contacts of `I_s`, by eq. (4.16)
/// ([`RowBasisRep::interactive_response`]), indexed by `i_contacts` (the
/// sorted contacts of the interactive region).
fn interactive_response(rb: &RowBasisRep, s: Square, x: &[f64], i_contacts: &[u32]) -> Vec<f64> {
    let mut out = vec![0.0; i_contacts.len()];
    rb.interactive_response(s, x, |ci, v| {
        out[i_contacts.binary_search(&ci).expect("d contacts inside I_s region")] += v;
    });
    out
}

/// Response of a parent-square voltage vector (a combination of child `U`
/// vectors) at the contacts of the parent's local region `L_p`, assembled
/// from the children's local-response data plus their interactive
/// row-basis responses.
fn parent_local_response(
    rb: &RowBasisRep,
    child_sweep: &[SweepSquare],
    p: Square,
    x: &[f64],
    l_contacts: &[u32],
) -> Vec<f64> {
    let tree = rb.tree();
    let pcs = tree.contacts_in_square(p);
    let mut out = vec![0.0; l_contacts.len()];
    for c in p.children() {
        let csweep = &child_sweep[c.flat()];
        let ccs = tree.contacts_in_square(c);
        if ccs.is_empty() {
            continue;
        }
        // restrict x to the child
        let xi: Vec<f64> = ccs
            .iter()
            .map(|&ci| {
                let k = pcs.binary_search(&ci).expect("child contact in parent");
                x[k]
            })
            .collect();
        if xi.iter().all(|&v| v == 0.0) {
            continue;
        }
        // x_i lies in span(U_c) by construction: expand in that basis
        let ci_coef = csweep.u.matvec_t(&xi);
        // local part from the child's stored responses (U columns are
        // after the T columns in `resp`)
        if csweep.u.n_cols() > 0 {
            let t_off = csweep.t.n_cols();
            for (k, &cc) in csweep.l_contacts.iter().enumerate() {
                if let Ok(idx) = l_contacts.binary_search(&cc) {
                    let mut v = 0.0;
                    for (j, &cj) in ci_coef.iter().enumerate() {
                        v += csweep.resp[(k, t_off + j)] * cj;
                    }
                    out[idx] += v;
                }
            }
        }
        // interactive part via the child's row basis
        let i_contacts = tree.region_contacts(&tree.interactive(c));
        let inter = interactive_response(rb, c, &xi, &i_contacts);
        for (k, &cc) in i_contacts.iter().enumerate() {
            if let Ok(idx) = l_contacts.binary_search(&cc) {
                out[idx] += inter[k];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowbasis::build_row_basis;
    use crate::LowRankOptions;
    use subsparse_layout::generators;
    use subsparse_substrate::solver;

    fn check_orthogonal(q: &subsparse_linalg::Csr, tol: f64) {
        let qd = q.to_dense();
        let qtq = qd.matmul_tn(&qd);
        for i in 0..qtq.n_rows() {
            for j in 0..qtq.n_cols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (qtq[(i, j)] - expect).abs() < tol,
                    "Q'Q differs from I at ({i},{j}): {}",
                    qtq[(i, j)]
                );
            }
        }
    }

    #[test]
    fn q_is_orthogonal_and_complete() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let rb = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let rep = to_basis_rep(&rb);
        assert_eq!(rep.q.n_cols(), layout.n_contacts());
        check_orthogonal(&rep.q, 1e-8);
    }

    #[test]
    fn representation_is_accurate() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let rb = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let rep = to_basis_rep(&rb);
        let approx = rep.to_dense();
        let mut d = approx.clone();
        d.add_scaled(-1.0, &g);
        let err = d.fro_norm() / g.fro_norm();
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn handles_alternating_sizes() {
        // the case the wavelet method struggles with (thesis Ch. 4 intro)
        let layout = generators::alternating_grid(128.0, 8, 3.0, 1.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let rb = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let rep = to_basis_rep(&rb);
        check_orthogonal(&rep.q, 1e-8);
        let approx = rep.to_dense();
        let mut d = approx.clone();
        d.add_scaled(-1.0, &g);
        let err = d.fro_norm() / g.fro_norm();
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn gw_is_sparse_and_symmetric() {
        // the dense coarsest-level U rows are a fixed cost (~96 columns),
        // so the sparsity factor only beats 2 for reasonably large n
        let layout = generators::regular_grid(128.0, 32, 2.0); // 1024 contacts
        let s = solver::synthetic(&layout);
        let rb = build_row_basis(&s, &layout, 5, &LowRankOptions::default()).unwrap();
        let rep = to_basis_rep(&rb);
        assert!(rep.sparsity_factor() > 2.0, "sparsity {}", rep.sparsity_factor());
        let d = rep.gw.to_dense();
        for i in 0..d.n_rows() {
            for j in (i + 1)..d.n_cols() {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-12);
            }
        }
    }
}
