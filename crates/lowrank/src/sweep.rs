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
//!
//! The sweep's blocks are the wavelet basis's two kinds: `[U | T]` in
//! contact coordinates at the finest level, an orthogonal `[u_coef |
//! t_coef]` over the children's `U` coefficients above it. So
//! [`TreeBasisBuilder`] numbers the columns and builds `Q` and its fast
//! transform, and the model serves through the transform as wavelet
//! models do.

use subsparse_hier::{BasisCols, BasisRep, GwAssembler, GwSink, Square, TreeBasisBuilder};
use subsparse_linalg::qr::orthonormal_completion;
use subsparse_linalg::svd::svd;
use subsparse_linalg::{dot, trace, Csr, Mat};

use crate::rowbasis::RowBasisRep;
use crate::{MAX_RANK, RANK_TOL};

/// Per-square responses of the sweep.
#[derive(Clone, Debug, Default)]
struct SweepSquare {
    /// Local responses to the square's `[U | T]` columns over the `L_s`
    /// region (`|L_s| x (u_s + t_s)`).
    resp: Mat,
    /// Sorted contact indices of the `L_s` region.
    l_contacts: Vec<u32>,
}

/// The coarsest level of the sweep (level 2 — the first level with a
/// nonempty interactive region).
const ROOT_LEVEL: usize = 2;

/// Converts a phase-1 row-basis representation into the sparse
/// `G ~ Q Gw Q'` form by the fine-to-coarse sweep, served through the
/// basis's fast transform.
///
/// Pattern, fill, finish: once the sweep has fixed every square's `Q`
/// columns, the kept pattern of `Gw` is built from the quadtree,
/// [`Sweep::fill`] writes each entry estimate into its slot, and
/// [`GwAssembler::finish`] symmetrizes it in place.
pub fn to_basis_rep(rb: &RowBasisRep) -> BasisRep {
    let _s = trace::span("extract.lowrank.sweep");
    let sweep = Sweep::new(rb);
    let cols = &sweep.cols;
    let mut gw = GwAssembler::new(rb.tree(), cols.root_v(), |s| cols.detail(s));
    sweep.fill(rb, &mut gw);
    // the responses go first, so the heap never holds them beside the
    // transform; the transform takes the blocks over before `finish`
    let Sweep { blocks, squares, cols, q } = sweep;
    drop(squares);
    let fwt = blocks.into_transform(&cols);
    BasisRep::with_fwt(q, gw.finish(), fwt)
}

/// The sweep's per-square `U`/`T` bases, their responses, and the
/// orthogonal `Q` they form: everything [`to_basis_rep`] needs to fill
/// `Gw`.
#[derive(Debug)]
pub struct Sweep<'a> {
    /// Each square's `[U | T]` block.
    blocks: TreeBasisBuilder<'a>,
    /// `[level][flat square]`
    squares: Vec<Vec<SweepSquare>>,
    cols: BasisCols,
    q: Csr,
}

impl<'a> Sweep<'a> {
    /// Runs the fine-to-coarse sweep over a phase-1 row basis and
    /// writes `Q`, truncating each `U` block by the phase-1 rule
    /// ([`RANK_TOL`], at most [`MAX_RANK`]).
    pub fn new(rb: &'a RowBasisRep) -> Self {
        let tree = rb.tree();
        let finest = tree.finest();
        let mut blocks = TreeBasisBuilder::new(tree, ROOT_LEVEL);
        let mut sweep: Vec<Vec<SweepSquare>> = (0..=finest)
            .map(|l| vec![SweepSquare::default(); tree.side(l) * tree.side(l)])
            .collect();

        // ---- finest level: U = V, T = W, responses from the explicit blocks
        for s in tree.squares(finest) {
            if tree.contacts_in_square(s).is_empty() {
                continue;
            }
            let sd = &rb.squares[finest][s.flat()];
            let fl = &rb.finest_local[s.flat()];
            blocks.set_finest(s, sd.v.hcat(&fl.w), sd.v.n_cols());
            let resp = fl.g_local.matmul(blocks.block(s).0);
            sweep[finest][s.flat()] = SweepSquare { resp, l_contacts: fl.l_contacts.clone() };
        }

        // ---- coarser levels
        for lev in (ROOT_LEVEL..finest).rev() {
            for p in tree.squares(lev) {
                if tree.contacts_in_square(p).is_empty() {
                    continue;
                }
                let x = blocks.child_scaling(p);
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
                blocks.set_coarse(p, &x, u_coef.hcat(&t_coef), u_coef.n_cols());
                // local responses to [U | T] from the children's data
                let l_contacts = tree.region_contacts(&tree.local(p));
                let ut = blocks.block(p).0;
                let mut resp = Mat::zeros(l_contacts.len(), ut.n_cols());
                for j in 0..ut.n_cols() {
                    let col = parent_local_response(
                        rb,
                        &blocks,
                        &sweep[lev + 1],
                        p,
                        ut.col(j),
                        &l_contacts,
                    );
                    resp.col_mut(j).copy_from_slice(&col);
                }
                sweep[lev][p.flat()] = SweepSquare { resp, l_contacts };
            }
        }

        let (cols, q) = blocks.columns_and_q();
        Sweep { blocks, squares: sweep, cols, q }
    }

    /// Records every estimate of a `Gw` entry in `sink`, in sweep order:
    /// the local `T`–`T` tiles between each square and its
    /// [`local_descendants`](subsparse_hier::Quadtree::local_descendants),
    /// in the source column's row (one [`GwSink::add_tile`] per source `T`
    /// column and destination square), then the dense columns of the
    /// coarsest `U` vectors ([`GwSink::add`]). Each directed entry gets at
    /// most one estimate; the sink supplies the mirrors. `rb` must be the
    /// row basis the sweep was built from.
    pub fn fill<K: GwSink + ?Sized>(&self, rb: &RowBasisRep, sink: &mut K) {
        let tree = rb.tree();
        let n = rb.n();
        let finest = tree.finest();
        let cols = &self.cols;
        // local T-T interactions, same and finer destination levels: one
        // tile per source column and destination square
        let mut tile = Vec::new();
        for l in ROOT_LEVEL..=finest {
            for s in tree.squares(l) {
                let (sq, (_, us)) = (&self.squares[l][s.flat()], self.blocks.block(s));
                let src = cols.detail(s);
                if src.is_empty() {
                    continue;
                }
                for d in tree.local_descendants(s) {
                    let (dut, ud) = self.blocks.block(d);
                    let dst = cols.detail(d);
                    if dst.is_empty() {
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
                    for mj in 0..src.len() {
                        tile.clear();
                        tile.extend((0..dst.len()).map(|mi| {
                            let mut v = 0.0;
                            for (r, &row) in rows.iter().enumerate() {
                                v += dut[(r, ud + mi)] * sq.resp[(row, us + mj)];
                            }
                            v
                        }));
                        sink.add_tile(src.start + mj, dst.clone(), &tile);
                    }
                }
            }
        }
        // coarsest-level U columns interact with everything
        for s in tree.squares(ROOT_LEVEL) {
            let (sq, (ut, _)) = (&self.squares[ROOT_LEVEL][s.flat()], self.blocks.block(s));
            for (j, src_col) in cols.scaling(s).enumerate() {
                // full response: local part from resp, interactive part from
                // the row-basis interaction (the regions are disjoint)
                let mut y = vec![0.0; n];
                for (k, &ci) in sq.l_contacts.iter().enumerate() {
                    y[ci as usize] += sq.resp[(k, j)];
                }
                rb.interactive_response(s, ut.col(j), |ci, v| y[ci as usize] += v);
                let gw_col = self.q.matvec_t(&y);
                for (i, &v) in gw_col.iter().enumerate() {
                    if v != 0.0 {
                        sink.add(i, src_col, v);
                    }
                }
            }
        }
    }
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
    blocks: &TreeBasisBuilder,
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
        let (cut, cu) = blocks.block(c);
        let ci_coef: Vec<f64> = (0..cu).map(|j| dot(cut.col(j), &xi)).collect();
        // local part from the child's stored responses (the U columns
        // lead `resp`)
        if cu > 0 {
            for (k, &cc) in csweep.l_contacts.iter().enumerate() {
                if let Ok(idx) = l_contacts.binary_search(&cc) {
                    let mut v = 0.0;
                    for (j, &cj) in ci_coef.iter().enumerate() {
                        v += csweep.resp[(k, j)] * cj;
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
    use subsparse_linalg::Csr;
    use subsparse_substrate::solver;

    fn check_orthogonal(q: &Csr, tol: f64) {
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
