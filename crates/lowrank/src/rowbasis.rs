//! Phase 1 — coarse-to-fine construction of the multilevel row-basis
//! representation (thesis §4.3).
//!
//! Per square `s` on every level from 2 to the finest, the representation
//! holds a low-rank *row basis* `V_s` (orthonormal columns over the
//! contacts of `s`) and the responses `(G_{P_s,s} V_s)` over the region
//! `P_s` of local-plus-interactive squares. On the finest level it
//! additionally holds explicit local interaction blocks
//! `G^{(f)}_{L_s,s}` (eq. 4.26). Together these suffice to apply `G`
//! approximately in `O(n log n)` operations (eq. 4.16, §4.3.2).
//!
//! Construction costs `O(log n)` black-box solves: the coarsest level is
//! solved directly (a constant number of squares); finer levels reuse the
//! parent-level row bases via the *splitting* identity (eq. 4.22), sending
//! only the parent-orthogonal remainders to the solver, grouped with the
//! combine-solves technique of §3.5 and refined at each local destination
//! with eq. (4.24).

use subsparse_linalg::rng::SmallRng;

use subsparse_hier::{HierError, Quadtree, Square};
use subsparse_layout::Layout;
use subsparse_linalg::qr::orthonormal_completion;
use subsparse_linalg::svd::svd;
use subsparse_linalg::{trace, Mat};
use subsparse_substrate::{solver as subsolver, SubstrateSolver};

use crate::{LowRankOptions, MAX_RANK, RANK_TOL};

/// Per-square data of the row-basis representation.
#[derive(Clone, Debug)]
pub(crate) struct SquareData {
    /// Row basis `V_s`: `n_s x r_s`, orthonormal columns, in the square's
    /// contact coordinates.
    pub v: Mat,
    /// Sorted contact indices of the region `P_s` (local + interactive).
    pub p_contacts: Vec<u32>,
    /// Approximate responses `(G_{P_s,s} V_s)^{(r)}`: `|P_s| x r_s`.
    pub resp_v: Mat,
}

impl SquareData {
    fn empty() -> Self {
        SquareData { v: Mat::zeros(0, 0), p_contacts: Vec::new(), resp_v: Mat::zeros(0, 0) }
    }
}

/// Finest-level extras: the explicit local interaction blocks.
#[derive(Clone, Debug)]
pub(crate) struct FinestLocal {
    /// Orthonormal complement `W_s` of `V_s` (`n_s x (n_s - r_s)`).
    pub w: Mat,
    /// Sorted contact indices of the local region `L_s`.
    pub l_contacts: Vec<u32>,
    /// `G^{(f)}_{L_s,s}`: `|L_s| x n_s` (eq. 4.26).
    pub g_local: Mat,
}

impl FinestLocal {
    fn empty() -> Self {
        FinestLocal { w: Mat::zeros(0, 0), l_contacts: Vec::new(), g_local: Mat::zeros(0, 0) }
    }
}

/// The multilevel row-basis representation of the conductance operator
/// (phase 1 output).
///
/// # Example
///
/// ```
/// use subsparse_layout::generators;
/// use subsparse_lowrank::{build_row_basis, LowRankOptions};
/// use subsparse_substrate::solver;
///
/// let layout = generators::regular_grid(128.0, 8, 2.0);
/// let s = solver::synthetic(&layout);
/// let rep = build_row_basis(&s, &layout, 3, &LowRankOptions::default())?;
/// let i = rep.apply(&vec![1.0; layout.n_contacts()]);
/// assert_eq!(i.len(), layout.n_contacts());
/// # Ok::<(), subsparse_hier::HierError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RowBasisRep {
    pub(crate) tree: Quadtree,
    n: usize,
    /// `[level][flat]`, levels `0..=finest` (levels 0 and 1 stay empty).
    pub(crate) squares: Vec<Vec<SquareData>>,
    /// `[flat at finest]`.
    pub(crate) finest_local: Vec<FinestLocal>,
}

impl RowBasisRep {
    /// Number of contacts.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The quadtree the representation is built on.
    pub fn tree(&self) -> &Quadtree {
        &self.tree
    }

    /// Rank of the row basis of a square (0 for empty squares).
    pub fn rank(&self, s: Square) -> usize {
        self.squares[s.level as usize][s.flat()].v.n_cols()
    }

    /// Applies the represented operator, `i = G v`, by the multilevel
    /// traversal of §4.3.2 with the symmetry refinement of eq. (4.16).
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the contact count.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n, "apply dimension mismatch");
        let tree = &self.tree;
        let finest = tree.finest();
        let mut i = vec![0.0; self.n];
        for lev in 2..=finest {
            for s in tree.squares(lev) {
                let cs = tree.contacts_in_square(s);
                if cs.is_empty() {
                    continue;
                }
                let sd = &self.squares[lev][s.flat()];
                let vs: Vec<f64> = cs.iter().map(|&ci| v[ci as usize]).collect();
                if vs.iter().all(|&x| x == 0.0) {
                    continue;
                }
                // coeff = V_s' v_s ; resid = v_s - V_s coeff
                let coeff = sd.v.matvec_t(&vs);
                let mut resid = vs.clone();
                let smooth = sd.v.matvec(&coeff);
                for (r, sm) in resid.iter_mut().zip(&smooth) {
                    *r -= sm;
                }
                // term 1: (G_{P_s,s} V_s)^{(r)} coeff, restricted to I_s
                if sd.v.n_cols() > 0 {
                    let t1 = sd.resp_v.matvec(&coeff);
                    for d in tree.interactive(s) {
                        for &ci in tree.contacts_in_square(d) {
                            let k = sd
                                .p_contacts
                                .binary_search(&ci)
                                .expect("interactive contact must be in P_s");
                            i[ci as usize] += t1[k];
                        }
                    }
                }
                // term 2: V_d (G_{s,d} V_d)^{(r)}' resid, for d in I_s
                for d in tree.interactive(s) {
                    let dd = &self.squares[lev][d.flat()];
                    if dd.v.n_cols() == 0 {
                        continue;
                    }
                    let dcs = tree.contacts_in_square(d);
                    if dcs.is_empty() {
                        continue;
                    }
                    // rows of resp_v(d) belonging to s's contacts
                    let mut alpha = vec![0.0; dd.v.n_cols()];
                    for (r, &ci) in cs.iter().enumerate() {
                        let k = dd
                            .p_contacts
                            .binary_search(&ci)
                            .expect("source contact must be in P_d");
                        for (j, a) in alpha.iter_mut().enumerate() {
                            *a += dd.resp_v[(k, j)] * resid[r];
                        }
                    }
                    let contrib = dd.v.matvec(&alpha);
                    for (r, &ci) in dcs.iter().enumerate() {
                        i[ci as usize] += contrib[r];
                    }
                }
            }
        }
        // finest-level local blocks
        for s in tree.squares(finest) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let fl = &self.finest_local[s.flat()];
            let vs: Vec<f64> = cs.iter().map(|&ci| v[ci as usize]).collect();
            if vs.iter().all(|&x| x == 0.0) {
                continue;
            }
            let y = fl.g_local.matvec(&vs);
            for (k, &ci) in fl.l_contacts.iter().enumerate() {
                i[ci as usize] += y[k];
            }
        }
        i
    }

    /// Materializes the represented operator as a dense matrix (test and
    /// metric use; `n` applies).
    pub fn to_dense(&self) -> Mat {
        let mut g = Mat::zeros(self.n, self.n);
        let mut e = vec![0.0; self.n];
        for j in 0..self.n {
            e[j] = 1.0;
            g.col_mut(j).copy_from_slice(&self.apply(&e));
            e[j] = 0.0;
        }
        g
    }
}

/// Restricts a full-length contact vector to a sorted contact list.
fn restrict(full: &[f64], contacts: &[u32]) -> Vec<f64> {
    contacts.iter().map(|&ci| full[ci as usize]).collect()
}

/// Zero-pads square-coordinate values into a full-length vector.
fn scatter(values: &[f64], contacts: &[u32], out: &mut [f64]) {
    for (v, &ci) in values.iter().zip(contacts) {
        out[ci as usize] += v;
    }
}

/// Builds the multilevel row-basis representation with `O(log n)` solves.
///
/// # Errors
///
/// Returns an error for an empty layout or contacts crossing finest-square
/// boundaries.
///
/// # Panics
///
/// Panics if `levels < 2` (the interactive region is empty above level 2).
pub fn build_row_basis<S: SubstrateSolver + ?Sized>(
    solver: &S,
    layout: &Layout,
    levels: usize,
    options: &LowRankOptions,
) -> Result<RowBasisRep, HierError> {
    assert!(levels >= 2, "the low-rank method needs at least 2 levels");
    let tree = Quadtree::new(layout, levels)?;
    let n = layout.n_contacts();
    assert_eq!(solver.n_contacts(), n, "solver/layout contact count mismatch");
    let finest = tree.finest();
    let mut rng = SmallRng::seed_from_u64(options.seed);

    let mut squares: Vec<Vec<SquareData>> =
        (0..=finest).map(|l| vec![SquareData::empty(); tree.side(l) * tree.side(l)]).collect();

    // ================= coarsest level (2): direct solves =================
    {
        let _s = trace::span("extract.lowrank.coarsest-probe");
        let lev = 2;
        // one random sample vector per nonempty square, all solved as one
        // RHS block (drawing order is unchanged, so seeds reproduce)
        let mut sample_resp: Vec<Option<Vec<f64>>> = vec![None; 16];
        let mut rhs: Vec<Vec<f64>> = Vec::new();
        let mut rhs_owner: Vec<usize> = Vec::new();
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let m = random_unit(&mut rng, cs.len());
            let mut padded = vec![0.0; n];
            scatter(&m, cs, &mut padded);
            rhs.push(padded);
            rhs_owner.push(s.flat());
        }
        let responses = subsolver::solve_each_batched(solver, &rhs);
        for (&flat, y) in rhs_owner.iter().zip(responses) {
            sample_resp[flat] = Some(y);
        }
        // row bases from the sampled interactions
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let mut cols: Vec<Vec<f64>> = Vec::new();
            for t in tree.interactive(s) {
                if let Some(resp) = &sample_resp[t.flat()] {
                    cols.push(restrict(resp, cs));
                }
            }
            let v = row_basis_from_samples(&cols, cs.len());
            squares[lev][s.flat()].v = v;
        }
        // responses to the row bases: direct solves, batched across every
        // (square, basis-column) pair
        let mut rhs: Vec<Vec<f64>> = Vec::new();
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let v = &squares[lev][s.flat()].v;
            for j in 0..v.n_cols() {
                let mut padded = vec![0.0; n];
                scatter(v.col(j), cs, &mut padded);
                rhs.push(padded);
            }
        }
        let mut responses = subsolver::solve_each_batched(solver, &rhs).into_iter();
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let p_contacts = tree.region_contacts(&tree.local_and_interactive(s));
            let r = squares[lev][s.flat()].v.n_cols();
            let mut resp_v = Mat::zeros(p_contacts.len(), r);
            for j in 0..r {
                let y = responses.next().expect("one response per basis column");
                resp_v.col_mut(j).copy_from_slice(&restrict(&y, &p_contacts));
            }
            let sd = &mut squares[lev][s.flat()];
            sd.p_contacts = p_contacts;
            sd.resp_v = resp_v;
        }
    }

    // ================= finer levels: splitting + combine-solves ==========
    for lev in 3..=finest {
        let _s = trace::span_arg("extract.lowrank.split-level", lev as u64);
        // -- one sample vector for every nonempty square
        let side = tree.side(lev);
        let samples: Vec<Option<Vec<f64>>> = tree
            .squares(lev)
            .map(|s| {
                let cs = tree.contacts_in_square(s);
                (!cs.is_empty()).then(|| random_unit(&mut rng, cs.len()))
            })
            .collect();
        // -- approximate responses to the samples over P_s
        let this: Vec<Option<&[f64]>> = samples.iter().map(Option::as_deref).collect();
        let sample_resp = split_responses(solver, &tree, &squares, lev, &this, options);
        // -- row bases from sampled interactions
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let mut cols: Vec<Vec<f64>> = Vec::new();
            for t in tree.interactive(s) {
                let tcs = tree.contacts_in_square(t);
                if tcs.is_empty() {
                    continue;
                }
                // responses of t's samples were stored over P_t; restrict
                // to s's contacts (s is in P_t because t is in I_s)
                let t_p = tree.region_contacts(&tree.local_and_interactive(t));
                if let Some(resp) = &sample_resp[t.flat()] {
                    let col: Vec<f64> = cs
                        .iter()
                        .map(|&ci| {
                            let k = t_p.binary_search(&ci).expect("s must lie in P_t");
                            resp[k]
                        })
                        .collect();
                    cols.push(col);
                }
            }
            squares[lev][s.flat()].v = row_basis_from_samples(&cols, cs.len());
        }
        // -- responses to the row bases, column index by column index
        let max_r = tree.squares(lev).map(|s| squares[lev][s.flat()].v.n_cols()).max().unwrap_or(0);
        let mut resp_cols: Vec<Vec<Vec<f64>>> = vec![Vec::new(); side * side];
        for j in 0..max_r {
            let this: Vec<Option<Vec<f64>>> = tree
                .squares(lev)
                .map(|s| {
                    let sd = &squares[lev][s.flat()];
                    if j < sd.v.n_cols() {
                        Some(sd.v.col(j).to_vec())
                    } else {
                        None
                    }
                })
                .collect();
            let refs: Vec<Option<&[f64]>> =
                this.iter().map(|o| o.as_ref().map(|v| v.as_slice())).collect();
            let resp = split_responses(solver, &tree, &squares, lev, &refs, options);
            for (s, r) in tree.squares(lev).zip(resp) {
                if let Some(r) = r {
                    resp_cols[s.flat()].push(r);
                }
            }
        }
        for s in tree.squares(lev) {
            let cs = tree.contacts_in_square(s);
            if cs.is_empty() {
                continue;
            }
            let p_contacts = tree.region_contacts(&tree.local_and_interactive(s));
            let sd = &mut squares[lev][s.flat()];
            let mut resp_v = Mat::zeros(p_contacts.len(), sd.v.n_cols());
            for (j, col) in resp_cols[s.flat()].iter().enumerate() {
                resp_v.col_mut(j).copy_from_slice(col);
            }
            sd.p_contacts = p_contacts;
            sd.resp_v = resp_v;
        }
    }

    // ================= finest level local blocks =========================
    let finest_local = {
        let _s = trace::span("extract.lowrank.finest-local");
        build_finest_local(solver, &tree, &squares, options)
    };

    Ok(RowBasisRep { tree, n, squares, finest_local })
}

/// SVD-truncates sampled interaction columns into a row basis
/// ([`RANK_TOL`], at most [`MAX_RANK`]).
fn row_basis_from_samples(cols: &[Vec<f64>], n_s: usize) -> Mat {
    if cols.is_empty() || n_s == 0 {
        return Mat::zeros(n_s, 0);
    }
    let b = Mat::from_cols(cols);
    let f = svd(&b);
    let r = f.rank(RANK_TOL, Some(MAX_RANK));
    f.u.col_block(0, r)
}

/// Draws a random unit vector of the given length.
fn random_unit(rng: &mut SmallRng, len: usize) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-6 {
            return v.iter().map(|x| x / norm).collect();
        }
    }
}

/// Computes approximate responses `(G_{P_s,s} x_s)` for one vector per
/// square of level `lev` (where present), using the parent-level splitting
/// (eq. 4.22) with local refinement (eq. 4.24) and combine-solves grouping.
///
/// `vectors[flat]` holds the square-coordinate vector for each square (or
/// `None`). Returns, per square in row-major order, the response over the
/// `P_s` region contact list (or `None`).
fn split_responses<S: SubstrateSolver + ?Sized>(
    solver: &S,
    tree: &Quadtree,
    squares: &[Vec<SquareData>],
    lev: usize,
    vectors: &[Option<&[f64]>],
    options: &LowRankOptions,
) -> Vec<Option<Vec<f64>>> {
    let n = tree.n_contacts();
    let parent_lev = lev - 1;
    let parent_side = tree.side(parent_lev);
    let spacing = if options.spacing == 0 { 0 } else { options.spacing.min(parent_side) };
    let side = tree.side(lev);
    let mut out: Vec<Option<Vec<f64>>> = vec![None; side * side];

    if spacing == 0 {
        // reference mode: direct exact solves, no splitting — streamed
        // through `solve_batch` in RHS blocks
        let items = tree.squares(lev).filter_map(|s| {
            let x = vectors[s.flat()]?;
            let mut padded = vec![0.0; n];
            scatter(x, tree.contacts_in_square(s), &mut padded);
            Some((s, padded))
        });
        subsolver::for_each_batched(solver, items, |s, y| {
            let p_contacts = tree.region_contacts(&tree.local_and_interactive(s));
            out[s.flat()] = Some(restrict(y, &p_contacts));
        });
        return out;
    }

    // Split each vector through its parent: x (padded to parent coords)
    // = V_p (V_p' x) + o, and store both parts per source square.
    struct Split {
        s: Square,
        parent: Square,
        /// parent-coordinate coefficient of the row-basis part
        coeff: Vec<f64>,
        /// parent-coordinate orthogonal remainder
        o: Vec<f64>,
    }
    let mut splits: Vec<Split> = Vec::new();
    for s in tree.squares(lev) {
        let Some(x) = vectors[s.flat()] else { continue };
        let cs = tree.contacts_in_square(s);
        let p = s.parent().expect("level >= 3 has a parent");
        let pcs = tree.contacts_in_square(p);
        let mut xp = vec![0.0; pcs.len()];
        for (r, &ci) in cs.iter().enumerate() {
            let k = pcs.binary_search(&ci).expect("child contact in parent");
            xp[k] = x[r];
        }
        let pd = &squares[parent_lev][p.flat()];
        let coeff = pd.v.matvec_t(&xp);
        let smooth = pd.v.matvec(&coeff);
        let o: Vec<f64> = xp.iter().zip(&smooth).map(|(a, b)| a - b).collect();
        splits.push(Split { s, parent: p, coeff, o });
    }

    // Group the orthogonal remainders by (parent phase, child position):
    // members' parents are >= `spacing` squares apart, so their responses
    // do not contaminate each other's local neighborhoods. The combined
    // vectors are independent, so they stream through `solve_batch` in
    // RHS blocks (group descriptors first, padded vectors built at most
    // `subsolver::BATCH` at a time).
    let mut theta_groups: Vec<Vec<&Split>> = Vec::new();
    for pi in 0..spacing {
        for pj in 0..spacing {
            for child_pos in 0..4usize {
                let group: Vec<&Split> = splits
                    .iter()
                    .filter(|sp| {
                        sp.parent.ix as usize % spacing == pi
                            && sp.parent.iy as usize % spacing == pj
                            && child_index(sp.s) == child_pos
                    })
                    .collect();
                if !group.is_empty() {
                    theta_groups.push(group);
                }
            }
        }
    }
    let items = theta_groups.iter().map(|group| {
        let mut theta = vec![0.0; n];
        for sp in group {
            scatter(&sp.o, tree.contacts_in_square(sp.parent), &mut theta);
        }
        (group, theta)
    });
    subsolver::for_each_batched(solver, items, |group, y| {
        // per member: refine the raw local responses (eq. 4.24) and
        // add the parent row-basis part (eq. 4.22)
        for sp in group {
            let resp = assemble_split_response(tree, squares, sp.s, sp.parent, &sp.coeff, &sp.o, y);
            out[sp.s.flat()] = Some(resp);
        }
    });
    out
}

/// Index of a square among its parent's children (0..4).
fn child_index(s: Square) -> usize {
    ((s.iy as usize) & 1) << 1 | ((s.ix as usize) & 1)
}

/// Assembles `(G_{P_s,s} x)` for one split vector from
/// (a) the parent row-basis responses applied to the smooth part and
/// (b) the refined combine-solves response to the orthogonal part.
fn assemble_split_response(
    tree: &Quadtree,
    squares: &[Vec<SquareData>],
    s: Square,
    parent: Square,
    coeff: &[f64],
    o: &[f64],
    y: &[f64],
) -> Vec<f64> {
    let parent_lev = parent.level as usize;
    let pd = &squares[parent_lev][parent.flat()];
    let p_contacts_s = tree.region_contacts(&tree.local_and_interactive(s));
    let mut resp = vec![0.0; p_contacts_s.len()];

    // (a) smooth part: resp_v(parent) * coeff over P_p, restricted to P_s
    if !coeff.is_empty() {
        let t1 = pd.resp_v.matvec(coeff);
        for (k, &ci) in p_contacts_s.iter().enumerate() {
            let idx =
                pd.p_contacts.binary_search(&ci).expect("P_s region must be inside P_p region");
            resp[k] += t1[idx];
        }
    }

    // (b) orthogonal part: per local square q of the parent, refine the raw
    // response with eq. (4.24)
    for q in tree.local(parent) {
        let qcs = tree.contacts_in_square(q);
        if qcs.is_empty() {
            continue;
        }
        let qd = &squares[parent_lev][q.flat()];
        let raw = restrict(y, qcs);
        // alpha = ((G_{p,q} V_q)^{(r)})' o  — rows of resp_v(q) at p's contacts
        let pcs = tree.contacts_in_square(parent);
        let mut refined = raw.clone();
        if qd.v.n_cols() > 0 {
            let mut alpha = vec![0.0; qd.v.n_cols()];
            for (r, &ci) in pcs.iter().enumerate() {
                if o[r] == 0.0 {
                    continue;
                }
                let k = qd
                    .p_contacts
                    .binary_search(&ci)
                    .expect("parent contacts must lie in P_q for local q");
                for (j, a) in alpha.iter_mut().enumerate() {
                    *a += qd.resp_v[(k, j)] * o[r];
                }
            }
            // refined = V_q alpha + (I - V_q V_q') raw
            let beta = qd.v.matvec_t(&raw);
            let vq_beta = qd.v.matvec(&beta);
            let vq_alpha = qd.v.matvec(&alpha);
            for i in 0..refined.len() {
                refined[i] += vq_alpha[i] - vq_beta[i];
            }
        }
        // add into resp where q's contacts appear in P_s
        for (r, &ci) in qcs.iter().enumerate() {
            if let Ok(k) = p_contacts_s.binary_search(&ci) {
                resp[k] += refined[r];
            }
        }
    }
    resp
}

/// Builds the finest-level `W_s` complements and explicit local blocks
/// `G^{(f)}_{L_s,s}` (eq. 4.26) with combine-solves over the `W` columns.
fn build_finest_local<S: SubstrateSolver + ?Sized>(
    solver: &S,
    tree: &Quadtree,
    squares: &[Vec<SquareData>],
    options: &LowRankOptions,
) -> Vec<FinestLocal> {
    let n = tree.n_contacts();
    let finest = tree.finest();
    let side = tree.side(finest);
    let spacing = if options.spacing == 0 { 0 } else { options.spacing.min(side) };
    let mut out: Vec<FinestLocal> = vec![FinestLocal::empty(); side * side];

    // complements
    for s in tree.squares(finest) {
        let cs = tree.contacts_in_square(s);
        if cs.is_empty() {
            continue;
        }
        out[s.flat()].w = orthonormal_completion(&squares[finest][s.flat()].v);
        out[s.flat()].l_contacts = tree.region_contacts(&tree.local(s));
    }

    // responses to W columns: stream the independent (combined) vectors of
    // every m and phase through `solve_batch` in RHS blocks, processing
    // responses in the original order (per-square m order is preserved)
    let max_w = tree.squares(finest).map(|s| out[s.flat()].w.n_cols()).max().unwrap_or(0);
    let mut w_resp: Vec<Vec<Vec<f64>>> = vec![Vec::new(); side * side];
    let mut theta_groups: Vec<(Vec<Square>, usize)> = Vec::new();
    for m in 0..max_w {
        if spacing == 0 {
            for s in tree.squares(finest) {
                if m < out[s.flat()].w.n_cols() {
                    theta_groups.push((vec![s], m));
                }
            }
            continue;
        }
        for pi in 0..spacing {
            for pj in 0..spacing {
                let group: Vec<Square> = tree
                    .squares(finest)
                    .filter(|s| {
                        s.ix as usize % spacing == pi
                            && s.iy as usize % spacing == pj
                            && m < out[s.flat()].w.n_cols()
                    })
                    .collect();
                if !group.is_empty() {
                    theta_groups.push((group, m));
                }
            }
        }
    }
    let items = theta_groups.iter().map(|(group, m)| {
        let mut theta = vec![0.0; n];
        for s in group {
            scatter(out[s.flat()].w.col(*m), tree.contacts_in_square(*s), &mut theta);
        }
        ((group, *m), theta)
    });
    subsolver::for_each_batched(solver, items, |(group, m), y| {
        for s in group {
            if spacing == 0 {
                w_resp[s.flat()].push(restrict(y, &out[s.flat()].l_contacts));
            } else {
                let w_col = out[s.flat()].w.col(m).to_vec();
                let resp = refine_local_response(tree, squares, *s, &w_col, y);
                w_resp[s.flat()].push(resp);
            }
        }
    });

    // explicit local blocks: G^{(f)} = resp_V|L V' + resp_W W'  (eq. 4.26)
    for s in tree.squares(finest) {
        let cs = tree.contacts_in_square(s);
        if cs.is_empty() {
            continue;
        }
        let sd = &squares[finest][s.flat()];
        let fl = &mut out[s.flat()];
        let nl = fl.l_contacts.len();
        let mut g_local = Mat::zeros(nl, cs.len());
        // V part
        if sd.v.n_cols() > 0 {
            let mut resp_v_local = Mat::zeros(nl, sd.v.n_cols());
            for (k, &ci) in fl.l_contacts.iter().enumerate() {
                let idx = sd.p_contacts.binary_search(&ci).expect("L_s inside P_s");
                for j in 0..sd.v.n_cols() {
                    resp_v_local[(k, j)] = sd.resp_v[(idx, j)];
                }
            }
            let vt = sd.v.transpose();
            g_local.add_scaled(1.0, &resp_v_local.matmul(&vt));
        }
        // W part
        if fl.w.n_cols() > 0 {
            let mut resp_w = Mat::zeros(nl, fl.w.n_cols());
            for (j, col) in w_resp[s.flat()].iter().enumerate() {
                resp_w.col_mut(j).copy_from_slice(col);
            }
            let wt = fl.w.transpose();
            g_local.add_scaled(1.0, &resp_w.matmul(&wt));
        }
        fl.g_local = g_local;
    }
    out
}

/// Refines the raw response of a finest-level `W` column at each local
/// square with eq. (4.24), returning the response over `L_s` contacts.
fn refine_local_response(
    tree: &Quadtree,
    squares: &[Vec<SquareData>],
    s: Square,
    w_col: &[f64],
    y: &[f64],
) -> Vec<f64> {
    let finest = tree.finest();
    let l_contacts = tree.region_contacts(&tree.local(s));
    let mut resp = vec![0.0; l_contacts.len()];
    let scs = tree.contacts_in_square(s);
    for q in tree.local(s) {
        let qcs = tree.contacts_in_square(q);
        if qcs.is_empty() {
            continue;
        }
        let qd = &squares[finest][q.flat()];
        let raw = restrict(y, qcs);
        let mut refined = raw.clone();
        if qd.v.n_cols() > 0 {
            // alpha = ((G_{s,q} V_q)^{(r)})' w — rows of resp_v(q) at s
            let mut alpha = vec![0.0; qd.v.n_cols()];
            for (r, &ci) in scs.iter().enumerate() {
                let k = qd.p_contacts.binary_search(&ci).expect("s in P_q for local q");
                for (j, a) in alpha.iter_mut().enumerate() {
                    *a += qd.resp_v[(k, j)] * w_col[r];
                }
            }
            let beta = qd.v.matvec_t(&raw);
            let vq_beta = qd.v.matvec(&beta);
            let vq_alpha = qd.v.matvec(&alpha);
            for i in 0..refined.len() {
                refined[i] += vq_alpha[i] - vq_beta[i];
            }
        }
        for (r, &ci) in qcs.iter().enumerate() {
            let k = l_contacts.binary_search(&ci).expect("q contacts in L_s");
            resp[k] += refined[r];
        }
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsparse_layout::generators;
    use subsparse_substrate::{solver, CountingSolver};

    fn rel_fro_error(a: &Mat, b: &Mat) -> f64 {
        let mut d = a.clone();
        d.add_scaled(-1.0, b);
        d.fro_norm() / b.fro_norm()
    }

    /// Total stored floating-point entries (the memory-cost metric behind
    /// the `O(n log n)` storage claim).
    fn stored_entries(rep: &RowBasisRep) -> usize {
        let mut total = 0;
        for level in &rep.squares {
            for sd in level {
                total += sd.v.n_rows() * sd.v.n_cols();
                total += sd.resp_v.n_rows() * sd.resp_v.n_cols();
            }
        }
        for fl in &rep.finest_local {
            total += fl.g_local.n_rows() * fl.g_local.n_cols();
        }
        total
    }

    #[test]
    fn row_basis_apply_matches_exact_operator() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let rep = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let approx = rep.to_dense();
        let err = rel_fro_error(&approx, &g);
        assert!(err < 0.02, "row-basis apply error {err}");
    }

    #[test]
    fn solve_count_grows_slower_than_n() {
        // the per-level solve count is a constant (36 * (1 + rank)); the
        // reduction factor over naive extraction appears at larger n
        // (thesis Table 4.3: 8.7x at 4096 contacts, 18x at 10240)
        let mut counts = Vec::new();
        for (k, levels) in [(8usize, 3usize), (16, 4), (32, 5)] {
            let layout = generators::regular_grid(128.0, k, 2.0);
            let bb = CountingSolver::new(solver::synthetic(&layout));
            let _ = build_row_basis(&bb, &layout, levels, &LowRankOptions::default()).unwrap();
            counts.push((k * k, bb.count()));
        }
        let (n0, s0) = counts[0];
        let (n2, s2) = counts[2];
        let n_growth = n2 as f64 / n0 as f64; // 16x
        let s_growth = s2 as f64 / s0 as f64;
        assert!(
            s_growth < n_growth / 3.0,
            "solves grew {s_growth}x while n grew {n_growth}x: {counts:?}"
        );
        // at 1024 contacts the reduction over naive must already show
        let (n, s) = counts[2];
        assert!(s < n, "{s} solves for n = {n}");
    }

    #[test]
    fn no_combining_is_more_accurate() {
        let layout = generators::alternating_grid(128.0, 8, 3.0, 1.0);
        let s = solver::synthetic(&layout);
        let g = s.matrix().clone();
        let fast = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let exact_opts = LowRankOptions { spacing: 0, ..LowRankOptions::default() };
        let slow = build_row_basis(&s, &layout, 3, &exact_opts).unwrap();
        let e_fast = rel_fro_error(&fast.to_dense(), &g);
        let e_slow = rel_fro_error(&slow.to_dense(), &g);
        assert!(e_slow <= e_fast * 1.5 + 1e-12, "exact solves should not be much worse");
        assert!(e_slow < 0.05, "reference-mode error {e_slow}");
    }

    #[test]
    fn ranks_are_capped() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let opts = LowRankOptions::default();
        let rep = build_row_basis(&s, &layout, 3, &opts).unwrap();
        for lev in 2..=rep.tree().finest() {
            for sq in rep.tree().squares(lev) {
                assert!(rep.rank(sq) <= MAX_RANK);
            }
        }
    }

    #[test]
    fn storage_grows_subquadratically() {
        let mut stored = Vec::new();
        for (k, levels) in [(16usize, 4usize), (32, 5)] {
            let layout = generators::regular_grid(128.0, k, 2.0);
            let s = solver::synthetic(&layout);
            let rep = build_row_basis(&s, &layout, levels, &LowRankOptions::default()).unwrap();
            stored.push((k * k, stored_entries(&rep)));
        }
        let (n0, m0) = stored[0];
        let (n1, m1) = stored[1];
        let n_growth = (n1 as f64 / n0 as f64).powi(2); // quadratic would be 16x
        let m_growth = m1 as f64 / m0 as f64;
        assert!(
            m_growth < n_growth / 1.5,
            "storage grew {m_growth}x while n^2 grew {n_growth}x: {stored:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let layout = generators::regular_grid(128.0, 8, 2.0);
        let s = solver::synthetic(&layout);
        let r1 = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let r2 = build_row_basis(&s, &layout, 3, &LowRankOptions::default()).unwrap();
        let (d1, d2) = (r1.to_dense(), r2.to_dense());
        assert_eq!(d1.data(), d2.data());
    }
}
