//! The fast wavelet transform: `Q' x` and `Q y` in `O(n·p)` by walking
//! the quadtree, instead of traversing the explicit sparse `Q`.
//!
//! ## Why the explicit `Q` is the wrong serving format
//!
//! The multilevel vanishing-moment basis (thesis §3.4) is *constructed*
//! square by square: each finest square carries a small orthogonal block
//! `[V_s | W_s]` splitting its contact space into nonvanishing and
//! vanishing moments, and each coarser square carries a small orthogonal
//! block `[T_s | R_s]` recombining its children's `V` *coefficients*.
//! Flattening that product into one CSR matrix materializes every
//! coarse-level basis vector down to the contacts — a level-`l` wavelet
//! column holds `O(n / 4^l)` stored values, so `nnz(Q)` grows like
//! `O(n log n)` with a large constant, and a generic sparse `Q'`/`Q`
//! traversal pays for all of it on **every** apply. On the reference
//! n = 1024 benchmark the two `Q` factors hold ~384k of the wavelet
//! representation's ~484k nonzeros; serving through them is no faster
//! than the dense matrix the representation was built to replace.
//!
//! ## The tree-structured apply
//!
//! [`FastWaveletTransform`] keeps the factored form. A forward transform
//! (`Q' x`, analysis) runs finest level first: per square, gather the
//! inputs, apply the square's small orthogonal block, emit the wavelet
//! coefficients straight into the output and pass the scaling
//! coefficients up to the parent's level buffer. Coarser levels repeat
//! the same step on the children's scaling coefficients; the root's
//! scaling coefficients are the leading `root_v` outputs. The inverse
//! transform (`Q y`, synthesis) is the mirror image, coarsest first.
//! Total work is one small dense block product per square —
//! `O(n·p)` multiply-adds with `p` the moment order — against
//! `O(n log n)` for the flat CSR form, and the traversal touches each
//! stored block exactly once, in level order, with zero allocation.
//!
//! Squares within a level are laid out in Morton (quadrant-hierarchical)
//! order, so the four children of any square occupy one *contiguous*
//! run of the finer level's coefficient buffer: a coarse square's gather
//! is a contiguous slice, and the whole sweep is cache-friendly by
//! construction.
//!
//! Per level the transform ping-pongs coefficients between two caller
//! scratch buffers (see [`ApplyWorkspace`](subsparse_linalg::ApplyWorkspace)'s
//! third matrix). The blocked entry points cut the panel into lane tiles
//! of [`LANES`] columns and run the whole transform one tile at a time:
//! every square's block is applied to all lanes of a row at once, so each
//! block value is loaded once per tile instead of once per vector, and
//! the level buffers hold lane-major rows. Each level of each tile is one
//! [`trace`] span. Every lane repeats the single-vector operation order,
//! so blocked results are bit-identical to looped per-vector transforms —
//! the same contract the rest of the serving layer keeps. Columns past
//! the last full tile run the single-vector transform itself.

use subsparse_linalg::kernels::{
    axpy_lanes, dot4, dot4_lanes, fused_axpy4, fused_axpy4_lanes, ColMajor, LaneTile, LaneTileMut,
    PanelLayout, TileRows, TileRowsMut, LANES,
};
use subsparse_linalg::{trace, Mat};

/// One square's transform step.
///
/// The fields are raw offsets into the parent
/// [`FastWaveletTransform`]'s flat storage;
/// [`from_parts`](FastWaveletTransform::from_parts) validates them as a
/// whole. At the
/// finest level `in_offset`/`in_len` select the square's contact indices;
/// at coarser levels they select the children's scaling coefficients in
/// the finer level's buffer.
#[derive(Clone, Debug)]
pub struct FwtNode {
    /// Finest level: offset into the contact-index array. Coarser levels:
    /// offset into the finer level's coefficient buffer.
    pub in_offset: usize,
    /// Number of inputs (contacts of the square, or children's scaling
    /// coefficients).
    pub in_len: usize,
    /// Scaling (nonvanishing-moment) outputs, passed up to the parent.
    pub v_cols: usize,
    /// Wavelet (vanishing-moment) outputs, emitted into the coefficient
    /// vector.
    pub w_cols: usize,
    /// Offset of this square's scaling coefficients in its level's buffer.
    pub out_offset: usize,
    /// First coefficient-vector index of this square's wavelet outputs
    /// (`usize::MAX` when `w_cols == 0`).
    pub col_start: usize,
    /// Offset of this square's `in_len x (v_cols + w_cols)` column-major
    /// orthogonal block in the flat block storage.
    pub block_offset: usize,
}

/// One level of the transform: its squares (Morton order) and the length
/// of its scaling-coefficient buffer.
#[derive(Clone, Debug)]
pub struct FwtLevel {
    /// Transform steps of the level's nonempty squares, in Morton order.
    pub nodes: Vec<FwtNode>,
    /// Total scaling coefficients the level produces
    /// (`sum of v_cols`).
    pub coeff_len: usize,
}

/// The factored, tree-structured form of the wavelet change of basis `Q`:
/// applies `Q' x` ([`forward_into`](Self::forward_into)) and `Q y`
/// ([`inverse_into`](Self::inverse_into)) in `O(n·p)` without ever
/// materializing `Q`.
#[derive(Clone, Debug)]
pub struct FastWaveletTransform {
    n: usize,
    root_v: usize,
    /// `levels[0]` is the finest level; `levels.last()` is the root.
    levels: Vec<FwtLevel>,
    /// Finest-level gather indices, grouped per node.
    contact_idx: Vec<u32>,
    /// Every square's orthogonal block, column-major, back to back.
    blocks: Vec<f64>,
    /// Largest per-level coefficient count — the leading region of the
    /// caller-provided scratch (see [`scratch_len`](Self::scratch_len)).
    max_coeff_len: usize,
    /// Derived (never serialized): largest finest-level square
    /// (`in_len`). The finest kernels use `scratch[max_coeff_len..]` of
    /// the writable ping-pong buffer — dead space at the finest level in
    /// both directions — to stage a square's contacts contiguously.
    max_finest_in: usize,
}

impl FastWaveletTransform {
    /// Assembles a transform from raw level/node tables, validating that
    /// they describe a complete `n x n` orthogonal factorization layout:
    /// contiguous scaling buffers, finest-level gathers that partition
    /// the contacts, coarse-level gathers that partition the finer
    /// level's coefficients, wavelet outputs that tile `root_v..n`, and
    /// in-bounds blocks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant (used to
    /// reject corrupt serialized models instead of misapplying them).
    pub fn from_parts(
        n: usize,
        root_v: usize,
        levels: Vec<FwtLevel>,
        contact_idx: Vec<u32>,
        blocks: Vec<f64>,
    ) -> Result<Self, String> {
        if levels.is_empty() {
            return Err("fwt needs at least one level".into());
        }
        if levels.last().expect("nonempty").coeff_len != root_v {
            return Err(format!(
                "root level must produce exactly root_v = {root_v} scaling coefficients"
            ));
        }
        let mut out_covered = vec![false; n];
        for covered in out_covered.iter_mut().take(root_v) {
            *covered = true;
        }
        for (li, level) in levels.iter().enumerate() {
            let in_total = if li == 0 { contact_idx.len() } else { levels[li - 1].coeff_len };
            let mut next_out = 0usize;
            let mut next_in = 0usize;
            for node in &level.nodes {
                // header fields are untrusted: every sum and product below
                // is checked, so a huge value is an error, not a wrap
                if node.v_cols.checked_add(node.w_cols) != Some(node.in_len) {
                    return Err(format!(
                        "level {li}: block is not square ({} + {} != {})",
                        node.v_cols, node.w_cols, node.in_len
                    ));
                }
                if node.out_offset != next_out {
                    return Err(format!("level {li}: scaling outputs are not contiguous"));
                }
                next_out = next_out
                    .checked_add(node.v_cols)
                    .ok_or_else(|| format!("level {li}: scaling outputs overflow"))?;
                if node.in_offset != next_in {
                    return Err(format!("level {li}: gather ranges are not contiguous"));
                }
                next_in = next_in
                    .checked_add(node.in_len)
                    .ok_or_else(|| format!("level {li}: gather ranges overflow"))?;
                let block_end = node
                    .in_len
                    .checked_mul(node.in_len)
                    .and_then(|size| size.checked_add(node.block_offset));
                if block_end.map_or(true, |end| end > blocks.len()) {
                    return Err(format!("level {li}: block storage out of bounds"));
                }
                if node.w_cols > 0 {
                    let col_end = node.col_start.checked_add(node.w_cols);
                    if node.col_start < root_v || col_end.map_or(true, |end| end > n) {
                        return Err(format!("level {li}: wavelet outputs out of range"));
                    }
                    for covered in
                        out_covered[node.col_start..node.col_start + node.w_cols].iter_mut()
                    {
                        if *covered {
                            return Err(format!("level {li}: overlapping wavelet outputs"));
                        }
                        *covered = true;
                    }
                }
            }
            if next_out != level.coeff_len {
                return Err(format!("level {li}: coeff_len does not match its nodes"));
            }
            if next_in != in_total {
                return Err(format!("level {li}: gathers do not cover their {in_total} inputs"));
            }
        }
        if !out_covered.iter().all(|&c| c) {
            return Err("wavelet outputs do not cover all n coefficients".into());
        }
        if contact_idx.len() != n {
            return Err(format!("expected {n} contact gathers, got {}", contact_idx.len()));
        }
        let mut seen = vec![false; n];
        for &ci in &contact_idx {
            let ci = ci as usize;
            if ci >= n || seen[ci] {
                return Err("contact gathers must be a permutation of 0..n".into());
            }
            seen[ci] = true;
        }
        let max_coeff_len = levels.iter().map(|l| l.coeff_len).max().unwrap_or(0);
        let max_finest_in = levels[0].nodes.iter().map(|nd| nd.in_len).max().unwrap_or(0);
        Ok(FastWaveletTransform {
            n,
            root_v,
            levels,
            contact_idx,
            blocks,
            max_coeff_len,
            max_finest_in,
        })
    }

    /// Number of contacts (the transform is `n x n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of coarsest-level scaling outputs (coefficients `0..root_v`).
    pub fn root_v(&self) -> usize {
        self.root_v
    }

    /// Number of levels in the hierarchy.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Stored values across every per-square block — the memory the
    /// factored transform costs, and its per-apply work estimate (the
    /// analog of `nnz` for a CSR `Q`).
    pub fn stored(&self) -> usize {
        self.blocks.len()
    }

    /// Per-level scratch length the transform kernels need (each of the
    /// two scratch buffers must hold at least this many values per
    /// vector): the largest level's coefficient buffer plus tail room for
    /// the finest-level kernels to stage one square's contacts
    /// contiguously.
    pub fn scratch_len(&self) -> usize {
        self.max_coeff_len + self.max_finest_in
    }

    /// The raw level tables, finest first (serialization support).
    pub fn levels(&self) -> &[FwtLevel] {
        &self.levels
    }

    /// The finest-level gather indices (serialization support).
    pub fn contact_idx(&self) -> &[u32] {
        &self.contact_idx
    }

    /// The flat block storage (serialization support).
    pub fn blocks(&self) -> &[f64] {
        &self.blocks
    }

    /// Forward (analysis) transform `out = Q' x`: finest level first,
    /// wavelet coefficients emitted into `out`, scaling coefficients
    /// ping-ponged between `s1` and `s2`.
    ///
    /// # Panics
    ///
    /// Panics unless `x` and `out` have length [`n`](Self::n) and both
    /// scratch slices have at least [`scratch_len`](Self::scratch_len)
    /// entries.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], s1: &mut [f64], s2: &mut [f64]) {
        assert_eq!(x.len(), self.n, "fwt forward dimension mismatch");
        assert_eq!(out.len(), self.n, "fwt forward output length mismatch");
        assert!(
            s1.len() >= self.scratch_len() && s2.len() >= self.scratch_len(),
            "fwt scratch too small"
        );
        let n_levels = self.levels.len();
        let (mut cur, mut next) = (s1, s2);
        for (li, level) in self.levels.iter().enumerate() {
            let at_root = li + 1 == n_levels;
            for node in &level.nodes {
                self.forward_node(li, at_root, node, x, out, cur, next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// One square's forward step on one vector: the operation order every
    /// lane of a blocked forward transform repeats.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one raw kernel over the level buffers
    fn forward_node(
        &self,
        li: usize,
        at_root: bool,
        node: &FwtNode,
        x: &[f64],
        out: &mut [f64],
        cur: &[f64],
        next: &mut [f64],
    ) {
        let nin = node.in_len;
        let ncols = node.v_cols + node.w_cols;
        let block = &self.blocks[node.block_offset..node.block_offset + nin * ncols];
        if li == 0 {
            // Stage the square's contacts once in the tail of `next`
            // (scaling outputs land below `max_coeff_len`, so the tail is
            // free), then run plain contiguous dots: `gather_dot4` on a
            // permutation is bit-identical to `dot4` on the gathered
            // values (same lanes, same order — pinned by the kernel
            // property suite), and paying the gather once per square
            // instead of once per column leaves the hot loop fully
            // contiguous.
            let idx = &self.contact_idx[node.in_offset..node.in_offset + nin];
            let (coeffs, scratch) = next.split_at_mut(self.max_coeff_len);
            let gx = &mut scratch[..nin];
            for (g, &ci) in gx.iter_mut().zip(idx) {
                *g = x[ci as usize];
            }
            for (k, bcol) in block.chunks_exact(nin).enumerate().take(ncols) {
                let acc = dot4(bcol, gx);
                if k < node.v_cols {
                    if at_root {
                        out[node.out_offset + k] = acc;
                    } else {
                        coeffs[node.out_offset + k] = acc;
                    }
                } else {
                    out[node.col_start + (k - node.v_cols)] = acc;
                }
            }
        } else {
            let inp = &cur[node.in_offset..node.in_offset + nin];
            for (k, bcol) in block.chunks_exact(nin).enumerate().take(ncols) {
                let acc = dot4(bcol, inp);
                if k < node.v_cols {
                    if at_root {
                        out[node.out_offset + k] = acc;
                    } else {
                        next[node.out_offset + k] = acc;
                    }
                } else {
                    out[node.col_start + (k - node.v_cols)] = acc;
                }
            }
        }
    }

    /// Inverse (synthesis) transform `x = Q c`: coarsest level first,
    /// scaling coefficients pushed down through `s1`/`s2`, finest-level
    /// blocks scattering onto the contacts.
    ///
    /// # Panics
    ///
    /// Same contract as [`forward_into`](Self::forward_into).
    pub fn inverse_into(&self, c: &[f64], x: &mut [f64], s1: &mut [f64], s2: &mut [f64]) {
        assert_eq!(c.len(), self.n, "fwt inverse dimension mismatch");
        assert_eq!(x.len(), self.n, "fwt inverse output length mismatch");
        assert!(
            s1.len() >= self.scratch_len() && s2.len() >= self.scratch_len(),
            "fwt scratch too small"
        );
        let n_levels = self.levels.len();
        let (mut cur, mut next) = (s1, s2);
        for (li, level) in self.levels.iter().enumerate().rev() {
            let at_root = li + 1 == n_levels;
            for node in &level.nodes {
                self.inverse_node(li, at_root, node, c, x, cur, next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// One square's inverse step on one vector: the operation order every
    /// lane of a blocked inverse transform repeats.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one raw kernel over the level buffers
    fn inverse_node(
        &self,
        li: usize,
        at_root: bool,
        node: &FwtNode,
        c: &[f64],
        x: &mut [f64],
        cur: &[f64],
        next: &mut [f64],
    ) {
        let nin = node.in_len;
        let ncols = node.v_cols + node.w_cols;
        let block = &self.blocks[node.block_offset..node.block_offset + nin * ncols];
        // columns are consumed left to right in fused groups of four
        // (`fused_axpy4`'s contract makes a fused group bit-identical to
        // four sequential column passes), so the synthesis keeps the bits
        // of the original one-pass-per-column loop while reading the
        // output run from memory once per group instead of once per column
        let col = |k: usize| &block[k * nin..(k + 1) * nin];
        if li == 0 {
            // Accumulate into the contiguous tail of `next` (dead space at
            // the finest level — it runs last, nothing reads `next` after)
            // and scatter to the contacts once at the end. Per contact the
            // operation sequence is unchanged — zero, then the same
            // column-order fused-group accumulation (`fused_axpy4` and
            // `fused_scatter_axpy4` are both defined as four sequential
            // column passes), then one store — so the bits match the old
            // scattered read-modify-write loop exactly.
            let idx = &self.contact_idx[node.in_offset..node.in_offset + nin];
            let acc = &mut next[self.max_coeff_len..self.max_coeff_len + nin];
            acc.fill(0.0);
            let mut k = 0;
            while k + 4 <= ncols {
                let a = [
                    self.coeff(node, k, c, cur, at_root),
                    self.coeff(node, k + 1, c, cur, at_root),
                    self.coeff(node, k + 2, c, cur, at_root),
                    self.coeff(node, k + 3, c, cur, at_root),
                ];
                fused_axpy4(a, col(k), col(k + 1), col(k + 2), col(k + 3), acc);
                k += 4;
            }
            while k < ncols {
                let cv = self.coeff(node, k, c, cur, at_root);
                for (d, bv) in acc.iter_mut().zip(col(k)) {
                    *d += bv * cv;
                }
                k += 1;
            }
            for (v, &ci) in acc.iter().zip(idx) {
                x[ci as usize] = *v;
            }
        } else {
            let dest = &mut next[node.in_offset..node.in_offset + nin];
            dest.fill(0.0);
            let mut k = 0;
            while k + 4 <= ncols {
                let a = [
                    self.coeff(node, k, c, cur, at_root),
                    self.coeff(node, k + 1, c, cur, at_root),
                    self.coeff(node, k + 2, c, cur, at_root),
                    self.coeff(node, k + 3, c, cur, at_root),
                ];
                fused_axpy4(a, col(k), col(k + 1), col(k + 2), col(k + 3), dest);
                k += 4;
            }
            while k < ncols {
                let cv = self.coeff(node, k, c, cur, at_root);
                for (d, bv) in dest.iter_mut().zip(col(k)) {
                    *d += bv * cv;
                }
                k += 1;
            }
        }
    }

    /// The `k`-th coefficient feeding a node's inverse step: scaling
    /// coefficients come from the level buffer (or straight from `c` at
    /// the root), wavelet coefficients always from `c`.
    #[inline]
    fn coeff(&self, node: &FwtNode, k: usize, c: &[f64], cur: &[f64], at_root: bool) -> f64 {
        if k < node.v_cols {
            if at_root {
                c[node.out_offset + k]
            } else {
                cur[node.out_offset + k]
            }
        } else {
            c[node.col_start + (k - node.v_cols)]
        }
    }

    /// Blocked forward transform: `out = Q' X` with `out` column-major,
    /// column for column **bit-identical** to looped
    /// [`forward_into`](Self::forward_into) calls. Full lane tiles of
    /// [`LANES`] columns run the transform on all lanes at once; the
    /// `b % LANES` remaining columns run `forward_into` itself.
    ///
    /// Resizes `out` to `n x X.n_cols()` and the scratch matrices to
    /// `scratch_len x X.n_cols()` (allocation-free once they have
    /// capacity).
    pub fn forward_block_into(&self, x: &Mat, out: &mut Mat, s1: &mut Mat, s2: &mut Mat) {
        self.forward_panel_into::<ColMajor>(x, out, s1, s2);
    }

    /// Blocked forward transform into an output panel of layout `O`
    /// (see [`PanelLayout`]).
    ///
    /// Each full tile of [`LANES`] columns runs the whole transform at
    /// once: every square's block is applied to all lanes with
    /// [`dot4_lanes`], the finest level gathers the tile's contacts once
    /// per square, and the levels ping-pong lane-major rows through the
    /// first `scratch_len * LANES` values of `s1`/`s2` (which hold
    /// `scratch_len * b >= scratch_len * LANES` whenever a tile exists).
    /// Each lane repeats [`forward_into`](Self::forward_into)'s operation
    /// order, so the result is bit-identical to it column for column. The
    /// `b % LANES` columns after the last full tile run `forward_into`
    /// itself. Every level of every tile is one `fwt.forward.level`
    /// [`trace`] span.
    pub(crate) fn forward_panel_into<O: PanelLayout>(
        &self,
        x: &Mat,
        out: &mut Mat,
        s1: &mut Mat,
        s2: &mut Mat,
    ) {
        assert_eq!(x.n_rows(), self.n, "fwt forward block dimension mismatch");
        let b = x.n_cols();
        out.resize(self.n, b);
        s1.resize(self.scratch_len(), b);
        s2.resize(self.scratch_len(), b);
        let tiles = b / LANES;
        let w = self.scratch_len() * LANES;
        for t in 0..tiles {
            self.forward_tile(
                &ColMajor::tile(x, t),
                &mut O::tile_mut(out, t),
                &mut s1.data_mut()[..w],
                &mut s2.data_mut()[..w],
            );
        }
        for j in tiles * LANES..b {
            self.forward_into(x.col(j), out.col_mut(j), s1.col_mut(j), s2.col_mut(j));
        }
    }

    /// The forward transform of one lane tile, ping-ponging lane-major
    /// level buffers between `s1` and `s2` (`scratch_len * LANES` each).
    fn forward_tile(
        &self,
        x: &impl TileRows,
        out: &mut impl TileRowsMut,
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        let n_levels = self.levels.len();
        let (mut cur, mut next) = (s1, s2);
        for (li, level) in self.levels.iter().enumerate() {
            let _lvl = trace::span_arg("fwt.forward.level", li as u64);
            let at_root = li + 1 == n_levels;
            for node in &level.nodes {
                let nin = node.in_len;
                let ncols = node.v_cols + node.w_cols;
                let block = &self.blocks[node.block_offset..node.block_offset + nin * ncols];
                let (coeffs, stage) = next.split_at_mut(self.max_coeff_len * LANES);
                let inp: &[f64] = if li == 0 {
                    // gather the square's contacts once, lane-major, into
                    // the tail of `next` (as `forward_node` does per vector)
                    let idx = &self.contact_idx[node.in_offset..node.in_offset + nin];
                    let gx = &mut stage[..nin * LANES];
                    for (g, &ci) in gx.chunks_exact_mut(LANES).zip(idx) {
                        g.copy_from_slice(&x.lanes(ci as usize));
                    }
                    gx
                } else {
                    &cur[node.in_offset * LANES..(node.in_offset + nin) * LANES]
                };
                for (k, bcol) in block.chunks_exact(nin).enumerate().take(ncols) {
                    let acc = dot4_lanes(bcol, inp);
                    if k < node.v_cols && !at_root {
                        LaneTileMut(&mut *coeffs).set_lanes(node.out_offset + k, acc);
                    } else if k < node.v_cols {
                        out.set_lanes(node.out_offset + k, acc);
                    } else {
                        out.set_lanes(node.col_start + (k - node.v_cols), acc);
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Blocked inverse transform: `X = Q C` with `C` column-major, column
    /// for column bit-identical to looped
    /// [`inverse_into`](Self::inverse_into) calls, lane tile by lane tile
    /// like [`forward_block_into`](Self::forward_block_into).
    ///
    /// Resizes `x` to `n x C.n_cols()` and the scratch matrices as
    /// needed.
    pub fn inverse_block_into(&self, c: &Mat, x: &mut Mat, s1: &mut Mat, s2: &mut Mat) {
        self.inverse_panel_into::<ColMajor>(c, x, s1, s2);
    }

    /// Blocked inverse transform from a coefficient panel of layout `C`
    /// into column-major `x`: the mirror of
    /// [`forward_panel_into`](Self::forward_panel_into), coarsest level
    /// first, with [`fused_axpy4_lanes`] applying each square's block to
    /// all lanes and the finest level scattering each tile's rows to the
    /// contacts. Column for column bit-identical to
    /// [`inverse_into`](Self::inverse_into); every level of every tile is
    /// one `fwt.inverse.level` [`trace`] span.
    pub(crate) fn inverse_panel_into<C: PanelLayout>(
        &self,
        c: &Mat,
        x: &mut Mat,
        s1: &mut Mat,
        s2: &mut Mat,
    ) {
        assert_eq!(c.n_rows(), self.n, "fwt inverse block dimension mismatch");
        let b = c.n_cols();
        x.resize(self.n, b);
        s1.resize(self.scratch_len(), b);
        s2.resize(self.scratch_len(), b);
        let tiles = b / LANES;
        let w = self.scratch_len() * LANES;
        for t in 0..tiles {
            self.inverse_tile(
                &C::tile(c, t),
                &mut ColMajor::tile_mut(x, t),
                &mut s1.data_mut()[..w],
                &mut s2.data_mut()[..w],
            );
        }
        for j in tiles * LANES..b {
            self.inverse_into(c.col(j), x.col_mut(j), s1.col_mut(j), s2.col_mut(j));
        }
    }

    /// The inverse transform of one lane tile (buffers as in
    /// [`forward_tile`](Self::forward_tile)).
    fn inverse_tile(
        &self,
        c: &impl TileRows,
        x: &mut impl TileRowsMut,
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        let n_levels = self.levels.len();
        let (mut cur, mut next) = (s1, s2);
        for (li, level) in self.levels.iter().enumerate().rev() {
            let _lvl = trace::span_arg("fwt.inverse.level", li as u64);
            let at_root = li + 1 == n_levels;
            for node in &level.nodes {
                let nin = node.in_len;
                let ncols = node.v_cols + node.w_cols;
                let block = &self.blocks[node.block_offset..node.block_offset + nin * ncols];
                let col = |k: usize| &block[k * nin..(k + 1) * nin];
                // the `k`-th coefficient row, as `coeff` reads it per vector
                let coeff = |k: usize| {
                    if k >= node.v_cols {
                        c.lanes(node.col_start + (k - node.v_cols))
                    } else if at_root {
                        c.lanes(node.out_offset + k)
                    } else {
                        LaneTile(cur).lanes(node.out_offset + k)
                    }
                };
                // the finest level accumulates in the tail of `next` and
                // scatters to the contacts at the end, as `inverse_node`
                let first = if li == 0 { self.max_coeff_len } else { node.in_offset };
                let dest = &mut next[first * LANES..(first + nin) * LANES];
                dest.fill(0.0);
                let mut k = 0;
                while k + 4 <= ncols {
                    let a = [coeff(k), coeff(k + 1), coeff(k + 2), coeff(k + 3)];
                    fused_axpy4_lanes(a, col(k), col(k + 1), col(k + 2), col(k + 3), dest);
                    k += 4;
                }
                while k < ncols {
                    axpy_lanes(coeff(k), col(k), dest);
                    k += 1;
                }
                if li == 0 {
                    let idx = &self.contact_idx[node.in_offset..node.in_offset + nin];
                    for (i, &ci) in idx.iter().enumerate() {
                        x.set_lanes(ci as usize, LaneTile(dest).lanes(i));
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Serializes the transform as a whitespace-separated text section
    /// (the `.fwt` side file of a saved model). Floating-point values use
    /// Rust's shortest-roundtrip formatting, so a load reproduces the
    /// transform bit for bit.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "{} {} {} {} {}",
            self.n,
            self.root_v,
            self.levels.len(),
            self.contact_idx.len(),
            self.blocks.len()
        )
        .unwrap();
        for level in &self.levels {
            writeln!(s, "{} {}", level.coeff_len, level.nodes.len()).unwrap();
            for nd in &level.nodes {
                writeln!(
                    s,
                    "{} {} {} {} {} {} {}",
                    nd.in_offset,
                    nd.in_len,
                    nd.v_cols,
                    nd.w_cols,
                    nd.out_offset,
                    if nd.w_cols == 0 { 0 } else { nd.col_start },
                    nd.block_offset
                )
                .unwrap();
            }
        }
        for chunk in self.contact_idx.chunks(16) {
            let line: Vec<String> = chunk.iter().map(|v| v.to_string()).collect();
            writeln!(s, "{}", line.join(" ")).unwrap();
        }
        for chunk in self.blocks.chunks(4) {
            let line: Vec<String> = chunk.iter().map(|v| format!("{v}")).collect();
            writeln!(s, "{}", line.join(" ")).unwrap();
        }
        s
    }

    /// Parses a section written by [`to_text`](Self::to_text), running
    /// the full [`from_parts`](Self::from_parts) validation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token or violated
    /// structural invariant.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let budget = text.len();
        let mut toks = text.split_ascii_whitespace();
        let mut next_usize = |what: &str| -> Result<usize, String> {
            toks.next()
                .ok_or_else(|| format!("fwt section truncated at {what}"))?
                .parse::<usize>()
                .map_err(|_| format!("fwt section: malformed {what}"))
        };
        let n = next_usize("n")?;
        let root_v = next_usize("root_v")?;
        let n_levels = next_usize("level count")?;
        let n_contacts = next_usize("contact count")?;
        let n_blocks = next_usize("block count")?;
        // structural sanity, tied to n: a valid section gathers each of
        // the n contacts exactly once, and every block is at most n x n
        // per level (from_parts re-checks exactly; these bounds just keep
        // a corrupt header from driving the allocations below)
        if n > budget
            || n_levels > 64
            || n_contacts != n
            || n_blocks > n.saturating_mul(n).saturating_mul(64)
        {
            // `n > budget` is conservative: each of the n contact tokens
            // needs at least two characters of text, so a header whose n
            // exceeds the section length is corrupt — and bounding n here
            // keeps from_parts' O(n) validation buffers honest too
            return Err("fwt section: implausible table sizes".into());
        }
        // never trust header counts for preallocation — a corrupt file
        // must come back as Err, not abort inside the allocator
        const MAX_PREALLOC: usize = 1 << 20;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let coeff_len = next_usize("coeff_len")?;
            let n_nodes = next_usize("node count")?;
            if n_nodes > n_contacts.max(1) {
                return Err("fwt section: implausible node count".into());
            }
            let mut nodes = Vec::with_capacity(n_nodes.min(MAX_PREALLOC));
            for _ in 0..n_nodes {
                let in_offset = next_usize("in_offset")?;
                let in_len = next_usize("in_len")?;
                let v_cols = next_usize("v_cols")?;
                let w_cols = next_usize("w_cols")?;
                let out_offset = next_usize("out_offset")?;
                let col_start = next_usize("col_start")?;
                let block_offset = next_usize("block_offset")?;
                nodes.push(FwtNode {
                    in_offset,
                    in_len,
                    v_cols,
                    w_cols,
                    out_offset,
                    col_start: if w_cols == 0 { usize::MAX } else { col_start },
                    block_offset,
                });
            }
            levels.push(FwtLevel { nodes, coeff_len });
        }
        let mut contact_idx = Vec::with_capacity(n_contacts.min(MAX_PREALLOC));
        for _ in 0..n_contacts {
            contact_idx.push(next_usize("contact index")? as u32);
        }
        let mut blocks = Vec::with_capacity(n_blocks.min(MAX_PREALLOC));
        for _ in 0..n_blocks {
            let tok = toks.next().ok_or("fwt section truncated at block values")?;
            blocks.push(tok.parse::<f64>().map_err(|_| "fwt section: malformed block value")?);
        }
        if toks.next().is_some() {
            return Err("fwt section: trailing data".into());
        }
        Self::from_parts(n, root_v, levels, contact_idx, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 2-level Haar-style transform on 4 contacts: two
    /// finest squares of 2 contacts each, one root square combining the
    /// two scaling coefficients.
    fn haar4() -> FastWaveletTransform {
        let r = 0.5f64.sqrt();
        let block = vec![r, r, r, -r]; // [v | w], column-major, orthogonal
        let mut blocks = Vec::new();
        blocks.extend_from_slice(&block); // finest node 0
        blocks.extend_from_slice(&block); // finest node 1
        blocks.extend_from_slice(&block); // root
        let finest = FwtLevel {
            nodes: vec![
                FwtNode {
                    in_offset: 0,
                    in_len: 2,
                    v_cols: 1,
                    w_cols: 1,
                    out_offset: 0,
                    col_start: 2,
                    block_offset: 0,
                },
                FwtNode {
                    in_offset: 2,
                    in_len: 2,
                    v_cols: 1,
                    w_cols: 1,
                    out_offset: 1,
                    col_start: 3,
                    block_offset: 4,
                },
            ],
            coeff_len: 2,
        };
        let root = FwtLevel {
            nodes: vec![FwtNode {
                in_offset: 0,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: 0,
                col_start: 1,
                block_offset: 8,
            }],
            coeff_len: 1,
        };
        FastWaveletTransform::from_parts(4, 1, vec![finest, root], vec![0, 1, 2, 3], blocks)
            .unwrap()
    }

    #[test]
    fn haar_forward_inverse_roundtrip() {
        let fwt = haar4();
        assert_eq!(fwt.n(), 4);
        assert_eq!(fwt.root_v(), 1);
        assert_eq!(fwt.n_levels(), 2);
        assert_eq!(fwt.stored(), 12);
        let x = [1.0, 2.0, -3.0, 0.5];
        let mut c = [0.0; 4];
        let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
        fwt.forward_into(&x, &mut c, &mut s1, &mut s2);
        // root scaling coefficient is the normalized sum
        let expect0 = (1.0 + 2.0 - 3.0 + 0.5) / 2.0;
        assert!((c[0] - expect0).abs() < 1e-14, "{}", c[0]);
        let mut back = [0.0; 4];
        fwt.inverse_into(&c, &mut back, &mut s1, &mut s2);
        for (b, xv) in back.iter().zip(&x) {
            assert!((b - xv).abs() < 1e-14, "roundtrip {b} vs {xv}");
        }
    }

    /// A random multi-level transform: finest squares of 1..=7 contacts
    /// (every `len % 4` tail of the node kernels) over a shuffled contact
    /// order, coarser squares of 1..=9 children's scaling outputs, random
    /// (non-orthogonal: only the operation order matters here) blocks,
    /// down to one root square.
    fn random_fwt(seed: u64, finest_nodes: usize) -> FastWaveletTransform {
        use subsparse_linalg::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
        let mut shapes: Vec<Vec<(usize, usize)>> = Vec::new(); // (in_len, v_cols) per node
        let finest: Vec<(usize, usize)> = (0..finest_nodes)
            .map(|_| {
                let nin = pick(1, 7);
                (nin, pick(1, nin.min(3)))
            })
            .collect();
        let mut coeff_len: usize = finest.iter().map(|&(_, v)| v).sum();
        shapes.push(finest);
        while shapes.last().unwrap().len() > 1 {
            let mut level = Vec::new();
            let mut left = coeff_len;
            while left > 0 {
                let nin = if left <= 9 { left } else { pick(2, 9) };
                level.push((nin, pick(1, (nin - 1).clamp(1, 3))));
                left -= nin;
            }
            coeff_len = level.iter().map(|&(_, v)| v).sum();
            shapes.push(level);
        }
        let n: usize = shapes[0].iter().map(|&(nin, _)| nin).sum();
        let root_v = coeff_len;
        let (mut blocks, mut levels, mut col_start) = (Vec::new(), Vec::new(), root_v);
        for shape in &shapes {
            let (mut in_offset, mut out_offset) = (0, 0);
            let mut nodes = Vec::new();
            for &(nin, v) in shape {
                let w = nin - v;
                nodes.push(FwtNode {
                    in_offset,
                    in_len: nin,
                    v_cols: v,
                    w_cols: w,
                    out_offset,
                    col_start: if w == 0 { usize::MAX } else { col_start },
                    block_offset: blocks.len(),
                });
                blocks.extend((0..nin * nin).map(|_| rng.range_f64(-1.0, 1.0)));
                in_offset += nin;
                out_offset += v;
                col_start += w;
            }
            levels.push(FwtLevel { nodes, coeff_len: out_offset });
        }
        let mut contacts: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            contacts.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        FastWaveletTransform::from_parts(n, root_v, levels, contacts, blocks).unwrap()
    }

    /// Column `j` of a panel in layout `L`.
    fn panel_col<L: PanelLayout>(p: &Mat, j: usize) -> Vec<f64> {
        if j / LANES < p.n_cols() / LANES {
            let tile = L::tile(p, j / LANES);
            (0..p.n_rows()).map(|r| tile.lanes(r)[j % LANES]).collect()
        } else {
            p.col(j).to_vec()
        }
    }

    /// Blocked forward and inverse, through both coefficient layouts, are
    /// column for column bit-identical to the one-vector transforms.
    fn assert_blocked_bit_identical(fwt: &FastWaveletTransform, label: &str) {
        use subsparse_linalg::kernels::LaneMajor;
        let n = fwt.n();
        let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
        let (mut cj, mut bj) = (vec![0.0; n], vec![0.0; n]);
        let (mut m1, mut m2) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
        for b in [1usize, 3, 8, 11, 16, 17] {
            let x = Mat::from_fn(n, b, |i, j| ((i * 13 + j * 7) % 17) as f64 / 17.0 - 0.4);
            let (mut c, mut back) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            fwt.forward_block_into(&x, &mut c, &mut m1, &mut m2);
            fwt.inverse_block_into(&c, &mut back, &mut m1, &mut m2);
            let (mut cl, mut backl) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            fwt.forward_panel_into::<LaneMajor>(&x, &mut cl, &mut m1, &mut m2);
            fwt.inverse_panel_into::<LaneMajor>(&cl, &mut backl, &mut m1, &mut m2);
            for j in 0..b {
                fwt.forward_into(x.col(j), &mut cj, &mut s1, &mut s2);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(c.col(j)), bits(&cj), "{label}: forward b={b} col {j}");
                let lane = panel_col::<LaneMajor>(&cl, j);
                assert_eq!(bits(&lane), bits(&cj), "{label}: lane-major forward b={b} col {j}");
                fwt.inverse_into(&cj, &mut bj, &mut s1, &mut s2);
                assert_eq!(bits(back.col(j)), bits(&bj), "{label}: inverse b={b} col {j}");
                assert_eq!(
                    bits(backl.col(j)),
                    bits(&bj),
                    "{label}: lane-major inverse b={b} col {j}"
                );
            }
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_per_vector() {
        assert_blocked_bit_identical(&haar4(), "haar4");
        for seed in 0..4 {
            let fwt = random_fwt(seed, 12 + 5 * seed as usize);
            assert!(fwt.n_levels() >= 3, "seed {seed}: want a multi-level transform");
            assert_blocked_bit_identical(&fwt, &format!("random seed {seed}"));
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let fwt = haar4();
        let text = fwt.to_text();
        let back = FastWaveletTransform::from_text(&text).unwrap();
        assert_eq!(back.n(), fwt.n());
        assert_eq!(back.blocks(), fwt.blocks());
        assert_eq!(back.contact_idx(), fwt.contact_idx());
        // applies agree bit for bit
        let x = [0.3, -1.0, 2.0, 0.0];
        let (mut c1, mut c2) = ([0.0; 4], [0.0; 4]);
        let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
        fwt.forward_into(&x, &mut c1, &mut s1, &mut s2);
        back.forward_into(&x, &mut c2, &mut s1, &mut s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn from_parts_rejects_inconsistent_tables() {
        let fwt = haar4();
        // truncated blocks
        let err = FastWaveletTransform::from_parts(
            4,
            1,
            fwt.levels().to_vec(),
            fwt.contact_idx().to_vec(),
            fwt.blocks()[..8].to_vec(),
        )
        .unwrap_err();
        assert!(err.contains("out of bounds"), "{err}");
        // bad contact permutation
        let err = FastWaveletTransform::from_parts(
            4,
            1,
            fwt.levels().to_vec(),
            vec![0, 0, 2, 3],
            fwt.blocks().to_vec(),
        )
        .unwrap_err();
        assert!(err.contains("permutation"), "{err}");
        // malformed text
        assert!(FastWaveletTransform::from_text("1 2 oops").is_err());
    }
}
