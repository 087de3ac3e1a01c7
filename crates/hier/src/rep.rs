//! The sparse transformed-basis representation `G ~ Q Gw Q'`.
//!
//! Both the wavelet method (thesis Ch. 3) and the low-rank method (Ch. 4)
//! produce a sparse orthogonal change of basis `Q` and a sparse transformed
//! matrix `Gw`. The represented operator serves through the
//! [`CouplingOp`] trait, with two interchangeable basis-apply paths:
//!
//! * the **fast wavelet transform** path
//!   ([`BasisRep::with_fwt`]) — the `Q'`/`Q` factors applied level by
//!   level through the quadtree as small per-square dense blocks
//!   ([`FastWaveletTransform`]), `O(n·p)` per vector; the default for
//!   wavelet extractions, and the path that makes the sparse model faster
//!   to serve than the dense matrix; it keeps no `Q'`;
//! * the **explicit-CSR fallback** ([`BasisRep::new`]) — generic sparse
//!   `Q' → Gw → Q` traversal, with the transpose `Q'` precomputed and
//!   cached so both directions stream row-major; the only choice for
//!   non-tree bases (low-rank, the baselines) and for legacy model files.
//!
//! Either way a single apply runs over reusable workspace buffers (zero
//! allocation in steady state), and a *blocked* apply pushes lane tiles
//! of [`LANES`](subsparse_linalg::kernels::LANES) vectors through the same
//! factors, so each stored value is streamed from memory once per tile
//! instead of once per vector. The intermediate coefficients stay
//! lane-major from the first factor to the last.
//! Thresholding `Gw` trades accuracy for more sparsity (the `Gwt` of the
//! thesis tables).
//!
//! Each path has exactly one kernel, and it is serial. Threaded serving
//! ([`ParallelApply`](subsparse_linalg::ParallelApply)) cuts a wide block
//! into column panels and runs this kernel on each; a narrow block runs
//! it inline. Output rows are never split: they all depend on the same
//! analysis half, so splitting them bought nothing in any measured
//! configuration.

use subsparse_linalg::exec;
use subsparse_linalg::io::{fnv1a64, fnv1a64_concat, ReadMatrixError};
use subsparse_linalg::kernels::{ColMajor, LaneMajor};
use subsparse_linalg::{faults, trace, ApplyWorkspace, CouplingOp, Csr, Mat, Triplets};

use crate::fwt::FastWaveletTransform;

/// Serialization format version written into (and checked from) the
/// model files [`BasisRep::save`] produces. Bump when the on-disk layout
/// changes; loaders reject files stamped with a newer version instead of
/// silently misreading them.
///
/// * format 1 — the two Matrix Market factors `<stem>.q.mtx` /
///   `<stem>.gw.mtx` (still written for representations without a fast
///   transform, so old readers keep working on them);
/// * format 2 — additionally a `<stem>.fwt` side file carrying the block
///   hierarchy of the [`FastWaveletTransform`] serving path;
/// * format 3 — every section carries an FNV-1a-64 integrity digest
///   (`% subsparse digest fnv1a64 <hex>` comment in the `.mtx` factors, a
///   digest line after the `.fwt` header), verified on load *before* any
///   structural validation, so corrupted or truncated artifacts surface
///   as a typed [`ModelLoadError`] instead of a downstream panic or a
///   silently wrong model. The digest line is an ordinary Matrix Market
///   comment, so format-1 files (written for fwt-less representations)
///   carry it too without breaking pre-FWT readers.
pub const FORMAT_VERSION: u8 = 3;

/// A model artifact [`BasisRep::load`] could not turn into a servable
/// representation. Every failure mode of a load — unreadable files,
/// integrity-digest mismatches, truncation, files from a newer format,
/// malformed content, mutually inconsistent sections — converges here;
/// loading never panics on bad bytes.
#[derive(Debug)]
pub enum ModelLoadError {
    /// Reading a model file failed at the I/O layer.
    Io {
        /// The offending file.
        file: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A section's integrity digest does not match its bytes: the
    /// artifact was corrupted (bit rot, partial overwrite, editing)
    /// after it was saved.
    Corrupt {
        /// The offending file.
        file: String,
        /// The digest recorded at save time.
        expected: u64,
        /// The digest of the bytes actually on disk.
        actual: u64,
    },
    /// A section ends before all its stated content — a cut-off copy or
    /// partially written save.
    Truncated {
        /// The offending file.
        file: String,
        /// What is missing.
        detail: String,
    },
    /// A section is stamped with a format newer than this build reads.
    Version {
        /// The offending file.
        file: String,
        /// The stamped version.
        version: u8,
    },
    /// A section's content does not parse.
    Malformed {
        /// The offending file.
        file: String,
        /// What went wrong.
        detail: String,
    },
    /// Sections are individually well-formed but mutually inconsistent.
    Structure {
        /// What disagrees.
        detail: String,
    },
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelLoadError::Io { file, source } => write!(f, "{file}: {source}"),
            ModelLoadError::Corrupt { file, expected, actual } => write!(
                f,
                "{file}: integrity digest mismatch \
                 (saved {expected:016x}, bytes on disk hash to {actual:016x})"
            ),
            ModelLoadError::Truncated { file, detail } => write!(f, "{file}: truncated: {detail}"),
            ModelLoadError::Version { file, version } => write!(
                f,
                "{file}: written with basisrep format {version}, \
                 but this build reads at most {FORMAT_VERSION}"
            ),
            ModelLoadError::Malformed { file, detail } => write!(f, "{file}: {detail}"),
            ModelLoadError::Structure { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ModelLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelLoadError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A sparse `G ~ Q Gw Q'` representation.
///
/// Construct through [`new`](Self::new) (explicit-CSR serving path) or
/// [`with_fwt`](Self::with_fwt) (fast-wavelet-transform serving path);
/// the `q`/`gw` factors stay public for inspection, but mutating them in
/// place would desynchronize the cached transpose/transform, so derived
/// representations go through [`thresholded`](Self::thresholded) and
/// friends instead.
///
/// A representation holds what its serving path reads beyond the two
/// factors: the transform, or the cached `Q'` of the explicit-CSR path,
/// never both. A model served through the transform keeps no `Q'`;
/// [`without_fwt`](Self::without_fwt) builds one when asked.
#[derive(Clone, Debug)]
pub struct BasisRep {
    /// Orthogonal sparse change-of-basis matrix (columns are basis vectors).
    pub q: Csr,
    /// Transformed (sparsified) conductance matrix.
    pub gw: Csr,
    /// How the basis halves of an apply run.
    path: BasisPath,
}

/// The basis-apply path of a [`BasisRep`], with what it reads besides
/// the two factors.
#[derive(Clone, Debug)]
enum BasisPath {
    /// The tree-structured transform serves both halves.
    Fwt(FastWaveletTransform),
    /// Explicit CSR: the cached `Q'`, so the analysis half traverses
    /// row-major instead of scattering through `matvec_t`.
    Csr(Csr),
}

impl BasisRep {
    /// Builds a representation served through the explicit-CSR path,
    /// caching `Q'` for row-major analysis applies.
    pub fn new(q: Csr, gw: Csr) -> BasisRep {
        let qt = q.transpose();
        BasisRep { q, gw, path: BasisPath::Csr(qt) }
    }

    /// Builds a representation served through the fast wavelet transform:
    /// `apply` runs `FWT → Gw → FWT'` instead of traversing the explicit
    /// `Q` factors. The explicit `q` is still stored (exchange format,
    /// spy plots, fallback); its transpose is not built.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is `n x n` with `n` matching both the transform
    /// and `gw`.
    pub fn with_fwt(q: Csr, gw: Csr, fwt: FastWaveletTransform) -> BasisRep {
        assert_eq!(q.n_rows(), q.n_cols(), "fwt serving needs a square Q");
        assert_eq!(q.n_rows(), fwt.n(), "transform/Q contact count mismatch");
        assert_eq!(gw.n_rows(), fwt.n(), "transform/Gw dimension mismatch");
        assert_eq!(gw.n_rows(), gw.n_cols(), "Gw must be square");
        BasisRep { q, gw, path: BasisPath::Fwt(fwt) }
    }

    /// The fast transform, if this representation serves through one.
    pub fn fwt(&self) -> Option<&FastWaveletTransform> {
        match &self.path {
            BasisPath::Fwt(fwt) => Some(fwt),
            BasisPath::Csr(_) => None,
        }
    }

    /// A copy pinned to the explicit-CSR serving path (drops the fast
    /// transform) — the fallback selector for benchmarking and for
    /// consumers of legacy model files. Transposes `Q` when this
    /// representation serves through the transform.
    pub fn without_fwt(&self) -> BasisRep {
        match &self.path {
            BasisPath::Fwt(_) => BasisRep::new(self.q.clone(), self.gw.clone()),
            BasisPath::Csr(_) => self.clone(),
        }
    }

    /// A copy with the same basis (and serving path) but a different
    /// transformed matrix — the shared core of the thresholding helpers.
    fn with_gw(&self, gw: Csr) -> BasisRep {
        BasisRep { q: self.q.clone(), gw, path: self.path.clone() }
    }

    /// Number of contacts.
    pub fn n(&self) -> usize {
        self.q.n_rows()
    }

    /// Applies the represented operator: `i = Q (Gw (Q' v))`.
    ///
    /// Allocating convenience for one-off applies; the serving path is
    /// [`CouplingOp::apply_into`] with a warm [`ApplyWorkspace`], which
    /// computes the identical result with zero steady-state allocation.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the contact count.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.apply_into(v, &mut y, &mut ApplyWorkspace::new());
        y
    }

    /// Sparsity factor `n^2 / nnz(Gw)` — the "sparsity" columns of the
    /// thesis tables.
    pub fn sparsity_factor(&self) -> f64 {
        self.gw.sparsity_factor()
    }

    /// Sparsity factor of `Q`.
    pub fn q_sparsity_factor(&self) -> f64 {
        self.q.sparsity_factor()
    }

    /// Materializes the represented `G` as a dense matrix (test/metric use;
    /// `O(n * nnz)`), as one blocked apply of the identity instead of `n`
    /// allocating matvecs.
    pub fn to_dense(&self) -> Mat {
        let cols: Vec<usize> = (0..self.n()).collect();
        self.dense_columns(&cols)
    }

    /// Materializes selected columns of the represented `G`, panel by
    /// panel through [`CouplingOp::apply_block_into`] — bit-identical to
    /// applying unit vectors one at a time, minus the per-column
    /// allocations.
    pub fn dense_columns(&self, cols: &[usize]) -> Mat {
        self.dense_columns_threaded(cols, 1)
    }

    /// [`dense_columns`](Self::dense_columns) with the column list cut
    /// into contiguous shards dispatched over `threads` pool workers
    /// (0 = auto), each running the serial panel loop with its own
    /// workspace into a disjoint column range of the output. Every
    /// column is the serial kernel's own bits, so the threaded
    /// materialization is bit-identical to
    /// [`dense_columns`](Self::dense_columns) for every thread count.
    pub fn dense_columns_threaded(&self, cols: &[usize], threads: usize) -> Mat {
        let n = self.n();
        let mut g = Mat::zeros(n, cols.len());
        let workers = subsparse_linalg::resolve_threads(threads).min(cols.len()).max(1);
        if workers <= 1 || n == 0 {
            self.fill_columns(cols, &mut g);
            return g;
        }
        let w = cols.len().div_ceil(workers);
        let shards = cols.len().div_ceil(w);
        let panels = exec::ShardSlices::new(g.data_mut(), n * w);
        let poisoned = exec::Executor::global().run(shards, &|k| {
            let shard = &cols[k * w..((k + 1) * w).min(cols.len())];
            let mut out = Mat::zeros(n, shard.len());
            self.fill_columns(shard, &mut out);
            // Safety: shard k alone writes panel k
            let panel = unsafe { panels.chunk(k) };
            panel.copy_from_slice(out.data());
        });
        if poisoned {
            // a shard's panel is suspect; materialization is a cold
            // path, so rebuild everything through the serial kernel
            // (bit-identical by construction)
            self.fill_columns(cols, &mut g);
        }
        g
    }

    /// The shared materialization core: writes `G(:, cols)` into the
    /// leading columns of `g`, 32 columns per blocked apply.
    fn fill_columns(&self, cols: &[usize], g: &mut Mat) {
        const PANEL: usize = 32;
        let n = self.n();
        let mut ws = ApplyWorkspace::new();
        let mut e = Mat::zeros(0, 0);
        let mut y = Mat::zeros(0, 0);
        let mut p0 = 0;
        while p0 < cols.len() {
            let p1 = (p0 + PANEL).min(cols.len());
            e.resize(n, p1 - p0);
            for ej in e.cols_mut() {
                ej.fill(0.0);
            }
            for (k, &j) in cols[p0..p1].iter().enumerate() {
                e.col_mut(k)[j] = 1.0;
            }
            self.apply_block_into(&e, &mut y, &mut ws);
            for k in p0..p1 {
                g.col_mut(k).copy_from_slice(y.col(k - p0));
            }
            p0 = p1;
        }
    }

    /// Drops entries of `Gw` with `|value| <= threshold` (thesis `Gwt`).
    pub fn thresholded(&self, threshold: f64) -> BasisRep {
        self.with_gw(self.gw.drop_below(threshold))
    }

    /// Saves the representation: the Matrix Market factors `<stem>.q.mtx`
    /// and `<stem>.gw.mtx` (the exchange format for handing the model to a
    /// circuit simulator), plus — when the representation serves through a
    /// fast wavelet transform — a `<stem>.fwt` side file carrying the
    /// block hierarchy, so a reloaded model keeps the `O(n·p)` serving
    /// path. Each file carries a [`FORMAT_VERSION`]-style tag and an
    /// FNV-1a-64 integrity digest in its header so corruption and future
    /// format changes are detected instead of silently misread;
    /// representations without a transform are stamped as format 1
    /// (digest comment included — pre-FWT readers skip it as an ordinary
    /// comment).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the files.
    pub fn save(&self, stem: &std::path::Path) -> std::io::Result<()> {
        // format 1 files stay readable by pre-FWT builds, so only claim
        // the current format when the fwt section is actually written
        let version_no = if self.fwt().is_some() { FORMAT_VERSION } else { 1 };
        let version = format!("subsparse basisrep format {version_no}");
        let write = |suffix: &str, m: &Csr| -> std::io::Result<()> {
            let mut canonical = Vec::new();
            subsparse_linalg::io::write_matrix_market_commented(m, &[&version], &mut canonical)?;
            std::fs::write(stem_path(stem, suffix), with_digest_line(&canonical))
        };
        write(".q.mtx", &self.q)?;
        write(".gw.mtx", &self.gw)?;
        let fwt_path = stem_path(stem, ".fwt");
        match self.fwt() {
            Some(fwt) => {
                let body = fwt.to_text();
                let digest = fnv1a64(body.as_bytes());
                let text = format!(
                    "subsparse basisrep fwt section {version_no}\n\
                     % subsparse digest fnv1a64 {digest:016x}\n{body}"
                );
                std::fs::write(fwt_path, text)?;
            }
            None => {
                // a stale side file from an earlier save would otherwise
                // be re-attached to mismatched factors on load
                match std::fs::remove_file(fwt_path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Loads a representation saved by [`save`](Self::save).
    ///
    /// Models carrying a `<stem>.fwt` section come back on the fast
    /// wavelet transform serving path; legacy (format 1) models without
    /// one load onto the explicit-CSR fallback. Integrity digests (format
    /// 3) are verified *before* any structural validation; files without
    /// a digest or version tag (older saves) skip those checks and load
    /// as before.
    ///
    /// An unusable `.fwt` side file — corrupt, truncated, from a newer
    /// format, or inconsistent with the factors — does **not** refuse the
    /// model: the factors alone are a complete representation, so the
    /// load *degrades* to the explicit-CSR serving path with a warning
    /// (and a bump of the `degraded_loads` trace counter) instead of
    /// failing. Only the factor files themselves are load-fatal.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelLoadError`] naming the offending file if either
    /// factor is missing, fails its digest, is truncated, is stamped with
    /// a format newer than [`FORMAT_VERSION`], does not parse, repeats an
    /// entry's coordinate, or `Q` states more rows or columns than it
    /// holds entries; and one naming both shapes if the factor shapes are
    /// mutually inconsistent. Both shape checks run before anything sized
    /// by a size line is allocated.
    pub fn load(stem: &std::path::Path) -> Result<BasisRep, ModelLoadError> {
        let read = |suffix: &str| -> Result<(String, Triplets), ModelLoadError> {
            let path = stem_path(stem, suffix);
            let file = path.display().to_string();
            let text = read_model_text(&path)?;
            // integrity before structure: a digest mismatch is reported
            // as corruption even when the damage also breaks the parse
            verify_digest(&file, &text)?;
            check_format_version(&file, &text)?;
            let t =
                subsparse_linalg::io::read_matrix_market(text.as_bytes()).map_err(|e| match e {
                    ReadMatrixError::Truncated { expected, got } => ModelLoadError::Truncated {
                        file: file.clone(),
                        detail: format!("size line promises {expected} entries, found {got}"),
                    },
                    other => {
                        ModelLoadError::Malformed { file: file.clone(), detail: other.to_string() }
                    }
                })?;
            Ok((file, t))
        };
        // each factor's shape is checked against the entries the files
        // hold before `to_csr` allocates row pointers for it, so a size
        // line cannot ask for more memory than its file's entries take:
        // every column of Q is a unit vector and every row carries a
        // contact's self-coupling, so Q holds an entry in each, and Gw is
        // as wide as Q
        let (q_file, q) = read(".q.mtx")?;
        if q.n_rows().max(q.n_cols()) > q.len() {
            return Err(ModelLoadError::Malformed {
                file: q_file,
                detail: format!(
                    "Q is stated as {}x{} but holds only {} entries; \
                     a change of basis needs one in every row and column",
                    q.n_rows(),
                    q.n_cols(),
                    q.len()
                ),
            });
        }
        let (gw_file, gw) = read(".gw.mtx")?;
        if q.n_cols() != gw.n_rows() || gw.n_rows() != gw.n_cols() {
            return Err(ModelLoadError::Structure {
                detail: format!(
                    "inconsistent factor shapes: Q is {}x{}, Gw is {}x{}",
                    q.n_rows(),
                    q.n_cols(),
                    gw.n_rows(),
                    gw.n_cols()
                ),
            });
        }
        // `to_csr` sums entries that share a coordinate; a saved model
        // never repeats one, so a merge means an edited file
        let entries = (q.len(), gw.len());
        let (q, gw) = (q.to_csr(), gw.to_csr());
        let factors = [(".q.mtx", q_file, &q, entries.0), (".gw.mtx", gw_file, &gw, entries.1)];
        for (suffix, file, csr, len) in factors {
            if csr.nnz() != len {
                return Err(repeated_coordinate(&stem_path(stem, suffix), file));
            }
        }
        match load_fwt_section(stem, &q) {
            Ok(Some(fwt)) => Ok(BasisRep::with_fwt(q, gw, fwt)),
            Ok(None) => Ok(BasisRep::new(q, gw)),
            Err(e) => {
                // the factors are intact, so degrade instead of refusing:
                // the explicit-CSR path serves the same operator, just
                // slower
                trace::add(trace::Counter::DegradedLoads, 1);
                eprintln!(
                    "warning: unusable fwt side file ({e}); \
                     serving this model through the explicit-CSR fallback path"
                );
                Ok(BasisRep::new(q, gw))
            }
        }
    }

    /// Thresholds `Gw` so its sparsity factor becomes (approximately)
    /// `target_factor`, returning the representation and the threshold
    /// used. The thesis picks thresholds "so that the sparsity will be
    /// approximately 6 times greater" than unthresholded (§3.7, §4.6).
    ///
    /// If the matrix is already sparser than the target, it is returned
    /// unchanged with threshold 0.
    pub fn thresholded_to_sparsity(&self, target_factor: f64) -> (BasisRep, f64) {
        let n = self.n() as f64;
        let target_nnz = ((n * n) / target_factor).round() as usize;
        if self.gw.nnz() <= target_nnz {
            return (self.clone(), 0.0);
        }
        let mut abs = self.gw.abs_values();
        abs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // keep the target_nnz largest entries
        let threshold = if target_nnz == 0 { abs[0] } else { abs[target_nnz - 1] };
        // drop strictly-below semantics: use the next value down as cut
        let cut = abs.get(target_nnz).copied().unwrap_or(0.0).max(
            // guard ties: dropping at exactly `threshold` keeps >= target
            threshold * (1.0 - 1e-12),
        );
        let cut = cut.min(threshold);
        (self.thresholded(cut), cut)
    }
}

/// The fused serving path: `FWT → Gw → FWT'` (tree-structured bases) or
/// `Q' → Gw → Q` (explicit-CSR fallback, transpose cached) through the
/// reusable workspace buffers, one vector or one panel at a time.
impl CouplingOp for BasisRep {
    fn n(&self) -> usize {
        self.q.n_rows()
    }

    fn nnz(&self) -> usize {
        // the values an apply actually traverses: the factored transform
        // when one is attached, the explicit Q otherwise
        self.fwt().map_or(self.q.nnz(), |f| f.stored()) + self.gw.nnz()
    }

    fn kind(&self) -> &'static str {
        if self.fwt().is_some() {
            "basis-rep-fwt"
        } else {
            "basis-rep"
        }
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64], ws: &mut ApplyWorkspace) {
        let _h = trace::time_hist(trace::Hist::ApplyVectorNs);
        let (wa, wb, wc) = ws.mats3();
        match &self.path {
            BasisPath::Fwt(fwt) => {
                // y doubles as the coefficient buffer: forward fills it,
                // the Gw product consumes it, and synthesis overwrites it
                wa.resize(fwt.scratch_len(), 1);
                wc.resize(fwt.scratch_len(), 1);
                wb.resize(self.gw.n_rows(), 1);
                fwt.forward_into(x, y, wa.col_mut(0), wc.col_mut(0));
                self.gw.matvec_into(y, wb.col_mut(0));
                fwt.inverse_into(wb.col(0), y, wa.col_mut(0), wc.col_mut(0));
            }
            BasisPath::Csr(qt) => {
                wa.resize(self.q.n_cols(), 1);
                wb.resize(self.gw.n_rows(), 1);
                qt.matvec_into(x, wa.col_mut(0));
                self.gw.matvec_into(wa.col(0), wb.col_mut(0));
                self.q.matvec_into(wb.col(0), y);
            }
        }
    }

    fn apply_block_into(&self, x: &Mat, y: &mut Mat, ws: &mut ApplyWorkspace) {
        let _h = trace::time_hist(trace::Hist::ApplyBlockNs);
        // the intermediate panels stay lane-major from the first stage to
        // the last, so no stage transposes
        let (wa, wb, wc) = ws.mats3();
        match &self.path {
            BasisPath::Fwt(fwt) => {
                let _s = trace::span("apply_block.basis-rep-fwt");
                fwt.forward_panel_into::<LaneMajor>(x, wa, wb, wc);
                {
                    let _gw = trace::span("rep.gw");
                    self.gw.matmul_panel_into::<LaneMajor, LaneMajor>(wa, wb);
                }
                fwt.inverse_panel_into::<LaneMajor>(wb, y, wa, wc);
            }
            BasisPath::Csr(qt) => {
                let _s = trace::span("apply_block.basis-rep");
                {
                    let _qt = trace::span("rep.qt");
                    qt.matmul_panel_into::<ColMajor, LaneMajor>(x, wa);
                }
                {
                    let _gw = trace::span("rep.gw");
                    self.gw.matmul_panel_into::<LaneMajor, LaneMajor>(wa, wb);
                }
                let _q = trace::span("rep.q");
                self.q.matmul_panel_into::<LaneMajor, ColMajor>(wb, y);
            }
        }
    }
}

/// `<stem><suffix>` as a path (stems are extensionless prefixes, so this
/// is plain string concatenation, not extension replacement).
fn stem_path(stem: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut path = stem.as_os_str().to_owned();
    path.push(suffix);
    std::path::PathBuf::from(path)
}

/// The [`ModelLoadError::Malformed`] of a factor file whose entries
/// repeat a coordinate, naming the first entry line that repeats an
/// earlier one. The file is scanned again only on this error path, so a
/// good model pays nothing for the check.
fn repeated_coordinate(path: &std::path::Path, file: String) -> ModelLoadError {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut seen = std::collections::HashMap::new();
    // entry lines follow the size line, the first line that is neither
    // blank nor a comment
    let entries = text.lines().enumerate().filter(|(_, l)| {
        let t = l.trim();
        !t.is_empty() && !t.starts_with('%')
    });
    let detail = entries.skip(1).find_map(|(idx, line)| {
        let mut f = line.split_whitespace().map(str::parse::<usize>);
        let (i, j) = (f.next()?.ok()?, f.next()?.ok()?);
        let first = seen.insert((i, j), idx + 1)?;
        Some(format!("entry on line {} repeats the coordinate ({i}, {j}) of line {first}", idx + 1))
    });
    let detail = detail.unwrap_or_else(|| "entries repeat a coordinate".into());
    ModelLoadError::Malformed { file, detail }
}

/// Reads a model file's bytes into text, with the two load failpoints
/// (`load.truncate`, `load.bitflip`) injected between the read and the
/// decode — exactly where a cut-off copy or bit rot would corrupt a real
/// artifact, upstream of every integrity check.
fn read_model_text(path: &std::path::Path) -> Result<String, ModelLoadError> {
    let file = path.display().to_string();
    let mut bytes =
        std::fs::read(path).map_err(|source| ModelLoadError::Io { file: file.clone(), source })?;
    if faults::enabled() {
        if faults::fire(faults::Failpoint::LoadTruncate) {
            bytes.truncate(bytes.len() / 2);
        }
        if faults::fire(faults::Failpoint::LoadBitflip) && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
        }
    }
    String::from_utf8(bytes)
        .map_err(|_| ModelLoadError::Malformed { file, detail: "not valid UTF-8".into() })
}

/// Inserts the `% subsparse digest fnv1a64 <hex>` integrity line after
/// the banner line of a canonical serialized file. The digest covers
/// every byte *except* the digest line itself, so verification hashes
/// the bytes on either side of that one line.
fn with_digest_line(canonical: &[u8]) -> Vec<u8> {
    let digest = fnv1a64(canonical);
    let line_end = canonical.iter().position(|&b| b == b'\n').map_or(canonical.len(), |p| p + 1);
    let mut out = Vec::with_capacity(canonical.len() + 48);
    out.extend_from_slice(&canonical[..line_end]);
    out.extend_from_slice(format!("% subsparse digest fnv1a64 {digest:016x}\n").as_bytes());
    out.extend_from_slice(&canonical[line_end..]);
    out
}

/// Parses a `% subsparse digest fnv1a64 <hex>` line (leading `%`/spaces
/// tolerated), returning the recorded digest.
fn parse_digest_line(line: &str) -> Option<u64> {
    let rest =
        line.trim().trim_start_matches(['%', ' ']).strip_prefix("subsparse digest fnv1a64 ")?;
    u64::from_str_radix(rest.trim(), 16).ok()
}

/// Verifies a file's integrity digest, when it carries one: the bytes
/// before and after the first digest line are hashed in place, and a
/// mismatch reported as [`ModelLoadError::Corrupt`]. Files without a
/// digest line (pre-format-3 saves) pass unverified, as they always did.
fn verify_digest(file: &str, text: &str) -> Result<(), ModelLoadError> {
    let mut start = 0;
    for seg in text.split_inclusive('\n') {
        if let Some(expected) = parse_digest_line(seg.trim_end()) {
            let (before, after) = (&text[..start], &text[start + seg.len()..]);
            let actual = fnv1a64_concat(&[before.as_bytes(), after.as_bytes()]);
            return if actual == expected {
                Ok(())
            } else {
                Err(ModelLoadError::Corrupt { file: file.into(), expected, actual })
            };
        }
        start += seg.len();
    }
    Ok(())
}

/// Validates the `subsparse basisrep format N` tag in a saved model file's
/// comment header. Untagged files pass (pre-tag writers); a tag newer than
/// [`FORMAT_VERSION`] is an error — better to refuse than to misread.
fn check_format_version(file: &str, text: &str) -> Result<(), ModelLoadError> {
    for line in text.lines().take_while(|l| l.starts_with('%') || l.trim().is_empty()) {
        let Some(tag) =
            line.trim_start_matches(['%', ' ']).strip_prefix("subsparse basisrep format ")
        else {
            continue;
        };
        let version: u8 = tag.trim().parse().map_err(|_| ModelLoadError::Malformed {
            file: file.into(),
            detail: format!("malformed basisrep format tag: {line:?}"),
        })?;
        if version > FORMAT_VERSION {
            return Err(ModelLoadError::Version { file: file.into(), version });
        }
        return Ok(());
    }
    Ok(())
}

/// Loads and validates the `.fwt` side section: header tag, integrity
/// digest (format 3 side files), structural parse, and consistency with
/// the `Q` factor. `Ok(None)` means no side file (a legacy model);
/// any `Err` is recoverable by the caller — the factors alone still
/// serve through the explicit-CSR path.
fn load_fwt_section(
    stem: &std::path::Path,
    q: &Csr,
) -> Result<Option<FastWaveletTransform>, ModelLoadError> {
    let path = stem_path(stem, ".fwt");
    let file = path.display().to_string();
    let text = match read_model_text(&path) {
        Err(ModelLoadError::Io { ref source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            return Ok(None)
        }
        other => other?,
    };
    let malformed = |detail: String| ModelLoadError::Malformed { file: file.clone(), detail };
    let (header, rest) = text.split_once('\n').unwrap_or((text.as_str(), ""));
    let tag = header
        .trim()
        .strip_prefix("subsparse basisrep fwt section ")
        .ok_or_else(|| malformed("fwt section is missing its header".into()))?;
    let version: u8 =
        tag.parse().map_err(|_| malformed(format!("malformed fwt tag {header:?}")))?;
    if version > FORMAT_VERSION {
        return Err(ModelLoadError::Version { file, version });
    }
    let body = if version >= 3 {
        // the digest line is mandatory from format 3 on
        let (digest_line, body) = rest
            .split_once('\n')
            .ok_or_else(|| malformed("fwt section ends at its header".into()))?;
        let expected = parse_digest_line(digest_line)
            .ok_or_else(|| malformed("fwt section is missing its digest line".into()))?;
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(ModelLoadError::Corrupt { file, expected, actual });
        }
        body
    } else {
        rest
    };
    let fwt = FastWaveletTransform::from_text(body).map_err(malformed)?;
    if fwt.n() != q.n_rows() || q.n_rows() != q.n_cols() {
        return Err(ModelLoadError::Structure {
            detail: format!(
                "fwt section is for {} contacts, but Q is {}x{}",
                fwt.n(),
                q.n_rows(),
                q.n_cols()
            ),
        });
    }
    Ok(Some(fwt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_rep() -> BasisRep {
        // Q = identity, Gw = small symmetric matrix
        let q = Csr::identity(3);
        let mut t = Triplets::new(3, 3);
        for (i, j, v) in [(0, 0, 2.0), (1, 1, 3.0), (2, 2, 4.0), (0, 1, -0.5), (1, 0, -0.5)] {
            t.push(i, j, v);
        }
        BasisRep::new(q, t.to_csr())
    }

    /// A hand-built 2-level transform on 4 contacts plus a matching
    /// explicit `Q` (materialized from the transform itself), for
    /// serialization tests.
    fn example_fwt_rep() -> BasisRep {
        use crate::fwt::{FwtLevel, FwtNode};
        let r = 0.5f64.sqrt();
        let mut blocks = Vec::new();
        for _ in 0..3 {
            blocks.extend_from_slice(&[r, r, r, -r]);
        }
        let node = |in_offset, out_offset, col_start, block_offset| FwtNode {
            in_offset,
            in_len: 2,
            v_cols: 1,
            w_cols: 1,
            out_offset,
            col_start,
            block_offset,
        };
        let levels = vec![
            FwtLevel { nodes: vec![node(0, 0, 2, 0), node(2, 1, 3, 4)], coeff_len: 2 },
            FwtLevel { nodes: vec![node(0, 0, 1, 8)], coeff_len: 1 },
        ];
        let fwt = FastWaveletTransform::from_parts(4, 1, levels, vec![0, 1, 2, 3], blocks).unwrap();
        // materialize Q column by column through the synthesis transform
        let mut qd = Mat::zeros(4, 4);
        let (mut s1, mut s2) = (vec![0.0; fwt.scratch_len()], vec![0.0; fwt.scratch_len()]);
        let mut e = vec![0.0; 4];
        for j in 0..4 {
            e[j] = 1.0;
            let mut col = vec![0.0; 4];
            fwt.inverse_into(&e, &mut col, &mut s1, &mut s2);
            qd.col_mut(j).copy_from_slice(&col);
            e[j] = 0.0;
        }
        let mut t = Triplets::new(4, 4);
        for (i, j, v) in [(0, 0, 2.0), (1, 1, 1.5), (2, 2, 3.0), (3, 3, 1.0), (0, 2, -0.25)] {
            t.push(i, j, v);
        }
        BasisRep::with_fwt(Csr::from_dense(&qd, 0.0), t.to_csr(), fwt)
    }

    #[test]
    fn apply_matches_dense() {
        let r = example_rep();
        let d = r.to_dense();
        let v = [1.0, 2.0, -1.0];
        let y1 = r.apply(&v);
        let y2 = d.matvec(&v);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn threshold_to_sparsity() {
        let r = example_rep();
        // 5 nonzeros now; target factor 3 -> 3 entries
        let (t, cut) = r.thresholded_to_sparsity(3.0);
        assert!(t.gw.nnz() <= 3);
        assert!(cut >= 0.5);
        // already sparse enough -> unchanged
        let (same, cut0) = r.thresholded_to_sparsity(1.0);
        assert_eq!(same.gw.nnz(), r.gw.nnz());
        assert_eq!(cut0, 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let r = example_rep();
        let dir = std::env::temp_dir().join("subsparse_rep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        r.save(&stem).unwrap();
        // fwt-less models stay on format 1 so pre-FWT readers accept
        // them; the integrity digest rides along as an ordinary comment
        let text = std::fs::read_to_string(dir.join("model.q.mtx")).unwrap();
        assert!(text.contains("subsparse basisrep format 1"));
        assert!(text.contains("subsparse digest fnv1a64 "));
        let back = BasisRep::load(&stem).unwrap();
        assert_eq!(back.q.nnz(), r.q.nnz());
        assert_eq!(back.gw.nnz(), r.gw.nnz());
        let (d1, d2) = (r.to_dense(), back.to_dense());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d1[(i, j)], d2[(i, j)]);
            }
        }
        std::fs::remove_file(dir.join("model.q.mtx")).ok();
        std::fs::remove_file(dir.join("model.gw.mtx")).ok();
    }

    #[test]
    fn load_rejects_newer_format_version() {
        let r = example_rep();
        let dir = std::env::temp_dir().join("subsparse_rep_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        r.save(&stem).unwrap();
        // stamp the q factor as a future format (dropping the digest
        // line, as a foreign editor would have to): load must refuse
        // with the typed Version error
        let q_path = dir.join("model.q.mtx");
        let bumped = std::fs::read_to_string(&q_path)
            .unwrap()
            .replace(
                "subsparse basisrep format 1",
                &format!("subsparse basisrep format {}", FORMAT_VERSION + 1),
            )
            .lines()
            .filter(|l| !l.contains("subsparse digest"))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&q_path, bumped).unwrap();
        let err = BasisRep::load(&stem).unwrap_err();
        assert!(
            matches!(err, ModelLoadError::Version { version, .. } if version == FORMAT_VERSION + 1),
            "{err}"
        );
        // editing the tag *without* refreshing the digest is corruption
        let stale = std::fs::read_to_string(dir.join("model.gw.mtx")).unwrap().replace(
            "subsparse basisrep format 1",
            &format!("subsparse basisrep format {}", FORMAT_VERSION + 1),
        );
        std::fs::write(dir.join("model.gw.mtx"), stale).unwrap();
        r.save(&stem).unwrap(); // restore q; gw rewritten clean too
                                // untagged, digest-less legacy files still load
        let legacy = std::fs::read_to_string(&q_path)
            .unwrap()
            .lines()
            .filter(|l| !l.contains("basisrep format") && !l.contains("subsparse digest"))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&q_path, legacy).unwrap();
        assert!(BasisRep::load(&stem).is_ok());
        std::fs::remove_file(q_path).ok();
        std::fs::remove_file(dir.join("model.gw.mtx")).ok();
    }

    #[test]
    fn digest_catches_payload_corruption() {
        let r = example_rep();
        let dir = std::env::temp_dir().join("subsparse_rep_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        r.save(&stem).unwrap();
        // flip one value digit in the gw payload: the digest must catch
        // it before the (still-parseable) matrix reaches validation
        let gw_path = dir.join("model.gw.mtx");
        let text = std::fs::read_to_string(&gw_path).unwrap();
        let tampered = text.replace("3.0", "8.0");
        assert_ne!(text, tampered, "fixture must contain the tampered value");
        std::fs::write(&gw_path, tampered).unwrap();
        let err = BasisRep::load(&stem).unwrap_err();
        assert!(matches!(err, ModelLoadError::Corrupt { .. }), "{err}");
        std::fs::remove_file(gw_path).ok();
        std::fs::remove_file(dir.join("model.q.mtx")).ok();
    }

    #[test]
    fn coupling_op_agrees_with_apply() {
        let r = example_rep();
        assert_eq!(CouplingOp::n(&r), 3);
        assert_eq!(CouplingOp::nnz(&r), r.q.nnz() + r.gw.nnz());
        assert_eq!(r.kind(), "basis-rep");
        let mut ws = ApplyWorkspace::new();
        let v = [1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        r.apply_into(&v, &mut y, &mut ws);
        assert_eq!(y, r.apply(&v));
    }

    #[test]
    fn fwt_save_load_roundtrip_keeps_fast_path() {
        let rep = example_fwt_rep();
        assert_eq!(rep.kind(), "basis-rep-fwt");
        let dir = std::env::temp_dir().join("subsparse_rep_fwt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        rep.save(&stem).unwrap();
        // format 2 stamped, fwt side file written
        let text = std::fs::read_to_string(dir.join("model.q.mtx")).unwrap();
        assert!(text.contains(&format!("subsparse basisrep format {FORMAT_VERSION}")), "{text}");
        assert!(dir.join("model.fwt").exists());
        let back = BasisRep::load(&stem).unwrap();
        assert!(back.fwt().is_some(), "loaded model must keep the fast path");
        // applies agree bit for bit (shortest-roundtrip f64 text)
        let x = [0.25, -1.0, 2.0, 0.5];
        assert_eq!(back.apply(&x), rep.apply(&x));
        // the fast path agrees with the explicit-CSR fallback
        let fallback = rep.without_fwt();
        assert_eq!(fallback.kind(), "basis-rep");
        for (a, b) in rep.apply(&x).iter().zip(fallback.apply(&x)) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        // re-saving without the transform demotes the model to format 1
        // and removes the stale side file
        fallback.save(&stem).unwrap();
        assert!(!dir.join("model.fwt").exists());
        let legacy = BasisRep::load(&stem).unwrap();
        assert!(legacy.fwt().is_none(), "legacy model must fall back to CSR");
        std::fs::remove_file(dir.join("model.q.mtx")).ok();
        std::fs::remove_file(dir.join("model.gw.mtx")).ok();
    }

    #[test]
    fn unusable_fwt_section_degrades_to_csr_fallback() {
        // an fwt side file that cannot be used — from a newer format,
        // corrupt, or structurally broken — must not refuse the model:
        // the factors are intact, so the load degrades to the
        // explicit-CSR serving path and still answers applies correctly
        let rep = example_fwt_rep();
        let dir = std::env::temp_dir().join("subsparse_rep_fwt_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        let x = [0.25, -1.0, 2.0, 0.5];
        let reference = rep.without_fwt().apply(&x);
        let expect_degraded = || {
            let back = BasisRep::load(&stem).expect("factors are intact, load must succeed");
            assert!(back.fwt().is_none(), "unusable side file must degrade to CSR");
            for (a, b) in back.apply(&x).iter().zip(&reference) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
            }
        };
        let fwt_path = dir.join("model.fwt");
        // future format version
        rep.save(&stem).unwrap();
        let saved = std::fs::read_to_string(&fwt_path).unwrap();
        let bumped = saved.replace(
            &format!("fwt section {FORMAT_VERSION}"),
            &format!("fwt section {}", FORMAT_VERSION + 1),
        );
        std::fs::write(&fwt_path, bumped).unwrap();
        expect_degraded();
        // corrupt body (digest mismatch)
        std::fs::write(&fwt_path, saved.replace("0.7", "0.9")).unwrap();
        expect_degraded();
        // structurally broken body behind a valid-looking pre-digest header
        std::fs::write(&fwt_path, "subsparse basisrep fwt section 2\n1 2 garbage").unwrap();
        expect_degraded();
        // and a healthy side file still comes back on the fast path
        rep.save(&stem).unwrap();
        assert!(BasisRep::load(&stem).unwrap().fwt().is_some());
        std::fs::remove_file(fwt_path).ok();
        std::fs::remove_file(dir.join("model.q.mtx")).ok();
        std::fs::remove_file(dir.join("model.gw.mtx")).ok();
    }

    #[test]
    fn dense_columns_subset() {
        let r = example_rep();
        let d = r.to_dense();
        let cols = r.dense_columns(&[2, 0]);
        for i in 0..3 {
            assert_eq!(cols[(i, 0)], d[(i, 2)]);
            assert_eq!(cols[(i, 1)], d[(i, 0)]);
        }
    }
}
