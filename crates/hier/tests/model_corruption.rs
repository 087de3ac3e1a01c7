//! The corruption matrix: systematically damage every region of a saved
//! model artifact — factor headers, digest lines, payloads, the `.fwt`
//! side file, truncations at many cut points — and assert the loader's
//! contract everywhere:
//!
//! * factor damage surfaces as a **typed [`ModelLoadError`]**, never a
//!   panic and never a silently wrong model (any payload byte flip is
//!   caught by the integrity digest);
//! * side-file damage **degrades** the model to the explicit-CSR serving
//!   path instead of refusing it;
//! * damage that keeps a valid digest (the file re-stamped after the
//!   edit) is caught by the structural validation behind the digest, with
//!   the same two outcomes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::rep::ModelLoadError;
use subsparse_hier::{BasisRep, FastWaveletTransform};
use subsparse_linalg::io::fnv1a64;
use subsparse_linalg::{trace, Csr, Triplets};

fn example_rep(n: usize) -> BasisRep {
    assert!(n.is_power_of_two());
    let r = 0.5f64.sqrt();
    let mut blocks = Vec::new();
    let mut levels = Vec::new();
    let mut m = n;
    while m >= 2 {
        let half = m / 2;
        let base = blocks.len();
        let nodes = (0..half)
            .map(|s| FwtNode {
                in_offset: 2 * s,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: s,
                col_start: half + s,
                block_offset: base + 4 * s,
            })
            .collect();
        for _ in 0..half {
            blocks.extend_from_slice(&[r, r, r, -r]);
        }
        levels.push(FwtLevel { nodes, coeff_len: half });
        m = half;
    }
    let fwt = FastWaveletTransform::from_parts(n, 1, levels, (0..n as u32).collect(), blocks)
        .expect("valid transform");
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 + (i % 5) as f64 * 0.25);
        t.push(i, (i + 1) % n, -0.3);
    }
    BasisRep::with_fwt(Csr::identity(n), t.to_csr(), fwt)
}

struct Fixture {
    dir: PathBuf,
    stem: PathBuf,
    rep: BasisRep,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("subsparse_corruption_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        let rep = example_rep(16);
        rep.save(&stem).unwrap();
        Fixture { dir, stem, rep }
    }

    fn path(&self, suffix: &str) -> PathBuf {
        self.dir.join(format!("model{suffix}"))
    }

    fn restore(&self) {
        self.rep.save(&self.stem).unwrap();
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for suffix in [".q.mtx", ".gw.mtx", ".fwt"] {
            std::fs::remove_file(self.path(suffix)).ok();
        }
    }
}

/// Runs a load, converting any escaped panic into a test failure that
/// names the scenario.
fn load_no_panic(stem: &Path, scenario: &str) -> Result<BasisRep, ModelLoadError> {
    catch_unwind(AssertUnwindSafe(|| BasisRep::load(stem)))
        .unwrap_or_else(|_| panic!("load panicked on {scenario}"))
}

/// Held by every test that degrades a load, so the one that counts
/// `degraded_loads` sees only its own.
static DEGRADING_LOADS: Mutex<()> = Mutex::new(());

fn degrading_loads() -> MutexGuard<'static, ()> {
    DEGRADING_LOADS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Line `line` of `text` (0-based) with field `field` replaced by
/// `value`.
fn with_field(text: &str, line: usize, field: usize, value: &str) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    let mut fields: Vec<&str> = lines[line].split_whitespace().collect();
    fields[field] = value;
    lines[line] = fields.join(" ");
    lines.join("\n")
}

/// Rewrites a Matrix Market factor with `field` of its size line set to
/// `value`, re-stamping the digest (which covers every line but its own)
/// so the damage reaches the parser.
fn restamp_mtx_size(path: &Path, field: usize, value: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let canonical: String =
        text.split_inclusive('\n').filter(|l| !l.contains("subsparse digest fnv1a64")).collect();
    let size_line = canonical.lines().position(|l| !l.starts_with('%')).unwrap();
    let edited = with_field(&canonical, size_line, field, value);
    let (banner, rest) = edited.split_once('\n').unwrap();
    let digest = fnv1a64(edited.as_bytes());
    std::fs::write(path, format!("{banner}\n% subsparse digest fnv1a64 {digest:016x}\n{rest}"))
        .unwrap();
}

/// Rewrites the `.fwt` side file with `field` of body line `line` set to
/// `value`, re-stamping the digest (which covers the body after the
/// header and digest lines).
fn restamp_fwt(path: &Path, line: usize, field: usize, value: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut parts = text.splitn(3, '\n');
    let (header, _digest, body) = (parts.next().unwrap(), parts.next(), parts.next().unwrap());
    let body = with_field(body, line, field, value);
    let digest = fnv1a64(body.as_bytes());
    std::fs::write(path, format!("{header}\n% subsparse digest fnv1a64 {digest:016x}\n{body}"))
        .unwrap();
}

/// The byte range of the digest comment line, so flip sweeps can tell
/// self-identifying damage (digest line) from payload damage.
fn digest_line_range(bytes: &[u8]) -> std::ops::Range<usize> {
    let text = std::str::from_utf8(bytes).unwrap();
    let mut start = 0usize;
    for line in text.split_inclusive('\n') {
        if line.contains("subsparse digest fnv1a64") {
            // include the newline ending the previous line: flipping it
            // merges the digest line into its predecessor, which also
            // only disables the self-check
            return start.saturating_sub(1)..start + line.len();
        }
        start += line.len();
    }
    panic!("fixture must carry a digest line");
}

#[test]
fn factor_byte_flips_are_always_typed_errors() {
    let fx = Fixture::new("flips");
    for suffix in [".q.mtx", ".gw.mtx"] {
        let path = fx.path(suffix);
        let pristine = std::fs::read(&path).unwrap();
        let digest_range = digest_line_range(&pristine);
        let step = (pristine.len() / 60).max(1);
        for pos in (0..pristine.len()).step_by(step) {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 0x08;
            std::fs::write(&path, &damaged).unwrap();
            let scenario = format!("{suffix} byte {pos} flipped");
            match load_no_panic(&fx.stem, &scenario) {
                Err(_) => {}
                Ok(_) if digest_range.contains(&pos) => {
                    // damaging the digest line itself can only disable
                    // the self-check (legacy semantics), never corrupt
                    // the verified payload
                }
                Ok(_) => panic!("undetected corruption: {scenario}"),
            }
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(fx.rep.fwt().is_some());
    assert!(load_no_panic(&fx.stem, "pristine").is_ok());
}

#[test]
fn factor_truncations_are_always_typed_errors() {
    let fx = Fixture::new("truncate");
    for suffix in [".q.mtx", ".gw.mtx"] {
        let path = fx.path(suffix);
        let pristine = std::fs::read(&path).unwrap();
        // cut at a spread of points: inside the header, mid-payload, the
        // final byte, and the empty file
        let mut cuts: Vec<usize> = (0..8).map(|k| pristine.len() * k / 8).collect();
        cuts.push(pristine.len() - 1);
        for cut in cuts {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let scenario = format!("{suffix} truncated to {cut} bytes");
            assert!(
                load_no_panic(&fx.stem, &scenario).is_err(),
                "truncation must be detected: {scenario}"
            );
        }
        // a missing factor file is a typed I/O error
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_no_panic(&fx.stem, "missing factor"),
            Err(ModelLoadError::Io { .. })
        ));
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(load_no_panic(&fx.stem, "pristine").is_ok());
}

#[test]
fn side_file_damage_degrades_instead_of_refusing() {
    let _serial = degrading_loads();
    let fx = Fixture::new("sidefile");
    let path = fx.path(".fwt");
    let pristine = std::fs::read(&path).unwrap();

    // byte flips anywhere in the side file: the model always loads; a
    // flip the digest still catches demotes it to the CSR fallback
    let step = (pristine.len() / 60).max(1);
    for pos in (0..pristine.len()).step_by(step) {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x08;
        std::fs::write(&path, &damaged).unwrap();
        let scenario = format!(".fwt byte {pos} flipped");
        let back = load_no_panic(&fx.stem, &scenario)
            .unwrap_or_else(|e| panic!("side-file damage must degrade, not refuse: {e}"));
        drop(back);
    }

    // truncations: same degradation contract
    for cut in (0..8).map(|k| pristine.len() * k / 8) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let scenario = format!(".fwt truncated to {cut} bytes");
        let back = load_no_panic(&fx.stem, &scenario)
            .unwrap_or_else(|e| panic!("side-file truncation must degrade, not refuse: {e}"));
        assert!(back.fwt().is_none(), "{scenario} must drop the fast path");
    }

    // a deleted side file is the legacy layout: CSR fallback, no error
    std::fs::remove_file(&path).unwrap();
    assert!(load_no_panic(&fx.stem, "missing side file").unwrap().fwt().is_none());

    fx.restore();
    assert!(load_no_panic(&fx.stem, "pristine").unwrap().fwt().is_some());
}

#[test]
fn restamped_fwt_offsets_near_usize_max_degrade() {
    let _serial = degrading_loads();
    let fx = Fixture::new("fwt_overflow");
    let path = fx.path(".fwt");
    let huge = |d: usize| (usize::MAX - d).to_string();
    // body line 2 is the first node of the finest level: in_offset
    // in_len v_cols w_cols out_offset col_start block_offset; each value
    // makes an unchecked sum or product in the validation wrap
    for (field, value, what) in [
        (6, huge(3), "block_offset"),
        (5, huge(0), "col_start"),
        (2, huge(0), "v_cols"),
        (1, huge(0), "in_len"),
    ] {
        fx.restore();
        restamp_fwt(&path, 2, field, &value);
        let scenario = format!(".fwt {what} = {value}, digest re-stamped");
        trace::set_enabled(true);
        let before = trace::counter(trace::Counter::DegradedLoads);
        let back = load_no_panic(&fx.stem, &scenario);
        let degraded = trace::counter(trace::Counter::DegradedLoads) - before;
        trace::set_enabled(false);
        let back = back.unwrap_or_else(|e| panic!("{scenario} must degrade, not refuse: {e}"));
        assert!(back.fwt().is_none(), "{scenario} must drop the fast path");
        assert_eq!(degraded, 1, "{scenario} must count one degraded load");
    }
    fx.restore();
    assert!(load_no_panic(&fx.stem, "pristine").unwrap().fwt().is_some());
}

#[test]
fn restamped_factor_dimensions_beyond_u32_are_typed_errors() {
    let fx = Fixture::new("mtx_dims");
    for (suffix, field) in [(".gw.mtx", 0), (".gw.mtx", 1), (".q.mtx", 0), (".q.mtx", 1)] {
        fx.restore();
        restamp_mtx_size(&fx.path(suffix), field, "4294967296");
        let scenario = format!("{suffix} size field {field} = 2^32, digest re-stamped");
        match load_no_panic(&fx.stem, &scenario) {
            Err(ModelLoadError::Malformed { file, .. }) => assert!(file.ends_with(suffix)),
            other => panic!("{scenario}: expected a typed Malformed error, got {other:?}"),
        }
    }
    fx.restore();
    assert!(load_no_panic(&fx.stem, "pristine").is_ok());
}
