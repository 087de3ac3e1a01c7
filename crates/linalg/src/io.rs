//! Matrix Market I/O for sparse matrices.
//!
//! The extracted `Q` and `Gw` matrices are what downstream circuit
//! simulators consume; Matrix Market (`%%MatrixMarket matrix coordinate
//! real general`) is the lingua franca for moving them between tools.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::sparse::{Csr, Triplets};

/// Errors reading a Matrix Market file.
#[derive(Debug)]
pub enum ReadMatrixError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a coordinate real general Matrix Market file.
    UnsupportedFormat(String),
    /// Malformed header or entry line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An entry line addresses a coordinate outside the stated shape.
    IndexOutOfRange {
        /// 1-based line number of the offending entry.
        line: usize,
        /// The 1-based row index as written in the file.
        row: usize,
        /// The 1-based column index as written in the file.
        col: usize,
        /// The stated number of rows.
        n_rows: usize,
        /// The stated number of columns.
        n_cols: usize,
    },
    /// The file ends before all stated entries appear — a cut-off
    /// download or a partially written model.
    Truncated {
        /// Entries the size line promised.
        expected: usize,
        /// Entries actually present.
        got: usize,
    },
}

impl fmt::Display for ReadMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadMatrixError::Io(e) => write!(f, "i/o error: {e}"),
            ReadMatrixError::UnsupportedFormat(h) => {
                write!(f, "unsupported matrix market format: {h}")
            }
            ReadMatrixError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            ReadMatrixError::IndexOutOfRange { line, row, col, n_rows, n_cols } => {
                write!(
                    f,
                    "entry on line {line} addresses ({row}, {col}), \
                     outside the stated {n_rows}x{n_cols} shape"
                )
            }
            ReadMatrixError::Truncated { expected, got } => {
                write!(f, "file truncated: size line promises {expected} entries, found {got}")
            }
        }
    }
}

impl std::error::Error for ReadMatrixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadMatrixError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadMatrixError {
    fn from(e: io::Error) -> Self {
        ReadMatrixError::Io(e)
    }
}

/// Writes a CSR matrix in Matrix Market coordinate format (1-based
/// indices, full precision), with `comments` as extra `%`-prefixed lines
/// after the header — the carrier for format metadata such as the
/// `BasisRep` serialization version tag.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_matrix_market<W: Write>(m: &Csr, comments: &[&str], mut w: W) -> io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by subsparse")?;
    for c in comments {
        writeln!(w, "% {c}")?;
    }
    writeln!(w, "{} {} {}", m.n_rows(), m.n_cols(), m.nnz())?;
    for (i, j, v) in m.iter() {
        writeln!(w, "{} {} {v:.17e}", i + 1, j + 1)?;
    }
    Ok(())
}

/// Reads a coordinate real general Matrix Market file into triplets;
/// [`Triplets::to_csr`] sums duplicate entries, as the format allows.
///
/// Nothing sized by the size line is allocated here: the triplets grow
/// with the entry lines the file actually holds, and only `to_csr`
/// allocates the `n_rows + 1` row pointers, so a caller that knows more
/// about the matrix can check the stated shape against the entries
/// ([`Triplets::len`]) before converting.
///
/// # Errors
///
/// Returns an error on I/O failure, an unsupported header (only
/// `coordinate real general` and `coordinate real symmetric` are
/// handled), malformed content, or an entry count other than the size
/// line's: fewer entries are [`ReadMatrixError::Truncated`], a surplus
/// entry is a [`ReadMatrixError::Parse`] naming its line. Symmetric files
/// are expanded to full storage.
pub fn read_matrix_market<R: BufRead>(r: R) -> Result<Triplets, ReadMatrixError> {
    let mut lines = r.lines().enumerate();
    // header
    let (_, header) =
        lines.next().ok_or_else(|| ReadMatrixError::UnsupportedFormat("empty file".into()))?;
    let header = header?;
    let h = header.to_ascii_lowercase();
    let symmetric = if h.starts_with("%%matrixmarket matrix coordinate real general") {
        false
    } else if h.starts_with("%%matrixmarket matrix coordinate real symmetric") {
        true
    } else {
        return Err(ReadMatrixError::UnsupportedFormat(header));
    };
    // size line (skipping comments)
    let mut size: Option<(usize, usize, usize)> = None;
    let mut trips: Option<Triplets> = None;
    let mut remaining = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        match size {
            None => {
                if fields.len() != 3 {
                    return Err(ReadMatrixError::Parse {
                        line: idx + 1,
                        message: "size line must have three fields".into(),
                    });
                }
                let parse = |s: &str| -> Result<usize, ReadMatrixError> {
                    s.parse().map_err(|_| ReadMatrixError::Parse {
                        line: idx + 1,
                        message: format!("bad integer {s:?}"),
                    })
                };
                let (nr, nc, nnz) = (parse(fields[0])?, parse(fields[1])?, parse(fields[2])?);
                if nr > u32::MAX as usize || nc > u32::MAX as usize {
                    // `Triplets` stores indices as `u32`
                    return Err(ReadMatrixError::Parse {
                        line: idx + 1,
                        message: format!("dimensions {nr} x {nc} exceed the u32 index range"),
                    });
                }
                size = Some((nr, nc, nnz));
                trips = Some(Triplets::new(nr, nc));
                remaining = nnz;
            }
            Some((nr, nc, nnz)) => {
                if remaining == 0 {
                    return Err(ReadMatrixError::Parse {
                        line: idx + 1,
                        message: format!("entry beyond the {nnz} the size line states"),
                    });
                }
                if fields.len() != 3 {
                    return Err(ReadMatrixError::Parse {
                        line: idx + 1,
                        message: "entry line must have three fields".into(),
                    });
                }
                let i: usize = fields[0].parse().map_err(|_| ReadMatrixError::Parse {
                    line: idx + 1,
                    message: format!("bad row index {:?}", fields[0]),
                })?;
                let j: usize = fields[1].parse().map_err(|_| ReadMatrixError::Parse {
                    line: idx + 1,
                    message: format!("bad column index {:?}", fields[1]),
                })?;
                let v: f64 = fields[2].parse().map_err(|_| ReadMatrixError::Parse {
                    line: idx + 1,
                    message: format!("bad value {:?}", fields[2]),
                })?;
                if i == 0 || j == 0 || i > nr || j > nc {
                    return Err(ReadMatrixError::IndexOutOfRange {
                        line: idx + 1,
                        row: i,
                        col: j,
                        n_rows: nr,
                        n_cols: nc,
                    });
                }
                let t = trips.as_mut().expect("size parsed implies triplets");
                t.push(i - 1, j - 1, v);
                if symmetric && i != j {
                    t.push(j - 1, i - 1, v);
                }
                remaining -= 1;
            }
        }
    }
    match (size, remaining) {
        (Some(_), 0) => Ok(trips.expect("size parsed")),
        (Some((_, _, expected)), missing) => {
            Err(ReadMatrixError::Truncated { expected, got: expected - missing })
        }
        (None, _) => Err(ReadMatrixError::Parse { line: 0, message: "no size line".into() }),
    }
}

/// The 64-bit FNV-1a digest of a byte string — the integrity check the
/// `BasisRep` format 3 model files carry per section. FNV-1a is not
/// cryptographic; it is a fast, dependency-free detector for the failure
/// modes model artifacts actually meet (truncation, bit rot, partial
/// writes, editor mangling).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_concat(&[bytes])
}

/// [`fnv1a64`] of the concatenation of `parts`, without building it:
/// FNV-1a is a byte fold, so each part continues from the state the
/// previous one left.
pub fn fnv1a64_concat(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    #[test]
    fn roundtrip() {
        let dense = Mat::from_rows(&[&[1.5, 0.0, -2.25], &[0.0, 3.0e-7, 0.0]]);
        let m = Csr::from_dense(&dense, 0.0);
        let mut buf = Vec::new();
        write_matrix_market(&m, &[], &mut buf).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap().to_csr();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.n_cols(), 3);
        assert_eq!(back.nnz(), 3);
        let d = back.to_dense();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(d[(i, j)], dense[(i, j)]);
            }
        }
    }

    #[test]
    fn rejects_dimensions_beyond_u32_indices() {
        for size in ["4294967296 2 0", "2 4294967296 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(matches!(err, ReadMatrixError::Parse { line: 2, .. }), "{size}: {err}");
        }
    }

    #[test]
    fn reads_symmetric_files() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 -1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap().to_csr();
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 4.0);
        assert_eq!(d[(0, 1)], -1.0);
        assert_eq!(d[(1, 0)], -1.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_matrix_market("%%MatrixMarket matrix array real general\n".as_bytes()),
            Err(ReadMatrixError::UnsupportedFormat(_))
        ));
        // out-of-range index: typed, with the offending line number
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        match read_matrix_market(text.as_bytes()) {
            Err(ReadMatrixError::IndexOutOfRange { line, row, col, n_rows, n_cols }) => {
                assert_eq!((line, row, col, n_rows, n_cols), (3, 3, 1, 2, 2));
            }
            other => panic!("expected IndexOutOfRange, got {other:?}"),
        }
        // malformed entry line: typed, with the offending line number
        let text = "%%MatrixMarket matrix coordinate real general\n% pad\n2 2 1\n1 one 1.0\n";
        match read_matrix_market(text.as_bytes()) {
            Err(ReadMatrixError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("one"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_reports_missing_entries() {
        // round-trip through a truncated copy: cut the serialized file
        // after the first entry and the reader must say exactly what is
        // missing instead of returning a silently short matrix
        let dense = Mat::from_rows(&[&[1.0, -2.0], &[3.5, 0.25]]);
        let mut buf = Vec::new();
        write_matrix_market(&Csr::from_dense(&dense, 0.0), &[], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let keep: Vec<&str> = text.lines().collect();
        // header + comment + size line + first entry only
        let cut = keep[..4].join("\n");
        match read_matrix_market(cut.as_bytes()) {
            Err(ReadMatrixError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (4, 1));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // the intact text still round-trips
        assert_eq!(read_matrix_market(text.as_bytes()).unwrap().to_csr().nnz(), 4);
    }

    #[test]
    fn surplus_entry_is_a_parse_error_naming_its_line() {
        // one entry more than the size line states: refused, not summed
        // into the matrix
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n\
                    1 1 4.0\n\
                    1 1 1.0e3\n";
        match read_matrix_market(text.as_bytes()) {
            Err(ReadMatrixError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("beyond the 1"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // trailing comments and blank lines are not entries
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 4.0\n% end\n\n";
        assert_eq!(read_matrix_market(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        // reference vectors from the FNV-1a specification
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        // a single flipped bit changes the digest
        assert_ne!(fnv1a64(b"1 2 3.0\n"), fnv1a64(b"1 2 3.1\n"));
        // split anywhere, the parts hash as their concatenation
        let text = b"%%MatrixMarket\n2 2 1\n1 1 4.0\n";
        for cut in 0..=text.len() {
            let (a, b) = text.split_at(cut);
            assert_eq!(fnv1a64_concat(&[a, b]), fnv1a64(text), "cut at {cut}");
        }
        assert_eq!(fnv1a64_concat(&[]), fnv1a64(b""));
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Csr::zeros(3, 4);
        let mut buf = Vec::new();
        write_matrix_market(&m, &[], &mut buf).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap().to_csr();
        assert_eq!(back.nnz(), 0);
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.n_cols(), 4);
    }
}
