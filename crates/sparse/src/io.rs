//! Text I/O for sparse matrices.
//!
//! Two formats are supported:
//!
//! * **TSV triples** — one `row<TAB>col<TAB>value` line per stored entry,
//!   0-based indices.  This is the format the distributed generator writes
//!   (one file per "processor") and the format Graph500-style tooling
//!   ingests.
//! * **MatrixMarket coordinate** — the `%%MatrixMarket matrix coordinate`
//!   header followed by 1-based `row col value` lines, for interoperability
//!   with external sparse tooling.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::error::SparseError;

/// Write a COO matrix as 0-based TSV triples.
pub fn write_tsv<W: Write>(m: &CooMatrix<u64>, writer: W) -> Result<(), SparseError> {
    let mut w = BufWriter::new(writer);
    for (r, c, v) in m.iter() {
        writeln!(w, "{r}\t{c}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Read a COO matrix from 0-based TSV triples.
///
/// `nrows`/`ncols` give the declared dimensions; every index is validated
/// against them.  Blank lines and lines starting with `#` are ignored.
pub fn read_tsv<R: Read>(nrows: u64, ncols: u64, reader: R) -> Result<CooMatrix<u64>, SparseError> {
    let buf = BufReader::new(reader);
    let mut m = CooMatrix::new(nrows, ncols);
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |field: Option<&str>, what: &str| -> Result<u64, SparseError> {
            field
                .ok_or_else(|| SparseError::Parse {
                    line: idx + 1,
                    message: format!("missing {what}"),
                })?
                .parse::<u64>()
                .map_err(|e| SparseError::Parse {
                    line: idx + 1,
                    message: format!("bad {what}: {e}"),
                })
        };
        let r = parse_field(parts.next(), "row")?;
        let c = parse_field(parts.next(), "col")?;
        let v = match parts.next() {
            Some(field) => field.parse::<u64>().map_err(|e| SparseError::Parse {
                line: idx + 1,
                message: format!("bad value: {e}"),
            })?,
            None => 1,
        };
        m.push(r, c, v)?;
    }
    Ok(m)
}

/// Write a COO matrix to a file as TSV triples.
pub fn write_tsv_file(m: &CooMatrix<u64>, path: &Path) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    write_tsv(m, file)
}

/// Read a COO matrix from a TSV triple file.
pub fn read_tsv_file(nrows: u64, ncols: u64, path: &Path) -> Result<CooMatrix<u64>, SparseError> {
    let file = std::fs::File::open(path)?;
    read_tsv(nrows, ncols, file)
}

/// Write a COO matrix in MatrixMarket coordinate format (1-based indices).
pub fn write_matrix_market<W: Write>(m: &CooMatrix<u64>, writer: W) -> Result<(), SparseError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate integer general")?;
    writeln!(w, "% generated by kron-sparse")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a COO matrix from MatrixMarket coordinate format.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix<u64>, SparseError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    // Header / comments.
    let mut nnz = 0usize;
    let mut header_seen = false;
    let mut matrix: Option<CooMatrix<u64>> = None;
    let mut read_entries = 0usize;

    for (idx, line) in &mut lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if !header_seen {
            let mut parts = trimmed.split_whitespace();
            let parse = |p: Option<&str>, what: &str| -> Result<u64, SparseError> {
                p.ok_or_else(|| SparseError::Parse {
                    line: idx + 1,
                    message: format!("missing {what} in size line"),
                })?
                .parse::<u64>()
                .map_err(|e| SparseError::Parse {
                    line: idx + 1,
                    message: format!("bad {what}: {e}"),
                })
            };
            let nrows = parse(parts.next(), "rows")?;
            let ncols = parse(parts.next(), "cols")?;
            nnz = parse(parts.next(), "nnz")? as usize;
            matrix = Some(CooMatrix::with_capacity(nrows, ncols, nnz));
            header_seen = true;
            continue;
        }
        // lint:allow(no-expect) -- the Matrix Market header is parsed before any entry line, so the matrix exists
        let m = matrix.as_mut().expect("header parsed before entries");
        let mut parts = trimmed.split_whitespace();
        let parse = |p: Option<&str>, what: &str| -> Result<u64, SparseError> {
            p.ok_or_else(|| SparseError::Parse {
                line: idx + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| SparseError::Parse {
                line: idx + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let r = parse(parts.next(), "row")?;
        let c = parse(parts.next(), "col")?;
        let v = parts
            .next()
            .map(|s| s.parse::<u64>())
            .transpose()
            .map_err(|e| SparseError::Parse {
                line: idx + 1,
                message: format!("bad value: {e}"),
            })?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: idx + 1,
                message: "MatrixMarket indices are 1-based".into(),
            });
        }
        m.push(r - 1, c - 1, v.unwrap_or(1))?;
        read_entries += 1;
    }
    let m = matrix.ok_or(SparseError::Parse {
        line: 0,
        message: "missing size line".into(),
    })?;
    if read_entries != nnz {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("expected {nnz} entries, found {read_entries}"),
        });
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn sample() -> CooMatrix<u64> {
        CooMatrix::from_entries(4, 5, vec![(0, 1, 1), (2, 3, 7), (3, 0, 2)]).unwrap()
    }

    /// A scratch directory no other test thread or test process shares
    /// (process id plus a counter), removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("kron_sparse_io_test_{}_{id}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            ScratchDir(path)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn tsv_round_trip() {
        let m = sample();
        let mut buf = Vec::new();
        write_tsv(&m, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("2\t3\t7"));
        let back = read_tsv(4, 5, buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tsv_read_handles_comments_default_values_and_errors() {
        let text = "# comment line\n\n0 1\n1 2 9\n";
        let m = read_tsv(3, 3, text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get::<PlusTimes>(0, 1), 1);
        assert_eq!(m.get::<PlusTimes>(1, 2), 9);

        assert!(read_tsv(3, 3, "0\n".as_bytes()).is_err());
        assert!(read_tsv(3, 3, "a b c\n".as_bytes()).is_err());
        assert!(read_tsv(2, 2, "5 0 1\n".as_bytes()).is_err());
    }

    #[test]
    fn tsv_file_round_trip() {
        let dir = ScratchDir::new();
        let path = dir.0.join("sample.tsv");
        let m = sample();
        write_tsv_file(&m, &path).unwrap();
        let back = read_tsv_file(4, 5, &path).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn matrix_market_round_trip() {
        let m = sample();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("%%MatrixMarket"));
        assert!(text.contains("4 5 3"));
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn matrix_market_rejects_malformed_input() {
        assert!(read_matrix_market("%%header only\n".as_bytes()).is_err());
        assert!(read_matrix_market("2 2 1\n0 1 1\n".as_bytes()).is_err()); // 0-based index
        assert!(read_matrix_market("2 2 2\n1 1 1\n".as_bytes()).is_err()); // wrong count
    }
}
