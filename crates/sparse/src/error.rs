//! Error type shared by the sparse kernels.

use std::fmt;

/// Errors produced by sparse matrix construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An index was outside the declared matrix dimensions.
    IndexOutOfBounds {
        /// The offending row index.
        row: u64,
        /// The offending column index.
        col: u64,
        /// Declared number of rows.
        nrows: u64,
        /// Declared number of columns.
        ncols: u64,
    },
    /// Two operands had incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Dimensions of the left operand.
        left: (u64, u64),
        /// Dimensions of the right operand.
        right: (u64, u64),
    },
    /// A requested size exceeds a limit: the `u64` range (a Kronecker
    /// product's dimensions, a declared file length) or the caller's budget
    /// (a dense conversion).
    TooLarge {
        /// Human-readable description of what was being materialised.
        what: &'static str,
        /// The requested size.
        requested: u128,
    },
    /// A text record could not be parsed while reading a matrix.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O error (stringified to keep the error type `Clone`).
    Io(String),
    /// Stored and recomputed checksums of a file disagree: the bytes on disk
    /// are not the bytes that were written.
    ChecksumMismatch {
        /// The checksum recorded when the file was written.
        expected: u64,
        /// The checksum computed from the bytes actually read.
        actual: u64,
    },
    /// An edge stream broke the order its source declared for it — a
    /// column label behind the window a worker had already moved past, say.
    StreamOrder {
        /// Description of the broken promise.
        message: String,
    },
    /// An error annotated with the file it occurred in — multi-file readers
    /// wrap per-file failures so the caller learns *which* shard was bad.
    WithPath {
        /// The file the wrapped error occurred in.
        path: String,
        /// The underlying error.
        source: Box<SparseError>,
    },
}

impl SparseError {
    /// Annotate an error with the file it occurred in.  Already-annotated
    /// errors are returned unchanged so nested readers never double-wrap.
    pub fn with_path(path: &std::path::Path, source: SparseError) -> SparseError {
        match source {
            already @ SparseError::WithPath { .. } => already,
            source => SparseError::WithPath {
                path: path.display().to_string(),
                source: Box::new(source),
            },
        }
    }
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            SparseError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::TooLarge { what, requested } => {
                write!(f, "{what} too large to materialise: {requested}")
            }
            SparseError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::StreamOrder { message } => {
                write!(f, "edge stream out of its declared order: {message}")
            }
            SparseError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            SparseError::WithPath { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(err: std::io::Error) -> Self {
        SparseError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 6,
            nrows: 4,
            ncols: 4,
        };
        assert!(e.to_string().contains("(5, 6)"));
        let e = SparseError::DimensionMismatch {
            op: "spgemm",
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("spgemm"));
        let e = SparseError::TooLarge {
            what: "kron",
            requested: 1 << 80,
        };
        assert!(e.to_string().contains("kron"));
        let e = SparseError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn with_path_annotates_and_never_double_wraps() {
        let path = std::path::Path::new("/data/block_00003.kbkz");
        let inner = SparseError::Parse {
            line: 7,
            message: "bad magic".into(),
        };
        let wrapped = SparseError::with_path(path, inner.clone());
        assert!(wrapped.to_string().contains("block_00003.kbkz"));
        assert!(wrapped.to_string().contains("bad magic"));
        let rewrapped = SparseError::with_path(std::path::Path::new("/other"), wrapped.clone());
        assert_eq!(rewrapped, wrapped, "annotation must be idempotent");
    }

    #[test]
    fn checksum_mismatch_displays_both_sums_in_hex() {
        let e = SparseError::ChecksumMismatch {
            expected: 0xdead,
            actual: 0xbeef,
        };
        let text = e.to_string();
        assert!(text.contains("0x000000000000dead"), "{text}");
        assert!(text.contains("0x000000000000beef"), "{text}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
    }
}
