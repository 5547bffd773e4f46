//! The on-disk shard formats: layout constants, checksums, and readers.
//!
//! The natural on-disk form of a distributed Kronecker graph is one file per
//! worker — exactly what a distributed file system would hold after the
//! paper's generation run.  The shard sinks ([`crate::sink`]) write the
//! files; this module owns what a file looks like and how it is read back:
//!
//! * **TSV triples** (`block_<p>.tsv`) — the interchange format
//!   Graph500-style tooling ingests, one `row<TAB>col<TAB>1` line per edge.
//! * **Compact binary** (`block_<p>.kbk`, `block_<p>.kbkz`) — a fixed
//!   little-endian header (magic, version, dimensions, edge count, and from
//!   v3 on a payload checksum) followed by the edges: split row/column
//!   arrays (v1), interleaved pairs (v2/v3, 16 bytes per edge), or
//!   delta/varint frames (v4).  [`read_block_bin`] reads every version
//!   through the checked bulk COO APIs.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_core::CoreError;
use kron_sparse::io::read_tsv_file;
use kron_sparse::{CooMatrix, SparseError};

/// Magic bytes opening a binary block file.
pub const BLOCK_MAGIC: [u8; 4] = *b"KBLK";
/// Version of the binary block layout with split row/column arrays: all
/// `nnz` row indices, then all `nnz` column indices.  Read-only — no writer
/// in this crate produces it any more.
pub const BLOCK_VERSION: u32 = 1;
/// Version of the binary block layout with interleaved `(row, col)` pairs —
/// the streaming shard layout: edges append sequentially as they are
/// generated, and only the header's count is patched at the end, so a shard
/// never has to be buffered in memory.  Read-only since the checksummed v3
/// replaced it.
pub const BLOCK_VERSION_PAIRS: u32 = 2;
/// Version of the binary block layout with interleaved pairs **and** an
/// FNV-1a checksum of the payload appended to the header.  The shard sinks
/// write this version; the checksum (like the count) is patched in at
/// `finish()`, and every reader verifies it so a flipped byte on disk is
/// caught before the shard is trusted (see
/// [`crate::sink::BinaryShardSink`]).
pub const BLOCK_VERSION_CHECKSUM: u32 = 3;
/// Version of the binary block layout with a delta/varint-compressed
/// payload: the edges arrive in [`crate::codec`] frames (each up to
/// [`crate::codec::FRAME_EDGES`] edges, zigzag-encoded deltas between
/// consecutive endpoints), so a generated stream with locality costs a few
/// bytes per edge instead of 16.  The header keeps the v3 fields and adds
/// the payload byte length — with variable-width frames the edge count no
/// longer determines the file size, so truncation detection needs the
/// length spelled out (see [`crate::sink::CompressedShardSink`]).
pub const BLOCK_VERSION_COMPRESSED: u32 = 4;
/// Size in bytes of the binary block header (magic, version, dimensions,
/// entry count) shared by the v1/v2 layout versions.
pub const BLOCK_HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 8;
/// Size in bytes of the v3 ([`BLOCK_VERSION_CHECKSUM`]) header: the shared
/// fields followed by the `u64` payload checksum.  The checksum is appended
/// *after* the entry count so the count stays at the same offset in every
/// version.
pub const BLOCK_HEADER_CHECKSUM_LEN: u64 = BLOCK_HEADER_LEN + 8;
/// Size in bytes of the v4 ([`BLOCK_VERSION_COMPRESSED`]) header: the
/// shared fields, then the payload byte length, then the payload checksum —
/// count and checksum keep their meaning from v3, and the payload length is
/// inserted before the checksum so every fixed-width field sits at a
/// version-independent offset from either end of the header.
pub const BLOCK_HEADER_COMPRESSED_LEN: u64 = BLOCK_HEADER_LEN + 8 + 8;

/// Streaming 64-bit FNV-1a hasher — the checksum every shard carries.
///
/// FNV-1a is not cryptographic; it is a fast, dependency-free integrity
/// check that reliably catches the corruption modes a crash or a bad disk
/// produces (flipped bytes, truncation combined with the length check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hash.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = *self;
        for &byte in bytes {
            hash.absorb(byte);
        }
        *self = hash;
    }

    /// Absorb one byte — the step the codec and TSV loops run on each byte
    /// as they produce or consume it, so the serial xor→multiply chain
    /// hides behind their work instead of costing a second pass.
    #[inline(always)]
    pub(crate) fn absorb(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
    }

    /// The hash of everything absorbed so far (non-consuming — more bytes
    /// may still be absorbed afterwards).
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Hash a complete byte slice in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.update(bytes);
        hasher.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// On-disk format of a block file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockFormat {
    /// `row<TAB>col<TAB>value` text triples.
    Tsv,
    /// The compact binary layout ([`BLOCK_VERSION_CHECKSUM`]: values are
    /// not stored — a generated block is an unweighted pattern — which is
    /// what makes the format 16 bytes per edge).
    Binary,
    /// The delta/varint-compressed binary layout
    /// ([`BLOCK_VERSION_COMPRESSED`]).
    Compressed,
}

impl BlockFormat {
    /// Every format a file terminal can write.
    pub(crate) const ALL: [Self; 3] = [Self::Tsv, Self::Binary, Self::Compressed];

    /// The sink kind a run of this format records in its manifest and
    /// progress journal.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BlockFormat::Tsv => "tsv",
            BlockFormat::Binary => "binary",
            BlockFormat::Compressed => "compressed",
        }
    }

    /// The file extension of this format's shards.
    pub(crate) fn extension(self) -> &'static str {
        match self {
            BlockFormat::Tsv => "tsv",
            BlockFormat::Binary => "kbk",
            BlockFormat::Compressed => "kbkz",
        }
    }

    /// The format recorded under sink kind `label`, or `None` when the label
    /// names a terminal that leaves no shard files.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|format| format.label() == label)
    }
}

/// The files produced by one of the pipeline's file terminals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockFileSet {
    /// Directory containing the block files.
    pub directory: PathBuf,
    /// One file per worker, in worker order.
    pub files: Vec<PathBuf>,
    /// Vertex count of the graph the files describe.
    pub vertices: u64,
    /// Format every file in the set is written in.
    pub format: BlockFormat,
}

impl BlockFileSet {
    /// Read every block file back and assemble the full adjacency matrix.
    ///
    /// A failure names the shard it occurred in
    /// ([`SparseError::WithPath`]), so a corrupt file in a large set is
    /// identifiable from the error alone.
    pub fn read_assembled(&self) -> Result<CooMatrix<u64>, CoreError> {
        let mut all = CooMatrix::new(self.vertices, self.vertices);
        for file in &self.files {
            let block = match self.format {
                BlockFormat::Tsv => read_tsv_file(self.vertices, self.vertices, file),
                // Both binary layouts carry their version in the header, so
                // one reader serves them; the format only picks the writer.
                BlockFormat::Binary | BlockFormat::Compressed => read_block_bin(file),
            }
            .map_err(|e| SparseError::with_path(file, e))?;
            all.append(&block)
                .map_err(|e| SparseError::with_path(file, e))?;
        }
        Ok(all)
    }
}

/// Create `directory` and name one shard of `format` per worker inside it.
pub(crate) fn prepare_directory(
    directory: &Path,
    workers: usize,
    format: BlockFormat,
) -> Result<Vec<PathBuf>, CoreError> {
    std::fs::create_dir_all(directory)
        .map_err(|e| CoreError::Sparse(SparseError::Io(e.to_string())))?;
    let extension = format.extension();
    Ok((0..workers)
        .map(|worker| directory.join(format!("block_{worker:05}.{extension}")))
        .collect())
}

/// The two ASCII digits of every value below 100, so the decimal writer
/// spends one division per two digits.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Most decimal digits of a `u64`.
const DIGITS_MAX: usize = 20;

/// Longest TSV line: two endpoints, two tabs, the `1`, the newline.
const TSV_LINE_MAX: usize = 2 * DIGITS_MAX + 4;

/// Bytes formatted between writes.  The tile lives on the stack and stays
/// in L1; a chunk-sized scratch (worst case 44 bytes an edge) would show in
/// the run's peak RSS.
const TSV_TILE: usize = 4096;

/// Write `value` in decimal at `tile[at..]`, returning the end offset.
#[inline(always)]
fn put_decimal(tile: &mut [u8], at: usize, mut value: u64) -> usize {
    // Digits come out least significant first: fill a field from its right
    // edge, then move the used part down to `at`.
    let mut field = [0u8; DIGITS_MAX];
    let mut left = DIGITS_MAX;
    while value >= 100 {
        let pair = 2 * (value % 100) as usize;
        value /= 100;
        left -= 2;
        field[left..left + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = 2 * value as usize;
        left -= 2;
        field[left..left + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        left -= 1;
        field[left] = b'0' + value as u8;
    }
    let end = at + DIGITS_MAX - left;
    tile[at..end].copy_from_slice(&field[left..]);
    end
}

/// Write one chunk of pattern edges in the TSV triple format
/// (`row<TAB>col<TAB>1`) — the single definition of the line layout shared
/// by every TSV emitter (and matched by the reader behind
/// [`BlockFileSet::read_assembled`]) — with the shard checksum riding
/// along: `hasher` absorbs exactly the bytes written, in order.
///
/// Lines are formatted two digits per division into a small stack tile,
/// and each line is hashed as soon as it is formatted, so the serial FNV-1a
/// chain of one line overlaps the divisions of the next instead of costing
/// a second pass over the text.
pub fn write_tsv_edges(
    writer: &mut impl Write,
    edges: &[(u64, u64)],
    hasher: &mut Fnv1a,
) -> Result<(), std::io::Error> {
    // One longest line of slack, so a line is never split.
    let mut tile = [0u8; TSV_TILE + TSV_LINE_MAX];
    let mut filled = 0usize;
    for &(row, col) in edges {
        let line = filled;
        filled = put_decimal(&mut tile, filled, row);
        tile[filled] = b'\t';
        filled = put_decimal(&mut tile, filled + 1, col);
        tile[filled..filled + 3].copy_from_slice(b"\t1\n");
        filled += 3;
        hasher.update(&tile[line..filled]);
        if filled >= TSV_TILE {
            writer.write_all(&tile[..filled])?;
            filled = 0;
        }
    }
    writer.write_all(&tile[..filled])
}

/// The validated header of a binary block file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockHeader {
    /// Layout version ([`BLOCK_VERSION`], [`BLOCK_VERSION_PAIRS`] or
    /// [`BLOCK_VERSION_CHECKSUM`]).
    pub version: u32,
    /// Declared number of rows.
    pub nrows: u64,
    /// Declared number of columns.
    pub ncols: u64,
    /// Declared number of stored entries.
    pub nnz: u64,
    /// Declared payload byte length — present only for
    /// [`BLOCK_VERSION_COMPRESSED`] files, whose body size is not a
    /// function of the entry count.
    pub payload_len: Option<u64>,
    /// FNV-1a checksum of the payload — present from
    /// [`BLOCK_VERSION_CHECKSUM`] on; `None` for v1/v2 files.
    pub checksum: Option<u64>,
}

/// Read and validate the shared binary block header — magic, version, and
/// the declared entry count against the actual file length (both layouts
/// store 16 bytes per edge after the header), so a corrupt header fails
/// cleanly before anything is allocated or streamed from it.  The single
/// owner of the header format, shared by the materialising reader
/// ([`read_block_bin`]) and the streaming replay source.
pub(crate) fn read_block_header(
    file_len: u64,
    reader: &mut impl Read,
) -> Result<BlockHeader, SparseError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != BLOCK_MAGIC {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("bad block magic {magic:?}, expected {BLOCK_MAGIC:?}"),
        });
    }
    let mut version = [0u8; 4];
    reader.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != BLOCK_VERSION
        && version != BLOCK_VERSION_PAIRS
        && version != BLOCK_VERSION_CHECKSUM
        && version != BLOCK_VERSION_COMPRESSED
    {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("unsupported block version {version}"),
        });
    }
    let mut header = [0u8; 24];
    reader.read_exact(&mut header)?;
    // lint:allow(panic-reachability) -- le_u64's 8-byte contract holds: fixed slices of the 24-byte header
    let nrows = le_u64(&header[0..8]);
    // lint:allow(panic-reachability) -- le_u64's 8-byte contract holds: fixed slices of the 24-byte header
    let ncols = le_u64(&header[8..16]);
    // lint:allow(panic-reachability) -- le_u64's 8-byte contract holds: fixed slices of the 24-byte header
    let nnz = le_u64(&header[16..24]);
    let payload_len = if version == BLOCK_VERSION_COMPRESSED {
        let mut len = [0u8; 8];
        reader.read_exact(&mut len)?;
        Some(u64::from_le_bytes(len))
    } else {
        None
    };
    let checksum = if version == BLOCK_VERSION_CHECKSUM || version == BLOCK_VERSION_COMPRESSED {
        let mut sum = [0u8; 8];
        reader.read_exact(&mut sum)?;
        Some(u64::from_le_bytes(sum))
    } else {
        None
    };
    let expected_len = if let Some(payload) = payload_len {
        // A compressed body's size is its declared byte length, not a
        // function of the entry count.
        payload
            .checked_add(BLOCK_HEADER_COMPRESSED_LEN)
            .ok_or(SparseError::TooLarge {
                what: "compressed block payload length",
                requested: payload as u128,
            })?
    } else {
        let header_len = if checksum.is_some() {
            BLOCK_HEADER_CHECKSUM_LEN
        } else {
            BLOCK_HEADER_LEN
        };
        nnz.checked_mul(16)
            .and_then(|body| body.checked_add(header_len))
            .ok_or(SparseError::TooLarge {
                what: "binary block entry count",
                requested: nnz as u128,
            })?
    };
    if expected_len != file_len {
        return Err(SparseError::Parse {
            line: 0,
            message: format!(
                "binary block declares {nnz} entries ({expected_len} bytes) but the file is {file_len} bytes"
            ),
        });
    }
    Ok(BlockHeader {
        version,
        nrows,
        ncols,
        nnz,
        payload_len,
        checksum,
    })
}

/// Decode a little-endian `u64` from an exactly-8-byte slice.
///
/// Single owner of the slice→array conversion for block decoding: every
/// caller passes a `chunks_exact(8)` chunk or a fixed 8-byte range, so
/// the length is right by construction.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    // lint:allow(no-expect) -- single owner of the 8-byte slice contract; callers only pass chunks_exact(8) or fixed ranges
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

fn read_u64_array(reader: &mut impl Read, count: usize) -> Result<Vec<u64>, SparseError> {
    let mut bytes = vec![0u8; count * 8];
    reader.read_exact(&mut bytes)?;
    Ok(bytes.chunks_exact(8).map(le_u64).collect())
}

/// Read a binary block file back into a COO matrix (all values 1), with the
/// header validated — including the declared entry count against the actual
/// file length, before anything is allocated from it — and every index
/// bounds-checked.
pub fn read_block_bin(path: &Path) -> Result<CooMatrix<u64>, SparseError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = std::io::BufReader::with_capacity(1 << 18, file);
    let BlockHeader {
        version,
        nrows,
        ncols,
        nnz,
        payload_len,
        checksum,
    } = read_block_header(file_len, &mut reader)?;
    let nnz = usize::try_from(nnz).map_err(|_| SparseError::TooLarge {
        what: "binary block entry count",
        requested: nnz as u128,
    })?;

    let (rows, cols) = if version == BLOCK_VERSION_COMPRESSED {
        // lint:allow(no-expect) -- read_block_header always sets payload_len for v4
        let payload_len = payload_len.expect("v4 header carries a payload length");
        read_compressed_body(&mut reader, nnz, payload_len, checksum)?
    } else if version == BLOCK_VERSION {
        let rows = read_u64_array(&mut reader, nnz)?;
        let cols = read_u64_array(&mut reader, nnz)?;
        (rows, cols)
    } else {
        // De-interleave while reading, in bounded buffers: the transient
        // cost stays one I/O buffer, not a second full copy of the body.
        let mut rows = Vec::with_capacity(nnz);
        let mut cols = Vec::with_capacity(nnz);
        let mut buffer = [0u8; 16 * 4096];
        let mut remaining = nnz;
        let mut hasher = Fnv1a::new();
        while remaining > 0 {
            let pairs = remaining.min(4096);
            let bytes = &mut buffer[..16 * pairs];
            reader.read_exact(bytes)?;
            if checksum.is_some() {
                hasher.update(bytes);
            }
            for pair in bytes.chunks_exact(16) {
                rows.push(le_u64(&pair[..8]));
                cols.push(le_u64(&pair[8..]));
            }
            remaining -= pairs;
        }
        // Verify before the indices are trusted: a flipped byte must fail
        // as corruption, not as a confusing out-of-bounds index.
        if let Some(expected) = checksum {
            let actual = hasher.finish();
            if actual != expected {
                return Err(SparseError::ChecksumMismatch { expected, actual });
            }
        }
        (rows, cols)
    };
    for (&r, &c) in rows.iter().zip(cols.iter()) {
        if r >= nrows || c >= ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows,
                ncols,
            });
        }
    }
    // The vectors become the matrix's storage directly — no copy, and the
    // all-ones value vector is the only extra allocation.
    let mut m = CooMatrix::new(nrows, ncols);
    m.append_raw(rows, cols, vec![1u64; nnz]);
    Ok(m)
}

/// Decode a v4 compressed block body: a sequence of delta/varint frames
/// (see [`crate::codec`]), FNV-hashed as read and verified against the
/// header checksum before the decoded indices are returned.
///
/// The payload is read whole (it is the *compressed* size — a few bytes
/// per edge), then decoded frame by frame so a truncated or overlapping
/// frame fails as a parse error rather than a silent short count.
fn read_compressed_body(
    reader: &mut impl Read,
    nnz: usize,
    payload_len: u64,
    checksum: Option<u64>,
) -> Result<(Vec<u64>, Vec<u64>), SparseError> {
    let payload_len = usize::try_from(payload_len).map_err(|_| SparseError::TooLarge {
        what: "compressed block payload length",
        requested: payload_len as u128,
    })?;
    let mut payload = vec![0u8; payload_len];
    reader.read_exact(&mut payload)?;
    // Verify before the frames are trusted: a flipped byte must fail as
    // corruption, not as a confusing varint or out-of-bounds index error.
    if let Some(expected) = checksum {
        let mut hasher = Fnv1a::new();
        hasher.update(&payload);
        let actual = hasher.finish();
        if actual != expected {
            return Err(SparseError::ChecksumMismatch { expected, actual });
        }
    }
    let mut rows = Vec::with_capacity(nnz);
    let mut cols = Vec::with_capacity(nnz);
    let mut frame = Vec::new();
    let mut offset = 0usize;
    let mut decoded = 0usize;
    while offset < payload.len() {
        let header: [u8; crate::codec::FRAME_HEADER_LEN] = payload[offset..]
            .get(..crate::codec::FRAME_HEADER_LEN)
            .and_then(|bytes| bytes.try_into().ok())
            .ok_or(SparseError::Parse {
                line: 0,
                message: format!("compressed block frame header truncated at byte {offset}"),
            })?;
        let (count, byte_len) = crate::codec::frame_header(&header);
        let (count, byte_len) = (count as usize, byte_len as usize);
        offset += crate::codec::FRAME_HEADER_LEN;
        let body = payload
            .get(offset..offset + byte_len)
            .ok_or(SparseError::Parse {
                line: 0,
                message: format!(
                    "compressed block frame declares {byte_len} bytes at offset {offset} but the payload ends at {}",
                    payload.len()
                ),
            })?;
        crate::codec::decode_frame(count as u32, body, &mut frame)?;
        offset += byte_len;
        decoded += count;
        if decoded > nnz {
            return Err(SparseError::Parse {
                line: 0,
                message: format!("compressed block decodes more than the declared {nnz} entries"),
            });
        }
        for &(r, c) in &frame {
            rows.push(r);
            cols.push(c);
        }
    }
    if decoded != nnz {
        return Err(SparseError::Parse {
            line: 0,
            message: format!(
                "compressed block declares {nnz} entries but its frames decode {decoded}"
            ),
        });
    }
    Ok((rows, cols))
}

/// Recompute the checksum a shard *should* carry by streaming its bytes
/// back from disk: for TSV shards the FNV-1a hash of the whole file, for
/// binary shards the hash of the payload after the header (equal to the
/// checksum a v3 header stores).  Errors are annotated with the shard path.
///
/// This is what `Pipeline::resume` uses to decide whether a shard recorded
/// in the progress journal is still intact or must be regenerated.
pub fn shard_checksum(path: &Path, format: BlockFormat) -> Result<u64, SparseError> {
    let attempt = || -> Result<u64, SparseError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = std::io::BufReader::with_capacity(1 << 18, file);
        if matches!(format, BlockFormat::Binary | BlockFormat::Compressed) {
            // Position the reader past the (version-dependent) header; the
            // header itself is validated in passing.
            read_block_header(file_len, &mut reader)?;
        }
        let mut hasher = Fnv1a::new();
        let mut buffer = [0u8; 1 << 16];
        loop {
            let read = reader.read(&mut buffer)?;
            if read == 0 {
                break;
            }
            hasher.update(&buffer[..read]);
        }
        Ok(hasher.finish())
    };
    attempt().map_err(|e| SparseError::with_path(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{legacy_block_bytes, TestDir};

    #[test]
    fn binary_reader_rejects_corrupt_headers() {
        let dir = TestDir::new("binary_corrupt");
        let path = dir.join("bad.kbk");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(read_block_bin(&path).is_err());
        let mut with_version = BLOCK_MAGIC.to_vec();
        with_version.extend_from_slice(&99u32.to_le_bytes());
        with_version.extend_from_slice(&[0u8; 24]);
        std::fs::write(&path, &with_version).unwrap();
        assert!(read_block_bin(&path).is_err());
    }

    #[test]
    fn legacy_v1_and_v2_blocks_still_read() {
        let dir = TestDir::new("legacy_versions");
        let edges = [(0u64, 3u64), (2, 1), (2, 2), (3, 0)];
        for version in [BLOCK_VERSION, BLOCK_VERSION_PAIRS] {
            let path = dir.join(format!("v{version}.kbk"));
            let bytes = legacy_block_bytes(version, 4, 4, &edges);
            assert_eq!(
                bytes.len() as u64,
                BLOCK_HEADER_LEN + 16 * edges.len() as u64
            );
            std::fs::write(&path, bytes).unwrap();
            let block = read_block_bin(&path).unwrap();
            assert_eq!((block.nrows(), block.ncols()), (4, 4));
            let read: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
            assert_eq!(
                read, edges,
                "v{version} block must read back in stored order"
            );
        }
    }

    /// Write a valid v4 compressed shard and return its path, for the
    /// corruption tests to mutilate.  Offsets in the v4 layout: nnz at 24,
    /// payload_len at 32, checksum at 40, payload (frames) at 48; a frame
    /// is [count u32][byte_len u32][varint body].
    fn compressed_fixture(name: &str) -> (TestDir, PathBuf, Vec<(u64, u64)>) {
        use crate::sink::{CompressedShardSink, EdgeSink};
        let dir = TestDir::new(name);
        let path = dir.join("block_00000.kbkz");
        let edges: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 64, (i * 7) % 64)).collect();
        let mut sink = CompressedShardSink::create(&path, 64, 64).unwrap();
        sink.consume(&edges).unwrap();
        sink.finish().unwrap();
        (dir, path, edges)
    }

    fn patched(path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = std::fs::read(path).unwrap();
        mutate(&mut bytes);
        std::fs::write(path, &bytes).unwrap();
    }

    /// Re-seal a deliberately mutated payload so the corruption under test
    /// is reached *past* the checksum gate.
    fn refresh_v4_checksum(bytes: &mut [u8]) {
        let sum = Fnv1a::hash(&bytes[BLOCK_HEADER_COMPRESSED_LEN as usize..]);
        bytes[40..48].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn compressed_round_trip_and_header_fields() {
        let (_dir, path, edges) = compressed_fixture("v4_round_trip");
        let block = read_block_bin(&path).unwrap();
        let decoded: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(decoded, edges);
        let bytes = std::fs::read(&path).unwrap();
        let file_len = bytes.len() as u64;
        let header = read_block_header(file_len, &mut &bytes[..]).unwrap();
        assert_eq!(header.version, BLOCK_VERSION_COMPRESSED);
        assert_eq!(header.nnz, edges.len() as u64);
        let payload_len = header.payload_len.unwrap();
        assert_eq!(file_len, BLOCK_HEADER_COMPRESSED_LEN + payload_len);
        assert!(
            payload_len < 16 * edges.len() as u64,
            "the fixture must actually compress"
        );
    }

    #[test]
    fn compressed_flipped_payload_byte_fails_as_checksum_mismatch() {
        let (_dir, path, _) = compressed_fixture("v4_flip");
        patched(&path, |bytes| bytes[60] ^= 1);
        match read_block_bin(&path) {
            Err(SparseError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual)
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn compressed_truncated_file_fails_the_length_check() {
        let (_dir, path, _) = compressed_fixture("v4_truncate");
        patched(&path, |bytes| {
            bytes.pop();
        });
        let err = read_block_bin(&path).unwrap_err();
        assert!(
            err.to_string().contains("but the file is"),
            "truncation must fail on declared vs actual length: {err}"
        );
    }

    #[test]
    fn compressed_inflated_payload_len_fails_the_length_check() {
        let (_dir, path, _) = compressed_fixture("v4_payload_len");
        patched(&path, |bytes| {
            let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
            bytes[32..40].copy_from_slice(&(declared + 1).to_le_bytes());
        });
        let err = read_block_bin(&path).unwrap_err();
        assert!(err.to_string().contains("but the file is"), "{err}");
    }

    #[test]
    fn compressed_frame_overrunning_the_payload_is_rejected() {
        let (_dir, path, _) = compressed_fixture("v4_frame_overrun");
        patched(&path, |bytes| {
            // Inflate the first frame's byte_len (offset 52) past the
            // payload's end, then re-seal so the checksum gate passes.
            let byte_len = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
            bytes[52..56].copy_from_slice(&(byte_len + 8).to_le_bytes());
            refresh_v4_checksum(bytes);
        });
        let err = read_block_bin(&path).unwrap_err();
        assert!(err.to_string().contains("payload ends"), "{err}");
    }

    #[test]
    fn compressed_frame_count_disagreeing_with_nnz_is_rejected() {
        // nnz inflated, payload untouched: the checksum still matches, the
        // frames decode cleanly, and only the decoded-entry count can tell.
        let (_dir, path, _) = compressed_fixture("v4_nnz");
        patched(&path, |bytes| {
            let nnz = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            bytes[24..32].copy_from_slice(&(nnz + 1).to_le_bytes());
        });
        let err = read_block_bin(&path).unwrap_err();
        assert!(err.to_string().contains("frames decode"), "{err}");
    }

    #[test]
    fn compressed_truncated_frame_header_is_rejected() {
        let (_dir, path, _) = compressed_fixture("v4_frame_header");
        patched(&path, |bytes| {
            // Append 4 junk bytes (half a frame header), grow the declared
            // payload to match, and re-seal: every outer gate passes and the
            // frame loop must catch the dangling half-header itself.
            bytes.extend_from_slice(&[0u8; 4]);
            let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
            bytes[32..40].copy_from_slice(&(declared + 4).to_le_bytes());
            refresh_v4_checksum(bytes);
        });
        let err = read_block_bin(&path).unwrap_err();
        assert!(err.to_string().contains("frame header truncated"), "{err}");
    }

    #[test]
    fn fnv1a_matches_published_test_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental hashing equals one-shot hashing.
        let mut hasher = Fnv1a::new();
        hasher.update(b"foo");
        hasher.update(b"bar");
        assert_eq!(hasher.finish(), Fnv1a::hash(b"foobar"));
    }

    #[test]
    fn tsv_lines_match_the_standard_formatter_at_every_digit_count() {
        // 0, every power of ten and its neighbours (so every digit count,
        // odd and even, at both ends), and the largest u64.
        let mut values = vec![0u64, 9, 10, 99, 100, u64::MAX];
        let mut power = 1u64;
        loop {
            values.extend([power - 1, power, power + 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        // Every value as a row against every value as a column: ~150 KiB
        // of text, so the formatter's tile fills and flushes many times.
        let edges: Vec<(u64, u64)> = values
            .iter()
            .flat_map(|&row| values.iter().map(move |&col| (row, col)))
            .collect();
        let expected: String = edges
            .iter()
            .map(|(row, col)| format!("{row}\t{col}\t1\n"))
            .collect();
        let mut written = Vec::new();
        let mut hasher = Fnv1a::new();
        hasher.update(b"earlier chunk");
        // Two calls, so the hasher is seen to carry across chunks.
        let (head, tail) = edges.split_at(edges.len() / 3);
        write_tsv_edges(&mut written, head, &mut hasher).unwrap();
        write_tsv_edges(&mut written, tail, &mut hasher).unwrap();
        assert_eq!(String::from_utf8(written).unwrap(), expected);
        let mut second_pass = Fnv1a::new();
        second_pass.update(b"earlier chunk");
        second_pass.update(expected.as_bytes());
        assert_eq!(hasher, second_pass);

        let mut nothing = Vec::new();
        write_tsv_edges(&mut nothing, &[], &mut hasher).unwrap();
        assert!(nothing.is_empty());
        assert_eq!(hasher, second_pass);
    }

    #[test]
    fn format_table_round_trips_and_keeps_extensions_distinct() {
        for format in BlockFormat::ALL {
            assert_eq!(BlockFormat::from_label(format.label()), Some(format));
        }
        let mut extensions = BlockFormat::ALL.map(BlockFormat::extension).to_vec();
        extensions.sort_unstable();
        extensions.dedup();
        assert_eq!(extensions.len(), BlockFormat::ALL.len());
        // Terminals that leave no shard files have no format.
        assert_eq!(BlockFormat::from_label("counting"), None);
    }

    #[test]
    fn file_names_are_worker_ordered() {
        let dir = TestDir::new("names");
        let files = prepare_directory(&dir, 2, BlockFormat::Tsv).unwrap();
        assert_eq!(files[0], dir.join("block_00000.tsv"));
        assert_eq!(files[1], dir.join("block_00001.tsv"));
        assert!(dir.is_dir(), "the shard directory is created up front");
    }
}
