//! Edge sinks: the pluggable consumers every generation backend streams
//! into.
//!
//! A sink is one worker's view of "where the edges go": the last stage of
//! the [`Pipeline`](crate::pipeline::Pipeline)'s per-chunk chain (source
//! [+ relabel] → observe → **consume**), sealed once by
//! [`EdgeSink::finish_with_checksum`] when the worker's stream ends or
//! thrown away by [`EdgeSink::abandon`] when an attempt fails.  Adding an
//! output backend — a socket, a columnar store — is one [`EdgeSink`] impl,
//! not a new generation entry point.
//!
//! Concrete sinks:
//!
//! * [`CountingSink`] — counts edges, stores nothing (throughput and
//!   validation-only runs).
//! * [`CooSink`] — materialises the worker's block as a COO matrix (tests
//!   and small graphs).
//! * [`TsvShardSink`] — one buffered TSV shard per worker, the paper's
//!   interchange format (`block_<p>.tsv`, one `row<TAB>col<TAB>1` line per
//!   edge).
//! * [`CompressedShardSink`] — one delta/varint-compressed (v4) shard per
//!   worker (`block_<p>.kbkz`; [`crate::codec`] owns every byte of it), a few
//!   bytes per edge.
//!
//! One wrapper: [`DoubleBufferedSink`] moves any sink onto its own writer
//! thread, overlapping encode+write with generation behind a bounded queue
//! (the compressed file terminal runs behind it).  A wrapper forwards
//! [`EdgeSink::finish_with_checksum`] — the trait's one finishing method —
//! so the inner shard's checksum always reaches the journal.
//!
//! The natural on-disk form of a distributed Kronecker graph is one file per
//! worker — exactly what a distributed file system would hold after the
//! paper's generation run — so the shard sinks come with what names such a
//! run's files: [`BlockFormat`], [`BlockFileSet`] and the directory layout.
//! [`crate::replay`] reads them back.
//!
//! Every shard sink writes through one `StagedFile`: bytes stage at
//! `<path>.tmp` beside a running FNV-1a checksum, and its commit — flush →
//! patch the header → fsync → rename → fsync the directory — is the only way
//! a file reaches its final name, so a shard that exists is a shard that
//! finished.
//!
//! FNV-1a is a serial multiply chain that leaves the core mostly idle, so
//! the TSV and compressed sinks do not hash their output in a second pass:
//! the staged file lends out its writer and hasher together and the hash is
//! taken inside the loop that produces the bytes ([`write_tsv_edges`],
//! [`encode_frame_checksummed`]), where the formatting and varint work run
//! beside it.  That chain — about 1.7 ns a byte — is the floor of both
//! shard writers, and with the TSV formatter's branch-free word arithmetic
//! (eight digits per `u64`) it is the TSV loop's pace.  The bytes and
//! checksums are what a separate pass would give — a golden test below pins
//! them.
//!
//! A write that fails names its file: every I/O error of a staged file,
//! from the first buffered write to the fsync, is a
//! [`SparseError::WithPath`] naming `<path>.tmp`.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_core::CoreError;
use kron_sparse::{CooMatrix, SparseError};

use crate::codec::{encode_frame_checksummed, BlockHeader, Fnv1a, FRAME_EDGES, RAW_BINARY_RETIRED};

/// A per-worker consumer of generated edge chunks.
///
/// A sink receives every chunk its worker produces (already filtered of the
/// removable self-loop unless the run keeps the raw product) and is
/// finalised exactly once at the end of the worker's stream.  Sinks that
/// buffer nothing — writers, counters — keep the whole run in bounded memory
/// no matter how many edges pass through.
pub trait EdgeSink {
    /// What the sink leaves behind when the stream ends (a path, a count, a
    /// matrix, …).
    type Output;

    /// Consume one chunk of `(row, col)` edges with global indices.
    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError>;

    /// Finalise the sink (flush buffers, seal trailing state, patch
    /// headers) and return its output together with the checksum of the
    /// *finished* artefact — the FNV-1a hash the progress journal and the
    /// manifest record for a shard file, `None` for sinks that leave nothing
    /// durable behind.
    ///
    /// This is the sink's one way to finish, and so the only way it reports
    /// a checksum: a hash only describes the artefact once trailing state (a
    /// partial compression frame, a patched header) is sealed, and for a
    /// sink running on another thread it only exists where the inner sink
    /// lives.  A wrapper around another sink forwards this method to it.
    #[must_use = "finishing flushes buffers and returns the sink's output; dropping the result loses both"]
    fn finish_with_checksum(self) -> Result<(Self::Output, Option<u64>), SparseError>
    where
        Self: Sized;

    /// Deliberately discard the sink without finishing it — the clean way to
    /// throw a failed attempt away.  File-backed sinks remove their
    /// temporary file and suppress the dropped-without-finishing warning;
    /// the default just drops the sink.
    fn abandon(self)
    where
        Self: Sized,
    {
        drop(self);
    }
}

/// `<path>.tmp` — where a [`StagedFile`] keeps its bytes until the commit
/// atomically renames them into place.
pub(crate) fn tmp_shard_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Bytes a shard sink buffers between writes to its file.
const SHARD_BUFFER: usize = 1 << 18;

/// A file on its way to `path`: the single owner of the crash-safe write
/// protocol of this crate.  Bytes stage at `<path>.tmp`; [`commit`] makes
/// them durable and only then gives them their final name, so a crash can
/// never leave a truncated file under it; [`abandon`] removes the staging
/// file without a trace.  A staged file dropped any other way — a worker
/// dying mid-stream — leaves the partial visible and says so on stderr.
///
/// [`commit`]: StagedFile::commit
/// [`abandon`]: StagedFile::abandon
pub(crate) struct StagedFile {
    writer: BufWriter<File>,
    hasher: Fnv1a,
    names: StagingNames,
}

/// Where a staged file is and where it is going; warns when dropped before
/// `commit` or `abandon` has dealt with the staging file.
struct StagingNames {
    path: PathBuf,
    tmp: PathBuf,
    settled: bool,
}

impl StagedFile {
    /// Start staging the file that will become `path`, buffering `buffer`
    /// bytes between writes (0 for a file written in one piece).
    pub(crate) fn stage(path: &Path, buffer: usize) -> Result<Self, SparseError> {
        let tmp = tmp_shard_path(path);
        let file = File::create(&tmp).map_err(|e| SparseError::with_path(&tmp, e.into()))?;
        let path = path.to_path_buf();
        Ok(StagedFile {
            writer: BufWriter::with_capacity(buffer, file),
            hasher: Fnv1a::new(),
            names: StagingNames {
                path,
                tmp,
                settled: false,
            },
        })
    }

    /// The writer and the running checksum, lent together so a formatter or
    /// encoder can hash each byte inside the loop that produces it.  What
    /// the hasher absorbs is the caller's decision: shard headers are written
    /// but not hashed.
    pub(crate) fn parts(&mut self) -> (&mut BufWriter<File>, &mut Fnv1a) {
        (&mut self.writer, &mut self.hasher)
    }

    /// `error`, met writing the staged bytes, named with the file it hit.
    pub(crate) fn write_error(&self, error: std::io::Error) -> SparseError {
        SparseError::with_path(&self.names.tmp, error.into())
    }

    /// Make the file durable under its final name: flush, overwrite `bytes`
    /// at `offset` when a `patch` is given (the header fields only known at
    /// the end), fsync, rename, and fsync the directory.  Returns the final
    /// path and the checksum.
    pub(crate) fn commit(self, patch: Option<(u64, &[u8])>) -> Result<(PathBuf, u64), SparseError> {
        let mut names = self.names;
        names.settled = true;
        let named = |e: std::io::Error| SparseError::with_path(&names.tmp, e.into());
        // Flushes, and gives the write buffer back before anything below
        // allocates.
        let mut file = self
            .writer
            .into_inner()
            .map_err(|e| named(e.into_error()))?;
        if let Some((offset, bytes)) = patch {
            file.seek(SeekFrom::Start(offset)).map_err(named)?;
            file.write_all(bytes).map_err(named)?;
        }
        file.sync_all().map_err(named)?;
        drop(file);
        std::fs::rename(&names.tmp, &names.path)
            .map_err(|e| SparseError::with_path(&names.path, e.into()))?;
        // Best effort: not every platform lets a directory be opened for
        // syncing, and the file's own bytes are already durable.
        if let Some(Ok(directory)) = names.path.parent().map(File::open) {
            let _ = directory.sync_all();
        }
        Ok((std::mem::take(&mut names.path), self.hasher.finish()))
    }

    /// Throw the staged bytes away: the staging file is removed and nothing
    /// is printed.
    pub(crate) fn abandon(mut self) {
        self.names.settled = true;
        let _ = std::fs::remove_file(&self.names.tmp);
    }

    /// Delete every staging file in `directory` — the leftovers of files
    /// that were mid-write when an interrupted run died.  Returns how many
    /// were removed.
    pub(crate) fn sweep(directory: &Path) -> Result<usize, SparseError> {
        let named = |e: std::io::Error| SparseError::with_path(directory, e.into());
        let mut removed = 0;
        for entry in std::fs::read_dir(directory).map_err(named)? {
            let path = entry.map_err(named)?.path();
            if path.extension().is_some_and(|extension| extension == "tmp") && path.is_file() {
                std::fs::remove_file(&path).map_err(named)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

impl Drop for StagingNames {
    fn drop(&mut self) {
        if !self.settled && !std::thread::panicking() {
            eprintln!(
                "warning: {} was dropped unfinished; the partial file stays at {}",
                self.path.display(),
                self.tmp.display()
            );
        }
    }
}

/// An [`EdgeSink`] that only counts — the sink behind throughput
/// measurements and histogram-only validation runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingSink {
    edges: u64,
}

impl CountingSink {
    /// Create a fresh counter (identical to [`CountingSink::default`]).
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl EdgeSink for CountingSink {
    type Output = u64;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.edges += edges.len() as u64;
        Ok(())
    }

    fn finish_with_checksum(self) -> Result<(u64, Option<u64>), SparseError> {
        Ok((self.edges, None))
    }
}

/// An [`EdgeSink`] that materialises its worker's block as a COO matrix —
/// for tests and small graphs, where it makes the streaming pipeline
/// directly comparable with the materialising generator.
#[derive(Debug, Clone)]
pub struct CooSink {
    block: CooMatrix<u64>,
    rows: Vec<u64>,
    cols: Vec<u64>,
    ones: Vec<u64>,
}

impl CooSink {
    /// Create a sink collecting into a `vertices × vertices` pattern matrix.
    pub fn new(vertices: u64) -> Self {
        CooSink {
            block: CooMatrix::new(vertices, vertices),
            rows: Vec::new(),
            cols: Vec::new(),
            ones: Vec::new(),
        }
    }
}

impl EdgeSink for CooSink {
    type Output = CooMatrix<u64>;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        // De-interleave into reusable scratch buffers and append in bulk —
        // one capacity check per chunk instead of one per edge.
        self.rows.clear();
        self.cols.clear();
        self.rows.extend(edges.iter().map(|&(row, _)| row));
        self.cols.extend(edges.iter().map(|&(_, col)| col));
        if self.ones.len() < edges.len() {
            self.ones.resize(edges.len(), 1);
        }
        self.block
            .extend_from_triples(&self.rows, &self.cols, &self.ones[..edges.len()])
    }

    fn finish_with_checksum(self) -> Result<(CooMatrix<u64>, Option<u64>), SparseError> {
        Ok((self.block, None))
    }
}

/// Most decimal digits of a `u64`.
const DIGITS_MAX: usize = 20;

/// Longest TSV line: two endpoints, two tabs, the `1`, the newline.  The
/// formatter's 8-byte stores stay inside it too: only a label below `10^8`
/// stores past its last digit, and it starts by byte 21 of the line.
const TSV_LINE_MAX: usize = 2 * DIGITS_MAX + 4;

/// Bytes formatted between writes.  The tile lives on the stack and stays
/// in L1; a chunk-sized scratch (worst case 44 bytes an edge) would show in
/// the run's peak RSS.
const TSV_TILE: usize = 4096;

/// `10^8`: the values one 8-digit word holds.
const WORD_SPAN: u64 = 100_000_000;

/// The ASCII `'0'` in every byte of a word.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// The eight decimal digits of `value < 10^8` as one word, the most
/// significant digit in the lowest byte (so a little-endian store writes
/// them in reading order), each byte the digit's value `0..=9`.
///
/// No division and no branch: the value splits into two 4-digit groups,
/// each group into two 2-digit lanes, each lane into two digits, with every
/// lane of a step divided at once by one multiply and shift.  Each constant
/// is exact on its range: `n * m >> s` equals `n / d` while
/// `n * (m * d - 2^s) < 2^s`, which holds for `n < 10^8` with
/// `109 951 163 >> 40` (`/ 10^4`), `n < 10^4` with `5 243 >> 19` (`/ 100`)
/// and `n < 100` with `103 >> 10` (`/ 10`); no lane's product reaches the
/// next lane.
#[inline(always)]
fn eight_digits(value: u64) -> u64 {
    debug_assert!(value < WORD_SPAN);
    let high = (value * 109_951_163) >> 40;
    let groups = high | (value - high * 10_000) << 32;
    let hundreds = ((groups * 5_243) >> 19) & 0x0000_007F_0000_007F;
    let pairs = hundreds | (groups - hundreds * 100) << 16;
    let tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | (pairs - tens * 10) << 8
}

/// Store the word `digits` (reading order from its lowest byte) at
/// `tile[at..at + 8]`.
#[inline(always)]
fn store_word(tile: &mut [u8], at: usize, digits: u64) {
    tile[at..at + 8].copy_from_slice(&digits.to_le_bytes());
}

/// Write `value < 10^8` without leading zeros at `tile[at..]` — eight bytes
/// stored, the digits' count kept — returning the end offset.
#[inline(always)]
fn put_leading_word(tile: &mut [u8], at: usize, value: u64) -> usize {
    let digits = eight_digits(value);
    // Leading zeros are the zero bytes at the word's low end; the units
    // byte counts as non-zero, so 0 keeps its one digit.
    let zeros = (digits | 1 << 56).trailing_zeros() / 8;
    store_word(tile, at, (digits + ASCII_ZEROS) >> (8 * zeros));
    at + 8 - zeros as usize
}

/// Write `value` in decimal at `tile[at..]`, returning the end offset.  The
/// `tile` needs eight bytes past `at` even for a one-digit value.
#[inline(always)]
fn put_label(tile: &mut [u8], at: usize, value: u64) -> usize {
    if value < WORD_SPAN {
        return put_leading_word(tile, at, value);
    }
    // Every digit after the first word is written, zeros and all.
    let (high, low) = (value / WORD_SPAN, value % WORD_SPAN);
    let at = if high < WORD_SPAN {
        put_leading_word(tile, at, high)
    } else {
        let at = put_leading_word(tile, at, high / WORD_SPAN);
        store_word(tile, at, eight_digits(high % WORD_SPAN) + ASCII_ZEROS);
        at + 8
    };
    store_word(tile, at, eight_digits(low) + ASCII_ZEROS);
    at + 8
}

/// Write one chunk of pattern edges in the TSV triple format
/// (`row<TAB>col<TAB>1`) — the single definition of the line layout shared
/// by every TSV emitter (and matched by the reader behind
/// [`BlockFileSet::read_assembled`]) — with the shard checksum riding
/// along: `hasher` absorbs exactly the bytes written, in order.
///
/// Lines are formatted into a small stack tile, each label as whole 8-digit
/// words of multiply-shift arithmetic with no division or data-dependent
/// branch, and each line is hashed as soon as it is formatted: the next
/// line's formatting overlaps the serial FNV-1a chain of this one, which is
/// the loop's pace, instead of the text costing a second pass.
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
        filled = put_label(&mut tile, filled, row);
        tile[filled] = b'\t';
        filled = put_label(&mut tile, filled + 1, col);
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

/// An [`EdgeSink`] writing `row<TAB>col<TAB>1` triples through a buffered
/// writer — one TSV shard per worker.
///
/// Like every shard sink, it stages its bytes at `<path>.tmp` until
/// finishing fsyncs them and atomically renames them to `path`, so the
/// final name only ever holds a complete shard.  Its checksum is the FNV-1a
/// hash of the whole file — the sidecar checksum the run's progress journal
/// and manifest record for later verification.
pub struct TsvShardSink {
    staged: StagedFile,
}

impl TsvShardSink {
    /// Create the shard, staging bytes at `<path>.tmp` until it is finished.
    pub fn create(path: &Path) -> Result<Self, SparseError> {
        Ok(TsvShardSink {
            staged: StagedFile::stage(path, SHARD_BUFFER)?,
        })
    }
}

impl EdgeSink for TsvShardSink {
    type Output = PathBuf;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        // The formatter hashes each line as it produces it, so the checksum
        // sees exactly the bytes that reach the file.
        let (writer, hasher) = self.staged.parts();
        write_tsv_edges(writer, edges, hasher).map_err(|e| self.staged.write_error(e))
    }

    fn abandon(self) {
        self.staged.abandon();
    }

    fn finish_with_checksum(self) -> Result<(PathBuf, Option<u64>), SparseError> {
        let (path, checksum) = self.staged.commit(None)?;
        Ok((path, Some(checksum)))
    }
}

/// An [`EdgeSink`] writing the compressed (v4) block layout of
/// [`crate::codec`]: the header with zeroed count/length/checksum fields, then
/// delta/varint frames appended as edges stream;
/// finishing seals the final partial frame and patches the true entry
/// count, payload length, and payload FNV-1a checksum into the header.
/// Several times smaller than 16-byte `(row, col)` pairs on generated
/// streams (see `sink.bytes_per_edge` of the `kron_shard_v4` workload in
/// the benchmark's `--trace` output).
///
/// Edges accumulate in an internal buffer and are encoded in frames of
/// exactly [`codec::FRAME_EDGES`](crate::codec::FRAME_EDGES) (plus one
/// final short frame), so the bytes on disk depend only on the edge
/// stream — never on the chunk size the pipeline happened to use.  That
/// invariant is what lets a resumed run reproduce a shard bit-identically.
/// Each frame is encoded and checksummed in one pass
/// ([`encode_frame_checksummed`]).
pub struct CompressedShardSink {
    staged: StagedFile,
    pending: Vec<(u64, u64)>,
    written: u64,
    payload_len: u64,
    scratch: Vec<u8>,
}

impl CompressedShardSink {
    /// Create the shard for a `nrows × ncols` graph, staging bytes at
    /// `<path>.tmp` until it is finished.
    pub fn create(path: &Path, nrows: u64, ncols: u64) -> Result<Self, SparseError> {
        let mut staged = StagedFile::stage(path, SHARD_BUFFER)?;
        let (writer, _) = staged.parts();
        writer
            .write_all(&BlockHeader::placeholder(nrows, ncols))
            .map_err(|e| staged.write_error(e))?;
        Ok(CompressedShardSink {
            staged,
            pending: Vec::with_capacity(FRAME_EDGES),
            written: 0,
            payload_len: 0,
            scratch: Vec::new(),
        })
    }

    /// Encode, checksum and write the pending edges as one frame.
    fn flush_frame(&mut self) -> Result<(), SparseError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let (writer, hasher) = self.staged.parts();
        encode_frame_checksummed(&self.pending, &mut self.scratch, hasher);
        writer
            .write_all(&self.scratch)
            .map_err(|e| self.staged.write_error(e))?;
        self.payload_len += self.scratch.len() as u64;
        self.written += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }
}

impl EdgeSink for CompressedShardSink {
    type Output = PathBuf;

    fn consume(&mut self, mut edges: &[(u64, u64)]) -> Result<(), SparseError> {
        while !edges.is_empty() {
            let take = (FRAME_EDGES - self.pending.len()).min(edges.len());
            self.pending.extend_from_slice(&edges[..take]);
            edges = &edges[take..];
            if self.pending.len() == FRAME_EDGES {
                self.flush_frame()?;
            }
        }
        Ok(())
    }

    fn abandon(self) {
        self.staged.abandon();
    }

    /// Seals the trailing partial frame first: until then edges still sit
    /// unencoded in the pending buffer and no hash can match the file.
    fn finish_with_checksum(mut self) -> Result<(PathBuf, Option<u64>), SparseError> {
        self.flush_frame()?;
        let checksum = self.staged.hasher.finish();
        let (offset, fields) = BlockHeader::seal(self.written, self.payload_len, checksum);
        let (path, checksum) = self.staged.commit(Some((offset, &fields)))?;
        Ok((path, Some(checksum)))
    }
}

/// On-disk format of a block file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockFormat {
    /// `row<TAB>col<TAB>value` text triples.
    Tsv,
    /// The delta/varint-compressed binary layout of [`crate::codec`] (values
    /// are not stored — a generated block is an unweighted pattern).
    Compressed,
}

impl BlockFormat {
    /// Every format a file terminal can write.
    pub(crate) const ALL: [Self; 2] = [Self::Tsv, Self::Compressed];

    /// The sink kind a run of this format records in its manifest and
    /// progress journal.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BlockFormat::Tsv => "tsv",
            BlockFormat::Compressed => "compressed",
        }
    }

    /// The file extension of this format's shards.
    pub(crate) fn extension(self) -> &'static str {
        match self {
            BlockFormat::Tsv => "tsv",
            BlockFormat::Compressed => "kbkz",
        }
    }

    /// The format recorded under sink kind `label` in a manifest or journal.
    /// A label that names no format is a typed error naming it — the label
    /// of a terminal that leaves no shard files, or the retired raw-binary
    /// one, whose error says how to get the directory back.
    pub(crate) fn from_label(label: &str) -> Result<Self, CoreError> {
        if let Some(format) = Self::ALL.into_iter().find(|format| format.label() == label) {
            return Ok(format);
        }
        let why = match label {
            "binary" => RAW_BINARY_RETIRED,
            _ => "it names no shard format, so the run left no shard files to replay or resume",
        };
        Err(CoreError::InvalidConfig {
            message: format!("sink kind \"{label}\": {why}"),
        })
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

/// The sink behind the pipeline's shard-file terminals: one variant per
/// [`BlockFormat`], and the one place that knows the compressed format runs
/// double-buffered behind a writer thread while TSV writes on the generating
/// thread.
pub(crate) enum ShardSink {
    Tsv(TsvShardSink),
    Compressed(DoubleBufferedSink<CompressedShardSink>),
}

impl ShardSink {
    /// Create the shard at `path` in `format`, for a graph of `vertices`
    /// vertices.
    pub(crate) fn create(
        format: BlockFormat,
        path: &Path,
        vertices: u64,
    ) -> Result<Self, SparseError> {
        Ok(match format {
            BlockFormat::Tsv => ShardSink::Tsv(TsvShardSink::create(path)?),
            BlockFormat::Compressed => ShardSink::Compressed(DoubleBufferedSink::new(
                CompressedShardSink::create(path, vertices, vertices)?,
            )),
        })
    }
}

impl EdgeSink for ShardSink {
    type Output = PathBuf;

    #[inline]
    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        match self {
            ShardSink::Tsv(sink) => sink.consume(edges),
            ShardSink::Compressed(sink) => sink.consume(edges),
        }
    }

    fn abandon(self) {
        match self {
            ShardSink::Tsv(sink) => sink.abandon(),
            ShardSink::Compressed(sink) => sink.abandon(),
        }
    }

    fn finish_with_checksum(self) -> Result<(PathBuf, Option<u64>), SparseError> {
        match self {
            ShardSink::Tsv(sink) => sink.finish_with_checksum(),
            ShardSink::Compressed(sink) => sink.finish_with_checksum(),
        }
    }
}

/// How many encoded chunks may sit between the generating worker and the
/// writer thread of a [`DoubleBufferedSink`] before the generator blocks.
/// Two is the classic double buffer: one chunk being written, one ready.
const QUEUE_DEPTH: usize = 2;

/// An [`EdgeSink`] combinator that moves an inner sink onto its own writer
/// thread, overlapping encode+write with generation: the generating worker
/// hands each chunk over a bounded channel and immediately goes back to
/// producing edges while the writer thread serialises the previous chunk.
///
/// Buffers are recycled through a return channel, so the steady state
/// allocates nothing; the bounded queue (`QUEUE_DEPTH`) keeps memory use
/// flat when generation outruns the disk.  The writer thread owns the inner
/// sink: if it fails, the thread keeps draining (so the sender never blocks
/// on a dead consumer), abandons the inner sink once the channel closes, and
/// the error surfaces on the next `consume()` or when the sink is finished.
pub struct DoubleBufferedSink<S: EdgeSink> {
    sender: Option<std::sync::mpsc::SyncSender<Vec<(u64, u64)>>>,
    recycle: std::sync::mpsc::Receiver<Vec<(u64, u64)>>,
    handle: Option<std::thread::JoinHandle<WriterVerdict<S>>>,
    failed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    abandoned: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

/// The writer thread's tri-state verdict: `Ok(Some((output, checksum)))`
/// after a clean finish, `Ok(None)` when the front half abandoned the run,
/// `Err` when the inner sink failed.
type WriterVerdict<S> = Result<Option<(<S as EdgeSink>::Output, Option<u64>)>, SparseError>;

impl<S> DoubleBufferedSink<S>
where
    S: EdgeSink + Send + 'static,
    S::Output: Send + 'static,
{
    /// Move `inner` onto a writer thread and return the front half.
    pub fn new(mut inner: S) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Vec<(u64, u64)>>(QUEUE_DEPTH);
        let (recycle_tx, recycle) = std::sync::mpsc::channel::<Vec<(u64, u64)>>();
        let failed = std::sync::Arc::new(AtomicBool::new(false));
        let abandoned = std::sync::Arc::new(AtomicBool::new(false));
        let thread_failed = std::sync::Arc::clone(&failed);
        let thread_abandoned = std::sync::Arc::clone(&abandoned);
        let handle = std::thread::spawn(move || {
            let mut error = None;
            for buffer in receiver {
                if error.is_none() {
                    if let Err(e) = inner.consume(&buffer) {
                        // ordering: Release — pairs with the Acquire load in consume(); a front half that observes `failed` must also observe the draining state this thread is in
                        thread_failed.store(true, Ordering::Release);
                        error = Some(e);
                    }
                }
                // Hand the buffer back; the front half may already be gone,
                // which is fine — the buffer just drops.
                let _ = recycle_tx.send(buffer);
            }
            if let Some(e) = error {
                inner.abandon();
                return Err(e);
            }
            // ordering: Acquire — pairs with the Release store in abandon(); the flag was set before the channel closed, so the drain loop above happened-after it
            if thread_abandoned.load(Ordering::Acquire) {
                inner.abandon();
                return Ok(None);
            }
            inner.finish_with_checksum().map(Some)
        });
        DoubleBufferedSink {
            sender: Some(sender),
            recycle,
            handle: Some(handle),
            failed,
            abandoned,
        }
    }

    /// Close the channel, join the writer thread, and return its verdict.
    fn join(&mut self) -> WriterVerdict<S> {
        drop(self.sender.take());
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| SparseError::Io("shard writer thread panicked".into()))?,
            None => Err(SparseError::Io("shard writer thread already joined".into())),
        }
    }

    /// Join after a failure and surface the inner sink's error.
    fn join_error(&mut self) -> SparseError {
        match self.join() {
            Err(e) => e,
            Ok(_) => SparseError::Io("shard writer thread stopped without an error".into()),
        }
    }
}

impl<S> EdgeSink for DoubleBufferedSink<S>
where
    S: EdgeSink + Send + 'static,
    S::Output: Send + 'static,
{
    type Output = S::Output;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        use std::sync::atomic::Ordering;
        // ordering: Acquire — pairs with the writer thread's Release store; observing the flag means the thread is draining, so join() cannot block
        if self.failed.load(Ordering::Acquire) {
            return Err(self.join_error());
        }
        let mut buffer = self.recycle.try_recv().unwrap_or_default();
        buffer.clear();
        buffer.extend_from_slice(edges);
        let sender = match self.sender.as_ref() {
            Some(sender) => sender,
            None => return Err(SparseError::Io("shard writer channel closed".into())),
        };
        if sender.send(buffer).is_err() {
            return Err(self.join_error());
        }
        Ok(())
    }

    fn abandon(mut self) {
        use std::sync::atomic::Ordering;
        // ordering: Release — pairs with the writer thread's Acquire load after the channel closes; the thread must observe the flag once the drain loop ends, or it would finish (and publish) an abandoned shard
        self.abandoned.store(true, Ordering::Release);
        let _ = self.join();
    }

    fn finish_with_checksum(mut self) -> Result<(S::Output, Option<u64>), SparseError> {
        match self.join()? {
            Some(pair) => Ok(pair),
            None => Err(SparseError::Io(
                "shard writer thread abandoned the sink".into(),
            )),
        }
    }
}

impl<S: EdgeSink> Drop for DoubleBufferedSink<S> {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering;
        // A front half dropped without being finished or abandoned must not
        // let the writer thread seal a shard nobody asked to complete: flag
        // the abandon, close the channel, and wait the thread out.
        if self.handle.is_some() {
            // ordering: Release — same pairing as abandon(): the writer thread's post-drain Acquire load must observe the flag
            self.abandoned.store(true, Ordering::Release);
            drop(self.sender.take());
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestDir;

    const EDGES: &[(u64, u64)] = &[(0, 1), (1, 1), (2, 0), (3, 3)];

    #[test]
    fn counting_sink_counts_and_default_is_new() {
        assert_eq!(CountingSink::new(), CountingSink::default());
        let mut sink = CountingSink::new();
        sink.consume(EDGES).unwrap();
        sink.consume(&EDGES[..2]).unwrap();
        assert_eq!(sink.finish_with_checksum().unwrap(), (6, None));
    }

    #[test]
    fn shard_sinks_stage_in_tmp_and_rename_on_finish() {
        let dir = TestDir::new("atomic");
        let tsv = dir.join("shard.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        sink.consume(EDGES).unwrap();
        assert!(!tsv.exists(), "the final name must not exist mid-stream");
        assert!(tmp_shard_path(&tsv).exists());
        let (out, _) = sink.finish_with_checksum().unwrap();
        assert_eq!(out, tsv);
        assert!(tsv.exists());
        assert!(!tmp_shard_path(&tsv).exists());
    }

    #[test]
    fn dropped_sinks_never_produce_a_complete_looking_shard() {
        let dir = TestDir::new("dropped");
        let tsv = dir.join("shard.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        sink.consume(EDGES).unwrap();
        drop(sink); // simulates a worker dying mid-stream (warns on stderr)
        assert!(!tsv.exists(), "no shard may appear unfinished");
        assert!(tmp_shard_path(&tsv).exists(), "the partial stays visible");
    }

    #[test]
    fn abandon_removes_the_partial_and_stays_silent() {
        let dir = TestDir::new("abandon");
        let tsv = dir.join("shard.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        sink.consume(EDGES).unwrap();
        sink.abandon();
        assert!(!tsv.exists());
        assert!(!tmp_shard_path(&tsv).exists());
    }

    #[test]
    fn payload_checksums_match_the_bytes_on_disk() {
        use crate::replay::shard_checksum;
        let dir = TestDir::new("checksums");
        let tsv = dir.join("shard.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        sink.consume(EDGES).unwrap();
        let reported = sink.finish_with_checksum().unwrap().1.unwrap();
        assert_eq!(reported, shard_checksum(&tsv, BlockFormat::Tsv).unwrap());
        assert_eq!(reported, Fnv1a::hash(&std::fs::read(&tsv).unwrap()));
    }

    #[test]
    fn compressed_sink_stages_atomically_and_checksums_its_payload() {
        use crate::replay::shard_checksum;
        let dir = TestDir::new("compressed_atomic");
        let kbkz = dir.join("shard.kbkz");
        let mut sink = CompressedShardSink::create(&kbkz, 4, 4).unwrap();
        sink.consume(EDGES).unwrap();
        assert!(!kbkz.exists(), "the final name must not exist mid-stream");
        assert!(tmp_shard_path(&kbkz).exists());
        // The trailing partial frame is not encoded yet, so nothing has been
        // hashed mid-stream — finish_with_checksum is the one that seals
        // and reports.
        assert_eq!(sink.staged.hasher, Fnv1a::new());
        let (out, checksum) = sink.finish_with_checksum().unwrap();
        assert_eq!(out, kbkz);
        assert!(kbkz.exists());
        assert!(!tmp_shard_path(&kbkz).exists());
        let checksum = checksum.expect("compressed shards are checksummed");
        assert_eq!(
            checksum,
            shard_checksum(&kbkz, BlockFormat::Compressed).unwrap()
        );
        // …and the header stores the same checksum (offset 40 in the v4
        // layout), over a payload that decodes back to the exact edges.
        let bytes = std::fs::read(&kbkz).unwrap();
        let stored = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        assert_eq!(stored, checksum);
        let set = BlockFileSet {
            directory: dir.to_path_buf(),
            files: vec![kbkz],
            vertices: 4,
            format: BlockFormat::Compressed,
        };
        let block = set.read_assembled().unwrap();
        let decoded: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(decoded, EDGES);
    }

    #[test]
    fn compressed_shard_bytes_are_independent_of_consume_granularity() {
        let dir = TestDir::new("compressed_granularity");
        let edges: Vec<(u64, u64)> = (0..1000u64).map(|i| (i % 64, (i * 7) % 64)).collect();

        let whole = dir.join("whole.kbkz");
        let mut sink = CompressedShardSink::create(&whole, 64, 64).unwrap();
        sink.consume(&edges).unwrap();
        sink.finish_with_checksum().unwrap();

        let pieces = dir.join("pieces.kbkz");
        let mut sink = CompressedShardSink::create(&pieces, 64, 64).unwrap();
        for piece in edges.chunks(7) {
            sink.consume(piece).unwrap();
        }
        sink.finish_with_checksum().unwrap();

        assert_eq!(
            std::fs::read(&whole).unwrap(),
            std::fs::read(&pieces).unwrap(),
            "shard bytes must depend only on the edge stream, never its chunking"
        );
    }

    #[test]
    fn compressed_sink_abandon_and_drop_leave_no_complete_shard() {
        let dir = TestDir::new("compressed_abandon");
        let kbkz = dir.join("shard.kbkz");
        let mut sink = CompressedShardSink::create(&kbkz, 4, 4).unwrap();
        sink.consume(EDGES).unwrap();
        sink.abandon();
        assert!(!kbkz.exists());
        assert!(!tmp_shard_path(&kbkz).exists());

        let mut sink = CompressedShardSink::create(&kbkz, 4, 4).unwrap();
        sink.consume(EDGES).unwrap();
        drop(sink); // a dying worker: partial stays, final name never appears
        assert!(!kbkz.exists());
        assert!(tmp_shard_path(&kbkz).exists());
    }

    #[test]
    fn shard_bytes_and_checksums_are_pinned_to_golden_values() {
        // The formats are frozen: whatever the encoders and formatters do
        // inside, the bytes on disk — and so the header and manifest
        // checksums — of this design must never change.  (Golden values
        // taken from the writers before the checksum moved into their
        // loops.)
        use crate::pipeline::Pipeline;
        use kron_core::{KroneckerDesign, SelfLoop};
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
        let pipeline = || {
            Pipeline::for_design(&design)
                .workers(2)
                .chunk_capacity(1000)
        };

        let dir = TestDir::new("golden_v4");
        let report = pipeline().write_compressed(&dir).unwrap();
        let recorded: Vec<u64> = report.manifest.shards.iter().map(|s| s.checksum).collect();
        assert_eq!(recorded, GOLDEN_V4_CHECKSUMS);
        let files: Vec<u64> = report
            .outputs
            .iter()
            .map(|path| Fnv1a::hash(&std::fs::read(path).unwrap()))
            .collect();
        assert_eq!(files, GOLDEN_V4_FILE_HASHES);

        let dir = TestDir::new("golden_tsv");
        let report = pipeline().write_tsv(&dir).unwrap();
        let recorded: Vec<u64> = report.manifest.shards.iter().map(|s| s.checksum).collect();
        assert_eq!(recorded, GOLDEN_TSV_CHECKSUMS);
        for (path, golden) in report.outputs.iter().zip(GOLDEN_TSV_CHECKSUMS) {
            assert_eq!(Fnv1a::hash(&std::fs::read(path).unwrap()), golden);
        }
    }

    const GOLDEN_V4_CHECKSUMS: [u64; 2] = [0x2a9f_f983_3305_fe41, 0xc9c7_5fa8_1cea_0b01];
    const GOLDEN_V4_FILE_HASHES: [u64; 2] = [0x436a_7222_5d36_dceb, 0x3447_2188_c04c_0164];
    const GOLDEN_TSV_CHECKSUMS: [u64; 2] = [0xc506_9e0e_ca8e_7d07, 0x2c8e_6e48_2dd8_187f];

    /// What the standard library's formatter writes for `edges` — the oracle
    /// the TSV formatter is checked against.
    fn oracle_tsv(edges: &[(u64, u64)]) -> String {
        edges
            .iter()
            .map(|(row, col)| format!("{row}\t{col}\t1\n"))
            .collect()
    }

    /// `edges` through the TSV formatter in one call, checked byte for byte
    /// and hash for hash against the oracle.
    fn assert_formats_like_the_oracle(edges: &[(u64, u64)]) {
        let expected = oracle_tsv(edges);
        let mut written = Vec::new();
        let mut hasher = Fnv1a::new();
        write_tsv_edges(&mut written, edges, &mut hasher).unwrap();
        // Line by line first, so a failure prints one line, not megabytes.
        let written = String::from_utf8(written).unwrap();
        if let Some((got, want)) = written.lines().zip(expected.lines()).find(|(a, b)| a != b) {
            panic!("the formatter wrote {got:?} where the standard formatter writes {want:?}");
        }
        assert_eq!(written.len(), expected.len());
        assert_eq!(hasher.finish(), Fnv1a::hash(expected.as_bytes()));
    }

    #[test]
    fn every_four_digit_group_formats_in_every_group_position() {
        // A label is at most five 4-digit groups.  Each group position takes
        // every value 0..10 000 while the other groups are all 0 (so the
        // group's own zeros lead or pad, by where it sits), all 1 (zeros
        // inside every word) or all 9 999, under a top group of 0 or 1 843
        // (the largest with room for any lower 16 digits below `u64::MAX`).
        // The top position itself takes every value that fits.
        const GROUP: u64 = 10_000;
        let mut values = Vec::new();
        for position in 0..5u32 {
            let scale = GROUP.pow(position);
            for fill in [0, 1, GROUP - 1] {
                let lower: u64 = (0..4u32)
                    .filter(|&other| other != position)
                    .map(|other| fill * GROUP.pow(other))
                    .sum();
                let tops: &[u64] = if position == 4 { &[0] } else { &[0, 1_843] };
                for top in tops {
                    for group in 0..GROUP {
                        let value = group
                            .checked_mul(scale)
                            .and_then(|placed| placed.checked_add(top * GROUP.pow(4) + lower));
                        values.extend(value);
                    }
                }
            }
        }
        assert!(values.contains(&(1_844 * GROUP.pow(4))));
        assert!(values.len() > 4 * 6 * 9_000, "{} values", values.len());
        // Every value as a row and, against the list reversed, as a column,
        // so columns start after rows of every length.
        let edges: Vec<(u64, u64)> = values
            .iter()
            .copied()
            .zip(values.iter().rev().copied())
            .collect();
        assert_formats_like_the_oracle(&edges);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A label of a uniformly drawn digit count, 1 to 20, uniform within
        /// that count — every word split, not just the 20-digit values a
        /// uniform `u64` almost always is.
        fn label() -> impl Strategy<Value = u64> {
            (1u32..21, any::<u64>()).prop_map(|(digits, draw)| {
                let low = if digits == 1 {
                    0
                } else {
                    10u64.pow(digits - 1)
                };
                let high = 10u64.checked_pow(digits).map_or(u64::MAX, |top| top - 1);
                low + draw % (high - low + 1)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_labels_of_every_length_format_like_the_standard_formatter(
                edges in proptest::collection::vec((label(), label()), 0..300),
            ) {
                assert_formats_like_the_oracle(&edges);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn shard_bytes_and_checksum_ignore_where_consume_calls_split(
                // ≈ 23 bytes a line on average, so 4–16 KiB of text: the
                // formatter's 4 KiB tile flushes mid-call.
                edges in proptest::collection::vec((label(), label()), 200..700),
                cuts in proptest::collection::vec(any::<usize>(), 0..12),
            ) {
                let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (edges.len() + 1)).collect();
                cuts.push(edges.len());
                cuts.sort_unstable();
                let dir = TestDir::new("tsv_splits");
                let tsv = dir.join("shard.tsv");
                let mut sink = TsvShardSink::create(&tsv).unwrap();
                let mut from = 0;
                for cut in cuts {
                    sink.consume(&edges[from..cut]).unwrap();
                    from = cut;
                }
                let (_, checksum) = sink.finish_with_checksum().unwrap();
                let expected = oracle_tsv(&edges);
                prop_assert!(std::fs::read(&tsv).unwrap() == expected.as_bytes());
                prop_assert_eq!(checksum, Some(Fnv1a::hash(expected.as_bytes())));
            }
        }
    }

    /// Assert that `error` is an I/O error naming `shard`'s staging file.
    #[cfg(target_os = "linux")]
    fn assert_names_the_staged_file(error: SparseError, shard: &Path) {
        match error {
            SparseError::WithPath { path, source } => {
                assert_eq!(path, tmp_shard_path(shard).display().to_string());
                assert!(matches!(*source, SparseError::Io(_)), "{source}");
            }
            other => panic!("expected the error to name {}: {other:?}", shard.display()),
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn write_errors_name_the_shard_and_never_reach_the_final_name() {
        // `<shard>.tmp` is a symlink to /dev/full, so every write that
        // reaches the file fails with "no space left on device".
        let dir = TestDir::new("dev_full");
        let stage_on_full_disk = |name: &str| {
            let shard = dir.join(name);
            std::os::unix::fs::symlink("/dev/full", tmp_shard_path(&shard)).unwrap();
            shard
        };
        // Far more than the 256 KiB write buffer, so consume itself writes.
        let many: Vec<(u64, u64)> = (0..100_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20, i))
            .collect();

        // Failing inside consume.
        let tsv = stage_on_full_disk("consume.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        assert_names_the_staged_file(sink.consume(&many).unwrap_err(), &tsv);
        sink.abandon();
        let kbkz = stage_on_full_disk("consume.kbkz");
        let mut sink = CompressedShardSink::create(&kbkz, u64::MAX, u64::MAX).unwrap();
        assert_names_the_staged_file(sink.consume(&many).unwrap_err(), &kbkz);
        sink.abandon();

        // Failing when the commit flushes what consume buffered.
        let tsv_small = stage_on_full_disk("commit.tsv");
        let mut sink = TsvShardSink::create(&tsv_small).unwrap();
        sink.consume(EDGES).unwrap();
        assert_names_the_staged_file(sink.finish_with_checksum().unwrap_err(), &tsv_small);
        let kbkz_small = stage_on_full_disk("commit.kbkz");
        let mut sink = CompressedShardSink::create(&kbkz_small, 4, 4).unwrap();
        sink.consume(EDGES).unwrap();
        assert_names_the_staged_file(sink.finish_with_checksum().unwrap_err(), &kbkz_small);

        for shard in [tsv, kbkz, tsv_small, kbkz_small] {
            assert!(!shard.exists(), "{} must not appear", shard.display());
        }
    }

    /// A sink that fails on the `n`-th consume, for exercising the
    /// double-buffered writer thread's error path.
    struct FailAfter {
        remaining: usize,
    }

    impl EdgeSink for FailAfter {
        type Output = ();

        fn consume(&mut self, _edges: &[(u64, u64)]) -> Result<(), SparseError> {
            if self.remaining == 0 {
                return Err(SparseError::Parse {
                    line: 0,
                    message: "injected sink failure".into(),
                });
            }
            self.remaining -= 1;
            Ok(())
        }

        fn finish_with_checksum(self) -> Result<((), Option<u64>), SparseError> {
            Ok(((), None))
        }
    }

    #[test]
    fn double_buffered_sink_delegates_and_matches_the_plain_sink() {
        let dir = TestDir::new("double_buffered");
        let plain = dir.join("plain.kbkz");
        let mut sink = CompressedShardSink::create(&plain, 64, 64).unwrap();
        let edges: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 64, (i * 3) % 64)).collect();
        for piece in edges.chunks(33) {
            sink.consume(piece).unwrap();
        }
        let (_, plain_checksum) = sink.finish_with_checksum().unwrap();

        let buffered = dir.join("buffered.kbkz");
        let mut sink =
            DoubleBufferedSink::new(CompressedShardSink::create(&buffered, 64, 64).unwrap());
        for piece in edges.chunks(33) {
            sink.consume(piece).unwrap();
        }
        let (out, checksum) = sink.finish_with_checksum().unwrap();
        assert_eq!(out, buffered);
        assert_eq!(checksum, plain_checksum);
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&buffered).unwrap(),
            "the writer thread must not change the bytes"
        );
    }

    #[test]
    fn double_buffered_sink_surfaces_the_writer_threads_error() {
        let mut sink = DoubleBufferedSink::new(FailAfter { remaining: 1 });
        sink.consume(EDGES).unwrap(); // accepted by the inner sink
                                      // The failure lands on the writer thread; it must reach the caller
                                      // on a later consume or at finish, never panic or hang.
        let mut failed = false;
        for _ in 0..100 {
            if sink.consume(EDGES).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            let err = sink.finish_with_checksum().unwrap_err();
            assert!(err.to_string().contains("injected sink failure"), "{err}");
        }
    }

    #[test]
    fn double_buffered_sink_abandon_and_drop_remove_the_partial() {
        let dir = TestDir::new("double_buffered_abandon");
        let kbkz = dir.join("abandoned.kbkz");
        let mut sink = DoubleBufferedSink::new(CompressedShardSink::create(&kbkz, 4, 4).unwrap());
        sink.consume(EDGES).unwrap();
        sink.abandon();
        assert!(!kbkz.exists());
        assert!(!tmp_shard_path(&kbkz).exists());

        // Dropping without finish must abandon, not seal a truncated shard.
        let dropped = dir.join("dropped.kbkz");
        let mut sink =
            DoubleBufferedSink::new(CompressedShardSink::create(&dropped, 4, 4).unwrap());
        sink.consume(EDGES).unwrap();
        drop(sink);
        assert!(
            !dropped.exists(),
            "drop must never produce a complete shard"
        );
    }
}
