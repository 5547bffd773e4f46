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
//! * [`DegreeOnlySink`] — accumulates the worker's exact degree counts and
//!   writes nothing: measured-equals-predicted validation with zero output.
//!
//! Combinators:
//!
//! * [`TeeSink`] — fan one stream out to two sinks.
//! * [`DoubleBufferedSink`] — move any sink onto its own writer thread,
//!   overlapping encode+write with generation behind a bounded queue.
//! * [`FilterMapSink`] — transform or drop edges before an inner sink sees
//!   them.
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
//! [`encode_frame_checksummed`]), where it hides behind the formatting and
//! varint work.  The bytes and checksums are what a separate pass would
//! give — a golden test below pins them.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_core::CoreError;
use kron_sparse::reduce::DegreeAccumulator;
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

    /// Finalise the sink (flush buffers, patch headers) and return its
    /// output.
    #[must_use = "finish flushes buffers and returns the sink's output; dropping the result loses both"]
    fn finish(self) -> Result<Self::Output, SparseError>;

    /// Deliberately discard the sink without finishing it — the clean way to
    /// throw a failed attempt away.  File-backed sinks remove their
    /// temporary file and suppress the dropped-without-`finish` warning;
    /// the default just drops the sink.
    fn abandon(self)
    where
        Self: Sized,
    {
        drop(self);
    }

    /// Finalise the sink and return its output together with the checksum
    /// of the *finished* artefact — the FNV-1a hash the progress journal and
    /// the manifest record for a shard file, `None` (the default) for sinks
    /// that leave nothing durable behind.
    ///
    /// This is the only way a sink reports a checksum: a hash only describes
    /// the artefact once trailing state (a partial compression frame, a
    /// patched header) is sealed, and for a sink running on another thread
    /// it only exists where the inner sink lives.  A wrapper around another
    /// sink forwards this method to it.
    #[must_use = "finish flushes buffers and returns the sink's output; dropping the result loses both"]
    fn finish_with_checksum(self) -> Result<(Self::Output, Option<u64>), SparseError>
    where
        Self: Sized,
    {
        Ok((self.finish()?, None))
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

    /// Make the file durable under its final name: flush, overwrite `bytes`
    /// at `offset` when a `patch` is given (the header fields only known at
    /// the end), fsync, rename, and fsync the directory.  Returns the final
    /// path and the checksum.
    pub(crate) fn commit(self, patch: Option<(u64, &[u8])>) -> Result<(PathBuf, u64), SparseError> {
        let mut names = self.names;
        names.settled = true;
        // Flushes, and gives the write buffer back before anything below
        // allocates.
        let mut file = self.writer.into_inner().map_err(|e| e.into_error())?;
        if let Some((offset, bytes)) = patch {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(bytes)?;
        }
        file.sync_all()?;
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
                "warning: {} was dropped without finish(); the partial file stays at {}",
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

    fn finish(self) -> Result<u64, SparseError> {
        Ok(self.edges)
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

    fn finish(self) -> Result<CooMatrix<u64>, SparseError> {
        Ok(self.block)
    }
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

/// An [`EdgeSink`] writing `row<TAB>col<TAB>1` triples through a buffered
/// writer — one TSV shard per worker.
///
/// Like every shard sink, it stages its bytes at `<path>.tmp` until
/// `finish()` fsyncs them and atomically renames them to `path`, so the
/// final name only ever holds a complete shard.  Its checksum is the FNV-1a
/// hash of the whole file — the sidecar checksum the run's progress journal
/// and manifest record for later verification.
pub struct TsvShardSink {
    staged: StagedFile,
}

impl TsvShardSink {
    /// Create the shard, staging bytes at `<path>.tmp` until `finish()`.
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
        write_tsv_edges(writer, edges, hasher)?;
        Ok(())
    }

    fn finish(self) -> Result<PathBuf, SparseError> {
        Ok(self.finish_with_checksum()?.0)
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
/// `finish` seals the final partial frame and patches the true entry
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
    /// `<path>.tmp` until `finish()`.
    pub fn create(path: &Path, nrows: u64, ncols: u64) -> Result<Self, SparseError> {
        let mut staged = StagedFile::stage(path, SHARD_BUFFER)?;
        let (writer, _) = staged.parts();
        writer.write_all(&BlockHeader::placeholder(nrows, ncols))?;
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
        writer.write_all(&self.scratch)?;
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

    fn finish(self) -> Result<PathBuf, SparseError> {
        Ok(self.finish_with_checksum()?.0)
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

    fn finish(self) -> Result<PathBuf, SparseError> {
        Ok(self.finish_with_checksum()?.0)
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
/// the error surfaces on the next `consume()` or at `finish()`.
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

    fn finish(self) -> Result<S::Output, SparseError> {
        self.finish_with_checksum().map(|(output, _)| output)
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
        // A front half dropped without finish()/abandon() must not let the
        // writer thread seal a shard nobody asked to complete: flag the
        // abandon, close the channel, and wait the thread out.
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

/// An [`EdgeSink`] that accumulates exact per-vertex degree counts and
/// writes nothing at all — the cheapest way to run the paper's
/// measured-equals-predicted validation when the edges themselves are not
/// wanted.  Its output is the worker's [`DegreeAccumulator`]; merge the
/// per-worker outputs for a run-wide histogram.
#[derive(Debug, Clone)]
pub struct DegreeOnlySink {
    degrees: DegreeAccumulator,
}

impl DegreeOnlySink {
    /// Create a sink counting row-endpoint degrees of a
    /// `vertices × vertices` graph.
    pub fn new(vertices: u64) -> Self {
        DegreeOnlySink {
            degrees: DegreeAccumulator::rows_only(vertices, vertices),
        }
    }
}

impl EdgeSink for DegreeOnlySink {
    type Output = DegreeAccumulator;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.degrees.record(edges);
        Ok(())
    }

    fn finish(self) -> Result<DegreeAccumulator, SparseError> {
        Ok(self.degrees)
    }
}

/// An [`EdgeSink`] that fans every chunk out to two inner sinks — write a
/// shard *and* count, or feed two independent backends from one expansion.
#[derive(Debug, Clone)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: EdgeSink, B: EdgeSink> TeeSink<A, B> {
    /// Fan the stream out to `first` and `second` (in that order per chunk).
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }
}

impl<A: EdgeSink, B: EdgeSink> EdgeSink for TeeSink<A, B> {
    type Output = (A::Output, B::Output);

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.first.consume(edges)?;
        self.second.consume(edges)
    }

    fn finish(self) -> Result<(A::Output, B::Output), SparseError> {
        Ok(self.finish_with_checksum()?.0)
    }

    fn abandon(self) {
        self.first.abandon();
        self.second.abandon();
    }

    /// Reports the first branch's checksum.
    fn finish_with_checksum(self) -> Result<(Self::Output, Option<u64>), SparseError> {
        let (first, checksum) = self.first.finish_with_checksum()?;
        let second = self.second.finish()?;
        Ok(((first, second), checksum))
    }
}

/// An [`EdgeSink`] that applies a `(row, col) → Option<(row, col)>`
/// transform to every edge before an inner sink sees it — drop edges by
/// returning `None`, or rewrite them (relabelling, masking, sampling by
/// index arithmetic) by returning `Some` of the new pair.
///
/// Transformed chunks are staged in an internal buffer so the inner sink
/// still receives whole slices; the buffer is reused across chunks, so the
/// steady state allocates nothing.
#[derive(Debug, Clone)]
pub struct FilterMapSink<S, F> {
    inner: S,
    transform: F,
    buffer: Vec<(u64, u64)>,
}

impl<S, F> FilterMapSink<S, F>
where
    S: EdgeSink,
    F: FnMut(u64, u64) -> Option<(u64, u64)>,
{
    /// Wrap `inner`, passing every edge through `transform` first.
    pub fn new(inner: S, transform: F) -> Self {
        FilterMapSink {
            inner,
            transform,
            buffer: Vec::new(),
        }
    }
}

impl<S, F> EdgeSink for FilterMapSink<S, F>
where
    S: EdgeSink,
    F: FnMut(u64, u64) -> Option<(u64, u64)>,
{
    type Output = S::Output;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.buffer.clear();
        let transform = &mut self.transform;
        self.buffer
            .extend(edges.iter().filter_map(|&(row, col)| transform(row, col)));
        self.inner.consume(&self.buffer)
    }

    fn finish(self) -> Result<S::Output, SparseError> {
        self.inner.finish()
    }

    fn abandon(self) {
        self.inner.abandon();
    }

    fn finish_with_checksum(self) -> Result<(S::Output, Option<u64>), SparseError> {
        self.inner.finish_with_checksum()
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
        assert_eq!(sink.finish().unwrap(), 6);
    }

    #[test]
    fn tee_sink_feeds_both_branches() {
        let mut tee = TeeSink::new(CountingSink::new(), CooSink::new(4));
        tee.consume(EDGES).unwrap();
        let (count, block) = tee.finish().unwrap();
        assert_eq!(count, 4);
        assert_eq!(block.nnz(), 4);
        assert_eq!(
            block.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>(),
            EDGES
        );
    }

    #[test]
    fn filter_map_sink_drops_and_rewrites() {
        // Drop self-loops, transpose everything else.
        let mut sink = FilterMapSink::new(CooSink::new(4), |row, col| {
            (row != col).then_some((col, row))
        });
        sink.consume(EDGES).unwrap();
        let block = sink.finish().unwrap();
        assert_eq!(
            block.iter().map(|(r, c, _)| (r, c)).collect::<Vec<_>>(),
            vec![(1, 0), (0, 2)]
        );
    }

    #[test]
    fn shard_sinks_stage_in_tmp_and_rename_on_finish() {
        let dir = TestDir::new("atomic");
        let tsv = dir.join("shard.tsv");
        let mut sink = TsvShardSink::create(&tsv).unwrap();
        sink.consume(EDGES).unwrap();
        assert!(!tsv.exists(), "the final name must not exist mid-stream");
        assert!(tmp_shard_path(&tsv).exists());
        let out = sink.finish().unwrap();
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
        assert!(!tsv.exists(), "no shard may appear without finish()");
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
        sink.finish().unwrap();

        let pieces = dir.join("pieces.kbkz");
        let mut sink = CompressedShardSink::create(&pieces, 64, 64).unwrap();
        for piece in edges.chunks(7) {
            sink.consume(piece).unwrap();
        }
        sink.finish().unwrap();

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

        fn finish(self) -> Result<(), SparseError> {
            Ok(())
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
            let err = sink.finish().unwrap_err();
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

    #[test]
    fn degree_only_sink_measures_without_writing() {
        let mut sink = DegreeOnlySink::new(4);
        sink.consume(EDGES).unwrap();
        let degrees = sink.finish().unwrap();
        assert_eq!(degrees.edge_count(), 4);
        assert_eq!(degrees.self_loop_count(), 2);
        assert_eq!(degrees.row_counts(), &[1, 1, 1, 1]);
    }
}
