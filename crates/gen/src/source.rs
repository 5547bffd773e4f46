//! Edge sources: the pluggable producers every pipeline run streams from.
//!
//! [`EdgeSource`] is the generation-side mirror of
//! [`EdgeSink`](crate::sink::EdgeSink): a partitioned, chunked,
//! deterministic producer of edges with (optionally exact) predicted
//! properties.  The [`Pipeline`](crate::pipeline::Pipeline) is generic over
//! the source, so the paper's exact Kronecker expansion, the Graph500-style
//! R-MAT sampler (`kron_rmat::RmatSource`), and the raw `B ⊗ C` product all
//! run through the *same* terminals, streamed histogram validation,
//! [`RunReport`](crate::pipeline::RunReport), and
//! [`RunManifest`](crate::manifest::RunManifest).
//!
//! A source is used in two phases:
//!
//! 1. [`EdgeSource::prepare`] turns the source description into a
//!    [`SourceRun`]: split resolved, `C` realised, partition fixed —
//!    everything workers share read-only.
//! 2. [`SourceRun::stream_worker`] streams one worker's deterministic share
//!    of the edges through a reusable [`EdgeChunk`] into a fallible
//!    chunk-slice sink.  Workers are independent (the paper's
//!    communication-free property) and the union of all workers' streams is
//!    the whole graph.
//!
//! Sources that know their output exactly (Kronecker) return
//! [`GraphProperties`] from [`SourceRun::predicted_properties`] and validate
//! every Figure-4 field; sampling sources (R-MAT) return `None` and
//! [`SourceRun::validate`] checks only the fields they *can* predict — the
//! rest of the property sheet is measured-only, exactly the workflow the
//! paper contrasts its designs against.

use std::collections::BTreeMap;

use kron_core::validate::{FieldCheck, ValidationReport};
use kron_core::{CoreError, GraphProperties, KroneckerDesign, SelfLoop};
use kron_sparse::{CooMatrix, SparseError};

use crate::chunk::EdgeChunk;
use crate::partition::{CscIndex, Partition};
use crate::permute::FeistelPermutation;
use crate::split::{choose_split_with_fallback, SplitPlan};

/// What a run does with the single removable self-loop of a triangle-control
/// design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Remove it in-stream, so the sinks receive exactly the designed final
    /// graph (the default, and the paper's construction).
    #[default]
    RemoveDesigned,
    /// Keep every self-loop: the sinks receive the raw `B ⊗ C` product.
    /// Validation then checks the raw counts (vertices, raw edges, product
    /// self-loops) instead of the final-graph property sheet.
    KeepRaw,
}

impl SelfLoopPolicy {
    pub(crate) fn label(self) -> &'static str {
        match self {
            SelfLoopPolicy::RemoveDesigned => "remove_designed",
            SelfLoopPolicy::KeepRaw => "keep_raw",
        }
    }
}

/// How a prepared source describes itself to the run's
/// [`RunManifest`](crate::manifest::RunManifest).
///
/// Kronecker runs fill every field; other sources leave the design-spec
/// fields at their neutral values (empty `star_points`, zero budgets) and
/// identify themselves through `kind` and `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDescriptor {
    /// Source kind recorded in the manifest (`"kronecker"`,
    /// `"kronecker_raw"`, `"rmat"`, …).
    pub kind: &'static str,
    /// The source's sampling seed, for seeded sources.
    pub seed: Option<u64>,
    /// Star points `m̂` of a Kronecker design (empty otherwise).
    pub star_points: Vec<u64>,
    /// Self-loop placement of a Kronecker design (`"None"` otherwise).
    pub self_loop: String,
    /// Exact vertex count, as a decimal string (may exceed `u64`).
    pub vertices: String,
    /// The edge count the source predicts and the run validates against, as
    /// a decimal string — exact for Kronecker, the requested sample count
    /// for R-MAT.
    pub predicted_edges: String,
    /// The resolved `B ⊗ C` split index (0 for non-Kronecker sources).
    pub split_index: usize,
    /// Memory budget for the replicated `C` factor (0 when not applicable).
    pub max_c_edges: u64,
    /// Guard on `nnz(B)`, the partitioned factor's triples (0 when not applicable).
    pub max_b_edges: u64,
    /// The source's self-loop handling label (see [`SelfLoopPolicy`]; R-MAT
    /// reports `"raw_samples"` — samples are delivered untouched).
    pub self_loop_policy: String,
}

/// A partitioned, chunked, deterministic producer of edges — the generation
/// side every [`Pipeline`](crate::pipeline::Pipeline) terminal plugs into.
pub trait EdgeSource {
    /// The prepared, worker-shared state of one run.
    type Run: SourceRun + Sync;

    /// The number of vertices of the generated graph (sinks and the
    /// streaming histogram are sized from this), or an error when the graph
    /// cannot be indexed on this machine.
    fn vertices(&self) -> Result<u64, CoreError>;

    /// Validate the configuration and build the run state for `workers`
    /// workers, together with any degradation warnings (e.g. a fallback
    /// split).
    fn prepare(&self, workers: usize) -> Result<(Self::Run, Vec<String>), CoreError>;
}

/// The prepared state of one run of an [`EdgeSource`]: everything the
/// workers share read-only.
pub trait SourceRun {
    /// Stream worker `worker`'s deterministic share of the edges, filling
    /// the caller's reusable `chunk` and handing the fallible `sink` whole
    /// slices.  Returns the number of edges delivered to the sink.
    ///
    /// The first sink error aborts the stream.  The union of all workers'
    /// streams is exactly the source's graph, every worker's stream is
    /// deterministic for a given source configuration, and memory stays
    /// bounded by the chunk (plus whatever the run state already holds).
    ///
    /// `E: From<SparseError>` lets sources that *read* external state —
    /// [`ReplaySource`](crate::replay::ReplaySource) streaming shards back
    /// from disk — surface their own I/O and parse failures through the same
    /// error channel as the sink; purely computational sources never
    /// construct an error themselves.
    fn stream_worker<E, F>(&self, worker: usize, chunk: &mut EdgeChunk, sink: F) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>;

    /// [`Self::stream_worker`] with the vertex relabelling applied: the sink
    /// receives each chunk twice, as `(source labels, delivered labels)`,
    /// where the second slice is the first mapped edge by edge through
    /// `permutation`.
    ///
    /// The provided body is exactly that — `stream_worker` plus
    /// [`FeistelPermutation::apply_edges_into`] per chunk, two networks per
    /// edge — and is right for any source.  A source whose chunks draw their
    /// labels from few contiguous ranges may override it to image the ranges
    /// instead ([`KroneckerRun`] does); an override must hand the sink the
    /// same sequence of slice pairs as this body would.
    fn stream_worker_relabelled<E, F>(
        &self,
        worker: usize,
        permutation: &FeistelPermutation,
        chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)], &[(u64, u64)]) -> Result<(), E>,
    {
        let mut relabelled = Vec::new();
        let mut walking = Vec::new();
        self.stream_worker(worker, chunk, |edges| {
            permutation.apply_edges_into(edges, &mut relabelled, &mut walking);
            sink(edges, &relabelled)
        })
    }

    /// The order this source's column labels stream in, when it promises
    /// one: the metrics engine then counts a fresh run's degrees in one
    /// window of [`ColumnWindows::width`] labels per worker instead of an
    /// `O(vertices)` vector.  The provided body promises nothing (`None`),
    /// which is right for any source; [`KroneckerRun`] overrides it.
    fn column_windows(&self) -> Option<&ColumnWindows> {
        None
    }

    /// The exact predicted property sheet, for sources that know their
    /// output ahead of generation; `None` for sampling sources whose
    /// properties are measured-only.
    fn predicted_properties(&self) -> Option<GraphProperties>;

    /// Compare the streamed measurement against whatever this source can
    /// predict exactly — the full Figure-4 sheet for Kronecker, counts only
    /// for R-MAT.
    fn validate(&self, measured: &GraphProperties) -> ValidationReport;

    /// The `B ⊗ C` split plan the run executes, for sources that have one.
    fn split_plan(&self) -> Option<SplitPlan>;

    /// The manifest-facing description of this run's source.
    fn descriptor(&self) -> SourceDescriptor;
}

/// A source's promise about the order of its column labels
/// ([`SourceRun::column_windows`]).
///
/// The promise has three parts: the graph is symmetric, so its
/// column-degree histogram is its row-degree histogram; every column label a
/// worker streams lies in a window `[j·width, (j+1)·width)` whose index `j`
/// never decreases along the worker's stream; and two workers share a window
/// only at the ends of their streams.  The metrics engine checks the second
/// part chunk by chunk and the third when the run ends — a broken promise
/// is [`SparseError::StreamOrder`] (or [`SparseError::IndexOutOfBounds`] for
/// a label past the last window), never a miscount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnWindows {
    /// Labels per window.
    pub width: u64,
    /// For each window some worker's stream starts or ends in, the number of
    /// workers whose streams start or end there.  The engine folds such a
    /// window once that many workers have handed it their part, so the
    /// partial windows alive at once track the pool threads, not the
    /// workers; a window missing here waits for the end of the run.
    pub partials: BTreeMap<u64, usize>,
}

/// The design's vertex count as a `u64`, or [`CoreError::TooLargeToRealise`]
/// when the graph cannot be indexed on this machine at all.
pub(crate) fn realisable_vertices(design: &KroneckerDesign) -> Result<u64, CoreError> {
    design
        .vertices()
        .to_u64()
        .ok_or_else(|| CoreError::TooLargeToRealise {
            vertices: design.vertices().to_string(),
            edges: design.nnz_with_loops().to_string(),
        })
}

/// The paper's exact Kronecker expansion as an [`EdgeSource`]: split the
/// design into `B ⊗ C`, partition `B`'s CSC-ordered triples evenly (each
/// computed from `B`'s factors; `B` is never realised), and let each worker
/// expand its slice against the replicated `C`.
///
/// With [`SelfLoopPolicy::KeepRaw`] the same source streams the raw product
/// (self-loops included) and validates the raw counts — the third source
/// kind, `"kronecker_raw"`.
#[derive(Debug, Clone)]
pub struct KroneckerSource<'d> {
    design: &'d KroneckerDesign,
    split: Option<usize>,
    max_c_edges: u64,
    max_b_edges: u64,
    self_loop_policy: SelfLoopPolicy,
}

/// Default memory budget for the replicated `C` factor, in entries.
const DEFAULT_MAX_C_EDGES: u64 = 1 << 20;
/// Default guard on `nnz(B)`, the partitioned factor's triples.
const DEFAULT_MAX_B_EDGES: u64 = 1 << 24;

impl<'d> KroneckerSource<'d> {
    /// A source over `design` with the default factor limits (2^20 entries
    /// for `C`, 2^24 triples for `B`) and an automatically chosen split.
    pub fn new(design: &'d KroneckerDesign) -> Self {
        KroneckerSource {
            design,
            split: None,
            max_c_edges: DEFAULT_MAX_C_EDGES,
            max_b_edges: DEFAULT_MAX_B_EDGES,
            self_loop_policy: SelfLoopPolicy::default(),
        }
    }

    /// The design this source expands.
    pub fn design(&self) -> &'d KroneckerDesign {
        self.design
    }

    /// Pin the `B ⊗ C` split index instead of choosing it automatically.
    pub fn split_index(mut self, split_index: usize) -> Self {
        self.split = Some(split_index);
        self
    }

    /// Set the memory budget for the replicated `C` factor, in stored
    /// entries (also the budget the automatic split choice honours).
    pub fn max_c_edges(mut self, max_c_edges: u64) -> Self {
        self.max_c_edges = max_c_edges;
        self
    }

    /// Set the guard on `nnz(B)`: a larger `B` is refused.  `B` is never
    /// stored, so the guard sizes no allocation.
    pub fn max_b_edges(mut self, max_b_edges: u64) -> Self {
        self.max_b_edges = max_b_edges;
        self
    }

    /// Set the self-loop policy.
    pub fn self_loop_policy(mut self, policy: SelfLoopPolicy) -> Self {
        self.self_loop_policy = policy;
        self
    }

    /// Resolve the split to run with: the pinned index, or the automatic
    /// choice with its single-worker fallback (which records a warning).
    fn resolve_split(&self, workers: usize) -> Result<(usize, Vec<String>), CoreError> {
        if let Some(index) = self.split {
            return Ok((index, Vec::new()));
        }
        let (plan, warning) = choose_split_with_fallback(self.design, self.max_c_edges, workers)?;
        Ok((plan.split_index, warning.into_iter().collect()))
    }
}

impl<'d> EdgeSource for KroneckerSource<'d> {
    type Run = KroneckerRun<'d>;

    fn vertices(&self) -> Result<u64, CoreError> {
        realisable_vertices(self.design)
    }

    fn prepare(&self, workers: usize) -> Result<(KroneckerRun<'d>, Vec<String>), CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig {
                message: "a Kronecker run needs at least one worker".into(),
            });
        }
        let design = self.design;
        let (split_index, warnings) = self.resolve_split(workers)?;
        let (b_design, c_design) = design.split(split_index)?;
        // Both factors keep their self-loops: the raw product is exactly the
        // designed product, and the one surviving loop is filtered in-stream
        // by its owning worker (unless the policy keeps the raw product).
        let b = CscIndex::new(&b_design, self.max_b_edges)?;
        let c = c_design.realize_raw(self.max_c_edges)?;
        let partition = Partition::even(b.nnz(), workers);
        let split_plan = SplitPlan {
            split_index,
            b_nnz: b_design.nnz_with_loops(),
            c_nnz: c_design.nnz_with_loops(),
            c_vertices: c_design.vertices(),
        };

        // The product self-loop lands in the worker whose B slice holds the
        // diagonal triple (v_B, v_B); that worker filters the single global
        // edge (v, v) out of its stream.
        let remove_loop = self.self_loop_policy == SelfLoopPolicy::RemoveDesigned
            && design.has_removable_self_loop();
        let loop_filter = remove_loop.then(|| {
            let b_loop = self_loop_vertex_index(&b_design);
            (
                b.owner(&partition, (b_loop, b_loop)),
                self_loop_vertex_index(design),
            )
        });

        // Each B-triple (rb, cb) streams all of C into the columns
        // [cb·|V_C|, (cb+1)·|V_C|), and the CSC order never lowers cb, so a
        // worker's columns sweep windows of |V_C| labels.  The window
        // measures column degrees, which are the row degrees only when the
        // product is symmetric — as it always is: every constituent is
        // (`Constituent::from_matrix` refuses any other).
        let mut partials = BTreeMap::new();
        for worker in 0..workers {
            let range = partition.range(worker);
            if !range.is_empty() {
                let (first, last) = (b.triple(range.start).1, b.triple(range.end - 1).1);
                *partials.entry(first).or_insert(0) += 1;
                if last != first {
                    *partials.entry(last).or_insert(0) += 1;
                }
            }
        }
        let column_windows = ColumnWindows {
            width: c.ncols(),
            partials,
        };

        let run = KroneckerRun {
            design,
            c,
            b,
            partition,
            column_windows,
            split_plan,
            loop_filter,
            self_loop_policy: self.self_loop_policy,
            max_c_edges: self.max_c_edges,
            max_b_edges: self.max_b_edges,
        };
        Ok((run, warnings))
    }
}

/// The prepared state of one Kronecker run: realised `C`, the index over
/// `B`'s factors and its partition, and the in-stream self-loop filter.
#[derive(Debug, Clone)]
pub struct KroneckerRun<'d> {
    design: &'d KroneckerDesign,
    c: CooMatrix<u64>,
    b: CscIndex,
    partition: Partition,
    column_windows: ColumnWindows,
    split_plan: SplitPlan,
    loop_filter: Option<(usize, u64)>,
    self_loop_policy: SelfLoopPolicy,
    max_c_edges: u64,
    max_b_edges: u64,
}

/// One worker's view of the in-stream self-loop filter: finds the single
/// product loop `(vertex, vertex)` the worker must drop, once.
struct LoopCut {
    vertex: Option<u64>,
    removed: bool,
}

impl LoopCut {
    /// The position in `edges` to cut out, the first time the loop shows up.
    fn find(&mut self, edges: &[(u64, u64)]) -> Option<usize> {
        let vertex = self.vertex.filter(|_| !self.removed)?;
        let at = edges
            .iter()
            .position(|&(r, c)| r == vertex && c == vertex)?;
        self.removed = true;
        Some(at)
    }

    /// The delivered count of a stream that produced `produced` edges.
    fn delivered(&self, produced: u64) -> u64 {
        debug_assert!(
            self.vertex.is_none() || self.removed,
            "the owning worker must see the product loop"
        );
        produced - u64::from(self.removed)
    }
}

impl KroneckerRun<'_> {
    fn loop_cut(&self, worker: usize) -> LoopCut {
        LoopCut {
            vertex: self
                .loop_filter
                .and_then(|(owner, vertex)| (owner == worker).then_some(vertex)),
            removed: false,
        }
    }
}

/// Stream the edges of one worker's block — the Kronecker product of its
/// `B`-triple slice with `C` — filling the caller's reusable `chunk` and
/// calling the fallible `sink` with each full chunk (and once with the
/// final partial chunk), so the per-edge cost is two adds and a buffered
/// store: no bounds check, no closure dispatch, no allocation after the
/// first chunk.  Global `(row, col)` indices; returns the number of edges
/// produced.
///
/// The first sink error aborts the expansion immediately — no further
/// edges are generated — and the undelivered edges stay in `chunk` (see
/// [`EdgeChunk::try_flush`]).  On success the chunk is left empty, so one
/// buffer can serve a whole run of blocks.  The chunk is also flushed on
/// entry if it still holds edges from a previous call.
fn try_stream_block_edges_into<E, F: FnMut(&[(u64, u64)]) -> Result<(), E>>(
    b_triples: impl ExactSizeIterator<Item = (u64, u64)>,
    c: &CooMatrix<u64>,
    chunk: &mut EdgeChunk,
    mut sink: F,
) -> Result<u64, E> {
    chunk.try_flush(&mut sink)?;
    let (c_rows, c_cols) = (c.row_indices(), c.col_indices());
    let (c_nrows, c_ncols) = (c.nrows(), c.ncols());
    let (c_nnz, triples) = (c_rows.len(), b_triples.len());
    for (rb, cb) in b_triples {
        let row_base = rb * c_nrows;
        let col_base = cb * c_ncols;
        // Copy C in runs sized to the space left in the chunk: each run is a
        // single vectorized extend, and the full-chunk test amortizes over
        // the run instead of running per edge.
        let mut done = 0;
        while done < c_nnz {
            let take = (c_nnz - done).min(chunk.remaining());
            chunk.extend_translated(
                row_base,
                col_base,
                &c_rows[done..done + take],
                &c_cols[done..done + take],
            );
            done += take;
            if chunk.is_full() {
                chunk.try_flush(&mut sink)?;
            }
        }
    }
    chunk.try_flush(&mut sink)?;
    Ok((triples * c_nnz) as u64)
}

impl SourceRun for KroneckerRun<'_> {
    fn stream_worker<E, F>(
        &self,
        worker: usize,
        chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)]) -> Result<(), E>,
    {
        let mut cut = self.loop_cut(worker);
        let slice = self.partition.range(worker).map(|t| self.b.triple(t));
        let produced =
            try_stream_block_edges_into(slice, &self.c, chunk, |edges| match cut.find(edges) {
                Some(at) => {
                    sink(&edges[..at])?;
                    sink(&edges[at + 1..])
                }
                None => sink(edges),
            })?;
        Ok(cut.delivered(produced))
    }

    /// The block path: every edge of the `B`-triple `(rb, cb)` is
    /// `(rb·|V_C| + rc, cb·|V_C| + cc)`, so its row labels all lie in one
    /// range of `|V_C|` labels and its column labels in another.  Each range
    /// is imaged once ([`FeistelPermutation::apply_range_into`], redone only
    /// when `rb` / `cb` changes — the CSC order keeps `cb` for a whole run of
    /// triples) and the relabelled chunk is a gather
    /// `(row_images[rc], col_images[cc])`: `2·|V_C|` networks per triple in
    /// place of `2·nnz(C)`.  Chunk boundaries and the self-loop cut are the
    /// generic path's, so the sink sees the same slices.
    fn stream_worker_relabelled<E, F>(
        &self,
        worker: usize,
        permutation: &FeistelPermutation,
        chunk: &mut EdgeChunk,
        mut sink: F,
    ) -> Result<u64, E>
    where
        E: From<SparseError>,
        F: FnMut(&[(u64, u64)], &[(u64, u64)]) -> Result<(), E>,
    {
        let slice = self.partition.range(worker).map(|t| self.b.triple(t));
        let mut cut = self.loop_cut(worker);
        let mut relabelled: Vec<(u64, u64)> = Vec::with_capacity(chunk.capacity());
        let mut walking = Vec::new();
        // Hand the sink the chunk and its images, cut at the product loop;
        // as in `EdgeChunk::try_flush`, the edges stay buffered on error.
        let mut flush =
            |chunk: &mut EdgeChunk, relabelled: &mut Vec<(u64, u64)>| -> Result<(), E> {
                let edges = chunk.as_slice();
                if edges.is_empty() {
                    return Ok(());
                }
                match cut.find(edges) {
                    Some(at) => {
                        sink(&edges[..at], &relabelled[..at])?;
                        sink(&edges[at + 1..], &relabelled[at + 1..])?;
                    }
                    None => sink(edges, relabelled)?,
                }
                chunk.clear();
                relabelled.clear();
                Ok(())
            };
        // Edges a previous call left behind belong to no triple of this one.
        permutation.apply_edges_into(chunk.as_slice(), &mut relabelled, &mut walking);
        flush(chunk, &mut relabelled)?;
        let (c_rows, c_cols) = (self.c.row_indices(), self.c.col_indices());
        let (c_nrows, c_ncols) = (self.c.nrows(), self.c.ncols());
        let mut row_images: Vec<u64> = Vec::new();
        let mut col_images: Vec<u64> = Vec::new();
        let (mut imaged_rb, mut imaged_cb) = (None, None);
        for (rb, cb) in slice {
            let (row_base, col_base) = (rb * c_nrows, cb * c_ncols);
            if imaged_rb != Some(rb) {
                permutation.apply_range_into(
                    row_base,
                    c_nrows as usize,
                    &mut row_images,
                    &mut walking,
                );
                imaged_rb = Some(rb);
            }
            if imaged_cb != Some(cb) {
                permutation.apply_range_into(
                    col_base,
                    c_ncols as usize,
                    &mut col_images,
                    &mut walking,
                );
                imaged_cb = Some(cb);
            }
            let mut done = 0;
            while done < c_rows.len() {
                let take = (c_rows.len() - done).min(chunk.remaining());
                let (rows, cols) = (&c_rows[done..done + take], &c_cols[done..done + take]);
                chunk.extend_translated(row_base, col_base, rows, cols);
                relabelled.extend(
                    rows.iter()
                        .zip(cols)
                        .map(|(&rc, &cc)| (row_images[rc as usize], col_images[cc as usize])),
                );
                done += take;
                if chunk.is_full() {
                    flush(chunk, &mut relabelled)?;
                }
            }
        }
        flush(chunk, &mut relabelled)?;
        Ok(cut.delivered((self.partition.len(worker) * c_rows.len()) as u64))
    }

    /// `|V_C|`-label windows.
    fn column_windows(&self) -> Option<&ColumnWindows> {
        Some(&self.column_windows)
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        Some(self.design.properties())
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        match self.self_loop_policy {
            SelfLoopPolicy::RemoveDesigned => {
                kron_core::validate::validate_streamed(&self.design.properties(), measured)
            }
            SelfLoopPolicy::KeepRaw => validate_raw(self.design, measured),
        }
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        Some(self.split_plan.clone())
    }

    fn descriptor(&self) -> SourceDescriptor {
        // The predicted count is the one validate() compares against: the
        // final graph's, or the raw product's for a keep-raw run.
        let predicted_edges = match self.self_loop_policy {
            SelfLoopPolicy::RemoveDesigned => self.design.edges(),
            SelfLoopPolicy::KeepRaw => self.design.nnz_with_loops(),
        };
        SourceDescriptor {
            kind: match self.self_loop_policy {
                SelfLoopPolicy::RemoveDesigned => "kronecker",
                SelfLoopPolicy::KeepRaw => "kronecker_raw",
            },
            seed: None,
            star_points: self.design.star_points().unwrap_or_default(),
            self_loop: format!("{:?}", design_self_loop(self.design)),
            vertices: self.design.vertices().to_string(),
            predicted_edges: predicted_edges.to_string(),
            split_index: self.split_plan.split_index,
            max_c_edges: self.max_c_edges,
            max_b_edges: self.max_b_edges,
            self_loop_policy: self.self_loop_policy.label().to_string(),
        }
    }
}

/// Global index of the product vertex that carries the single self-loop of a
/// triangle-control design: the mixed-radix combination of each
/// constituent's self-loop vertex index.
fn self_loop_vertex_index(design: &KroneckerDesign) -> u64 {
    let mut index = 0u64;
    for constituent in design.constituents() {
        let local = constituent
            .adjacency()
            .iter()
            .find(|&(r, c, _)| r == c)
            .map(|(r, _, _)| r)
            .unwrap_or(0);
        index = index * constituent.vertices() + local;
    }
    index
}

/// The self-loop placement of a pure star design (the manifest's design
/// spec).  Mixed or non-star designs report the first constituent's
/// placement — the manifest's `star_points` being empty flags those.
fn design_self_loop(design: &KroneckerDesign) -> SelfLoop {
    design
        .constituents()
        .first()
        .and_then(|c| c.as_star())
        .map(|s| s.self_loop())
        .unwrap_or(SelfLoop::None)
}

/// Validate a raw-product run: the streamable fields whose raw values the
/// design predicts exactly — vertices, raw edge count, and product
/// self-loop count.  The degree distribution is not checked (the analytic
/// distribution describes the final graph, not the raw product).
fn validate_raw(design: &KroneckerDesign, measured: &GraphProperties) -> ValidationReport {
    ValidationReport::from_checks(vec![
        FieldCheck::exact("vertices", design.vertices(), &measured.vertices),
        FieldCheck::exact("raw_edges", design.nnz_with_loops(), &measured.edges),
        FieldCheck::exact(
            "raw_self_loops",
            design.product_self_loops(),
            &measured.self_loops,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::SelfLoop;

    #[test]
    fn kronecker_stream_union_is_the_designed_graph() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let source = KroneckerSource::new(&design)
            .split_index(1)
            .max_c_edges(100_000);
        let vertices = source.vertices().unwrap();
        let (run, warnings) = source.prepare(3).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(vertices, design.vertices().to_u64().unwrap());

        let mut all: Vec<(u64, u64)> = Vec::new();
        let mut delivered = 0;
        for worker in 0..3 {
            let mut chunk = EdgeChunk::new(512);
            delivered += run
                .stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                    all.extend_from_slice(edges);
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(delivered as usize, all.len());
        let mut expected: Vec<(u64, u64)> = design
            .realize(1_000_000)
            .unwrap()
            .iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected);

        let descriptor = run.descriptor();
        assert_eq!(descriptor.kind, "kronecker");
        assert_eq!(descriptor.seed, None);
        assert_eq!(descriptor.star_points, vec![3, 4, 5]);
        assert_eq!(descriptor.split_index, 1);
        assert!(run.predicted_properties().is_some());
        assert!(run.split_plan().is_some());
    }

    /// A raw-product run over `design` split after its first constituent:
    /// worker `p` streams exactly `B_p ⊗ C`, no self-loop cut.
    fn raw_run(design: &KroneckerDesign, workers: usize) -> KroneckerRun<'_> {
        KroneckerSource::new(design)
            .split_index(1)
            .self_loop_policy(SelfLoopPolicy::KeepRaw)
            .prepare(workers)
            .unwrap()
            .0
    }

    /// The oracle for the index over `B`: `B` realised, sorted into CSC
    /// order (column, then row) and deduplicated.
    fn realised_csc(b: &KroneckerDesign) -> Vec<(u64, u64)> {
        let raw = b.realize_raw(1 << 20).unwrap();
        let mut triples: Vec<(u64, u64)> = raw.iter().map(|(r, c, _)| (r, c)).collect();
        triples.sort_unstable_by_key(|&(r, c)| (c, r));
        triples.dedup();
        triples
    }

    /// The definition of `B ⊗ C` in `B`'s CSC order, one edge at a time.
    fn realised_product(design: &KroneckerDesign, split: usize) -> Vec<(u64, u64)> {
        let (b_design, c_design) = design.split(split).unwrap();
        let c = c_design.realize_raw(1 << 20).unwrap();
        let mut product = Vec::new();
        for (rb, cb) in realised_csc(&b_design) {
            for (rc, cc, _) in c.iter() {
                product.push((rb * c.nrows() + rc, cb * c.ncols() + cc));
            }
        }
        product
    }

    /// Prepare `design` split after `split` constituents and hold the run to
    /// the realised `B`: the index triple for triple, the column windows, and
    /// the workers' streams, concatenated, against the product with the
    /// designed loop cut as `policy` says.
    pub(super) fn check_against_realised(
        design: &KroneckerDesign,
        split: usize,
        policy: SelfLoopPolicy,
        workers: usize,
    ) {
        let source = KroneckerSource::new(design)
            .split_index(split)
            .self_loop_policy(policy);
        let (run, _) = source.prepare(workers).unwrap();
        let b = realised_csc(&design.split(split).unwrap().0);
        let index: Vec<(u64, u64)> = (0..run.b.nnz()).map(|t| run.b.triple(t)).collect();
        assert_eq!(index, b);

        if let Some(windows) = run.column_windows() {
            let mut partials = BTreeMap::new();
            for worker in 0..workers {
                let slice = &b[run.partition.range(worker)];
                if let (Some(&(_, first)), Some(&(_, last))) = (slice.first(), slice.last()) {
                    *partials.entry(first).or_insert(0) += 1;
                    if last != first {
                        *partials.entry(last).or_insert(0) += 1;
                    }
                }
            }
            assert_eq!(windows.partials, partials);
        }

        let mut expected = realised_product(design, split);
        if policy == SelfLoopPolicy::RemoveDesigned && design.has_removable_self_loop() {
            let v = self_loop_vertex_index(design);
            expected.retain(|&edge| edge != (v, v));
        }
        let mut streamed = Vec::new();
        for worker in 0..workers {
            let mut chunk = EdgeChunk::new(64);
            run.stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                streamed.extend_from_slice(edges);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(streamed, expected);
    }

    #[test]
    fn chunked_stream_is_the_translated_product_in_order_at_every_chunk_size() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let expected = realised_product(&design, 1);
        let run = raw_run(&design, 1);
        for chunk_capacity in [1usize, 3, 4096] {
            let mut chunked: Vec<(u64, u64)> = Vec::new();
            let mut chunk = EdgeChunk::new(chunk_capacity);
            let produced = run
                .stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
                    chunked.extend_from_slice(edges);
                    Ok(())
                })
                .unwrap();
            assert!(chunk.is_empty(), "chunk must be drained on return");
            assert_eq!(produced as usize, chunked.len());
            assert_eq!(
                chunked, expected,
                "order differs at chunk capacity {chunk_capacity}"
            );
        }
    }

    #[test]
    fn zero_workers_rejected_at_prepare() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        for source in [
            KroneckerSource::new(&design),
            KroneckerSource::new(&design).split_index(1),
        ] {
            assert!(matches!(
                source.prepare(0),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn max_b_edges_guards_nnz_b_exactly() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let b_design = design.split(2).unwrap().0;
        let nnz = b_design.nnz_with_loops().to_u64().unwrap();
        let source = KroneckerSource::new(&design).split_index(2);
        assert!(source.clone().max_b_edges(nnz).prepare(2).is_ok());
        let refused = source.max_b_edges(nnz - 1).prepare(2).unwrap_err();
        assert_eq!(refused, b_design.realize_raw(nnz - 1).unwrap_err());
        assert_eq!(
            refused,
            CoreError::TooLargeToRealise {
                vertices: "20".into(),
                edges: nnz.to_string(),
            }
        );
    }

    #[test]
    fn custom_constituent_index_is_the_realised_csc_order() {
        // A path 0–1–2 with its loop on 1 and an isolated vertex 3, whose
        // empty column the index must step over.
        let path = CooMatrix::from_edges(4, 4, vec![(0, 1), (1, 0), (1, 2), (2, 1), (1, 1)]);
        let custom = kron_core::Constituent::from_matrix(path.unwrap(), 0).unwrap();
        let star = |points| kron_core::Constituent::star(points, SelfLoop::Centre).unwrap();
        let design = KroneckerDesign::new(vec![star(3), custom, star(2)]).unwrap();
        for policy in [SelfLoopPolicy::RemoveDesigned, SelfLoopPolicy::KeepRaw] {
            for workers in [1, 4, 7] {
                check_against_realised(&design, 2, policy, workers);
            }
        }
    }

    #[test]
    fn empty_slice_streams_nothing() {
        // Six B triples on eight workers: the last two slices are empty.
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let run = raw_run(&design, 8);
        let idle: Vec<usize> = (0..8)
            .filter(|&w| run.partition.range(w).is_empty())
            .collect();
        assert!(!idle.is_empty());
        for worker in idle {
            let mut calls = 0usize;
            let mut chunk = EdgeChunk::new(8);
            let produced = run
                .stream_worker::<SparseError, _>(worker, &mut chunk, |_| {
                    calls += 1;
                    Ok(())
                })
                .unwrap();
            assert_eq!(produced, 0);
            assert_eq!(calls, 0, "no edges must mean no sink calls");
        }
    }

    /// Every `(source, delivered)` slice pair one worker's relabelled stream
    /// hands its sink, and the count it returns.
    type SlicePairs = Vec<(Vec<(u64, u64)>, Vec<(u64, u64)>)>;

    fn relabelled_slices<R: SourceRun>(
        run: &R,
        worker: usize,
        permutation: &FeistelPermutation,
        capacity: usize,
    ) -> (u64, SlicePairs) {
        let mut pairs = Vec::new();
        let mut chunk = EdgeChunk::new(capacity);
        // An edge an aborted earlier stream left behind goes out first.
        chunk.push(1, 2);
        let delivered = run
            .stream_worker_relabelled::<SparseError, _>(
                worker,
                permutation,
                &mut chunk,
                |edges, out| {
                    pairs.push((edges.to_vec(), out.to_vec()));
                    Ok(())
                },
            )
            .unwrap();
        assert!(chunk.is_empty(), "chunk must be drained on return");
        (delivered, pairs)
    }

    #[test]
    fn block_path_hands_the_sink_the_generic_paths_slices() {
        use crate::fault::{FaultSchedule, FaultySource};

        // Where in its chunk the removed product loop sat, over the matrix.
        let (mut first, mut mid, mut last) = (false, false, false);
        for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
            let design = KroneckerDesign::from_star_points(&[3, 4, 5], self_loop).unwrap();
            let source = KroneckerSource::new(&design).split_index(1);
            let vertices = source.vertices().unwrap();
            // `new` tables a domain this small; the block path must agree
            // with the generic one when both evaluate the network, too.
            for permutation in [
                FeistelPermutation::new(vertices, 0xFEED),
                FeistelPermutation::without_table(vertices, 0xFEED),
            ] {
                for workers in [1usize, 3, 8] {
                    let (block, _) = source.prepare(workers).unwrap();
                    // A run that forwards `stream_worker` alone, so its
                    // relabelled stream is the trait's provided body.
                    let (generic, _) = FaultySource::new(source.clone(), FaultSchedule::none())
                        .prepare(workers)
                        .unwrap();
                    for capacity in [1usize, 3, 4096] {
                        for worker in 0..workers {
                            let label = format!("{self_loop:?} w{worker}/{workers} c{capacity}");
                            let got = relabelled_slices(&block, worker, &permutation, capacity);
                            let want = relabelled_slices(&generic, worker, &permutation, capacity);
                            assert_eq!(got, want, "{label}");
                            for (edges, out) in &got.1 {
                                let mapped: Vec<_> =
                                    edges.iter().map(|&e| permutation.apply_edge(e)).collect();
                                assert_eq!(out, &mapped, "{label}");
                            }
                            // Past the leftover edge, chunks ahead of the
                            // cut are full, so the first two slices that
                            // together fall short of one chunk are the cut's
                            // two sides.
                            let sides = got.1[1..]
                                .windows(2)
                                .map(|pair| (&pair[0].0, &pair[1].0))
                                .find(|(before, after)| before.len() + after.len() < capacity);
                            if let Some((before, after)) = sides {
                                first |= before.is_empty();
                                last |= after.is_empty();
                                mid |= !before.is_empty() && !after.is_empty();
                            }
                        }
                    }
                }
            }
        }
        assert!(
            first && mid && last,
            "cut first={first} mid={mid} last={last}"
        );
    }

    #[test]
    fn self_loop_vertex_index_cases() {
        let centre = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        assert_eq!(self_loop_vertex_index(&centre), 0);
        let leaf = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Leaf).unwrap();
        // Leaf vertex of each star is its last vertex, so the product loop is
        // at the last product vertex.
        assert_eq!(self_loop_vertex_index(&leaf), 4 * 5 - 1);
    }

    #[test]
    fn keep_raw_descriptor_reports_the_raw_source_kind() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        let source = KroneckerSource::new(&design)
            .split_index(1)
            .self_loop_policy(SelfLoopPolicy::KeepRaw);
        let (run, _) = source.prepare(2).unwrap();
        let descriptor = run.descriptor();
        assert_eq!(descriptor.kind, "kronecker_raw");
        assert_eq!(descriptor.self_loop_policy, "keep_raw");
        assert_eq!(
            descriptor.predicted_edges,
            design.nnz_with_loops().to_string()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn csc_index_is_the_realised_csc_order(
            b_points in proptest::collection::vec(1u64..10, 1..5),
            c_points in 1u64..4,
            self_loop in prop_oneof![
                Just(SelfLoop::None),
                Just(SelfLoop::Centre),
                Just(SelfLoop::Leaf)
            ],
            keep_raw in any::<bool>(),
            workers in 1usize..9,
            past_the_end in any::<bool>(),
        ) {
            let points: Vec<u64> = b_points.iter().copied().chain([c_points]).collect();
            let design = KroneckerDesign::from_star_points(&points, self_loop).unwrap();
            let policy = if keep_raw {
                SelfLoopPolicy::KeepRaw
            } else {
                SelfLoopPolicy::RemoveDesigned
            };
            // One worker more than `B` has triples leaves the last idle.
            let b_nnz = design.split(b_points.len()).unwrap().0.nnz_with_loops();
            let workers = if past_the_end {
                b_nnz.to_u64().unwrap() as usize + 1
            } else {
                workers
            };
            super::tests::check_against_realised(&design, b_points.len(), policy, workers);
        }
    }
}
