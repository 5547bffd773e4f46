//! # kron-gen
//!
//! Communication-free parallel generation of Kronecker power-law graphs —
//! the implementation of §V of Kepner et al. (2018).
//!
//! The algorithm:
//!
//! 1. Split the design `A = ⊗_k A_k` into two factors `A = B ⊗ C` such that
//!    both factors fit comfortably in one worker's memory
//!    ([`split::choose_split`]).
//! 2. Extract the non-zero triples of `B` in column-major (CSC) order and
//!    hand each of the `N_p` workers a contiguous, equal-size slice
//!    ([`partition::Partition`]).
//! 3. Each worker independently streams its block `A_p = B_p ⊗ C`
//!    ([`source::SourceRun::stream_worker`] of a
//!    [`source::KroneckerSource`] run) — no inter-worker communication is
//!    needed, and every worker produces the same number of edges.
//! 4. The blocks together are exactly the designed graph; the single
//!    self-loop of the triangle-control construction is filtered in-stream
//!    by whichever worker owns it ([`source::KroneckerSource`]).
//! 5. Properties (degree distribution, edge counts, balance, max degree,
//!    power-law fit, custom metrics) are measured in-stream by the
//!    pluggable [`metrics`] engine without ever assembling the full graph,
//!    reproducing the paper's "measured = predicted" validation at whatever
//!    scale fits the machine — and the [`replay`] source streams existing
//!    shard sets back through the same engine, so any graph on disk can be
//!    re-validated, permuted, filtered, or re-sharded without
//!    regeneration.
//! 6. The whole line — design, split, partition, chunked expand, sink,
//!    streamed validation — is one API: the [`pipeline::Pipeline`] builder,
//!    generic over a pluggable [`source::EdgeSource`].  The exact Kronecker
//!    expansion ([`source::KroneckerSource`]), the raw `B ⊗ C` product, and
//!    non-Kronecker generators (the R-MAT sampler in `kron-rmat`) all
//!    stream through the same terminals.  Per chunk, a worker's share of
//!    the source goes source [+ relabel] → observe → consume: the optional
//!    in-stream [`permute::FeistelPermutation`] relabels vertices
//!    (Graph500's shuffle without the `O(V)` table), the degree histogram
//!    accumulates in `O(vertices)` memory, and a pluggable
//!    [`sink::EdgeSink`] consumes the chunk (TSV, binary or compressed
//!    shard, counter, COO block, or any custom impl — [`sink`] also
//!    provides tee/filter-map combinators and a degree-only validator), so
//!    generation *and* validation both run as bounded-memory streams at
//!    scales whose edges never fit in memory.  Every run
//!    yields a [`manifest::RunManifest`] reproducibility record — source
//!    kind and seeds included — written as `manifest.json` next to file
//!    output.  The pre-pipeline entry points (the materialising generator,
//!    the shard driver, the block writers) were removed in PR 12; use
//!    [`pipeline::Pipeline`].
//!
//! On a shared-memory machine the "processors" are rayon tasks; the
//! per-worker work and the communication structure (none) are identical to
//! the paper's distributed setting, so the scaling *shape* — linear in the
//! number of workers until memory bandwidth saturates — carries over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
pub mod fault;
pub mod manifest;
pub mod metrics;
pub mod partition;
pub mod permute;
pub mod pipeline;
pub mod replay;
pub mod scaling;
pub mod sink;
pub mod source;
pub mod split;
pub mod stats;
pub mod testing;
pub mod writer;

pub use chunk::EdgeChunk;
pub use fault::{FaultKind, FaultSchedule, FaultySink, FaultySource, PlannedFault};
pub use manifest::{
    JournalHeader, ProgressJournal, RunManifest, ShardRecord, MANIFEST_FILE_NAME,
    PROGRESS_FILE_NAME,
};
pub use metrics::{
    BalanceReport, MetricContext, MetricObserver, MetricRecord, MetricSuite, MetricsReport,
    PredicateCountMetric, StreamingMetric,
};
pub use partition::Partition;
pub use permute::FeistelPermutation;
pub use pipeline::{
    DesignPipeline, Pipeline, RetryPolicy, RunReport, SelfLoopPolicy, ShardFailure,
};
pub use replay::ReplaySource;
pub use scaling::{ScalingModel, ScalingPoint};
pub use sink::{
    BinaryShardSink, CooSink, CountingSink, DegreeOnlySink, EdgeSink, FilterMapSink, TeeSink,
    TsvShardSink,
};
pub use source::{EdgeSource, KroneckerSource, SourceDescriptor, SourceRun};
pub use split::{choose_split, choose_split_with_fallback, SplitPlan};
pub use stats::GenerationStats;
pub use writer::{read_block_bin, shard_checksum, BlockFileSet, BlockFormat, Fnv1a};
