//! # extreme-graphs
//!
//! Design, generation, and validation of extreme-scale power-law graphs —
//! a Rust workspace reproducing Kepner et al. (IPDPS 2018).
//!
//! This crate is the facade over the workspace:
//!
//! * [`bignum`] (re-export of `kron-bignum`) — exact arbitrary-precision
//!   integer arithmetic for 10^30-edge designs: every predicted count is a
//!   [`BigUint`].
//! * [`sparse`] (re-export of `kron-sparse`) — the GraphBLAS-style sparse
//!   matrix substrate (COO/CSR/CSC, Kronecker products, SpGEMM).
//! * [`core`] (re-export of `kron-core`) — the paper's contribution: exact
//!   design of power-law Kronecker graphs from star constituents.
//! * [`gen`] (re-export of `kron-gen`) — the unified design → generate →
//!   validate [`Pipeline`], its [`gen::sink`] module of pluggable edge
//!   sinks, the [`gen::metrics`] streaming-metrics engine, the
//!   [`gen::replay`] shard-replay source, and the streaming engine
//!   underneath them all.
//! * [`rmat`] (re-export of `kron-rmat`) — the R-MAT / Graph500 baseline and
//!   its trial-and-error design loop.
//!
//! The paper's whole workflow is one builder:
//!
//! ```
//! use extreme_graphs::{KroneckerDesign, Pipeline, SelfLoop};
//!
//! // Design a graph with exactly known properties…
//! let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
//! assert_eq!(design.edges().to_string(), "13166");
//!
//! // …generate it in parallel with no inter-worker communication, streaming
//! // every edge through per-worker sinks (here: counters) while a streaming
//! // degree histogram measures the result…
//! let report = Pipeline::for_design(&design).workers(4).count().unwrap();
//!
//! // …and the run has already validated measured == predicted, field by
//! // field, and recorded a reproducibility manifest.
//! assert!(report.validation.is_exact_match());
//! assert_eq!(report.edge_count().to_string(), design.edges().to_string());
//! assert_eq!(report.manifest.total_edges, report.edge_count());
//! ```
//!
//! Other terminals: [`Pipeline::collect_coo`] for in-memory blocks,
//! [`Pipeline::write_tsv`] / [`Pipeline::write_compressed`] for one shard file
//! per worker (plus a `manifest.json`), and [`Pipeline::into_sinks`] for any
//! custom [`gen::sink::EdgeSink`].
//!
//! ## Edge sources
//!
//! The pipeline is generic over an [`EdgeSource`] — a partitioned, chunked,
//! deterministic producer of edges — so every generator in the workspace
//! runs through the same terminals, streamed validation, and manifests:
//!
//! | source | constructor | prediction | manifest `source` |
//! |---|---|---|---|
//! | exact Kronecker expansion | `Pipeline::for_design(&design)` | full property sheet, validated field by field | `"kronecker"` |
//! | raw `B ⊗ C` product | `Pipeline::for_design(&design).raw_product()` | raw vertex/edge/self-loop counts | `"kronecker_raw"` |
//! | R-MAT sampler ([`RmatSource`]) | `Pipeline::for_source(RmatSource::new(params, seed)?)` | vertex + sample counts only; the rest is measured-only | `"rmat"` |
//! | shard replay ([`ReplaySource`]) | `Pipeline::for_source(ReplaySource::from_directory(dir)?)` | vertex + total edge counts from the stored manifest | `"replay"` |
//!
//! ```
//! use extreme_graphs::{Pipeline, RmatParams, RmatSource};
//!
//! let report = Pipeline::for_source(RmatSource::new(RmatParams::graph500(10), 7).unwrap())
//!     .workers(4)
//!     .count()
//!     .unwrap();
//! assert!(report.predicted.is_none()); // R-MAT properties are measured-only
//! assert_eq!(report.manifest.source, "rmat");
//! assert_eq!(report.manifest.source_seed, Some(7));
//! ```
//!
//! ## Streaming metrics
//!
//! Every run's measurement flows through the streaming metrics engine
//! ([`gen::metrics`]): the [`RunReport`] carries a typed [`MetricsReport`]
//! and the manifest records the same numbers as forward-compatible
//! name/value records:
//!
//! | metric | `MetricsReport` field |
//! |---|---|
//! | vertex / edge / self-loop counts | `vertices`, `edges`, `self_loops` |
//! | degree histogram (both adaptive modes) | `degree_histogram` |
//! | max degree | `max_degree` |
//! | per-worker balance | `balance` |
//! | power-law slope fit + goodness vs fitted and ideal curves | `power_law` |
//! | custom [`PredicateCountMetric`]s (named edge counts) via `.with_metric(...)` | `custom` |
//!
//! ```
//! use extreme_graphs::{KroneckerDesign, Pipeline, PredicateCountMetric, SelfLoop};
//!
//! let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
//! let report = Pipeline::for_design(&design)
//!     .workers(2)
//!     .with_metric(PredicateCountMetric::new("upper_triangle", |r, c| r < c))
//!     .count()
//!     .unwrap();
//! assert_eq!(report.metrics.edges, report.edge_count());
//! assert_eq!(
//!     report.metrics.custom_value("upper_triangle"),
//!     Some((report.edge_count() / 2).to_string().as_str())
//! );
//! // A plain star product lies exactly on the ideal n(d) = c/d law.
//! assert!(report.metrics.power_law.as_ref().unwrap().residual_vs_ideal < 1e-9);
//! ```
//!
//! ## Validate an existing graph from disk
//!
//! [`ReplaySource`] streams a shard directory back through the pipeline, so
//! any graph on disk can be re-measured, re-validated, permuted, filtered,
//! or re-sharded without regeneration — the replayed [`MetricsReport`] is
//! equal to the generation-time one for the same shard layout:
//!
//! ```
//! use extreme_graphs::{KroneckerDesign, Pipeline, ReplaySource, SelfLoop};
//!
//! let dir = std::env::temp_dir().join("extreme_graphs_facade_replay_doc");
//! let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
//! let generated = Pipeline::for_design(&design).workers(2).write_compressed(&dir).unwrap();
//!
//! let source = ReplaySource::from_directory(&dir).unwrap();
//! let replayed = Pipeline::for_source(source).workers(2).count().unwrap();
//! assert!(replayed.is_valid());
//! assert_eq!(replayed.metrics, generated.metrics);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## The vertex-permutation stage
//!
//! `Pipeline::permute_vertices(seed)` relabels every vertex in-stream
//! through a seeded [`gen::FeistelPermutation`] — an exact bijection on
//! `[0, V)` evaluated in O(1) memory, replacing the O(V) permutation table
//! Graph500-style relabelling would otherwise need (unusable at the paper's
//! 10¹⁰-vertex designs).  The permutation is degree-preserving, so
//! validation still passes, and the seed lands in the manifest so the run
//! stays reproducible.  The relabelling is a stage of the source, not a
//! sink wrapper ([`SourceRun::stream_worker_relabelled`]): a Kronecker run
//! images each block's label ranges once instead of every edge.
//!
//! ## Pre-pipeline entry points
//!
//! The materialising generator, the shard driver, their config structs, the
//! block writers, and `kron-rmat`'s whole-list sampler and permutation table
//! were removed in PR 12; use [`Pipeline`] (every terminal above takes any
//! [`EdgeSource`]).  A [`RunReport`] keeps its one measured sheet — counts,
//! degree histogram and per-worker balance — in `metrics`
//! ([`MetricsReport`]), the configuration, worker count, wall-clock
//! `seconds` and warnings in `manifest` ([`RunManifest`]), and the
//! predicted/measured comparison in `validation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kron_bignum as bignum;
pub use kron_core as core;
pub use kron_gen as gen;
pub use kron_rmat as rmat;
pub use kron_sparse as sparse;

pub use kron_bignum::BigUint;
pub use kron_core::{
    Constituent, DegreeDistribution, DesignSearch, DesignTargets, GraphProperties, KroneckerDesign,
    SelfLoop, StarGraph, ValidationReport,
};
pub use kron_gen::{
    ColumnWindows, DesignPipeline, EdgeSource, FaultSchedule, FaultySink, FaultySource,
    FeistelPermutation, KroneckerSource, MetricRecord, MetricsReport, Pipeline,
    PredicateCountMetric, ProgressJournal, ReplaySource, RetryPolicy, RunManifest, RunReport,
    SelfLoopPolicy, ShardFailure, ShardRecord, SourceDescriptor, SourceRun,
};
pub use kron_rmat::{RmatGenerator, RmatParams, RmatSource};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        assert_eq!(design.vertices(), BigUint::from(20u64));
        let params = RmatParams::graph500(5);
        assert!(params.is_valid());
    }

    #[test]
    fn pipeline_reexport_runs_end_to_end() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::Centre).unwrap();
        let report = Pipeline::for_design(&design).workers(2).count().unwrap();
        assert!(report.is_valid());
        assert_eq!(
            RunManifest::from_json(&report.manifest.to_json()).unwrap(),
            report.manifest
        );
    }
}
