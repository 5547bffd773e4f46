//! R-MAT as a first-class pipeline source.
//!
//! [`RmatSource`] implements [`kron_gen::EdgeSource`], so the Graph500-style
//! sampler runs through the exact same `Pipeline` terminals, streamed
//! histogram validation, `RunReport`, and `RunManifest` as the exact
//! Kronecker designs — the head-to-head the paper's §II and §VI are about,
//! now executable at out-of-core scale:
//!
//! ```
//! use kron_gen::Pipeline;
//! use kron_rmat::{RmatParams, RmatSource};
//!
//! let source = RmatSource::new(RmatParams::graph500(10), 42)?;
//! let report = Pipeline::for_source(source).workers(4).count()?;
//! // R-MAT can predict its sample count, but not its degree distribution:
//! assert!(report.predicted.is_none());
//! assert!(report.is_valid()); // the predictable fields (counts) do match
//! assert_eq!(report.manifest.source, "rmat");
//! # Ok::<(), kron_core::CoreError>(())
//! ```
//!
//! Each worker owns a contiguous range of the requested sample indices and
//! draws them through [`RmatGenerator::edge_at`] — deterministic per
//! `(seed, index)` — into the pipeline's reusable chunk, so the edge
//! multiset is identical for every worker count and chunk size, nothing is
//! ever materialised, and memory stays bounded by the chunk.  Because R-MAT
//! only *samples*, [`SourceRun::predicted_properties`] is `None` and
//! validation checks just the fields the parameters fix ahead of time —
//! vertex and sample counts; the degree distribution, duplicate fraction,
//! and triangle count remain measured-only, which is exactly the
//! measure-after-the-fact workflow the exact designer replaces.

use kron_core::validate::{FieldCheck, ValidationReport};
use kron_core::{CoreError, GraphProperties};
use kron_sparse::SparseError;

use kron_gen::chunk::EdgeChunk;
use kron_gen::split::SplitPlan;
use kron_gen::{EdgeSource, SourceDescriptor, SourceRun};

use crate::rmat::{RmatGenerator, RmatParams};

/// The Graph500-style R-MAT sampler as a pipeline [`EdgeSource`].
#[derive(Debug, Clone)]
pub struct RmatSource {
    generator: RmatGenerator,
}

impl RmatSource {
    /// Build a source from validated parameters and a sampling seed.
    pub fn new(params: RmatParams, seed: u64) -> Result<Self, CoreError> {
        Ok(RmatSource {
            generator: RmatGenerator::new(params, seed)?,
        })
    }

    /// The underlying generator.
    pub fn generator(&self) -> &RmatGenerator {
        &self.generator
    }
}

impl EdgeSource for RmatSource {
    type Run = RmatRun;

    fn vertices(&self) -> Result<u64, CoreError> {
        Ok(self.generator.params().vertices())
    }

    fn prepare(&self, workers: usize) -> Result<(RmatRun, Vec<String>), CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig {
                message: "an R-MAT run needs at least one worker".into(),
            });
        }
        Ok((
            RmatRun {
                generator: self.generator.clone(),
                workers,
            },
            Vec::new(),
        ))
    }
}

/// The prepared state of one R-MAT run: the generator plus the worker count
/// that fixes each worker's contiguous slice of the sample indices.
#[derive(Debug, Clone)]
pub struct RmatRun {
    generator: RmatGenerator,
    workers: usize,
}

impl RmatRun {
    /// Worker `worker`'s contiguous range of global sample indices — the
    /// one shared even split of [`RmatGenerator::sample_range`].
    fn sample_range(&self, worker: usize) -> std::ops::Range<u64> {
        self.generator.sample_range(worker, self.workers)
    }
}

impl SourceRun for RmatRun {
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
        chunk.try_flush(&mut sink)?;
        let range = self.sample_range(worker);
        let delivered = range.end - range.start;
        // Draw chunk-sized runs straight into the chunk's spare capacity
        // through the batched quadrant walk (bit-identical to edge_at per
        // index): the sampler touches each edge slot exactly once and the
        // per-edge push/is_full round trip disappears.  Runs are sized by
        // the chunk's remaining space, so worker count and chunk size still
        // never change the stream or the flush boundaries.
        let sampler = self.generator.batch_sampler();
        let mut index = range.start;
        while index < range.end {
            let len = ((range.end - index) as usize).min(chunk.remaining());
            chunk.fill_spare(len, |slots| sampler.fill(index, slots));
            if chunk.is_full() {
                chunk.try_flush(&mut sink)?;
            }
            index += len as u64;
        }
        chunk.try_flush(&mut sink)?;
        Ok(delivered)
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        // R-MAT samples; its property sheet exists only after measurement.
        None
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        // The only quantities the parameters fix ahead of generation: the
        // vertex-space size and the number of samples drawn.  Everything
        // else — degree distribution, duplicates, triangles — is
        // measured-only.
        let params = self.generator.params();
        ValidationReport::from_checks(vec![
            FieldCheck::exact("vertices", params.vertices(), &measured.vertices),
            FieldCheck::exact("edges", params.requested_edges(), &measured.edges),
        ])
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        None
    }

    fn descriptor(&self) -> SourceDescriptor {
        let params = self.generator.params();
        SourceDescriptor {
            kind: "rmat",
            seed: Some(self.generator.seed()),
            star_points: Vec::new(),
            self_loop: "None".to_string(),
            vertices: params.vertices().to_string(),
            predicted_edges: params.requested_edges().to_string(),
            split_index: 0,
            max_c_edges: 0,
            max_b_edges: 0,
            self_loop_policy: "raw_samples".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_stream(run: &RmatRun, worker: usize, chunk_capacity: usize) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        let mut chunk = EdgeChunk::new(chunk_capacity);
        run.stream_worker::<SparseError, _>(worker, &mut chunk, |slice| {
            edges.extend_from_slice(slice);
            Ok(())
        })
        .unwrap();
        edges
    }

    #[test]
    fn worker_ranges_cover_every_sample_exactly_once() {
        let source = RmatSource::new(RmatParams::graph500(6), 5).unwrap();
        for workers in [1usize, 2, 3, 7] {
            let (run, warnings) = source.prepare(workers).unwrap();
            assert!(warnings.is_empty());
            let mut covered = 0u64;
            let mut previous_end = 0u64;
            for worker in 0..workers {
                let range = run.sample_range(worker);
                assert_eq!(range.start, previous_end, "ranges must be contiguous");
                previous_end = range.end;
                covered += range.end - range.start;
            }
            assert_eq!(covered, source.generator().params().requested_edges());
        }
    }

    #[test]
    fn stream_is_identical_across_worker_counts_and_chunk_sizes() {
        let source = RmatSource::new(RmatParams::graph500(6), 11).unwrap();
        let (reference_run, _) = source.prepare(1).unwrap();
        let reference = collect_stream(&reference_run, 0, 4096);
        assert_eq!(
            reference.len() as u64,
            source.generator().params().requested_edges()
        );
        for workers in [2usize, 3, 5] {
            for chunk_capacity in [1usize, 7, 1024] {
                let (run, _) = source.prepare(workers).unwrap();
                let mut all = Vec::new();
                for worker in 0..workers {
                    all.extend(collect_stream(&run, worker, chunk_capacity));
                }
                assert_eq!(
                    all, reference,
                    "w{workers} c{chunk_capacity} changed the sample stream"
                );
            }
        }
    }

    #[test]
    fn descriptor_records_the_sampling_seed() {
        let source = RmatSource::new(RmatParams::graph500(5), 777).unwrap();
        let (run, _) = source.prepare(2).unwrap();
        let descriptor = run.descriptor();
        assert_eq!(descriptor.kind, "rmat");
        assert_eq!(descriptor.seed, Some(777));
        assert!(descriptor.star_points.is_empty());
        assert_eq!(descriptor.vertices, "32");
        assert_eq!(descriptor.predicted_edges, "512");
        assert!(run.predicted_properties().is_none());
        assert!(run.split_plan().is_none());
    }

    #[test]
    fn zero_workers_rejected_at_prepare() {
        let source = RmatSource::new(RmatParams::graph500(5), 1).unwrap();
        assert!(matches!(
            source.prepare(0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_parameters_surface_the_core_error() {
        let mut params = RmatParams::graph500(5);
        params.a = 2.0;
        assert!(matches!(
            RmatSource::new(params, 1),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
