//! Deterministic fault injection for crash-safety testing.
//!
//! Proving that a pipeline run survives failures needs failures on demand:
//! reproducible ones, at exact points in the edge stream, distinguishing
//! *transient* faults (a retried attempt succeeds) from *permanent* ones (a
//! quarantined shard that only [`Pipeline::resume`] can repair).  This
//! module provides that harness:
//!
//! * [`FaultSchedule`] — a shared, seedable plan of per-worker faults with
//!   fail-after-N-edges semantics.  Transient faults fire a bounded number
//!   of times and then clear (so a retry eventually succeeds); permanent
//!   faults fire on every attempt.
//! * [`FaultySink`] — wraps any [`EdgeSink`], delivering edges faithfully
//!   until its worker's scheduled fault point, then delivering exactly the
//!   partial slice up to the boundary and failing — the shape of a real
//!   mid-write crash.
//! * [`FaultySource`] — wraps any [`EdgeSource`] the same way on the read
//!   side, so file-writing terminals (whose sinks the pipeline constructs
//!   internally) can be crashed mid-shard too.  The wrapper forwards the
//!   inner source's descriptor, predictions, and validation untouched: a
//!   faulty run is still *the same run*, which is what lets
//!   [`Pipeline::resume`] repair it afterwards.
//!
//! Everything is deterministic: an explicit schedule fires exactly where it
//! was placed, and [`FaultSchedule::seeded`] derives its plan from a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream of the seed,
//! so a failing test case is a seed, not a flake.
//!
//! [`Pipeline::resume`]: crate::pipeline::Pipeline::resume

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use kron_core::validate::ValidationReport;
use kron_core::{CoreError, GraphProperties};
use kron_sparse::SparseError;

use crate::chunk::EdgeChunk;
use crate::lock;
use crate::sink::EdgeSink;
use crate::source::{EdgeSource, SourceDescriptor, SourceRun};
use crate::split::SplitPlan;

/// How a planned fault behaves across attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fails the next `failures` attempts that reach the fault point, then
    /// clears — a retried attempt eventually succeeds.
    Transient {
        /// Attempts this fault will still fail.
        failures: u32,
    },
    /// Fails every attempt that reaches the fault point — only quarantine
    /// (and a later resume without the fault) gets past it.
    Permanent,
}

/// One worker's planned fault, as [`FaultSchedule::planned`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// The worker the fault targets.
    pub worker: usize,
    /// Edges the worker's stream delivers before the fault fires.
    pub after_edges: u64,
    /// Transient or permanent.
    pub kind: FaultKind,
}

#[derive(Debug, Clone)]
struct FaultState {
    after_edges: u64,
    kind: FaultKind,
}

/// A shared, deterministic plan of per-worker faults.
///
/// Cloning shares the plan (it is behind an [`Arc`]), which is what makes
/// transient faults work across retries: every [`FaultySink`] /
/// [`FaultySource`] attempt consults — and a firing transient fault
/// decrements — the *same* plan, so the schedule "fail twice, then
/// succeed" means exactly that.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: Arc<Mutex<BTreeMap<usize, FaultState>>>,
}

impl FaultSchedule {
    /// An empty schedule: nothing ever fails.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Plan a transient fault: worker `worker` fails after delivering
    /// `after_edges` edges, on its next `failures` attempts.
    pub fn with_transient(self, worker: usize, after_edges: u64, failures: u32) -> Self {
        if failures > 0 {
            lock(&self.faults).insert(
                worker,
                FaultState {
                    after_edges,
                    kind: FaultKind::Transient { failures },
                },
            );
        }
        self
    }

    /// Plan a permanent fault: worker `worker` fails after delivering
    /// `after_edges` edges, on every attempt.
    pub fn with_permanent(self, worker: usize, after_edges: u64) -> Self {
        lock(&self.faults).insert(
            worker,
            FaultState {
                after_edges,
                kind: FaultKind::Permanent,
            },
        );
        self
    }

    /// Derive a deterministic schedule for `workers` workers from `seed`:
    /// each worker independently faults with probability ~1/2; a faulting
    /// worker fails after 0–511 edges and is transient (1–3 failures) three
    /// times out of four, permanent otherwise.  The same seed always yields
    /// the same plan.
    pub fn seeded(seed: u64, workers: usize) -> Self {
        let schedule = FaultSchedule::none();
        for worker in 0..workers {
            // One independent SplitMix64 stream per worker, so the plan for
            // worker w does not depend on how many workers precede it.
            let mut state = seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if !splitmix64(&mut state).is_multiple_of(2) {
                continue;
            }
            let after_edges = splitmix64(&mut state) % 512;
            let kind = if !splitmix64(&mut state).is_multiple_of(4) {
                FaultKind::Transient {
                    failures: 1 + (splitmix64(&mut state) % 3) as u32,
                }
            } else {
                FaultKind::Permanent
            };
            lock(&schedule.faults).insert(worker, FaultState { after_edges, kind });
        }
        schedule
    }

    /// The faults still pending, in worker order — transient faults that
    /// already fired their last failure are gone.
    pub fn planned(&self) -> Vec<PlannedFault> {
        lock(&self.faults)
            .iter()
            .map(|(&worker, state)| PlannedFault {
                worker,
                after_edges: state.after_edges,
                kind: state.kind,
            })
            .collect()
    }

    /// Whether any fault is still pending.
    pub fn is_exhausted(&self) -> bool {
        lock(&self.faults).is_empty()
    }

    /// Consult the plan for a batch of `batch` edges arriving when `worker`
    /// has already delivered `delivered` edges this attempt.  If the fault
    /// point falls inside (or before) the batch, returns how many of the
    /// batch's edges to deliver before failing, plus the injected error —
    /// and counts a transient firing down.
    fn take_fault(&self, worker: usize, delivered: u64, batch: u64) -> Option<(u64, SparseError)> {
        let mut faults = lock(&self.faults);
        let state = faults.get_mut(&worker)?;
        if delivered + batch < state.after_edges {
            return None;
        }
        let boundary = state.after_edges.saturating_sub(delivered).min(batch);
        let after = state.after_edges;
        let label = match &mut state.kind {
            FaultKind::Transient { failures } => {
                *failures -= 1;
                if *failures == 0 {
                    faults.remove(&worker);
                }
                "transient"
            }
            FaultKind::Permanent => "permanent",
        };
        Some((
            boundary,
            SparseError::Io(format!(
                "injected {label} fault for worker {worker} after {after} edges"
            )),
        ))
    }

    /// Hand `edges` to `sink` on behalf of `worker`, which has already
    /// delivered `*delivered` edges this attempt: the whole batch when the
    /// fault point lies beyond it, otherwise exactly the prefix up to the
    /// fault point followed by the injected error — the one fault boundary
    /// behind both [`FaultySink`] and [`FaultySource`].
    fn deliver<E: From<SparseError>>(
        &self,
        worker: usize,
        delivered: &mut u64,
        edges: &[(u64, u64)],
        mut sink: impl FnMut(&[(u64, u64)]) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.take_fault(worker, *delivered, edges.len() as u64) {
            Some((boundary, error)) => {
                if boundary > 0 {
                    sink(&edges[..boundary as usize])?;
                }
                *delivered += boundary;
                Err(E::from(error))
            }
            None => {
                sink(edges)?;
                *delivered += edges.len() as u64;
                Ok(())
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An [`EdgeSink`] wrapper that fails at its worker's scheduled fault
/// point, after delivering exactly the scheduled prefix to the inner sink —
/// a reproducible mid-write crash.
#[derive(Debug)]
pub struct FaultySink<S> {
    inner: S,
    worker: usize,
    schedule: FaultSchedule,
    delivered: u64,
}

impl<S> FaultySink<S> {
    /// Wrap `inner` as worker `worker`'s sink under `schedule`.
    pub fn new(inner: S, worker: usize, schedule: FaultSchedule) -> Self {
        FaultySink {
            inner,
            worker,
            schedule,
            delivered: 0,
        }
    }
}

impl<S: EdgeSink> EdgeSink for FaultySink<S> {
    type Output = S::Output;

    fn consume(&mut self, edges: &[(u64, u64)]) -> Result<(), SparseError> {
        self.schedule
            .deliver(self.worker, &mut self.delivered, edges, |batch| {
                self.inner.consume(batch)
            })
    }

    fn finish(self) -> Result<Self::Output, SparseError> {
        self.inner.finish()
    }

    fn abandon(self) {
        self.inner.abandon();
    }

    fn finish_with_checksum(self) -> Result<(Self::Output, Option<u64>), SparseError> {
        self.inner.finish_with_checksum()
    }
}

/// An [`EdgeSource`] wrapper whose workers fail at their scheduled fault
/// points — the way to crash the pipeline's *file* terminals, whose sinks
/// the pipeline constructs internally.  Everything else (vertex count,
/// predictions, validation, manifest descriptor) is the inner source's,
/// verbatim.
#[derive(Debug, Clone)]
pub struct FaultySource<S> {
    inner: S,
    schedule: FaultSchedule,
}

impl<S> FaultySource<S> {
    /// Wrap `inner` under `schedule`.
    pub fn new(inner: S, schedule: FaultSchedule) -> Self {
        FaultySource { inner, schedule }
    }
}

impl<S: EdgeSource> EdgeSource for FaultySource<S> {
    type Run = FaultyRun<S::Run>;

    fn vertices(&self) -> Result<u64, CoreError> {
        self.inner.vertices()
    }

    fn prepare(&self, workers: usize) -> Result<(Self::Run, Vec<String>), CoreError> {
        let (inner, warnings) = self.inner.prepare(workers)?;
        Ok((
            FaultyRun {
                inner,
                schedule: self.schedule.clone(),
            },
            warnings,
        ))
    }
}

/// The prepared run of a [`FaultySource`].
#[derive(Debug)]
pub struct FaultyRun<R> {
    inner: R,
    schedule: FaultSchedule,
}

impl<R: SourceRun> SourceRun for FaultyRun<R> {
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
        let mut delivered = 0u64;
        self.inner.stream_worker::<E, _>(worker, chunk, |edges| {
            self.schedule
                .deliver(worker, &mut delivered, edges, &mut sink)
        })
    }

    fn predicted_properties(&self) -> Option<GraphProperties> {
        self.inner.predicted_properties()
    }

    fn validate(&self, measured: &GraphProperties) -> ValidationReport {
        self.inner.validate(measured)
    }

    fn split_plan(&self) -> Option<SplitPlan> {
        self.inner.split_plan()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;

    fn consume_all(
        sink: &mut FaultySink<CountingSink>,
        edges: &[(u64, u64)],
    ) -> Result<(), SparseError> {
        sink.consume(edges)
    }

    #[test]
    fn transient_faults_fire_then_clear() {
        let schedule = FaultSchedule::none().with_transient(0, 3, 2);
        let edges: Vec<(u64, u64)> = (0..5).map(|i| (i, i)).collect();

        // First two attempts fail after exactly 3 edges…
        for _ in 0..2 {
            let mut sink = FaultySink::new(CountingSink::new(), 0, schedule.clone());
            let err = consume_all(&mut sink, &edges).unwrap_err();
            assert!(err.to_string().contains("injected transient fault"));
            assert_eq!(sink.inner.clone().finish().unwrap(), 3);
        }
        // …then the fault is spent and the third attempt succeeds.
        assert!(schedule.is_exhausted());
        let mut sink = FaultySink::new(CountingSink::new(), 0, schedule.clone());
        consume_all(&mut sink, &edges).unwrap();
        assert_eq!(sink.finish().unwrap(), 5);
    }

    #[test]
    fn permanent_faults_fire_on_every_attempt() {
        let schedule = FaultSchedule::none().with_permanent(1, 0);
        for _ in 0..3 {
            let mut sink = FaultySink::new(CountingSink::new(), 1, schedule.clone());
            let err = sink.consume(&[(0, 0)]).unwrap_err();
            assert!(err.to_string().contains("permanent fault"));
            assert!(err.to_string().contains("worker 1"));
            // Boundary 0: nothing delivered before the failure.
            assert_eq!(sink.inner.clone().finish().unwrap(), 0);
        }
        assert!(!schedule.is_exhausted());
        // Other workers are untouched.
        let mut sink = FaultySink::new(CountingSink::new(), 0, schedule.clone());
        sink.consume(&[(0, 0)]).unwrap();
        assert_eq!(sink.finish().unwrap(), 1);
    }

    #[test]
    fn fault_boundary_splits_a_batch_mid_chunk() {
        let schedule = FaultSchedule::none().with_transient(0, 4, 1);
        let mut sink = FaultySink::new(CountingSink::new(), 0, schedule.clone());
        // 2 delivered, then the next batch of 4 crosses the boundary at 4.
        sink.consume(&[(0, 0), (1, 1)]).unwrap();
        let err = sink.consume(&[(2, 2), (3, 3), (4, 4), (5, 5)]).unwrap_err();
        assert!(err.to_string().contains("after 4 edges"));
        assert_eq!(sink.inner.clone().finish().unwrap(), 4);
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultSchedule::seeded(0xFA17, 64);
        let b = FaultSchedule::seeded(0xFA17, 64);
        assert_eq!(a.planned(), b.planned());
        assert!(
            !a.planned().is_empty(),
            "64 workers at ~1/2 fault rate should plan at least one fault"
        );
        let c = FaultSchedule::seeded(0xFA18, 64);
        assert_ne!(a.planned(), c.planned(), "different seeds, different plans");
        // Per-worker independence: the plan for a given worker is the same
        // regardless of how many workers the schedule covers.
        let wide = FaultSchedule::seeded(0xFA17, 128);
        let wide_prefix: Vec<_> = wide
            .planned()
            .into_iter()
            .filter(|f| f.worker < 64)
            .collect();
        assert_eq!(a.planned(), wide_prefix);
    }
}
