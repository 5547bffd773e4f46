//! The streaming-metrics engine.
//!
//! The paper's headline result (Figure 4) is that *measured* properties of a
//! trillion-edge graph exactly equal the *predicted* ones — which makes the
//! measurement side a first-class subsystem, not a hard-coded histogram
//! buried in the generation loop.  This module owns everything a
//! [`Pipeline`](crate::pipeline::Pipeline) run measures while edges stream:
//!
//! * the **degree histogram** in both adaptive modes — per-worker local
//!   [`DegreeAccumulator`] vectors folded as workers finish while the peak
//!   fits the byte budget, one run-wide
//!   [`SharedDegreeAccumulator`] (relaxed atomics, `O(vertices)` total)
//!   beyond it;
//! * **vertex / edge / self-loop counts** and the **max degree**;
//! * the **per-worker balance** sheet (the paper's "same number of edges on
//!   each processor" claim, quantified);
//! * the **power-law slope fit** from the extreme points
//!   (`α = log n(1) / log d_max`,
//!   [`kron_core::powerlaw::PowerLaw::from_extremes`]) with its goodness
//!   residuals against the fitted and the ideal `n(d) = n(1)/d` curves;
//! * any number of **custom [`PredicateCountMetric`]s** registered through
//!   [`Pipeline::with_metric`](crate::pipeline::Pipeline::with_metric) —
//!   named edge counts over every delivered chunk, one `u64` per worker,
//!   summed when workers finish.
//!
//! Every run's [`RunReport`](crate::pipeline::RunReport) carries the result
//! as a typed [`MetricsReport`], and the run manifest records the same
//! numbers as forward-compatible name/value [`MetricRecord`]s — so a shard
//! directory on disk documents not just how it was generated but what it
//! measured, and a later [`ReplaySource`](crate::replay::ReplaySource) pass
//! can check it reproduces bit-identically.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use kron_core::powerlaw::PowerLawFit;
use kron_core::validate::measure_from_histogram;
use kron_core::{CoreError, GraphProperties};
use kron_sparse::reduce::SharedDegreeAccumulator;
use kron_sparse::DegreeAccumulator;

use crate::lock;

/// A custom metric: the number of delivered edges for which a predicate
/// holds — duplicate-prone regions, upper-triangle edges, cross-partition
/// edges, anything expressible per edge.  Registered through
/// [`Pipeline::with_metric`](crate::pipeline::Pipeline::with_metric); each
/// worker counts into one `u64` of its own, and the counts are summed as
/// workers finish:
///
/// ```
/// use kron_gen::metrics::PredicateCountMetric;
/// let uppers = PredicateCountMetric::new("upper_triangle", |row, col| row < col);
/// ```
#[derive(Clone)]
pub struct PredicateCountMetric {
    name: String,
    predicate: Arc<dyn Fn(u64, u64) -> bool + Send + Sync>,
}

impl PredicateCountMetric {
    /// A metric named `name` counting edges for which `predicate` holds.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(u64, u64) -> bool + Send + Sync + 'static,
    ) -> Self {
        PredicateCountMetric {
            name: name.into(),
            predicate: Arc::new(predicate),
        }
    }

    /// How many of `edges` satisfy the predicate.
    fn count(&self, edges: &[(u64, u64)]) -> u64 {
        edges
            .iter()
            .filter(|&&(row, col)| (self.predicate)(row, col))
            .count() as u64
    }
}

impl fmt::Debug for PredicateCountMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PredicateCountMetric")
            .field(&self.name)
            .finish()
    }
}

/// The names of the built-in records, in the order
/// [`MetricsReport::records`] writes them (the last three only when a
/// power-law fit exists).  A custom metric may take none of them.
const BUILTIN_RECORDS: [&str; 9] = [
    "vertices",
    "edges",
    "self_loops",
    "max_degree",
    "distinct_degrees",
    "balance_max_over_mean",
    "power_law_alpha",
    "power_law_residual",
    "power_law_residual_vs_ideal",
];

/// Reject custom metrics whose records could not be told apart: a name a
/// built-in record already uses, or a name registered twice.  The error
/// names the metric.
pub(crate) fn check_metric_names(metrics: &[PredicateCountMetric]) -> Result<(), CoreError> {
    for (index, metric) in metrics.iter().enumerate() {
        let name = metric.name.as_str();
        let clash = if BUILTIN_RECORDS.contains(&name) {
            "is the name of a built-in metric record"
        } else if metrics
            .iter()
            .take(index)
            .any(|earlier| earlier.name == name)
        {
            "is registered twice"
        } else {
            continue;
        };
        return Err(CoreError::InvalidConfig {
            message: format!("custom metric \"{name}\" {clash}; give it a name of its own"),
        });
    }
    Ok(())
}

/// One named metric value, as recorded in the [`MetricsReport`] and the run
/// manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name.
    pub name: String,
    /// Rendered value (decimal for counts, shortest-representation decimal
    /// for floats).
    pub value: String,
}

impl MetricRecord {
    /// Build a record from a name and any renderable value.
    pub fn new(name: impl Into<String>, value: impl ToString) -> Self {
        MetricRecord {
            name: name.into(),
            value: value.to_string(),
        }
    }
}

/// Per-worker load-balance summary (the paper's "same number of edges on
/// each processor" claim, quantified).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceReport {
    /// Edge count of each worker.
    pub edges_per_worker: Vec<u64>,
    /// Largest per-worker edge count.
    pub max_edges: u64,
    /// Smallest per-worker edge count.
    pub min_edges: u64,
    /// Max / mean ratio (1.0 = perfectly balanced).
    pub max_over_mean: f64,
}

impl BalanceReport {
    /// Build the balance report from raw per-worker edge counts (worker
    /// order) — the constructor the streaming-metrics engine uses.
    pub fn from_worker_counts(edges_per_worker: Vec<u64>) -> Self {
        let max_edges = edges_per_worker.iter().copied().max().unwrap_or(0);
        let min_edges = edges_per_worker.iter().copied().min().unwrap_or(0);
        let total: u64 = edges_per_worker.iter().sum();
        let mean = if edges_per_worker.is_empty() {
            0.0
        } else {
            total as f64 / edges_per_worker.len() as f64
        };
        let max_over_mean = if mean > 0.0 {
            max_edges as f64 / mean
        } else {
            1.0
        };
        BalanceReport {
            edges_per_worker,
            max_edges,
            min_edges,
            max_over_mean,
        }
    }

    /// Whether per-worker edge counts differ by at most `tolerance` edges.
    pub fn is_balanced_within(&self, tolerance: u64) -> bool {
        self.max_edges - self.min_edges <= tolerance
    }
}

/// The typed result sheet of one run's streaming measurement.
///
/// Two runs over the same edge stream — a generation and a later replay of
/// its shards, say — produce equal reports (`PartialEq`) whenever they used
/// the same per-worker layout, which is exactly the replay-validation check.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Number of vertices of the streamed graph.
    pub vertices: u64,
    /// Total edges observed.
    pub edges: u64,
    /// Diagonal (self-loop) edges observed.
    pub self_loops: u64,
    /// Largest row-endpoint degree.
    pub max_degree: u64,
    /// Number of distinct non-zero degrees.
    pub distinct_degrees: usize,
    /// Row-endpoint degree histogram (degree → vertex count), degree-zero
    /// vertices excluded — the support of the measured distribution.
    pub degree_histogram: BTreeMap<u64, u64>,
    /// Per-worker load balance.
    pub balance: BalanceReport,
    /// Extreme-point power-law fit with goodness residuals, when the
    /// distribution pins one.
    pub power_law: Option<PowerLawFit>,
    /// Results of the custom metrics, in registration order.
    pub custom: Vec<MetricRecord>,
}

impl MetricsReport {
    /// The report as flat name/value records — the form the run manifest
    /// stores (custom metrics appended after the built-ins).
    pub fn records(&self) -> Vec<MetricRecord> {
        let [vertices, edges, self_loops, max_degree, distinct_degrees, balance, alpha, residual, residual_vs_ideal] =
            BUILTIN_RECORDS;
        let mut records = vec![
            MetricRecord::new(vertices, self.vertices),
            MetricRecord::new(edges, self.edges),
            MetricRecord::new(self_loops, self.self_loops),
            MetricRecord::new(max_degree, self.max_degree),
            MetricRecord::new(distinct_degrees, self.distinct_degrees),
            // `{:?}` prints the shortest decimal that parses back to the
            // same f64, keeping manifest round trips exact.
            MetricRecord::new(balance, format!("{:?}", self.balance.max_over_mean)),
        ];
        if let Some(fit) = &self.power_law {
            records.push(MetricRecord::new(alpha, format!("{:?}", fit.alpha)));
            records.push(MetricRecord::new(
                residual,
                format!("{:?}", fit.mean_log_residual),
            ));
            records.push(MetricRecord::new(
                residual_vs_ideal,
                format!("{:?}", fit.residual_vs_ideal),
            ));
        }
        records.extend(self.custom.iter().cloned());
        records
    }

    /// The value a custom metric reported, by name.
    pub fn custom_value(&self, name: &str) -> Option<&str> {
        self.custom
            .iter()
            .find(|record| record.name == name)
            .map(|record| record.value.as_str())
    }
}

/// The run-wide measurement state: the adaptive degree accumulator plus the
/// summed count of every custom metric.  One engine per pipeline run;
/// workers check out a [`WorkerMetrics`] each and fold back in as they
/// finish.
pub(crate) struct MetricsEngine<'m> {
    metrics: &'m [PredicateCountMetric],
    vertices: u64,
    /// The run-wide shared atomic accumulator, when the per-worker local
    /// vectors would exceed the byte budget.
    shared: Option<SharedDegreeAccumulator>,
    /// Local accumulators are folded and dropped as each worker finishes, so
    /// at most one per pool thread is live at once (plus this merged one).
    merged_degrees: Mutex<Option<DegreeAccumulator>>,
    /// One total per custom metric, in registration order.
    merged_counts: Mutex<Vec<u64>>,
}

impl<'m> MetricsEngine<'m> {
    /// Size the histogram mode from the budget: while the peak of concurrent
    /// per-worker local vectors fits `max_histogram_bytes`, workers count
    /// privately at full speed; beyond it one shared atomic vector bounds
    /// the cost at `O(vertices)` total.
    pub(crate) fn new(
        metrics: &'m [PredicateCountMetric],
        vertices: u64,
        workers: usize,
        max_histogram_bytes: u64,
    ) -> Self {
        let shared = if would_share(vertices, workers, max_histogram_bytes) {
            Some(SharedDegreeAccumulator::rows_only(vertices, vertices))
        } else {
            None
        };
        MetricsEngine {
            metrics,
            vertices,
            shared,
            merged_degrees: Mutex::new(None),
            merged_counts: Mutex::new(vec![0; metrics.len()]),
        }
    }

    /// Check out one worker's observation state.
    pub(crate) fn worker(&self) -> WorkerMetrics<'_> {
        let degrees = match self.shared.as_ref() {
            Some(shared) => WorkerDegrees::Shared(shared),
            None => {
                WorkerDegrees::Local(DegreeAccumulator::rows_only(self.vertices, self.vertices))
            }
        };
        WorkerMetrics {
            engine: self,
            degrees,
            counts: vec![0; self.metrics.len()],
        }
    }

    /// Assemble the measured property sheet and the typed metrics report
    /// once every worker has finished.
    pub(crate) fn finalize(self, edges_per_worker: Vec<u64>) -> (GraphProperties, MetricsReport) {
        let (histogram, self_loops, edges, max_degree) = match self.shared {
            Some(shared) => (
                shared.row_histogram(),
                shared.self_loop_count(),
                shared.edge_count(),
                shared.max_row_degree(),
            ),
            None => {
                // A fault-tolerant run can quarantine every worker, so an
                // empty accumulator stands in when none finished.
                let merged = lock(&self.merged_degrees)
                    .take()
                    .unwrap_or_else(|| DegreeAccumulator::rows_only(self.vertices, self.vertices));
                (
                    merged.row_histogram(),
                    merged.self_loop_count(),
                    merged.edge_count(),
                    merged.max_row_degree(),
                )
            }
        };
        let measured = measure_from_histogram(self.vertices, &histogram, self_loops);
        let custom: Vec<MetricRecord> = self
            .metrics
            .iter()
            .zip(std::mem::take(&mut *lock(&self.merged_counts)))
            .map(|(metric, count)| MetricRecord::new(metric.name.as_str(), count))
            .collect();
        let mut degree_histogram = histogram;
        degree_histogram.remove(&0);
        let report = MetricsReport {
            vertices: self.vertices,
            edges,
            self_loops,
            max_degree,
            distinct_degrees: degree_histogram.len(),
            degree_histogram,
            balance: BalanceReport::from_worker_counts(edges_per_worker),
            power_law: measured.power_law_fit(),
            custom,
        };
        (measured, report)
    }
}

/// Whether a run with this shape counts degrees in the run-wide shared
/// atomic vector instead of per-worker local vectors — the budget decision
/// [`MetricsEngine::new`] makes, exposed so the pipeline's fault-tolerant
/// path can detect (and override) the shared mode, which cannot roll back a
/// failed worker's partial counts.
pub(crate) fn would_share(vertices: u64, workers: usize, max_histogram_bytes: u64) -> bool {
    let concurrent = workers.min(rayon::current_num_threads()) + 1;
    let local_histogram_bytes = (concurrent as u128) * (vertices as u128) * 8;
    local_histogram_bytes > u128::from(max_histogram_bytes)
}

/// One worker's view of the run's degree histogram: a private local vector
/// (fast, `O(vertices)` per concurrent worker) or the run-wide shared
/// atomic vector (`O(vertices)` total) — see
/// [`Pipeline::max_histogram_bytes`](crate::pipeline::Pipeline::max_histogram_bytes).
enum WorkerDegrees<'a> {
    Local(DegreeAccumulator),
    Shared(&'a SharedDegreeAccumulator),
}

/// One worker's live measurement state; fold back with
/// [`WorkerMetrics::finish`] when the worker's stream ends.
pub(crate) struct WorkerMetrics<'e> {
    engine: &'e MetricsEngine<'e>,
    degrees: WorkerDegrees<'e>,
    /// This worker's count of each custom metric.
    counts: Vec<u64>,
}

impl WorkerMetrics<'_> {
    /// Observe one chunk, in the two label spaces a run has.
    ///
    /// `counted` feeds the built-in degree metrics.  Every one of them
    /// (histogram, counts, loops, max degree, slope) is invariant under a
    /// vertex bijection, so a fresh run passes the chunk as the *source*
    /// produced it: the pre-permutation labels are far cheaper to count (the
    /// source emits them with locality; the permuted labels scatter across
    /// the whole count vector by design).
    ///
    /// `delivered` is the chunk exactly as the sink is about to receive it
    /// (relabelled when the run permutes vertices) — what the custom metrics
    /// see, so a custom metric always describes the graph that actually left
    /// the run.
    #[inline]
    pub(crate) fn observe(&mut self, counted: &[(u64, u64)], delivered: &[(u64, u64)]) {
        match &mut self.degrees {
            WorkerDegrees::Local(local) => local.record(counted),
            WorkerDegrees::Shared(shared) => shared.record(counted),
        }
        for (metric, count) in self.engine.metrics.iter().zip(&mut self.counts) {
            *count += metric.count(delivered);
        }
    }

    /// Fold this worker's state into the engine.  Local degree vectors merge
    /// and drop here, so the peak is bounded by the workers running
    /// concurrently.
    pub(crate) fn finish(self) {
        if let WorkerDegrees::Local(local) = self.degrees {
            let mut guard = lock(&self.engine.merged_degrees);
            match guard.as_mut() {
                Some(merged) => merged.merge(&local),
                None => *guard = Some(local),
            }
        }
        if !self.counts.is_empty() {
            let mut totals = lock(&self.engine.merged_counts);
            for (total, count) in totals.iter_mut().zip(self.counts) {
                *total += count;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: &[(u64, u64)] = &[(0, 1), (1, 1), (2, 0), (3, 3), (0, 2)];

    #[test]
    fn engine_measures_counts_histogram_and_balance() {
        let engine = MetricsEngine::new(&[], 4, 2, u64::MAX);
        let mut first = engine.worker();
        first.observe(&EDGES[..3], &EDGES[..3]);
        first.finish();
        let mut second = engine.worker();
        second.observe(&EDGES[3..], &EDGES[3..]);
        second.finish();
        let (measured, report) = engine.finalize(vec![3, 2]);

        assert_eq!(report.vertices, 4);
        assert_eq!(report.edges, 5);
        assert_eq!(report.self_loops, 2);
        assert_eq!(report.max_degree, 2);
        assert_eq!(report.distinct_degrees, 2);
        assert_eq!(report.degree_histogram.get(&1), Some(&3));
        assert_eq!(report.degree_histogram.get(&2), Some(&1));
        assert_eq!(report.degree_histogram.get(&0), None);
        assert_eq!(report.balance.max_edges, 3);
        assert_eq!(report.balance.min_edges, 2);
        assert_eq!(measured.edges.to_string(), "5");
        assert_eq!(measured.self_loops.to_string(), "2");
    }

    #[test]
    fn balance_report_quantifies_even_and_degenerate_partitions() {
        let even = BalanceReport::from_worker_counts(vec![30, 30, 30, 30]);
        assert!(even.is_balanced_within(0));
        assert!((even.max_over_mean - 1.0).abs() < 1e-9);
        let uneven = BalanceReport::from_worker_counts(vec![40, 30, 30]);
        assert_eq!((uneven.max_edges, uneven.min_edges), (40, 30));
        assert!(uneven.is_balanced_within(10) && !uneven.is_balanced_within(9));
        assert!((uneven.max_over_mean - 1.2).abs() < 1e-9);
        for degenerate in [vec![], vec![0, 0]] {
            let report = BalanceReport::from_worker_counts(degenerate);
            assert!(report.is_balanced_within(0));
            assert_eq!(report.max_over_mean, 1.0);
        }
    }

    #[test]
    fn shared_and_local_modes_finalize_identically() {
        let run = |budget: u64| {
            let engine = MetricsEngine::new(&[], 4, 2, budget);
            let mut worker = engine.worker();
            worker.observe(EDGES, EDGES);
            worker.finish();
            engine.finalize(vec![EDGES.len() as u64]).1
        };
        assert_eq!(run(u64::MAX), run(0));
    }

    #[test]
    fn custom_metric_observes_merges_and_reports() {
        let metrics = [
            PredicateCountMetric::new("upper_triangle", |r, c| r < c),
            PredicateCountMetric::new("loops", |r, c| r == c),
        ];
        assert!(format!("{metrics:?}").contains("upper_triangle"));

        let engine = MetricsEngine::new(&metrics, 4, 2, u64::MAX);
        let mut first = engine.worker();
        first.observe(&EDGES[..3], &EDGES[..3]);
        first.finish();
        let mut second = engine.worker();
        second.observe(&EDGES[3..], &EDGES[3..]);
        second.finish();
        let (_, report) = engine.finalize(vec![3, 2]);
        assert_eq!(report.custom_value("upper_triangle"), Some("2"));
        assert_eq!(report.custom_value("loops"), Some("2"));
        assert_eq!(report.custom_value("missing"), None);
    }

    #[test]
    fn finalize_tolerates_zero_finished_workers() {
        // Every worker of a fault-tolerant run can be quarantined; the
        // report must still assemble (as an empty graph) rather than panic.
        let metrics = [PredicateCountMetric::new("loops", |r, c| r == c)];
        let engine = MetricsEngine::new(&metrics, 4, 2, u64::MAX);
        let (_, report) = engine.finalize(vec![0, 0]);
        assert_eq!(report.edges, 0);
        assert_eq!(report.max_degree, 0);
        assert_eq!(report.custom_value("loops"), Some("0"));
    }

    #[test]
    fn records_cover_builtins_and_customs() {
        let metrics = [PredicateCountMetric::new("loops", |r, c| r == c)];
        let engine = MetricsEngine::new(&metrics, 4, 1, u64::MAX);
        let mut worker = engine.worker();
        worker.observe(EDGES, EDGES);
        worker.finish();
        let (_, report) = engine.finalize(vec![EDGES.len() as u64]);
        let records = report.records();
        let value = |name: &str| {
            records
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("no record named {name}"))
                .value
                .clone()
        };
        assert_eq!(value("vertices"), "4");
        assert_eq!(value("edges"), "5");
        assert_eq!(value("self_loops"), "2");
        assert_eq!(value("max_degree"), "2");
        assert_eq!(value("distinct_degrees"), "2");
        assert_eq!(value("balance_max_over_mean"), "1.0");
        assert_eq!(value("loops"), "2");
        // The fit records are present exactly when a fit exists.
        assert_eq!(
            records.iter().any(|r| r.name == "power_law_alpha"),
            report.power_law.is_some()
        );
    }
}
