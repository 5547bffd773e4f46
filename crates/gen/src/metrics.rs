//! The pluggable streaming-metrics engine.
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
//! * any number of **custom [`StreamingMetric`]s** registered through
//!   [`Pipeline::with_metric`](crate::pipeline::Pipeline::with_metric) —
//!   per-worker observers that see every delivered chunk, merge when workers
//!   finish, and report one value each.
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
use kron_core::GraphProperties;
use kron_sparse::reduce::SharedDegreeAccumulator;
use kron_sparse::DegreeAccumulator;

use crate::lock;

/// A pluggable streaming metric: a factory of per-worker observers.
///
/// The engine asks the metric for one [`MetricObserver`] per worker; each
/// observer sees every chunk its worker delivers to the sink, observers are
/// merged pairwise as workers finish, and the surviving observer is
/// finalised into the metric's reported value.  Implementations must be
/// cheap per edge — they run inside the generation hot loop.
pub trait StreamingMetric: Send + Sync {
    /// The metric's name, used in the [`MetricsReport`] and the manifest.
    fn name(&self) -> &str;

    /// Create one worker's observer.
    fn observer(&self, context: &MetricContext) -> Box<dyn MetricObserver>;
}

/// What the engine tells a metric when creating observers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricContext {
    /// Number of vertices of the streamed graph.
    pub vertices: u64,
    /// Number of workers in the run.
    pub workers: usize,
}

/// One worker's live accumulator of a [`StreamingMetric`].
pub trait MetricObserver: Send {
    /// Observe one chunk of delivered `(row, col)` edges.
    fn observe(&mut self, edges: &[(u64, u64)]);

    /// Fold another worker's observer of the same metric into this one.
    /// Implementations downcast via [`MetricObserver::into_any`]; the engine
    /// guarantees `other` came from the same [`StreamingMetric`].
    fn merge(&mut self, other: Box<dyn MetricObserver>);

    /// The observer as `Any`, for [`MetricObserver::merge`] downcasts.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;

    /// Render the accumulated value (after all merges) for the report and
    /// the manifest.
    fn finalize(self: Box<Self>) -> String;
}

/// A ready-made [`StreamingMetric`] counting edges that satisfy a predicate
/// — duplicate-prone regions, upper-triangle edges, cross-partition edges,
/// anything expressible per edge:
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
}

struct PredicateCountObserver {
    count: u64,
    predicate: Arc<dyn Fn(u64, u64) -> bool + Send + Sync>,
}

impl StreamingMetric for PredicateCountMetric {
    fn name(&self) -> &str {
        &self.name
    }

    fn observer(&self, _context: &MetricContext) -> Box<dyn MetricObserver> {
        Box::new(PredicateCountObserver {
            count: 0,
            predicate: Arc::clone(&self.predicate),
        })
    }
}

impl MetricObserver for PredicateCountObserver {
    fn observe(&mut self, edges: &[(u64, u64)]) {
        self.count += edges
            .iter()
            .filter(|&&(row, col)| (self.predicate)(row, col))
            .count() as u64;
    }

    fn merge(&mut self, other: Box<dyn MetricObserver>) {
        let other = other
            .into_any()
            .downcast::<PredicateCountObserver>()
            // lint:allow(no-expect) -- merge is only called over observers cloned from the same engine, so the metric ids match
            .expect("merged observers come from the same metric");
        self.count += other.count;
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn finalize(self: Box<Self>) -> String {
        self.count.to_string()
    }
}

/// An ordered collection of custom metrics — what
/// [`Pipeline::with_metric`](crate::pipeline::Pipeline::with_metric) adds
/// to.  Cloning shares the metrics (they are stateless factories).
#[derive(Clone, Default)]
pub struct MetricSuite {
    metrics: Vec<Arc<dyn StreamingMetric>>,
}

impl MetricSuite {
    /// The empty suite (the built-in metrics always run).
    pub fn new() -> Self {
        MetricSuite::default()
    }

    /// Add a metric, builder style.
    pub fn with(mut self, metric: impl StreamingMetric + 'static) -> Self {
        self.push(metric);
        self
    }

    /// Add a metric.
    pub fn push(&mut self, metric: impl StreamingMetric + 'static) {
        self.metrics.push(Arc::new(metric));
    }

    /// Number of custom metrics in the suite.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the suite holds no custom metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The metric names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|m| m.name()).collect()
    }
}

impl fmt::Debug for MetricSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MetricSuite").field(&self.names()).finish()
    }
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
    /// Build the balance report of any run from its generation statistics
    /// (`BalanceReport::from_stats(&report.stats)`).
    pub fn from_stats(stats: &crate::stats::GenerationStats) -> Self {
        BalanceReport::from_worker_counts(stats.edges_per_worker.clone())
    }

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
    /// Results of the custom metrics, in suite order.
    pub custom: Vec<MetricRecord>,
}

impl MetricsReport {
    /// The report as flat name/value records — the form the run manifest
    /// stores (custom metrics appended after the built-ins).
    pub fn records(&self) -> Vec<MetricRecord> {
        let mut records = vec![
            MetricRecord::new("vertices", self.vertices),
            MetricRecord::new("edges", self.edges),
            MetricRecord::new("self_loops", self.self_loops),
            MetricRecord::new("max_degree", self.max_degree),
            MetricRecord::new("distinct_degrees", self.distinct_degrees),
            // `{:?}` prints the shortest decimal that parses back to the
            // same f64, keeping manifest round trips exact.
            MetricRecord::new(
                "balance_max_over_mean",
                format!("{:?}", self.balance.max_over_mean),
            ),
        ];
        if let Some(fit) = &self.power_law {
            records.push(MetricRecord::new(
                "power_law_alpha",
                format!("{:?}", fit.alpha),
            ));
            records.push(MetricRecord::new(
                "power_law_residual",
                format!("{:?}", fit.mean_log_residual),
            ));
            records.push(MetricRecord::new(
                "power_law_residual_vs_ideal",
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
/// merge slots of every custom metric.  One engine per pipeline run; workers
/// check out a [`WorkerMetrics`] each and fold back in as they finish.
pub(crate) struct MetricsEngine<'s> {
    suite: &'s MetricSuite,
    context: MetricContext,
    /// The run-wide shared atomic accumulator, when the per-worker local
    /// vectors would exceed the byte budget.
    shared: Option<SharedDegreeAccumulator>,
    /// Local accumulators are folded and dropped as each worker finishes, so
    /// at most one per pool thread is live at once (plus this merged one).
    merged_degrees: Mutex<Option<DegreeAccumulator>>,
    merged_custom: Mutex<Vec<Option<Box<dyn MetricObserver>>>>,
}

impl<'s> MetricsEngine<'s> {
    /// Size the histogram mode from the budget: while the peak of concurrent
    /// per-worker local vectors fits `max_histogram_bytes`, workers count
    /// privately at full speed; beyond it one shared atomic vector bounds
    /// the cost at `O(vertices)` total.
    pub(crate) fn new(
        suite: &'s MetricSuite,
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
            suite,
            context: MetricContext { vertices, workers },
            shared,
            merged_degrees: Mutex::new(None),
            merged_custom: Mutex::new(vec_of_none(suite.len())),
        }
    }

    /// Check out one worker's observation state.
    pub(crate) fn worker(&self) -> WorkerMetrics<'_> {
        let degrees = match self.shared.as_ref() {
            Some(shared) => WorkerDegrees::Shared(shared),
            None => WorkerDegrees::Local(DegreeAccumulator::rows_only(
                self.context.vertices,
                self.context.vertices,
            )),
        };
        WorkerMetrics {
            engine: self,
            degrees,
            observers: self
                .suite
                .metrics
                .iter()
                .map(|metric| metric.observer(&self.context))
                .collect(),
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
                let merged = lock(&self.merged_degrees).take().unwrap_or_else(|| {
                    DegreeAccumulator::rows_only(self.context.vertices, self.context.vertices)
                });
                (
                    merged.row_histogram(),
                    merged.self_loop_count(),
                    merged.edge_count(),
                    merged.max_row_degree(),
                )
            }
        };
        let measured = measure_from_histogram(self.context.vertices, &histogram, self_loops);
        let custom: Vec<MetricRecord> = self
            .suite
            .metrics
            .iter()
            .zip(std::mem::take(&mut *lock(&self.merged_custom)))
            .map(|(metric, observer)| MetricRecord {
                name: metric.name().to_string(),
                value: observer
                    .unwrap_or_else(|| metric.observer(&self.context))
                    .finalize(),
            })
            .collect();
        let mut degree_histogram = histogram;
        degree_histogram.remove(&0);
        let report = MetricsReport {
            vertices: self.context.vertices,
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

fn vec_of_none(len: usize) -> Vec<Option<Box<dyn MetricObserver>>> {
    let mut slots = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    slots
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
    observers: Vec<Box<dyn MetricObserver>>,
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
        for observer in &mut self.observers {
            observer.observe(delivered);
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
        if !self.observers.is_empty() {
            let mut guard = lock(&self.engine.merged_custom);
            for (slot, observer) in guard.iter_mut().zip(self.observers) {
                match slot.as_mut() {
                    Some(merged) => merged.merge(observer),
                    None => *slot = Some(observer),
                }
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
        let suite = MetricSuite::new();
        let engine = MetricsEngine::new(&suite, 4, 2, u64::MAX);
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
        let suite = MetricSuite::new();
        let run = |budget: u64| {
            let engine = MetricsEngine::new(&suite, 4, 2, budget);
            let mut worker = engine.worker();
            worker.observe(EDGES, EDGES);
            worker.finish();
            engine.finalize(vec![EDGES.len() as u64]).1
        };
        assert_eq!(run(u64::MAX), run(0));
    }

    #[test]
    fn custom_metric_observes_merges_and_reports() {
        let suite = MetricSuite::new()
            .with(PredicateCountMetric::new("upper_triangle", |r, c| r < c))
            .with(PredicateCountMetric::new("loops", |r, c| r == c));
        assert_eq!(suite.names(), vec!["upper_triangle", "loops"]);
        assert_eq!(suite.len(), 2);
        assert!(!suite.is_empty());
        assert!(format!("{suite:?}").contains("upper_triangle"));

        let engine = MetricsEngine::new(&suite, 4, 2, u64::MAX);
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
        let suite = MetricSuite::new().with(PredicateCountMetric::new("loops", |r, c| r == c));
        let engine = MetricsEngine::new(&suite, 4, 2, u64::MAX);
        let (_, report) = engine.finalize(vec![0, 0]);
        assert_eq!(report.edges, 0);
        assert_eq!(report.max_degree, 0);
        assert_eq!(report.custom_value("loops"), Some("0"));
    }

    #[test]
    fn records_cover_builtins_and_customs() {
        let suite = MetricSuite::new().with(PredicateCountMetric::new("loops", |r, c| r == c));
        let engine = MetricsEngine::new(&suite, 4, 1, u64::MAX);
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
