//! The streaming-metrics engine.
//!
//! The paper's headline result (Figure 4) is that *measured* properties of a
//! trillion-edge graph exactly equal the *predicted* ones — which makes the
//! measurement side a first-class subsystem, not a hard-coded histogram
//! buried in the generation loop.  This module owns everything a
//! [`Pipeline`](crate::pipeline::Pipeline) run measures while edges stream:
//!
//! * the **degree histogram**, counted in one of two modes, chosen once per
//!   run by this module alone:
//!   - **windows** — each worker counts one endpoint of its stream in one
//!     window of labels at a time, folds the window into a sparse degree →
//!     vertices histogram whenever the stream moves to the next window, and
//!     hands its first and last windows — which the neighbouring workers may
//!     share — to the engine when it finishes; the engine folds a shared
//!     window once every worker the source says shares it has reported.  The
//!     windows are either the `|V_C|`-label *column* windows a run's source
//!     declares ([`ColumnWindows`], [`SourceRun::column_windows`]: a
//!     Kronecker run over symmetric factors, permuted or not, fresh or
//!     resumed) — no `O(vertices)` vector and no merge, the paper's own
//!     method of each processor measuring its block, with the promise
//!     checked as the edges stream — or, for any other run (R-MAT, replay),
//!     one window of `|V|` labels keyed on the *row* endpoint: a private
//!     vector per live worker, summed into the run's one pending window as
//!     its worker finishes and folded at the end.  Every run counts source
//!     labels: a resume maps its verified shards back through the
//!     permutation's inverse first.  Every window counts in 2-byte cells, a
//!     quarter of a `u64` vector: the rare label whose cell wraps carries
//!     `2^16` into the window's side table, summing two parts carries the
//!     same way, and folding adds a carried label's carry back before its
//!     degree enters the histogram;
//!   - **shared** — a run without declared windows whose per-worker vectors
//!     would exceed
//!     [`Pipeline::max_histogram_bytes`](crate::pipeline::Pipeline::max_histogram_bytes):
//!     one run-wide [`SharedDegreeAccumulator`] (relaxed atomics,
//!     `O(vertices)` total) — unless the run may retry or quarantine, since
//!     the shared vector cannot roll back a failed attempt.
//!
//!   A label past the last vertex is [`SparseError::IndexOutOfBounds`] in
//!   either mode, and a vector the host cannot hold is
//!   [`SparseError::TooLarge`], never an abort;
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

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use kron_core::powerlaw::PowerLawFit;
use kron_core::validate::measure_from_histogram;
use kron_core::{CoreError, GraphProperties};
use kron_sparse::reduce::{try_counts, SharedDegreeAccumulator};
use kron_sparse::SparseError;

use crate::lock;
use crate::source::ColumnWindows;
#[cfg(doc)]
use crate::source::SourceRun;

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
    /// Largest degree, of the endpoint
    /// [`degree_histogram`](Self::degree_histogram) counts.
    pub max_degree: u64,
    /// Degree histogram (degree → vertex count), degree-zero vertices
    /// excluded — the support of the measured distribution.  A run whose
    /// source declares [`ColumnWindows`], fresh or resumed, counts column
    /// endpoints, which equal the row endpoints by symmetry; every other run
    /// (R-MAT, replay) counts row endpoints, so an asymmetric source such as
    /// R-MAT reports its out-degrees.
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
            MetricRecord::new(distinct_degrees, self.degree_histogram.len()),
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

/// What a pipeline run tells the metrics engine about itself, for
/// [`MetricsEngine::new`] to decide from it how the run counts degrees.
pub(crate) struct RunShape<'a> {
    pub(crate) vertices: u64,
    pub(crate) workers: usize,
    /// The column order the source declares, if any.
    pub(crate) windows: Option<&'a ColumnWindows>,
    /// Whether a failed attempt may be retried or quarantined.
    pub(crate) fault_tolerant: bool,
    pub(crate) max_histogram_bytes: u64,
}

/// The run-wide measurement state: the degree counting of the run's mode
/// plus the summed count of every custom metric.  One engine per pipeline
/// run; workers check out a [`WorkerMetrics`] each and fold back in as they
/// finish.
pub(crate) struct MetricsEngine<'m> {
    metrics: &'m [PredicateCountMetric],
    vertices: u64,
    degrees: RunDegrees,
    /// One total per custom metric, in registration order.
    merged_counts: Mutex<Vec<u64>>,
}

/// The run-wide side of the two degree-counting modes (see the module
/// docs).
enum RunDegrees {
    /// One atomic vector every worker counts into.
    Shared(SharedDegreeAccumulator),
    /// Per-worker windows, folded into one sparse histogram.
    Windowed(WindowFold),
}

impl<'m> MetricsEngine<'m> {
    /// Choose how `run` counts degrees: in the source's column windows when
    /// it declares them; otherwise in one `|V|`-label window per
    /// worker while their peak — `(concurrent workers + 1) × vertices × 2`
    /// bytes — fits the budget, and in one shared atomic vector beyond it.
    /// The shared vector cannot roll back a failed attempt, so a run that
    /// may retry or quarantine keeps its windows past the budget, and says
    /// so in `warnings`.  A vector the host cannot hold is
    /// [`SparseError::TooLarge`].
    ///
    /// The `|V|`-label windows are all allocated here, on the calling
    /// thread, before any worker starts: a window a worker thread allocated
    /// would stay in that thread's malloc arena once freed, on top of the
    /// next run's.
    pub(crate) fn new(
        metrics: &'m [PredicateCountMetric],
        run: RunShape<'_>,
        warnings: &mut Vec<String>,
    ) -> Result<Self, SparseError> {
        let vertices = run.vertices;
        let declared = run.windows.filter(|windows| windows.width > 0);
        let threads = rayon::current_num_threads();
        let concurrent = run.workers.min(threads) + 1;
        let over_budget = concurrent as u128 * u128::from(vertices) * CELL_BYTES
            > u128::from(run.max_histogram_bytes);
        let degrees = match declared {
            Some(windows) => RunDegrees::Windowed(WindowFold::new(windows, false)),
            None if over_budget && !run.fault_tolerant => {
                RunDegrees::Shared(SharedDegreeAccumulator::try_rows_only(vertices, vertices)?)
            }
            None => {
                if over_budget {
                    warnings.push(
                        "fault-tolerant run: counting degrees per worker (the shared atomic \
                         histogram cannot roll back a failed attempt), exceeding \
                         max_histogram_bytes"
                            .to_string(),
                    );
                }
                let whole = ColumnWindows {
                    width: vertices,
                    partials: BTreeMap::new(),
                };
                // One window per worker running at once, and one more for
                // the finished workers' sum while a thread runs a second
                // worker; allocated before anything is written, so a vector
                // the host cannot hold fails the run here.
                let spare = (0..run.workers.min(threads + 1))
                    .map(|_| Window::new(vertices))
                    .collect::<Result<_, _>>()?;
                let fold = WindowFold::new(&whole, true);
                lock(&fold.state).spare = spare;
                RunDegrees::Windowed(fold)
            }
        };
        Ok(MetricsEngine {
            metrics,
            vertices,
            degrees,
            merged_counts: Mutex::new(vec![0; metrics.len()]),
        })
    }

    /// Check out one worker's observation state.
    pub(crate) fn worker(&self) -> WorkerMetrics<'_> {
        let degrees = match &self.degrees {
            RunDegrees::Shared(shared) => WorkerDegrees::Shared(shared),
            RunDegrees::Windowed(fold) => {
                WorkerDegrees::Windowed(WindowCounter::new(fold.width, self.vertices), fold)
            }
        };
        WorkerMetrics {
            engine: self,
            degrees,
            counts: vec![0; self.metrics.len()],
        }
    }

    /// Assemble the typed metrics report, and the measured property sheet
    /// the run validates against and then drops, once every worker has
    /// finished — or the broken stream-order promise a windowed run found
    /// only now that every worker has reported.
    pub(crate) fn finalize(
        self,
        edges_per_worker: Vec<u64>,
    ) -> Result<(GraphProperties, MetricsReport), SparseError> {
        let vertices = self.vertices;
        let (histogram, self_loops, edges, max_degree) = match self.degrees {
            RunDegrees::Shared(shared) => (
                shared.row_histogram(),
                shared.self_loop_count(),
                shared.edge_count(),
                shared.max_row_degree(),
            ),
            RunDegrees::Windowed(fold) => fold.finish(vertices)?,
        };
        let measured = measure_from_histogram(vertices, &histogram, self_loops);
        let custom: Vec<MetricRecord> = self
            .metrics
            .iter()
            .zip(std::mem::take(&mut *lock(&self.merged_counts)))
            .map(|(metric, count)| MetricRecord::new(metric.name.as_str(), count))
            .collect();
        let mut degree_histogram = histogram;
        degree_histogram.remove(&0);
        let report = MetricsReport {
            vertices,
            edges,
            self_loops,
            max_degree,
            degree_histogram,
            balance: BalanceReport::from_worker_counts(edges_per_worker),
            power_law: measured.power_law_fit(),
            custom,
        };
        Ok((measured, report))
    }
}

/// Check that every label of `edges` names one of `vertices` vertices: the
/// first edge that does not is [`SparseError::IndexOutOfBounds`].
fn check_labels(edges: &[(u64, u64)], vertices: u64) -> Result<(), SparseError> {
    match edges.iter().find(|&&(row, col)| row.max(col) >= vertices) {
        Some(&(row, col)) => Err(SparseError::IndexOutOfBounds {
            row,
            col,
            nrows: vertices,
            ncols: vertices,
        }),
        None => Ok(()),
    }
}

/// `histogram` (non-zero degrees only) with the degree-zero bucket of a
/// `vertices`-vertex graph added, as a flat vector's histogram has it.
fn with_zero_degrees(mut histogram: BTreeMap<u64, u64>, vertices: u64) -> BTreeMap<u64, u64> {
    let zero = vertices - histogram.values().sum::<u64>();
    if zero > 0 {
        histogram.insert(0, zero);
    }
    histogram
}

/// The bytes of one window cell.
const CELL_BYTES: u128 = std::mem::size_of::<u16>() as u128;

/// What one wrap of a window's cell carries.
const CARRY: u64 = 1 << 16;

/// One window's degree counts: a 2-byte cell per label, and a side table
/// with the offset of the label each time its cell wrapped.  A label's
/// count is its cell plus `2^16` per entry of its offset, so a window costs
/// 2 bytes per label however high its degrees run, and its table at most 8
/// bytes per `2^16` counted endpoints.  The table is a plain list, emptied
/// but kept while the window is reused, so a fold frees nothing.
#[derive(Default)]
struct Window {
    cells: Vec<u16>,
    /// One entry per wrap: the offset of the label whose cell wrapped.
    wraps: Vec<usize>,
}

impl Window {
    /// A zeroed window of `width` labels; a vector the host cannot hold is
    /// [`SparseError::TooLarge`].
    fn new(width: u64) -> Result<Self, SparseError> {
        Ok(Window {
            cells: try_counts(width, || 0)?,
            wraps: Vec::new(),
        })
    }

    /// Add `part` label by label, carrying every cell the sum wraps, and
    /// leave `part` zeroed for its next use.
    fn add(&mut self, part: &mut Window) {
        for (offset, (sum, cell)) in self.cells.iter_mut().zip(&mut part.cells).enumerate() {
            let (total, wrapped) = sum.overflowing_add(std::mem::take(cell));
            *sum = total;
            if wrapped {
                wrap(&mut self.wraps, offset);
            }
        }
        self.wraps.append(&mut part.wraps);
    }

    /// Add the non-zero counts to a degree → vertices histogram, and zero
    /// the window for its next use.  A label that wrapped enters the
    /// histogram first, with its carry added back, and its cell is cleared
    /// so the scan of the cells skips it.
    fn fold(&mut self, histogram: &mut BTreeMap<u64, u64>) {
        self.wraps.sort_unstable();
        for wraps in self.wraps.chunk_by(|a, b| a == b) {
            // `chunk_by` yields no empty group, and every entry is the offset
            // of a cell.
            let cell = std::mem::take(&mut self.cells[wraps[0]]);
            let degree = u64::from(cell) + CARRY * wraps.len() as u64;
            *histogram.entry(degree).or_insert(0) += 1;
        }
        self.wraps.clear();
        add_runs(&self.cells, histogram);
        self.cells.fill(0);
    }
}

/// Record one wrap of the cell at `offset`.  Kept out of line: a cell
/// wraps once per `2^16` increments at most.
#[cold]
#[inline(never)]
fn wrap(wraps: &mut Vec<usize>, offset: usize) {
    wraps.push(offset);
}

/// Add the non-zero counts of `cells` to a degree → vertices histogram.
/// Neighbouring labels of a Kronecker product mostly share a degree, so the
/// map is touched once per run of equal counts, not once per vertex.
fn add_runs(mut cells: &[u16], histogram: &mut BTreeMap<u64, u64>) {
    while let Some(&degree) = cells.first() {
        let run = cells.iter().take_while(|&&count| count == degree).count();
        if degree > 0 {
            *histogram.entry(u64::from(degree)).or_insert(0) += run as u64;
        }
        cells = &cells[run..];
    }
}

/// The run-wide side of windowed counting: the histogram of every folded
/// window, and the partial windows still waiting for the workers that share
/// them.
struct WindowFold {
    width: u64,
    /// Whether the windows are keyed on the row endpoint (the one `|V|`
    /// window of a run without declared column windows) rather than the
    /// column endpoint.
    by_rows: bool,
    state: Mutex<FoldState>,
}

struct FoldState {
    /// Non-zero degree → vertices, over every folded window.
    histogram: BTreeMap<u64, u64>,
    edges: u64,
    self_loops: u64,
    /// How many more workers will hand over a part of each shared window,
    /// from [`ColumnWindows::partials`]; 0 once the window is folded.
    awaited: BTreeMap<u64, usize>,
    /// The summed parts of the shared windows not folded yet.
    pending: BTreeMap<u64, Window>,
    /// Zeroed windows a worker's part or a fold left behind, for the next
    /// worker to count in: a fresh window would cost a page fault per 2 048
    /// labels, once per worker.
    spare: Vec<Window>,
    /// The first and last window of each finished worker's stream.
    spans: Vec<(u64, u64)>,
    /// The first broken promise a hand-over revealed.
    broken: Option<SparseError>,
}

impl WindowFold {
    fn new(windows: &ColumnWindows, by_rows: bool) -> Self {
        WindowFold {
            width: windows.width,
            by_rows,
            state: Mutex::new(FoldState {
                histogram: BTreeMap::new(),
                edges: 0,
                self_loops: 0,
                awaited: windows.partials.clone(),
                pending: BTreeMap::new(),
                spare: Vec::new(),
                spans: Vec::new(),
                broken: None,
            }),
        }
    }

    /// A zeroed window of `width` counts: a spare one if a fold or a part
    /// left one behind, a new one otherwise.
    fn window(&self) -> Result<Window, SparseError> {
        match lock(&self.state).spare.pop() {
            Some(window) => Ok(window),
            None => Window::new(self.width),
        }
    }

    /// Take a finished worker's count: its histogram and tallies, and its
    /// first and last windows, which the workers streaming before and after
    /// it may share.
    fn accept(&self, counter: WindowCounter) {
        let mut state = lock(&self.state);
        for (degree, vertices) in counter.histogram {
            *state.histogram.entry(degree).or_insert(0) += vertices;
        }
        state.edges += counter.edges;
        state.self_loops += counter.self_loops;
        let Some(last) = counter.open else {
            return;
        };
        let first = counter.first.as_ref().map_or(last, |&(index, _)| index);
        state.spans.push((first, last));
        if let Some((index, window)) = counter.first {
            state.take_part(index, window);
        }
        state.take_part(last, counter.window);
    }

    /// The run's histogram (degree-zero bucket included), self-loops, edges
    /// and max degree, once every worker has finished: fold the windows
    /// still pending (a quarantined worker's neighbours wait for a part that
    /// never comes), after checking that no two workers' streams overlap
    /// anywhere but at their ends.
    fn finish(self, vertices: u64) -> Result<(BTreeMap<u64, u64>, u64, u64, u64), SparseError> {
        let mut state = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(broken) = state.broken {
            return Err(broken);
        }
        state.spans.sort_unstable();
        for pair in state.spans.windows(2) {
            if let [(first, last), (next_first, next_last)] = *pair {
                if last > next_first {
                    return Err(SparseError::StreamOrder {
                        message: format!(
                            "two workers streamed windows {first}..={last} and \
                             {next_first}..={next_last}: they share a window that is not at \
                             the ends of both streams"
                        ),
                    });
                }
            }
        }
        let FoldState {
            pending, histogram, ..
        } = &mut state;
        for window in pending.values_mut() {
            window.fold(histogram);
        }
        let max_degree = state.histogram.keys().next_back().copied().unwrap_or(0);
        let histogram = with_zero_degrees(state.histogram, vertices);
        Ok((histogram, state.self_loops, state.edges, max_degree))
    }
}

impl FoldState {
    /// Add one worker's part of window `index`, and fold the window once
    /// every worker that shares it has handed its part over.
    fn take_part(&mut self, index: u64, mut part: Window) {
        match self.pending.entry(index) {
            Entry::Vacant(slot) => {
                slot.insert(part);
            }
            Entry::Occupied(mut slot) => {
                slot.get_mut().add(&mut part);
                self.spare.push(part);
            }
        }
        match self.awaited.get_mut(&index) {
            Some(0) => {
                self.broken.get_or_insert(SparseError::StreamOrder {
                    message: format!(
                        "a worker handed over a part of window {index} after every worker \
                         declared to share it had"
                    ),
                });
            }
            Some(awaited) => {
                *awaited -= 1;
                if *awaited == 0 {
                    if let Some(mut window) = self.pending.remove(&index) {
                        window.fold(&mut self.histogram);
                        self.spare.push(window);
                    }
                }
            }
            None => {}
        }
    }
}

/// One worker's windowed degree count: the counts of the open window, the
/// first window once the stream has left it (the worker before may share
/// it), and the histogram of the windows in between, which no other worker
/// streams.  The open window at the end is the last one, which the worker
/// after may share.
struct WindowCounter {
    width: u64,
    vertices: u64,
    /// Index of the open window; `None` before the first edge.
    open: Option<u64>,
    /// Counts of the open window (allocated at the first edge, so an idle
    /// worker costs nothing).
    window: Window,
    first: Option<(u64, Window)>,
    histogram: BTreeMap<u64, u64>,
    edges: u64,
    self_loops: u64,
}

impl WindowCounter {
    fn new(width: u64, vertices: u64) -> Self {
        WindowCounter {
            width,
            vertices,
            open: None,
            window: Window::default(),
            first: None,
            histogram: BTreeMap::new(),
            edges: 0,
            self_loops: 0,
        }
    }

    /// Count one chunk's keyed endpoints — rows when `ROWS`, columns
    /// otherwise — and its self-loops in one pass: an edge whose key lies in
    /// the open window and whose other endpoint names a vertex costs two
    /// compares and one increment (and a carry once per `2^16` of them),
    /// and any other edge stops the pass to check its labels and the
    /// stream's order and move the window on.
    fn record<const ROWS: bool>(
        &mut self,
        edges: &[(u64, u64)],
        fold: &WindowFold,
    ) -> Result<(), SparseError> {
        let (vertices, mut loops, mut done) = (self.vertices, 0, 0);
        loop {
            // The open window's counts (none before the first edge), cut at
            // the last vertex: a width that does not divide the vertex count
            // leaves the last window short, so a key past the last vertex
            // leaves the window too.
            let start = self.open.map_or(0, |open| open * self.width);
            let Window { cells, wraps } = &mut self.window;
            let len = vertices.saturating_sub(start).min(cells.len() as u64);
            let cells = &mut cells[..len as usize];
            for &(row, col) in &edges[done..] {
                let (key, other) = if ROWS { (row, col) } else { (col, row) };
                let offset = key.wrapping_sub(start) as usize;
                let Some(cell) = cells.get_mut(offset) else {
                    break;
                };
                if other >= vertices {
                    break;
                }
                *cell = cell.wrapping_add(1);
                if *cell == 0 {
                    wrap(wraps, offset);
                }
                loops += u64::from(row == col);
                done += 1;
            }
            let Some(&(row, col)) = edges.get(done) else {
                break;
            };
            check_labels(&edges[done..=done], vertices)?;
            let key = if ROWS { row } else { col };
            let index = key / self.width;
            if let Some(open) = self.open.filter(|&open| index < open) {
                return Err(SparseError::StreamOrder {
                    message: format!(
                        "column {col} lies in window {index}, behind the open window \
                         {open} ({} labels each)",
                        self.width
                    ),
                });
            }
            self.advance(index, fold)?;
        }
        self.edges += edges.len() as u64;
        self.self_loops += loops;
        Ok(())
    }

    /// Close the open window — keep it aside if it was the first, fold it
    /// otherwise — and open window `index`.
    fn advance(&mut self, index: u64, fold: &WindowFold) -> Result<(), SparseError> {
        match self.open {
            None => self.window = fold.window()?,
            Some(closed) if self.first.is_none() => {
                let fresh = fold.window()?;
                self.first = Some((closed, std::mem::replace(&mut self.window, fresh)));
            }
            Some(_) => self.window.fold(&mut self.histogram),
        }
        self.open = Some(index);
        Ok(())
    }
}

/// One worker's view of the run's degree counting, in the run's mode: a
/// window of its own (`O(width)` per worker) or the run-wide shared atomic
/// vector (`O(vertices)` total) — see
/// [`Pipeline::max_histogram_bytes`](crate::pipeline::Pipeline::max_histogram_bytes).
enum WorkerDegrees<'a> {
    Shared(&'a SharedDegreeAccumulator),
    Windowed(WindowCounter, &'a WindowFold),
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
    /// `source` is the chunk as the source produced it — on a resume, a
    /// verified shard's chunk mapped back through the permutation's inverse
    /// — and `delivered` the chunk exactly as the sink receives it
    /// (relabelled when the run permutes vertices).  The built-in degree
    /// metrics — every one of them (histogram, counts, loops, max degree,
    /// slope) invariant under a vertex bijection — count `source`: the
    /// pre-permutation labels are far cheaper to count (the source emits
    /// them with locality — the order column windows rely on; the permuted
    /// labels scatter across the whole count vector by design).  The custom
    /// metrics see `delivered`, so a custom metric always describes the
    /// graph that actually left the run.
    ///
    /// A chunk that breaks the source's declared order, or carries a label
    /// past the last vertex, is rejected.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        source: &[(u64, u64)],
        delivered: &[(u64, u64)],
    ) -> Result<(), SparseError> {
        match &mut self.degrees {
            WorkerDegrees::Shared(shared) => {
                check_labels(source, self.engine.vertices)?;
                shared.record(source);
            }
            WorkerDegrees::Windowed(window, fold) if fold.by_rows => {
                window.record::<true>(source, fold)?
            }
            WorkerDegrees::Windowed(window, fold) => window.record::<false>(source, fold)?,
        }
        for (metric, count) in self.engine.metrics.iter().zip(&mut self.counts) {
            *count += metric.count(delivered);
        }
        Ok(())
    }

    /// Fold this worker's state into the engine: a windowed worker hands
    /// over its histogram and its two end windows, whose vectors the next
    /// workers count in, so the peak is bounded by the workers running
    /// concurrently.  Only the shared vector is counted into before this
    /// call, so an attempt dropped unfinished in any other mode leaves no
    /// trace.
    pub(crate) fn finish(self) {
        if let WorkerDegrees::Windowed(window, fold) = self.degrees {
            fold.accept(window);
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

    /// An engine for a run that neither retries nor quarantines.
    fn new_engine<'m>(
        metrics: &'m [PredicateCountMetric],
        vertices: u64,
        workers: usize,
        max_histogram_bytes: u64,
        windows: Option<&ColumnWindows>,
    ) -> Result<MetricsEngine<'m>, SparseError> {
        let run = RunShape {
            vertices,
            workers,
            windows,
            fault_tolerant: false,
            max_histogram_bytes,
        };
        MetricsEngine::new(metrics, run, &mut Vec::new())
    }

    #[test]
    fn engine_measures_counts_histogram_and_balance() {
        let engine = new_engine(&[], 4, 2, u64::MAX, None).unwrap();
        let mut first = engine.worker();
        first.observe(&EDGES[..3], &EDGES[..3]).unwrap();
        first.finish();
        let mut second = engine.worker();
        second.observe(&EDGES[3..], &EDGES[3..]).unwrap();
        second.finish();
        let (measured, report) = engine.finalize(vec![3, 2]).unwrap();

        assert_eq!(report.vertices, 4);
        assert_eq!(report.edges, 5);
        assert_eq!(report.self_loops, 2);
        assert_eq!(report.max_degree, 2);
        assert_eq!(report.degree_histogram.len(), 2);
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
            let engine = new_engine(&[], 4, 2, budget, None).unwrap();
            let mut worker = engine.worker();
            worker.observe(EDGES, EDGES).unwrap();
            worker.finish();
            engine.finalize(vec![EDGES.len() as u64]).unwrap().1
        };
        assert_eq!(run(u64::MAX), run(0));
    }

    /// A symmetric graph — star centre 0, leaves 1..=3, loops on 0 and 3 —
    /// in column order: two windows of two labels.
    const BY_COLUMN: &[(u64, u64)] = &[
        (0, 0),
        (1, 0),
        (2, 0),
        (3, 0),
        (0, 1),
        (0, 2),
        (0, 3),
        (3, 3),
    ];

    fn windows(partials: &[(u64, usize)]) -> ColumnWindows {
        ColumnWindows {
            width: 2,
            partials: partials.iter().copied().collect(),
        }
    }

    /// Count `BY_COLUMN` cut into one slice per worker, in column windows.
    fn windowed(cuts: &[usize], windows: &ColumnWindows) -> Result<MetricsReport, SparseError> {
        let engine = new_engine(&[], 4, cuts.len() + 1, u64::MAX, Some(windows))?;
        let mut start = 0;
        for &end in cuts.iter().chain([&BY_COLUMN.len()]) {
            let mut worker = engine.worker();
            // One edge at a time and then the rest: both the edge-by-edge
            // and the whole-chunk path.
            let (head, tail) = BY_COLUMN[start..end].split_at((end - start).min(1));
            worker.observe(head, head)?;
            worker.observe(tail, tail)?;
            worker.finish();
            start = end;
        }
        Ok(engine.finalize(vec![0; 3])?.1)
    }

    /// The report of `edges` on 4 vertices as `kron_sparse`'s flat
    /// row-endpoint vector counts it, with the balance of three idle workers.
    fn flat_vector(edges: &[(u64, u64)]) -> MetricsReport {
        let mut flat = kron_sparse::DegreeAccumulator::rows_only(4, 4);
        flat.record(edges);
        let measured = measure_from_histogram(4, &flat.row_histogram(), flat.self_loop_count());
        let mut degree_histogram = flat.row_histogram();
        degree_histogram.remove(&0);
        MetricsReport {
            vertices: 4,
            edges: flat.edge_count(),
            self_loops: flat.self_loop_count(),
            max_degree: flat.max_row_degree(),
            degree_histogram,
            balance: BalanceReport::from_worker_counts(vec![0; 3]),
            power_law: measured.power_law_fit(),
            custom: Vec::new(),
        }
    }

    #[test]
    fn windowed_mode_finalizes_like_the_flat_vector() {
        let flat = flat_vector(BY_COLUMN);
        assert_eq!(
            flat.degree_histogram,
            BTreeMap::from([(1, 2), (2, 1), (4, 1)])
        );
        // Three workers, the middle one spanning both windows; then the
        // same without the hint's counts, so every window waits for the end.
        for windows in [windows(&[(0, 2), (1, 2)]), windows(&[])] {
            assert_eq!(windowed(&[3, 6], &windows).unwrap(), flat);
        }
        assert_eq!(windowed(&[], &windows(&[(0, 1), (1, 1)])).unwrap(), flat);

        // Without declared windows the engine counts rows in one window of
        // every label, so a graph whose row and column degrees differ — a
        // star pointing out of vertex 0 — reports its row degrees.
        let out_star = [(0, 1), (0, 2), (0, 3)];
        for edges in [BY_COLUMN, &out_star] {
            let engine = new_engine(&[], 4, 3, u64::MAX, None).unwrap();
            let mut worker = engine.worker();
            worker.observe(edges, edges).unwrap();
            worker.finish();
            assert_eq!(engine.finalize(vec![0; 3]).unwrap().1, flat_vector(edges));
        }
        assert_eq!(
            flat_vector(&out_star).degree_histogram,
            BTreeMap::from([(3, 1)])
        );
    }

    #[test]
    fn windowed_mode_rejects_a_broken_stream_order() {
        let order = |error: SparseError| match error {
            SparseError::StreamOrder { message } => message,
            other => panic!("expected StreamOrder, got {other:?}"),
        };
        let engine = new_engine(&[], 4, 1, u64::MAX, Some(&windows(&[]))).unwrap();
        let mut worker = engine.worker();
        worker.observe(&[(0, 2)], &[(0, 2)]).unwrap();
        let backwards = order(worker.observe(&[(1, 1)], &[(1, 1)]).unwrap_err());
        assert!(
            backwards.contains("behind the open window 1"),
            "{backwards}"
        );
        for past in [(0, 4), (4, 2)] {
            assert!(matches!(
                worker.observe(&[past], &[past]),
                Err(SparseError::IndexOutOfBounds { nrows: 4, .. })
            ));
        }
        // A width that does not divide the vertex count: the last window
        // reaches past the last vertex, and a chunk inside it is checked too.
        let ragged = ColumnWindows {
            width: 3,
            partials: BTreeMap::new(),
        };
        let engine = new_engine(&[], 4, 1, u64::MAX, Some(&ragged)).unwrap();
        let mut worker = engine.worker();
        worker.observe(&[(0, 3)], &[(0, 3)]).unwrap();
        let inside = [(1, 3), (1, 4)];
        assert!(matches!(
            worker.observe(&inside, &inside),
            Err(SparseError::IndexOutOfBounds { col: 4, .. })
        ));

        // Two workers that both stream window 1 in the middle of their
        // streams: only the end of the run can tell.
        let overlapping = windowed_spans(&[&[(0, 0), (0, 2), (0, 3)], &[(0, 1), (0, 2), (0, 3)]]);
        assert!(order(overlapping).contains("share a window"));
        // A third part of a window the hint says two workers share.
        let engine = new_engine(&[], 4, 3, u64::MAX, Some(&windows(&[(0, 2)]))).unwrap();
        for _ in 0..3 {
            let mut worker = engine.worker();
            worker.observe(&[(1, 0)], &[(1, 0)]).unwrap();
            worker.finish();
        }
        let late = order(engine.finalize(vec![1, 1, 1]).unwrap_err());
        assert!(late.contains("window 0 after"), "{late}");
    }

    /// Finalize one windowed worker per edge list.
    fn windowed_spans(workers: &[&[(u64, u64)]]) -> SparseError {
        let engine = new_engine(&[], 4, 2, u64::MAX, Some(&windows(&[]))).unwrap();
        for edges in workers {
            let mut worker = engine.worker();
            worker.observe(edges, edges).unwrap();
            worker.finish();
        }
        engine.finalize(vec![3, 3]).unwrap_err()
    }

    #[test]
    fn an_unallocatable_degree_vector_is_a_typed_error() {
        let too_large = |error: SparseError, bytes: u128| match error {
            SparseError::TooLarge { requested, .. } => assert_eq!(requested, bytes),
            other => panic!("expected TooLarge, got {other:?}"),
        };
        // Shared (8-byte atomics) and windowed (2-byte cells) alike, before
        // any worker starts; only a fault-tolerant run keeps its windows
        // past every budget.
        for budget in [0, u64::MAX] {
            too_large(
                new_engine(&[], 1 << 62, 1, budget, None).err().unwrap(),
                1 << 65,
            );
        }
        let run = RunShape {
            vertices: 1 << 62,
            workers: 1,
            windows: None,
            fault_tolerant: true,
            max_histogram_bytes: 0,
        };
        let windowed = MetricsEngine::new(&[], run, &mut Vec::new());
        too_large(windowed.err().unwrap(), 1 << 63);
    }

    #[test]
    fn the_budget_counts_two_byte_cells() {
        // One worker on 4 vertices peaks at its window and the finished
        // workers' sum: 2 × 4 × 2 = 16 bytes of 2-byte cells, where 8-byte
        // counters would need 64.
        let mode = |max_histogram_bytes: u64, fault_tolerant: bool| {
            let run = RunShape {
                vertices: 4,
                workers: 1,
                windows: None,
                fault_tolerant,
                max_histogram_bytes,
            };
            let mut warnings = Vec::new();
            let engine = MetricsEngine::new(&[], run, &mut warnings).unwrap();
            let windowed = matches!(engine.degrees, RunDegrees::Windowed(_));
            (windowed, warnings.len())
        };
        assert_eq!(mode(16, false), (true, 0));
        assert_eq!(mode(16, true), (true, 0));
        assert_eq!(mode(15, false), (false, 0));
        assert_eq!(mode(15, true), (true, 1));
    }

    #[test]
    fn a_wrapped_row_cell_carries_through_the_sum_of_two_workers() {
        // Two workers counting rows in one window each.  Row 0: 40 000 from
        // each, so only the sum wraps.  Row 1: 70 000 from each, so each
        // worker's cell wraps and the carries are summed.  Row 2: 65 535 +
        // 1, a sum that wraps to a zero cell.  Row 3: 200 000 from the
        // second worker alone, three wraps.
        let rows = |counts: [usize; 4]| -> Vec<(u64, u64)> {
            (0u64..4)
                .zip(counts)
                .flat_map(|(row, count)| std::iter::repeat_n((row, 3 - row), count))
                .collect()
        };
        let parts = [
            rows([40_000, 70_000, 65_535, 0]),
            rows([40_000, 70_000, 1, 200_000]),
        ];
        let engine = new_engine(&[], 4, 2, u64::MAX, None).unwrap();
        for edges in &parts {
            let mut worker = engine.worker();
            for chunk in edges.chunks(4096) {
                worker.observe(chunk, chunk).unwrap();
            }
            worker.finish();
        }
        let report = engine.finalize(vec![0; 3]).unwrap().1;
        assert_eq!(
            report.degree_histogram,
            BTreeMap::from([(65_536, 1), (80_000, 1), (140_000, 1), (200_000, 1)])
        );
        assert_eq!(report, flat_vector(&parts.concat()));
    }

    #[test]
    fn a_wrapped_column_cell_carries_its_count() {
        // Star 3 ⊗ star 70 000: the centres' product has degree 210 000 and
        // each leaf of the first star times the second's centre 70 000, so
        // cells wrap in the column windows, and with more workers in the
        // parts two workers sum.
        let design =
            kron_core::KroneckerDesign::from_star_points(&[3, 70_000], kron_core::SelfLoop::None)
                .unwrap();
        let reports: Vec<_> = (1..=3)
            .map(|workers| {
                crate::pipeline::Pipeline::for_design(&design)
                    .workers(workers)
                    .count()
                    .unwrap()
            })
            .collect();
        for report in &reports {
            assert!(report.is_valid(), "{:?}", report.validation.failures());
            assert_eq!(report.metrics.max_degree, 210_000);
            assert_eq!(report.metrics.degree_histogram.get(&70_000), Some(&3));
            assert_eq!(
                report.metrics.degree_histogram,
                reports[0].metrics.degree_histogram
            );
        }
    }

    #[test]
    fn custom_metric_observes_merges_and_reports() {
        let metrics = [
            PredicateCountMetric::new("upper_triangle", |r, c| r < c),
            PredicateCountMetric::new("loops", |r, c| r == c),
        ];
        assert!(format!("{metrics:?}").contains("upper_triangle"));

        let engine = new_engine(&metrics, 4, 2, u64::MAX, None).unwrap();
        let mut first = engine.worker();
        first.observe(&EDGES[..3], &EDGES[..3]).unwrap();
        first.finish();
        let mut second = engine.worker();
        second.observe(&EDGES[3..], &EDGES[3..]).unwrap();
        second.finish();
        let (_, report) = engine.finalize(vec![3, 2]).unwrap();
        assert_eq!(report.custom_value("upper_triangle"), Some("2"));
        assert_eq!(report.custom_value("loops"), Some("2"));
        assert_eq!(report.custom_value("missing"), None);
    }

    #[test]
    fn finalize_tolerates_zero_finished_workers() {
        // Every worker of a fault-tolerant run can be quarantined; the
        // report must still assemble (as an empty graph) rather than panic.
        let metrics = [PredicateCountMetric::new("loops", |r, c| r == c)];
        let engine = new_engine(&metrics, 4, 2, u64::MAX, None).unwrap();
        let (_, report) = engine.finalize(vec![0, 0]).unwrap();
        assert_eq!(report.edges, 0);
        assert_eq!(report.max_degree, 0);
        assert_eq!(report.custom_value("loops"), Some("0"));
    }

    #[test]
    fn records_cover_builtins_and_customs() {
        let metrics = [PredicateCountMetric::new("loops", |r, c| r == c)];
        let engine = new_engine(&metrics, 4, 1, u64::MAX, None).unwrap();
        let mut worker = engine.worker();
        worker.observe(EDGES, EDGES).unwrap();
        worker.finish();
        let (_, report) = engine.finalize(vec![EDGES.len() as u64]).unwrap();
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
