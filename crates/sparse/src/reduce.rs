//! Reductions: degree vectors, nnz-per-row/column, degree histograms.
//!
//! For an adjacency matrix the "degree" of vertex `i` used throughout the
//! paper is the number of stored entries in row `i` plus column `i` for a
//! directed interpretation, or simply the row count for the symmetric
//! matrices the star constituents produce.  These helpers operate on the
//! *pattern* (stored entries), matching the paper's `nnz`-based definitions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::semiring::Scalar;

/// Number of stored entries in each row of a COO matrix.
pub fn row_counts<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    let mut counts = vec![0u64; m.nrows() as usize];
    for &r in m.row_indices() {
        counts[r as usize] += 1;
    }
    counts
}

/// Number of stored entries in each column of a COO matrix.
pub fn col_counts<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    let mut counts = vec![0u64; m.ncols() as usize];
    for &c in m.col_indices() {
        counts[c as usize] += 1;
    }
    counts
}

/// Row-pattern degrees of a CSR matrix (`nnz` per row).
pub fn csr_row_degrees<T: Scalar>(m: &CsrMatrix<T>) -> Vec<u64> {
    (0..m.nrows()).map(|r| m.row_nnz(r) as u64).collect()
}

/// Undirected vertex degrees of a symmetric adjacency matrix in COO form:
/// the number of stored entries in the vertex's row.  For matrices that are
/// not symmetric use [`total_degrees`], which counts row + column entries.
pub fn symmetric_degrees<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    row_counts(m)
}

/// Total (in + out) pattern degree of each vertex of a square COO matrix.
pub fn total_degrees<T: Scalar>(m: &CooMatrix<T>) -> Vec<u64> {
    assert!(m.is_square(), "total_degrees requires a square matrix");
    let mut counts = vec![0u64; m.nrows() as usize];
    for (r, c, _) in m.iter() {
        counts[r as usize] += 1;
        if r != c {
            counts[c as usize] += 1;
        }
    }
    counts
}

/// Histogram of a degree vector: map from degree `d` to the number of
/// vertices with that degree.  Vertices of degree zero are included under
/// key `0` (the paper's generator guarantees there are none).
pub fn degree_histogram(degrees: &[u64]) -> BTreeMap<u64, u64> {
    let mut hist = BTreeMap::new();
    for &d in degrees {
        *hist.entry(d).or_insert(0u64) += 1;
    }
    hist
}

/// Histogram of row-pattern degrees of a COO matrix.
pub fn degree_distribution<T: Scalar>(m: &CooMatrix<T>) -> BTreeMap<u64, u64> {
    let mut hist = degree_histogram(&row_counts(m));
    // Vertices with no stored entries at all still count as degree 0.
    let total_vertices: u64 = m.nrows();
    let seen: u64 = hist.values().sum();
    if total_vertices > seen {
        *hist.entry(0).or_insert(0) += total_vertices - seen;
    }
    // `degree_histogram(&row_counts)` already counts zero-degree rows, so the
    // adjustment above only matters if row_counts was truncated, which it is
    // not; keep the invariant explicit anyway.
    hist
}

/// Streaming degree accumulator: per-chunk row/column endpoint counting for
/// graphs that are never materialised.
///
/// A generation worker feeds every chunk of `(row, col)` edges it produces
/// through [`DegreeAccumulator::record`]; the accumulator maintains exact
/// per-vertex row and column endpoint counts (plus a diagonal tally) in
/// flat `u64` vectors, so its memory cost is `O(vertices)` regardless of how
/// many edges stream through it.  Per-worker accumulators are combined with
/// [`DegreeAccumulator::merge`], and [`DegreeAccumulator::row_histogram`]
/// produces the same degree histogram [`degree_distribution`] computes from a
/// materialised matrix — including the degree-zero bucket.
///
/// When only row degrees are needed — a square graph's degree distribution
/// is its row-endpoint histogram — [`DegreeAccumulator::rows_only`] skips
/// the column vector entirely, halving both the memory per accumulator and
/// the per-edge work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeAccumulator {
    ncols: u64,
    row_counts: Vec<u64>,
    col_counts: Option<Vec<u64>>,
    self_loops: u64,
    edges: u64,
}

impl DegreeAccumulator {
    /// Create an accumulator for a graph with the given dimensions,
    /// tracking both row and column endpoint counts.
    pub fn new(nrows: u64, ncols: u64) -> Self {
        DegreeAccumulator {
            ncols,
            row_counts: vec![0u64; nrows as usize],
            col_counts: Some(vec![0u64; ncols as usize]),
            self_loops: 0,
            edges: 0,
        }
    }

    /// Create an accumulator that tracks only row endpoint counts (plus the
    /// edge and self-loop tallies); [`DegreeAccumulator::col_counts`] and
    /// [`DegreeAccumulator::col_histogram`] return `None`.
    pub fn rows_only(nrows: u64, ncols: u64) -> Self {
        DegreeAccumulator {
            ncols,
            row_counts: vec![0u64; nrows as usize],
            col_counts: None,
            self_loops: 0,
            edges: 0,
        }
    }

    /// Number of rows the accumulator covers.
    pub fn nrows(&self) -> u64 {
        self.row_counts.len() as u64
    }

    /// Number of columns the accumulator covers.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Whether column endpoint counts are being tracked.
    pub fn tracks_cols(&self) -> bool {
        self.col_counts.is_some()
    }

    /// Count one chunk of edges: each edge contributes one row endpoint and
    /// (when tracked) one column endpoint, and diagonal edges are tallied
    /// separately.
    ///
    /// # Panics
    /// Panics if an index is outside the declared dimensions.
    pub fn record(&mut self, edges: &[(u64, u64)]) {
        match self.col_counts.as_mut() {
            Some(col_counts) => {
                for &(row, col) in edges {
                    self.row_counts[row as usize] += 1;
                    col_counts[col as usize] += 1;
                    self.self_loops += u64::from(row == col);
                }
            }
            None => {
                for &(row, col) in edges {
                    assert!(col < self.ncols, "column index out of bounds");
                    self.row_counts[row as usize] += 1;
                    self.self_loops += u64::from(row == col);
                }
            }
        }
        self.edges += edges.len() as u64;
    }

    /// Total number of edges recorded so far.
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Number of diagonal (self-loop) edges recorded so far.
    pub fn self_loop_count(&self) -> u64 {
        self.self_loops
    }

    /// Fold another accumulator (e.g. a different worker's) into this one.
    ///
    /// # Panics
    /// Panics if the two accumulators cover different dimensions or track
    /// different endpoint sets.
    pub fn merge(&mut self, other: &DegreeAccumulator) {
        assert_eq!(
            (self.nrows(), self.ncols()),
            (other.nrows(), other.ncols()),
            "merged accumulators must cover the same graph dimensions"
        );
        assert_eq!(
            self.tracks_cols(),
            other.tracks_cols(),
            "merged accumulators must track the same endpoint sets"
        );
        for (mine, theirs) in self.row_counts.iter_mut().zip(other.row_counts.iter()) {
            *mine += theirs;
        }
        if let (Some(mine), Some(theirs)) = (self.col_counts.as_mut(), other.col_counts.as_ref()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
        self.self_loops += other.self_loops;
        self.edges += other.edges;
    }

    /// Row endpoint count of each vertex (the paper's row-nnz degree).
    pub fn row_counts(&self) -> &[u64] {
        &self.row_counts
    }

    /// Column endpoint count of each vertex, or `None` for a
    /// [`rows_only`](DegreeAccumulator::rows_only) accumulator.
    pub fn col_counts(&self) -> Option<&[u64]> {
        self.col_counts.as_deref()
    }

    /// Histogram of row-endpoint degrees, including the degree-zero bucket —
    /// identical to [`degree_distribution`] of the materialised matrix.
    pub fn row_histogram(&self) -> BTreeMap<u64, u64> {
        degree_histogram(&self.row_counts)
    }

    /// Histogram of column-endpoint degrees, including the degree-zero
    /// bucket, or `None` for a
    /// [`rows_only`](DegreeAccumulator::rows_only) accumulator.
    pub fn col_histogram(&self) -> Option<BTreeMap<u64, u64>> {
        self.col_counts.as_deref().map(degree_histogram)
    }

    /// Largest row-endpoint degree recorded so far (zero for an empty or
    /// edgeless accumulator) — the paper's `d_max`, available without
    /// building the full histogram.
    pub fn max_row_degree(&self) -> u64 {
        self.row_counts.iter().copied().max().unwrap_or(0)
    }
}

/// A [`DegreeAccumulator`] shared by every worker of a parallel generation
/// run: one atomic row-endpoint vector for the whole run, so the streaming
/// validation side-channel costs exactly `O(vertices)` no matter how many
/// workers record into it concurrently.
///
/// # Memory ordering
///
/// Every atomic access in this type uses [`Ordering::Relaxed`], and each
/// site has been audited against the same argument:
///
/// * The `fetch_add`s in [`record`](SharedDegreeAccumulator::record) are
///   pure tallies.  No thread reads a counter to decide what to write
///   next, no counter value guards any other memory, and `fetch_add` is a
///   single atomic read-modify-write, so relaxed ordering still loses no
///   increments — only the *ordering* between counters is unspecified
///   while workers run, and nothing observes it.
/// * The loads in [`edge_count`](SharedDegreeAccumulator::edge_count),
///   [`self_loop_count`](SharedDegreeAccumulator::self_loop_count),
///   [`row_histogram`](SharedDegreeAccumulator::row_histogram), and
///   [`max_row_degree`](SharedDegreeAccumulator::max_row_degree) are only
///   meaningful once the recording workers have been *joined*: the join
///   itself (e.g. the end of a [`std::thread::scope`] or a rayon parallel
///   iterator) publishes every worker's writes with a happens-before
///   edge, so by the time a reader runs, relaxed loads observe the final
///   values exactly.  Mid-run calls are permitted (progress reporting)
///   but return an unspecified interleaving, never a torn value.
///
/// The `exact_totals_under_concurrent_recording` stress test pins the
/// joined-read contract: hammering `record` from many threads must yield
/// byte-exact totals, not approximations.
#[derive(Debug)]
pub struct SharedDegreeAccumulator {
    ncols: u64,
    row_counts: Vec<AtomicU64>,
    self_loops: AtomicU64,
    edges: AtomicU64,
}

impl SharedDegreeAccumulator {
    /// Create a shared accumulator tracking row endpoint counts (plus edge
    /// and self-loop tallies) for a graph with the given dimensions.
    pub fn rows_only(nrows: u64, ncols: u64) -> Self {
        let rows = nrows as usize;
        let mut row_counts = Vec::with_capacity(rows);
        row_counts.resize_with(rows, || AtomicU64::new(0));
        SharedDegreeAccumulator {
            ncols,
            row_counts,
            self_loops: AtomicU64::new(0),
            edges: AtomicU64::new(0),
        }
    }

    /// Number of rows the accumulator covers.
    pub fn nrows(&self) -> u64 {
        self.row_counts.len() as u64
    }

    /// Number of columns the accumulator covers.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Count one chunk of edges; callable concurrently from any number of
    /// workers.
    ///
    /// # Panics
    /// Panics if an index is outside the declared dimensions.
    pub fn record(&self, edges: &[(u64, u64)]) {
        let mut loops = 0u64;
        for &(row, col) in edges {
            assert!(col < self.ncols, "column index out of bounds");
            self.row_counts[row as usize]
                // ordering: Relaxed — independent counter increments; totals are read only after the recording workers are joined
                .fetch_add(1, Ordering::Relaxed);
            loops += u64::from(row == col);
        }
        // ordering: Relaxed — tally increment with no ordering dependence; folded after worker join
        self.self_loops.fetch_add(loops, Ordering::Relaxed);
        // ordering: Relaxed — tally increment with no ordering dependence; folded after worker join
        self.edges.fetch_add(edges.len() as u64, Ordering::Relaxed);
    }

    /// Total number of edges recorded so far.
    pub fn edge_count(&self) -> u64 {
        // ordering: Relaxed — monotone counter read; exact only after workers are joined, which callers guarantee
        self.edges.load(Ordering::Relaxed)
    }

    /// Number of diagonal (self-loop) edges recorded so far.
    pub fn self_loop_count(&self) -> u64 {
        // ordering: Relaxed — monotone counter read; exact only after workers are joined, which callers guarantee
        self.self_loops.load(Ordering::Relaxed)
    }

    /// Histogram of row-endpoint degrees, including the degree-zero bucket —
    /// identical to [`degree_distribution`] of the materialised matrix.
    /// Built straight from the atomic vector, with no second `O(vertices)`
    /// copy.
    pub fn row_histogram(&self) -> BTreeMap<u64, u64> {
        let mut hist = BTreeMap::new();
        for count in &self.row_counts {
            // ordering: Relaxed — per-slot read after the recording workers are joined (join is the synchronisation point)
            *hist.entry(count.load(Ordering::Relaxed)).or_insert(0) += 1;
        }
        hist
    }

    /// Largest row-endpoint degree recorded so far (zero for an empty or
    /// edgeless accumulator); meaningful once the recording workers have
    /// been joined.
    pub fn max_row_degree(&self) -> u64 {
        self.row_counts
            .iter()
            // ordering: Relaxed — per-slot read after the recording workers are joined (join is the synchronisation point)
            .map(|count| count.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// Total number of stored entries per row, returned as `(max, min, mean)`;
/// useful for checking the paper's per-processor load balance claim.
pub fn balance_stats(counts: &[usize]) -> (usize, usize, f64) {
    if counts.is_empty() {
        return (0, 0, 0.0);
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    (max, min, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn star5_with_center_loop() -> CooMatrix<u64> {
        // Centre 0 with 5 leaves plus a self-loop on the centre.
        let mut edges = vec![(0u64, 0u64)];
        for leaf in 1..=5u64 {
            edges.push((0, leaf));
            edges.push((leaf, 0));
        }
        CooMatrix::from_edges(6, 6, edges).unwrap()
    }

    #[test]
    fn row_and_col_counts() {
        let m = star5_with_center_loop();
        let rows = row_counts(&m);
        assert_eq!(rows[0], 6);
        assert_eq!(rows[1..], [1, 1, 1, 1, 1]);
        let cols = col_counts(&m);
        assert_eq!(cols, rows, "symmetric matrix has equal row/col counts");
    }

    #[test]
    fn csr_degrees_match_coo() {
        let m = star5_with_center_loop();
        let csr = CsrMatrix::from_coo::<PlusTimes>(&m).unwrap();
        assert_eq!(csr_row_degrees(&csr), row_counts(&m));
    }

    #[test]
    fn degree_histogram_counts_vertices() {
        let m = star5_with_center_loop();
        let hist = degree_distribution(&m);
        assert_eq!(hist.get(&1), Some(&5));
        assert_eq!(hist.get(&6), Some(&1));
        assert_eq!(hist.values().sum::<u64>(), 6);
    }

    #[test]
    fn zero_degree_vertices_are_counted() {
        let m = CooMatrix::from_edges(4, 4, vec![(0, 1), (1, 0)]).unwrap();
        let hist = degree_distribution(&m);
        assert_eq!(hist.get(&0), Some(&2));
        assert_eq!(hist.get(&1), Some(&2));
    }

    #[test]
    fn total_degrees_counts_both_endpoints() {
        let m = CooMatrix::from_edges(3, 3, vec![(0, 1), (2, 2)]).unwrap();
        let degs = total_degrees(&m);
        assert_eq!(degs, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn total_degrees_requires_square() {
        let m = CooMatrix::from_edges(2, 3, vec![(0, 1)]).unwrap();
        let _ = total_degrees(&m);
    }

    #[test]
    fn accumulator_matches_materialised_histogram() {
        let m = star5_with_center_loop();
        let mut acc = DegreeAccumulator::new(m.nrows(), m.ncols());
        let edges: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        // Feed in two uneven chunks to exercise the chunk boundary.
        acc.record(&edges[..4]);
        acc.record(&edges[4..]);
        assert_eq!(acc.row_histogram(), degree_distribution(&m));
        assert_eq!(acc.row_counts(), row_counts(&m).as_slice());
        assert_eq!(acc.col_counts(), Some(col_counts(&m).as_slice()));
        assert_eq!(acc.col_histogram(), Some(degree_histogram(&col_counts(&m))));
        assert_eq!(acc.edge_count(), m.nnz() as u64);
        assert_eq!(acc.self_loop_count(), 1);
        assert_eq!(acc.max_row_degree(), 6);
        assert_eq!(DegreeAccumulator::new(0, 0).max_row_degree(), 0);
    }

    #[test]
    fn rows_only_accumulator_matches_full_rows() {
        let m = star5_with_center_loop();
        let edges: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        let mut acc = DegreeAccumulator::rows_only(m.nrows(), m.ncols());
        assert!(!acc.tracks_cols());
        acc.record(&edges);
        assert_eq!(acc.row_histogram(), degree_distribution(&m));
        assert_eq!(acc.col_counts(), None);
        assert_eq!(acc.col_histogram(), None);
        assert_eq!(acc.edge_count(), m.nnz() as u64);
        assert_eq!(acc.self_loop_count(), 1);
        assert_eq!((acc.nrows(), acc.ncols()), (m.nrows(), m.ncols()));

        let mut other = DegreeAccumulator::rows_only(m.nrows(), m.ncols());
        other.record(&edges);
        other.merge(&acc);
        assert_eq!(other.edge_count(), 2 * m.nnz() as u64);
    }

    #[test]
    #[should_panic]
    fn rows_only_accumulator_still_bounds_checks_columns() {
        let mut acc = DegreeAccumulator::rows_only(4, 4);
        acc.record(&[(0, 9)]);
    }

    #[test]
    fn shared_accumulator_matches_materialised_histogram() {
        let m = star5_with_center_loop();
        let edges: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        let acc = SharedDegreeAccumulator::rows_only(m.nrows(), m.ncols());
        // Record through shared references, as concurrent workers would.
        let shared = &acc;
        shared.record(&edges[..4]);
        shared.record(&edges[4..]);
        assert_eq!(acc.row_histogram(), degree_distribution(&m));
        assert_eq!(acc.edge_count(), m.nnz() as u64);
        assert_eq!(acc.self_loop_count(), 1);
        assert_eq!((acc.nrows(), acc.ncols()), (m.nrows(), m.ncols()));
        assert_eq!(acc.max_row_degree(), 6);
    }

    #[test]
    fn shared_accumulator_sums_across_threads() {
        let acc = SharedDegreeAccumulator::rows_only(4, 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        acc.record(&[(0, 1), (2, 2)]);
                    }
                });
            }
        });
        assert_eq!(acc.edge_count(), 800);
        assert_eq!(acc.self_loop_count(), 400);
        let hist = acc.row_histogram();
        assert_eq!(hist.get(&400), Some(&2));
        assert_eq!(hist.get(&0), Some(&2));
    }

    /// Stress the relaxed-ordering contract documented on
    /// [`SharedDegreeAccumulator`]: many threads hammering `fetch_add`
    /// through `record`, with reads only after the scope join, must
    /// produce *exact* totals — identical to a serial replay through the
    /// single-threaded [`DegreeAccumulator`] — never an approximation.
    #[test]
    fn exact_totals_under_concurrent_recording() {
        const THREADS: u64 = 8;
        const CHUNKS: u64 = 250;
        const CHUNK_LEN: u64 = 16;
        const NROWS: u64 = 64;

        // Deterministic per-thread edge stream; rows deliberately collide
        // across threads so every counter sees real contention.
        let edges_for = |thread: u64, chunk: u64| -> Vec<(u64, u64)> {
            (0..CHUNK_LEN)
                .map(|k| {
                    let row = (thread * 17 + chunk * 5 + k * 3) % NROWS;
                    let col = if k % 7 == 0 { row } else { (row + 1) % NROWS };
                    (row, col)
                })
                .collect()
        };

        let shared = SharedDegreeAccumulator::rows_only(NROWS, NROWS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let shared = &shared;
                scope.spawn(move || {
                    for chunk in 0..CHUNKS {
                        shared.record(&edges_for(thread, chunk));
                    }
                });
            }
        });

        // Serial ground truth over the identical stream.
        let mut serial = DegreeAccumulator::rows_only(NROWS, NROWS);
        for thread in 0..THREADS {
            for chunk in 0..CHUNKS {
                serial.record(&edges_for(thread, chunk));
            }
        }

        assert_eq!(shared.edge_count(), THREADS * CHUNKS * CHUNK_LEN);
        assert_eq!(shared.edge_count(), serial.edge_count());
        assert_eq!(shared.self_loop_count(), serial.self_loop_count());
        assert_eq!(shared.row_histogram(), serial.row_histogram());
        assert_eq!(shared.max_row_degree(), serial.max_row_degree());
    }

    #[test]
    #[should_panic]
    fn shared_accumulator_bounds_checks_columns() {
        let acc = SharedDegreeAccumulator::rows_only(4, 4);
        acc.record(&[(0, 9)]);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mixed_tracking_modes() {
        let mut a = DegreeAccumulator::new(3, 3);
        let b = DegreeAccumulator::rows_only(3, 3);
        a.merge(&b);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let m = star5_with_center_loop();
        let edges: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        let mut whole = DegreeAccumulator::new(6, 6);
        whole.record(&edges);
        let mut left = DegreeAccumulator::new(6, 6);
        let mut right = DegreeAccumulator::new(6, 6);
        left.record(&edges[..5]);
        right.record(&edges[5..]);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn accumulator_counts_zero_degree_vertices() {
        let mut acc = DegreeAccumulator::new(4, 4);
        acc.record(&[(0, 1), (1, 0)]);
        let hist = acc.row_histogram();
        assert_eq!(hist.get(&0), Some(&2));
        assert_eq!(hist.get(&1), Some(&2));
    }

    #[test]
    #[should_panic]
    fn accumulator_merge_rejects_mismatched_dimensions() {
        let mut a = DegreeAccumulator::new(3, 3);
        let b = DegreeAccumulator::new(4, 4);
        a.merge(&b);
    }

    #[test]
    fn balance_stats_basics() {
        assert_eq!(balance_stats(&[]), (0, 0, 0.0));
        let (max, min, mean) = balance_stats(&[4, 4, 4, 4]);
        assert_eq!((max, min), (4, 4));
        assert!((mean - 4.0).abs() < 1e-12);
        let (max, min, _) = balance_stats(&[1, 7, 4]);
        assert_eq!((max, min), (7, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_coo() -> impl Strategy<Value = CooMatrix<u64>> {
        (1u64..15, 1u64..15).prop_flat_map(|(nr, nc)| {
            proptest::collection::vec((0..nr, 0..nc, 1u64..3), 0..40)
                .prop_map(move |es| CooMatrix::from_entries(nr, nc, es).unwrap())
        })
    }

    proptest! {
        #[test]
        fn counts_sum_to_nnz(m in arb_coo()) {
            prop_assert_eq!(row_counts(&m).iter().sum::<u64>() as usize, m.nnz());
            prop_assert_eq!(col_counts(&m).iter().sum::<u64>() as usize, m.nnz());
        }

        #[test]
        fn histogram_sums_to_vertex_count(m in arb_coo()) {
            let hist = degree_distribution(&m);
            prop_assert_eq!(hist.values().sum::<u64>(), m.nrows());
        }

        #[test]
        fn transpose_swaps_row_col_counts(m in arb_coo()) {
            prop_assert_eq!(row_counts(&m), col_counts(&m.transpose()));
        }

        #[test]
        fn accumulator_is_chunking_invariant(m in arb_coo(), chunk in 1usize..7) {
            let edges: Vec<(u64, u64)> = m.iter().map(|(r, c, _)| (r, c)).collect();
            let mut acc = DegreeAccumulator::new(m.nrows(), m.ncols());
            for slice in edges.chunks(chunk) {
                acc.record(slice);
            }
            prop_assert_eq!(acc.row_histogram(), degree_distribution(&m));
            prop_assert_eq!(acc.edge_count() as usize, m.nnz());
        }
    }
}
