//! Reusable fixed-capacity edge buffers.
//!
//! The chunked streaming pipeline hands consumers whole slices of edges
//! instead of one edge at a time: a worker fills an [`EdgeChunk`] from the
//! Kronecker expansion and flushes it to the sink whenever it is full.  The
//! buffer is allocated once per worker and reused for the entire run, so the
//! steady-state hot path performs no allocation at all, and the per-edge
//! closure dispatch of the original streaming API is amortized over
//! [`EdgeChunk::DEFAULT_CAPACITY`] edges per sink call.

use kron_sparse::SparseError;

/// Cache-line size the first buffered edge is aligned to.
const LINE: usize = 64;
/// Slots reserved ahead of the edges, so that one of them begins a line.
const LEAD: usize = LINE / std::mem::size_of::<(u64, u64)>() - 1;

/// A reusable fixed-capacity buffer of `(row, col)` edges.
///
/// The edges start on a cache-line boundary.  The expansion fills the chunk
/// with full-width vector stores, and a buffer that starts off a line splits
/// every one of them across two lines.  Where the allocator puts the buffer
/// depends on what the process allocated before, so an unaligned chunk made
/// the same pass run at two speeds: on a 2-vCPU AVX-512 host, a 1-worker
/// K373 count took 0.70 s or 0.89 s depending on the pass.
#[derive(Debug, Clone)]
pub struct EdgeChunk {
    /// `start` unused lead slots, then the buffered edges.
    edges: Vec<(u64, u64)>,
    start: usize,
    capacity: usize,
}

impl EdgeChunk {
    /// Default capacity: 64 Ki edges (1 MiB), small enough to stay cache- and
    /// allocator-friendly per worker, large enough to amortize sink calls to
    /// nothing.
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// Create a chunk holding at most `capacity` edges (at least 1).
    /// Aborts the process if the host cannot allocate the buffer; the
    /// pipeline sizes its workers' chunks with the fallible `try_new`.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EdgeChunk::aligned(Vec::with_capacity(capacity + LEAD), capacity)
    }

    /// Create a chunk holding at most `capacity` edges (at least 1), or
    /// [`SparseError::TooLarge`] naming the bytes its buffer needed when
    /// the host cannot allocate them.
    pub(crate) fn try_new(capacity: usize) -> Result<Self, SparseError> {
        let capacity = capacity.max(1);
        let slots = capacity.saturating_add(LEAD);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        edges
            .try_reserve_exact(slots)
            .map_err(|_| SparseError::TooLarge {
                what: "edge chunk (bytes)",
                requested: slots as u128 * std::mem::size_of::<(u64, u64)>() as u128,
            })?;
        Ok(EdgeChunk::aligned(edges, capacity))
    }

    /// Skip the lead slots that put the first edge of `edges` — an empty
    /// buffer of `capacity + LEAD` slots — on a cache line.
    fn aligned(mut edges: Vec<(u64, u64)>, capacity: usize) -> Self {
        // No slot begins a line (`usize::MAX`) only under an allocator that
        // aligns to less than 16 bytes: the chunk then starts unaligned.
        let start = match edges.as_ptr().align_offset(LINE) {
            start if start <= LEAD => start,
            _ => 0,
        };
        edges.resize(start, (0, 0));
        EdgeChunk {
            edges,
            start,
            capacity,
        }
    }

    /// Whether a chunk of `capacity` edges can be sized: its buffer of
    /// `capacity + LEAD` edges must fit in `isize::MAX` bytes, the most any
    /// allocation may request.  [`EdgeChunk::new`] panics on a capacity
    /// that fails this.
    pub(crate) fn can_size(capacity: usize) -> bool {
        capacity
            .max(1)
            .checked_add(LEAD)
            .and_then(|slots| slots.checked_mul(std::mem::size_of::<(u64, u64)>()))
            .is_some_and(|bytes| bytes <= isize::MAX.unsigned_abs())
    }

    /// Create a chunk with [`EdgeChunk::DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        EdgeChunk::new(Self::DEFAULT_CAPACITY)
    }

    /// Maximum number of edges the chunk holds between flushes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of edges currently buffered.
    pub fn len(&self) -> usize {
        self.edges.len() - self.start
    }

    /// Whether no edges are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the chunk must be flushed before the next push.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of edges that fit before the chunk is full.
    pub fn remaining(&self) -> usize {
        self.capacity - self.len()
    }

    /// Buffer one edge.  The caller ensures the chunk is not full (the
    /// chunked expansion loops size their runs by [`EdgeChunk::remaining`]).
    #[inline]
    pub fn push(&mut self, row: u64, col: u64) {
        debug_assert!(!self.is_full(), "push into a full EdgeChunk");
        self.edges.push((row, col));
    }

    /// Buffer a translated run of factor entries: element `i` of the slices
    /// becomes the edge `(row_base + rows[i], col_base + cols[i])`.
    ///
    /// This is the vectorized fill behind the chunked expansion — an
    /// exact-size iterator extend, so the compiler emits one SIMD
    /// add-and-store loop with no per-edge length check.  The caller sizes
    /// the run to [`EdgeChunk::remaining`].
    #[inline]
    pub fn extend_translated(&mut self, row_base: u64, col_base: u64, rows: &[u64], cols: &[u64]) {
        debug_assert_eq!(rows.len(), cols.len(), "parallel index slices must match");
        debug_assert!(rows.len() <= self.remaining(), "run exceeds chunk capacity");
        self.edges.extend(
            rows.iter()
                .zip(cols.iter())
                .map(|(&r, &c)| (row_base + r, col_base + c)),
        );
    }

    /// Append `count` edges by handing `fill` a slice of spare capacity to
    /// write into — the bulk entry point for sources whose samplers fill
    /// whole buffers (the batched R-MAT walk), replacing `count` per-edge
    /// `push`/`is_full` round trips with one resize and one kernel call.
    /// The caller sizes the run to [`EdgeChunk::remaining`].
    #[inline]
    pub fn fill_spare(&mut self, count: usize, fill: impl FnOnce(&mut [(u64, u64)])) {
        debug_assert!(count <= self.remaining(), "run exceeds chunk capacity");
        let start = self.edges.len();
        self.edges.resize(start + count, (0, 0));
        fill(&mut self.edges[start..]);
    }

    /// The buffered edges.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.edges[self.start..]
    }

    /// Discard all buffered edges, keeping the allocation.
    pub fn clear(&mut self) {
        self.edges.truncate(self.start);
    }

    /// Hand any buffered edges to `sink` and clear the buffer.
    pub fn flush<F: FnMut(&[(u64, u64)])>(&mut self, sink: &mut F) {
        if !self.is_empty() {
            sink(self.as_slice());
            self.clear();
        }
    }

    /// Hand any buffered edges to a fallible `sink`.  The buffer is cleared
    /// only on success; on error the edges stay buffered so nothing is
    /// silently dropped.
    pub fn try_flush<E, F: FnMut(&[(u64, u64)]) -> Result<(), E>>(
        &mut self,
        sink: &mut F,
    ) -> Result<(), E> {
        if !self.is_empty() {
            sink(self.as_slice())?;
            self.clear();
        }
        Ok(())
    }
}

impl Default for EdgeChunk {
    fn default() -> Self {
        EdgeChunk::with_default_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_clamped_to_one() {
        let chunk = EdgeChunk::new(0);
        assert_eq!(chunk.capacity(), 1);
    }

    #[test]
    fn fill_flush_reuse() {
        let mut chunk = EdgeChunk::new(3);
        let mut flushed: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut sink = |edges: &[(u64, u64)]| flushed.push(edges.to_vec());

        for i in 0..3 {
            assert!(!chunk.is_full());
            chunk.push(i, i + 10);
        }
        assert!(chunk.is_full());
        assert_eq!(chunk.remaining(), 0);
        chunk.flush(&mut sink);
        assert!(chunk.is_empty());
        assert_eq!(chunk.remaining(), 3);

        chunk.push(9, 9);
        chunk.flush(&mut sink);
        // Empty flushes do not call the sink.
        chunk.flush(&mut sink);

        assert_eq!(flushed, vec![vec![(0, 10), (1, 11), (2, 12)], vec![(9, 9)]]);
    }

    #[test]
    fn edges_start_on_a_cache_line_and_the_lead_slots_stay_hidden() {
        for capacity in [1, 3, 7, EdgeChunk::DEFAULT_CAPACITY] {
            for mut chunk in [
                EdgeChunk::new(capacity),
                EdgeChunk::try_new(capacity).unwrap(),
            ] {
                assert!(chunk.is_empty());
                assert_eq!(chunk.remaining(), capacity);
                chunk.fill_spare(capacity, |slots| slots.fill((4, 5)));
                assert!(chunk.is_full());
                assert_eq!(chunk.as_slice().as_ptr() as usize % LINE, 0);
                assert!(chunk.as_slice().iter().all(|&edge| edge == (4, 5)));
                chunk.clear();
                chunk.extend_translated(10, 20, &[1], &[2]);
                assert_eq!(chunk.as_slice(), &[(11, 22)]);
                assert_eq!(chunk.as_slice().as_ptr() as usize % LINE, 0);
            }
        }
    }
}
