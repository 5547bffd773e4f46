//! Streaming generation.
//!
//! A worker expands its `B`-triple slice against `C` into a reusable
//! [`EdgeChunk`] and hands the sink whole slices of edges, so the per-edge
//! cost is two adds and a buffered store — no bounds check, no closure
//! dispatch, no allocation after the first chunk.

use kron_sparse::CooMatrix;

use crate::chunk::EdgeChunk;

/// Stream the edges of worker `p`'s block — the Kronecker product of its
/// `B`-triple slice with `C` — filling the caller's reusable `chunk` and
/// calling the fallible `sink` with each full chunk (and once with the
/// final partial chunk).  Global `(row, col)` indices; returns the number
/// of edges produced.
///
/// The first sink error aborts the expansion immediately — no further
/// edges are generated — and the undelivered edges stay in `chunk` (see
/// [`EdgeChunk::try_flush`]).  On success the chunk is left empty, so one
/// buffer can serve a whole run of blocks.  The chunk is also flushed on
/// entry if it still holds edges from a previous call.
pub fn try_stream_block_edges_into<E, F: FnMut(&[(u64, u64)]) -> Result<(), E>>(
    b_triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    chunk: &mut EdgeChunk,
    mut sink: F,
) -> Result<u64, E> {
    chunk.try_flush(&mut sink)?;
    let (c_rows, c_cols) = (c.row_indices(), c.col_indices());
    let (c_nrows, c_ncols) = (c.nrows(), c.ncols());
    let c_nnz = c_rows.len();
    for &(rb, cb, _) in b_triples {
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
    Ok((b_triples.len() * c_nnz) as u64)
}

/// Infallible-sink variant of [`try_stream_block_edges_into`].
pub fn stream_block_edges_into<F: FnMut(&[(u64, u64)])>(
    b_triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    chunk: &mut EdgeChunk,
    mut sink: F,
) -> u64 {
    let result: Result<u64, std::convert::Infallible> =
        try_stream_block_edges_into(b_triples, c, chunk, |edges| {
            sink(edges);
            Ok(())
        });
    match result {
        Ok(produced) => produced,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::csc_ordered_triples;
    use kron_core::{KroneckerDesign, SelfLoop};

    #[test]
    fn chunked_stream_is_the_translated_product_in_order_at_every_chunk_size() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let (b_design, c_design) = design.split(1).unwrap();
        let b = b_design.realize_raw(10_000).unwrap();
        let c = c_design.realize_raw(10_000).unwrap();
        let triples = csc_ordered_triples(&b);

        // The definition of B_p ⊗ C, one edge at a time.
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for &(rb, cb, _) in &triples {
            for (rc, cc, _) in c.iter() {
                expected.push((rb * c.nrows() + rc, cb * c.ncols() + cc));
            }
        }

        for chunk_capacity in [1usize, 3, 4096] {
            let mut chunked: Vec<(u64, u64)> = Vec::new();
            let mut chunk = EdgeChunk::new(chunk_capacity);
            let produced = stream_block_edges_into(&triples, &c, &mut chunk, |edges| {
                chunked.extend_from_slice(edges)
            });
            assert!(chunk.is_empty(), "chunk must be drained on return");
            assert_eq!(produced as usize, chunked.len());
            assert_eq!(
                chunked, expected,
                "order differs at chunk capacity {chunk_capacity}"
            );
        }
    }

    #[test]
    fn empty_slice_streams_nothing() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let (_, c_design) = design.split(1).unwrap();
        let c = c_design.realize_raw(1_000).unwrap();
        let mut calls = 0usize;
        let mut chunk = EdgeChunk::new(8);
        let produced = stream_block_edges_into(&[], &c, &mut chunk, |_| calls += 1);
        assert_eq!(produced, 0);
        assert_eq!(calls, 0, "no edges must mean no sink calls");
    }
}
