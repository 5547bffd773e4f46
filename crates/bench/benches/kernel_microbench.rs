//! Isolated hot-kernel throughput: the loops the pipeline's end-to-end
//! rates are made of, measured without the pipeline around them.
//!
//! * `rmat_fill` — the batched R-MAT quadrant walk
//!   ([`kron_rmat::RmatBatchSampler::fill`]) drawing contiguous sample
//!   ranges into a reusable buffer.
//! * `feistel_apply` — [`kron_gen::FeistelPermutation::apply_edges_into`]
//!   relabelling 64 K-edge chunks, the in-stream permutation stage's exact
//!   call pattern.
//! * `feistel_range` — [`kron_gen::FeistelPermutation::apply_range_into`]
//!   imaging `|V_C|`-label ranges of a domain past the table cutoff, the
//!   Kronecker block path's call pattern.
//! * `fnv1a`, `codec_encode` / `codec_decode`, `codec_encode_checksum` /
//!   `codec_decode_verify` — the shard checksum alone, the v4 delta/varint
//!   frame codec alone, and the fused kernels the compressed sink and
//!   replay run (the hash inside the codec loop), all over the same
//!   K70-shaped frames, so "fused ≈ max(codec, hash), not their sum" is
//!   three printed rows to compare.
//! * `tsv_format` / `tsv_fnv1a` — [`kron_gen::sink::write_tsv_edges`], the
//!   TSV sink's decimal formatter with the hash riding along, and FNV-1a
//!   alone over the same text: the chain is the floor the fused loop cannot
//!   beat, so the two rows print the formatter's distance from it.
//!
//! * `design_predict` / `realize_measure` — a `{3,4,5,9,16}` design's exact
//!   property sheet from [`kron_core::KroneckerDesign::properties`] against
//!   realising the graph and measuring the same sheet.
//! * `triangles_spgemm` / `triangles_merge` / `triangles_oriented` — the
//!   paper's `1ᵀ((A·A) ⊗ A)1 / 6`, the ordered merge and the degree-ordered
//!   counter of [`kron_sparse::triangles`] on one realised `{3,4,5,9}` graph,
//!   each checked against the merge count before it is timed.
//!
//! End-to-end numbers live in the benchmark (`BENCHMARK.json`,
//! `crates/bench/src/bin/benchmark/`); this bench exists so a kernel
//! regression is attributable to the kernel, not inferred from pipeline
//! deltas.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kron_core::validate::measure_properties;
use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::codec::{
    decode_frame, decode_frame_checksummed, encode_frame, encode_frame_checksummed, frame_header,
    FRAME_HEADER_LEN,
};
use kron_gen::permute::FeistelPermutation;
use kron_gen::sink::write_tsv_edges;
use kron_gen::{EdgeChunk, EdgeSource, Fnv1a, KroneckerSource, SourceRun};
use kron_rmat::{RmatGenerator, RmatParams};
use kron_sparse::triangles::{count_triangles, count_triangles_merge, count_triangles_oriented};
use kron_sparse::{CsrMatrix, PlusTimes, SparseError};

const RMAT_SCALE: u32 = 18;
const RMAT_SEED: u64 = 20180304;
const CHUNK: usize = 1 << 16;
const SAMPLES: usize = 5;

fn median_of<T>(mut pass: impl FnMut() -> T, items: u64) -> (Duration, f64) {
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(pass());
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    (median, items as f64 / median.as_secs_f64())
}

fn main() {
    let params = RmatParams::graph500(RMAT_SCALE);
    let generator = RmatGenerator::new(params, RMAT_SEED).expect("valid parameters");
    let sampler = generator.batch_sampler();
    let total = params.requested_edges();
    let mut buffer = vec![(0u64, 0u64); CHUNK];
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            let mut index = 0u64;
            while index < total {
                let len = ((total - index) as usize).min(CHUNK);
                sampler.fill(index, &mut buffer[..len]);
                acc ^= buffer[len / 2].0;
                index += len as u64;
            }
            acc
        },
        total,
    );
    println!(
        "  rmat_fill        median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );

    // 43 200 vertices is not a power of two, so the Feistel network
    // cycle-walks, as it does on every Kronecker design.
    let vertices = 43_200u64;
    let perm = FeistelPermutation::new(vertices, 0x5EED);
    let edges: Vec<(u64, u64)> = (0..CHUNK as u64)
        .map(|i| {
            let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (r % vertices, (r >> 17) % vertices)
        })
        .collect();
    let mut out = Vec::new();
    let mut walking = Vec::new();
    let passes = 64u64;
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for _ in 0..passes {
                perm.apply_edges_into(&edges, &mut out, &mut walking);
                acc ^= out[CHUNK / 2].0;
            }
            acc
        },
        passes * CHUNK as u64,
    );
    println!(
        "  feistel_apply    median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );

    // A power-of-two domain accepts every walked value first try, isolating
    // the network+scan cost from the cycle-walk tail above.
    let full = FeistelPermutation::new(1u64 << 16, 0x5EED);
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for _ in 0..passes {
                full.apply_edges_into(&edges, &mut out, &mut walking);
                acc ^= out[CHUNK / 2].0;
            }
            acc
        },
        passes * CHUNK as u64,
    );
    println!(
        "  feistel_nowalk   median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );

    // The block path's kernel at the benchmark's `kron_permute` shape: a
    // 2 558 400-vertex domain (past the table cutoff, so every label walks
    // the network) imaged in the 21 320-label ranges of its `C` factor.  The
    // unit is labels; `apply_edges_into` walks two per edge.
    let (big, range) = (2_558_400u64, 21_320usize);
    let table_free = FeistelPermutation::new(big, 0x5EED);
    let mut images = Vec::new();
    let ranges = big / range as u64;
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for block in 0..ranges {
                table_free.apply_range_into(block * range as u64, range, &mut images, &mut walking);
                acc ^= images[range / 2];
            }
            acc
        },
        ranges * range as u64,
    );
    println!(
        "  feistel_range    median {median:>12?}  {:>9.1} Mlabels/s",
        rate / 1e6
    );

    // The shard kernels, over what the `kron_shard_v4` / `replay_v4`
    // workloads really push through them: the first chunks of worker 0's
    // K70 stream, one frame per chunk.
    let chunks = k70_chunks(16);
    let edge_total: u64 = chunks.iter().map(|chunk| chunk.len() as u64).sum();
    let passes = 8u64;
    let frames: Vec<Vec<u8>> = chunks
        .iter()
        .map(|chunk| {
            let mut frame = Vec::new();
            encode_frame(chunk, &mut frame);
            frame
        })
        .collect();
    let byte_total: usize = frames.iter().map(Vec::len).sum();
    println!(
        "  codec ratio      {:.2}x ({:.2} bytes per edge over {} K70 frames)",
        16.0 * edge_total as f64 / byte_total as f64,
        byte_total as f64 / edge_total as f64,
        frames.len()
    );
    let row = |name: &str, (median, rate): (Duration, f64)| {
        println!(
            "  {name:<22} median {median:>12?}  {:>9.1} Medges/s",
            rate / 1e6
        );
    };

    // The serial xor→multiply chain on its own: what a second pass over
    // the frames costs.
    row(
        "fnv1a",
        median_of(
            || {
                let mut acc = 0u64;
                for _ in 0..passes {
                    for frame in &frames {
                        acc ^= Fnv1a::hash(frame);
                    }
                }
                acc
            },
            passes * edge_total,
        ),
    );

    let mut encoded = Vec::new();
    row(
        "codec_encode",
        median_of(
            || {
                let mut acc = 0u64;
                for _ in 0..passes {
                    for chunk in &chunks {
                        encoded.clear();
                        encode_frame(chunk, &mut encoded);
                        acc ^= encoded.len() as u64;
                    }
                }
                acc
            },
            passes * edge_total,
        ),
    );
    // The sink's kernel: the hash rides inside the encode loop.  The claim
    // is "≈ max(encode, fnv1a), not their sum".
    row(
        "codec_encode_checksum",
        median_of(
            || {
                let mut hasher = Fnv1a::new();
                for _ in 0..passes {
                    for chunk in &chunks {
                        encoded.clear();
                        encode_frame_checksummed(chunk, &mut encoded, &mut hasher);
                    }
                }
                hasher.finish()
            },
            passes * edge_total,
        ),
    );

    let count_of = |frame: &[u8]| -> u32 {
        let header: [u8; FRAME_HEADER_LEN] = frame[..FRAME_HEADER_LEN].try_into().expect("header");
        frame_header(&header).0
    };
    let mut decoded = Vec::new();
    row(
        "codec_decode",
        median_of(
            || {
                let mut acc = 0u64;
                for _ in 0..passes {
                    for frame in &frames {
                        let (head, body) = frame.split_at(FRAME_HEADER_LEN);
                        decode_frame(count_of(head), body, &mut decoded).expect("round trip");
                        acc ^= decoded[decoded.len() / 2].0;
                    }
                }
                acc
            },
            passes * edge_total,
        ),
    );
    // Replay's kernel: decode and verify in one pass.
    row(
        "codec_decode_verify",
        median_of(
            || {
                let mut hasher = Fnv1a::new();
                for _ in 0..passes {
                    for frame in &frames {
                        let (head, body) = frame.split_at(FRAME_HEADER_LEN);
                        hasher.update(head);
                        decode_frame_checksummed(count_of(head), body, &mut decoded, &mut hasher)
                            .expect("round trip");
                    }
                }
                hasher.finish() ^ decoded[decoded.len() / 2].0
            },
            passes * edge_total,
        ),
    );

    // The TSV sink's kernel: decimal formatting with the hash riding along.
    let mut text = Vec::new();
    row(
        "tsv_format",
        median_of(
            || {
                let mut hasher = Fnv1a::new();
                for chunk in &chunks {
                    text.clear();
                    write_tsv_edges(&mut text, chunk, &mut hasher).expect("Vec write");
                }
                hasher.finish() ^ text.len() as u64
            },
            edge_total,
        ),
    );
    // The chain alone over the text `tsv_format` writes: its floor.
    let texts: Vec<Vec<u8>> = chunks
        .iter()
        .map(|chunk| {
            let mut text = Vec::new();
            write_tsv_edges(&mut text, chunk, &mut Fnv1a::new()).expect("Vec write");
            text
        })
        .collect();
    let text_bytes: usize = texts.iter().map(Vec::len).sum();
    row(
        "tsv_fnv1a",
        median_of(
            || {
                let mut hasher = Fnv1a::new();
                for text in &texts {
                    hasher.update(text);
                }
                hasher.finish()
            },
            edge_total,
        ),
    );
    println!(
        "  tsv text         {:.2} bytes per edge",
        text_bytes as f64 / edge_total as f64
    );

    // The paper's premise: a design's exact property sheet costs next to
    // nothing beside realising the graph and measuring the same sheet.
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16], SelfLoop::Centre)
        .expect("valid design");
    let (predict, _) = median_of(|| design.properties(), 1);
    let (measure, _) = median_of(
        || {
            let graph = design.realize(60_000_000).expect("fits in memory");
            measure_properties(&graph).expect("measurable")
        },
        1,
    );
    println!("  design_predict         median {predict:>12?}");
    println!(
        "  realize_measure        median {measure:>12?}  ({:.0}x the prediction)",
        measure.as_secs_f64() / predict.as_secs_f64()
    );

    // The three triangle counters on one realised graph; the ordered merge
    // is the reference a streamed triangle count will be checked against.
    let graph = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre)
        .and_then(|design| design.realize(10_000_000))
        .expect("fits in memory");
    let csr = CsrMatrix::from_coo::<PlusTimes>(&graph).expect("fits in memory");
    let nnz = csr.nnz() as u64;
    let reference = count_triangles_merge(&csr).expect("countable");
    let names = ["triangles_spgemm", "triangles_merge", "triangles_oriented"];
    let counters = [
        count_triangles,
        count_triangles_merge,
        count_triangles_oriented,
    ];
    for (name, count) in names.into_iter().zip(counters) {
        assert_eq!(count(&csr).expect("countable"), reference, "{name}");
        row(name, median_of(|| count(&csr).expect("countable"), nnz));
    }
}

/// The first `count` chunks of worker 0's stream of the benchmark's K70
/// design (69 984 000 edges over 2 558 400 vertices).
fn k70_chunks(count: usize) -> Vec<Vec<(u64, u64)>> {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9, 25, 81], SelfLoop::None)
        .expect("valid design");
    let (run, _warnings) = KroneckerSource::new(&design)
        .prepare(1)
        .expect("K70 splits on one worker");
    let mut chunks = Vec::with_capacity(count);
    let mut chunk = EdgeChunk::with_default_capacity();
    // The error is the early exit: `count` chunks are all this bench wants.
    let _ = run.stream_worker::<SparseError, _>(0, &mut chunk, |edges| {
        chunks.push(edges.to_vec());
        if chunks.len() == count {
            return Err(SparseError::Io("enough chunks".into()));
        }
        Ok(())
    });
    assert_eq!(chunks.len(), count, "K70 has more than {count} chunks");
    chunks
}
