//! Isolated hot-kernel throughput: the three loops the pipeline's
//! end-to-end rates are made of, measured without the pipeline around
//! them.
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
//! * `codec_encode` / `codec_decode` — the v4 delta/varint frame codec
//!   over generated-looking edge chunks.
//!
//! End-to-end numbers live in `source_throughput` / `shard_driver`; this
//! bench exists so a kernel regression is attributable to the kernel, not
//! inferred from pipeline deltas.

use std::time::{Duration, Instant};

use kron_gen::codec::{decode_frame, encode_frame, frame_header, FRAME_HEADER_LEN};
use kron_gen::permute::FeistelPermutation;
use kron_gen::Fnv1a;
use kron_rmat::{RmatGenerator, RmatParams};

const RMAT_SCALE: u32 = 18;
const RMAT_SEED: u64 = 20180304;
const CHUNK: usize = 1 << 16;
const SAMPLES: usize = 5;

fn median_of(mut pass: impl FnMut() -> u64, items: u64) -> (Duration, f64) {
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            criterion::black_box(pass());
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

    // The source_throughput bench's Kronecker graph has 43 200 vertices;
    // use the same domain so the cycle-walk rate matches the end-to-end
    // measurement.
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

    // FNV-1a paces every checksummed write and replay: bytes/edge is 16 for
    // the raw binary layout, so Medges/s here is MB/s ÷ 16.
    let payload: Vec<u8> = (0..16 * CHUNK)
        .map(|i| (i as u8).wrapping_mul(31))
        .collect();
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for _ in 0..passes {
                acc ^= Fnv1a::hash(&payload);
            }
            acc
        },
        passes * CHUNK as u64,
    );
    println!(
        "  fnv_hash         median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );

    let mut encoded = Vec::new();
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for _ in 0..passes {
                encoded.clear();
                encode_frame(&edges, &mut encoded);
                acc ^= encoded.len() as u64;
            }
            acc
        },
        passes * CHUNK as u64,
    );
    println!(
        "  codec_encode     median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );
    println!(
        "  codec ratio      {:.2}x ({} -> {} bytes per {CHUNK}-edge frame)",
        (16 * CHUNK) as f64 / encoded.len() as f64,
        16 * CHUNK,
        encoded.len()
    );

    let header: [u8; FRAME_HEADER_LEN] = encoded[..FRAME_HEADER_LEN].try_into().expect("header");
    let (count, _) = frame_header(&header);
    let mut decoded = Vec::new();
    let (median, rate) = median_of(
        || {
            let mut acc = 0u64;
            for _ in 0..passes {
                decode_frame(count, &encoded[FRAME_HEADER_LEN..], &mut decoded)
                    .expect("round trip");
                acc ^= decoded[CHUNK / 2].0;
            }
            acc
        },
        passes * CHUNK as u64,
    );
    println!(
        "  codec_decode     median {median:>12?}  {:>9.1} Medges/s",
        rate / 1e6
    );
}
