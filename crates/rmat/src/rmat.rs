//! The R-MAT recursive quadrant sampler.
//!
//! R-MAT (Chakrabarti, Zhan & Faloutsos 2004) samples each edge by walking
//! `scale` levels of a binary recursion: at each level the edge lands in one
//! of four quadrants with probabilities `(a, b, c, d)`.  With the Graph500
//! parameters `(0.57, 0.19, 0.19, 0.05)` the result approximates a power-law
//! graph — but only approximately, and only after the fact: the exact edge
//! count, degree distribution, and triangle count are not known until the
//! graph is generated and measured, which is precisely the workflow the
//! exact Kronecker designer replaces.
//!
//! Sampling is *indexed*: [`RmatGenerator::edge_at`] draws sample `i` from
//! an RNG seeded by `(seed, i)`, so any contiguous range of the requested
//! samples can be produced independently — per worker, per chunk — and the
//! full edge list is identical no matter how the range is carved up.  That
//! is what lets `RmatSource` stream R-MAT through the generic pipeline with
//! bounded memory (the materialising whole-list wrappers were removed in
//! PR 12).
//!
//! **Compatibility note:** the per-sample RNG is a SplitMix64 stream over
//! the derived `(seed, index)` state; it replaced an earlier
//! `StdRng`-per-sample (ChaCha12) construction whose key-schedule setup
//! dominated the sampler's cost.  Seeds recorded by manifests written
//! before the streaming-metrics engine therefore reproduce a *different*
//! (equally valid, identically distributed) sample stream under this
//! version.

use serde::{Deserialize, Serialize};

use kron_core::CoreError;

/// Quadrant probabilities and size parameters of an R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant (`1 − a − b − c`).
    pub d: f64,
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of undirected edges per vertex.
    pub edge_factor: u64,
    /// Multiplicative noise applied to the quadrant probabilities at each
    /// recursion level (0.0 = classic R-MAT, Graph500 uses a small value to
    /// smooth the degree distribution).
    pub noise: f64,
}

impl RmatParams {
    /// The Graph500 reference parameters at the given scale.
    pub fn graph500(scale: u32) -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            scale,
            edge_factor: 16,
            noise: 0.0,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edge samples drawn, `edge_factor · 2^scale`.
    pub fn requested_edges(&self) -> u64 {
        self.edge_factor * self.vertices()
    }

    /// Whether the probabilities form a valid distribution.
    pub fn is_valid(&self) -> bool {
        let sum = self.a + self.b + self.c + self.d;
        self.a >= 0.0
            && self.b >= 0.0
            && self.c >= 0.0
            && self.d >= 0.0
            && (sum - 1.0).abs() < 1e-9
            && self.scale >= 1
            && self.scale < 63
            && self.edge_factor >= 1
            && self.noise >= 0.0
            && self.noise < 1.0
    }
}

/// Derive the per-sample RNG seed from the generator seed and the sample's
/// global index: a SplitMix64-style finalizer over the pair, so consecutive
/// indices land on decorrelated streams and the map `index → seed` is
/// injective for a fixed generator seed.
fn sample_seed(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ index.wrapping_mul(SPLITMIX_GAMMA))
}

/// The SplitMix64 output function.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sample's RNG: a SplitMix64 stream over the sample's derived seed.
///
/// Indexed sampling needs a fresh, decorrelated stream per `(seed, index)`
/// pair.  Seeding a `StdRng` (ChaCha12) per sample pays a full key-schedule
/// expansion for the handful of draws one edge needs, which used to dominate
/// the R-MAT hot path (~70x slower than the Kronecker expansion through the
/// same pipeline); SplitMix64 has no setup at all — the derived seed *is*
/// the state — so per-chunk sampling spends its time on the recursion walk,
/// not on RNG construction.
struct SampleRng {
    state: u64,
}

impl SampleRng {
    #[inline]
    fn new(seed: u64) -> Self {
        SampleRng { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        splitmix(self.state)
    }

    /// A uniform draw from `[0, 1)` with 53 random bits, the conversion
    /// `rand` uses for `f64`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Number of samples the batched noise-free walk draws side by side.
///
/// Each sample's quadrant walk is a serial chain (state → splitmix →
/// threshold compares → shift), so one sample at a time leaves the ALUs
/// idle between dependent ops; sixteen independent lanes advanced level by
/// level keep the multipliers busy, and the fixed-size lane arrays let the
/// compiler unroll and vectorise the inner loop (every op is integer —
/// adds, multiplies, shifts, compares — once the thresholds are integers).
pub const SAMPLE_BATCH: usize = 16;

/// The golden-ratio increment of the SplitMix64 stream (shared by the
/// scalar [`SampleRng`] and the batched lanes, which must draw identically).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The smallest integer `k` with `k · 2⁻⁵³ ≥ t` — the threshold `t` moved
/// into the integer sample space of [`SampleRng::next_f64`]'s 53-bit draws.
///
/// `next_f64` returns exactly `k · 2⁻⁵³` for the draw `k = bits >> 11`
/// (53 bits always fit a f64 mantissa), so `sample ≥ t ⟺ k ≥ ⌈t · 2⁵³⌉`;
/// scaling by the power of two is exact for any normal `t`, which makes the
/// ceiling below the *exact* real ceiling and the integer compare
/// bit-identical to the floating compare it replaces.
fn integer_threshold(t: f64) -> u64 {
    (t * 9_007_199_254_740_992.0).ceil() as u64
}

/// A seeded R-MAT edge sampler.
#[derive(Debug, Clone)]
pub struct RmatGenerator {
    params: RmatParams,
    seed: u64,
}

impl RmatGenerator {
    /// Create a generator from validated parameters and a seed.
    pub fn new(params: RmatParams, seed: u64) -> Result<Self, CoreError> {
        if !params.is_valid() {
            return Err(CoreError::InvalidConfig {
                message: format!("invalid R-MAT parameters: {params:?}"),
            });
        }
        Ok(RmatGenerator { params, seed })
    }

    /// The generator's parameters.
    pub fn params(&self) -> &RmatParams {
        &self.params
    }

    /// The generator's sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sample one edge with the given RNG.
    fn sample_edge(&self, rng: &mut SampleRng) -> (u64, u64) {
        if self.params.noise > 0.0 {
            return self.sample_edge_noisy(rng);
        }
        // Noise-free quadrant walk, branch-free.  The quadrant of each level
        // is a three-way threshold comparison whose outcome is close to a
        // coin flip (Graph500's a = 0.57), so a compare-and-branch ladder
        // mispredicts nearly every level and dominates the sampler's cost;
        // turning the ladder into boolean arithmetic keeps the pipeline
        // full.  Quadrants and thresholds are exactly the ladder's:
        //   [0, a) top-left · [a, a+b) col bit · [a+b, a+b+c) row bit ·
        //   [a+b+c, 1) both bits.
        let t_a = self.params.a;
        let t_ab = self.params.a + self.params.b;
        let t_abc = self.params.a + self.params.b + self.params.c;
        let mut row = 0u64;
        let mut col = 0u64;
        for _ in 0..self.params.scale {
            let sample = rng.next_f64();
            let ge_a = (sample >= t_a) as u64;
            let ge_ab = (sample >= t_ab) as u64;
            let ge_abc = (sample >= t_abc) as u64;
            row = (row << 1) | ge_ab;
            col = (col << 1) | ((ge_a ^ ge_ab) | ge_abc);
        }
        (row, col)
    }

    /// The noisy variant: quadrant probabilities are re-jittered and
    /// re-normalised at every level (Graph500's "noise" trick), so the
    /// thresholds cannot be hoisted out of the walk.
    fn sample_edge_noisy(&self, rng: &mut SampleRng) -> (u64, u64) {
        let mut row = 0u64;
        let mut col = 0u64;
        let (mut a, mut b, mut c, mut d) =
            (self.params.a, self.params.b, self.params.c, self.params.d);
        for _ in 0..self.params.scale {
            let jitter = |p: f64, r: &mut SampleRng| {
                p * (1.0 - self.params.noise + 2.0 * self.params.noise * r.next_f64())
            };
            let (na, nb, nc, nd) = (
                jitter(a, rng),
                jitter(b, rng),
                jitter(c, rng),
                jitter(d, rng),
            );
            let total = na + nb + nc + nd;
            a = na / total;
            b = nb / total;
            c = nc / total;
            d = nd / total;
            let sample = rng.next_f64();
            let ge_a = (sample >= a) as u64;
            let ge_ab = (sample >= a + b) as u64;
            let ge_abc = (sample >= a + b + c) as u64;
            row = (row << 1) | ge_ab;
            col = (col << 1) | ((ge_a ^ ge_ab) | ge_abc);
        }
        let _ = d;
        (row, col)
    }

    /// Sample edge `index` of the requested stream — deterministic for a
    /// given `(seed, index)` and independent of every other sample, so any
    /// worker can produce any contiguous slice of the stream without
    /// coordination.  This is the primitive behind `RmatSource`'s chunked
    /// per-worker streaming; the per-sample state is one SplitMix64 word,
    /// so there is no setup to amortise and chunked sampling runs at the
    /// speed of the recursion walk itself.
    pub fn edge_at(&self, index: u64) -> (u64, u64) {
        let mut rng = SampleRng::new(sample_seed(self.seed, index));
        self.sample_edge(&mut rng)
    }

    /// Worker `worker`'s contiguous range of global sample indices when the
    /// requested samples are split evenly across `workers` workers — the
    /// single owner of the balanced-range arithmetic.  Ranges are contiguous
    /// and ascending in worker order and cover `[0, requested_edges())`
    /// exactly.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn sample_range(&self, worker: usize, workers: usize) -> std::ops::Range<u64> {
        assert!(workers > 0, "sample_range needs at least one worker");
        let total = self.params.requested_edges();
        let workers = workers as u64;
        let worker = worker as u64;
        let per_worker = total / workers;
        let remainder = total % workers;
        let start = worker * per_worker + worker.min(remainder);
        let length = per_worker + u64::from(worker < remainder);
        start..start + length
    }

    /// A reusable batched sampler drawing [`SAMPLE_BATCH`]-wide lanes of
    /// this generator's stream — `fill(start, out)` produces exactly
    /// `edge_at(start)`, `edge_at(start + 1)`, … — with the per-level
    /// quadrant thresholds precomputed once (in integer sample space) so
    /// the hot loop is pure vectorisable integer arithmetic.  Noisy
    /// parameters fall back to the scalar walk inside `fill`, so callers
    /// never need to special-case.
    pub fn batch_sampler(&self) -> RmatBatchSampler<'_> {
        let levels = if self.params.noise > 0.0 {
            // Per-level jitter re-randomises the thresholds; the scalar
            // path owns that walk.
            Vec::new()
        } else {
            let t_a = integer_threshold(self.params.a);
            let t_ab = integer_threshold(self.params.a + self.params.b);
            let t_abc = integer_threshold(self.params.a + self.params.b + self.params.c);
            // One entry per recursion level.  Noise-free thresholds are
            // level-invariant today; the table keeps the kernel's loads
            // loop-constant and leaves room for level-varying schedules.
            (0..self.params.scale).map(|_| [t_a, t_ab, t_abc]).collect()
        };
        RmatBatchSampler {
            generator: self,
            levels,
        }
    }
}

/// The batched quadrant walk over one generator's sample stream.
///
/// Built by [`RmatGenerator::batch_sampler`]; holds the precomputed
/// per-level integer thresholds so repeated [`RmatBatchSampler::fill`]
/// calls pay no setup.  The batched kernel draws the *same* SplitMix64
/// stream per `(seed, index)` as [`RmatGenerator::edge_at`] — the lanes
/// are just independent indices advanced level by level instead of index
/// by index — so the output is bit-identical to the scalar sampler.
#[derive(Debug, Clone)]
pub struct RmatBatchSampler<'a> {
    generator: &'a RmatGenerator,
    /// `[t_a, t_ab, t_abc]` per recursion level, in the 53-bit integer
    /// sample space; empty when the parameters are noisy (scalar fallback).
    levels: Vec<[u64; 3]>,
}

impl RmatBatchSampler<'_> {
    /// Fill `out[i] = edge_at(start + i)` for every `i`.
    ///
    /// Full [`SAMPLE_BATCH`]-wide groups run the vectorisable lane kernel;
    /// the remainder (and the noisy-parameter case, whose thresholds cannot
    /// be precomputed) falls back to the scalar walk.
    pub fn fill(&self, start: u64, out: &mut [(u64, u64)]) {
        if self.levels.is_empty() {
            for (offset, slot) in out.iter_mut().enumerate() {
                *slot = self.generator.edge_at(start + offset as u64);
            }
            return;
        }
        let mut chunks = out.chunks_exact_mut(SAMPLE_BATCH);
        let mut index = start;
        for chunk in &mut chunks {
            self.fill_lanes(index, chunk);
            index += SAMPLE_BATCH as u64;
        }
        for slot in chunks.into_remainder() {
            *slot = self.generator.edge_at(index);
            index += 1;
        }
    }

    /// The lane kernel: `out.len() == SAMPLE_BATCH`, noise-free thresholds.
    /// All state lives in fixed-size lane arrays and every level is pure
    /// integer arithmetic with no cross-lane dependency, so the compiler
    /// unrolls (and where the target allows, vectorises) the inner loops.
    fn fill_lanes(&self, start: u64, out: &mut [(u64, u64)]) {
        debug_assert_eq!(out.len(), SAMPLE_BATCH);
        let seed = self.generator.seed;
        let mut state = [0u64; SAMPLE_BATCH];
        for (lane, slot) in state.iter_mut().enumerate() {
            *slot = sample_seed(seed, start + lane as u64);
        }
        let mut row = [0u64; SAMPLE_BATCH];
        let mut col = [0u64; SAMPLE_BATCH];
        for &[t_a, t_ab, t_abc] in &self.levels {
            for lane in 0..SAMPLE_BATCH {
                state[lane] = state[lane].wrapping_add(SPLITMIX_GAMMA);
                // The scalar walk's next_f64() ≥ t compares, moved into the
                // integer sample space (see integer_threshold's exactness
                // argument); the quadrant bit arithmetic is unchanged.
                let draw = splitmix(state[lane]) >> 11;
                let ge_a = (draw >= t_a) as u64;
                let ge_ab = (draw >= t_ab) as u64;
                let ge_abc = (draw >= t_abc) as u64;
                row[lane] = (row[lane] << 1) | ge_ab;
                col[lane] = (col[lane] << 1) | ((ge_a ^ ge_ab) | ge_abc);
            }
        }
        for lane in 0..SAMPLE_BATCH {
            out[lane] = (row[lane], col[lane]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_edges(gen: &RmatGenerator) -> Vec<(u64, u64)> {
        (0..gen.params().requested_edges())
            .map(|index| gen.edge_at(index))
            .collect()
    }

    #[test]
    fn graph500_defaults_are_valid() {
        let p = RmatParams::graph500(10);
        assert!(p.is_valid());
        assert_eq!(p.vertices(), 1024);
        assert_eq!(p.requested_edges(), 16 * 1024);
    }

    #[test]
    fn invalid_parameters_rejected_with_typed_error() {
        let mut p = RmatParams::graph500(10);
        p.a = 0.9; // probabilities no longer sum to 1
        assert!(!p.is_valid());
        assert!(matches!(
            RmatGenerator::new(p, 1),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut p = RmatParams::graph500(1);
        p.scale = 0;
        assert!(!p.is_valid());
        let mut p = RmatParams::graph500(5);
        p.noise = 1.5;
        assert!(!p.is_valid());
    }

    #[test]
    fn edge_indices_stay_in_range() {
        let gen = RmatGenerator::new(RmatParams::graph500(8), 42).unwrap();
        let edges = all_edges(&gen);
        assert_eq!(edges.len(), 16 * 256);
        let n = gen.params().vertices();
        assert!(edges.iter().all(|&(u, v)| u < n && v < n));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = RmatGenerator::new(RmatParams::graph500(7), 7).unwrap();
        assert_eq!(all_edges(&gen), all_edges(&gen));
        let other = RmatGenerator::new(RmatParams::graph500(7), 8).unwrap();
        assert_ne!(all_edges(&gen), all_edges(&other));
    }

    #[test]
    fn sample_ranges_tile_the_sample_space_for_every_split() {
        let gen = RmatGenerator::new(RmatParams::graph500(8), 3).unwrap();
        let total = gen.params().requested_edges();
        for workers in [1usize, 2, 3, 7, 64] {
            let mut next = 0;
            for worker in 0..workers {
                let range = gen.sample_range(worker, workers);
                assert_eq!(range.start, next, "{workers} workers: gap before {worker}");
                assert!(range.end - range.start <= total / workers as u64 + 1);
                next = range.end;
            }
            assert_eq!(next, total, "{workers} workers must cover every sample");
        }
    }

    #[test]
    fn batch_sampler_is_bit_identical_to_edge_at() {
        // Every start offset and length shape: batch-aligned, a partial
        // tail, shorter than one batch, and empty.
        let gen = RmatGenerator::new(RmatParams::graph500(9), 23).unwrap();
        let sampler = gen.batch_sampler();
        for start in [0u64, 1, 5, 16, 1000] {
            for len in [0usize, 1, 15, 16, 17, 64, 100] {
                let mut out = vec![(0u64, 0u64); len];
                sampler.fill(start, &mut out);
                let expected: Vec<(u64, u64)> = (start..start + len as u64)
                    .map(|i| gen.edge_at(i))
                    .collect();
                assert_eq!(out, expected, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn batch_sampler_noisy_fallback_matches_scalar() {
        let mut p = RmatParams::graph500(8);
        p.noise = 0.1;
        let gen = RmatGenerator::new(p, 31).unwrap();
        let sampler = gen.batch_sampler();
        let mut out = vec![(0u64, 0u64); 50];
        sampler.fill(3, &mut out);
        let expected: Vec<(u64, u64)> = (3..53).map(|i| gen.edge_at(i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn integer_thresholds_agree_with_float_compares_at_boundaries() {
        // The exactness argument, checked mechanically: for thresholds
        // including exact dyadics and awkward sums, the integer compare
        // equals the f64 compare for draws straddling the boundary.
        for t in [
            0.0,
            0.05,
            0.19,
            0.57,
            0.57 + 0.19,
            0.57 + 0.19 + 0.19,
            0.5,
            1.0,
        ] {
            let ti = integer_threshold(t);
            for k in ti.saturating_sub(2)..=(ti + 2).min((1u64 << 53) - 1) {
                let sample = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(k >= ti, sample >= t, "t={t} k={k}");
            }
        }
    }

    #[test]
    fn sample_stream_golden_values_are_seed_stable() {
        // Exact (seed, index) → edge outputs pinned before the batched
        // sampler landed: any change to the seed derivation, the SplitMix64
        // stream, or the quadrant arithmetic breaks replay of previously
        // recorded manifests and must fail here.
        let gen = RmatGenerator::new(RmatParams::graph500(16), 42).unwrap();
        let golden = [
            (0u64, (2233u64, 34816u64)),
            (1, (16387, 18784)),
            (7, (930, 36480)),
            (12345, (32790, 8193)),
            (1_000_000, (1098, 16388)),
        ];
        for (index, expected) in golden {
            assert_eq!(gen.edge_at(index), expected, "index {index}");
        }
        let mut p = RmatParams::graph500(12);
        p.noise = 0.1;
        let noisy = RmatGenerator::new(p, 7).unwrap();
        let golden_noisy = [(0u64, (136u64, 2048u64)), (1, (130, 2)), (999, (2048, 264))];
        for (index, expected) in golden_noisy {
            assert_eq!(noisy.edge_at(index), expected, "noisy index {index}");
        }
    }

    #[test]
    fn skew_favours_low_vertex_ids() {
        // With a = 0.57 the low-numbered vertices receive far more edges than
        // the high-numbered ones — the hallmark of the R-MAT skew.
        let gen = RmatGenerator::new(RmatParams::graph500(10), 11).unwrap();
        let edges = all_edges(&gen);
        let n = gen.params().vertices();
        let low = edges.iter().filter(|&&(u, _)| u < n / 4).count();
        let high = edges.iter().filter(|&&(u, _)| u >= 3 * n / 4).count();
        assert!(
            low > 3 * high,
            "low quartile {low} should dominate high quartile {high}"
        );
    }

    #[test]
    fn noise_keeps_indices_in_range() {
        let mut p = RmatParams::graph500(8);
        p.noise = 0.1;
        let gen = RmatGenerator::new(p, 5).unwrap();
        let n = p.vertices();
        assert!(all_edges(&gen).iter().all(|&(u, v)| u < n && v < n));
    }
}
