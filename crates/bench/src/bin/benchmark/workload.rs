//! The six workloads, and one checked pass of the user-facing `Pipeline`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kron_core::{CoreError, GraphProperties, KroneckerDesign, SelfLoop};
use kron_gen::{
    shard_checksum, BlockFileSet, MetricsReport, Pipeline, ReplaySource, RunManifest, RunReport,
};
use kron_rmat::{RmatParams, RmatSource};

use crate::scratch::shard_bytes;

/// K373: 373 248 000 edges over 10 873 200 vertices — an 87 MB degree vector
/// per worker, far beyond L2.
const K373: &[u64] = &[4, 5, 9, 16, 25, 81];
/// K70: 69 984 000 edges over 2 558 400 vertices — 22% above the 2^21 cutoff
/// of the permutation table, so the permutation runs the Feistel network.
const K70: &[u64] = &[3, 4, 5, 9, 25, 81];
/// K14: 13 824 000 edges over 530 400 vertices.
const K14: &[u64] = &[3, 4, 5, 9, 16, 25];
/// The `--smoke` design: 8 640 edges over 1 200 vertices.
const SMOKE_STARS: &[u64] = &[3, 4, 5, 9];
/// R-MAT scales (2^scale vertices, 16 samples per vertex).
const RMAT_SCALE: u32 = 22;
const SMOKE_RMAT_SCALE: u32 = 10;
/// The replayed shard set is written once, at set-up, by this many workers.
const REPLAY_INPUT_WORKERS: usize = 4;

/// Where a workload's edges come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The exact Kronecker expansion of a product of stars.
    Stars(&'static [u64]),
    /// The Graph500 R-MAT sampler.
    Rmat,
}

/// What a workload does with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// `.count()`
    Count,
    /// `.permute_vertices(seed).count()`
    PermuteCount,
    /// `.write_compressed(dir)`
    ShardV4,
    /// `ReplaySource::from_directory(dir)` → `.count()` over a v4 shard set
    /// written at set-up.
    ReplayV4,
    /// `.write_tsv(dir)`
    ShardTsv,
}

impl Terminal {
    /// Extension of the shard files the terminal writes (or reads).
    pub fn shard_extension(self) -> Option<&'static str> {
        match self {
            Terminal::ShardV4 | Terminal::ReplayV4 => Some("kbkz"),
            Terminal::ShardTsv => Some("tsv"),
            Terminal::Count | Terminal::PermuteCount => None,
        }
    }

    /// Whether every pass writes a fresh shard directory.
    pub fn writes_shards(self) -> bool {
        matches!(self, Terminal::ShardV4 | Terminal::ShardTsv)
    }
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub terminal: Terminal,
    /// Why the workload exists: the layer it stresses and the one it
    /// bypasses.  `BENCHMARK.json` carries the same sentence.
    pub why: &'static str,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kron_count",
        input: Input::Stars(K373),
        terminal: Terminal::Count,
        why: "The paper's Fig. 3/4 path at 373M edges: expansion and degree counting do ~95% of the work; no permutation, no I/O.",
    },
    Workload {
        name: "kron_permute",
        input: Input::Stars(K70),
        terminal: Terminal::PermuteCount,
        why: "2.56M vertices, above the 2^21 table cutoff: the O(1)-memory Feistel network is ~70% of the pass here and 0% elsewhere.",
    },
    Workload {
        name: "kron_shard_v4",
        input: Input::Stars(K70),
        terminal: Terminal::ShardV4,
        why: "Write path: varint encode, FNV, write, rename, journal, manifest behind the double-buffered writer thread; the sink paces it.",
    },
    Workload {
        name: "replay_v4",
        input: Input::Stars(K70),
        terminal: Terminal::ReplayV4,
        why: "The v4 format read back: read, decode, verify, count; a codec change that helps writes and costs reads shows here.",
    },
    Workload {
        name: "rmat_count",
        input: Input::Rmat,
        terminal: Terminal::Count,
        why: "A sampling source through the same engine: the batched sampler dominates and its labels scatter over the degree vector.",
    },
    Workload {
        name: "kron_shard_tsv",
        input: Input::Stars(K14),
        terminal: Terminal::ShardTsv,
        why: "The paper's interchange format, the slowest terminal; small enough that create/rename/journal/manifest cost is visible.",
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// SplitMix64 finaliser: spreads `--seed` into independent stream seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker-layout-independent part of a run's measurement: what the
/// closed-form prediction says, and what a replay, a repeat, or a run at
/// another worker count must reproduce exactly.  (`MetricsReport::balance`
/// depends on the layout and is left out.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    pub vertices: u64,
    pub edges: u64,
    pub self_loops: u64,
    pub max_degree: u64,
    pub degree_histogram: BTreeMap<u64, u64>,
}

impl Signature {
    pub fn of(metrics: &MetricsReport) -> Self {
        Signature {
            vertices: metrics.vertices,
            edges: metrics.edges,
            self_loops: metrics.self_loops,
            max_degree: metrics.max_degree,
            degree_histogram: metrics.degree_histogram.clone(),
        }
    }

    /// The same sheet from a design's closed-form prediction — an oracle
    /// that never ran the engine.  `None` when a count exceeds `u64`.
    pub fn predicted(properties: &GraphProperties) -> Option<Self> {
        let mut degree_histogram = BTreeMap::new();
        for (degree, count) in properties.degree_distribution.iter() {
            degree_histogram.insert(degree.to_u64()?, count.to_u64()?);
        }
        Some(Signature {
            vertices: properties.vertices.to_u64()?,
            edges: properties.edges.to_u64()?,
            self_loops: properties.self_loops.to_u64()?,
            max_degree: properties.max_degree().to_u64()?,
            degree_histogram,
        })
    }
}

/// Everything a pass needs that set-up builds once: the inputs of one
/// workload at one seed.
#[derive(Debug)]
pub struct Prepared {
    pub workload: &'static Workload,
    /// The design of a Kronecker workload.
    pub design: Option<KroneckerDesign>,
    pub rmat: RmatParams,
    pub rmat_seed: u64,
    pub permutation_seed: u64,
    pub vertices: u64,
    /// Edges every pass must deliver.
    pub edges: u64,
    /// `replay_v4`: the shard directory written at set-up.
    pub replay_input: Option<PathBuf>,
    /// What the design predicts every pass measures — also a replay of its
    /// shards; `None` for R-MAT, whose properties are measured-only.
    pub predicted: Option<Signature>,
}

/// Build a workload's inputs: the design and its closed-form prediction,
/// the seeds, and — for `replay_v4` — the shard set under `directory`.
pub fn prepare(
    workload: &'static Workload,
    seed: u64,
    smoke: bool,
    directory: &Path,
) -> Result<Prepared, String> {
    let rmat = RmatParams::graph500(if smoke { SMOKE_RMAT_SCALE } else { RMAT_SCALE });
    let mut prepared = Prepared {
        workload,
        design: None,
        rmat,
        rmat_seed: mix(seed),
        permutation_seed: mix(seed ^ 0x5045_524D), // "PERM"
        vertices: rmat.vertices(),
        edges: rmat.requested_edges(),
        replay_input: None,
        predicted: None,
    };
    if let Input::Stars(stars) = workload.input {
        let stars = if smoke { SMOKE_STARS } else { stars };
        let design = KroneckerDesign::from_star_points(stars, SelfLoop::None).map_err(describe)?;
        let predicted = design.properties();
        let predicted =
            Signature::predicted(&predicted).ok_or("design too large to count in 64 bits")?;
        prepared.vertices = predicted.vertices;
        prepared.edges = predicted.edges;
        prepared.predicted = Some(predicted);
        if workload.terminal == Terminal::ReplayV4 {
            let input = directory.join("replay_input");
            if smoke {
                write_replay_input(&design, &input)?;
            } else {
                write_replay_input_in_child(&input)?;
            }
            prepared.replay_input = Some(input);
        }
        prepared.design = Some(design);
    }
    Ok(prepared)
}

fn describe(error: CoreError) -> String {
    error.to_string()
}

/// Write the shard set `replay_v4` reads back: `design` as v4 shards, one
/// per worker of [`REPLAY_INPUT_WORKERS`].
fn write_replay_input(design: &KroneckerDesign, directory: &Path) -> Result<(), String> {
    let report = Pipeline::for_design(design)
        .workers(REPLAY_INPUT_WORKERS)
        .write_compressed(directory)
        .map_err(describe)?;
    if report.is_valid() {
        Ok(())
    } else {
        Err("the replay input did not validate when written".into())
    }
}

/// The flag under which this binary only writes the full-size replay input.
pub const WRITE_REPLAY_INPUT_FLAG: &str = "--write-replay-input";

/// What a process started with [`WRITE_REPLAY_INPUT_FLAG`] does.
pub fn write_full_replay_input(directory: &Path) -> Result<(), String> {
    let design = KroneckerDesign::from_star_points(K70, SelfLoop::None).map_err(describe)?;
    write_replay_input(&design, directory)
}

/// Write the full-size replay input in a process of its own, so that the
/// replaying process's `peak_rss_mb` is the replay's: writing with four
/// workers peaks higher than replaying, and by an amount that depends on
/// how the writer's threads happened to interleave.  (The toy input of a
/// smoke run is written in-process: it weighs nothing, and a unit test's
/// executable is not this binary.)
fn write_replay_input_in_child(directory: &Path) -> Result<(), String> {
    let program = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(program)
        .arg(WRITE_REPLAY_INPUT_FLAG)
        .arg(directory)
        .status()
        .map_err(|e| format!("cannot start the replay-input writer: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the replay-input writer ended with {status}"))
    }
}

/// What one pass returned, reduced to what the checks and metrics read.
#[derive(Debug)]
pub struct PassReport {
    /// Wall-clock seconds of the whole user run: builder → terminal →
    /// report.
    pub seconds: f64,
    pub workers: usize,
    pub edges: u64,
    /// measured == predicted, for everything the source predicts.
    pub valid: bool,
    pub signature: Signature,
    pub manifest: RunManifest,
    pub files: Option<BlockFileSet>,
    /// Shard-file bytes written (or, for a replay, read); 0 for a counting
    /// terminal on a generated source.
    pub shard_bytes: u64,
}

fn timed<O>(run: impl FnOnce() -> Result<RunReport<O>, CoreError>) -> Result<PassReport, String> {
    let started = Instant::now();
    let report = run();
    let seconds = started.elapsed().as_secs_f64();
    let report = report.map_err(describe)?;
    Ok(PassReport {
        seconds,
        workers: report.manifest.workers,
        edges: report.edge_count(),
        valid: report.is_valid(),
        signature: Signature::of(&report.metrics),
        manifest: report.manifest,
        files: report.files,
        shard_bytes: 0,
    })
}

/// One whole user run of the workload at `workers` workers: the pipeline is
/// built from scratch, everything but the worker count is left at its
/// default, and a file terminal writes into `directory` (which must not
/// exist yet).
pub fn run_pass(
    prepared: &Prepared,
    workers: usize,
    directory: &Path,
) -> Result<PassReport, String> {
    let terminal = prepared.workload.terminal;
    let mut pass = match (prepared.design.as_ref(), terminal) {
        (None, _) => timed(|| {
            Pipeline::for_source(RmatSource::new(prepared.rmat, prepared.rmat_seed)?)
                .workers(workers)
                .count()
        }),
        (Some(design), Terminal::Count) => {
            timed(|| Pipeline::for_design(design).workers(workers).count())
        }
        (Some(design), Terminal::PermuteCount) => timed(|| {
            Pipeline::for_design(design)
                .workers(workers)
                .permute_vertices(prepared.permutation_seed)
                .count()
        }),
        (Some(design), Terminal::ShardV4) => timed(|| {
            Pipeline::for_design(design)
                .workers(workers)
                .write_compressed(directory)
        }),
        (Some(design), Terminal::ShardTsv) => timed(|| {
            Pipeline::for_design(design)
                .workers(workers)
                .write_tsv(directory)
        }),
        (Some(_), Terminal::ReplayV4) => {
            let input = prepared
                .replay_input
                .as_deref()
                .ok_or("replay_v4 was not prepared with a shard set")?;
            timed(|| {
                Pipeline::for_source(ReplaySource::from_directory(input)?)
                    .workers(workers)
                    .count()
            })
        }
    }?;
    if let Some(extension) = terminal.shard_extension() {
        let read_or_written = prepared.replay_input.as_deref().unwrap_or(directory);
        pass.shard_bytes = shard_bytes(read_or_written, extension).map_err(|e| e.to_string())?;
    }
    Ok(pass)
}

/// What earlier passes of this process established, which later passes must
/// reproduce.
#[derive(Debug, Default)]
pub struct Expectations {
    signature: Option<Signature>,
    /// Per worker count: the shard checksums and shard bytes of the first
    /// pass at that count.
    shards: BTreeMap<usize, (Vec<u64>, u64)>,
}

impl Expectations {
    /// Start from what set-up knows: every pass over a design — a replay of
    /// its shards too — must measure what the design predicts.  R-MAT has
    /// no prediction; its first pass sets the reference.
    pub fn new(prepared: &Prepared) -> Self {
        Expectations {
            signature: prepared.predicted.clone(),
            shards: BTreeMap::new(),
        }
    }
}

/// The correctness gate of one pass.  `Err` names the first check that
/// failed.
pub fn check_pass(
    prepared: &Prepared,
    pass: &PassReport,
    expect: &mut Expectations,
) -> Result<(), String> {
    if !pass.valid {
        return Err("measured properties differ from the predicted ones".into());
    }
    if pass.edges != prepared.edges {
        return Err(format!(
            "delivered {} edges, expected {}",
            pass.edges, prepared.edges
        ));
    }
    match &expect.signature {
        None => expect.signature = Some(pass.signature.clone()),
        Some(signature) if *signature != pass.signature => {
            return Err("degree histogram, counts or max degree differ from the reference".into())
        }
        Some(_) => {}
    }
    if !prepared.workload.terminal.writes_shards() {
        return Ok(());
    }
    let checksums: Vec<u64> = pass.manifest.shards.iter().map(|s| s.checksum).collect();
    if checksums.len() != pass.workers {
        return Err(format!(
            "manifest records {} shard checksum(s) for {} worker(s)",
            checksums.len(),
            pass.workers
        ));
    }
    match expect.shards.get(&pass.workers) {
        Some((first_checksums, first_bytes)) => {
            if *first_checksums != checksums {
                return Err("shard checksums differ from the first pass".into());
            }
            if *first_bytes != pass.shard_bytes {
                return Err("shard bytes differ from the first pass".into());
            }
        }
        None => {
            // The first pass at this worker count is also read back from
            // disk: the bytes there must hash to what the manifest says.
            let files = pass
                .files
                .as_ref()
                .ok_or("a file run returned no file set")?;
            for (file, &recorded) in files.files.iter().zip(&checksums) {
                let on_disk = shard_checksum(file, files.format).map_err(|e| e.to_string())?;
                if on_disk != recorded {
                    return Err(format!(
                        "{} hashes to {on_disk:#018x} on disk, manifest says {recorded:#018x}",
                        file.display()
                    ));
                }
            }
            expect
                .shards
                .insert(pass.workers, (checksums, pass.shard_bytes));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn test_scratch() -> ScratchDir {
        ScratchDir::create(&std::env::temp_dir().join("kron-benchmark-tests")).unwrap()
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for workload in WORKLOADS {
            assert_eq!(find(workload.name).unwrap().name, workload.name);
            assert!(workload.why.len() <= 200, "{} why too long", workload.name);
            assert!(!workload.why.contains('\n'));
        }
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(find("no_such_workload").is_none());
    }

    #[test]
    fn seeds_derive_from_the_seed_argument() {
        let scratch = test_scratch();
        let rmat = find("rmat_count").unwrap();
        let a = prepare(rmat, 1, true, scratch.path()).unwrap();
        let b = prepare(rmat, 1, true, scratch.path()).unwrap();
        let c = prepare(rmat, 2, true, scratch.path()).unwrap();
        assert_eq!(
            (a.rmat_seed, a.permutation_seed),
            (b.rmat_seed, b.permutation_seed)
        );
        assert_ne!(a.rmat_seed, c.rmat_seed);
        assert_ne!(a.permutation_seed, c.permutation_seed);
        assert_ne!(a.rmat_seed, a.permutation_seed);
    }

    #[test]
    fn the_gate_catches_a_wrong_count_a_wrong_histogram_and_a_wrong_checksum() {
        let scratch = test_scratch();
        let workload = find("kron_shard_v4").unwrap();
        let prepared = prepare(workload, 7, true, scratch.path()).unwrap();
        let mut expect = Expectations::new(&prepared);
        let first = run_pass(&prepared, 1, &scratch.path().join("first")).unwrap();
        assert!(first.shard_bytes > 0);
        check_pass(&prepared, &first, &mut expect).unwrap();

        let mut second = run_pass(&prepared, 1, &scratch.path().join("second")).unwrap();
        check_pass(&prepared, &second, &mut expect).unwrap();

        second.manifest.shards[0].checksum ^= 1;
        let error = check_pass(&prepared, &second, &mut expect).unwrap_err();
        assert!(error.contains("checksums"), "{error}");
        second.manifest.shards[0].checksum ^= 1;

        second.signature.max_degree += 1;
        let error = check_pass(&prepared, &second, &mut expect).unwrap_err();
        assert!(error.contains("histogram"), "{error}");
        second.signature.max_degree -= 1;

        second.edges -= 1;
        let error = check_pass(&prepared, &second, &mut expect).unwrap_err();
        assert!(error.contains("edges"), "{error}");
        second.edges += 1;

        second.valid = false;
        assert!(check_pass(&prepared, &second, &mut expect).is_err());
    }

    #[test]
    fn a_replay_is_held_to_the_designs_prediction() {
        let scratch = test_scratch();
        let workload = find("replay_v4").unwrap();
        let mut prepared = prepare(workload, 7, true, scratch.path()).unwrap();
        let pass = run_pass(&prepared, 2, scratch.path()).unwrap();
        assert!(pass.shard_bytes > 0, "a replay reports the bytes it read");
        check_pass(&prepared, &pass, &mut Expectations::new(&prepared)).unwrap();

        assert_eq!(prepared.predicted.as_ref(), Some(&pass.signature));
        prepared.predicted.as_mut().unwrap().self_loops += 1;
        assert!(check_pass(&prepared, &pass, &mut Expectations::new(&prepared)).is_err());
    }
}
