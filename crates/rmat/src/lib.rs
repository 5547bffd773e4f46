//! # kron-rmat
//!
//! A from-scratch R-MAT / stochastic Kronecker baseline generator.
//!
//! The paper positions its exact Kronecker designs against the standard
//! Graph500-style workflow: pick R-MAT parameters, *sample* a random graph,
//! measure what came out, and iterate until the measured properties are close
//! enough to the target.  This crate implements that baseline so the
//! comparison experiments can be reproduced:
//!
//! * [`RmatGenerator`] — recursive quadrant sampling with the Graph500
//!   parameters as defaults, optional noise, deterministic seeding, and an
//!   *indexed* sampler ([`RmatGenerator::edge_at`]) whose output is
//!   identical for every work split.
//! * [`RmatSource`] — the generator as a first-class
//!   [`kron_gen::EdgeSource`], so R-MAT streams through the same
//!   `Pipeline` terminals, histogram validation, and run manifests as the
//!   exact designs, with bounded memory.  The predictable fields (vertex
//!   and sample counts) are validated; everything else is measured-only —
//!   the paper's point, made executable.
//! * [`measure`] — degree-distribution and structural measurements of the
//!   sampled edge lists (duplicate edges, self-loops, empty vertices — the
//!   artefacts the paper's generator avoids by construction).
//! * [`design_loop`] — the trial-and-error design loop: repeatedly generate
//!   and measure until the edge-count / max-degree targets are met, counting
//!   how much work that takes compared with the exact designer.
//!
//! The table-based vertex relabelling and the whole-list sampling wrappers
//! were removed in PR 12; relabel with `Pipeline::permute_vertices` (the
//! O(1)-memory [`kron_gen::FeistelPermutation`]) and sample through
//! [`RmatSource`] or [`RmatGenerator::edge_at`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design_loop;
pub mod measure;
pub mod rmat;
pub mod source;
pub mod stochastic;

pub use design_loop::{DesignLoopReport, TrialAndErrorDesigner, TrialTargets};
pub use measure::{measure_edge_list, EdgeListStats};
pub use rmat::{RmatBatchSampler, RmatGenerator, RmatParams, SAMPLE_BATCH};
pub use source::{RmatRun, RmatSource};
pub use stochastic::{Initiator, StochasticKronecker};
