//! Choosing the `B ⊗ C` split of a design.
//!
//! The paper requires both factors to fit in one processor's memory; beyond
//! that the split determines the available parallelism (`nnz(B)` triples are
//! what gets divided among workers) and the per-worker work
//! (`nnz(B)/N_p × nnz(C)` edges).  [`choose_split`] picks the split index
//! that keeps `C` under a memory budget while making `nnz(B)` at least the
//! requested worker count, preferring the most balanced option.

use serde::{Deserialize, Serialize};

use kron_bignum::BigUint;
use kron_core::{CoreError, KroneckerDesign};

/// A chosen split of a design into `A = B ⊗ C`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Number of leading constituents forming `B`.
    pub split_index: usize,
    /// `nnz(B)` — the number of triples divided among workers.
    pub b_nnz: BigUint,
    /// `nnz(C)` — the number of edges each `B` triple expands into.
    pub c_nnz: BigUint,
    /// Number of vertices of `C` (each worker holds `C` densely as triples).
    pub c_vertices: BigUint,
}

/// [`choose_split`] with the single-worker fallback every generation entry
/// point shares: when no split can give `workers` workers at least one `B`
/// triple each, fall back to the best split for a single worker and return
/// the warning recording the lost `nnz(B) ≥ workers` balance guarantee
/// alongside it.
pub fn choose_split_with_fallback(
    design: &KroneckerDesign,
    max_c_edges: u64,
    workers: usize,
) -> Result<(SplitPlan, Option<String>), CoreError> {
    match choose_split(design, max_c_edges, workers as u64) {
        Ok(plan) => Ok((plan, None)),
        Err(_) => {
            let plan = choose_split(design, max_c_edges, 1)?;
            let warning = format!(
                "no split gives {workers} workers one B triple each; fell back to \
                 split index {} with nnz(B) = {}, so {} worker(s) are idle \
                 and the per-worker balance guarantee does not hold",
                plan.split_index,
                plan.b_nnz,
                workers.saturating_sub(plan.b_nnz.to_u64().unwrap_or(u64::MAX) as usize),
            );
            Ok((plan, Some(warning)))
        }
    }
}

/// Choose a split of `design` into `B ⊗ C` such that:
///
/// * `C` has at most `max_c_edges` stored entries (the per-worker memory
///   budget for the replicated factor), and
/// * `nnz(B)` is at least `min_b_nnz` (usually the worker count), so every
///   worker receives at least one triple.
///
/// Among the feasible splits the one with the largest `C` (and therefore the
/// smallest per-worker triple list) is returned, mirroring the paper's choice
/// of a small-but-dense `C`.
pub fn choose_split(
    design: &KroneckerDesign,
    max_c_edges: u64,
    min_b_nnz: u64,
) -> Result<SplitPlan, CoreError> {
    let n = design.len();
    if n < 2 {
        return Err(CoreError::DesignNotFound {
            message: "need at least two constituents to split into B ⊗ C".into(),
        });
    }
    let max_c = BigUint::from(max_c_edges);
    let min_b = BigUint::from(min_b_nnz);
    let mut best: Option<SplitPlan> = None;
    for split_index in 1..n {
        let (b, c) = design.split(split_index)?;
        let b_nnz = b.nnz_with_loops();
        let c_nnz = c.nnz_with_loops();
        if c_nnz > max_c || b_nnz < min_b {
            continue;
        }
        let plan = SplitPlan {
            split_index,
            b_nnz,
            c_nnz,
            c_vertices: c.vertices(),
        };
        let better = match &best {
            None => true,
            Some(existing) => plan.c_nnz > existing.c_nnz,
        };
        if better {
            best = Some(plan);
        }
    }
    best.ok_or_else(|| CoreError::DesignNotFound {
        message: format!(
            "no split keeps C within {max_c_edges} edges while giving B at least {min_b_nnz} triples"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::SelfLoop;

    fn paper_design() -> KroneckerDesign {
        KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16, 25, 81, 256], SelfLoop::None).unwrap()
    }

    #[test]
    fn reproduces_paper_b_c_split() {
        // The paper uses B = m̂{3,4,5,9,16,25} (13,824,000 edges) and
        // C = m̂{81,256} (82,944 edges): split index 6.
        let plan = choose_split(&paper_design(), 100_000, 1_000).unwrap();
        assert_eq!(plan.split_index, 6);
        assert_eq!(plan.b_nnz, BigUint::from(13_824_000u64));
        assert_eq!(plan.c_nnz, BigUint::from(82_944u64));
        assert_eq!(plan.c_vertices, BigUint::from(21_074u64));
    }

    #[test]
    fn prefers_largest_feasible_c() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::None).unwrap();
        // Budget large enough for C = {5, 9} (nnz 10*18=180) but not {4,5,9}.
        let plan = choose_split(&design, 200, 4).unwrap();
        assert_eq!(plan.split_index, 2);
        assert_eq!(plan.c_nnz, BigUint::from(180u64));
    }

    #[test]
    fn respects_min_b_nnz() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::None).unwrap();
        // Requiring B to have at least 400 triples forces a later split.
        let plan = choose_split(&design, 100_000, 400).unwrap();
        assert!(plan.b_nnz >= BigUint::from(400u64));
        assert!(plan.split_index >= 3);
    }

    #[test]
    fn errors_when_no_split_is_feasible() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        assert!(choose_split(&design, 1, 1).is_err());
        let single = KroneckerDesign::from_star_points(&[3], SelfLoop::None).unwrap();
        assert!(choose_split(&single, 100, 1).is_err());
    }
}
