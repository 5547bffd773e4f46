//! # kron-sparse
//!
//! A GraphBLAS-flavoured sparse linear algebra substrate built from scratch
//! for the extreme-scale Kronecker graph workspace.
//!
//! The paper this workspace reproduces (Kepner et al. 2018) phrases every
//! graph operation in the language of sparse matrices over a semiring:
//! adjacency matrices, Kronecker products, element-wise products, sparse
//! matrix-matrix multiplication, and reductions.  This crate provides exactly
//! that subset:
//!
//! * [`Semiring`] — the algebraic structure (⊕, ⊗, 0, 1) all kernels are
//!   generic over, and [`PlusTimes`], the arithmetic instance under which
//!   the paper's properties are exact and the only one the workspace uses.
//! * [`CooMatrix`] — triple (row, col, value) storage with `u64` indices,
//!   used for construction, Kronecker products, and distributed blocks.
//! * [`CsrMatrix`] / [`CscMatrix`] — compressed row/column storage for
//!   kernels that need fast row or column access (SpGEMM, BFS, and the
//!   factors from which `kron-gen` computes the paper's CSC-ordered
//!   processor slices of `B` without storing `B`).
//! * [`kron`] — materialised Kronecker products: how small designs are
//!   realised, and the streaming generator's test oracle.
//! * [`ops`] — element-wise multiply (graph intersection), SpGEMM, and the
//!   `1ᵀM1` entry sum.
//! * [`reduce`] — row/column degree vectors, nnz reductions, degree
//!   histograms.
//! * [`triangles`] — triangle counting via `1ᵀ((A·A) ⊗ A)1 / 6` and an
//!   ordered merge variant.
//! * [`select`] — diagonal manipulation (the paper's self-loop removal) and
//!   structural predicates.
//! * [`mod@bfs`] — breadth-first search and connected components.
//!
//! Everything is exercised heavily by the higher-level crates; this crate is
//! deliberately free of graph semantics so it can be reused as a small
//! stand-alone sparse library.
//!
//! # The 64-bit contract
//!
//! Indices and dimensions are `u64` because the graphs are: the paper's
//! Fig. 4 design has 11 177 649 600 vertices, more than 2³².  Per-vertex
//! vectors (degree counts, bitmaps) are indexed by those labels, so the
//! crate only builds where `usize` is 64 bits wide, and there every
//! `u64 as usize` in it is lossless.  A label outside a vector's declared
//! dimension is an ordinary out-of-bounds index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_pointer_width = "64"))]
compile_error!("kron-sparse indexes per-vertex vectors by u64 labels and needs a 64-bit target");

pub mod bfs;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod error;
pub mod kron;
pub mod ops;
pub mod reduce;
pub mod select;
pub mod semiring;
pub mod triangles;

pub use bfs::{bfs, connected_components, BfsTree};
pub use coo::{CooMatrix, Triple};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use kron::{kron_coo, kron_dims};
pub use reduce::{DegreeAccumulator, SharedDegreeAccumulator};
pub use semiring::{PlusTimes, Semiring};
