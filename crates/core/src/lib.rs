//! # kron-core
//!
//! Design and exact analysis of extreme-scale power-law Kronecker graphs —
//! a from-scratch Rust reproduction of Kepner et al., *Design, Generation,
//! and Validation of Extreme Scale Power-Law Graphs* (2018).
//!
//! The crate answers the paper's central question: **what are the exact
//! properties of a Kronecker-product graph, before it is generated?**
//!
//! * [`StarGraph`] — the power-law building block (`n(1) = m̂`, `n(m̂) = 1`),
//!   optionally carrying a self-loop on its centre or on one leaf to control
//!   the triangle count of the product.
//! * [`Constituent`] — any small adjacency matrix plus its exact properties
//!   (closed-form for stars, measured for custom matrices).
//! * [`KroneckerDesign`] — an ordered list of constituents with exact
//!   vertex/edge/degree-distribution/triangle computation, `(B, C)` splitting
//!   for the parallel generator, and bounded materialisation.
//! * [`DegreeDistribution`] — exact `d ↦ n(d)` maps with Kronecker products
//!   and power-law fits.
//! * [`DesignSearch`] — target-driven inversion: find star sets that hit a
//!   requested edge/vertex scale exactly-power-law.
//! * [`validate`] — measure a realised graph and compare field-by-field with
//!   the prediction (the paper's Figure 4 workflow).
//!
//! ## Quickstart
//!
//! ```
//! use kron_core::{KroneckerDesign, SelfLoop};
//! use kron_bignum::BigUint;
//!
//! // The paper's Figure 4 trillion-edge design: stars m̂ = {3,4,5,9,16,25,81,256}
//! // with a self-loop on every centre vertex.
//! let design = KroneckerDesign::from_star_points(
//!     &[3, 4, 5, 9, 16, 25, 81, 256],
//!     SelfLoop::Centre,
//! ).unwrap();
//!
//! assert_eq!(design.vertices().to_string(), "11177649600");
//! assert_eq!(design.edges().to_string(), "1853002140758");
//! assert_eq!(design.triangles().unwrap().to_string(), "6777007252427");
//! assert!(design.vertices() > BigUint::from(10u64 * 1000 * 1000 * 1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constituent;
pub mod degree;
pub mod design;
pub mod designer;
pub mod error;
pub mod powerlaw;
pub mod properties;
pub mod star;
pub mod validate;

pub use constituent::{Constituent, ConstituentKind};
pub use degree::DegreeDistribution;
pub use design::KroneckerDesign;
pub use designer::{DesignCandidate, DesignSearch, DesignTargets, DEFAULT_POOL};
pub use error::CoreError;
pub use powerlaw::{star_products_unique, PowerLaw};
pub use properties::GraphProperties;
pub use star::{SelfLoop, StarGraph};
pub use validate::{
    compare_properties, measure_properties, validate_design, FieldCheck, ValidationReport,
};
