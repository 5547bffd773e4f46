//! # kron-bignum
//!
//! Arbitrary-precision arithmetic used by the extreme-scale Kronecker graph
//! designer ([`kron-core`](https://docs.rs/kron-core)).
//!
//! The paper this workspace reproduces (Kepner et al., *Design, Generation,
//! and Validation of Extreme Scale Power-Law Graphs*, 2018) analyses graphs
//! with up to 10^30 edges.  Vertex, edge, degree, and triangle counts at that
//! scale do not fit in `u64`, and some (products of degree counts) do not fit
//! in `u128` either, so every exact property computation in the workspace is
//! done with [`BigUint`], an arbitrary-precision unsigned integer stored as
//! 64-bit little-endian limbs.  Every count the designer predicts is a whole,
//! non-negative number, so every count is a [`BigUint`] and the crate has no
//! signed type: the triangle corrections divide by six with
//! [`BigUint::div_rem_u64`] and check the remainder, and power-law slope fits
//! are `f64`.
//!
//! It exports [`BigUint`] (with its [`ParseBigUintError`]), the exact
//! [`product_of`] that turns constituent counts into design counts, and two
//! formatters for reports: [`grouped`] and [`scientific`].  Division is by a
//! `u64` only, which is all the triangle correction needs.
//!
//! The crate is deliberately self-contained (no external bignum dependency)
//! so the workspace builds offline and the arithmetic core can be audited in
//! one place.
//!
//! ## Example
//!
//! ```
//! use kron_bignum::BigUint;
//!
//! // Number of edges in the paper's Figure 7 decetta-scale design.
//! let e: BigUint = "2705963586782877716483871216764".parse().unwrap();
//! assert_eq!(e.to_string(), "2705963586782877716483871216764");
//! assert!(e > BigUint::from(u64::MAX), "far beyond 64-bit counters");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
mod format;

pub use biguint::{BigUint, ParseBigUintError};
pub use format::{grouped, scientific};

/// Multiply an iterator of values convertible to [`BigUint`] into a single
/// exact product. Returns one for an empty iterator (the empty product).
///
/// ```
/// use kron_bignum::{product_of, BigUint};
/// let p = product_of([7u64, 9, 11, 19, 33, 51]);
/// assert_eq!(p, BigUint::from(22_160_061u64));
/// ```
pub fn product_of<I, T>(items: I) -> BigUint
where
    I: IntoIterator<Item = T>,
    T: Into<BigUint>,
{
    let mut acc = BigUint::one();
    for item in items {
        acc *= item.into();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_of_empty_is_one() {
        assert_eq!(product_of(Vec::<u64>::new()), BigUint::one());
    }

    #[test]
    fn product_matches_paper_figure4_b_edges() {
        // Constituent star edge counts for B in Figure 4 (centre self-loops):
        // 2*m̂+1 for m̂ = {3,4,5,9,16,25}.
        let p = product_of([7u64, 9, 11, 19, 33, 51]);
        assert_eq!(p, BigUint::from(22_160_061u64));
    }
}
