//! Exact degree distributions.
//!
//! A degree distribution is the map `d ↦ n(d)` from vertex degree to the
//! number of vertices with that degree.  The paper's central observation is
//! that the degree distribution of a Kronecker product is the Kronecker
//! product of the constituent distributions:
//!
//! ```text
//! n_A(d) = ⊗_k n_{A_k}(d)
//! ```
//!
//! i.e. every way of choosing one degree `d_k` from each constituent
//! contributes `∏ n_k(d_k)` vertices of degree `∏ d_k`.  Both degrees and
//! counts are [`BigUint`]s so distributions of 10^30-edge graphs stay exact.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use kron_bignum::BigUint;

/// An exact degree distribution: a sorted map from degree to vertex count.
///
/// Degrees with a zero count are never stored.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegreeDistribution {
    counts: BTreeMap<BigUint, BigUint>,
}

impl DegreeDistribution {
    /// An empty distribution.
    pub fn new() -> Self {
        DegreeDistribution {
            counts: BTreeMap::new(),
        }
    }

    /// Build a distribution from `(degree, count)` pairs, accumulating
    /// duplicates.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (BigUint, BigUint)>,
    {
        let mut dist = DegreeDistribution::new();
        for (d, n) in pairs {
            dist.add(d, n);
        }
        dist
    }

    /// Build from a measured `u64` histogram (degree → count), skipping
    /// zero-count entries.
    pub fn from_histogram(hist: &BTreeMap<u64, u64>) -> Self {
        let mut dist = DegreeDistribution::new();
        for (&d, &n) in hist {
            if n > 0 {
                dist.add(BigUint::from(d), BigUint::from(n));
            }
        }
        dist
    }

    /// Add `count` vertices of degree `degree` (accumulating).
    pub fn add(&mut self, degree: BigUint, count: BigUint) {
        if count.is_zero() {
            return;
        }
        let entry = self.counts.entry(degree).or_insert_with(BigUint::zero);
        *entry = entry.clone() + count;
    }

    /// Remove `count` vertices of degree `degree`.
    ///
    /// # Panics
    /// Panics if fewer than `count` vertices of that degree exist — that
    /// would mean a correction formula is being applied to the wrong design.
    pub fn subtract(&mut self, degree: &BigUint, count: &BigUint) {
        let current = self.count(degree);
        let remaining = current
            .checked_sub(count)
            // lint:allow(no-expect) -- the distribution accounting above proves the bucket holds at least this many vertices
            .expect("cannot remove more vertices of a degree than the distribution contains");
        if remaining.is_zero() {
            self.counts.remove(degree);
        } else {
            self.counts.insert(degree.clone(), remaining);
        }
    }

    /// The number of vertices of the given degree (zero if absent).
    pub fn count(&self, degree: &BigUint) -> BigUint {
        self.counts
            .get(degree)
            .cloned()
            .unwrap_or_else(BigUint::zero)
    }

    /// Number of distinct degrees present.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate over `(degree, count)` pairs in increasing degree order.
    pub fn iter(&self) -> impl Iterator<Item = (&BigUint, &BigUint)> {
        self.counts.iter()
    }

    /// The distribution as a sorted vector of `(degree, count)` pairs.
    pub fn to_pairs(&self) -> Vec<(BigUint, BigUint)> {
        self.counts
            .iter()
            .map(|(d, n)| (d.clone(), n.clone()))
            .collect()
    }

    /// Total number of vertices covered, `Σ_d n(d)`.
    pub fn total_vertices(&self) -> BigUint {
        let mut total = BigUint::zero();
        for n in self.counts.values() {
            total += n;
        }
        total
    }

    /// Total number of edge endpoints, `Σ_d d·n(d)` — equal to the number of
    /// stored adjacency entries for the row-nnz degree convention.
    pub fn total_edge_endpoints(&self) -> BigUint {
        let mut total = BigUint::zero();
        for (d, n) in &self.counts {
            total += d * n;
        }
        total
    }

    /// Largest degree present (`None` for an empty distribution).
    pub fn max_degree(&self) -> Option<&BigUint> {
        self.counts.keys().next_back()
    }

    /// Smallest degree present (`None` for an empty distribution).
    pub fn min_degree(&self) -> Option<&BigUint> {
        self.counts.keys().next()
    }

    /// The Kronecker product of two distributions: every pair of degrees
    /// multiplies and every pair of counts multiplies.
    pub fn kron(&self, other: &DegreeDistribution) -> DegreeDistribution {
        let mut out = DegreeDistribution::new();
        for (d_a, n_a) in &self.counts {
            for (d_b, n_b) in &other.counts {
                out.add(d_a * d_b, n_a * n_b);
            }
        }
        out
    }

    /// The Kronecker product of a sequence of distributions.  Returns the
    /// "unit" distribution (a single vertex of degree 1) for an empty slice,
    /// which is the identity of [`DegreeDistribution::kron`].
    pub fn kron_all(distributions: &[DegreeDistribution]) -> DegreeDistribution {
        let mut acc = DegreeDistribution::from_pairs([(BigUint::one(), BigUint::one())]);
        for d in distributions {
            acc = acc.kron(d);
        }
        acc
    }

    /// Apply the paper's final self-loop-removal adjustment: one vertex of
    /// degree `loop_degree` loses its self-loop, so `n(loop_degree)` drops by
    /// one and `n(loop_degree − 1)` gains one.
    pub fn remove_self_loop_at(&mut self, loop_degree: &BigUint) {
        let one = BigUint::one();
        self.subtract(loop_degree, &one);
        let reduced = loop_degree
            .checked_sub(&one)
            // lint:allow(no-expect) -- a vertex hosting a self-loop has degree at least one by construction of the distribution
            .expect("self-loop vertex must have degree at least one");
        if !reduced.is_zero() {
            self.add(reduced, one);
        }
    }

    /// Whether every `(d, n(d))` pair lies exactly on the perfect power-law
    /// curve `n(d) = c / d` for a single constant `c` (slope `α = 1`), which
    /// is the exact law star-product designs satisfy when all degree products
    /// are unique.  Returns the constant when it holds.
    pub fn perfect_power_law_constant(&self) -> Option<BigUint> {
        let mut constant: Option<BigUint> = None;
        for (d, n) in &self.counts {
            let product = d * n;
            match &constant {
                None => constant = Some(product),
                Some(c) if *c == product => {}
                Some(_) => return None,
            }
        }
        constant
    }

    /// Least-squares fit of the power-law slope `α` in
    /// `log n(d) = log c − α·log d`, using every support point.
    ///
    /// Returns `None` when fewer than two distinct degrees are present.
    pub fn fit_alpha(&self) -> Option<f64> {
        if self.support_size() < 2 {
            return None;
        }
        let points: Vec<(f64, f64)> = self
            .counts
            .iter()
            .filter_map(|(d, n)| Some((d.log10()?, n.log10().unwrap_or(0.0))))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let sum_x: f64 = points.iter().map(|p| p.0).sum();
        let sum_y: f64 = points.iter().map(|p| p.1).sum();
        let sum_xx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sum_xy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sum_xx - sum_x * sum_x;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sum_xy - sum_x * sum_y) / denom;
        Some(-slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(u64, u64)]) -> DegreeDistribution {
        DegreeDistribution::from_pairs(
            pairs
                .iter()
                .map(|&(d, n)| (BigUint::from(d), BigUint::from(n))),
        )
    }

    #[test]
    fn add_accumulates_and_skips_zero() {
        let mut d = DegreeDistribution::new();
        d.add(BigUint::from(3u64), BigUint::from(2u64));
        d.add(BigUint::from(3u64), BigUint::from(5u64));
        d.add(BigUint::from(9u64), BigUint::zero());
        assert_eq!(d.count(&BigUint::from(3u64)), BigUint::from(7u64));
        assert_eq!(d.support_size(), 1);
    }

    #[test]
    fn subtract_removes_exhausted_degrees() {
        let mut d = dist(&[(3, 2), (5, 1)]);
        d.subtract(&BigUint::from(3u64), &BigUint::from(2u64));
        assert_eq!(d.support_size(), 1);
        assert_eq!(d.count(&BigUint::from(3u64)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn subtract_underflow_panics() {
        let mut d = dist(&[(3, 1)]);
        d.subtract(&BigUint::from(3u64), &BigUint::from(2u64));
    }

    #[test]
    fn totals() {
        let d = dist(&[(1, 15), (3, 5), (5, 3), (15, 1)]);
        assert_eq!(d.total_vertices(), BigUint::from(24u64));
        assert_eq!(
            d.total_edge_endpoints(),
            BigUint::from(15 + 15 + 15 + 15u64)
        );
        assert_eq!(d.max_degree(), Some(&BigUint::from(15u64)));
        assert_eq!(d.min_degree(), Some(&BigUint::from(1u64)));
    }

    #[test]
    fn figure1_star_product_distribution() {
        // Paper Figure 1: the product of stars m̂=5 and m̂=3 has
        // n(1)=15, n(3)=5, n(5)=3, n(15)=1 — all on n(d) = 15/d.
        let star5 = dist(&[(1, 5), (5, 1)]);
        let star3 = dist(&[(1, 3), (3, 1)]);
        let product = star5.kron(&star3);
        assert_eq!(product, dist(&[(1, 15), (3, 5), (5, 3), (15, 1)]));
        assert_eq!(
            product.perfect_power_law_constant(),
            Some(BigUint::from(15u64))
        );
    }

    #[test]
    fn kron_all_identity_and_order() {
        let a = dist(&[(1, 2), (2, 1)]);
        let b = dist(&[(1, 3), (3, 1)]);
        let ab = DegreeDistribution::kron_all(&[a.clone(), b.clone()]);
        let ba = DegreeDistribution::kron_all(&[b, a.clone()]);
        assert_eq!(ab, ba, "kron of distributions is commutative");
        assert_eq!(DegreeDistribution::kron_all(&[]), dist(&[(1, 1)]));
        assert_eq!(DegreeDistribution::kron_all(std::slice::from_ref(&a)), a);
    }

    #[test]
    fn self_loop_removal_adjustment() {
        // One vertex of degree 6 loses its loop and becomes degree 5.
        let mut d = dist(&[(1, 5), (6, 1)]);
        d.remove_self_loop_at(&BigUint::from(6u64));
        assert_eq!(d, dist(&[(1, 5), (5, 1)]));
        // Degree-1 self-loop vertex disappears from the support entirely.
        let mut d = dist(&[(1, 1)]);
        d.remove_self_loop_at(&BigUint::from(1u64));
        assert!(d.is_empty());
    }

    #[test]
    fn perfect_power_law_detection() {
        let good = dist(&[(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]);
        assert_eq!(
            good.perfect_power_law_constant(),
            Some(BigUint::from(12u64))
        );
        let bad = dist(&[(1, 12), (2, 7)]);
        assert_eq!(bad.perfect_power_law_constant(), None);
        assert_eq!(DegreeDistribution::new().perfect_power_law_constant(), None);
    }

    #[test]
    fn alpha_fit_recovers_slope_one() {
        let d = dist(&[(1, 1000), (10, 100), (100, 10), (1000, 1)]);
        let alpha = d.fit_alpha().unwrap();
        assert!((alpha - 1.0).abs() < 1e-9, "alpha = {alpha}");
        assert_eq!(dist(&[(3, 7)]).fit_alpha(), None);
    }

    #[test]
    fn alpha_fit_recovers_slope_two() {
        let d = dist(&[(1, 10_000), (10, 100), (100, 1)]);
        let alpha = d.fit_alpha().unwrap();
        assert!((alpha - 2.0).abs() < 1e-9, "alpha = {alpha}");
    }

    #[test]
    fn from_histogram_skips_zero_counts() {
        let mut hist = BTreeMap::new();
        hist.insert(1u64, 5u64);
        hist.insert(7u64, 0u64);
        let d = DegreeDistribution::from_histogram(&hist);
        assert_eq!(d.support_size(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_dist() -> impl Strategy<Value = DegreeDistribution> {
        proptest::collection::vec((1u64..50, 1u64..20), 1..8).prop_map(|pairs| {
            DegreeDistribution::from_pairs(
                pairs
                    .into_iter()
                    .map(|(d, n)| (BigUint::from(d), BigUint::from(n))),
            )
        })
    }

    proptest! {
        #[test]
        fn kron_vertex_counts_multiply(a in arb_dist(), b in arb_dist()) {
            let product = a.kron(&b);
            prop_assert_eq!(product.total_vertices(), a.total_vertices() * b.total_vertices());
        }

        #[test]
        fn kron_edge_endpoints_multiply(a in arb_dist(), b in arb_dist()) {
            let product = a.kron(&b);
            prop_assert_eq!(
                product.total_edge_endpoints(),
                a.total_edge_endpoints() * b.total_edge_endpoints()
            );
        }

        #[test]
        fn kron_commutes(a in arb_dist(), b in arb_dist()) {
            prop_assert_eq!(a.kron(&b), b.kron(&a));
        }

        #[test]
        fn kron_associates(a in arb_dist(), b in arb_dist(), c in arb_dist()) {
            prop_assert_eq!(a.kron(&b).kron(&c), a.kron(&b.kron(&c)));
        }
    }
}
