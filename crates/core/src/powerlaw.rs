//! Power-law curves and diagnostics.
//!
//! A power-law degree distribution satisfies `n(d) ∝ d^{-α}`.  Star-product
//! Kronecker designs satisfy the *perfect* law `n(d) = c/d` (slope 1) as long
//! as all constituent degree products are unique; this module provides the
//! reference curve, the slope estimate from extreme points the paper uses
//! (`α = log n(1) / log d_max`), a goodness measure against the ideal curve,
//! and the uniqueness check that tells a designer whether a chosen star set
//! will stay exactly on the line.

use kron_bignum::BigUint;

use crate::degree::DegreeDistribution;

/// A fitted / reference power law `n(d) = c · d^{-α}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLaw {
    /// Normalisation constant `c` (the value of `n(1)`).
    pub constant: f64,
    /// Slope `α > 0`.
    pub alpha: f64,
}

impl PowerLaw {
    /// The ideal curve through a perfect star-product distribution:
    /// `c = ∏ m̂_k`, `α = 1`.
    pub fn perfect(constant: BigUint) -> Self {
        PowerLaw {
            constant: constant.to_f64(),
            alpha: 1.0,
        }
    }

    /// Slope estimate from the extreme points, as used in the paper:
    /// `α = log n(1) / log d_max`.
    pub fn from_extremes(dist: &DegreeDistribution) -> Option<Self> {
        let n1 = dist.count(&BigUint::one());
        let dmax = dist.max_degree()?;
        if n1.is_zero() || dmax.is_one() {
            return None;
        }
        let alpha = n1.log10()? / dmax.log10()?;
        Some(PowerLaw {
            constant: n1.to_f64(),
            alpha,
        })
    }

    /// Predicted count at degree `d` (floating point; for plots and
    /// residuals, not for exact property computation).
    pub fn predict(&self, degree: f64) -> f64 {
        self.constant * degree.powf(-self.alpha)
    }

    /// Mean absolute log10 residual of a distribution against this curve.
    /// Zero for a distribution lying exactly on the line.
    pub fn mean_log_residual(&self, dist: &DegreeDistribution) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (d, n) in dist.iter() {
            let (Some(ld), Some(ln)) = (d.log10(), n.log10()) else {
                continue;
            };
            let predicted = self.constant.log10() - self.alpha * ld;
            total += (ln - predicted).abs();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// A power-law diagnostic computed from a measured degree distribution: the
/// paper's extreme-point slope estimate together with two goodness numbers.
///
/// This is the streaming-metrics view of [`PowerLaw`]: everything here is
/// derived from the degree histogram alone, so a generation (or replay) run
/// can report it without ever materialising the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawFit {
    /// Extreme-point slope `α = log n(1) / log d_max`
    /// ([`PowerLaw::from_extremes`]).
    pub alpha: f64,
    /// Normalisation constant `c = n(1)` of the fitted curve.
    pub constant: f64,
    /// Mean absolute log10 residual of the distribution against the *fitted*
    /// curve — zero when the measured points lie exactly on the fitted line.
    pub mean_log_residual: f64,
    /// Mean absolute log10 residual against the *ideal* perfect power law
    /// `n(d) = n(1)/d` (slope 1) — zero exactly when the distribution is the
    /// perfect law every star-product design is constructed to satisfy.
    pub residual_vs_ideal: f64,
}

impl PowerLawFit {
    /// Fit a distribution, or `None` when the extreme points do not pin a
    /// slope (no degree-1 vertices, or a single-degree distribution).
    pub fn from_distribution(dist: &DegreeDistribution) -> Option<Self> {
        let fitted = PowerLaw::from_extremes(dist)?;
        let ideal = PowerLaw {
            constant: fitted.constant,
            alpha: 1.0,
        };
        Some(PowerLawFit {
            alpha: fitted.alpha,
            constant: fitted.constant,
            mean_log_residual: fitted.mean_log_residual(dist),
            residual_vs_ideal: ideal.mean_log_residual(dist),
        })
    }

    /// The fitted curve as a [`PowerLaw`].
    pub fn curve(&self) -> PowerLaw {
        PowerLaw {
            constant: self.constant,
            alpha: self.alpha,
        }
    }
}

/// Check whether all `2^N` subset products of the star points are unique —
/// the paper's condition for the product distribution to remain a perfect
/// power law ("as long as all of the products of the corresponding m̂ are
/// unique").
pub fn star_products_unique(points: &[u64]) -> bool {
    let mut products: Vec<BigUint> = vec![BigUint::one()];
    for &p in points {
        let mut next = Vec::with_capacity(products.len() * 2);
        for existing in &products {
            next.push(existing.clone());
            next.push(existing * &BigUint::from(p));
        }
        products = next;
    }
    let len = products.len();
    products.sort();
    products.dedup();
    products.len() == len
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
    fn perfect_curve_predicts_counts() {
        let law = PowerLaw::perfect(BigUint::from(15u64));
        assert!((law.predict(1.0) - 15.0).abs() < 1e-12);
        assert!((law.predict(3.0) - 5.0).abs() < 1e-12);
        assert!((law.predict(15.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_point_slope_matches_paper_star_formula() {
        // For a single star: α = log(m̂)/log(m̂) = 1.
        let star = dist(&[(1, 9), (9, 1)]);
        let law = PowerLaw::from_extremes(&star).unwrap();
        assert!((law.alpha - 1.0).abs() < 1e-12);
        // Steeper synthetic distribution.
        let steep = dist(&[(1, 10_000), (100, 1)]);
        let law = PowerLaw::from_extremes(&steep).unwrap();
        assert!((law.alpha - 2.0).abs() < 1e-12);
        // Degenerate cases.
        assert!(PowerLaw::from_extremes(&dist(&[(2, 5)])).is_none());
        assert!(PowerLaw::from_extremes(&DegreeDistribution::new()).is_none());
    }

    #[test]
    fn residual_is_zero_on_the_line() {
        let perfect = dist(&[(1, 15), (3, 5), (5, 3), (15, 1)]);
        let law = PowerLaw::perfect(BigUint::from(15u64));
        assert!(law.mean_log_residual(&perfect) < 1e-12);
        let off = dist(&[(1, 15), (3, 100)]);
        assert!(law.mean_log_residual(&off) > 0.5);
    }

    #[test]
    fn fit_summary_of_a_perfect_law_has_zero_residuals() {
        let perfect = dist(&[(1, 15), (3, 5), (5, 3), (15, 1)]);
        let fit = PowerLawFit::from_distribution(&perfect).unwrap();
        assert!((fit.alpha - 1.0).abs() < 1e-12);
        assert!((fit.constant - 15.0).abs() < 1e-12);
        assert!(fit.mean_log_residual < 1e-12);
        assert!(fit.residual_vs_ideal < 1e-12);
        assert!((fit.curve().predict(3.0) - 5.0).abs() < 1e-9);

        // A steeper distribution fits its own slope exactly but departs from
        // the ideal 1/d law.
        let steep = dist(&[(1, 10_000), (100, 1)]);
        let fit = PowerLawFit::from_distribution(&steep).unwrap();
        assert!((fit.alpha - 2.0).abs() < 1e-12);
        assert!(fit.mean_log_residual < 1e-12);
        assert!(fit.residual_vs_ideal > 0.5);

        // Distributions whose extremes pin no slope have no fit.
        assert!(PowerLawFit::from_distribution(&dist(&[(2, 5)])).is_none());
    }

    #[test]
    fn uniqueness_check() {
        // The paper's Figure 3/4 star set is product-unique.
        assert!(star_products_unique(&[3, 4, 5, 9, 16, 25, 81, 256]));
        // 2 · 3 = 6 collides with the single star 6.
        assert!(!star_products_unique(&[2, 3, 6]));
        // 3 · 3 collides with 9 when the same point count repeats alongside
        // its square.
        assert!(!star_products_unique(&[3, 3, 9]));
        // Repeated values alone are fine only if no subset products collide;
        // {2, 2} gives products {1, 2, 2, 4} which do collide.
        assert!(!star_products_unique(&[2, 2]));
        assert!(star_products_unique(&[7]));
        assert!(star_products_unique(&[]));
    }
}
