//! Semirings: the algebraic structure every sparse kernel is generic over.
//!
//! The paper relies on the fact that the Kronecker product keeps its useful
//! properties (associativity, distributivity over element-wise addition, the
//! mixed-product rule with matrix multiplication) whenever element-wise
//! addition and multiplication form a semiring with `0` as the annihilator.
//! The paper's properties are exact under the arithmetic semiring, so
//! [`PlusTimes`] is the one instance; the kernels stay generic so that `⊕`
//! and `⊗` are named where they are used, as in GraphBLAS.

use std::fmt::Debug;

/// A value type usable inside sparse matrices.
///
/// This is a convenience alias-trait: anything `Copy`, comparable, printable,
/// and thread-safe qualifies, so `u64`, `f64`, `bool`, `u32`, … all work.
pub trait Scalar: Copy + PartialEq + Debug + Send + Sync + 'static {}
impl<T: Copy + PartialEq + Debug + Send + Sync + 'static> Scalar for T {}

/// A semiring `(S, ⊕, ⊗, 0, 1)`.
///
/// Laws expected (and checked by a property test for [`PlusTimes`]):
///
/// * `(S, ⊕, 0)` is a commutative monoid;
/// * `(S, ⊗, 1)` is a monoid;
/// * `⊗` distributes over `⊕`;
/// * `0` annihilates: `0 ⊗ s = s ⊗ 0 = 0`.
///
/// Implementations are zero-sized marker types so they can be passed as type
/// parameters without runtime cost.
pub trait Semiring<T: Scalar>: Copy + Default + Send + Sync + 'static {
    /// The additive identity (and sparse "absent" value).
    fn zero() -> T;
    /// The multiplicative identity.
    fn one() -> T;
    /// The additive operation ⊕.
    fn add(a: T, b: T) -> T;
    /// The multiplicative operation ⊗.
    fn mul(a: T, b: T) -> T;
    /// Whether a value is the additive identity (used to drop explicit zeros).
    fn is_zero(a: T) -> bool {
        a == Self::zero()
    }
}

/// The arithmetic (`+`, `×`) semiring over an integer or float type.
///
/// This is the semiring used for edge counting, degree computation, and
/// triangle counting throughout the workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlusTimes;

macro_rules! impl_plus_times {
    ($($t:ty),*) => {
        $(
            impl Semiring<$t> for PlusTimes {
                fn zero() -> $t { 0 as $t }
                fn one() -> $t { 1 as $t }
                fn add(a: $t, b: $t) -> $t { a + b }
                fn mul(a: $t, b: $t) -> $t { a * b }
            }
        )*
    };
}

impl_plus_times!(u8, u16, u32, u64, u128, usize, i32, i64, i128, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_identities() {
        assert_eq!(<PlusTimes as Semiring<u64>>::zero(), 0);
        assert_eq!(<PlusTimes as Semiring<u64>>::one(), 1);
        assert_eq!(<PlusTimes as Semiring<u64>>::add(2, 3), 5);
        assert_eq!(<PlusTimes as Semiring<u64>>::mul(2, 3), 6);
        assert!(<PlusTimes as Semiring<u64>>::is_zero(0));
        assert!(!<PlusTimes as Semiring<u64>>::is_zero(7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn check_semiring_laws_u64<S: Semiring<u64>>(
        a: u64,
        b: u64,
        c: u64,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(S::add(a, S::zero()), a);
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::add(S::add(a, b), c), S::add(a, S::add(b, c)));
        prop_assert_eq!(S::mul(a, S::one()), a);
        prop_assert_eq!(S::mul(S::one(), a), a);
        prop_assert_eq!(S::mul(a, S::zero()), S::zero());
        prop_assert_eq!(S::mul(S::zero(), a), S::zero());
        prop_assert_eq!(S::mul(S::mul(a, b), c), S::mul(a, S::mul(b, c)));
        prop_assert_eq!(S::mul(a, S::add(b, c)), S::add(S::mul(a, b), S::mul(a, c)));
        Ok(())
    }

    proptest! {
        #[test]
        fn plus_times_laws(a in 0u64..1u64 << 20, b in 0u64..1u64 << 20, c in 0u64..1u64 << 20) {
            check_semiring_laws_u64::<PlusTimes>(a, b, c)?;
        }
    }
}
