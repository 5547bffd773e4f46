//! Signed arbitrary-precision integers.
//!
//! [`BigInt`] wraps a [`BigUint`] magnitude with a sign.  Nothing in the
//! workspace computes with it: the triangle corrections stay in [`BigUint`]
//! and divide by six with [`BigUint::div_rem_u64`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};
use std::str::FromStr;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::biguint::{BigUint, ParseBigUintError};

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// A signed arbitrary-precision integer (sign + magnitude).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: BigUint,
}

impl BigInt {
    /// The value zero.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            magnitude: BigUint::zero(),
        }
    }

    /// The value one.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            magnitude: BigUint::one(),
        }
    }

    /// Construct from a sign and magnitude, normalising zero.
    pub fn from_sign_magnitude(sign: Sign, magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            match sign {
                Sign::Zero => BigInt::zero(),
                s => BigInt { sign: s, magnitude },
            }
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The absolute value as a [`BigUint`].
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Convert to a [`BigUint`] if non-negative.
    pub fn to_biguint(&self) -> Option<BigUint> {
        match self.sign {
            Sign::Negative => None,
            _ => Some(self.magnitude.clone()),
        }
    }

    /// Checked conversion to `i128`.
    pub fn to_i128(&self) -> Option<i128> {
        let mag = self.magnitude.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i128::try_from(mag).ok(),
            Sign::Negative => {
                if mag == (i128::MAX as u128) + 1 {
                    Some(i128::MIN)
                } else {
                    i128::try_from(mag).ok().map(|v| -v)
                }
            }
        }
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let mag = self.magnitude.to_f64();
        match self.sign {
            Sign::Negative => -mag,
            _ => mag,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_sign_magnitude(
            if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            self.magnitude.clone(),
        )
    }

    /// Exact quotient and remainder (truncated division, remainder takes the
    /// dividend's sign).
    ///
    /// # Panics
    /// Panics when `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigInt) -> (BigInt, BigInt) {
        assert!(!divisor.is_zero(), "division by zero");
        let (q_mag, r_mag) = self.magnitude.div_rem(&divisor.magnitude);
        let q_sign = match (self.sign, divisor.sign) {
            (Sign::Zero, _) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        (
            BigInt::from_sign_magnitude(q_sign, q_mag),
            BigInt::from_sign_magnitude(self.sign, r_mag),
        )
    }
}

impl From<BigUint> for BigInt {
    fn from(value: BigUint) -> Self {
        BigInt::from_sign_magnitude(Sign::Positive, value)
    }
}

impl From<&BigUint> for BigInt {
    fn from(value: &BigUint) -> Self {
        BigInt::from_sign_magnitude(Sign::Positive, value.clone())
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {
        $(
            impl From<$t> for BigInt {
                fn from(value: $t) -> Self {
                    let sign = match value.cmp(&0) {
                        Ordering::Less => Sign::Negative,
                        Ordering::Equal => Sign::Zero,
                        Ordering::Greater => Sign::Positive,
                    };
                    BigInt::from_sign_magnitude(sign, BigUint::from(value.unsigned_abs() as u128))
                }
            }
        )*
    };
}

impl_from_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_from_unsigned_int {
    ($($t:ty),*) => {
        $(
            impl From<$t> for BigInt {
                fn from(value: $t) -> Self {
                    BigInt::from(BigUint::from(value))
                }
            }
        )*
    };
}

impl_from_unsigned_int!(u8, u16, u32, u64, u128, usize);

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        BigInt {
            sign,
            magnitude: self.magnitude,
        }
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        &self + &rhs
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_magnitude(a, &self.magnitude + &rhs.magnitude),
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match self.magnitude.cmp(&rhs.magnitude) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_sign_magnitude(self.sign, &self.magnitude - &rhs.magnitude)
                    }
                    Ordering::Less => {
                        BigInt::from_sign_magnitude(rhs.sign, &rhs.magnitude - &self.magnitude)
                    }
                }
            }
        }
    }
}

impl AddAssign for BigInt {
    fn add_assign(&mut self, rhs: BigInt) {
        *self = &*self + &rhs;
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        &self - &rhs
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        &self * &rhs
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        let sign = match (self.sign, rhs.sign) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        BigInt::from_sign_magnitude(sign, &self.magnitude * &rhs.magnitude)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Negative => other.magnitude.cmp(&self.magnitude),
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.magnitude.cmp(&other.magnitude),
            },
            non_eq => non_eq,
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sign {
            Sign::Negative => write!(f, "-{}", self.magnitude),
            _ => write!(f, "{}", self.magnitude),
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl FromStr for BigInt {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('-') {
            let mag: BigUint = rest.parse()?;
            Ok(BigInt::from_sign_magnitude(Sign::Negative, mag))
        } else {
            let stripped = s.strip_prefix('+').unwrap_or(s);
            let mag: BigUint = stripped.parse()?;
            Ok(BigInt::from_sign_magnitude(Sign::Positive, mag))
        }
    }
}

impl Serialize for BigInt {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for BigInt {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn sign_normalisation() {
        assert_eq!(
            BigInt::from_sign_magnitude(Sign::Negative, BigUint::zero()),
            BigInt::zero()
        );
        assert_eq!(int(0).sign(), Sign::Zero);
        assert_eq!(int(5).sign(), Sign::Positive);
        assert_eq!(int(-5).sign(), Sign::Negative);
    }

    #[test]
    fn addition_of_mixed_signs() {
        assert_eq!(int(5) + int(-3), int(2));
        assert_eq!(int(3) + int(-5), int(-2));
        assert_eq!(int(-3) + int(-5), int(-8));
        assert_eq!(int(5) + int(-5), int(0));
        assert_eq!(int(0) + int(-5), int(-5));
    }

    #[test]
    fn subtraction() {
        assert_eq!(int(5) - int(8), int(-3));
        assert_eq!(int(-5) - int(-8), int(3));
        assert_eq!(int(5) - int(0), int(5));
    }

    #[test]
    fn multiplication_sign_rules() {
        assert_eq!(int(4) * int(-3), int(-12));
        assert_eq!(int(-4) * int(-3), int(12));
        assert_eq!(int(0) * int(-3), int(0));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-10) < int(-3));
        assert!(int(-3) < int(0));
        assert!(int(0) < int(7));
        assert!(int(7) < int(8));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(int(-12345).to_string(), "-12345");
        assert_eq!("-12345".parse::<BigInt>().unwrap(), int(-12345));
        assert_eq!("+77".parse::<BigInt>().unwrap(), int(77));
        assert_eq!("0".parse::<BigInt>().unwrap(), BigInt::zero());
        assert_eq!("-0".parse::<BigInt>().unwrap(), BigInt::zero());
    }

    #[test]
    fn conversions() {
        assert_eq!(int(-42).to_i128(), Some(-42));
        assert_eq!(int(42).to_biguint(), Some(BigUint::from(42u64)));
        assert_eq!(int(-42).to_biguint(), None);
        assert_eq!(int(i128::MIN).to_i128(), Some(i128::MIN));
        assert_eq!(int(-42).to_f64(), -42.0);
        assert_eq!(int(-42).abs(), int(42));
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        let (q, r) = int(7).div_rem(&int(2));
        assert_eq!((q, r), (int(3), int(1)));
        let (q, r) = int(-7).div_rem(&int(2));
        assert_eq!((q, r), (int(-3), int(-1)));
        let (q, r) = int(7).div_rem(&int(-2));
        assert_eq!((q, r), (int(-3), int(1)));
        let (q, r) = int(-7).div_rem(&int(-2));
        assert_eq!((q, r), (int(3), int(-1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bigint() -> impl Strategy<Value = BigInt> {
        any::<i128>().prop_map(BigInt::from)
    }

    proptest! {
        #[test]
        fn add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let expected = BigInt::from(a as i128 + b as i128);
            prop_assert_eq!(BigInt::from(a) + BigInt::from(b), expected);
        }

        #[test]
        fn mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let expected = BigInt::from(a as i128 * b as i128);
            prop_assert_eq!(BigInt::from(a) * BigInt::from(b), expected);
        }

        #[test]
        fn neg_involution(a in arb_bigint()) {
            prop_assert_eq!(-(-a.clone()), a);
        }

        #[test]
        fn sub_self_is_zero(a in arb_bigint()) {
            prop_assert_eq!(a.clone() - a, BigInt::zero());
        }

        #[test]
        fn ordering_matches_i128(a in any::<i128>(), b in any::<i128>()) {
            prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), a.cmp(&b));
        }

        #[test]
        fn div_rem_reconstructs(a in any::<i128>(), b in any::<i128>()) {
            prop_assume!(b != 0);
            let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
            prop_assert_eq!(q * BigInt::from(b) + r, BigInt::from(a));
        }
    }
}
