//! Arbitrary-precision unsigned integers.
//!
//! [`BigUint`] stores magnitude as little-endian 64-bit limbs with no
//! trailing zero limbs (the canonical form of zero is an empty limb vector).
//! The implementation favours clarity and correctness over asymptotic
//! cleverness: the numbers handled by the graph designer are at most a few
//! hundred bits, so schoolbook multiplication and limb-by-limb division by a
//! `u64` are more than fast enough and easy to verify.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// An arbitrary-precision unsigned integer.
///
/// The representation is a little-endian vector of 64-bit limbs with no
/// trailing zeros; zero is the empty vector.  All arithmetic is exact;
/// subtraction panics on underflow (use [`BigUint::checked_sub`] when the
/// operands may be in either order).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigUint`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse BigUint from empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid decimal digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseBigUintError {}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Construct from little-endian limbs, normalising trailing zeros.
    fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Number of significant bits (zero has zero bits).
    fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Checked conversion to `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Checked conversion to `u128`.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (positive infinity if it overflows).
    pub fn to_f64(&self) -> f64 {
        let mut value = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            value = value * 1.8446744073709552e19 + limb as f64;
        }
        value
    }

    /// Base-10 logarithm as an `f64` approximation; `None` for zero.
    pub fn log10(&self) -> Option<f64> {
        if self.is_zero() {
            return None;
        }
        // For values beyond f64 range, use bit length: log10(x) ≈ bits*log10(2)
        // refined by the top limbs.
        let bits = self.bit_len();
        if bits <= 1000 {
            let v = self.to_f64();
            if v.is_finite() {
                return Some(v.log10());
            }
        }
        // Take the top 128 bits as a float and add the exponent contribution.
        let shift = bits.saturating_sub(128);
        let top = (self.clone() >> shift).to_f64();
        Some(top.log10() + shift as f64 * std::f64::consts::LOG10_2)
    }

    /// Checked subtraction: `self - other`, or `None` if the result would be
    /// negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(sub_magnitudes(&self.limbs, &other.limbs))
        }
    }

    /// Saturating subtraction: zero when the result would be negative.
    pub fn saturating_sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).unwrap_or_else(BigUint::zero)
    }

    /// Raise to an integer power with exact arithmetic.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Quotient and remainder of division by a non-zero `u64`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let cur = (rem << 64) | limb as u128;
            quotient[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (BigUint::from_limbs(quotient), rem as u64)
    }
}

fn add_magnitudes(a: &[u64], b: &[u64]) -> BigUint {
    let (longer, shorter) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(longer.len() + 1);
    let mut carry = 0u128;
    for (i, &limb) in longer.iter().enumerate() {
        let sum = limb as u128 + *shorter.get(i).unwrap_or(&0) as u128 + carry;
        out.push(sum as u64);
        carry = sum >> 64;
    }
    if carry != 0 {
        out.push(carry as u64);
    }
    BigUint::from_limbs(out)
}

fn sub_magnitudes(a: &[u64], b: &[u64]) -> BigUint {
    debug_assert!(a.len() >= b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i128;
    for (i, &limb) in a.iter().enumerate() {
        let diff = limb as i128 - *b.get(i).unwrap_or(&0) as i128 - borrow;
        if diff < 0 {
            out.push((diff + (1i128 << 64)) as u64);
            borrow = 1;
        } else {
            out.push(diff as u64);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
    BigUint::from_limbs(out)
}

fn mul_magnitudes(a: &[u64], b: &[u64]) -> BigUint {
    if a.is_empty() || b.is_empty() {
        return BigUint::zero();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    BigUint::from_limbs(out)
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {
        $(
            impl From<$t> for BigUint {
                fn from(value: $t) -> Self {
                    BigUint::from_limbs(vec![value as u64])
                }
            }
        )*
    };
}

impl_from_unsigned!(u8, u16, u32, u64, usize);

impl From<u128> for BigUint {
    fn from(value: u128) -> Self {
        BigUint::from_limbs(vec![value as u64, (value >> 64) as u64])
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        add_magnitudes(&self.limbs, &rhs.limbs)
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        add_magnitudes(&self.limbs, &rhs.limbs)
    }
}

impl AddAssign for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self = add_magnitudes(&self.limbs, &rhs.limbs);
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = add_magnitudes(&self.limbs, &rhs.limbs);
    }
}

impl AddAssign<u64> for BigUint {
    fn add_assign(&mut self, rhs: u64) {
        *self = add_magnitudes(&self.limbs, &[rhs]);
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        self.checked_sub(&rhs)
            // lint:allow(no-expect) -- the Sub operator mirrors std integer semantics: underflow is a documented panic; checked_sub is the non-panicking path
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            // lint:allow(no-expect) -- the Sub operator mirrors std integer semantics: underflow is a documented panic; checked_sub is the non-panicking path
            .expect("BigUint subtraction underflow")
    }
}

impl SubAssign for BigUint {
    fn sub_assign(&mut self, rhs: BigUint) {
        *self = self
            .checked_sub(&rhs)
            // lint:allow(no-expect) -- the Sub operator mirrors std integer semantics: underflow is a documented panic; checked_sub is the non-panicking path
            .expect("BigUint subtraction underflow");
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        mul_magnitudes(&self.limbs, &rhs.limbs)
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        mul_magnitudes(&self.limbs, &rhs.limbs)
    }
}

impl Mul<u64> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: u64) -> BigUint {
        mul_magnitudes(&self.limbs, &[rhs])
    }
}

impl MulAssign for BigUint {
    fn mul_assign(&mut self, rhs: BigUint) {
        *self = mul_magnitudes(&self.limbs, &rhs.limbs);
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = mul_magnitudes(&self.limbs, &rhs.limbs);
    }
}

impl MulAssign<u64> for BigUint {
    fn mul_assign(&mut self, rhs: u64) {
        *self = mul_magnitudes(&self.limbs, &[rhs]);
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self;
        }
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self;
        }
        let limb_shift = shift / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = shift % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&next| next << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::zero(), |acc, x| acc + x)
    }
}

impl Product for BigUint {
    fn product<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::one(), |acc, x| acc * x)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel 19 decimal digits at a time (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut value = self.clone();
        while !value.is_zero() {
            let (q, r) = value.div_rem_u64(CHUNK);
            chunks.push(r);
            value = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().enumerate().rev() {
            if i == chunks.len() - 1 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:019}"));
            }
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let cleaned: String = s.chars().filter(|&c| c != '_' && c != ',').collect();
        if cleaned.is_empty() {
            return Err(ParseBigUintError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut value = BigUint::zero();
        for c in cleaned.chars() {
            let digit = c.to_digit(10).ok_or(ParseBigUintError {
                kind: ParseErrorKind::InvalidDigit(c),
            })?;
            value *= 10u64;
            value += digit as u64;
        }
        Ok(value)
    }
}

impl Serialize for BigUint {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for BigUint {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn from_u128_round_trips() {
        let v = u128::MAX;
        let b = BigUint::from(v);
        assert_eq!(b.to_u128(), Some(v));
        assert_eq!(b.to_u64(), None);
        assert_eq!(b.to_string(), v.to_string());
    }

    #[test]
    fn addition_with_carry_propagation() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let c = a + b;
        assert_eq!(c.to_u128(), Some(1u128 << 64));
    }

    #[test]
    fn subtraction_and_underflow() {
        let a = BigUint::from(1u128 << 64);
        let b = BigUint::one();
        assert_eq!((a.clone() - b.clone()).to_u64(), Some(u64::MAX));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(b.saturating_sub(&a), BigUint::zero());
    }

    #[test]
    fn multiplication_known_values() {
        // 22,160,061 * 83,619 = 1,853,002,140,759 (Figure 4 edge product before
        // removing the final self-loop).
        let a = BigUint::from(22_160_061u64);
        let b = BigUint::from(83_619u64);
        assert_eq!((a * b).to_string(), "1853002140759");
    }

    #[test]
    fn multiplication_large() {
        let a = big("340282366920938463463374607431768211455"); // 2^128-1
        let b = big("340282366920938463463374607431768211455");
        let expected =
            big("115792089237316195423570985008687907852589419931798687112530834793049593217025");
        assert_eq!(a * b, expected);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let cases = [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "2705963586782877716483871216764",
            "144111718793178936483840000",
        ];
        for case in cases {
            assert_eq!(big(case).to_string(), case);
        }
    }

    #[test]
    fn parse_accepts_separators() {
        assert_eq!(big("1,853,002,140,758"), big("1853002140758"));
        assert_eq!(big("1_000_000"), BigUint::from(1_000_000u64));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a3".parse::<BigUint>().is_err());
        assert!("-5".parse::<BigUint>().is_err());
    }

    #[test]
    fn div_rem_u64_matches_u128_arithmetic() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let b = BigUint::from(v);
        let (q, r) = b.div_rem_u64(1_000_003);
        assert_eq!(q.to_u128(), Some(v / 1_000_003));
        assert_eq!(r as u128, v % 1_000_003);
    }

    #[test]
    fn pow_known_values() {
        assert_eq!(BigUint::from(2u64).pow(10), BigUint::from(1024u64));
        assert_eq!(BigUint::from(10u64).pow(0), BigUint::one());
        assert_eq!(
            BigUint::from(10u64).pow(30).to_string(),
            "1000000000000000000000000000000"
        );
    }

    #[test]
    fn shifts() {
        let one = BigUint::one();
        assert_eq!((one.clone() << 200).bit_len(), 201);
        assert_eq!((one.clone() << 200) >> 200, one.clone());
        assert_eq!(one >> 1, BigUint::zero());
        let v = big("123456789012345678901234567890");
        assert_eq!((v.clone() << 7) >> 7, v);
    }

    #[test]
    fn ordering() {
        assert!(big("100") > big("99"));
        assert!(big("18446744073709551616") > big("18446744073709551615"));
        assert!(BigUint::zero() < BigUint::one());
        assert_eq!(big("42").cmp(&big("42")), Ordering::Equal);
    }

    #[test]
    fn to_f64_and_log10() {
        assert_eq!(BigUint::from(1_000_000u64).to_f64(), 1e6);
        let e30 = BigUint::from(10u64).pow(30);
        let l = e30.log10().unwrap();
        assert!((l - 30.0).abs() < 1e-9, "log10(10^30) = {l}");
        assert_eq!(BigUint::zero().log10(), None);
        // Huge value beyond f64 still produces a sensible log.
        let e400 = BigUint::from(10u64).pow(400);
        let l = e400.log10().unwrap();
        assert!((l - 400.0).abs() < 1e-6, "log10(10^400) = {l}");
    }

    /// A serializer that yields the string it is given, and a deserializer
    /// that hands one back: enough to drive both impls without a format
    /// crate.
    struct StringSerde(String);

    #[derive(Debug, PartialEq)]
    struct StringSerdeError(String);

    impl serde::ser::Error for StringSerdeError {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            StringSerdeError(msg.to_string())
        }
    }

    impl serde::de::Error for StringSerdeError {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            StringSerdeError(msg.to_string())
        }
    }

    impl Serializer for StringSerde {
        type Ok = String;
        type Error = StringSerdeError;

        fn serialize_str(self, v: &str) -> Result<String, StringSerdeError> {
            Ok(v.to_string())
        }
    }

    impl Deserializer<'_> for StringSerde {
        type Error = StringSerdeError;

        fn deserialize_string(self) -> Result<String, StringSerdeError> {
            Ok(self.0)
        }
    }

    #[test]
    fn serde_round_trip() {
        let v = big("2705963586782877716483871216764");
        let text = v.serialize(StringSerde(String::new())).unwrap();
        assert_eq!(text, "2705963586782877716483871216764");
        assert_eq!(BigUint::deserialize(StringSerde(text)), Ok(v));
        assert_eq!(
            BigUint::deserialize(StringSerde("12a3".to_string())),
            Err(StringSerdeError("invalid decimal digit 'a'".to_string()))
        );
    }

    #[test]
    fn sum_and_product_iterators() {
        let values = vec![
            BigUint::from(2u64),
            BigUint::from(3u64),
            BigUint::from(5u64),
        ];
        let s: BigUint = values.iter().cloned().sum();
        let p: BigUint = values.into_iter().product();
        assert_eq!(s, BigUint::from(10u64));
        assert_eq!(p, BigUint::from(30u64));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_biguint() -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u64>(), 0..5).prop_map(BigUint::from_limbs)
    }

    proptest! {
        #[test]
        fn add_commutative(a in arb_biguint(), b in arb_biguint()) {
            prop_assert_eq!(a.clone() + b.clone(), b + a);
        }

        #[test]
        fn add_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
            prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a + (b + c));
        }

        #[test]
        fn mul_commutative(a in arb_biguint(), b in arb_biguint()) {
            prop_assert_eq!(a.clone() * b.clone(), b * a);
        }

        #[test]
        fn mul_distributes_over_add(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
            prop_assert_eq!(a.clone() * (b.clone() + c.clone()), a.clone() * b + a * c);
        }

        #[test]
        fn sub_then_add_round_trips(a in arb_biguint(), b in arb_biguint()) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            let diff = hi.clone() - lo.clone();
            prop_assert_eq!(diff + lo, hi);
        }

        #[test]
        fn display_parse_round_trip(a in arb_biguint()) {
            let s = a.to_string();
            let parsed: BigUint = s.parse().unwrap();
            prop_assert_eq!(parsed, a);
        }

        #[test]
        fn shifts_round_trip(a in arb_biguint(), s in 0usize..200) {
            prop_assert_eq!((a.clone() << s) >> s, a);
        }

        #[test]
        fn u128_round_trip(v in any::<u128>()) {
            prop_assert_eq!(BigUint::from(v).to_u128(), Some(v));
        }
    }
}
