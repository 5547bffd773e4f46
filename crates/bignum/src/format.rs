//! Human-readable formatting helpers for extreme-scale counts.
//!
//! The paper reports quantities such as `2,705,963,586,782,877,716,483,871,216,764`
//! edges; these helpers produce the same comma-grouped form and a compact
//! scientific approximation for log-log plot axes.

use crate::BigUint;

/// Insert thousands separators into an unsigned decimal string, such as
/// [`BigUint`]'s `to_string()`.
///
/// ```
/// assert_eq!(kron_bignum::grouped("1146617856000"), "1,146,617,856,000");
/// ```
pub fn grouped(decimal: &str) -> String {
    let bytes = decimal.as_bytes();
    let mut out = String::with_capacity(bytes.len() + bytes.len() / 3);
    for (i, &b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(b as char);
    }
    out
}

/// Approximate a [`BigUint`] as `m.mmme+EE` scientific notation for axis
/// labels and log-log summaries.
///
/// The mantissa is the value's four leading significant digits, rounded
/// half up in integer arithmetic from its decimal digits, so the result is
/// correctly rounded at any size; a value that rounds up to `10.000` carries
/// into the exponent (`99 996` prints `1.000e5`).
///
/// ```
/// use kron_bignum::{scientific, BigUint};
/// let x = BigUint::from(10u64).pow(12);
/// assert_eq!(scientific(&x), "1.000e12");
/// assert_eq!(scientific(&BigUint::zero()), "0");
/// ```
pub fn scientific(value: &BigUint) -> String {
    if value.is_zero() {
        return "0".to_string();
    }
    let digits = value.to_string();
    let mut exponent = digits.len() - 1;
    // The five leading digits, zero-padded; the fifth rounds the four
    // before it half up.
    let leading = digits
        .bytes()
        .chain(std::iter::repeat(b'0'))
        .take(5)
        .fold(0u32, |acc, digit| acc * 10 + u32::from(digit - b'0'));
    let mut mantissa = (leading + 5) / 10;
    if mantissa == 10_000 {
        mantissa = 1_000;
        exponent += 1;
    }
    format!("{}.{:03}e{exponent}", mantissa / 1_000, mantissa % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_small_values() {
        assert_eq!(grouped("0"), "0");
        assert_eq!(grouped("7"), "7");
        assert_eq!(grouped("42"), "42");
        assert_eq!(grouped("999"), "999");
        assert_eq!(grouped("1000"), "1,000");
    }

    #[test]
    fn grouped_paper_values() {
        assert_eq!(grouped("11177649600"), "11,177,649,600");
        assert_eq!(grouped("1853002140758"), "1,853,002,140,758");
        assert_eq!(grouped("6777007252427"), "6,777,007,252,427");
        assert_eq!(
            grouped("2705963586782877716483871216764"),
            "2,705,963,586,782,877,716,483,871,216,764"
        );
    }

    #[test]
    fn scientific_values() {
        assert_eq!(scientific(&BigUint::from(1u64)), "1.000e0");
        assert_eq!(scientific(&BigUint::from(950u64)), "9.500e2");
        assert_eq!(scientific(&BigUint::from(1_146_617_856_000u64)), "1.147e12");
        let decetta: BigUint = "2705963586782877716483871216764".parse().unwrap();
        assert_eq!(scientific(&decetta), "2.706e30");
        // Rounding is decimal and carries into the exponent.
        assert_eq!(scientific(&BigUint::from(99_996u64)), "1.000e5");
        assert_eq!(scientific(&BigUint::from(999_960_000u64)), "1.000e9");
        assert_eq!(scientific(&BigUint::from(1_234_567u64)), "1.235e6");
        assert_eq!(scientific(&BigUint::from(9_999u64)), "9.999e3");
    }
}
