//! Raw bit-level utilities for `f64` values.
//!
//! Two consumers:
//!
//! * the fault injector in `gr-netsim` flips individual bits of in-flight
//!   payloads to model soft errors (the paper's "bit flips");
//! * tests measure distances between nearly-equal results in ULPs, which is
//!   far more robust than ad-hoc epsilon comparisons.

/// Flip bit `bit` (0 = least-significant significand bit, 63 = sign bit) of
/// an `f64` value.
///
/// # Panics
/// Panics if `bit >= 64`.
#[inline]
pub fn flip_bit(x: f64, bit: u32) -> f64 {
    assert!(bit < 64, "f64 has 64 bits, got index {bit}");
    f64::from_bits(x.to_bits() ^ (1u64 << bit))
}

/// Distance between two finite `f64` values in units-in-the-last-place.
///
/// Uses the standard monotone mapping of IEEE-754 bit patterns onto a signed
/// integer lattice; returns `u64::MAX` if either input is NaN.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn lattice(x: f64) -> i64 {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN.wrapping_sub(b)
        } else {
            b
        }
    }
    lattice(a).abs_diff(lattice(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_sign_bit_negates() {
        assert_eq!(flip_bit(1.5, 63), -1.5);
        assert_eq!(flip_bit(-2.0, 63), 2.0);
    }

    #[test]
    fn flip_low_bit_changes_by_one_ulp() {
        let x = 1.0;
        let y = flip_bit(x, 0);
        assert_eq!(ulp_distance(x, y), 1);
    }

    #[test]
    fn flip_is_involutive() {
        for bit in [0, 7, 31, 52, 60, 63] {
            let x = 123.456;
            assert_eq!(flip_bit(flip_bit(x, bit), bit), x);
        }
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn flip_out_of_range_panics() {
        let _ = flip_bit(1.0, 64);
    }

    #[test]
    fn flip_exponent_bit_is_catastrophic() {
        // Flipping a high exponent bit changes the magnitude wildly — this
        // is why the paper cares about bit-flip tolerance.
        let x = 1.0;
        let y = flip_bit(x, 62);
        assert!(y.abs() > 1e300 || y.abs() < 1e-300);
    }

    #[test]
    fn ulp_distance_across_zero() {
        let a = f64::from_bits(1); // smallest positive subnormal
        let b = -f64::from_bits(1);
        assert_eq!(ulp_distance(a, b), 2);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
    }

    #[test]
    fn ulp_distance_nan() {
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
    }
}
