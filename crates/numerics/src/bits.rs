//! Raw bit-level utilities for `f64` values: the fault injector in
//! `gr-netsim` flips individual bits of in-flight payloads to model soft
//! errors (the paper's "bit flips").

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
        assert_eq!(flip_bit(1.0, 0), 1.0 + f64::EPSILON);
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
}
