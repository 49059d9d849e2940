//! `RelErr::of_with_scratch` (selection, reused buffer) against the
//! sort-based `RelErr::of`, bit for bit, on inputs built to trip a
//! selection: ties, ±0, subnormals, infinities and NaNs.

use gr_numerics::{Dd, RelErr};
use proptest::prelude::*;

/// Special values drawn often enough that ties are the rule.
const POOL: [f64; 11] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 4.0,
    1.0,
    -1.0,
    2.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn references() -> [Dd; 5] {
    [
        Dd::ZERO,
        Dd::from_f64(1.0),
        Dd::from_f64(-2.5),
        Dd::from_f64(5e-324),
        Dd::from_f64(1.0) + 1e-25,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each estimate is `POOL[k]`, or the arbitrary finite `x` when `k`
    /// is past the pool (one draw in four).
    #[test]
    fn scratch_summary_is_bitwise_the_sorted_one(
        draws in proptest::collection::vec((0usize..15, -1e6f64..1e6), 0..64),
        r in 0usize..5,
        warm in proptest::collection::vec(-1e3f64..1e3, 0..8),
    ) {
        let est: Vec<f64> = draws
            .iter()
            .map(|&(k, x)| POOL.get(k).copied().unwrap_or(x))
            .collect();
        let r = references()[r];
        // A scratch buffer left dirty by an earlier call must not leak in.
        let mut scratch = warm;
        let a = RelErr::of(est.iter().copied(), r);
        let b = RelErr::of_with_scratch(est.iter().copied(), r, &mut scratch);
        prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
        prop_assert_eq!(a.median.to_bits(), b.median.to_bits());
        prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    }
}
