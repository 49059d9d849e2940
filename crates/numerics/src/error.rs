//! Relative-error metrics against high-precision references.
//!
//! The paper's accuracy requirement (Sec. II-B): the approximate aggregates
//! `r̃_i` of an all-to-all reduction with exact result `r` should satisfy
//! `max_i |(r̃_i − r)/r| ≤ c(n)·ε_mach`. These helpers compute exactly that
//! quantity, with the exact result carried as a [`Dd`].

use crate::dd::Dd;
use crate::stats::Summary;
use crate::sum::CompensatedSum;

/// Relative error of `approx` against a double-double reference.
///
/// A NaN estimate (e.g. a push-sum node whose weight is still zero, or a
/// node corrupted by an injected bit flip) counts as *infinite* error — it
/// is unusable, and convergence checks must see that, not silently skip it.
///
/// If the reference is exactly zero the *absolute* error is returned
/// instead (the conventional fallback; the paper's workloads never aggregate
/// to exactly zero, but fault-injection tests can).
pub fn relative_error(approx: f64, reference: Dd) -> f64 {
    if !approx.is_finite() {
        // NaN or ±∞: the estimate is destroyed. (±∞ must be caught here:
        // Dd division of an infinite numerator produces NaN, which would
        // otherwise *vanish* in downstream `f64::max` folds.)
        return f64::INFINITY;
    }
    let diff = (Dd::from_f64(approx) - reference).abs();
    if reference.is_zero() {
        diff.to_f64()
    } else {
        (diff / reference.abs()).to_f64()
    }
}

/// Per-population relative-error summary: the "maximal local error" and
/// "median local error" series plotted throughout the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelErr {
    /// `max_i |(r̃_i − r)/r|`
    pub max: f64,
    /// median over nodes of the local relative error
    pub median: f64,
    /// mean over nodes of the local relative error
    pub mean: f64,
}

impl RelErr {
    /// Compute the error summary of a set of local estimates against a
    /// common reference.
    pub fn of<I: IntoIterator<Item = f64>>(estimates: I, reference: Dd) -> RelErr {
        let s = Summary::from_iter(estimates.into_iter().map(|e| relative_error(e, reference)));
        RelErr {
            max: s.max(),
            median: s.median(),
            mean: s.mean(),
        }
    }

    /// As [`RelErr::of`], but in the caller-supplied scratch buffer
    /// instead of a fresh one, and by selection instead of a full sort —
    /// the per-sample path of the run loop calls this every few rounds and
    /// stays allocation-free once the buffer is warm. Bitwise-identical to
    /// [`RelErr::of`]: it replicates the [`Summary`] NaN filter, its
    /// compensated mean, its linear-interpolation quantile (`pos =
    /// q·(n−1)`, floor/ceil bracket, lerp) operation for operation.
    pub fn of_with_scratch<I: IntoIterator<Item = f64>>(
        estimates: I,
        reference: Dd,
        scratch: &mut Vec<f64>,
    ) -> RelErr {
        scratch.clear();
        let mut acc = CompensatedSum::new();
        for x in estimates.into_iter().map(|e| relative_error(e, reference)) {
            if !x.is_nan() {
                acc.add(x);
                scratch.push(x);
            }
        }
        let n = scratch.len();
        let mean = if n == 0 {
            f64::NAN
        } else {
            acc.value() / n as f64
        };
        let (max, median) = max_and_median(scratch);
        RelErr { max, median, mean }
    }
}

/// `(max, median)` of the NaN-free `xs`, as [`Summary`] reads them off
/// its sort, but by selection: O(n) instead of a sort. Leaves `xs`
/// permuted.
fn max_and_median(xs: &mut [f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if n == 1 {
        return (max, xs[0]);
    }
    let pos = 0.5 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let by = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaNs were filtered");
    let (_, &mut at_lo, above) = xs.select_nth_unstable_by(lo, by);
    // `above` holds the order statistics past `lo`, so its least element
    // is the one at `lo + 1`.
    let at_hi = if hi == lo {
        at_lo
    } else {
        above.iter().copied().fold(f64::INFINITY, f64::min)
    };
    (max, at_lo * (1.0 - frac) + at_hi * frac)
}

/// Max over nodes of the local relative error — the headline metric of
/// Figs. 3 and 6.
pub fn max_relative_error<I: IntoIterator<Item = f64>>(estimates: I, reference: Dd) -> f64 {
    RelErr::of(estimates, reference).max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimate_has_zero_error() {
        assert_eq!(relative_error(2.0, Dd::from_f64(2.0)), 0.0);
    }

    #[test]
    fn one_ulp_off_is_about_eps() {
        let r = Dd::from_f64(1.0);
        let e = relative_error(1.0 + f64::EPSILON, r);
        assert!((e - f64::EPSILON).abs() < 1e-30);
    }

    #[test]
    fn zero_reference_falls_back_to_absolute() {
        assert_eq!(relative_error(1e-3, Dd::ZERO), 1e-3);
    }

    #[test]
    fn relerr_summary() {
        let r = Dd::from_f64(10.0);
        let e = RelErr::of([10.0, 11.0, 9.0], r);
        assert!((e.max - 0.1).abs() < 1e-15);
        assert!((e.median - 0.1).abs() < 1e-15);
    }

    #[test]
    fn max_metric_matches_by_hand() {
        let r = Dd::from_f64(4.0);
        let m = max_relative_error([4.0, 4.4], r);
        assert!((m - 0.1).abs() < 1e-15);
    }

    #[test]
    fn nan_estimate_counts_as_infinite_error() {
        let r = Dd::from_f64(1.0);
        let e = RelErr::of([1.0, f64::NAN, 2.0], r);
        assert_eq!(e.max, f64::INFINITY);
        assert_eq!(e.median, 1.0);
    }

    #[test]
    fn infinite_estimate_counts_as_infinite_error() {
        // Regression: Dd division of ±∞ yields NaN, which f64::max folds
        // would silently drop — a diverged run must read as error = ∞.
        let r = Dd::from_f64(0.5);
        assert_eq!(relative_error(f64::INFINITY, r), f64::INFINITY);
        assert_eq!(relative_error(f64::NEG_INFINITY, r), f64::INFINITY);
    }

    #[test]
    fn reference_below_f64_resolution() {
        // reference = 1 + 1e-25: an estimate of exactly 1.0 has relative
        // error ~1e-25, which plain f64 math could not resolve.
        let r = Dd::from_f64(1.0) + 1e-25;
        let e = relative_error(1.0, r);
        assert!((e - 1e-25).abs() < 1e-35, "got {e}");
    }

    #[test]
    fn scratch_variant_is_bitwise_identical() {
        let cases: [&[f64]; 5] = [
            &[],
            &[3.5],
            &[1.0, f64::NAN, 2.0, -7.25, f64::INFINITY],
            &[10.0, 11.0, 9.0, 10.5],
            &[0.0, -0.0, 1e-300, 1e300],
        ];
        let refs = [Dd::ZERO, Dd::from_f64(10.0), Dd::from_f64(-2.5)];
        let mut scratch = Vec::new();
        for est in cases {
            for r in refs {
                let a = RelErr::of(est.iter().copied(), r);
                let b = RelErr::of_with_scratch(est.iter().copied(), r, &mut scratch);
                assert_eq!(a.max.to_bits(), b.max.to_bits());
                assert_eq!(a.median.to_bits(), b.median.to_bits());
                assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            }
        }
    }
}
