//! Descriptive statistics over `f64` samples.
//!
//! Every figure in the paper reports order statistics over the per-node
//! local errors ("maximal local error", "median local error"), and Fig. 8
//! averages over 50 runs. This module provides exactly those reductions
//! with NaN-safe, deterministic semantics.

use crate::sum::CompensatedSum;

/// A one-pass + sort summary of a sample of `f64` values.
///
/// NaN values are counted separately and excluded from the order statistics
/// so a single corrupted node (e.g. after an injected bit flip in an
/// exponent) cannot silently poison a whole experiment series.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
    nan_count: usize,
    sum: f64,
}

impl Summary {
    /// Build a summary from any iterator of samples.
    #[allow(clippy::should_implement_trait)] // deliberate inherent name; no FromIterator impl exists
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut sorted: Vec<f64> = Vec::new();
        let mut nan_count = 0usize;
        let mut acc = CompensatedSum::new();
        for x in iter {
            if x.is_nan() {
                nan_count += 1;
            } else {
                acc.add(x);
                sorted.push(x);
            }
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        Summary {
            sorted,
            nan_count,
            sum: acc.value(),
        }
    }

    /// Number of non-NaN samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if no non-NaN samples were supplied.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Number of NaN samples that were filtered out.
    pub fn nan_count(&self) -> usize {
        self.nan_count
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Compensated mean (NaN if empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Median (NaN if empty). For even sample counts, the mean of the two
    /// central order statistics.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolation quantile, `q` in `[0, 1]` (NaN if empty).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The sorted samples (NaNs removed).
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_iter([3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn even_count_median_interpolates() {
        let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn quantiles() {
        let s = Summary::from_iter((0..=100).map(f64::from));
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.25), 25.0);
    }

    #[test]
    fn nan_filtering() {
        let s = Summary::from_iter([1.0, f64::NAN, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.nan_count(), 1);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn empty_summary_is_nan_everywhere() {
        let s = Summary::from_iter(std::iter::empty());
        assert!(s.is_empty());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(s.mean().is_nan());
        assert!(s.median().is_nan());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantile_out_of_range() {
        Summary::from_iter([1.0]).quantile(1.5);
    }
}
