//! Compensated summation kernels.
//!
//! The experiment harness folds thousands-to-millions of `f64` values
//! (per-node estimates, residuals, squared errors). Naive left-to-right
//! summation would contaminate exactly the quantities the paper is about,
//! so every reduction in the harness goes through one of these kernels.

use crate::dd::two_sum;

/// A running Neumaier (improved Kahan–Babuška) compensated sum.
///
/// Error bound: `2·eps + O(n·eps²)` relative — independent of `n` to first
/// order, which is what lets the harness trust error measurements at the
/// `1e-16` level over tens of thousands of nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompensatedSum {
    sum: f64,
    comp: f64,
    count: u64,
}

impl CompensatedSum {
    /// Start an empty sum.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let (s, e) = two_sum(self.sum, x);
        self.sum = s;
        self.comp += e;
        self.count += 1;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// Number of values added.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the added values (NaN if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.value() / self.count as f64
    }

    /// Merge another compensated sum into this one (useful when partial
    /// sums are computed on worker threads).
    #[inline]
    pub fn merge(&mut self, other: &CompensatedSum) {
        let (s, e) = two_sum(self.sum, other.sum);
        self.sum = s;
        self.comp += e + other.comp;
        self.count += other.count;
    }
}

impl Extend<f64> for CompensatedSum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Neumaier-compensated sum of a slice.
pub fn neumaier_sum(values: &[f64]) -> f64 {
    let mut acc = CompensatedSum::new();
    for &v in values {
        acc.add(v);
    }
    acc.value()
}

/// Compensated dot product (each product compensated via FMA residual,
/// running sum via Neumaier).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn compensated_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal-length slices");
    let mut acc = CompensatedSum::new();
    for (&x, &y) in a.iter().zip(b) {
        let p = x * y;
        let e = f64::mul_add(x, y, -p);
        acc.add(p);
        acc.add(e);
    }
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dd::dd_sum;

    #[test]
    fn neumaier_handles_classic_cancellation() {
        // 1 + 1e100 + 1 - 1e100 = 2; naive and Kahan both return 0.
        let v = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(neumaier_sum(&v), 2.0);
    }

    #[test]
    fn compensated_matches_dd_on_random_data() {
        // Deterministic pseudo-random data without pulling rand in: LCG.
        let mut x = 0x12345678u64;
        let mut v: Vec<f64> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e6;
            v.push(f);
        }
        let reference = dd_sum(&v).to_f64();
        let comp = neumaier_sum(&v);
        assert_eq!(
            comp, reference,
            "compensated sum should round-trip the dd reference"
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let v: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e8).collect();
        let mut whole = CompensatedSum::new();
        whole.extend(v.iter().copied());
        let mut a = CompensatedSum::new();
        let mut b = CompensatedSum::new();
        a.extend(v[..500].iter().copied());
        b.extend(v[500..].iter().copied());
        a.merge(&b);
        assert!((a.value() - whole.value()).abs() <= 1e-6 * whole.value().abs().max(1.0));
        assert_eq!(a.count(), 1000);
    }

    #[test]
    fn mean_of_constant() {
        let mut s = CompensatedSum::new();
        s.extend(std::iter::repeat_n(2.5, 17));
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn compensated_dot_exact_cancellation() {
        // x·y where products cancel catastrophically.
        let a = [1e100, 1.0, -1e100];
        let b = [1.0, 3.0, 1.0];
        assert_eq!(compensated_dot(&a, &b), 3.0);
    }
}
