//! Double-double arithmetic.
//!
//! A [`Dd`] represents a real number as an unevaluated sum `hi + lo` of two
//! `f64` values with `|lo| <= ulp(hi)/2`. This gives roughly 106 bits of
//! significand (~31 decimal digits) — ample headroom for computing reference
//! values against which `f64` experiments are scored, and for checking the
//! paper's claim that push-flow and push-cancel-flow are *exactly*
//! equivalent in precise-enough arithmetic.
//!
//! The algorithms are the classical error-free transformations of Dekker and
//! Knuth (`two_sum`, `two_prod`) as popularised by Hida, Li & Bailey's QD
//! library. `two_prod` uses the fused multiply-add, `f64::mul_add`. That
//! is one instruction only where the target enables FMA (aarch64, or x86-64
//! code compiled with the `fma` target feature). On the baseline x86-64
//! target it is an out-of-line call: the disassembly shows `fma`, a
//! compiler-builtins function that jumps through a pointer resolved at
//! run time to `fma_with_fma` on CPUs with FMA, to a software fallback
//! otherwise. Every path is correctly rounded, so results are identical
//! either way; only the cost differs. A hot loop that needs the
//! instruction compiles itself a second time under
//! `#[target_feature(enable = "fma")]` and picks that build at run time,
//! as `gr_dmgs::residual` does.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error-free transformation: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly. No assumption on the magnitudes of `a` and `b`
/// (Knuth's TwoSum, 6 flops).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free transformation assuming `|a| >= |b|` (Dekker's FastTwoSum,
/// 3 flops). The caller must guarantee the magnitude ordering (or that
/// either value is zero); otherwise the error term is wrong.
#[inline]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Error-free transformation: returns `(p, e)` with `p = fl(a * b)` and
/// `a * b = p + e` exactly, using FMA.
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = f64::mul_add(a, b, -p);
    (p, e)
}

/// A double-double number: the unevaluated, non-overlapping sum `hi + lo`.
///
/// ```
/// use gr_numerics::Dd;
/// // 0.1 + 0.2 != 0.3 in f64; in Dd the discrepancy is resolvable:
/// let x = Dd::from_f64(0.1) + Dd::from_f64(0.2);
/// let err = (x - Dd::from_f64(0.3)).abs();
/// assert!(err.to_f64() > 0.0);        // the f64 inputs really differ
/// assert!(err.to_f64() < 1e-16);      // ... by less than one ulp of 0.3
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// One.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };

    /// Construct from a single `f64` (exact).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Dd { hi: x, lo: 0.0 }
    }

    /// Construct from an unnormalised pair `a + b`.
    #[inline]
    pub fn from_sum(a: f64, b: f64) -> Self {
        let (hi, lo) = two_sum(a, b);
        Dd { hi, lo }
    }

    /// The high (leading) component.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// The low (trailing) component.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Round to the nearest `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    /// `true` if the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.hi == 0.0 && self.lo == 0.0
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.hi.is_nan() || self.lo.is_nan()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        if self.hi < 0.0 || (self.hi == 0.0 && self.lo < 0.0) {
            -self
        } else {
            self
        }
    }

    /// Square root via one Newton step on the `f64` seed (Karp & Markstein).
    /// Accurate to the full double-double precision for finite positive
    /// inputs; returns NaN for negative inputs and zero for zero.
    pub fn sqrt(self) -> Self {
        if self.is_zero() {
            return Dd::ZERO;
        }
        if self.hi < 0.0 {
            return Dd::from_f64(f64::NAN);
        }
        let x = 1.0 / self.hi.sqrt();
        let ax = self.hi * x;
        let ax_dd = Dd::from_f64(ax);
        let err = (self - ax_dd * ax_dd).hi;
        Dd::from_sum(ax, err * (x * 0.5))
    }
}

impl From<f64> for Dd {
    #[inline]
    fn from(x: f64) -> Self {
        Dd::from_f64(x)
    }
}

impl From<u32> for Dd {
    #[inline]
    fn from(x: u32) -> Self {
        Dd::from_f64(x as f64)
    }
}

impl From<i64> for Dd {
    /// Exact for all `i64` values (split through two 32-bit halves).
    fn from(x: i64) -> Self {
        let hi = (x >> 32) as f64 * 4294967296.0;
        let lo = (x & 0xffff_ffff) as f64;
        Dd::from_sum(hi, lo)
    }
}

impl Neg for Dd {
    type Output = Dd;
    #[inline]
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Add for Dd {
    type Output = Dd;
    /// Full-accuracy double-double addition (the "sloppy" variant is not
    /// used anywhere in this workspace).
    #[inline]
    fn add(self, rhs: Dd) -> Dd {
        let (s1, e1) = two_sum(self.hi, rhs.hi);
        let (s2, e2) = two_sum(self.lo, rhs.lo);
        let lo = e1 + s2;
        let (s1, lo) = quick_two_sum(s1, lo);
        let lo = lo + e2;
        let (hi, lo) = quick_two_sum(s1, lo);
        Dd { hi, lo }
    }
}

impl Add<f64> for Dd {
    type Output = Dd;
    #[inline]
    fn add(self, rhs: f64) -> Dd {
        let (s, e) = two_sum(self.hi, rhs);
        let lo = e + self.lo;
        let (hi, lo) = quick_two_sum(s, lo);
        Dd { hi, lo }
    }
}

impl Sub for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, rhs: Dd) -> Dd {
        self + (-rhs)
    }
}

impl Sub<f64> for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, rhs: f64) -> Dd {
        self + (-rhs)
    }
}

impl Mul for Dd {
    type Output = Dd;
    #[inline]
    fn mul(self, rhs: Dd) -> Dd {
        let (p, e) = two_prod(self.hi, rhs.hi);
        let e = e + (self.hi * rhs.lo + self.lo * rhs.hi);
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }
}

impl Mul<f64> for Dd {
    type Output = Dd;
    #[inline]
    fn mul(self, rhs: f64) -> Dd {
        let (p, e) = two_prod(self.hi, rhs);
        let e = e + self.lo * rhs;
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }
}

impl Div for Dd {
    type Output = Dd;
    fn div(self, rhs: Dd) -> Dd {
        // Long division: two quotient refinement steps.
        let q1 = self.hi / rhs.hi;
        let r = self - rhs * q1;
        let q2 = r.hi / rhs.hi;
        let r = r - rhs * q2;
        let q3 = r.hi / rhs.hi;
        let (hi, lo) = quick_two_sum(q1, q2);
        Dd { hi, lo } + q3
    }
}

impl Div<f64> for Dd {
    type Output = Dd;
    #[inline]
    fn div(self, rhs: f64) -> Dd {
        self / Dd::from_f64(rhs)
    }
}

impl AddAssign for Dd {
    #[inline]
    fn add_assign(&mut self, rhs: Dd) {
        *self = *self + rhs;
    }
}
impl AddAssign<f64> for Dd {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}
impl SubAssign for Dd {
    #[inline]
    fn sub_assign(&mut self, rhs: Dd) {
        *self = *self - rhs;
    }
}
impl MulAssign for Dd {
    #[inline]
    fn mul_assign(&mut self, rhs: Dd) {
        *self = *self * rhs;
    }
}
impl DivAssign for Dd {
    #[inline]
    fn div_assign(&mut self, rhs: Dd) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Dd {
    fn partial_cmp(&self, other: &Dd) -> Option<Ordering> {
        match self.hi.partial_cmp(&other.hi) {
            Some(Ordering::Equal) => self.lo.partial_cmp(&other.lo),
            ord => ord,
        }
    }
}

impl Sum for Dd {
    fn sum<I: Iterator<Item = Dd>>(iter: I) -> Dd {
        iter.fold(Dd::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Dd> for Dd {
    fn sum<I: Iterator<Item = &'a Dd>>(iter: I) -> Dd {
        iter.fold(Dd::ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for Dd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display the rounded f64; debug formatting shows both components.
        write!(f, "{}", self.to_f64())
    }
}

/// Sum a slice of `f64` values exactly into a double-double accumulator.
pub fn dd_sum(values: &[f64]) -> Dd {
    let mut acc = Dd::ZERO;
    for &v in values {
        acc += v;
    }
    acc
}

/// Dot product of two `f64` slices accumulated in double-double precision.
///
/// Each elementwise product is formed with an error-free `two_prod`, so the
/// result carries ~2e-32 relative error — effectively exact relative to the
/// `f64` data.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dd_dot(a: &[f64], b: &[f64]) -> Dd {
    assert_eq!(a.len(), b.len(), "dot product of unequal-length slices");
    let mut acc = Dd::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        let (p, e) = two_prod(x, y);
        acc += Dd::from_sum(p, e);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Dd, b: Dd, tol: f64) {
        let d = (a - b).abs();
        let scale = b.abs().to_f64().max(1.0);
        assert!(
            d.to_f64() <= tol * scale,
            "dd values differ: {a:?} vs {b:?} (diff {})",
            d.to_f64()
        );
    }

    #[test]
    fn two_sum_is_error_free() {
        let a = 1.0;
        let b = 1e-30;
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-30);
    }

    #[test]
    fn two_prod_is_error_free() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 - f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a*b = 1 - eps^2 exactly; p rounds to 1.0, e must capture -eps^2.
        assert_eq!(p, 1.0);
        assert_eq!(e, -f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn addition_keeps_tiny_terms() {
        let x = Dd::from_f64(1.0) + 1e-25;
        assert_eq!(x.hi(), 1.0);
        assert_eq!(x.lo(), 1e-25);
        let y = x - 1.0;
        assert_eq!(y.to_f64(), 1e-25);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Dd::from_f64(3.0) + 1e-20;
        let b = Dd::from_f64(7.0) - 3e-21;
        let c = a * b / b;
        assert_close(c, a, 1e-30);
    }

    #[test]
    fn sqrt_of_two_squares() {
        let two = Dd::from_f64(2.0);
        let r = two.sqrt();
        assert_close(r * r, two, 1e-31);
    }

    #[test]
    fn sqrt_edge_cases() {
        assert!(Dd::from_f64(-1.0).sqrt().is_nan());
        assert!(Dd::ZERO.sqrt().is_zero());
    }

    #[test]
    fn i64_conversion_exact() {
        let v: i64 = (1 << 62) + 12345;
        let d = Dd::from(v);
        // hi+lo must reconstruct the integer exactly.
        let back = d.hi() as i128 + d.lo() as i128;
        assert_eq!(back, v as i128);
    }

    #[test]
    fn harmonic_series_beats_f64() {
        // Sum 1/k for k=1..=1e5 in f64 vs Dd; compare against Dd of the
        // reversed (better-conditioned ascending) order.
        let n = 100_000u32;
        let mut f = 0.0f64;
        let mut d = Dd::ZERO;
        for k in 1..=n {
            f += 1.0 / k as f64;
            d += Dd::ONE / Dd::from(k);
        }
        let mut d_rev = Dd::ZERO;
        for k in (1..=n).rev() {
            d_rev += Dd::ONE / Dd::from(k);
        }
        let dd_err = (d - d_rev).abs().to_f64();
        let f_err = (Dd::from_f64(f) - d_rev).abs().to_f64();
        assert!(dd_err < 1e-25, "dd error {dd_err}");
        assert!(f_err > dd_err * 1e6, "f64 should be much worse: {f_err}");
    }

    #[test]
    fn ordering() {
        let a = Dd::from_f64(1.0);
        let b = Dd::from_f64(1.0) + 1e-30;
        assert!(a < b);
        assert!(b > a);
        assert!(a <= a);
    }

    #[test]
    fn dd_dot_matches_exact_small_case() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dd_dot(&a, &b).to_f64(), 32.0);
    }

    #[test]
    fn abs_and_neg() {
        let x = Dd::from_f64(-2.0) - 1e-22;
        assert!(x.abs() > Dd::from_f64(2.0));
        assert_eq!((-x).to_f64(), x.abs().to_f64());
    }
}
