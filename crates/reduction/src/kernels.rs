//! Componentwise kernels over flow-bank slices, written once and compiled
//! twice.
//!
//! Every kernel here is *componentwise*: component `k` of the output
//! depends only on component `k` of the inputs, with no cross-lane
//! reduction and therefore no reassociation. [`scalar`] holds the only
//! source: plain iterator-zip loops. The x86-64 vector path is the same
//! source compiled a second time, inside `#[target_feature(enable =
//! "avx2")]` wrappers that let the compiler vectorize each loop with
//! 4×`f64` AVX2 registers. Both builds perform exactly the same IEEE-754
//! operations on exactly the same values, because
//!
//! * Rust never enables fast-math, so no operation is reassociated;
//! * `-x` compiles to a sign-bit flip, exact for every bit pattern
//!   including NaN;
//! * no kernel has a multiply feeding an add, so nothing can be
//!   contracted to an FMA.
//!
//! The golden-schedule hashes and the `kernel_equiv` proptests pin the
//! two builds to each other bit for bit.
//!
//! The top-level functions dispatch on the CPU: the AVX2 build when
//! `is_x86_feature_detected!("avx2")` holds (std caches the probe), the
//! baseline build otherwise. The baseline build is vectorized too where
//! the target's baseline ISA allows it (SSE2 on x86-64, NEON on aarch64).
//! [`simd`] exposes the AVX2 build directly for the A/B benches and
//! equivalence tests.

/// Components per AVX2 vector (4×`f64`). Slices shorter than this take
/// the baseline build without a dispatch branch.
pub const LANES: usize = 4;

/// `true` iff this CPU runs the AVX2 build of the kernels (x86-64 with
/// AVX2; the detection result is cached by std after the first call).
#[inline(always)]
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the build the dispatching kernels run, for reports: `"avx2"`
/// or `"baseline"`.
pub fn active_path() -> &'static str {
    if simd_supported() {
        "avx2"
    } else {
        "baseline"
    }
}

// ---- dispatching kernels ----------------------------------------------
//
// These are the entry points the protocols use. Length agreement is a
// debug assertion only — every loop stops at its shortest operand, so a
// release-mode mismatch truncates instead of reading out of bounds.
// Dispatch is whole-kernel — one cached-flag branch per call — and
// slices shorter than one AVX2 vector skip it entirely.

macro_rules! dispatch {
    ($len:expr, $name:ident($($arg:expr),*)) => {{
        // Below one AVX2 vector there is no vector work at all — the AVX2
        // build would pay the dispatch branch plus a non-inlinable
        // `target_feature` call for nothing. Scalar (dim-1) payloads live
        // entirely on this fast path, where the `#[inline(always)]`
        // baseline kernel collapses into the caller.
        if $len < LANES {
            return scalar::$name($($arg),*);
        }
        #[cfg(target_arch = "x86_64")]
        if simd_supported() {
            // SAFETY: `simd_supported` confirmed AVX2 at runtime.
            return unsafe { avx2::$name($($arg),*) };
        }
        scalar::$name($($arg),*)
    }};
}

/// `dst[k] += src[k]` — the accumulate kernel (message receipt into a
/// flow slot, estimate accumulation).
#[inline(always)]
pub fn add(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(dst.len(), add(dst, src))
}

/// `dst[k] -= src[k]`.
#[inline(always)]
pub fn sub(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(dst.len(), sub(dst, src))
}

/// `dst[k] = -src[k]` — the overwrite-with-negation a receiver performs
/// on its mirror flow (sign-bit XOR: exact, never rounds).
#[inline(always)]
pub fn store_neg(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(dst.len(), store_neg(dst, src))
}

/// `dst[k] -= a[k] + b[k]` — the fused form of `delta = a + b;
/// dst -= delta` (two rounded operations per component, unchanged).
#[inline(always)]
pub fn sub_sum(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    dispatch!(dst.len(), sub_sum(dst, a, b))
}

/// `dst[k] *= c` — payload scaling.
#[inline(always)]
pub fn scale(dst: &mut [f64], c: f64) {
    dispatch!(dst.len(), scale(dst, c))
}

/// `dst[k] = -dst[k]` — in-place negation (sign-bit XOR: exact for every
/// bit pattern including NaN, unlike multiplication by −1).
#[inline(always)]
pub fn neg(dst: &mut [f64]) {
    dispatch!(dst.len(), neg(dst))
}

/// `p[k] += f[k]; b[k] += f[k]` — the hardened-mode single-slot fold:
/// one flow accumulated into both ϕ and the base field.
#[inline(always)]
pub fn fold1(p: &mut [f64], b: &mut [f64], f: &[f64]) {
    debug_assert_eq!(p.len(), f.len());
    debug_assert_eq!(b.len(), f.len());
    dispatch!(f.len(), fold1(p, b, f))
}

/// `t = f1[k] + f2[k]; p[k] += t; b[k] += t` — the hardened-mode
/// whole-arc fold: both flow slots summed once, accumulated into both
/// ϕ and the base field.
#[inline(always)]
pub fn fold2(p: &mut [f64], b: &mut [f64], f1: &[f64], f2: &[f64]) {
    debug_assert_eq!(p.len(), f1.len());
    debug_assert_eq!(p.len(), f2.len());
    debug_assert_eq!(b.len(), f1.len());
    dispatch!(f1.len(), fold2(p, b, f1, f2))
}

/// `b[k] += f1[k] + f2[k]` — the eager-mode whole-arc fold (ϕ already
/// tracks the running sum, only the base field moves).
#[inline(always)]
pub fn add_sum(b: &mut [f64], f1: &[f64], f2: &[f64]) {
    debug_assert_eq!(b.len(), f1.len());
    debug_assert_eq!(b.len(), f2.len());
    dispatch!(f1.len(), add_sum(b, f1, f2))
}

/// `dst -= row` for each `dst.len()`-sized row of `rows`, in row order —
/// the PF estimate kernel over a node's whole arc range.
#[inline(always)]
pub fn sub_rows(dst: &mut [f64], rows: &[f64]) {
    assert!(!dst.is_empty() && rows.len() % dst.len() == 0);
    dispatch!(dst.len(), sub_rows(dst, rows))
}

/// For each `fields * dst.len()`-sized arc group of `rows`, subtract the
/// group's first two fields from `dst` in field order — the PCF estimate
/// kernel over a node's whole arc range.
#[inline(always)]
pub fn sub_leading2_rows(dst: &mut [f64], rows: &[f64], fields: usize) {
    assert!(fields >= 2);
    assert!(!dst.is_empty() && rows.len() % (fields * dst.len()) == 0);
    dispatch!(dst.len(), sub_leading2_rows(dst, rows, fields))
}

/// `true` iff `a[k] == -b[k]` for every component (IEEE semantics:
/// signed zeros compare equal, NaN never).
#[inline(always)]
pub fn is_neg(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    dispatch!(a.len(), is_neg(a, b))
}

// ---- the kernel source ------------------------------------------------

/// The kernels' only source: plain iterator-zip loops, each stopping at
/// its shortest operand. Called directly they are the baseline build;
/// [`simd`] is the same source compiled for AVX2. Public so the
/// equivalence proptests and the A/B benches can pin the two builds
/// against each other whatever the dispatch picks.
pub mod scalar {
    /// `dst[k] += src[k]`.
    #[inline(always)]
    pub fn add(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }

    /// `dst[k] -= src[k]`.
    #[inline(always)]
    pub fn sub(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d -= *s;
        }
    }

    /// `dst[k] = -src[k]`.
    #[inline(always)]
    pub fn store_neg(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = -*s;
        }
    }

    /// `dst[k] -= a[k] + b[k]`.
    #[inline(always)]
    pub fn sub_sum(dst: &mut [f64], a: &[f64], b: &[f64]) {
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            *d -= *x + *y;
        }
    }

    /// `dst[k] *= c`.
    #[inline(always)]
    pub fn scale(dst: &mut [f64], c: f64) {
        for d in dst {
            *d *= c;
        }
    }

    /// `dst[k] = -dst[k]`.
    #[inline(always)]
    pub fn neg(dst: &mut [f64]) {
        for d in dst {
            *d = -*d;
        }
    }

    /// `p[k] += f[k]; b[k] += f[k]`.
    #[inline(always)]
    pub fn fold1(p: &mut [f64], b: &mut [f64], f: &[f64]) {
        for ((p, b), f) in p.iter_mut().zip(b).zip(f) {
            *p += *f;
            *b += *f;
        }
    }

    /// `t = f1[k] + f2[k]; p[k] += t; b[k] += t`.
    #[inline(always)]
    pub fn fold2(p: &mut [f64], b: &mut [f64], f1: &[f64], f2: &[f64]) {
        for (((p, b), x), y) in p.iter_mut().zip(b).zip(f1).zip(f2) {
            let t = *x + *y;
            *p += t;
            *b += t;
        }
    }

    /// `b[k] += f1[k] + f2[k]`.
    #[inline(always)]
    pub fn add_sum(b: &mut [f64], f1: &[f64], f2: &[f64]) {
        for ((b, x), y) in b.iter_mut().zip(f1).zip(f2) {
            *b += *x + *y;
        }
    }

    /// `dst -= row` per `dst.len()`-sized row, in row order.
    #[inline(always)]
    pub fn sub_rows(dst: &mut [f64], rows: &[f64]) {
        for row in rows.chunks_exact(dst.len()) {
            sub(dst, row);
        }
    }

    /// Subtract fields 0 and 1 of each `fields * dst.len()`-sized group.
    #[inline(always)]
    pub fn sub_leading2_rows(dst: &mut [f64], rows: &[f64], fields: usize) {
        let dim = dst.len();
        for group in rows.chunks_exact(fields * dim) {
            sub(dst, &group[..dim]);
            sub(dst, &group[dim..2 * dim]);
        }
    }

    /// `all(a[k] == -b[k])`.
    #[inline(always)]
    pub fn is_neg(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(x, y)| *x == -*y)
    }
}

// ---- the AVX2 build ---------------------------------------------------

/// Compiles each listed [`scalar`] kernel a second time with AVX2 on:
/// the private `avx2::*` wrappers the dispatch calls, and the asserting
/// [`simd`] entry points. `#[inline(always)]` on the source is what makes
/// this one source: each loop is inlined into its `target_feature`
/// wrapper and vectorized there.
macro_rules! avx2_build {
    ($(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        #[cfg(target_arch = "x86_64")]
        mod avx2 {$(
            /// # Safety
            ///
            /// The CPU must support AVX2.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                super::scalar::$name($($arg),*)
            }
        )*}

        /// The AVX2 build, callable directly (panics if the CPU lacks
        /// AVX2). The A/B benches and the `kernel_equiv` proptests use it
        /// to pin the AVX2 build against [`scalar`] at every length,
        /// including the short ones dispatch never sends there. On
        /// targets other than x86-64 these delegate to [`scalar`].
        pub mod simd {$(
            #[inline]
            pub fn $name($($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                {
                    assert!(
                        super::simd_supported(),
                        "SIMD kernel path requires AVX2 on x86_64"
                    );
                    // SAFETY: AVX2 availability asserted above.
                    unsafe { super::avx2::$name($($arg),*) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    super::scalar::$name($($arg),*)
                }
            }
        )*}
    };
}

avx2_build! {
    fn add(dst: &mut [f64], src: &[f64]);
    fn sub(dst: &mut [f64], src: &[f64]);
    fn store_neg(dst: &mut [f64], src: &[f64]);
    fn sub_sum(dst: &mut [f64], a: &[f64], b: &[f64]);
    fn scale(dst: &mut [f64], c: f64);
    fn neg(dst: &mut [f64]);
    fn fold1(p: &mut [f64], b: &mut [f64], f: &[f64]);
    fn fold2(p: &mut [f64], b: &mut [f64], f1: &[f64], f2: &[f64]);
    fn add_sum(b: &mut [f64], f1: &[f64], f2: &[f64]);
    fn sub_rows(dst: &mut [f64], rows: &[f64]);
    fn sub_leading2_rows(dst: &mut [f64], rows: &[f64], fields: usize);
    fn is_neg(a: &[f64], b: &[f64]) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_mode_is_cached_and_consistent() {
        let first = simd_supported();
        assert_eq!(simd_supported(), first);
        assert_eq!(active_path(), if first { "avx2" } else { "baseline" });
    }

    #[test]
    fn forced_simd_matches_scalar_on_remainder_dims() {
        // Quick smoke across the lane boundary; the exhaustive sweep
        // lives in tests/kernel_equiv.rs.
        for dim in [1, 3, 4, 5, 7, 8, 16, 67] {
            let src: Vec<f64> = (0..dim).map(|k| (k as f64) * 0.25 - 3.0).collect();
            let mut a: Vec<f64> = (0..dim).map(|k| (k as f64).sin()).collect();
            let mut b = a.clone();
            simd::add(&mut a, &src);
            scalar::add(&mut b, &src);
            assert_eq!(a, b, "dim {dim}");
        }
    }

    #[test]
    fn fold_kernels_match_reference_loops() {
        let f1: Vec<f64> = (0..7).map(|k| k as f64 * 0.3).collect();
        let f2: Vec<f64> = (0..7).map(|k| 1.0 - k as f64).collect();
        let mut p = vec![1.0; 7];
        let mut b = vec![-2.0; 7];
        fold2(&mut p, &mut b, &f1, &f2);
        for k in 0..7 {
            let t = f1[k] + f2[k];
            assert_eq!(p[k].to_bits(), (1.0 + t).to_bits());
            assert_eq!(b[k].to_bits(), (-2.0 + t).to_bits());
        }
        let mut b2 = vec![-2.0; 7];
        add_sum(&mut b2, &f1, &f2);
        assert_eq!(b, b2);
        let mut p = vec![0.5; 5];
        let mut b = vec![0.25; 5];
        fold1(&mut p, &mut b, &f1[..5]);
        for k in 0..5 {
            assert_eq!(p[k], 0.5 + f1[k]);
            assert_eq!(b[k], 0.25 + f1[k]);
        }
    }
}
