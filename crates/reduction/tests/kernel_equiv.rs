//! AVX2 build ≡ baseline build equivalence for the flow-bank kernels.
//!
//! Both builds compile the same componentwise source, so the AVX2 build
//! must be *byte* identical to the baseline build — not approximately
//! equal. Every comparison here is on `f64::to_bits`, across dims 1..=67
//! (short lengths, whole vectors and every remainder shape of the
//! compiler's vector loops) and both FlowBank field counts (PF = 1
//! field, PCF = 4 fields) for the row kernels.
//!
//! On hardware without AVX2 `kernels::simd` delegates to the baseline
//! build and the suite degenerates to a self-check.

use gr_reduction::kernels::{self, scalar, simd};
use proptest::prelude::*;

/// Deterministic splitmix64-derived components. Every 16th slot is a
/// sign-sensitive or boundary special (±0.0, ±∞, denormal, ±huge) so
/// block and remainder lanes both see them.
fn gen_vec(len: usize, mut seed: u64) -> Vec<f64> {
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        -f64::MAX,
    ];
    (0..len)
        .map(|i| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if i % 16 == 15 {
                SPECIALS[(z % 8) as usize]
            } else {
                (z as f64 / u64::MAX as f64 - 0.5) * 2e12
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn two_arg_kernels_simd_match_scalar(dim in 1usize..=67, seed in 0u64..u64::MAX) {
        let d = gen_vec(dim, seed);
        let s = gen_vec(dim, seed.rotate_left(13));
        // add
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::add(&mut a, &s);
        scalar::add(&mut b, &s);
        prop_assert_eq!(bits(&a), bits(&b));
        // sub
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::sub(&mut a, &s);
        scalar::sub(&mut b, &s);
        prop_assert_eq!(bits(&a), bits(&b));
        // store_neg
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::store_neg(&mut a, &s);
        scalar::store_neg(&mut b, &s);
        prop_assert_eq!(bits(&a), bits(&b));
        // scale / neg
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::scale(&mut a, 0.7418);
        scalar::scale(&mut b, 0.7418);
        prop_assert_eq!(bits(&a), bits(&b));
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::neg(&mut a);
        scalar::neg(&mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        // is_neg: arbitrary input (almost always false) ...
        prop_assert_eq!(simd::is_neg(&d, &s), scalar::is_neg(&d, &s));
        // ... and a constructed all-negated pair (true unless ±∞/NaN mix).
        let negs: Vec<f64> = d.iter().map(|x| -x).collect();
        prop_assert_eq!(simd::is_neg(&d, &negs), scalar::is_neg(&d, &negs));
        prop_assert!(scalar::is_neg(&d, &negs));
    }

    #[test]
    fn three_arg_kernels_simd_match_scalar(dim in 1usize..=67, seed in 0u64..u64::MAX) {
        let d = gen_vec(dim, seed);
        let x = gen_vec(dim, seed.rotate_left(7));
        let y = gen_vec(dim, seed.rotate_left(29));
        // sub_sum
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::sub_sum(&mut a, &x, &y);
        scalar::sub_sum(&mut b, &x, &y);
        prop_assert_eq!(bits(&a), bits(&b));
        // add_sum
        let (mut a, mut b) = (d.clone(), d.clone());
        simd::add_sum(&mut a, &x, &y);
        scalar::add_sum(&mut b, &x, &y);
        prop_assert_eq!(bits(&a), bits(&b));
        // fold1 (two destinations, one source)
        let (mut p1, mut b1) = (d.clone(), x.clone());
        let (mut p2, mut b2) = (d.clone(), x.clone());
        simd::fold1(&mut p1, &mut b1, &y);
        scalar::fold1(&mut p2, &mut b2, &y);
        prop_assert_eq!(bits(&p1), bits(&p2));
        prop_assert_eq!(bits(&b1), bits(&b2));
        // fold2 (two destinations, two sources)
        let (mut p1, mut b1) = (d.clone(), d.clone());
        let (mut p2, mut b2) = (d.clone(), d.clone());
        simd::fold2(&mut p1, &mut b1, &x, &y);
        scalar::fold2(&mut p2, &mut b2, &x, &y);
        prop_assert_eq!(bits(&p1), bits(&p2));
        prop_assert_eq!(bits(&b1), bits(&b2));
    }

    /// Row kernels at both FlowBank field counts: PF banks have 1 field
    /// per arc (`sub_rows`), PCF banks have 4 (`sub_leading2_rows`).
    #[test]
    fn row_kernels_simd_match_scalar(
        dim in 1usize..=67,
        narcs in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let d0 = gen_vec(dim, seed ^ 0x9e37_79b9);
        // PF: fields = 1.
        let rows = gen_vec(narcs * dim, seed);
        let (mut a, mut b) = (d0.clone(), d0.clone());
        simd::sub_rows(&mut a, &rows);
        scalar::sub_rows(&mut b, &rows);
        prop_assert_eq!(bits(&a), bits(&b));
        // PCF: fields = 4.
        let rows4 = gen_vec(narcs * 4 * dim, seed.rotate_left(17));
        let (mut a, mut b) = (d0.clone(), d0);
        simd::sub_leading2_rows(&mut a, &rows4, 4);
        scalar::sub_leading2_rows(&mut b, &rows4, 4);
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

/// Runs all 12 kernels through one entry-point set (`kernels`, `scalar`
/// or `simd`) on the same operands; returns each kernel's name and
/// output bits, in a fixed order.
macro_rules! run_all_kernels {
    ($($m:ident)::+, $d:expr, $x:expr, $y:expr) => {{
        let (d, x, y): (&[f64], &[f64], &[f64]) = ($d, $x, $y);
        let rows = [x, y, d].concat();
        let rows4 = [x, y, d, x, y, x, d, y].concat();
        let negs: Vec<f64> = d.iter().map(|v| -v).collect();
        let mut out: Vec<(&str, Vec<u64>)> = Vec::new();
        let mut a = d.to_vec();
        $($m)::+::add(&mut a, x);
        out.push(("add", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::sub(&mut a, x);
        out.push(("sub", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::store_neg(&mut a, x);
        out.push(("store_neg", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::sub_sum(&mut a, x, y);
        out.push(("sub_sum", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::scale(&mut a, 0.7418);
        out.push(("scale", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::neg(&mut a);
        out.push(("neg", bits(&a)));
        let (mut p, mut b) = (d.to_vec(), x.to_vec());
        $($m)::+::fold1(&mut p, &mut b, y);
        out.push(("fold1", [bits(&p), bits(&b)].concat()));
        let (mut p, mut b) = (d.to_vec(), x.to_vec());
        $($m)::+::fold2(&mut p, &mut b, x, y);
        out.push(("fold2", [bits(&p), bits(&b)].concat()));
        let mut a = d.to_vec();
        $($m)::+::add_sum(&mut a, x, y);
        out.push(("add_sum", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::sub_rows(&mut a, &rows);
        out.push(("sub_rows", bits(&a)));
        let mut a = d.to_vec();
        $($m)::+::sub_leading2_rows(&mut a, &rows4, 4);
        out.push(("sub_leading2_rows", bits(&a)));
        let is_neg = [$($m)::+::is_neg(d, x), $($m)::+::is_neg(d, &negs)];
        out.push(("is_neg", is_neg.map(u64::from).to_vec()));
        out
    }};
}

type StoreNeg = fn(&mut [f64], &[f64]);

/// Boundary pins: every remainder class at the lane width and around the
/// compiler's vector loops, through all three entry-point sets (AVX2
/// build, baseline build, dispatch), plus exact sign/zero semantics —
/// deterministic, no generated inputs.
#[test]
fn boundary_dims_and_special_values_pin() {
    for dim in [
        1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 66, 67,
    ] {
        let src: Vec<f64> = (0..dim).map(|k| (k as f64 - 2.0) * 0.5).collect();
        let dst: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.25 + 0.125).collect();
        let oth: Vec<f64> = (0..dim).map(|k| 1.5 - (k as f64) * 0.75).collect();
        let want = run_all_kernels!(scalar, &dst, &src, &oth);
        let forced = run_all_kernels!(simd, &dst, &src, &oth);
        let dispatched = run_all_kernels!(kernels, &dst, &src, &oth);
        assert_eq!(want.len(), 12);
        for ((w, f), d) in want.iter().zip(&forced).zip(&dispatched) {
            assert_eq!(f, w, "simd {} dim {dim}", w.0);
            assert_eq!(d, w, "dispatch {} dim {dim}", w.0);
        }
        assert_eq!(want[11].1, [0, 1], "is_neg dim {dim}");
    }
    // Signed-zero semantics: 0.0 == -(-0.0) and -0.0 == -(0.0) per IEEE.
    let pos = [0.0, -0.0, 1.0, -1.0, 2.5];
    let neg = [-0.0, 0.0, -1.0, 1.0, -2.5];
    assert!(simd::is_neg(&pos, &neg));
    assert!(scalar::is_neg(&pos, &neg));
    assert!(kernels::is_neg(&pos, &neg));
    // NaN never equals anything, on any path, in block or remainder.
    let mut a = vec![1.0; 6];
    let mut b = vec![-1.0; 6];
    for lane in 0..6 {
        a[lane] = f64::NAN;
        assert!(!simd::is_neg(&a, &b), "NaN lane {lane}");
        assert!(!scalar::is_neg(&a, &b), "NaN lane {lane}");
        assert!(!kernels::is_neg(&a, &b), "NaN lane {lane}");
        a[lane] = 1.0;
        b[lane] = f64::NAN;
        assert!(!simd::is_neg(&a, &b), "NaN lane {lane}");
        assert!(!scalar::is_neg(&a, &b), "NaN lane {lane}");
        assert!(!kernels::is_neg(&a, &b), "NaN lane {lane}");
        b[lane] = -1.0;
    }
    // Negation is a sign-bit flip on every path, even for NaN — including
    // a signalling, non-canonical payload, which an arithmetic negation
    // could quiet. Long enough for the vector loop body, short enough
    // for a remainder.
    let snan = f64::from_bits(0x7ff0_0000_0000_0001);
    for len in [5, 7, 67] {
        let v: Vec<f64> = [f64::NAN, -f64::NAN, snan, -snan, 0.0, -0.0, 3.0]
            .into_iter()
            .cycle()
            .take(len)
            .collect();
        let flipped: Vec<u64> = v.iter().map(|x| x.to_bits() ^ (1 << 63)).collect();
        let negs: [fn(&mut [f64]); 3] = [simd::neg, scalar::neg, kernels::neg];
        for neg in negs {
            let mut w = v.clone();
            neg(&mut w);
            assert_eq!(bits(&w), flipped, "neg len {len}");
        }
        let store_negs: [StoreNeg; 3] = [simd::store_neg, scalar::store_neg, kernels::store_neg];
        for store_neg in store_negs {
            let mut w = vec![1.0; len];
            store_neg(&mut w, &v);
            assert_eq!(bits(&w), flipped, "store_neg len {len}");
        }
    }
}

/// The dispatch follows the hardware: the AVX2 build runs exactly when
/// the CPU has AVX2, never on hardware that lacks it.
#[test]
fn dispatch_never_exceeds_hardware() {
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        kernels::simd_supported(),
        std::arch::is_x86_feature_detected!("avx2")
    );
    if !kernels::simd_supported() {
        assert_eq!(kernels::active_path(), "baseline");
    }
}
