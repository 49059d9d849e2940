//! The residual metrics against their per-entry definition, bit for bit.
//!
//! `cross_factorization_error` and `local_consistency_error` run one
//! k-outer, j-inner kernel in two builds (baseline, and AVX2+FMA). Each
//! build must return exactly the bits of the per-entry definition kept
//! below: one compensated dot product per entry of `Q·R`, the transpose
//! of R taken once per node for the cross metric and one column gathered
//! per entry for the local one. Inputs mix signed zeros, subnormals,
//! huge and tiny entries (whose products overflow, underflow or lose
//! their low part) into ordinary values, over 1–16 columns and 1–8 nodes.
//!
//! On a CPU without AVX2 and FMA only the baseline build is checked.

use gr_dmgs::{cross_factorization_error, local_consistency_error, residual};
use gr_linalg::Matrix;
use proptest::prelude::*;

/// Neumaier-compensated dot product with each product split exactly by a
/// fused multiply-add.
fn compensated_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    let mut add = |x: f64| {
        let s = sum + x;
        let bb = s - sum;
        comp += (sum - (s - bb)) + (x - bb);
        sum = s;
    };
    for (&x, &y) in a.iter().zip(b) {
        let p = x * y;
        let e = f64::mul_add(x, y, -p);
        add(p);
        add(e);
    }
    sum + comp
}

fn reference_cross(v: &Matrix, q: &Matrix, r_per_node: &[Matrix]) -> f64 {
    let (n, m) = (v.rows(), v.cols());
    let vnorm = v.norm_inf();
    let mut worst = 0.0f64;
    for r in r_per_node {
        let rt = r.transpose();
        for row in 0..n {
            let qrow = q.row(row);
            let mut rowsum = 0.0f64;
            for j in 0..m {
                let qr = compensated_dot(&qrow[..=j], &rt.row(j)[..=j]);
                rowsum += (v[(row, j)] - qr).abs();
            }
            worst = worst.max(rowsum);
        }
    }
    worst / vnorm
}

fn reference_local(v: &Matrix, q: &Matrix, r_per_node: &[Matrix]) -> f64 {
    let (n, m) = (v.rows(), v.cols());
    let nodes = r_per_node.len();
    let vnorm = v.norm_inf();
    let mut worst = 0.0f64;
    for row in 0..n {
        let r = &r_per_node[row % nodes];
        let qrow = q.row(row);
        let mut rowsum = 0.0f64;
        for j in 0..m {
            let rt_col: Vec<f64> = (0..=j).map(|k| r[(k, j)]).collect();
            let qr = compensated_dot(&qrow[..=j], &rt_col);
            rowsum += (v[(row, j)] - qr).abs();
        }
        worst = worst.max(rowsum);
    }
    worst / vnorm
}

/// `Q·R` with R upper triangular, each entry a plain left-to-right sum.
fn naive_product(q: &Matrix, r: &Matrix) -> Matrix {
    let (n, m) = (q.rows(), q.cols());
    let mut v = Matrix::zeros(n, m);
    for row in 0..n {
        for j in 0..m {
            v[(row, j)] = (0..=j).fold(0.0, |acc, k| acc + q[(row, k)] * r[(k, j)]);
        }
    }
    v
}

/// A splitmix64 stream of entries: mostly ordinary values over a wide
/// exponent range, with about one in four drawn from the specials.
struct Entries(u64);

impl Entries {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> f64 {
        const SPECIALS: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 8.0,
            f64::MIN_POSITIVE,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            f64::MAX / 4.0,
            1.0 + f64::EPSILON,
        ];
        let z = self.next_u64();
        if z & 3 == 0 {
            return SPECIALS[((z >> 8) % SPECIALS.len() as u64) as usize];
        }
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let exp = ((z >> 3) % 41) as i32 - 20;
        unit * 10f64.powi(exp)
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut a = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                a[(i, j)] = self.next();
            }
        }
        a
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn residual_builds_match_the_per_entry_definition(
        m in 1usize..=16,
        nodes in 1usize..=8,
        extra_rows in 0usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let n = nodes + extra_rows;
        let mut gen = Entries(seed);
        let q = gen.matrix(n, m);
        let rs: Vec<Matrix> = (0..nodes).map(|_| gen.matrix(m, m)).collect();
        // Half the cases factor V as a dmGS result does, up to rounding:
        // V = Q·R₀ summed naively, so residual entries are rounding errors.
        let v = if seed & 1 == 0 { gen.matrix(n, m) } else { naive_product(&q, &rs[0]) };

        let cross = reference_cross(&v, &q, &rs).to_bits();
        let local = reference_local(&v, &q, &rs).to_bits();
        prop_assert_eq!(residual::baseline(&v, &q, &rs, false).to_bits(), cross);
        prop_assert_eq!(residual::baseline(&v, &q, &rs, true).to_bits(), local);
        if residual::fma_supported() {
            prop_assert_eq!(residual::fma(&v, &q, &rs, false).to_bits(), cross);
            prop_assert_eq!(residual::fma(&v, &q, &rs, true).to_bits(), local);
        }
        prop_assert_eq!(cross_factorization_error(&v, &q, &rs).to_bits(), cross);
        prop_assert_eq!(local_consistency_error(&v, &q, &rs).to_bits(), local);
    }
}

/// On ordinary data (no specials) the residual is finite and the
/// reference's compensation is exercised: the builds still agree exactly.
#[test]
fn residual_builds_match_on_a_factorization() {
    let v = Matrix::random_uniform(40, 16, 7);
    let (q, r) = gr_linalg::mgs_qr(&v);
    let mut rs = vec![r; 5];
    // Perturb each copy at the last bits, like per-node R copies.
    for (b, rb) in rs.iter_mut().enumerate() {
        for k in 0..16 {
            for j in k..16 {
                rb[(k, j)] *= 1.0 + (b as f64) * f64::EPSILON;
            }
        }
    }
    let cross = reference_cross(&v, &q, &rs);
    assert!(cross.is_finite() && cross < 1e-13, "{cross:e}");
    assert_eq!(
        cross_factorization_error(&v, &q, &rs).to_bits(),
        cross.to_bits()
    );
    let local = reference_local(&v, &q, &rs);
    assert_eq!(
        local_consistency_error(&v, &q, &rs).to_bits(),
        local.to_bits()
    );
    assert_eq!(
        residual::baseline(&v, &q, &rs, false).to_bits(),
        cross.to_bits()
    );
    if residual::fma_supported() {
        assert_eq!(residual::fma(&v, &q, &rs, false).to_bits(), cross.to_bits());
    }
}

/// A compensated dot product is exact to about twice the working
/// precision, so reordering its terms changes the result only on inputs
/// whose products cancel through about 2^106. This one does: its entry
/// is −0.1·2^-120 summed in `k` order and 0 summed in reverse. A tiny `V`
/// entry elsewhere in the row makes the difference show in the metric,
/// so the kernel's summation order is pinned, not just its accuracy.
#[test]
fn residual_keeps_the_summation_order() {
    let (big, tiny) = (2f64.powi(60), 2f64.powi(-60));
    let qrow = [-1.0 / 3.0, 1.0 / 3.0, tiny, -tiny * tiny, tiny * tiny];
    let rcol = [
        -(1.0 + f64::EPSILON),
        -(1.0 + f64::EPSILON),
        big,
        big * big,
        -0.1,
    ];
    let (rev_q, rev_r): (Vec<f64>, Vec<f64>) = qrow.iter().rev().zip(rcol.iter().rev()).unzip();
    let forward = compensated_dot(&qrow, &rcol);
    assert_eq!(forward, -0.1 * tiny * tiny);
    assert_ne!(forward.to_bits(), compensated_dot(&rev_q, &rev_r).to_bits());

    let m = qrow.len();
    let q = Matrix::from_rows(&[&qrow]);
    let mut r = Matrix::zeros(m, m);
    for (k, &y) in rcol.iter().enumerate() {
        r[(k, m - 1)] = y;
    }
    let mut v = Matrix::zeros(1, m);
    v[(0, 0)] = 2f64.powi(-200);
    let rs = [r];
    let want = reference_cross(&v, &q, &rs);
    assert_eq!(want, (2f64.powi(-200) - forward) / 2f64.powi(-200));
    assert_eq!(
        cross_factorization_error(&v, &q, &rs).to_bits(),
        want.to_bits()
    );
    assert_eq!(
        local_consistency_error(&v, &q, &rs).to_bits(),
        want.to_bits()
    );
    assert_eq!(
        residual::baseline(&v, &q, &rs, false).to_bits(),
        want.to_bits()
    );
    if residual::fma_supported() {
        assert_eq!(residual::fma(&v, &q, &rs, false).to_bits(), want.to_bits());
    }
}
