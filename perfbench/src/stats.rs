//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The tail timing: the highest whole percentile `q ≥ 50` (nearest rank)
/// with at least ten samples beyond it, as `(value, q)`. With fewer than
/// twenty samples no such percentile exists and the maximum is reported
/// as `q = 100`.
pub fn tail(xs: &[f64]) -> (f64, u32) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for q in (50..100u32).rev() {
        let rank = (q as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (s[rank - 1], q);
        }
    }
    (s.last().copied().unwrap_or(f64::NAN), 100)
}

/// Median of integer samples, as `f64`.
pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
