//! Flow-bank kernel throughput — AVX2 build vs baseline build, side by
//! side.
//!
//! The componentwise kernels in `gr_reduction::kernels` are the inner
//! loop of every PF/PCF flow-bank operation; this group times the three
//! shapes that dominate a round (accumulate = `add`, `scale`, and the
//! PCF hardened fold = `fold2`) at payload dimensions straddling the
//! 4-lane AVX2 width (3 = below it, 16 = whole vectors, 64 = the
//! heap-spilled grid point). Each dimension runs the forced AVX2 entry
//! point (`simd`) and the baseline build of the same source (`scalar`)
//! back to back, so a criterion run shows the speedup directly; on
//! targets without AVX2 the `simd` variants delegate to the baseline
//! build and the pair reads ~1.0×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gr_reduction::kernels;

/// Deterministic non-trivial fill (splitmix64-derived doubles in ~[-1, 1]).
fn fill(len: usize, mut seed: u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn bench_bank_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bank_kernels");
    for dim in [3usize, 16, 64] {
        group.throughput(Throughput::Elements(dim as u64));
        let src = fill(dim, 1);
        let f1 = fill(dim, 2);
        let f2 = fill(dim, 3);

        group.bench_function(BenchmarkId::new("add/simd", dim), |b| {
            let mut dst = fill(dim, 4);
            b.iter(|| {
                kernels::simd::add(&mut dst, &src);
                dst[0]
            });
        });
        group.bench_function(BenchmarkId::new("add/scalar", dim), |b| {
            let mut dst = fill(dim, 4);
            b.iter(|| {
                kernels::scalar::add(&mut dst, &src);
                dst[0]
            });
        });

        group.bench_function(BenchmarkId::new("scale/simd", dim), |b| {
            let mut dst = fill(dim, 5);
            b.iter(|| {
                kernels::simd::scale(&mut dst, 0.999_999);
                dst[0]
            });
        });
        group.bench_function(BenchmarkId::new("scale/scalar", dim), |b| {
            let mut dst = fill(dim, 5);
            b.iter(|| {
                kernels::scalar::scale(&mut dst, 0.999_999);
                dst[0]
            });
        });

        group.bench_function(BenchmarkId::new("fold2/simd", dim), |b| {
            let mut p = fill(dim, 6);
            let mut base = fill(dim, 7);
            b.iter(|| {
                kernels::simd::fold2(&mut p, &mut base, &f1, &f2);
                p[0]
            });
        });
        group.bench_function(BenchmarkId::new("fold2/scalar", dim), |b| {
            let mut p = fill(dim, 6);
            let mut base = fill(dim, 7);
            b.iter(|| {
                kernels::scalar::fold2(&mut p, &mut base, &f1, &f2);
                p[0]
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bank_kernels);
criterion_main!(benches);
