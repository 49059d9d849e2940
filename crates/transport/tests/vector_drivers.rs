//! A vector payload over a real backend: 16 `NodeDriver`s run PCF on
//! hypercube-4 over `mem_cluster` endpoints carrying dim-4 `Vec<f64>`
//! frames, stepped round-robin on one thread and then drained.
//!
//! Round-robin stepping with drain-before-send never crosses two
//! exchanges on an edge, so every component must reach its own average
//! and the summed mass must equal the inputs' up to rounding.

use gr_reduction::{AggregateKind, InitialData, NodeDriver, PcfMsg, PushCancelFlow};
use gr_topology::hypercube;
use gr_transport::mem_cluster;

const DIM: usize = 4;

#[test]
fn vector_pcf_over_mem_drivers_converges_and_conserves_mass() {
    let graph = hypercube(4);
    let n = graph.len();
    let values: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..DIM)
                .map(|k| (i * DIM + k) as f64 * 0.75 - 9.0)
                .collect()
        })
        .collect();
    let totals: Vec<f64> = (0..DIM)
        .map(|k| values.iter().map(|v| v[k]).sum())
        .collect();
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let mut eps = mem_cluster::<PcfMsg<Vec<f64>>>(n, 4 * n).unwrap();
    let mut drivers: Vec<_> = (0..n as u32)
        .map(|i| NodeDriver::new(i, PushCancelFlow::new(&graph, &data), &graph, 7))
        .collect();
    // Worst relative error of any node's component; NaN reads as ∞.
    let worst = |drivers: &[NodeDriver<PushCancelFlow<Vec<f64>>>]| {
        let mut est = [0.0; DIM];
        let mut worst = 0.0f64;
        for d in drivers {
            d.write_estimate(&mut est);
            for (e, t) in est.iter().zip(&totals) {
                let mean = t / n as f64;
                let err = (e - mean).abs() / mean.abs();
                worst = if err.is_nan() {
                    f64::INFINITY
                } else {
                    worst.max(err)
                };
            }
        }
        worst
    };
    for sweep in 0.. {
        if worst(&drivers) <= 1e-12 {
            break;
        }
        assert!(sweep < 2_000, "no convergence in 2000 sweeps");
        for (d, ep) in drivers.iter_mut().zip(&mut eps) {
            d.step(ep).unwrap();
        }
    }
    // Drain every inbox, then audit the mass the nodes hold.
    while drivers
        .iter_mut()
        .zip(&mut eps)
        .map(|(d, ep)| d.pump(ep).unwrap())
        .sum::<usize>()
        > 0
    {}
    assert!(worst(&drivers) <= 1e-12);
    let (mut value, mut weight) = ([0.0; DIM], 0.0);
    for d in &drivers {
        let mut mass = [0.0; DIM];
        weight += d.write_mass(&mut mass);
        value.iter_mut().zip(mass).for_each(|(acc, m)| *acc += m);
    }
    for (v, t) in value.iter().zip(&totals) {
        assert!((v - t).abs() <= 1e-12 * t.abs(), "mass {v} against {t}");
    }
    assert!(
        (weight - n as f64).abs() <= 1e-12 * n as f64,
        "weight {weight}"
    );
    assert_eq!(eps.iter().map(|ep| ep.wire_stats().dropped).sum::<u64>(), 0);
}
