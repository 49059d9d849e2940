//! The vector-payload workload shared by `bench-report` and the
//! allocation-free tests.

use gr_reduction::{AggregateKind, InitialData};
use gr_topology::{hypercube, Graph};
use rand::prelude::*;

/// Vector-payload fixture: a hypercube and uniform `payload_dim`-component
/// AVG data as `Vec<f64>`, the payload dmGS ships.
pub fn vector_fixture(dim: u32, payload_dim: usize, seed: u64) -> (Graph, InitialData<Vec<f64>>) {
    let n = 1usize << dim;
    let g = hypercube(dim);
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..payload_dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    (g, InitialData::with_kind(values, AggregateKind::Average))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_fixture_shapes() {
        let (g, d) = vector_fixture(4, 16, 1);
        assert_eq!(g.len(), 16);
        assert_eq!(d.len(), 16);
        assert_eq!(d.dim(), 16);
    }
}
