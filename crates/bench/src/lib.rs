//! The vector-payload workload shared by `bench-report` and the
//! allocation-free tests.

use gr_reduction::{AggregateKind, InitialData, InlineVec};
use gr_topology::{hypercube, Graph};
use rand::prelude::*;

/// Vector-payload fixture: a hypercube and uniform `payload_dim`-component
/// AVG data as [`InlineVec`] (inline below the cap, heap spill above), the
/// payload type the vector fast-path kernels measure.
pub fn vector_fixture(dim: u32, payload_dim: usize, seed: u64) -> (Graph, InitialData<InlineVec>) {
    let n = 1usize << dim;
    let g = hypercube(dim);
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<InlineVec> = (0..n)
        .map(|_| {
            InlineVec::from(
                (0..payload_dim)
                    .map(|_| rng.random::<f64>())
                    .collect::<Vec<f64>>(),
            )
        })
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
