//! The vector-payload workload shared by `bench-report` and the
//! allocation-free tests.

use gr_reduction::{AggregateKind, InitialData, Payload};
use gr_topology::{hypercube, Graph};
use rand::prelude::*;

/// Vector-payload fixture: a hypercube and uniform `payload_dim`-component
/// AVG data as payload type `P` — [`gr_reduction::InlineVec`] (inline
/// below the cap, heap spill above), the payload type the vector
/// fast-path kernels measure, or `Vec<f64>`, the payload dmGS ships.
/// The values do not depend on `P`.
pub fn vector_fixture<P: Payload>(
    dim: u32,
    payload_dim: usize,
    seed: u64,
) -> (Graph, InitialData<P>) {
    let n = 1usize << dim;
    let g = hypercube(dim);
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<P> = (0..n)
        .map(|_| {
            P::from_components(
                &(0..payload_dim)
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
        let (g, d) = vector_fixture::<Vec<f64>>(4, 16, 1);
        assert_eq!(g.len(), 16);
        assert_eq!(d.len(), 16);
        assert_eq!(d.dim(), 16);
    }
}
