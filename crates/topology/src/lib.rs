//! Static network topologies for gossip-based distributed reduction.
//!
//! The paper evaluates on a bus network (the Sec. II-B case study), 3D tori
//! `2^i × 2^i × 2^i`, and hypercubes; the convergence theory (Boyd et al.)
//! applies to any connected graph. This crate provides an immutable,
//! CSR-backed undirected [`Graph`] plus constructors for every topology the
//! paper touches and several more that are useful for testing and
//! extensions (random regular graphs, Erdős–Rényi, trees, stars).
//!
//! Graphs are *static*: link/node failures are modelled dynamically by the
//! simulator (`gr-netsim`) on top of an unchanging base topology, mirroring
//! the paper's model where `N_i` is "a nonempty fixed set of nodes `i` can
//! communicate with".
//!
//! ```
//! use gr_topology::{hypercube, is_connected, is_regular, diameter};
//!
//! let g = hypercube(6); // the paper's failure-experiment topology
//! assert_eq!(g.len(), 64);
//! assert!(is_regular(&g, 6));
//! assert!(is_connected(&g));
//! assert_eq!(diameter(&g), Some(6));
//! assert_eq!(g.neighbors(0), &[1, 2, 4, 8, 16, 32]);
//! ```

mod builders;
mod graph;
mod props;

pub use builders::{
    barabasi_albert, binary_tree, bus, complete, disjoint_union, erdos_renyi, grid2d, hypercube,
    random_regular, ring, star, torus2d, torus3d, watts_strogatz,
};
pub use graph::{Graph, GraphBuilder, NodeId};
pub use props::{diameter, is_connected, is_regular};
