//! Structural graph properties.
//!
//! Gossip convergence results assume connectivity, and the paper's
//! complexity statements are in terms of topologies that admit
//! `O(log n)`-step parallel reductions (short diameter). These checks let
//! experiments and tests assert the preconditions instead of assuming them.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// `true` if the graph is connected (the empty graph counts as connected,
/// a single node trivially so).
pub fn is_connected(g: &Graph) -> bool {
    if g.len() <= 1 {
        return true;
    }
    let mut seen = vec![false; g.len()];
    let mut queue = VecDeque::new();
    seen[0] = true;
    queue.push_back(0 as NodeId);
    let mut count = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count == g.len()
}

/// `true` if every node has degree exactly `k`.
pub fn is_regular(g: &Graph, k: usize) -> bool {
    (0..g.len() as NodeId).all(|i| g.degree(i) == k)
}

/// Eccentricity of `src`: the BFS depth to the farthest reachable node,
/// or `None` if some node is unreachable.
fn eccentricity(g: &Graph, src: NodeId) -> Option<usize> {
    let mut dist = vec![usize::MAX; g.len()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    let mut reached = 1usize;
    let mut ecc = 0usize;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = du + 1;
                ecc = ecc.max(du + 1);
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    (reached == g.len()).then_some(ecc)
}

/// Exact diameter via all-sources BFS. `None` if disconnected. `O(n·m)` —
/// fine for the graph sizes tests exercise; experiments don't call this on
/// their hot path.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.is_empty() {
        return Some(0);
    }
    let mut d = 0usize;
    for src in 0..g.len() as NodeId {
        d = d.max(eccentricity(g, src)?);
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{bus, complete, hypercube, ring};
    use crate::graph::GraphBuilder;

    #[test]
    fn connectivity() {
        assert!(is_connected(&ring(5)));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        assert!(!is_connected(&b.build()));
        assert!(is_connected(&GraphBuilder::new(1).build()));
        assert!(is_connected(&GraphBuilder::new(0).build()));
        // nodes with no edges at all
        assert!(!is_connected(&GraphBuilder::new(2).build()));
    }

    #[test]
    fn diameters() {
        assert_eq!(diameter(&bus(10)), Some(9));
        assert_eq!(diameter(&complete(10)), Some(1));
        assert_eq!(diameter(&hypercube(4)), Some(4));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        assert_eq!(diameter(&b.build()), None);
    }

    #[test]
    fn regularity() {
        assert!(is_regular(&ring(8), 2));
        assert!(!is_regular(&bus(8), 2)); // endpoints have degree 1
    }
}
