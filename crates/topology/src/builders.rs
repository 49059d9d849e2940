//! Constructors for the standard topologies.

use crate::graph::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;

/// Bus / path network of `n` nodes: node `i` talks to `i−1` and `i+1`.
/// This is the Sec. II-B case-study topology on which the push-flow
/// accuracy collapse is easiest to analyse.
pub fn bus(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId);
    }
    b.build()
}

/// Ring (cycle) of `n ≥ 3` nodes.
///
/// # Panics
/// Panics for `n < 3` (a 2-ring would be a duplicate edge).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes, got {n}");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as NodeId, ((i + 1) % n) as NodeId);
    }
    b.build()
}

/// Complete graph on `n` nodes — the topology for which Kempe et al.'s
/// original `O(log n + log 1/ε)` push-sum bound was proved.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as NodeId, j as NodeId);
        }
    }
    b.build()
}

/// Star: node 0 is the hub, nodes `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(0, i as NodeId);
    }
    b.build()
}

/// Complete binary tree: node `i`'s children are `2i+1` and `2i+2`.
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as NodeId, ((i - 1) / 2) as NodeId);
    }
    b.build()
}

/// 2D grid of `rows × cols` nodes, 4-neighborhood, no wraparound.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    lattice(&[rows, cols], false)
}

/// 2D torus (grid with wraparound in both dimensions).
///
/// Built straight into CSR form: every node has exactly four distinct
/// neighbors (dimensions ≥ 3), so the offsets are `4·i` by construction
/// and each row is a sorted 4-element write — no edge staging, no global
/// sort. This keeps the 1000×1000 (million-node) scale topology cheap to
/// construct; the result is identical to the generic `lattice` path
/// (pinned by a test).
///
/// # Panics
/// Panics if either dimension is `< 3` (wraparound would duplicate edges).
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let n = rows * cols;
    assert!(n <= NodeId::MAX as usize, "too many nodes for u32 ids");
    let offsets: Vec<usize> = (0..=n).map(|i| 4 * i).collect();
    let mut adj = vec![0 as NodeId; 4 * n];
    for r in 0..rows {
        let up = (if r == 0 { rows - 1 } else { r - 1 }) * cols;
        let down = (if r + 1 == rows { 0 } else { r + 1 }) * cols;
        let row = r * cols;
        for c in 0..cols {
            let left = row + if c == 0 { cols - 1 } else { c - 1 };
            let right = row + if c + 1 == cols { 0 } else { c + 1 };
            let mut nb = [
                (up + c) as NodeId,
                left as NodeId,
                right as NodeId,
                (down + c) as NodeId,
            ];
            nb.sort_unstable();
            let base = 4 * (row + c);
            adj[base..base + 4].copy_from_slice(&nb);
        }
    }
    Graph::from_csr(offsets, adj)
}

/// 3D torus of `dx × dy × dz` nodes — one of the two evaluation topologies
/// of Figs. 3 and 6 (`2^i × 2^i × 2^i`). Every node has exactly 6
/// neighbors.
///
/// # Panics
/// Panics if any dimension is `< 3`.
pub fn torus3d(dx: usize, dy: usize, dz: usize) -> Graph {
    assert!(
        dx >= 3 && dy >= 3 && dz >= 3,
        "torus dimensions must be >= 3 (got {dx}x{dy}x{dz})"
    );
    lattice(&[dx, dy, dz], true)
}

/// Axis-aligned lattice over arbitrary dimensions, optionally periodic.
fn lattice(dims: &[usize], wrap: bool) -> Graph {
    let n: usize = dims.iter().product();
    let mut b = GraphBuilder::new(n);
    let mut strides = vec![1usize; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }
    let mut coord = vec![0usize; dims.len()];
    for idx in 0..n {
        // decode idx -> coord
        let mut rem = idx;
        for d in 0..dims.len() {
            coord[d] = rem / strides[d];
            rem %= strides[d];
        }
        for d in 0..dims.len() {
            let up = if coord[d] + 1 < dims[d] {
                Some(idx + strides[d])
            } else if wrap {
                Some(idx - coord[d] * strides[d])
            } else {
                None
            };
            if let Some(j) = up {
                if j != idx {
                    b.add_edge(idx as NodeId, j as NodeId);
                }
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube on `2^d` nodes: `i ~ j` iff their ids differ
/// in exactly one bit. The second evaluation topology of Figs. 3/6 and the
/// topology of the failure experiments (Figs. 4/7, a 6D hypercube) and the
/// dmGS study (Fig. 8).
///
/// # Panics
/// Panics if `d > 24` (guard against accidental exponential blow-up).
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 24, "hypercube dimension {d} too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for bit in 0..d {
            let j = i ^ (1usize << bit);
            if i < j {
                b.add_edge(i as NodeId, j as NodeId);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` random graph (seeded, hence reproducible).
///
/// Note the sample is *not* guaranteed connected; callers that need
/// connectivity should check [`crate::is_connected`] and resample.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random::<f64>() < p {
                b.add_edge(i as NodeId, j as NodeId);
            }
        }
    }
    b.build()
}

/// Random `k`-regular graph via the pairing/configuration model with
/// rejection (retry until simple). Reproducible given `seed`.
///
/// # Panics
/// Panics if `n·k` is odd or `k ≥ n`, for which no simple `k`-regular
/// graph exists.
pub fn random_regular(n: usize, k: usize, seed: u64) -> Graph {
    assert!(
        (n * k).is_multiple_of(2),
        "n*k must be even for a k-regular graph"
    );
    assert!(k < n, "degree {k} must be < node count {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    'retry: loop {
        // stubs: k copies of each node id
        let mut stubs: Vec<NodeId> = (0..n as NodeId)
            .flat_map(|i| std::iter::repeat_n(i, k))
            .collect();
        stubs.shuffle(&mut rng);
        let mut b = GraphBuilder::new(n);
        let mut seen = std::collections::HashSet::new();
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue 'retry; // self-loop or multi-edge: resample
            }
            b.add_edge(u, v);
        }
        return b.build();
    }
}

/// Watts–Strogatz small-world graph: a ring lattice where each node is
/// joined to its `k/2` nearest neighbors on each side, with every edge
/// rewired to a uniform random target with probability `beta`.
/// Reproducible given `seed`; the result may rarely be disconnected for
/// large `beta` — check with [`crate::is_connected`] and resample.
///
/// Small-world graphs matter for gossip: a few long-range shortcuts
/// collapse the diameter of an otherwise local topology, turning
/// torus-like slow mixing into near-logarithmic convergence.
///
/// # Panics
/// Panics if `k` is odd, `k < 2`, `k >= n`, or `beta` is outside `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(
        k.is_multiple_of(2) && k >= 2,
        "k must be even and >= 2, got {k}"
    );
    assert!(k < n, "k ({k}) must be < n ({n})");
    assert!((0.0..=1.0).contains(&beta), "beta {beta} outside [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    // Collect lattice edges, then rewire.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * k / 2);
    for i in 0..n {
        for d in 1..=(k / 2) {
            edges.push((i as NodeId, ((i + d) % n) as NodeId));
        }
    }
    use std::collections::HashSet;
    let mut present: HashSet<(NodeId, NodeId)> =
        edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    for e in edges.iter_mut() {
        if rng.random::<f64>() < beta {
            let (a, b) = *e;
            // rewire the far endpoint to a random node, avoiding self
            // loops and duplicates (retry a few times, else keep as-is)
            for _ in 0..16 {
                let t: NodeId = rng.random_range(0..n as NodeId);
                let key = (a.min(t), a.max(t));
                if t != a && !present.contains(&key) {
                    present.remove(&(a.min(b), a.max(b)));
                    present.insert(key);
                    *e = (a, t);
                    break;
                }
            }
        }
    }
    let mut builder = GraphBuilder::new(n);
    for (a, b) in edges {
        builder.add_edge(a, b);
    }
    builder.build()
}

/// Barabási–Albert preferential-attachment graph: starts from a clique of
/// `m + 1` nodes; every subsequent node attaches to `m` distinct existing
/// nodes chosen proportionally to their current degree. Produces the
/// heavy-tailed degree distributions of real-world overlay networks —
/// a stress test for gossip fairness (hubs are picked often; leaves
/// rarely).
///
/// # Panics
/// Panics if `m == 0` or `n <= m`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "attachment count must be >= 1");
    assert!(n > m, "need more nodes ({n}) than attachments ({m})");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints trick: every
    // edge contributes both endpoints to this list.
    let mut endpoints: Vec<NodeId> = Vec::new();
    let seed_nodes = m + 1;
    for i in 0..seed_nodes {
        for j in (i + 1)..seed_nodes {
            b.add_edge(i as NodeId, j as NodeId);
            endpoints.push(i as NodeId);
            endpoints.push(j as NodeId);
        }
    }
    for v in seed_nodes..n {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(v as NodeId, t);
            endpoints.push(v as NodeId);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Disjoint union of `parts`: copy `k`'s nodes are renumbered by the
/// cumulative node count of copies `0..k`, with no edges between copies.
///
/// This is the substrate of the multi-tenant batch executor (`gr-batch`):
/// one protocol instance over the union graph lays its per-node and
/// per-arc state out in tenant-contiguous CSR blocks, so the flow-bank
/// slab is tenant-strided by construction. Because every copy's node ids
/// shift by one uniform offset, neighbor-list order — and therefore every
/// schedule draw and arc slot — is preserved within each block.
///
/// Built via [`Graph::from_csr`] in one `O(V + E)` pass (no edge-list
/// staging), so assembling thousands of small tenant topologies stays
/// cheap.
///
/// # Panics
/// Panics if the total node count exceeds [`NodeId`] range.
pub fn disjoint_union(parts: &[&Graph]) -> Graph {
    let total_nodes: usize = parts.iter().map(|g| g.len()).sum();
    let total_arcs: usize = parts.iter().map(|g| g.arc_count()).sum();
    assert!(
        total_nodes <= NodeId::MAX as usize,
        "disjoint union of {total_nodes} nodes exceeds u32 node ids"
    );
    let mut offsets = Vec::with_capacity(total_nodes + 1);
    let mut adj = Vec::with_capacity(total_arcs);
    offsets.push(0usize);
    let mut node_base = 0 as NodeId;
    let mut arc_base = 0usize;
    for g in parts {
        for i in 0..g.len() as NodeId {
            for &j in g.neighbors(i) {
                adj.push(node_base + j);
            }
            offsets.push(arc_base + g.arc_base(i) + g.degree(i));
        }
        node_base += g.len() as NodeId;
        arc_base += g.arc_count();
    }
    Graph::from_csr(offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{diameter, is_connected, is_regular};

    #[test]
    fn torus2d_csr_fast_path_matches_lattice() {
        for (r, c) in [(3, 3), (3, 5), (4, 7), (16, 16), (5, 32)] {
            let fast = torus2d(r, c);
            let generic = lattice(&[r, c], true);
            assert_eq!(fast, generic, "torus2d({r},{c}) diverges from lattice");
        }
    }

    #[test]
    fn bus_shape() {
        let g = bus(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert!(is_regular(&g, 2));
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        ring(2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(7);
        assert_eq!(g.edge_count(), 21);
        assert!(is_regular(&g, 6));
        assert_eq!(diameter(&g), Some(1));
    }

    #[test]
    fn star_and_tree() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        assert_eq!(diameter(&g), Some(2));
        let t = binary_tree(7);
        assert_eq!(t.edge_count(), 6);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.degree(6), 1);
        assert!(is_connected(&t));
    }

    #[test]
    fn grid_and_torus2d() {
        let g = grid2d(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
        let t = torus2d(3, 4);
        assert!(is_regular(&t, 4));
        assert_eq!(t.edge_count(), 2 * 12);
    }

    #[test]
    fn torus3d_is_6_regular() {
        let g = torus3d(4, 4, 4);
        assert_eq!(g.len(), 64);
        assert!(is_regular(&g, 6));
        assert!(is_connected(&g));
        // each axis contributes n edges per node pair direction: 3*n edges
        assert_eq!(g.edge_count(), 3 * 64);
    }

    #[test]
    fn torus3d_wraparound_edges_exist() {
        let g = torus3d(4, 4, 4);
        // node (0,0,0) = 0 and node (3,0,0) = 3*16 = 48 are wrap neighbors
        assert!(g.has_edge(0, 48));
        assert!(g.has_edge(0, 12)); // (0,3,0) = 12
        assert!(g.has_edge(0, 3)); // (0,0,3) = 3
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(6);
        assert_eq!(g.len(), 64);
        assert!(is_regular(&g, 6));
        assert_eq!(diameter(&g), Some(6));
        assert!(g.has_edge(0b000000, 0b000100));
        assert!(!g.has_edge(0b000000, 0b000110));
    }

    #[test]
    fn hypercube_zero_dim() {
        let g = hypercube(0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn erdos_renyi_reproducible() {
        let a = erdos_renyi(40, 0.2, 7);
        let b = erdos_renyi(40, 0.2, 7);
        let c = erdos_renyi(40, 0.2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // p=1 is the complete graph, p=0 empty
        assert_eq!(erdos_renyi(10, 1.0, 0).edge_count(), 45);
        assert_eq!(erdos_renyi(10, 0.0, 0).edge_count(), 0);
    }

    #[test]
    fn random_regular_is_regular_and_reproducible() {
        let g = random_regular(30, 4, 42);
        assert!(is_regular(&g, 4));
        assert_eq!(g, random_regular(30, 4, 42));
    }

    #[test]
    fn watts_strogatz_basics() {
        let g = watts_strogatz(50, 4, 0.0, 1);
        // beta = 0: pure ring lattice, 2-regular per side
        assert!(is_regular(&g, 4));
        assert_eq!(g.edge_count(), 100);
        let g = watts_strogatz(50, 4, 0.3, 1);
        assert_eq!(g, watts_strogatz(50, 4, 0.3, 1));
        // rewiring keeps the edge count (rewired, not added/removed)
        assert_eq!(g.edge_count(), 100);
        assert!(is_connected(&g));
        // shortcuts shrink the diameter vs the lattice
        let lattice_diam = diameter(&watts_strogatz(50, 4, 0.0, 1)).unwrap();
        let sw_diam = diameter(&g).unwrap();
        assert!(sw_diam < lattice_diam, "{sw_diam} vs {lattice_diam}");
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn watts_strogatz_odd_k_rejected() {
        let _ = watts_strogatz(10, 3, 0.1, 0);
    }

    #[test]
    fn barabasi_albert_basics() {
        let g = barabasi_albert(200, 3, 7);
        assert_eq!(g.len(), 200);
        assert!(is_connected(&g));
        assert_eq!(g, barabasi_albert(200, 3, 7));
        // every non-seed node has degree >= m; hubs emerge well above it
        let max_deg = (0..200u32).map(|i| g.degree(i)).max().unwrap();
        let min_deg = (0..200u32).map(|i| g.degree(i)).min().unwrap();
        assert!(min_deg >= 3);
        assert!(max_deg >= 15, "expected a hub, max degree {max_deg}");
        // edge count: clique on m+1 plus m per added node
        assert_eq!(g.edge_count(), 3 * 4 / 2 + (200 - 4) * 3);
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn barabasi_albert_too_small() {
        let _ = barabasi_albert(3, 3, 0);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_odd_product_rejected() {
        random_regular(5, 3, 0);
    }

    #[test]
    fn disjoint_union_blocks_are_offset_copies() {
        let a = hypercube(2); // 4 nodes, 8 arcs
        let b = ring(5); // 5 nodes, 10 arcs
        let u = disjoint_union(&[&a, &b, &a]);
        assert_eq!(u.len(), 4 + 5 + 4);
        assert_eq!(u.arc_count(), 8 + 10 + 8);
        // Block 0 is a verbatim copy.
        for i in 0..a.len() as NodeId {
            assert_eq!(u.neighbors(i), a.neighbors(i));
            assert_eq!(u.arc_base(i), a.arc_base(i));
        }
        // Block 1's lists shift by 4, its arcs by 8.
        for i in 0..b.len() as NodeId {
            let shifted: Vec<NodeId> = b.neighbors(i).iter().map(|&j| j + 4).collect();
            assert_eq!(u.neighbors(4 + i), &shifted[..]);
            assert_eq!(u.arc_base(4 + i), 8 + b.arc_base(i));
        }
        // Block 2 shifts by 9 nodes / 18 arcs.
        for i in 0..a.len() as NodeId {
            let shifted: Vec<NodeId> = a.neighbors(i).iter().map(|&j| j + 9).collect();
            assert_eq!(u.neighbors(9 + i), &shifted[..]);
            assert_eq!(u.arc_base(9 + i), 18 + a.arc_base(i));
        }
        // No cross-block edges.
        assert!(!u.has_edge(0, 4));
        assert!(!is_connected(&u));
    }

    #[test]
    fn disjoint_union_of_one_is_identity() {
        let g = hypercube(3);
        assert_eq!(disjoint_union(&[&g]), g);
    }
}
