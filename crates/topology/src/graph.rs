//! The CSR-backed undirected graph type.

use std::fmt;

/// Index of a node in a [`Graph`]. 32 bits comfortably covers the paper's
/// largest experiment (2¹⁵ nodes) while halving adjacency-array bandwidth
/// relative to `usize` — the neighbor scan is the hot loop of every
/// simulated round.
pub type NodeId = u32;

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Neighbor lists are sorted, self-loop-free and duplicate-free, which
/// gives deterministic iteration order (important: the simulator's random
/// partner choice indexes into this list, so graph construction order must
/// not leak into the communication schedule) and `O(log deg)` neighbor-slot
/// lookup.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` for the empty graph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// The sorted neighbor list of `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: NodeId) -> &[NodeId] {
        let i = i as usize;
        &self.adj[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        self.neighbors(i).len()
    }

    /// Position of `j` within `i`'s neighbor list, if adjacent. Protocols
    /// use this slot to index per-neighbor state (flow variables), so this
    /// sits on the per-message hot path. For the small degrees of every
    /// supported topology a branchless counting scan (`#{k : nbrs[k] < j}`
    /// — vectorizable, no data-dependent branches) beats a binary search,
    /// whose log(deg) serialized, unpredictable iterations dominate; large
    /// neighborhoods fall back to the search.
    #[inline]
    pub fn neighbor_slot(&self, i: NodeId, j: NodeId) -> Option<usize> {
        let nbrs = self.neighbors(i);
        if nbrs.len() <= 32 {
            let slot: usize = nbrs.iter().map(|&x| (x < j) as usize).sum();
            (nbrs.get(slot) == Some(&j)).then_some(slot)
        } else {
            nbrs.binary_search(&j).ok()
        }
    }

    /// `true` if `i` and `j` are adjacent.
    #[inline]
    pub fn has_edge(&self, i: NodeId, j: NodeId) -> bool {
        self.neighbor_slot(i, j).is_some()
    }

    /// Iterate over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Per-node offsets into the flattened directed-arc array. Arc `k` of
    /// node `i` (its `k`-th neighbor) has flat index `arc_base(i) + k`;
    /// protocols lay their per-neighbor state out in one contiguous vector
    /// using this indexing.
    #[inline]
    pub fn arc_base(&self, i: NodeId) -> usize {
        self.offsets[i as usize]
    }

    /// Flat index of the directed arc `i → j` (`arc_base(i) +
    /// neighbor_slot(i, j)`), or `None` if `i` and `j` are not adjacent.
    /// This is the one lookup behind every arc-indexed array — flow
    /// banks, dead-arc masks, silence clocks.
    #[inline]
    pub fn arc(&self, i: NodeId, j: NodeId) -> Option<usize> {
        Some(self.arc_base(i) + self.neighbor_slot(i, j)?)
    }

    /// Total number of directed arcs (`2 × edge_count`).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.adj.len()
    }

    /// Build a graph directly from validated CSR arrays, bypassing the
    /// edge-list sort of [`GraphBuilder::build`]. This is the constructor
    /// for the large-topology fast paths (million-node tori) where the
    /// builder's `O(E log E)` sort and edge staging double peak memory.
    ///
    /// `offsets` must have length `n + 1`, start at 0, end at `adj.len()`
    /// and be non-decreasing; every row of `adj` must be strictly
    /// ascending, in range, and self-loop-free, and the adjacency relation
    /// must be symmetric in total arc count (`adj.len()` even). Validation
    /// is a single `O(V + E)` pass.
    ///
    /// # Panics
    /// Panics if any of the invariants above is violated.
    pub fn from_csr(offsets: Vec<usize>, adj: Vec<NodeId>) -> Graph {
        assert!(!offsets.is_empty(), "offsets must have length n + 1");
        let n = offsets.len() - 1;
        assert!(n <= NodeId::MAX as usize, "too many nodes for u32 ids");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(offsets[n], adj.len(), "offsets must end at adj.len()");
        assert!(
            adj.len().is_multiple_of(2),
            "arc count must be even (undirected graph)"
        );
        for i in 0..n {
            assert!(
                offsets[i] <= offsets[i + 1],
                "offsets must be non-decreasing at node {i}"
            );
            let row = &adj[offsets[i]..offsets[i + 1]];
            let mut prev: Option<NodeId> = None;
            for &j in row {
                assert!((j as usize) < n, "neighbor {j} out of range at node {i}");
                assert_ne!(j as usize, i, "self-loop at node {i}");
                if let Some(p) = prev {
                    assert!(p < j, "row of node {i} not strictly ascending");
                }
                prev = Some(j);
            }
        }
        Graph { offsets, adj }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.len())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Incremental builder collecting undirected edges.
///
/// Duplicate edges are merged; self-loops are rejected at insertion time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes and no edges yet.
    pub fn new(n: usize) -> Self {
        assert!(n <= NodeId::MAX as usize, "too many nodes for u32 ids");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert_ne!(u, v, "self-loop at node {u}");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for {} nodes",
            self.n
        );
        self.edges.push((u.min(v), u.max(v)));
        self
    }

    /// Number of nodes the builder was created with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Finalize into a CSR [`Graph`]. Duplicate edges collapse to one.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as NodeId; acc];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Sorted insertion order: `edges` is sorted by (u, v), so each
        // node's down-neighbors arrive ascending; up-neighbors likewise.
        // But interleaving can break per-node order, so sort each row.
        for i in 0..self.n {
            adj[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Graph { offsets, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        for i in 0..3 {
            assert_eq!(g.degree(i), 2);
        }
        assert!(g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        GraphBuilder::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn neighbor_slots_are_positions() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 0).add_edge(2, 3).add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbor_slot(2, 0), Some(0));
        assert_eq!(g.neighbor_slot(2, 1), Some(1));
        assert_eq!(g.neighbor_slot(2, 3), Some(2));
        assert_eq!(g.neighbor_slot(2, 2), None);
        assert_eq!(g.neighbor_slot(0, 3), None);
        assert_eq!(g.arc(2, 3), Some(g.arc_base(2) + 2));
        assert_eq!(g.arc(1, 2), Some(g.arc_base(1)));
        assert_eq!(g.arc(0, 3), None);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).add_edge(0, 2);
        let g = b.build();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn arc_indexing_contiguous() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.arc_base(0), 0);
        assert_eq!(g.arc_base(1), 1);
        assert_eq!(g.arc_base(2), 3);
    }
}
